"""Corpus IO: the column format, tokenization, vocabulary, embeddings,
encoding, and dataset splits.

The canonical corpus is a vertical text format. One line per token:

    token<TAB>cue_tag<TAB>scope_tag

A blank line ends an instance; a line starting with '#' and holding no
tab carries the instance id. One instance holds exactly one negation (or
none), so a sentence with m cues appears as m consecutive instances.
"""
from __future__ import annotations

import hashlib
import json
import logging
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, repeat
from typing import NamedTuple, Sequence

import numpy as np

from .labeling import (
    CUE_TAG_IDS,
    CUE_TAGS,
    SCOPE_TAG_IDS,
    SCOPE_TAGS,
    NegationAnnotation,
    check_bounds,
    cue_vector,
    derive_cue_tags,
    derive_scope_tags,
    scope_bounds,
)

log = logging.getLogger("negscope.corpus")

# punctuation peeled off token edges; everything internal is preserved
_EDGE_PUNCT = set(".,;:!?()[]{}\"'")
_OPENER_FOR = {")": "(", "]": "[", "}": "{"}


class CorpusError(ValueError):
    """Malformed corpus content; the message names the offending line."""


@contextmanager
def open_text(path):
    """`path` opened as UTF-8 text; a byte that does not decode is a CorpusError naming it."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 text ({exc})") from None


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    source_id: str = ""

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("a sentence needs at least one token")
        # str.split() cuts at exactly the characters str.isspace() names
        if " ".join(self.tokens).split() != list(self.tokens):
            raise ValueError("tokens must be non-empty and whitespace-free")
        # the column format writes the id verbatim on its own line; the
        # readers split lines at \n and \r and strip whitespace from ids
        sid = self.source_id
        if sid != sid.strip() or any(c in sid for c in "\t\n\r"):
            raise ValueError(f"source id {sid!r} holds a tab, a line break, "
                             "or leading or trailing whitespace")


@dataclass(frozen=True)
class NegationInstance:
    """One sentence paired with at most one negation annotation."""

    sentence: Sentence
    annotation: NegationAnnotation = field(default_factory=NegationAnnotation)

    def __post_init__(self):
        # bounds are validated eagerly so errors surface at parse time
        check_bounds(self.annotation, len(self.sentence.tokens))

    @property
    def is_negation(self) -> bool:
        return self.annotation.is_negation

    def cue_tags(self) -> list[str]:
        return derive_cue_tags(self.annotation, len(self.sentence.tokens))

    def scope_tags(self) -> list[str]:
        return derive_scope_tags(self.annotation, len(self.sentence.tokens))


# ---------------------------------------------------------------------------
# tokenization

def tokenize(text: str) -> list[str]:
    """Whitespace split, then peel leading/trailing punctuation into tokens.

    Internal characters are never touched, so compounds like "IL-10",
    "E2F-1/DP1", or "p<0.05" survive. A trailing closing bracket stays
    attached when its opener sits inside the same chunk ("CD4(+)" is one
    token); it is peeled once sentence punctuation after it is gone.
    """
    out: list[str] = []
    for chunk in text.split():
        out.extend(_split_chunk(chunk))
    return out


def _keeps_trailing(chunk: str) -> bool:
    last = chunk[-1]
    opener = _OPENER_FOR.get(last)
    if opener is None:
        return False
    inner = chunk[:-1]
    return opener in inner and any(c.isalnum() for c in inner)


def _split_chunk(chunk: str) -> list[str]:
    lead: list[str] = []
    while chunk and chunk[0] in _EDGE_PUNCT:
        lead.append(chunk[0])
        chunk = chunk[1:]
    trail: list[str] = []
    while chunk and chunk[-1] in _EDGE_PUNCT and not _keeps_trailing(chunk):
        trail.append(chunk[-1])
        chunk = chunk[:-1]
    middle = [chunk] if chunk else []
    return lead + middle + list(reversed(trail))


# ---------------------------------------------------------------------------
# column format

# cut before a file is split into blocks: each line's trailing spaces
# (open() has already turned "\r\n" and "\r" into "\n"), and the whole of
# each whitespace-only line
_TRAILING = re.compile(r" +$", re.M)
_BLANK = re.compile(r"\n[^\S\n]+(?=\n|\Z)")
# a '#' line holding no tab after a block's first row: a comment
_COMMENT = re.compile(r"\n#[^\t\n]*$", re.M)


def _is_comment(line: str) -> bool:
    """An id or comment line: it starts with '#' and holds no tab."""
    return line[:1] == "#" and "\t" not in line


def _rows_pattern(width: int) -> re.Pattern:
    """Matches a block's rows, joined by newlines, exactly when every row
    passes _check_row at this width. A token is one or more characters of
    the regex class non-whitespace, which is the complement of
    str.isspace() on every code point."""
    row = r"\S+" + "".join(r"\t(?:" + "|".join(map(re.escape, alphabet)) + ")"
                           for alphabet in (CUE_TAGS, SCOPE_TAGS)[:width - 1])
    return re.compile(rf"{row}(?:\n{row})*")


_ROWS = {width: _rows_pattern(width) for width in (2, 3)}


def _check_row(path, lineno: int, line: str, widths) -> None:
    """The per-row rules: a column count in `widths`, a non-empty
    whitespace-free token, a cue tag and, in a third column, a scope tag
    from the alphabets."""
    cols = line.split("\t")
    if len(cols) not in widths:
        raise CorpusError(f"{path}:{lineno}: expected "
                          f"{' or '.join(map(str, widths))} tab-separated columns")
    if cols[0].split() != [cols[0]]:  # empty, or holds whitespace
        raise CorpusError(f"{path}:{lineno}: empty token" if not cols[0] else
                          f"{path}:{lineno}: token {cols[0]!r} holds whitespace")
    for tag, kind, alphabet in zip(cols[1:], ("cue", "scope"), (CUE_TAG_IDS, SCOPE_TAG_IDS)):
        if tag not in alphabet:
            raise CorpusError(f"{path}:{lineno}: " + (
                f"unknown {kind} tag {tag!r}" if tag else f"empty {kind} tag"))


def _line_numbers(first: int, block: str) -> list[int]:
    """The line number of each row of a block whose first line is line
    `first`: comment lines take a number but hold no row."""
    return [first + k for k, line in enumerate(block.split("\n")) if not _is_comment(line)]


def _columns(path, linenos, block: str, widths) -> list[list[str]]:
    """A block's rows as [tokens, cue tags(, scope tags)]. The rows are
    checked whole; only when that check fails are they read one by one,
    to name the first bad line."""
    rows = _COMMENT.sub("", block)
    width = rows.partition("\n")[0].count("\t") + 1
    if width in widths and _ROWS[width].fullmatch(rows):
        fields = rows.replace("\n", "\t").split("\t")
        return [fields[k::width] for k in range(width)]
    numbers = linenos()
    for lineno, line in zip(numbers, rows.split("\n")):
        _check_row(path, lineno, line, widths)
    raise CorpusError(f"{path}:{numbers[0]}: ragged block, "
                      f"need {' or '.join(map(str, widths))} columns")


def _column_blocks(path, widths):
    """Yield (source_id, line numbers, columns) per blank-line-separated
    block, its columns as _columns gives them. The line numbers come from
    a call, made only to name a bad row. A line starting with '#' is an id
    line only if it holds no tab: the first one before a block names it
    and later ones are comments. Token rows always carry a tab, so a token
    may itself start with '#'.

    Every row is checked, so both readers reject the same rows, and a block
    must hold one column count. Only trailing spaces are cut from a row, so
    a trailing tab still delimits an empty last column, which is rejected;
    a whitespace-only line ends a block like an empty one."""
    with open_text(path) as handle:
        text = "\n" + handle.read()  # line 0, so that every line follows a '\n'
    text = _BLANK.sub("\n", _TRAILING.sub("", text))
    source_id, lineno = "", 0
    for chunk in text.split("\n\n"):
        block = chunk.lstrip("\n")
        first = lineno + len(chunk) - len(block)  # the line number of the block's first line
        lineno += chunk.count("\n") + 2
        block = block.rstrip("\n")
        while _is_comment(block.partition("\n")[0]):
            line, _, block = block.partition("\n")
            source_id = source_id or line.lstrip("#").strip()
            first += 1
        if not block:
            continue
        linenos = partial(_line_numbers, first, block)
        yield source_id, linenos, _columns(path, linenos, block, widths)
        source_id = ""


def parse_column_file(path) -> list[NegationInstance]:
    """Read and validate a gold corpus file.

    Each block must decode to a well-formed annotation whose re-derived
    tags reproduce the file exactly; any inconsistency (an MC run of
    length one, a cue outside its scope, a non-canonical scope column)
    is an error naming the first offending line.
    """
    instances = [
        _decode_block(path, source_id, linenos, *cols)
        for source_id, linenos, cols in _column_blocks(path, (3,))
    ]
    if not instances:
        raise CorpusError(f"{path}: no instances found")
    return instances


def _decode_block(path, source_id, linenos, tokens, ctags, stags) -> NegationInstance:
    n = len(tokens)
    cues = tuple(compress(range(n), cue_vector(ctags)))
    span = scope_bounds(stags)
    if span is not None and not cues:
        raise CorpusError(f"{path}:{linenos()[0]}: scope without any cue token")
    try:
        ann = NegationAnnotation(cues, span)
    except ValueError as exc:
        raise CorpusError(f"{path}:{linenos()[0]}: {exc}") from None

    for want, got, problem in (
        (derive_cue_tags(ann, n), ctags,
         "cue tag {got!r} is not canonical (expected {want!r}; MC needs a run of at least 2)"),
        (derive_scope_tags(ann, n), stags,
         "scope tag {got!r} breaks the O* B* C A* O* shape (expected {want!r})"),
    ):
        if want != got:
            k = next(k for k in range(n) if want[k] != got[k])
            raise CorpusError(f"{path}:{linenos()[k]}: "
                              + problem.format(got=got[k], want=want[k]))
    return NegationInstance(Sentence(tuple(tokens), source_id), ann)


def write_column_file(path, instances) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_column_blocks(
            [
                (inst.sentence.source_id, inst.sentence.tokens,
                 inst.cue_tags(), inst.scope_tags())
                for inst in instances
            ]
        ))


def format_column_blocks(blocks) -> str:
    """blocks: TagBlocks, or tuples of their four fields."""
    parts = []
    for source_id, tokens, ctags, stags in blocks:
        lines = [f"# {source_id}"] if source_id else []
        for k, token in enumerate(tokens):
            if stags is None:
                lines.append(f"{token}\t{ctags[k]}")
            else:
                lines.append(f"{token}\t{ctags[k]}\t{stags[k]}")
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


class TagBlock(NamedTuple):
    """One instance's tags as a run writes them and read_tag_blocks reads
    them, without gold validation: predictions may break the gold patterns."""

    source_id: str
    tokens: Sequence[str]
    cue_tags: Sequence[str]
    scope_tags: Sequence[str] | None  # None for cue-only files


def read_tag_blocks(path) -> list[TagBlock]:
    """Read a 2-column (token, cue) or 3-column (token, cue, scope) file
    without enforcing gold well-formedness. Tags must still come from the
    alphabets and the column count must be uniform per block."""
    blocks = [
        TagBlock(source_id, tuple(cols[0]), tuple(cols[1]),
                 tuple(cols[2]) if len(cols) == 3 else None)
        for source_id, _, cols in _column_blocks(path, (2, 3))
    ]
    if not blocks:
        raise CorpusError(f"{path}: no instances found")
    return blocks


# ---------------------------------------------------------------------------
# vocabulary and embeddings

# the index every unknown token maps to; known tokens count from 1
OOV_INDEX = 0


@dataclass
class Vocabulary:
    """Token -> dense index, case-sensitive, ordered by first occurrence.
    Index OOV_INDEX is reserved for unknown tokens."""

    index: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.index) + 1

    def lookup_all(self, tokens) -> np.ndarray:
        """The index of each of an iterable of tokens, as one int64 array."""
        return np.fromiter(map(self.index.get, tokens, repeat(OOV_INDEX)), np.int64)

    def tokens_in_order(self) -> list[str]:
        return sorted(self.index, key=self.index.get)

    def content_hash(self) -> str:
        payload = json.dumps(
            {"oov_index": OOV_INDEX, "tokens": self.tokens_in_order()},
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"oov_index": OOV_INDEX, "tokens": self.tokens_in_order()},
                handle, ensure_ascii=False, indent=0,
            )

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except ValueError as exc:
                raise CorpusError(f"{path}: not a JSON vocabulary ({exc})") from None
        for key in ("oov_index", "tokens"):
            if not isinstance(data, dict) or key not in data:
                raise CorpusError(f"{path}: no {key!r} entry")
        if data["oov_index"] != OOV_INDEX:
            raise CorpusError(f"{path}: unsupported oov index {data['oov_index']}")
        tokens = data["tokens"]
        if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
            raise CorpusError(f"{path}: 'tokens' is not a list of strings")
        return cls({tok: i + 1 for i, tok in enumerate(tokens)})


def build_vocab(instances) -> Vocabulary:
    index: dict[str, int] = {}
    for inst in instances:
        for token in inst.sentence.tokens:
            if token not in index:
                index[token] = len(index) + 1
    return Vocabulary(index)


@dataclass
class EmbeddingCoverage:
    """Which vocabulary entries the embedding file provided."""

    covered: set[str]
    missing: list[str]

    @property
    def type_oov_rate(self) -> float:
        total = len(self.covered) + len(self.missing)
        return len(self.missing) / total if total else 0.0


def load_embedding_file(path, vocab: Vocabulary, expected_dim: int | None = None):
    """Read a text embedding file: header '<count> <dim>', then one token
    and dim reals per line. Returns a (dim, vocab.size) matrix with one
    column per vocabulary index; tokens absent from the file, and the
    reserved unknown index, stay at the zero vector. A vocabulary token's
    row must hold finite values and appear only once.
    """
    with open_text(path) as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise CorpusError(f"{path}:1: expected header '<count> <dim>'")
        try:
            declared, dim = int(header[0]), int(header[1])
        except ValueError:
            raise CorpusError(f"{path}:1: expected header '<count> <dim>'") from None
        if expected_dim is not None and dim != expected_dim:
            raise CorpusError(
                f"{path}: embedding dim {dim} != configured dim {expected_dim}"
            )
        matrix = np.zeros((dim, vocab.size))
        covered: set[str] = set()
        seen = 0
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            # word2vec's text writer ends each vector line with a space
            parts = line.rstrip(" \n").split(" ")
            if len(parts) != dim + 1:
                raise CorpusError(
                    f"{path}:{lineno}: expected a token and {dim} values, "
                    f"got {len(parts)} fields"
                )
            seen += 1
            token = parts[0]
            idx = vocab.index.get(token)
            if idx is not None:
                if token in covered:
                    raise CorpusError(f"{path}:{lineno}: second vector for {token!r}")
                try:
                    matrix[:, idx] = [float(v) for v in parts[1:]]
                except ValueError:
                    raise CorpusError(f"{path}:{lineno}: non-numeric value") from None
                if not np.isfinite(matrix[:, idx]).all():
                    raise CorpusError(f"{path}:{lineno}: non-finite value")
                covered.add(token)
    if seen != declared:
        log.warning("%s: header declares %d vectors, file has %d", path, declared, seen)
    missing = [t for t in vocab.tokens_in_order() if t not in covered]
    return matrix, EmbeddingCoverage(covered, missing)


# ---------------------------------------------------------------------------
# encoding

def clip_annotation(annotation: NegationAnnotation, max_len: int) -> NegationAnnotation:
    """Restrict an annotation to the first max_len tokens. If truncation
    removes every cue token the instance degrades to an assertion."""
    cues = tuple(i for i in annotation.cue_indices if i < max_len)
    if not cues:
        return NegationAnnotation()
    if annotation.scope is None:
        return NegationAnnotation(cues, None)
    left, right = annotation.scope
    return NegationAnnotation(cues, (left, min(right, max_len - 1)))


@dataclass
class EncodedInstance:
    """Arrays the models consume, one entry per token of `tokens`; the tag
    fields hold the (clipped) gold."""

    source_id: str
    tokens: tuple[str, ...]
    token_ids: np.ndarray  # (len(tokens),) int64
    cue_label_ids: np.ndarray  # (len(tokens),) int64
    scope_label_ids: np.ndarray  # (len(tokens),) int64
    cue_bits: np.ndarray  # (len(tokens),) int64
    cue_tags: tuple[str, ...]
    scope_tags: tuple[str, ...]
    annotation: NegationAnnotation

    @property
    def is_negation(self) -> bool:
        return self.annotation.is_negation


# the cue bit of each cue tag id, as cue_vector gives it
_CUE_BIT_OF_ID = np.array(cue_vector(CUE_TAGS), np.int64)


def encode_instances(
    instances, vocab: Vocabulary, max_len: int | None = None
) -> list[EncodedInstance]:
    """Cut each instance to max_len tokens, clipping its annotation;
    max_len=None keeps whole sentences. The tokens and tags of all
    instances are looked up in one pass, and each instance's arrays are
    slices of the four results."""
    if max_len is not None and max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    instances = list(instances)
    tokens = [inst.sentence.tokens[:max_len] for inst in instances]
    anns = [clip_annotation(inst.annotation, len(toks)) for inst, toks in zip(instances, tokens)]
    ctags = [derive_cue_tags(ann, len(toks)) for ann, toks in zip(anns, tokens)]
    stags = [derive_scope_tags(ann, len(toks)) for ann, toks in zip(anns, tokens)]
    ids = vocab.lookup_all(chain.from_iterable(tokens))
    cue_ids = np.fromiter(map(CUE_TAG_IDS.__getitem__, chain.from_iterable(ctags)),
                          np.int64, ids.size)
    scope_ids = np.fromiter(map(SCOPE_TAG_IDS.__getitem__, chain.from_iterable(stags)),
                            np.int64, ids.size)
    bits = _CUE_BIT_OF_ID[cue_ids]
    bounds = list(accumulate(map(len, tokens), initial=0))
    return [
        EncodedInstance(inst.sentence.source_id, toks, ids[a:b], cue_ids[a:b],
                        scope_ids[a:b], bits[a:b], tuple(ct), tuple(st), ann)
        for inst, toks, ann, ct, st, a, b
        in zip(instances, tokens, anns, ctags, stags, bounds, bounds[1:])
    ]


# ---------------------------------------------------------------------------
# splits and statistics

@dataclass
class DatasetSplit:
    train: list
    validation: list
    test: list

    def __iter__(self):
        return iter((self.train, self.validation, self.test))


def split_dataset(instances, seed: int = 0) -> DatasetSplit:
    """Shuffle once with the seed, then slice contiguously 70/15/15. Counts
    follow largest-remainder rounding so they always sum to the corpus size;
    a split that leaves a part empty (under 5 instances) is an error."""
    total = len(instances)
    exact = [r * total for r in (0.70, 0.15, 0.15)]
    counts = [int(np.floor(x)) for x in exact]
    leftover = total - sum(counts)
    by_fraction = sorted(range(3), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in by_fraction[:leftover]:
        counts[i] += 1
    if 0 in counts:
        raise ValueError(f"need at least 5 instances to split, got {total}: train/validation/"
                         f"test would hold {counts[0]}/{counts[1]}/{counts[2]}")

    order = np.random.default_rng(seed).permutation(total)
    shuffled = [instances[i] for i in order]
    a, b = counts[0], counts[0] + counts[1]
    return DatasetSplit(shuffled[:a], shuffled[a:b], shuffled[b:])


def corpus_stats(instances) -> dict:
    """Instance, sentence and token counts and the negation fraction."""
    negation = sum(1 for inst in instances if inst.is_negation)
    tokens = [t for inst in instances for t in inst.sentence.tokens]
    # a sentence with several negations appears as several instances
    sentences = len({
        inst.sentence.source_id or inst.sentence.tokens for inst in instances
    })
    return {
        "instances": len(instances),
        "sentences": sentences,
        "negation_instances": negation,
        "negation_fraction": negation / len(instances) if instances else 0.0,
        "tokens": len(tokens),
        "distinct_tokens": len(set(tokens)),
    }


def corpus_stat_lines(instances) -> list[str]:
    """corpus_stats as sorted `corpus.<key>=<value>` lines, fractions to four
    decimals: the form a run log records them in."""
    stats = corpus_stats(instances)
    return [f"corpus.{key}={stats[key]:.4f}" if isinstance(stats[key], float)
            else f"corpus.{key}={stats[key]}" for key in sorted(stats)]
