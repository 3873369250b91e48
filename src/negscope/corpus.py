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
from dataclasses import dataclass, field

import numpy as np

from .labeling import (
    CUE_TAG_IDS,
    SCOPE_TAG_IDS,
    NegationAnnotation,
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


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    source_id: str = ""

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("a sentence needs at least one token")
        if any(not t or any(c.isspace() for c in t) for t in self.tokens):
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
        n = len(self.sentence.tokens)
        # bounds are validated eagerly so errors surface at parse time
        derive_cue_tags(self.annotation, n)
        derive_scope_tags(self.annotation, n)

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

def _column_blocks(path, widths):
    """Yield (source_id, [(lineno, columns), ...]) per blank-line-separated
    block. A line starting with '#' is an id line only if it holds no tab:
    the first one before a block names it and later ones are comments.
    Token rows always carry a tab, so a token may itself start with '#'.

    Every row is checked here, so both readers reject the same rows: a
    column count in `widths`, a non-empty whitespace-free token, a cue tag
    and, in a third column, a scope tag from the alphabets. Only a trailing
    '\r' or space is cut from a row, so a trailing tab still delimits an
    empty last column, which is rejected; a whitespace-only line ends a
    block like an empty one."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    block: list[tuple[int, list[str]]] = []
    source_id = ""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r ")
        if line.startswith("#") and "\t" not in line:
            if not block and not source_id:
                source_id = line.lstrip("#").strip()
            continue
        if not line.strip():
            if block:
                yield source_id, block
                block, source_id = [], ""
            continue
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
        block.append((lineno, cols))
    if block:
        yield source_id, block


def parse_column_file(path) -> list[NegationInstance]:
    """Read and validate a gold corpus file.

    Each block must decode to a well-formed annotation whose re-derived
    tags reproduce the file exactly; any inconsistency (an MC run of
    length one, a cue outside its scope, a non-canonical scope column)
    is an error naming the first offending line.
    """
    instances = [
        _decode_block(path, block, source_id)
        for source_id, block in _column_blocks(path, (3,))
    ]
    if not instances:
        raise CorpusError(f"{path}: no instances found")
    return instances


def _decode_block(path, block, source_id) -> NegationInstance:
    linenos = [lineno for lineno, _ in block]
    tokens = tuple(cols[0] for _, cols in block)
    ctags = [cols[1] for _, cols in block]
    stags = [cols[2] for _, cols in block]

    cues = tuple(k for k, b in enumerate(cue_vector(ctags)) if b)
    span = scope_bounds(stags)
    if span is not None and not cues:
        raise CorpusError(f"{path}:{linenos[0]}: scope without any cue token")
    try:
        ann = NegationAnnotation(cues, span)
    except ValueError as exc:
        raise CorpusError(f"{path}:{linenos[0]}: {exc}") from None

    n = len(tokens)
    for k, (want, got) in enumerate(zip(derive_cue_tags(ann, n), ctags)):
        if want != got:
            raise CorpusError(
                f"{path}:{linenos[k]}: cue tag {got!r} is not canonical "
                f"(expected {want!r}; MC needs a run of at least 2)"
            )
    for k, (want, got) in enumerate(zip(derive_scope_tags(ann, n), stags)):
        if want != got:
            raise CorpusError(
                f"{path}:{linenos[k]}: scope tag {got!r} breaks the "
                f"O* B* C A* O* shape (expected {want!r})"
            )
    return NegationInstance(Sentence(tokens, source_id), ann)


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
    """blocks: (source_id, tokens, cue_tags, scope_tags or None) tuples."""
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


@dataclass(frozen=True)
class TagBlock:
    """One instance read without gold validation: predictions are allowed
    to break the gold patterns."""

    source_id: str
    tokens: tuple[str, ...]
    cue_tags: tuple[str, ...]
    scope_tags: tuple[str, ...] | None  # None for cue-only files


def read_tag_blocks(path) -> list[TagBlock]:
    """Read a 2-column (token, cue) or 3-column (token, cue, scope) file
    without enforcing gold well-formedness. Tags must still come from the
    alphabets and the column count must be uniform per block."""
    blocks: list[TagBlock] = []
    for source_id, rows in _column_blocks(path, (2, 3)):
        widths = {len(cols) for _, cols in rows}
        if len(widths) > 1:
            raise CorpusError(f"{path}:{rows[0][0]}: ragged block, need 2 or 3 columns")
        blocks.append(TagBlock(
            source_id,
            tuple(cols[0] for _, cols in rows),
            tuple(cols[1] for _, cols in rows),
            tuple(cols[2] for _, cols in rows) if widths == {3} else None,
        ))
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

    def lookup(self, token: str) -> int:
        return self.index.get(token, OOV_INDEX)

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
            data = json.load(handle)
        for key in ("oov_index", "tokens"):
            if not isinstance(data, dict) or key not in data:
                raise CorpusError(f"{path}: no {key!r} entry")
        if data["oov_index"] != OOV_INDEX:
            raise CorpusError(f"{path}: unsupported oov index {data['oov_index']}")
        return cls({tok: i + 1 for i, tok in enumerate(data["tokens"])})


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
    with open(path, encoding="utf-8") as handle:
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


def encode_instance(
    inst: NegationInstance, vocab: Vocabulary, max_len: int | None = None
) -> EncodedInstance:
    """Cut to max_len tokens, clipping the annotation; max_len=None keeps
    the whole sentence."""
    if max_len is not None and max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    tokens = inst.sentence.tokens[:max_len]
    ann = clip_annotation(inst.annotation, len(tokens))
    ctags = derive_cue_tags(ann, len(tokens))
    stags = derive_scope_tags(ann, len(tokens))
    return EncodedInstance(
        inst.sentence.source_id,
        tokens,
        np.array([vocab.lookup(t) for t in tokens], dtype=np.int64),
        np.array([CUE_TAG_IDS[t] for t in ctags], dtype=np.int64),
        np.array([SCOPE_TAG_IDS[t] for t in stags], dtype=np.int64),
        np.array(cue_vector(ctags), dtype=np.int64),
        tuple(ctags),
        tuple(stags),
        ann,
    )


def encode_instances(
    instances, vocab: Vocabulary, max_len: int | None = None
) -> list[EncodedInstance]:
    return [encode_instance(inst, vocab, max_len) for inst in instances]


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
    follow largest-remainder rounding so they always sum to the corpus size."""
    total = len(instances)
    if total < 3:
        raise ValueError(f"need at least 3 instances to split, got {total}")

    exact = [r * total for r in (0.70, 0.15, 0.15)]
    counts = [int(np.floor(x)) for x in exact]
    leftover = total - sum(counts)
    by_fraction = sorted(range(3), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in by_fraction[:leftover]:
        counts[i] += 1

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
