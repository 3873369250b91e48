"""Seeded, BioScope-shaped column files for the benchmark workloads.

Sentences are clauses of function words and Zipf-distributed content words
joined by punctuation. A negation instance carries one cue from a small
closed class, and its scope runs from the cue (from the clause start for
verbal cues such as "not") to the end of the clause. Cue words never occur
outside a cue, so a tagger can learn them within a few epochs.

The same (shape, seed) gives byte-identical files. Only the generated files
reach the program under test.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

FUNCTION_WORDS = (
    "the", "a", "of", "in", "to", "and", "with", "for", "by", "on", "at",
    "from", "was", "were", "is", "are", "be", "been", "this", "these", "that",
    "as", "or", "its", "their", "both", "we", "it", "which", "after",
)
VERBS = (
    "induced", "affected", "reduced", "increased", "showed", "detected",
    "inhibited", "activated", "expressed", "required", "bound", "altered",
    "observed", "regulated", "blocked", "mediated", "revealed", "enhanced",
)
# cue -> (share of negations, whether the scope also covers the clause
# before the cue); a few cues dominate, as in BioScope, and every cue is
# frequent enough to occur in a training split
SINGLE_CUES = {"not": (0.35, True), "no": (0.30, False), "without": (0.15, False)}
MULTIWORD_CUES = (("rather", "than"),)
PAIR_SHARE = 0.1  # share of negations with neither ... nor, and with MULTIWORD_CUES
CLAUSE_PUNCT = (",", ";", ",", ":")


@dataclass(frozen=True)
class Shape:
    """What a generated file looks like, independent of the seed."""

    sentences: int
    negation_frac: float
    # sentence length mixture: (weight, low, high) uniform integer ranges
    lengths: tuple[tuple[float, int, int], ...]
    content_pool: int  # distinct content words available
    zipf_a: float  # Zipf exponent of content-word frequencies
    function_frac: float = 0.35  # share of filler words from FUNCTION_WORDS
    rare_cues: bool = True  # whether the multiword (MC) and paired cues occur


# ~25-token mean, ~14% negation, the corpus of the headline experiment; 42
# negations leave some in every test split, but a rare cue would often be
# missing from the training split, so only the common single-word cues occur
EXPERIMENT = Shape(300, 0.14, ((0.25, 8, 17), (0.55, 18, 32), (0.20, 33, 50)),
                   8000, 1.1, rare_cues=False)
# held-out text the trained experiment models tag after the run
EXPERIMENT_HELDOUT = Shape(120, 0.14, ((0.25, 8, 17), (0.55, 18, 32), (0.20, 33, 50)),
                           8000, 1.1, rare_cues=False)
# a training split whose vocabulary approaches BioScope's ~15k types
EMB_TRAIN = Shape(1000, 0.14, ((0.25, 8, 17), (0.55, 18, 32), (0.20, 33, 50)),
                  400000, 0.5, function_frac=0.2)
EMB_TRAIN_HELDOUT = Shape(1500, 0.14, ((0.25, 8, 17), (0.55, 18, 32), (0.20, 33, 50)),
                          400000, 0.5, function_frac=0.2)
# fixture corpus for predict-ragged: short sentences, dense negation
FIXTURE = Shape(300, 0.5, ((1.0, 6, 14),), 8000, 1.1)
# held-out prediction input: many short sentences, a long tail, more negation
RAGGED = Shape(400, 0.4, ((0.45, 3, 9), (0.40, 10, 30), (0.12, 31, 60), (0.03, 61, 100)),
               8000, 1.1)


def content_word(index: int) -> str:
    """Deterministic pronounceable word for a lexicon rank."""
    consonants = "bcdfghklmnprstvz"
    vowels = "aeiou"
    out = []
    k = index + 1
    while k:
        k, r = divmod(k, 80)
        out.append(consonants[r % 16] + vowels[r // 16])
    return "".join(out) + "in"


class _Sampler:
    def __init__(self, shape: Shape, rng: np.random.Generator):
        self.shape = shape
        self.rng = rng
        ranks = np.arange(1, shape.content_pool + 1, dtype=np.float64)
        weights = ranks ** -shape.zipf_a
        self.cdf = np.cumsum(weights / weights.sum())

    def content(self) -> str:
        return content_word(int(np.searchsorted(self.cdf, self.rng.random())))

    def filler(self, count: int) -> list[str]:
        words = []
        for _ in range(count):
            draw = self.rng.random()
            if draw < self.shape.function_frac:
                words.append(FUNCTION_WORDS[self.rng.integers(len(FUNCTION_WORDS))])
            elif draw < self.shape.function_frac + 0.1:
                words.append(VERBS[self.rng.integers(len(VERBS))])
            else:
                words.append(self.content())
        return words


def _clauses(sampler: _Sampler, n: int) -> list[list[str]]:
    """Split n - 1 word slots into clauses; the sentence ends with '.'."""
    slots = n - 1
    clauses = []
    while slots > 0:
        size = min(slots, int(sampler.rng.integers(4, 13)))
        if slots - size < 3:  # no clause shorter than 3 tokens after a comma
            size = slots
        clauses.append(size)
        slots -= size
    # the punctuation between clauses takes one slot from each but the last
    return [sampler.filler(c - 1 if i < len(clauses) - 1 else c)
            for i, c in enumerate(clauses)]


def _negate(sampler: _Sampler, clause: list[str]):
    """Insert one cue into a clause; return (clause, cue offsets, scope start)."""
    rng = sampler.rng
    kind = rng.random() if sampler.shape.rare_cues else 1.0
    if kind < PAIR_SHARE and len(clause) >= 2:
        # discontinuous pair: neither X nor Y ...
        words = ["neither", clause[0], "nor"] + clause[1:]
        return words, (0, 2), 0
    if kind < 2 * PAIR_SHARE:
        cue = MULTIWORD_CUES[rng.integers(len(MULTIWORD_CUES))]
        at = int(rng.integers(0, len(clause)))
        words = clause[:at] + list(cue) + clause[at:]
        return words, (at, at + 1), at
    names = list(SINGLE_CUES)
    shares = np.array([SINGLE_CUES[c][0] for c in names])
    cue = names[rng.choice(len(names), p=shares / shares.sum())]
    verbal = SINGLE_CUES[cue][1]
    at = int(rng.integers(1 if verbal else 0, len(clause)))
    words = clause[:at] + [cue] + clause[at:]
    return words, (at,), (0 if verbal else at)


def lengths(shape: Shape) -> list[int]:
    """The sentence-length multiset, the same for every seed: evenly spaced
    quantiles of the length mixture. Fixing it keeps the token count, and
    so the work, from drifting with the seed."""
    total = sum(w for w, _, _ in shape.lengths)
    probs: dict[int, float] = {}
    for weight, lo, hi in shape.lengths:
        for n in range(lo, hi + 1):
            probs[n] = probs.get(n, 0.0) + weight / total / (hi - lo + 1)
    support = sorted(probs)
    cdf = np.cumsum([probs[n] for n in support])
    quantiles = (np.arange(shape.sentences) + 0.5) / shape.sentences
    return [support[min(int(np.searchsorted(cdf, q)), len(support) - 1)] for q in quantiles]


def _sentence(sampler: _Sampler, n: int, negated: bool):
    """(tokens, cue tags, scope tags) for one generated sentence of about n
    tokens (a multiword or paired cue adds one)."""
    clauses = _clauses(sampler, max(n, 3))
    target = int(sampler.rng.integers(len(clauses))) if negated else -1
    tokens, ctags, stags = [], [], []
    for i, clause in enumerate(clauses):
        if i == target:
            # the cue takes the place of clause words so the length holds
            words, cues, start = _negate(sampler, clause[:max(len(clause) - 1, 2)])
            for k, word in enumerate(words):
                in_scope = k >= start
                first_cue = k == cues[0]
                tokens.append(word)
                if k in cues:
                    multi = len(cues) == 2 and cues[1] == cues[0] + 1
                    ctags.append("MC" if multi else "C")
                else:
                    ctags.append("NC")
                stags.append("C" if first_cue else ("O" if not in_scope
                             else ("B" if k < cues[0] else "A")))
        else:
            tokens += clause
            ctags += ["NC"] * len(clause)
            stags += ["O"] * len(clause)
        punct = "." if i == len(clauses) - 1 else CLAUSE_PUNCT[sampler.rng.integers(len(CLAUSE_PUNCT))]
        tokens.append(punct)
        ctags.append("NC")
        stags.append("O")
    return tokens, ctags, stags


def generate(shape: Shape, seed: int, prefix: str) -> list[tuple]:
    """Blocks (source id, tokens, cue tags, scope tags): seeded words, cue
    positions and sentence order over a fixed length multiset and an exact
    negation count."""
    rng = np.random.default_rng([seed, shape.sentences, shape.content_pool, *prefix.encode()])
    sampler = _Sampler(shape, rng)
    negations = round(shape.negation_frac * shape.sentences)
    negated = set(rng.choice(shape.sentences, size=negations, replace=False).tolist())
    sizes = rng.permutation(lengths(shape))
    return [(f"{prefix}.{i}", *_sentence(sampler, int(sizes[i]), i in negated))
            for i in range(shape.sentences)]


def format_blocks(blocks) -> str:
    parts = []
    for source_id, tokens, ctags, stags in blocks:
        lines = [f"# {source_id}"]
        lines += [f"{t}\t{c}\t{s}" for t, c, s in zip(tokens, ctags, stags)]
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


def write(path, blocks) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_blocks(blocks))


def describe(blocks) -> dict:
    """Shape record of a generated file, so a drift in the inputs shows in
    the result rather than as a speed change."""
    sizes = sorted(len(b[1]) for b in blocks)
    q1, q2, q3 = statistics.quantiles(sizes, n=4)
    negation = sum(1 for b in blocks if any(c != "NC" for c in b[2]))
    return {
        "instances": len(blocks),
        "negation_frac": negation / len(blocks),
        "tokens": sum(sizes),
        "types": len({t for b in blocks for t in b[1]}),
        "len_q1": q1, "len_median": q2, "len_q3": q3, "len_max": sizes[-1],
    }


def embedding_lines(blocks, dim: int, seed: int) -> str:
    """Word2vec text vectors for every token type in the blocks. Cue words
    cluster tightly around one vector, as negation words do in pretrained
    vectors; the rest are independent Gaussian vectors."""
    rng = np.random.default_rng([seed, dim])
    negation = rng.normal(0.0, 0.5, dim)
    cue_words = (set(SINGLE_CUES) | {w for pair in MULTIWORD_CUES for w in pair}
                 | {"neither", "nor"}) - set(FUNCTION_WORDS)
    types = sorted({t for b in blocks for t in b[1]})
    lines = [f"{len(types)} {dim}"]
    for token in types:
        if token in cue_words:
            vec = negation + rng.normal(0.0, 0.1, dim)
        else:
            vec = rng.normal(0.0, 0.25, dim)
        lines.append(token + " " + " ".join(f"{v:.5f}" for v in vec))
    return "\n".join(lines) + "\n"
