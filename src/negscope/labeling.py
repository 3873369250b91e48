"""Tag alphabets, gold tag derivation, and the scope smoother.

Cue tags: NC (not a cue), C (single-token or discontinuous multiword cue),
MC (token inside a continuous multiword cue, runs of length >= 2 only).

Scope tags: O (outside), B (in scope, before the first cue token), C (the
first cue token), A (in scope, after it). A well-formed gold sequence
matches O* B* C A* O*, so every gold scope is one contiguous block.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat

CUE_TAGS = ("NC", "C", "MC")
SCOPE_TAGS = ("O", "B", "C", "A")

CUE_TAG_IDS = {t: i for i, t in enumerate(CUE_TAGS)}
SCOPE_TAG_IDS = {t: i for i, t in enumerate(SCOPE_TAGS)}
_CUE_BITS = {"C": 1, "MC": 1}


@dataclass(frozen=True)
class NegationAnnotation:
    """One negation: the cue token positions and the scope span (inclusive).

    `cue_indices` is sorted and duplicate-free; `scope` is None for an
    assertion (no negation). When a scope is present the cue must lie
    inside it, and a scope without any cue is rejected.
    """

    cue_indices: tuple[int, ...] = ()
    scope: tuple[int, int] | None = None

    def __post_init__(self):
        cues = tuple(sorted(set(self.cue_indices)))
        object.__setattr__(self, "cue_indices", cues)
        if any(i < 0 for i in cues):
            raise ValueError(f"negative cue index in {cues}")
        if self.scope is not None:
            left, right = self.scope
            if left < 0 or left > right:
                raise ValueError(f"bad scope span {self.scope}")
            if not cues:
                raise ValueError("scope without a cue")
            if cues[0] < left or cues[-1] > right:
                raise ValueError(f"cue {cues} outside scope {self.scope}")
            object.__setattr__(self, "scope", (int(left), int(right)))

    @property
    def is_negation(self) -> bool:
        return bool(self.cue_indices)


def _runs(positions) -> list[tuple[int, int]]:
    """(first, last) of each maximal run of consecutive integers in an
    increasing sequence."""
    runs: list[tuple[int, int]] = []
    for k in positions:
        if runs and k == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], k)
        else:
            runs.append((k, k))
    return runs


def check_bounds(annotation: NegationAnnotation, n: int) -> None:
    """Raise ValueError unless every cue index and the scope fit n tokens."""
    cues = annotation.cue_indices
    if cues and cues[-1] >= n:
        raise ValueError(f"cue index {cues[-1]} out of bounds for length {n}")
    if annotation.scope is not None and annotation.scope[1] >= n:
        raise ValueError(f"scope {annotation.scope} out of bounds for length {n}")


def derive_cue_tags(annotation: NegationAnnotation, n: int) -> list[str]:
    """Cue tag per token: maximal runs of >= 2 adjacent cue indices become MC,
    isolated cue tokens (including parts of discontinuous cues) become C."""
    check_bounds(annotation, n)
    tags = ["NC"] * n
    for first, last in _runs(annotation.cue_indices):
        tags[first:last + 1] = ["MC" if last > first else "C"] * (last + 1 - first)
    return tags


def derive_scope_tags(annotation: NegationAnnotation, n: int) -> list[str]:
    """Scope tag per token: B before the first cue index, C at it, A after,
    O outside the span. Empty annotation gives all O."""
    check_bounds(annotation, n)
    if annotation.scope is None:
        return ["O"] * n
    left, right = annotation.scope
    first_cue = annotation.cue_indices[0]
    return (["O"] * left + ["B"] * (first_cue - left) + ["C"]
            + ["A"] * (right - first_cue) + ["O"] * (n - 1 - right))


def cue_vector(cue_tags: list[str]) -> list[int]:
    """Binary cue indicator per token: 1 where the tag is C or MC."""
    return list(map(_CUE_BITS.get, cue_tags, repeat(0)))


def scope_bounds(scope_tags: list[str]) -> tuple[int, int] | None:
    """(leftmost, rightmost) in-scope positions, or None when all O."""
    idx = list(compress(range(len(scope_tags)), map("O".__ne__, scope_tags)))
    if not idx:
        return None
    return idx[0], idx[-1]


def postprocess(scope_tags: list[str], cue_bits: list[int]) -> list[str]:
    """Smooth a predicted scope into a single contiguous block around the cue.

    Steps, in order:
      1. Every cue position is forced in scope, along with every position
         between the first and last cue position.
      2. The anchor block is the maximal in-scope run containing the first
         cue position. Scanning left and then right, a neighboring in-scope
         run separated from the block by a gap of g all-O positions is
         absorbed (gap included) iff g <= that run's length; each merge
         re-anchors the scan at the enlarged block, and the first run that
         fails the test stops the scan in that direction.
      3. In-scope positions outside the final block are cleared to O.
      4. The block is relabeled B before the first cue position, C at it,
         A after it.

    The output is always one contiguous block with exactly one C, and the
    transform is idempotent. A cue vector without any set bit is an error.
    """
    n = len(scope_tags)
    if len(cue_bits) != n:
        raise ValueError(f"length mismatch: {n} tags vs {len(cue_bits)} cue bits")
    cue_pos = [k for k, b in enumerate(cue_bits) if b]
    if not cue_pos:
        raise ValueError("postprocess needs at least one cue position")
    first, last = cue_pos[0], cue_pos[-1]
    runs = _runs([k for k, t in enumerate(scope_tags)
                  if t != "O" or first <= k <= last])
    anchor = next(i for i, (_, right) in enumerate(runs) if right >= first)
    lo, hi = runs[anchor]
    for left, right in reversed(runs[:anchor]):
        if lo - right - 1 > right - left + 1:
            break
        lo = left
    for left, right in runs[anchor + 1:]:
        if left - hi - 1 > right - left + 1:
            break
        hi = right
    return derive_scope_tags(NegationAnnotation(tuple(cue_pos), (lo, hi)), n)
