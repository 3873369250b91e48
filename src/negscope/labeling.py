"""Tag alphabets, gold tag derivation, and the scope smoother.

Cue tags: NC (not a cue), C (single-token or discontinuous multiword cue),
MC (token inside a continuous multiword cue, runs of length >= 2 only).

Scope tags: O (outside), B (in scope, before the first cue token), C (the
first cue token), A (in scope, after it). A well-formed gold sequence
matches O* B* C A* O*, so every gold scope is one contiguous block.
"""
from __future__ import annotations

from dataclasses import dataclass

CUE_TAGS = ("NC", "C", "MC")
SCOPE_TAGS = ("O", "B", "C", "A")

CUE_TAG_IDS = {t: i for i, t in enumerate(CUE_TAGS)}
SCOPE_TAG_IDS = {t: i for i, t in enumerate(SCOPE_TAGS)}


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


def derive_cue_tags(annotation: NegationAnnotation, n: int) -> list[str]:
    """Cue tag per token: maximal runs of >= 2 adjacent cue indices become MC,
    isolated cue tokens (including parts of discontinuous cues) become C."""
    cues = annotation.cue_indices
    if cues and cues[-1] >= n:
        raise ValueError(f"cue index {cues[-1]} out of bounds for length {n}")
    tags = ["NC"] * n
    run: list[int] = []
    for idx in list(cues) + [-2]:
        if run and idx != run[-1] + 1:
            tag = "MC" if len(run) >= 2 else "C"
            for j in run:
                tags[j] = tag
            run = []
        if idx >= 0:
            run.append(idx)
    return tags


def derive_scope_tags(annotation: NegationAnnotation, n: int) -> list[str]:
    """Scope tag per token: B before the first cue index, C at it, A after,
    O outside the span. Empty annotation gives all O."""
    if annotation.scope is None:
        return ["O"] * n
    left, right = annotation.scope
    if right >= n:
        raise ValueError(f"scope {annotation.scope} out of bounds for length {n}")
    first_cue = annotation.cue_indices[0]
    tags = ["O"] * n
    for k in range(left, right + 1):
        tags[k] = "B" if k < first_cue else ("C" if k == first_cue else "A")
    return tags


def cue_vector(cue_tags: list[str]) -> list[int]:
    """Binary cue indicator per token: 1 where the tag is C or MC."""
    return [1 if t in ("C", "MC") else 0 for t in cue_tags]


def scope_bounds(scope_tags: list[str]) -> tuple[int, int] | None:
    """(leftmost, rightmost) in-scope positions, or None when all O."""
    idx = [k for k, t in enumerate(scope_tags) if t != "O"]
    if not idx:
        return None
    return idx[0], idx[-1]


def is_continuous(scope_tags: list[str]) -> bool:
    """True when every position between the scope bounds is in scope.
    An all-O sequence counts as continuous."""
    bounds = scope_bounds(scope_tags)
    if bounds is None:
        return True
    left, right = bounds
    return all(scope_tags[k] != "O" for k in range(left, right + 1))


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

    in_scope = [t != "O" for t in scope_tags]
    for k in range(first, last + 1):
        in_scope[k] = True

    lo = first
    while lo > 0 and in_scope[lo - 1]:
        lo -= 1
    hi = last
    while hi < n - 1 and in_scope[hi + 1]:
        hi += 1

    # leftward merges
    while lo > 0:
        j = lo - 1
        while j >= 0 and not in_scope[j]:
            j -= 1
        if j < 0:
            break
        gap = lo - 1 - j
        i = j
        while i > 0 and in_scope[i - 1]:
            i -= 1
        if gap <= j - i + 1:
            lo = i
        else:
            break

    # rightward merges
    while hi < n - 1:
        i = hi + 1
        while i < n and not in_scope[i]:
            i += 1
        if i >= n:
            break
        gap = i - hi - 1
        j = i
        while j < n - 1 and in_scope[j + 1]:
            j += 1
        if gap <= j - i + 1:
            hi = j
        else:
            break

    out = ["O"] * n
    for k in range(lo, hi + 1):
        out[k] = "B" if k < first else ("C" if k == first else "A")
    return out
