"""Evaluation: a per-sentence count table, the reports built from its
column sums, and the index groups that make the scope test set of
gold-cue and predicted-cue runs comparable.

Metrics are percentages in [0, 100], each a ratio of sentence_counts
column sums; precision is NaN when nothing was predicted positive, recall
is NaN when nothing is positive in gold, and F1 is NaN whenever either of
those is. All-O scope predictions count as (vacuously) continuous and
stay out of the continuity denominator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .labeling import CUE_TAG_IDS, SCOPE_TAG_IDS


def metric_str(value: float) -> str:
    """Fixed two-decimal rendering; NaN prints as 'NaN'."""
    return "NaN" if math.isnan(value) else f"{value:.2f}"


@dataclass(frozen=True)
class TokenMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float


def _percent(hits: int, total: int) -> float:
    return math.nan if total == 0 else 100.0 * hits / total


# ---------------------------------------------------------------------------
# the per-sentence count table

# sentence_counts' columns, in order
COUNT_COLUMNS = ("tp", "fp", "fn", "tn", "gold", "exact", "pred", "one_block")

# each task's tag codes; code 0, NC or O, is the only negative tag
_TAG_CODES = {"cue": CUE_TAG_IDS, "scope": SCOPE_TAG_IDS}


def sentence_counts(preds, golds, task: str) -> np.ndarray:
    """An (n, 8) int64 table, one row per sentence, columns COUNT_COLUMNS:
    the token confusion (positive class C/MC for cues, B/C/A for scopes);
    gold, 1 if gold has a positive token; exact, 1 if it has and the
    prediction matches it (the whole tag row for cues, the in/out set for
    scopes); pred, 1 if the prediction has a positive token; one_block, 1
    if it has and they form one contiguous run. Misaligned rows and a tag
    outside the task's alphabet are errors."""
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} gold sequences")
    lengths = np.fromiter(map(len, golds), np.int64, len(golds))
    for i, (pred, n) in enumerate(zip(preds, lengths)):
        if len(pred) != n:
            raise ValueError(f"instance {i}: {len(pred)} predicted tags vs {n} gold")
    codes = _TAG_CODES[task]
    total = int(lengths.sum())
    try:
        p, g = (np.fromiter(map(codes.__getitem__, chain.from_iterable(rows)), np.int8, total)
                for rows in (preds, golds))
    except KeyError as exc:
        raise ValueError(f"unknown {task} tag {exc}") from None
    pp, gp = p > 0, g > 0
    starts = np.cumsum(lengths) - lengths
    before = np.roll(pp, 1)  # the token before, in the same sentence
    before[starts[lengths > 0]] = False
    mismatch = p != g if task == "cue" else pp != gp
    per_token = np.stack([pp & gp, pp & ~gp, ~pp & gp, ~pp & ~gp, gp, mismatch, pp, pp & ~before])
    running = np.zeros((len(per_token), total + 1), np.int64)
    np.cumsum(per_token, axis=1, out=running[:, 1:])
    tp, fp, fn, tn, gold, wrong, pred, blocks = running[:, starts + lengths] - running[:, starts]
    has_gold, has_pred = gold > 0, pred > 0
    return np.stack([tp, fp, fn, tn, has_gold, has_gold & (wrong == 0), has_pred,
                     has_pred & (blocks == 1)], axis=1)


class _Report:
    def kv_lines(self) -> list[str]:
        """`<PREFIX>.<name>=<value>` lines: precision, recall, the headline
        metrics, then the confusion counts."""
        token, prefix = self.token, self.PREFIX
        rates = {"precision": token.precision, "recall": token.recall, **self.headline()}
        lines = [f"{prefix}.{name}={metric_str(value)}" for name, value in rates.items()]
        counts = [f"{prefix}.{name}={getattr(token, name)}" for name in ("tp", "fp", "fn", "tn")]
        return lines + counts


@dataclass(frozen=True)
class CueReport(_Report):
    PREFIX = "cue"
    token: TokenMetrics
    pecm: float

    def headline(self) -> dict[str, float]:
        return {"f1": self.token.f1, "pecm": self.pecm}


@dataclass(frozen=True)
class ScopeReport(_Report):
    PREFIX = "scope"
    token: TokenMetrics
    pcs: float
    pcp: float

    def headline(self) -> dict[str, float]:
        return {"f1": self.token.f1, "pcs": self.pcs, "pcp": self.pcp}


def counts_report(table: np.ndarray, task: str) -> CueReport | ScopeReport:
    """The task's report from the column sums of a sentence_counts table:
    PECM and PCS are exact / gold, PCP is one_block / pred."""
    tp, fp, fn, tn, gold, exact, pred, one_block = map(int, table.sum(axis=0))
    precision, recall = _percent(tp, tp + fp), _percent(tp, tp + fn)
    # NaN if either is NaN (NaN is truthy), 0 when both are 0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    token = TokenMetrics(tp, fp, fn, tn, precision, recall, f1)
    if task == "cue":
        return CueReport(token, _percent(exact, gold))
    return ScopeReport(token, _percent(exact, gold), _percent(one_block, pred))


def evaluate_cue(preds, golds) -> CueReport:
    return counts_report(sentence_counts(preds, golds, "cue"), "cue")


def evaluate_scope(preds, golds) -> ScopeReport:
    return counts_report(sentence_counts(preds, golds, "scope"), "scope")


# ---------------------------------------------------------------------------
# the comparable test set of the second task

def task2_groups(gold_has_cue, pred_has_cue) -> dict[str, tuple[int, ...]]:
    """Sentence indices grouped by (gold cue present, predicted cue present):
    "tp" both, "fn" gold only, "fp" predicted only, "tn" neither; each
    group in input order. A missing prediction is an error.

    The scope test set is tp + fn + fp: it covers everything either cue
    source marks as negation, so both input conditions are scored on the
    identical sentence list. True negatives never enter. Where a condition
    has no cue to feed in (fp under gold inputs, fn under predicted inputs)
    the scope prediction is fixed to all O.
    """
    if len(gold_has_cue) != len(pred_has_cue):
        raise ValueError(
            f"got {len(gold_has_cue)} gold flags, {len(pred_has_cue)} predicted flags"
        )
    groups = {"tp": [], "fn": [], "fp": [], "tn": []}
    for idx, (g, p) in enumerate(zip(gold_has_cue, pred_has_cue)):
        groups[("tp" if p else "fn") if g else ("fp" if p else "tn")].append(idx)
    return {key: tuple(indices) for key, indices in groups.items()}
