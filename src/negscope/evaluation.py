"""Evaluation: token-level P/R/F1, exact-match percentages, and the
index groups that make the scope test set of gold-cue and predicted-cue
runs comparable.

Conventions: metrics are percentages in [0, 100]; precision is NaN when
nothing was predicted positive, recall is NaN when nothing is positive in
gold, and F1 is NaN whenever either of those is. All-O scope predictions
count as (vacuously) continuous and stay out of the continuity
denominator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .labeling import cue_vector, is_continuous


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


def _finish(tp: int, fp: int, fn: int, tn: int) -> TokenMetrics:
    precision = math.nan if tp + fp == 0 else 100.0 * tp / (tp + fp)
    recall = math.nan if tp + fn == 0 else 100.0 * tp / (tp + fn)
    if math.isnan(precision) or math.isnan(recall):
        f1 = math.nan
    elif precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return TokenMetrics(tp, fp, fn, tn, precision, recall, f1)


def _token_confusion(preds, golds, positive) -> TokenMetrics:
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} gold sequences")
    tp = fp = fn = tn = 0
    for i, (pred, gold) in enumerate(zip(preds, golds)):
        if len(pred) != len(gold):
            raise ValueError(f"instance {i}: {len(pred)} predicted tags vs {len(gold)} gold")
        for pred_tag, gold_tag in zip(pred, gold):
            p, g = pred_tag in positive, gold_tag in positive
            if p and g:
                tp += 1
            elif p:
                fp += 1
            elif g:
                fn += 1
            else:
                tn += 1
    return _finish(tp, fp, fn, tn)


def cue_token_metrics(preds, golds) -> TokenMetrics:
    """Binary token metrics with {C, MC} as the positive class."""
    return _token_confusion(preds, golds, ("C", "MC"))


def scope_token_metrics(preds, golds) -> TokenMetrics:
    """Binary token metrics with in-scope {B, C, A} as the positive class."""
    return _token_confusion(preds, golds, ("B", "C", "A"))


def pecm(preds, golds) -> float:
    """Percentage of negation sentences whose full cue tag sequence matches
    gold exactly; sentences without a gold cue stay out of the denominator."""
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} gold sequences")
    hits = total = 0
    for pred, gold in zip(preds, golds):
        if not any(cue_vector(gold)):
            continue
        total += 1
        if list(pred) == list(gold):
            hits += 1
    return math.nan if total == 0 else 100.0 * hits / total


def pcs(preds, golds) -> float:
    """Percentage of gold scopes predicted exactly as an in/out token set;
    sub-label differences inside the scope do not matter."""
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} gold sequences")
    hits = total = 0
    for pred, gold in zip(preds, golds):
        gold_set = {k for k, t in enumerate(gold) if t != "O"}
        if not gold_set:
            continue
        total += 1
        pred_set = {k for k, t in enumerate(pred) if t != "O"}
        if pred_set == gold_set:
            hits += 1
    return math.nan if total == 0 else 100.0 * hits / total


def pcp(preds) -> float:
    """Percentage of continuous predictions among predictions with at least
    one in-scope token."""
    hits = total = 0
    for pred in preds:
        if all(t == "O" for t in pred):
            continue
        total += 1
        if is_continuous(list(pred)):
            hits += 1
    return math.nan if total == 0 else 100.0 * hits / total


def _kv_lines(prefix: str, token: TokenMetrics, exact: dict) -> list[str]:
    """`<prefix>.<name>=<value>` lines: precision, recall and F1, the exact
    match percentages in `exact`'s order, then the confusion counts."""
    rates = {"precision": token.precision, "recall": token.recall, "f1": token.f1, **exact}
    lines = [f"{prefix}.{name}={metric_str(value)}" for name, value in rates.items()]
    return lines + [f"{prefix}.{name}={getattr(token, name)}" for name in ("tp", "fp", "fn", "tn")]


@dataclass(frozen=True)
class CueReport:
    token: TokenMetrics
    pecm: float

    def headline(self) -> dict[str, float]:
        return {"f1": self.token.f1, "pecm": self.pecm}

    def kv_lines(self) -> list[str]:
        return _kv_lines("cue", self.token, {"pecm": self.pecm})


@dataclass(frozen=True)
class ScopeReport:
    token: TokenMetrics
    pcs: float
    pcp: float

    def headline(self) -> dict[str, float]:
        return {"f1": self.token.f1, "pcs": self.pcs, "pcp": self.pcp}

    def kv_lines(self) -> list[str]:
        return _kv_lines("scope", self.token, {"pcs": self.pcs, "pcp": self.pcp})


def evaluate_cue(preds, golds) -> CueReport:
    return CueReport(cue_token_metrics(preds, golds), pecm(preds, golds))


def evaluate_scope(preds, golds) -> ScopeReport:
    return ScopeReport(scope_token_metrics(preds, golds), pcs(preds, golds), pcp(preds))


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
