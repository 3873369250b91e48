"""Metric fixtures with hand-counted confusions, the NaN edge policy, and
the Task-2 index groups."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from negscope.evaluation import (
    cue_token_metrics,
    evaluate_cue,
    evaluate_scope,
    metric_str,
    pcp,
    pcs,
    pecm,
    scope_token_metrics,
    task2_groups,
)


class TestTokenMetrics:
    def test_hand_counted_cue_confusion(self):
        preds = [["NC", "C", "NC", "C"], ["MC", "MC", "NC"]]
        golds = [["NC", "C", "C", "NC"], ["MC", "NC", "NC"]]
        m = cue_token_metrics(preds, golds)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 2, 1, 2)
        assert m.precision == pytest.approx(50.0)
        assert m.recall == pytest.approx(100 * 2 / 3)
        assert m.f1 == pytest.approx(2 * 50 * (200 / 3) / (50 + 200 / 3))

    def test_scope_positive_class_covers_all_in_scope_tags(self):
        m = scope_token_metrics([["B", "C", "A", "O"]], [["O", "C", "A", "A"]])
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 0)

    def test_perfect_prediction(self):
        m = scope_token_metrics([["O", "B", "C", "O"]], [["O", "B", "C", "O"]])
        assert m.precision == m.recall == m.f1 == pytest.approx(100.0)

    def test_precision_nan_when_nothing_predicted(self):
        m = cue_token_metrics([["NC", "NC"]], [["C", "NC"]])
        assert math.isnan(m.precision)
        assert m.recall == 0.0
        assert math.isnan(m.f1)

    def test_recall_nan_when_gold_has_no_positives(self):
        m = cue_token_metrics([["C", "NC"]], [["NC", "NC"]])
        assert math.isnan(m.recall)
        assert m.precision == 0.0
        assert math.isnan(m.f1)

    def test_zero_f1_when_both_defined_but_zero(self):
        m = cue_token_metrics([["C", "NC"]], [["NC", "C"]])
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_misaligned_inputs_are_errors(self):
        with pytest.raises(ValueError, match="predictions vs"):
            cue_token_metrics([["C"]], [["C"], ["NC"]])
        with pytest.raises(ValueError, match="instance 0"):
            cue_token_metrics([["C", "C"]], [["C"]])

    @given(st.lists(st.lists(st.sampled_from(["O", "B", "C", "A"]), min_size=1, max_size=8),
                    min_size=1, max_size=6))
    def test_self_comparison_has_no_errors(self, tags):
        m = scope_token_metrics(tags, tags)
        assert m.fp == 0 and m.fn == 0


class TestExactMatchMetrics:
    def test_pecm_counts_only_gold_cue_sentences(self):
        preds = [["C", "NC"], ["NC", "NC"], ["NC", "MC"]]
        golds = [["C", "NC"], ["NC", "NC"], ["MC", "MC"]]
        # sentence 2 has no gold cue and stays out; sentence 3 mismatches
        assert pecm(preds, golds) == pytest.approx(50.0)

    def test_pecm_nan_without_any_gold_cue(self):
        assert math.isnan(pecm([["NC"]], [["NC"]]))

    def test_pcs_ignores_sub_labels_inside_scope(self):
        preds = [["B", "B", "C", "O"]]
        golds = [["B", "C", "A", "O"]]
        assert pcs(preds, golds) == pytest.approx(100.0)

    def test_pcs_set_mismatch_fails(self):
        assert pcs([["O", "C", "A", "A"]], [["O", "B", "C", "O"]]) == pytest.approx(0.0)

    def test_pcs_skips_gold_all_o(self):
        preds = [["C", "O"], ["C", "O"]]
        golds = [["C", "O"], ["O", "O"]]
        assert pcs(preds, golds) == pytest.approx(100.0)
        assert math.isnan(pcs([["O", "O"]], [["O", "O"]]))

    def test_pcp_excludes_all_o_predictions(self):
        preds = [["O", "O", "O"], ["B", "C", "O"], ["C", "O", "A"]]
        assert pcp(preds) == pytest.approx(50.0)

    def test_pcp_nan_when_everything_is_all_o(self):
        assert math.isnan(pcp([["O", "O"]]))


class TestReports:
    def test_cue_report_lines_are_stable(self):
        report = evaluate_cue([["C", "NC"]], [["C", "NC"]])
        lines = report.kv_lines()
        assert lines[0] == "cue.precision=100.00"
        assert "cue.pecm=100.00" in lines
        assert "cue.tp=1" in lines
        assert report.headline() == {"f1": 100.0, "pecm": 100.0}

    def test_scope_report_prints_nan_fields(self):
        report = evaluate_scope([["O", "O"]], [["O", "O"]])
        lines = report.kv_lines()
        assert "scope.precision=NaN" in lines
        assert "scope.pcs=NaN" in lines
        assert "scope.pcp=NaN" in lines
        assert list(report.headline()) == ["f1", "pcs", "pcp"]

    def test_metric_str_formats(self):
        assert metric_str(66.666666) == "66.67"
        assert metric_str(math.nan) == "NaN"
        assert metric_str(math.nan - 84.0) == "NaN"


class TestTask2Groups:
    def test_classification(self):
        gold = [True, True, False, False, True]
        pred = [True, False, True, False, False]
        groups = task2_groups(gold, pred)
        assert groups == {"tp": (0,), "fn": (1, 4), "fp": (2,), "tn": (3,)}

    def test_groups_partition_the_indices(self):
        rng = np.random.default_rng(3)
        gold = rng.random(40) < 0.5
        pred = rng.random(40) < 0.5
        groups = task2_groups(list(gold), list(pred))
        assert sorted(sum(groups.values(), ())) == list(range(40))
        for key, g, p in (("tp", 1, 1), ("fn", 1, 0), ("fp", 0, 1), ("tn", 0, 0)):
            assert list(groups[key]) == sorted(groups[key])
            assert all(gold[i] == g and pred[i] == p for i in groups[key])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="1 gold flags, 2 predicted flags"):
            task2_groups([True], [True, False])
