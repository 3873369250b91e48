"""Metric fixtures with hand-counted confusions, the NaN edge policy, the
per-sentence count table against one loop per metric, and the Task-2
index groups."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from negscope.evaluation import (
    COUNT_COLUMNS,
    counts_report,
    evaluate_cue,
    evaluate_scope,
    metric_str,
    sentence_counts,
    task2_groups,
)
from negscope.labeling import CUE_TAGS, SCOPE_TAGS

from helpers import loop_pcp, loop_pcs, loop_pecm, loop_token_confusion


class TestTokenMetrics:
    def test_hand_counted_cue_confusion(self):
        preds = [["NC", "C", "NC", "C"], ["MC", "MC", "NC"]]
        golds = [["NC", "C", "C", "NC"], ["MC", "NC", "NC"]]
        m = evaluate_cue(preds, golds).token
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 2, 1, 2)
        assert m.precision == pytest.approx(50.0)
        assert m.recall == pytest.approx(100 * 2 / 3)
        assert m.f1 == pytest.approx(2 * 50 * (200 / 3) / (50 + 200 / 3))

    def test_scope_positive_class_covers_all_in_scope_tags(self):
        m = evaluate_scope([["B", "C", "A", "O"]], [["O", "C", "A", "A"]]).token
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 0)

    def test_perfect_prediction(self):
        m = evaluate_scope([["O", "B", "C", "O"]], [["O", "B", "C", "O"]]).token
        assert m.precision == m.recall == m.f1 == pytest.approx(100.0)

    def test_precision_nan_when_nothing_predicted(self):
        m = evaluate_cue([["NC", "NC"]], [["C", "NC"]]).token
        assert math.isnan(m.precision)
        assert m.recall == 0.0
        assert math.isnan(m.f1)

    def test_recall_nan_when_gold_has_no_positives(self):
        m = evaluate_cue([["C", "NC"]], [["NC", "NC"]]).token
        assert math.isnan(m.recall)
        assert m.precision == 0.0
        assert math.isnan(m.f1)

    def test_zero_f1_when_both_defined_but_zero(self):
        m = evaluate_cue([["C", "NC"]], [["NC", "C"]]).token
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_misaligned_inputs_are_errors(self):
        with pytest.raises(ValueError, match="predictions vs"):
            evaluate_cue([["C"]], [["C"], ["NC"]])
        with pytest.raises(ValueError, match="instance 0"):
            evaluate_cue([["C", "C"]], [["C"]])

    @given(st.lists(st.lists(st.sampled_from(["O", "B", "C", "A"]), min_size=1, max_size=8),
                    min_size=1, max_size=6))
    def test_self_comparison_has_no_errors(self, tags):
        m = evaluate_scope(tags, tags).token
        assert m.fp == 0 and m.fn == 0


class TestExactMatchMetrics:
    def test_pecm_counts_only_gold_cue_sentences(self):
        preds = [["C", "NC"], ["NC", "NC"], ["NC", "MC"]]
        golds = [["C", "NC"], ["NC", "NC"], ["MC", "MC"]]
        # sentence 2 has no gold cue and stays out; sentence 3 mismatches
        assert evaluate_cue(preds, golds).pecm == pytest.approx(50.0)

    def test_pecm_nan_without_any_gold_cue(self):
        assert math.isnan(evaluate_cue([["NC"]], [["NC"]]).pecm)

    def test_pcs_ignores_sub_labels_inside_scope(self):
        preds = [["B", "B", "C", "O"]]
        golds = [["B", "C", "A", "O"]]
        assert evaluate_scope(preds, golds).pcs == pytest.approx(100.0)

    def test_pcs_set_mismatch_fails(self):
        report = evaluate_scope([["O", "C", "A", "A"]], [["O", "B", "C", "O"]])
        assert report.pcs == pytest.approx(0.0)

    def test_pcs_skips_gold_all_o(self):
        preds = [["C", "O"], ["C", "O"]]
        golds = [["C", "O"], ["O", "O"]]
        assert evaluate_scope(preds, golds).pcs == pytest.approx(100.0)
        assert math.isnan(evaluate_scope([["O", "O"]], [["O", "O"]]).pcs)

    def test_pcp_excludes_all_o_predictions(self):
        preds = [["O", "O", "O"], ["B", "C", "O"], ["C", "O", "A"]]
        # PCP reads the predictions only, so they serve as their own gold
        assert evaluate_scope(preds, preds).pcp == pytest.approx(50.0)

    def test_pcp_nan_when_everything_is_all_o(self):
        assert math.isnan(evaluate_scope([["O", "O"]], [["O", "O"]]).pcp)


@st.composite
def aligned_rows(draw, tags):
    """(preds, golds): equally long tag rows over `tags`, whose first tag is
    the negative one. Either side may be all negative, and sentences may be
    empty, so every NaN case of the reports comes up."""
    lengths = draw(st.lists(st.integers(0, 6), max_size=6))
    sides = []
    for _ in range(2):
        palette = draw(st.sampled_from([tags, tags, tags[:1]]))
        sides.append([draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
                      for n in lengths])
    return tuple(sides)


def token_tuple(report):
    t = report.token
    return t.tp, t.fp, t.fn, t.tn, t.precision, t.recall, t.f1


class TestSentenceCounts:
    def test_hand_counted_rows(self):
        preds = [["O", "B", "O", "C"], ["O", "O"], ["B", "C", "A"], []]
        golds = [["O", "B", "C", "O"], ["B", "O"], ["A", "C", "B"], []]
        table = sentence_counts(preds, golds, "scope")
        assert COUNT_COLUMNS == ("tp", "fp", "fn", "tn", "gold", "exact", "pred", "one_block")
        assert table.dtype == np.int64
        assert table.tolist() == [
            [1, 1, 1, 1, 1, 0, 1, 0],  # two predicted blocks, wrong set
            [0, 0, 1, 1, 1, 0, 0, 0],  # nothing predicted: no block to count
            [3, 0, 0, 0, 1, 1, 1, 1],  # sub-labels differ, the in/out set matches
            [0, 0, 0, 0, 0, 0, 0, 0],
        ]

    def test_a_cue_row_must_match_tag_for_tag(self):
        preds = [["C", "NC"], ["MC", "MC"], ["C", "NC", "C"]]
        golds = [["C", "NC"], ["C", "MC"], ["C", "NC", "C"]]
        table = sentence_counts(preds, golds, "cue")
        assert table[:, COUNT_COLUMNS.index("exact")].tolist() == [1, 0, 1]
        assert table[:, COUNT_COLUMNS.index("one_block")].tolist() == [1, 1, 0]

    def test_no_sentences_give_an_empty_table_and_nan_reports(self):
        table = sentence_counts([], [], "cue")
        assert table.shape == (0, len(COUNT_COLUMNS))
        report = counts_report(table, "cue")
        assert math.isnan(report.token.f1) and math.isnan(report.pecm)

    @pytest.mark.parametrize("task, tag", [("cue", "O"), ("scope", "NC")])
    def test_a_tag_outside_the_alphabet_is_an_error(self, task, tag):
        with pytest.raises(ValueError, match=f"unknown {task} tag '{tag}'"):
            sentence_counts([[tag]], [[tag]], task)

    @given(aligned_rows(CUE_TAGS))
    def test_cue_report_equals_the_loop_oracles(self, rows):
        preds, golds = rows
        report = evaluate_cue(preds, golds)
        np.testing.assert_equal(token_tuple(report),
                                loop_token_confusion(preds, golds, ("C", "MC")))
        np.testing.assert_equal(report.pecm, loop_pecm(preds, golds))

    @given(aligned_rows(SCOPE_TAGS))
    def test_scope_report_equals_the_loop_oracles(self, rows):
        preds, golds = rows
        report = evaluate_scope(preds, golds)
        np.testing.assert_equal(token_tuple(report),
                                loop_token_confusion(preds, golds, ("B", "C", "A")))
        np.testing.assert_equal(report.pcs, loop_pcs(preds, golds))
        np.testing.assert_equal(report.pcp, loop_pcp(preds))

    @pytest.mark.parametrize("task, tags", [("cue", CUE_TAGS), ("scope", SCOPE_TAGS)])
    @given(data=st.data())
    def test_a_partition_sums_to_the_whole(self, task, tags, data):
        preds, golds = data.draw(aligned_rows(tags))
        parts = data.draw(st.lists(st.integers(0, 2), min_size=len(preds), max_size=len(preds)))
        whole = sentence_counts(preds, golds, task)
        total = np.zeros(len(COUNT_COLUMNS), np.int64)
        for part in range(3):
            keep = [i for i, p in enumerate(parts) if p == part]
            table = sentence_counts([preds[i] for i in keep], [golds[i] for i in keep], task)
            np.testing.assert_array_equal(table, whole[keep])
            total += table.sum(axis=0)
        np.testing.assert_array_equal(total, whole.sum(axis=0))


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
