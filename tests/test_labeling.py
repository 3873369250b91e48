"""Tag derivation, pattern checks, and the scope smoother."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negscope.labeling import (
    NegationAnnotation,
    cue_vector,
    derive_cue_tags,
    derive_scope_tags,
    postprocess,
    scope_bounds,
)
from helpers import is_continuous, valid_gold_pattern


@st.composite
def annotations(draw, max_len=30):
    """A sentence length plus a well-formed annotation for it."""
    n = draw(st.integers(1, max_len))
    if draw(st.booleans()):
        return n, NegationAnnotation()
    left = draw(st.integers(0, n - 1))
    right = draw(st.integers(left, n - 1))
    k = draw(st.integers(1, right - left + 1))
    cues = draw(
        st.lists(st.integers(left, right), min_size=k, max_size=k, unique=True)
    )
    return n, NegationAnnotation(tuple(cues), (left, right))


class TestAnnotation:
    def test_normalizes_cue_order(self):
        ann = NegationAnnotation((5, 3, 5), (2, 6))
        assert ann.cue_indices == (3, 5)

    def test_scope_without_cue_is_an_error(self):
        with pytest.raises(ValueError):
            NegationAnnotation((), (1, 3))

    def test_cue_outside_scope_is_an_error(self):
        with pytest.raises(ValueError):
            NegationAnnotation((7,), (1, 3))

    def test_inverted_span_is_an_error(self):
        with pytest.raises(ValueError):
            NegationAnnotation((2,), (3, 2))


class TestDeriveCueTags:
    def test_single_cue(self):
        ann = NegationAnnotation((2,), (2, 6))
        assert derive_cue_tags(ann, 8) == ["NC", "NC", "C", "NC", "NC", "NC", "NC", "NC"]

    def test_discontinuous_cue_stays_c(self):
        # neither ... nor
        ann = NegationAnnotation((3, 5), (3, 6))
        tags = derive_cue_tags(ann, 8)
        assert tags[3] == "C" and tags[5] == "C" and tags[4] == "NC"

    def test_adjacent_run_becomes_mc(self):
        ann = NegationAnnotation((4, 5), (4, 6))
        tags = derive_cue_tags(ann, 8)
        assert tags[4] == "MC" and tags[5] == "MC"

    def test_mixed_runs(self):
        # run of two plus an isolated token
        ann = NegationAnnotation((3, 4, 6), (3, 7))
        tags = derive_cue_tags(ann, 9)
        assert tags[3] == "MC" and tags[4] == "MC" and tags[6] == "C"

    def test_empty_annotation(self):
        assert derive_cue_tags(NegationAnnotation(), 4) == ["NC"] * 4

    def test_out_of_bounds_is_an_error(self):
        with pytest.raises(ValueError):
            derive_cue_tags(NegationAnnotation((8,), (8, 8)), 8)


class TestDeriveScopeTags:
    def test_reference_sentence(self):
        # it had no effect on IL-10 secretion .
        ann = NegationAnnotation((2,), (2, 6))
        assert derive_scope_tags(ann, 8) == ["O", "O", "C", "A", "A", "A", "A", "O"]

    def test_tokens_before_cue_get_b(self):
        ann = NegationAnnotation((3,), (1, 5))
        assert derive_scope_tags(ann, 7) == ["O", "B", "B", "C", "A", "A", "O"]

    def test_empty_annotation(self):
        assert derive_scope_tags(NegationAnnotation(), 5) == ["O"] * 5

    def test_out_of_bounds_is_an_error(self):
        with pytest.raises(ValueError):
            derive_scope_tags(NegationAnnotation((2,), (2, 9)), 8)

    @given(annotations())
    @settings(max_examples=200)
    def test_round_trip(self, case):
        """tags -> (cue positions, span) recovers the annotation exactly."""
        n, ann = case
        ctags = derive_cue_tags(ann, n)
        stags = derive_scope_tags(ann, n)
        assert valid_gold_pattern(stags)
        cues = tuple(k for k, b in enumerate(cue_vector(ctags)) if b)
        assert cues == ann.cue_indices
        assert scope_bounds(stags) == ann.scope

    @given(annotations())
    @settings(max_examples=200)
    def test_cue_tokens_are_in_scope(self, case):
        n, ann = case
        stags = derive_scope_tags(ann, n)
        for k in ann.cue_indices:
            assert stags[k] != "O"


class TestScopeHelpers:
    def test_cue_vector(self):
        assert cue_vector(["NC", "MC", "MC", "NC", "C"]) == [0, 1, 1, 0, 1]

    def test_scope_bounds(self):
        assert scope_bounds(["O", "O", "C", "A", "A", "A", "A", "O"]) == (2, 6)
        assert scope_bounds(["O"] * 4) is None

    def test_is_continuous(self):
        assert is_continuous(["O", "B", "C", "A", "O"])
        assert not is_continuous(["O", "C", "O", "A"])
        assert is_continuous(["O"] * 3)
        assert is_continuous(["C"])

    def test_valid_gold_pattern(self):
        assert valid_gold_pattern(["O", "O", "C", "A", "A", "A", "A", "O"])
        assert valid_gold_pattern(["O"] * 5)
        assert valid_gold_pattern(["B", "C"])
        assert valid_gold_pattern(["C"])
        assert not valid_gold_pattern(["O", "C", "B", "O"])
        assert not valid_gold_pattern(["O", "B", "B", "O"])
        assert not valid_gold_pattern(["C", "C"])
        assert not valid_gold_pattern(["A", "C"])
        assert not valid_gold_pattern(["O", "C", "O", "A"])


class TestPostprocess:
    def test_merges_near_run(self):
        # blocks {3,4} and {6,7}, gap 1 <= len 2: absorbed
        pred = ["O", "O", "O", "C", "A", "O", "A", "A"]
        cue = [0, 0, 0, 1, 0, 0, 0, 0]
        assert postprocess(pred, cue) == ["O", "O", "O", "C", "A", "A", "A", "A"]

    def test_drops_far_run(self):
        # blocks {3,4} and {8}, gap 3 > len 1: cleared
        pred = ["O", "O", "O", "C", "A", "O", "O", "O", "A"]
        cue = [0, 0, 0, 1, 0, 0, 0, 0, 0]
        assert postprocess(pred, cue) == ["O", "O", "O", "C", "A", "O", "O", "O", "O"]

    def test_all_o_prediction_gets_cue_block(self):
        pred = ["O"] * 5
        cue = [0, 0, 1, 0, 0]
        assert postprocess(pred, cue) == ["O", "O", "C", "O", "O"]

    def test_discontinuous_cue_gap_is_filled(self):
        pred = ["O"] * 6
        cue = [0, 1, 0, 1, 0, 0]
        assert postprocess(pred, cue) == ["O", "C", "A", "A", "O", "O"]

    def test_relabels_before_and_after(self):
        pred = ["A", "A", "O", "C", "O", "O"]
        cue = [0, 0, 0, 1, 0, 0]
        # run {0,1} has gap 1 <= len 2 against block {3}: wait, the anchor
        # block is {3} alone; gap to {0,1} is position 2, g=1 <= 2: merged.
        assert postprocess(pred, cue) == ["B", "B", "B", "C", "O", "O"]

    # (predicted scope, cue bits, smoothed scope), one character per token
    MERGE_RULE_EDGES = [
        # a gap as long as the run is bridged, on either side
        ("OCOOAA", "010000", "OCAAAA"),
        ("AAOOCO", "000010", "BBBBCO"),
        # a gap one longer than the run is not
        ("OCOOOAA", "0100000", "OCOOOOO"),
        ("AAOOOCO", "0000010", "OOOOOCO"),
        # chained merges on both sides: each gap is measured from the
        # enlarged block, not from the anchor run
        ("AOAAOCOAAOA", "00000100000", "BBBBBCAAAAA"),
        # the first failing run stops the scan, though the farther run's
        # gap to the block (4) would not exceed its length (4)
        ("OCOOAOAAAA", "0100000000", "OCOOOOOOOO"),
        ("AAAAOAOOCO", "0000000010", "OOOOOOOOCO"),
        # a cue inside its run, not at its start: the whole run is the anchor
        ("OAACAO", "000100", "OBBCAO"),
        ("AOBBCAO", "0000100", "BBBBCAO"),
        # a discontinuous cue: every position between its parts is forced
        # in, and the scan starts from that whole block
        ("OCOAOOCO", "01000010", "OCAAAAAO"),
        ("OCOAOOCOAA", "0100001000", "OCAAAAAAAA"),
    ]

    @pytest.mark.parametrize("pred, cue, want", MERGE_RULE_EDGES)
    def test_merge_rule_edges(self, pred, cue, want):
        assert postprocess(list(pred), [int(b) for b in cue]) == list(want)

    def test_no_cue_is_an_error(self):
        with pytest.raises(ValueError):
            postprocess(["O", "C", "A"], [0, 0, 0])

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            postprocess(["O", "C"], [1])

    @given(st.data())
    @settings(max_examples=300)
    def test_output_contract(self, data):
        """Smoothed output: valid pattern, continuous, one C, cues in scope,
        idempotent."""
        n = data.draw(st.integers(1, 24))
        pred = data.draw(
            st.lists(st.sampled_from("OBCA"), min_size=n, max_size=n)
        )
        cue_pos = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        )
        cue = [1 if k in cue_pos else 0 for k in range(n)]
        out = postprocess(pred, cue)
        assert valid_gold_pattern(out)
        assert is_continuous(out)
        assert out.count("C") == 1
        assert out.index("C") == min(cue_pos)
        for k in cue_pos:
            assert out[k] != "O"
        assert postprocess(out, cue) == out
