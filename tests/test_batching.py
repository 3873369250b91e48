"""Batched computation against per-sentence computation: the loss and every
gradient of a packed minibatch equal the sums over its sentences run one at
a time, and a sentence's predicted tags and scores do not depend on which
other sentences share its chunk or on the input order."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import negscope.models as models
from helpers import densify, rel_err
from negscope.models import Tagger, TaggerConfig, split_columns
from negscope.training import instance_loss_grads

VOCAB = 11


def build(task, variant, seed=0, embed_dim=5, units=4, widen=True):
    cfg = TaggerConfig(task, variant, VOCAB, embed_dim, units, widen_embeddings=widen)
    tagger = Tagger.build(cfg, np.random.default_rng(seed))
    if tagger.crf is not None:
        tagger.crf.trans[:] = 0.5 * np.random.default_rng(seed + 1).normal(
            size=tagger.crf.trans.shape
        )
    return tagger


def random_batch(rng, tagger, lengths):
    ids = [rng.integers(VOCAB, size=n) for n in lengths]
    gold = [rng.integers(tagger.config.num_labels, size=n) for n in lengths]
    bits = None
    if tagger.config.two_input:
        bits = [rng.integers(2, size=n) for n in lengths]
    return ids, gold, bits


# the FROZEN taggers keep their variant's frozen embeddings, so baseline
# has no LSTM, CRF or embedding gradient; the rest train theirs, so the
# embedding gradient is summed through every architecture
MODELS = [("cue", "bilstm"), ("cue", "bilstm-crf"), ("cue", "emb-train"),
          ("cue", "emb-crf"), ("scope", "bilstm"), ("scope", "bilstm-crf"),
          ("cue", "baseline"), ("scope", "bilstm-post")]
FROZEN = MODELS[-2:]


class TestBatchedGradients:
    @pytest.mark.parametrize("task,variant", MODELS)
    @pytest.mark.parametrize("lengths", [[5, 1, 3, 7, 2], [4], [1], [1, 1, 6]])
    def test_batch_equals_sum_of_sentences(self, task, variant, lengths):
        tagger = build(task, variant, widen=(task, variant) not in FROZEN)
        ids, gold, bits = random_batch(np.random.default_rng(len(lengths)), tagger, lengths)
        loss, tokens, grads = instance_loss_grads(tagger, ids, gold, bits)
        assert tokens == sum(lengths)
        params = tagger.trainable_parameters()
        assert set(grads) == set(params)

        ref_loss = 0.0
        ref = {name: np.zeros_like(p) for name, p in params.items()}
        for k in range(len(lengths)):
            one_bits = None if bits is None else [bits[k]]
            part, _, part_grads = instance_loss_grads(tagger, [ids[k]], [gold[k]], one_bits)
            ref_loss += part
            for name in ref:
                ref[name] += densify(part_grads[name], params[name].shape)

        assert rel_err(loss, ref_loss) <= 1e-10
        for name, g in grads.items():
            assert rel_err(densify(g, params[name].shape), ref[name]).max() <= 1e-10, name


def tagger_pair():
    return build("cue", "bilstm-crf", seed=3), build("scope", "bilstm", seed=4)


CUE_TAGGER, SCOPE_TAGGER = tagger_pair()


def alone(tagger, ids, bits):
    """Scores and tags of each sentence run as a batch of one."""
    out = []
    for k, sent in enumerate(ids):
        one_bits = None if bits is None else [bits[k]]
        scores, _ = tagger.scores([sent], one_bits)
        out.append((scores, tagger.predict_tags([sent], one_bits)[0]))
    return out


class TestBatchIndependence:
    @given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=9),
        budget=st.integers(1, 80),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_tags_and_scores_ignore_batch_and_order(self, lengths, budget, seed, data):
        rng = np.random.default_rng(seed)
        order = data.draw(st.permutations(range(len(lengths))))
        for tagger in (CUE_TAGGER, SCOPE_TAGGER):
            ids, _, bits = random_batch(rng, tagger, lengths)
            expected = alone(tagger, ids, bits)

            scores, _ = tagger.scores(ids, bits)
            for cols, (ref, _) in zip(split_columns(scores, lengths), expected):
                assert np.abs(cols - ref).max() <= 1e-12

            shuffled_bits = None if bits is None else [bits[k] for k in order]
            saved = models.PREDICT_TOKEN_BUDGET
            models.PREDICT_TOKEN_BUDGET = budget
            try:
                tags = tagger.predict_tags([ids[k] for k in order], shuffled_bits)
            finally:
                models.PREDICT_TOKEN_BUDGET = saved
            assert tags == [expected[k][1] for k in order]

    def test_chunks_respect_the_budget_and_keep_every_sentence(self):
        lengths = [3, 9, 1, 9, 4, 20, 2]
        chunks = list(models.length_chunks(lengths, 12))
        flat = [i for chunk in chunks for i in chunk]
        # every sentence once, stably sorted by length: the two length-9
        # sentences keep their input order
        assert flat == sorted(range(len(lengths)), key=lengths.__getitem__)
        for chunk in chunks:
            assert len(chunk) == 1 or sum(lengths[i] for i in chunk) <= 12
        assert chunks == [[2, 6, 0, 4], [1], [3], [5]]

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(1, 30), max_size=40), budget=st.integers(1, 80),
           cap=st.none() | st.integers(1, 8))
    def test_each_chunk_is_as_large_as_both_bounds_allow(self, lengths, budget, cap):
        chunks = list(models.length_chunks(lengths, budget, cap))
        assert [i for chunk in chunks for i in chunk] == sorted(
            range(len(lengths)), key=lengths.__getitem__)
        for chunk, after in zip(chunks, chunks[1:] + [None]):
            tokens = sum(lengths[i] for i in chunk)
            assert len(chunk) == 1 or tokens <= budget
            assert cap is None or len(chunk) <= cap
            if after is not None:  # it ended only because the next sentence broke a bound
                assert tokens + lengths[after[0]] > budget or len(chunk) == cap

    def test_chunks_respect_the_sentence_cap(self):
        lengths = [2, 1, 3] * 5
        chunks = list(models.length_chunks(lengths, 1000, 4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 4, 3]
        assert [i for chunk in chunks for i in chunk] == sorted(
            range(len(lengths)), key=lengths.__getitem__)
        assert list(models.length_chunks(lengths, 1000)) == [chunks[0] + chunks[1]
                                                            + chunks[2] + chunks[3]]

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_tags_ignore_the_sentence_cap(self, monkeypatch, cap):
        lengths = [4, 1, 7, 1, 3, 9, 2]
        monkeypatch.setattr(models, "PREDICT_TOKEN_BUDGET", 10**6)
        monkeypatch.setattr(models, "PREDICT_MAX_SENTENCES", cap)
        for tagger in (CUE_TAGGER, SCOPE_TAGGER):
            ids, _, bits = random_batch(np.random.default_rng(cap), tagger, lengths)
            assert tagger.predict_tags(ids, bits) == [tags for _, tags in alone(tagger, ids, bits)]

    def test_empty_input_predicts_nothing(self):
        assert CUE_TAGGER.predict_tags([]) == []
