"""Loss values against hand-computed fixtures, optimizer behavior, and the
training loop's determinism and early-stopping contract."""
from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from negscope.corpus import build_vocab, encode_instances
from negscope.layers import ColumnGrad, CrfParams, crf_nll_grads, dense_backward
from negscope.models import Tagger, TaggerConfig
from negscope import layers, training
from negscope.numerics import logsumexp
from negscope.training import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    batch_inputs,
    instance_loss_grads,
    softmax_seq_grads,
    step_decay,
    token_f1_score,
    train,
)
from negscope.evaluation import evaluate_cue, evaluate_scope
from helpers import assert_grad_close, densify, synthetic_instances


class TestTokenNll:
    """The softmax head's per-token NLL: softmax_seq_grads's loss over n
    tokens, given scores whose column softmax is `probs`."""

    @staticmethod
    def token_nll(probs, gold):
        with np.errstate(divide="ignore"):
            scores = np.log(np.asarray(probs, dtype=np.float64)).T
        return softmax_seq_grads(scores, gold)[0] / len(gold)

    def test_perfect_prediction_costs_nothing(self):
        probs = np.eye(4)[[2, 0, 3]]
        assert self.token_nll(probs, [2, 0, 3]) == 0.0

    def test_uniform_prediction_costs_log_num_labels(self):
        probs = np.full((5, 4), 0.25)
        assert self.token_nll(probs, [0, 1, 2, 3, 0]) == pytest.approx(math.log(4))

    def test_hand_mixed_case(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        expected = (math.log(2) + math.log(4)) / 2
        assert self.token_nll(probs, [0, 0]) == pytest.approx(expected)

    def test_vanishing_gold_probability_is_not_clamped(self):
        # P(gold) = e^-1000 costs its full score gap, not -log(1e-12)
        loss, _ = softmax_seq_grads(np.array([[0.0], [-1000.0]]), [1])
        assert loss == 1000.0


class TestSoftmaxSeqGrads:
    def test_loss_matches_token_nll_times_n(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(4, 6))
        gold = rng.integers(4, size=6)
        loss, _ = softmax_seq_grads(scores, gold)
        probs = np.exp(scores - scores.max(axis=0))
        probs /= probs.sum(axis=0)
        assert loss == pytest.approx(-sum(math.log(probs[g, k]) for k, g in enumerate(gold)))

    def test_matches_a_per_column_loop(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(4, 9)) * 20
        gold = rng.integers(4, size=9)
        loss, d_scores = softmax_seq_grads(scores, gold)
        ref_loss, ref = 0.0, np.empty_like(scores)
        for k in range(scores.shape[1]):
            lse = logsumexp(scores[:, k])
            ref_loss += lse - scores[gold[k], k]
            ref[:, k] = np.exp(scores[:, k] - lse)
            ref[gold[k], k] -= 1.0
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        np.testing.assert_allclose(d_scores, ref, rtol=1e-12, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(3, 5))
        gold = rng.integers(3, size=5)
        _, d_scores = softmax_seq_grads(scores, gold)
        assert_grad_close(lambda s: softmax_seq_grads(s, gold)[0], scores, d_scores)


class TestCrfNll:
    """The sequence NLL that crf_nll_grads returns for training."""

    def test_uniform_scores_cost_n_log_num_labels(self):
        # every labeling ties, so the gold path holds 1/L^n of the mass
        crf = CrfParams(np.zeros((5, 5)))
        (nll,), _, _ = crf_nll_grads(np.zeros((3, 2)), crf, [1, 2], [2])
        assert nll == pytest.approx(2 * math.log(3))

    def test_single_label_chain_is_certain(self):
        crf = CrfParams(np.zeros((3, 3)))
        (nll,), _, _ = crf_nll_grads(np.array([[1.0, -2.0, 0.5]]), crf, [0, 0, 0], [3])
        assert nll == pytest.approx(0.0)

    def test_never_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            crf = CrfParams(rng.normal(size=(6, 6)))
            emissions = rng.normal(size=(4, 5))
            gold = rng.integers(4, size=5)
            assert crf_nll_grads(emissions, crf, gold, [5])[0][0] >= -1e-12


class TestFullModelGradients:
    """End-to-end finite differences through scores -> loss for one
    representative softmax and one representative CRF model. The wide
    sweep across all variants lives in the acceptance tests."""

    @staticmethod
    def _check_all(tagger, ids, gold, bits=None):
        """ids, gold, bits: one array per sentence of a batch."""
        _, _, grads = instance_loss_grads(tagger, ids, gold, bits)
        params = tagger.trainable_parameters()
        assert set(grads) == set(params)
        for name, arr in params.items():
            original = arr.copy()

            def objective(value, _arr=arr):
                _arr[:] = value
                loss, _, _ = instance_loss_grads(tagger, ids, gold, bits)
                return loss

            try:
                assert_grad_close(objective, original, densify(grads[name], arr.shape))
            finally:
                arr[:] = original

    def test_trainable_embedding_softmax_model(self):
        tagger = Tagger.build(TaggerConfig("cue", "emb-train", 6, 3, 2), np.random.default_rng(4))
        self._check_all(tagger, [np.array([1, 4, 0, 2]), np.array([4, 3])],
                        [np.array([0, 1, 1, 2]), np.array([1, 0])])

    def test_two_input_bilstm_crf_model(self):
        tagger = Tagger.build(TaggerConfig("scope", "bilstm-crf", 6, 3, 2),
                              np.random.default_rng(5))
        ids = [np.array([2, 5, 1, 3]), np.array([4])]
        self._check_all(tagger, ids, [np.array([1, 2, 3, 0]), np.array([2])],
                        [np.array([0, 1, 0, 0]), np.array([1])])


def assert_adam_is_the_closed_form(params, rng, steps=5, columns=None):
    """Run adam_step beside Adam's textbook formula and require every
    parameter and moment to match bit for bit after each step. `columns`
    maps a (d, v) parameter to one column list per step: adam_step gets a
    ColumnGrad on those columns, the formula its zero-padded dense form."""
    columns = columns or {}
    state = AdamState.init(params)
    ref = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    b1, b2, eps, lr = state.beta1, state.beta2, state.eps, 0.01
    for t in range(1, steps + 1):
        grads = {k: rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3)
                 for k, p in params.items()}
        given = dict(grads)
        for k, sets in columns.items():
            cols = np.array(sets[t - 1], dtype=np.int64)
            given[k] = ColumnGrad(cols, grads[k][:, cols].T.copy())
            grads[k] = densify(given[k], params[k].shape)
        adam_step(params, given, state, lr)
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v2[k] = b2 * v2[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1 ** t)
            v_hat = v2[k] / (1 - b2 ** t)
            ref[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(params[k], ref[k])
            assert np.array_equal(state.m[k], m[k])
            assert np.array_equal(state.v[k], v2[k])


class TestAdam:
    def test_first_step_matches_closed_form(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([3.0, -0.5])}
        state = AdamState.init(params)
        adam_step(params, grads, state, lr=0.1)
        # bias correction makes m_hat = g and v_hat = g*g on step one
        expected = np.array([1.0, -2.0]) - 0.1 * np.array([3.0, -0.5]) / (
            np.array([3.0, 0.5]) + 1e-8
        )
        np.testing.assert_allclose(params["w"], expected, rtol=1e-12)
        assert state.step == 1

    def test_constant_gradient_moves_at_learning_rate(self):
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([2.0])}
        state = AdamState.init(params)
        for _ in range(5):
            adam_step(params, grads, state, lr=0.01)
        assert params["w"][0] == pytest.approx(-0.05, rel=1e-6)

    def test_zero_gradient_changes_nothing(self):
        params = {"w": np.array([1.5])}
        state = AdamState.init(params)
        adam_step(params, {"w": np.zeros(1)}, state, lr=0.1)
        assert params["w"][0] == 1.5

    def test_non_finite_gradient_is_a_hard_error(self):
        params = {"dense.W": np.ones((2, 2))}
        state = AdamState.init(params)
        with pytest.raises(ValueError, match="dense.W"):
            adam_step(params, {"dense.W": np.array([[1.0, np.nan], [0, 0]])}, state, 0.1)

    def test_in_place_update_is_bitwise_the_closed_form(self):
        rng = np.random.default_rng(7)
        assert_adam_is_the_closed_form({"w": rng.normal(size=(3, 4)),
                                        "b": rng.normal(size=5)}, rng)

    @pytest.mark.parametrize("shapes", [[(1,)], [(7,)], [(8,)], [(20,)], [(3, 5), (1,), (20,)]],
                             ids=["1", "7", "8", "20", "3x5+1+20"])
    def test_chunked_update_is_bitwise_the_closed_form(self, monkeypatch, shapes):
        # a prime chunk puts boundaries inside rows and inside every array
        # longer than it
        monkeypatch.setattr(training, "ADAM_CHUNK", 7)
        rng = np.random.default_rng(11)
        assert_adam_is_the_closed_form(
            {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}, rng
        )

    @pytest.mark.parametrize("sets", [
        [[0], [9], list(range(10)), [], [9, 0, 4], [2, 3]],
        [list(range(10))] * 5,
        [[0, 9]] * 6,
    ], ids=["mixed", "every-column", "ends"])
    def test_column_gradient_is_bitwise_the_zero_padded_closed_form(self, monkeypatch, sets):
        # a (3, 10) matrix spans five chunks of 7, so the zero-gradient pass
        # crosses chunk boundaries; the sets hold columns 0 and v - 1, every
        # column, an unsorted set and a step that touches no column
        monkeypatch.setattr(training, "ADAM_CHUNK", 7)
        rng = np.random.default_rng(13)
        assert_adam_is_the_closed_form(
            {"emb.E": rng.normal(size=(3, 10)), "b": rng.normal(size=5)}, rng,
            steps=len(sets), columns={"emb.E": sets},
        )

    @pytest.mark.parametrize("d", [1, 7, 200])
    def test_scaled_vector_step_is_the_row_sum_of_the_block_step(self, monkeypatch, d):
        """A (4U,) w_aux stepped at d times the rate moves as the row sums
        of a (4U, d) block each of whose columns takes the vector's
        gradient, step after step, to 1e-12 relative."""
        monkeypatch.setattr(training, "ADAM_CHUNK", 7)
        rng = np.random.default_rng(23)
        block = {"w": layers.glorot(rng, 16, d)}
        vector = {"lstm.f.w_aux": block["w"].sum(axis=1)}
        block_state = AdamState.init(block)
        vector_state = AdamState.init(vector, {"lstm.f.w_aux": d})
        for _ in range(6):
            g = rng.normal(size=16) * 10.0 ** rng.integers(-6, 3)
            adam_step(block, {"w": np.repeat(g[:, None], d, axis=1)}, block_state, 0.01)
            adam_step(vector, {"lstm.f.w_aux": g}, vector_state, 0.01)
            np.testing.assert_allclose(vector["lstm.f.w_aux"], block["w"].sum(axis=1),
                                       rtol=1e-12, atol=0)

    def test_each_thread_updates_half_the_elements(self, monkeypatch):
        # parameters of 1, 7, 8 and 20 elements and a (3, 10) column
        # gradient: every step sends chunks to this thread and the worker,
        # and each share is within one chunk of half the elements
        monkeypatch.setattr(training, "ADAM_CHUNK", 7)
        shares, run_chunks = [], training._adam_chunks

        def recorded(tasks, state, lr, scratch):
            shares.extend((state.step, threading.get_ident(), task[0].size) for task in tasks)
            run_chunks(tasks, state, lr, scratch)

        monkeypatch.setattr(training, "_adam_chunks", recorded)
        rng = np.random.default_rng(17)
        params = {f"p{n}": rng.normal(size=n) for n in (1, 7, 8, 20)}
        params["emb.E"] = rng.normal(size=(3, 10))
        sets = [[0], [9, 0, 4], list(range(10)), []]
        assert_adam_is_the_closed_form(params, rng, steps=len(sets), columns={"emb.E": sets})
        for step, cols in enumerate(sets, start=1):
            total = 1 + 7 + 8 + 20 + 30 + 3 * len(cols)  # the gathered block, then every chunk
            per_thread = {}
            for at, thread, size in shares:
                if at == step:
                    per_thread[thread] = per_thread.get(thread, 0) + size
            assert len(per_thread) == 2 and threading.get_ident() in per_thread
            assert sum(per_thread.values()) == total
            assert all(abs(2 * share - total) <= 2 * 7 for share in per_thread.values())

    def test_worker_half_runs_on_scratch_made_by_the_caller(self, monkeypatch):
        """The worker's half gets its scratch pair and every view from the
        calling thread and allocates no chunk-sized array itself."""

        class Recorder:
            def __init__(self):
                self.calls = []

            def submit(self, run, *args):
                tracemalloc.start()
                try:
                    run(*args)
                    self.calls.append((args, tracemalloc.get_traced_memory()[1]))
                finally:
                    tracemalloc.stop()
                done = Future()
                done.set_result(None)
                return done

        recorder = Recorder()
        monkeypatch.setattr(layers, "_WORKER", recorder)
        rng = np.random.default_rng(19)
        params = {"emb.E": rng.normal(size=(16, 4096)), "b": rng.normal(size=5)}
        assert_adam_is_the_closed_form(params, rng, steps=2,
                                       columns={"emb.E": [range(0, 4096, 3), [5]]})
        assert len(recorder.calls) == 2
        chunk_bytes = training.ADAM_CHUNK * 8
        for (tasks, _, _, scratch), peak in recorder.calls:
            assert tasks and [a.size for a in scratch] == [training.ADAM_CHUNK] * 2
            assert peak < chunk_bytes // 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "transposed", "column-nan",
                                     "column-inf", "column-negative", "column-past-end",
                                     "column-repeated", "column-block-shape",
                                     "columns-before-nan"])
    def test_bad_gradient_changes_nothing(self, monkeypatch, bad):
        monkeypatch.setattr(training, "ADAM_CHUNK", 7)
        rng = np.random.default_rng(4)
        params = {"a": rng.normal(size=(4, 5)), "b": rng.normal(size=(3, 7))}
        state = AdamState.init(params)
        adam_step(params, {k: rng.normal(size=p.shape) for k, p in params.items()}, state, 0.1)
        before = [{k: a.copy() for k, a in d.items()} for d in (params, state.m, state.v)]
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        if bad == "transposed":
            grads["b"] = grads["b"].T.copy()
        elif bad == "columns-before-nan":
            # a's block is gathered before b's check fails, and never scattered back
            grads["a"] = ColumnGrad(np.array([3, 0]), rng.normal(size=(2, 4)))
            grads["b"][-1, -1] = np.nan
        elif isinstance(bad, str):
            cols, values = np.array([0, 2, 6]), rng.normal(size=(3, 3))
            if bad == "column-nan":
                values[-1, -1] = np.nan
            elif bad == "column-inf":
                values[1, 0] = np.inf
            elif bad == "column-negative":
                cols[0] = -1
            elif bad == "column-past-end":
                cols[-1] = 7
            elif bad == "column-repeated":
                cols[1] = 6
            else:
                values = values[:, :2]
            grads["b"] = ColumnGrad(cols, values)
        else:
            grads["b"][-1, -1] = bad  # the last chunk of the last parameter
        with pytest.raises(ValueError, match="gradient for b"):
            adam_step(params, grads, state, 0.1)
        assert state.step == 1
        for old, new in zip(before, (params, state.m, state.v)):
            for k in old:
                assert np.array_equal(old[k], new[k])

    def test_column_gradient_step_does_not_import_numpy_ma(self):
        # np.unique without return_counts pulls in numpy.ma (several ms)
        # on its first call in a process
        code = ("import sys, numpy as np\n"
                "from negscope.layers import ColumnGrad\n"
                "from negscope.training import AdamState, adam_step\n"
                "params = {'E': np.ones((2, 5))}\n"
                "grad = ColumnGrad(np.array([3, 1]), np.ones((2, 2)))\n"
                "adam_step(params, {'E': grad}, AdamState.init(params), 0.1)\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(training.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                  filter(None, [src, os.environ.get("PYTHONPATH")]))},
                              check=True)
        assert done.stdout == "False\n"

    def test_parameter_that_cannot_be_flattened_in_place_is_an_error(self):
        params = {"w": np.ones((4, 3)).T}  # a transposed view: not C-contiguous
        state = AdamState.init(params)
        with pytest.raises(ValueError, match="w .*in place"):
            adam_step(params, {"w": np.ones((3, 4))}, state, 0.1)
        assert np.array_equal(params["w"], np.ones((3, 4)))
        assert state.step == 0

    def test_descends_random_convex_quadratics(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.uniform(0.5, 3.0)
            b = rng.uniform(-3.0, 3.0)
            x = {"x": np.array([rng.uniform(-5.0, 5.0)])}
            start = a * (x["x"][0] - b) ** 2
            state = AdamState.init(x)
            for _ in range(100):
                adam_step(x, {"x": 2 * a * (x["x"] - b)}, state, lr=0.05)
            assert a * (x["x"][0] - b) ** 2 < start


class TestStepDecay:
    def test_halves_every_ten_epochs(self):
        assert step_decay(0, 0.001, 10, 0.5) == 0.001
        assert step_decay(9, 0.001, 10, 0.5) == 0.001
        assert step_decay(10, 0.001, 10, 0.5) == 0.0005
        assert step_decay(25, 0.001, 10, 0.5) == 0.00025

    def test_zero_interval_means_constant(self):
        assert step_decay(40, 0.01, 0, 0.5) == 0.01

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            step_decay(-1, 0.001, 10, 0.5)


def encoded_corpus(count=12, seed=0, max_len=12):
    instances = synthetic_instances(count, seed)
    vocab = build_vocab(instances)
    return encode_instances(instances, vocab, max_len), vocab


def small_config(**overrides):
    base = dict(epochs=6, batch_size=4, lr0=0.01, decay_every=0, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


class TestModelInputs:
    def test_cue_task_slices_to_real_length(self):
        data, _ = encoded_corpus(4)
        tagger = Tagger.build(TaggerConfig("cue", "baseline", 40, 4, 2), np.random.default_rng(0))
        ids, gold, bits = batch_inputs(tagger, data)
        assert bits is None
        assert [len(x) for x in ids] == [len(inst.tokens) for inst in data]
        assert [len(y) for y in gold] == [len(inst.tokens) for inst in data]
        np.testing.assert_array_equal(gold[1], data[1].cue_label_ids)

    def test_scope_task_provides_cue_bits(self):
        data, _ = encoded_corpus(4)
        tagger = Tagger.build(TaggerConfig("scope", "bilstm", 40, 4, 2), np.random.default_rng(0))
        _, gold, bits = batch_inputs(tagger, data)
        np.testing.assert_array_equal(gold[1], data[1].scope_label_ids)
        assert bits is not None and bits[1].sum() == 1  # pattern 1 has one cue token

    @pytest.mark.parametrize("task, evaluate", [("cue", evaluate_cue), ("scope", evaluate_scope)])
    def test_validation_score_is_the_report_f1(self, task, evaluate):
        data, vocab = encoded_corpus(8)
        tagger = Tagger.build(TaggerConfig(task, "bilstm", vocab.size, 8, 8),
                              np.random.default_rng(4))
        ids, _, bits = batch_inputs(tagger, data)
        golds = [inst.cue_tags if task == "cue" else inst.scope_tags for inst in data]
        report = evaluate(tagger.predict_tags(ids, bits), golds)
        np.testing.assert_equal(token_f1_score(tagger, data), report.token.f1)


class TestTrainLoop:
    @pytest.mark.parametrize("variant, widen, shared", [
        ("bilstm", False, True), ("bilstm", True, False), ("emb-train", False, False),
    ], ids=["frozen", "widened", "trainable"])
    def test_only_frozen_embeddings_share_the_pretrained_matrix(self, variant, widen, shared):
        """A frozen tagger reads the pretrained matrix itself; a tagger that
        trains its embeddings trains a copy, and the matrix keeps its bits."""
        data, vocab = encoded_corpus()
        matrix = np.random.default_rng(5).normal(size=(8, vocab.size))
        before = matrix.copy()
        config = TaggerConfig("cue", variant, vocab.size, 8, 4, widen_embeddings=widen)
        tagger = Tagger.build(config, np.random.default_rng(0), matrix)
        assert np.shares_memory(tagger.params["emb.E"], matrix) == shared
        train(tagger, data, [], small_config(epochs=1))
        np.testing.assert_array_equal(matrix, before)
        assert np.array_equal(tagger.params["emb.E"], before) == shared

    def test_loss_goes_down_on_learnable_data(self):
        data, vocab = encoded_corpus()
        config = small_config()
        tagger = Tagger.build(
            TaggerConfig("cue", "emb-train", vocab.size, 8, 8), np.random.default_rng(config.seed)
        )
        history = train(tagger, data, [], config)
        assert len(history.train_loss) == 6
        assert history.train_loss[-1] < history.train_loss[0]
        assert history.lr == [0.01] * 6

    @pytest.mark.parametrize("task, variant", [("scope", "bilstm"), ("cue", "bilstm")])
    def test_only_the_cue_bit_weights_step_at_the_embedding_width(self, monkeypatch,
                                                                   task, variant):
        data, vocab = encoded_corpus(8)
        scales, step = [], training.adam_step

        def recorded(params, grads, state, lr):
            scales.append(dict(state.scale))
            step(params, grads, state, lr)

        monkeypatch.setattr(training, "adam_step", recorded)
        tagger = Tagger.build(TaggerConfig(task, variant, vocab.size, 5, 3),
                              np.random.default_rng(0))
        train(tagger, data, [], small_config(epochs=1))
        want = {"lstm.f.w_aux": 5, "lstm.b.w_aux": 5} if task == "scope" else {}
        assert scales and all(scale == want for scale in scales)

    def test_same_seed_reproduces_run_exactly(self):
        data, vocab = encoded_corpus()
        config = small_config(epochs=3)
        runs = []
        for _ in range(2):
            tagger = Tagger.build(TaggerConfig("scope", "bilstm", vocab.size, 8, 8),
                                  np.random.default_rng(config.seed))
            history = train(tagger, data, data[:4], config)
            params = {name: arr.copy() for name, arr in tagger.parameters().items()}
            runs.append((history, params))
        assert runs[0][0].train_loss == runs[1][0].train_loss
        assert runs[0][0].val_f1 == runs[1][0].val_f1
        for name, arr in runs[0][1].items():
            np.testing.assert_array_equal(arr, runs[1][1][name])

    def test_early_stopping_restores_best_epoch(self, monkeypatch):
        data, vocab = encoded_corpus(8)
        taggers = [
            Tagger.build(TaggerConfig("cue", "bilstm", vocab.size, 8, 8),
                         np.random.default_rng(1))
            for _ in range(2)
        ]
        falling = iter([50.0, 40.0, 30.0, 20.0, 10.0, 5.0])
        with monkeypatch.context() as patch:
            patch.setattr(training, "token_f1_score", lambda t, d: next(falling))
            history = train(
                taggers[0], data, data[:4], small_config(epochs=10, early_stopping=True),
            )
        assert history.stopped_early
        assert history.best_epoch == 0
        assert len(history.train_loss) == 3  # best, then patience-2 worth of misses
        # the same seed stopped after one epoch holds the best epoch's weights
        train(taggers[1], data, data[:4], small_config(epochs=1))
        best_params = taggers[1].parameters()
        for name, arr in taggers[0].parameters().items():
            np.testing.assert_array_equal(arr, best_params[name])

    def test_early_stopping_copies_no_frozen_embedding(self, monkeypatch):
        """Only the trainable parameters are kept for the best epoch: a
        frozen embedding far larger than everything else is never copied."""
        data, vocab = encoded_corpus(8)
        tagger = Tagger.build(TaggerConfig("cue", "bilstm", vocab.size + 100_000, 8, 8),
                              np.random.default_rng(1))
        # a fixed score: no prediction runs, so the peak is training's own
        monkeypatch.setattr(training, "token_f1_score", lambda t, d: 1.0)
        tracemalloc.start()
        try:
            history = train(tagger, data, data[:4], small_config(epochs=2, early_stopping=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert history.best_epoch == 0
        assert peak < tagger.params["emb.E"].nbytes / 2

    @pytest.mark.parametrize("task, variant", [("scope", "bilstm"), ("cue", "emb-crf")])
    def test_a_batch_gradients_are_freed_before_the_next_backward(self, monkeypatch, task,
                                                                   variant):
        """Once Adam has applied a batch's gradients, the next batch's
        forward pass is the last thing that runs while they are alive, so
        two batches' gradients are never alive at once."""
        data, vocab = encoded_corpus()
        tagger = Tagger.build(TaggerConfig(task, variant, vocab.size, 8, 8),
                              np.random.default_rng(3))
        previous, alive = [], []

        def tracked(*args, **kwargs):
            result = instance_loss_grads(*args, **kwargs)
            previous[:] = [weakref.ref(g.values if isinstance(g, ColumnGrad) else g)
                           for g in result[2].values()]
            return result

        def backward(*args):
            alive.append(sum(ref() is not None for ref in previous))
            return dense_backward(*args)

        monkeypatch.setattr(training, "instance_loss_grads", tracked)
        monkeypatch.setattr(training, "dense_backward", backward)
        train(tagger, data, [], small_config(epochs=2))
        assert len(alive) == 6 and previous
        assert alive == [0] * 6

    def test_nan_validation_never_counts_as_improvement(self, monkeypatch):
        data, vocab = encoded_corpus(8)
        config = small_config(epochs=10, early_stopping=True)
        tagger = Tagger.build(
            TaggerConfig("cue", "bilstm", vocab.size, 8, 8), np.random.default_rng(1)
        )
        monkeypatch.setattr(training, "token_f1_score", lambda t, d: math.nan)
        history = train(tagger, data, data[:4], config)
        assert history.stopped_early
        assert history.best_epoch is None
        assert len(history.train_loss) == 2

    def test_chunk_size_does_not_change_training(self, monkeypatch):
        data, vocab = encoded_corpus()
        runs = []
        for chunk in (training.ADAM_CHUNK, 7):
            monkeypatch.setattr(training, "ADAM_CHUNK", chunk)
            tagger = Tagger.build(TaggerConfig("scope", "bilstm-crf", vocab.size, 8, 8),
                                  np.random.default_rng(3))
            train(tagger, data, [], small_config(epochs=2))
            runs.append(tagger.parameters())
        for name, arr in runs[0].items():
            assert np.array_equal(arr, runs[1][name]), name

    def test_frozen_embeddings_stay_bit_identical(self):
        data, vocab = encoded_corpus()
        tagger = Tagger.build(
            TaggerConfig("cue", "bilstm", vocab.size, 8, 8), np.random.default_rng(2)
        )
        before = tagger.params["emb.E"].copy()
        train(tagger, data, [], small_config(epochs=2))
        np.testing.assert_array_equal(tagger.params["emb.E"], before)

    def test_empty_training_set_rejected(self):
        tagger = Tagger.build(TaggerConfig("cue", "baseline", 5, 4, 2), np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty training set"):
            train(tagger, [], [], small_config())

    def test_overflowing_loss_raises_diverged(self):
        # a pathological start transition makes each sequence NLL ~1e308,
        # so a two-instance batch overflows to inf
        tagger = Tagger.build(TaggerConfig("cue", "emb-crf", 5, 4, 2), np.random.default_rng(0))
        tagger.crf.trans[tagger.crf.start, 0] = -1.7e308
        inst = SimpleNamespace(
            token_ids=np.array([1, 2]),
            cue_label_ids=np.array([0, 0]),
            scope_label_ids=np.array([0, 0]),
            cue_bits=np.array([0, 0]),
        )
        with pytest.raises(TrainingDiverged):
            train(tagger, [inst, inst], [], small_config(epochs=1))


class TestConfigValidation:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lr0=0.0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

    @pytest.mark.parametrize("lr0", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_lr0(self, lr0):
        with pytest.raises(ValueError, match="lr0 finite and > 0"):
            TrainConfig(lr0=lr0)

    @pytest.mark.parametrize("decay", [dict(decay_every=-1), dict(decay_factor=-0.5),
                                       dict(decay_factor=0.0), dict(decay_factor=1.5)])
    def test_rejects_growing_or_negative_decay(self, decay):
        with pytest.raises(ValueError, match="decay_factor in \\(0, 1\\]"):
            TrainConfig(**decay)

    def test_decay_bounds_are_inclusive(self):
        assert TrainConfig(decay_every=0).decay_every == 0
        assert TrainConfig(decay_factor=1.0).decay_factor == 1.0
