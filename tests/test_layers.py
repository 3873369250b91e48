"""Layer-level checks: every backward pass against central finite
differences, the CRF against brute-force enumeration, and the LSTM cell
against a scalar reference implementation."""
from __future__ import annotations

import math
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import (
    assert_grad_close,
    concat_lstm_backward,
    densify,
    brute_best_path,
    brute_log_partition,
    brute_path_scores,
    loop_crf_nll_grads,
    loop_viterbi,
    scalar_lstm_states,
    scalar_lstm_step,
)
from negscope.layers import (
    EXACT_ROWS,
    PROJECT_ROWS,
    CrfParams,
    LstmParams,
    bilstm_backward,
    bilstm_forward,
    crf_marginals,
    crf_nll_grads,
    crf_score,
    crf_viterbi,
    dense_backward,
    dense_forward,
    embed,
    embed_backward,
    init_crf,
    init_dense,
    init_embedding,
    init_lstm,
    lstm_backward,
    lstm_forward,
    packed_steps,
)
from negscope.numerics import sigmoid


def random_crf(rng, num_labels):
    crf = init_crf(num_labels)
    crf.trans[:] = rng.normal(size=crf.trans.shape)
    return crf


class TestEmbedding:
    def test_lookup_shape_and_rows(self, rng):
        weights = init_embedding(4, 6, oov_index=0, rng=rng)
        out = embed(weights, np.array([2, 5, 2]))
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out[0], weights[:, 2])
        np.testing.assert_array_equal(out[0], out[2])

    def test_oov_column_is_zero(self, rng):
        weights = init_embedding(5, 9, oov_index=0, rng=rng)
        np.testing.assert_array_equal(embed(weights, np.array([0])), 0.0)

    def test_one_hot_matrix_gives_basis_vectors(self):
        out = embed(np.eye(4), np.array([3]))
        np.testing.assert_array_equal(out[0], [0, 0, 0, 1])

    def test_out_of_range_is_an_error(self, rng):
        weights = init_embedding(3, 5, oov_index=0, rng=rng)
        with pytest.raises(ValueError):
            embed(weights, np.array([5]))

    def test_backward_accumulates_repeated_ids(self, rng):
        weights = init_embedding(3, 5, oov_index=0, rng=rng)
        ids = np.array([4, 1, 1])
        d_emb = np.ones((3, 3))
        grad = embed_backward(weights, ids, d_emb)
        np.testing.assert_array_equal(grad.cols, [1, 4])
        np.testing.assert_array_equal(grad.values, [[2.0] * 3, [1.0] * 3])

    def test_backward_matches_finite_differences(self, rng):
        weights = init_embedding(3, 5, oov_index=0, rng=rng)
        ids = np.array([1, 3, 1])
        proj = rng.normal(size=(3, 3))

        def f(w):
            return float(np.sum(proj * embed(w, ids)))

        analytic = embed_backward(weights, ids, proj)
        assert_grad_close(f, weights, densify(analytic, weights.shape))

    @pytest.mark.parametrize("ids", [[3, 0, 3, 7, 0, 3, 9, 1], [0], [5], [2] * 6, list(range(10))],
                             ids=["repeated", "id-0", "single", "all-equal", "every-id"])
    def test_backward_densified_is_bitwise_the_dense_scatter_add(self, rng, ids):
        """The column block sums each id's rows in token order, as the
        scatter-add into the full (d, v) matrix does; magnitudes spread
        over 1e-6..1e6 so that a different order would change the bits."""
        weights = init_embedding(4, 10, oov_index=0, rng=rng)
        d_emb = rng.normal(size=(len(ids), 4)) * 10.0 ** rng.integers(-6, 7, size=(len(ids), 1))
        grad = embed_backward(weights, np.array(ids), d_emb)
        assert grad.cols.tolist() == sorted(set(ids))
        assert grad.values.shape == (len(set(ids)), 4)
        dense = np.zeros_like(weights)
        np.add.at(dense.T, np.array(ids), d_emb)
        assert densify(grad, dense.shape).tobytes() == dense.tobytes()


class TestLstmForward:
    def test_zero_params_give_zero_states(self, rng):
        params = init_lstm(3, 2, rng)
        params.w_in[:] = 0
        params.w_rec[:] = 0
        out, _ = lstm_forward(params, rng.normal(size=(10, 2)), None, [2] * 5, np.arange(10))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_single_step_matches_scalar_reference(self, rng):
        params = init_lstm(2, 2, rng)
        x = rng.normal(size=(1, 2))
        out, _ = lstm_forward(params, x, None, [1], np.arange(1))
        h, _ = scalar_lstm_step(params.w_in.tolist(), params.w_rec.tolist(),
                                params.b.tolist(), x[0].tolist(), [0.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(out[0], h, atol=1e-12)

    def test_two_steps_match_scalar_reference(self, rng):
        params = init_lstm(2, 3, rng)
        x = rng.normal(size=(2, 3))
        out, _ = lstm_forward(params, x, None, [1, 1], np.arange(2))
        w_in, w_rec, b = params.w_in.tolist(), params.w_rec.tolist(), params.b.tolist()
        h1, c1 = scalar_lstm_step(w_in, w_rec, b, x[0].tolist(), [0.0, 0.0], [0.0, 0.0])
        h2, _ = scalar_lstm_step(w_in, w_rec, b, x[1].tolist(), h1, c1)
        np.testing.assert_allclose(out[1], h2, atol=1e-12)

    def test_candidate_gate_is_the_last_block(self, rng):
        """Only the g rows carry weight, so i = f = o = 1/2 and
        h = tanh(tanh(w_g x) / 2) / 2."""
        params = init_lstm(2, 2, rng)
        params.w_in[:6] = 0
        params.w_rec[:] = 0
        x = rng.normal(size=(1, 2))
        out, _ = lstm_forward(params, x, None, [1], np.arange(1))
        g = np.tanh(params.w_in[6:] @ x[0])
        np.testing.assert_allclose(out[0], 0.5 * np.tanh(0.5 * g), atol=1e-15)

    def test_two_input_with_zero_aux_matches_single_input(self, rng):
        single = init_lstm(3, 2, rng)
        double = init_lstm(3, 2, rng, two_input=True)
        double.w_in, double.w_rec, double.b = single.w_in, single.w_rec, single.b
        sizes = [3, 3, 2, 2, 1, 1]
        x = rng.normal(size=(sum(sizes), 2))
        a, _ = lstm_forward(single, x, None, sizes, np.arange(len(x)))
        b, _ = lstm_forward(double, x, np.zeros(len(x)), sizes, np.arange(len(x)))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_two_input_matches_scalar_reference(self, rng):
        """An aux input of 1 adds w_aux once to the preactivations."""
        params = init_lstm(2, 2, rng, two_input=True)
        x = rng.normal(size=(1, 2))
        out, _ = lstm_forward(params, x, np.ones(1), [1], np.arange(1))
        h, _ = scalar_lstm_step(
            params.w_in.tolist(), params.w_rec.tolist(), params.b.tolist(),
            x[0].tolist(), [0.0, 0.0], [0.0, 0.0],
            w_aux=params.w_aux.tolist(), q=1.0,
        )
        np.testing.assert_allclose(out[0], h, atol=1e-12)

    @pytest.mark.parametrize("stream", [False, True], ids=["cache", "stream"])
    @pytest.mark.parametrize("two_input", [False, True], ids=["single", "two-input"])
    @pytest.mark.parametrize("units", [1, 4])
    def test_forward_never_writes_its_parameters(self, rng, units, two_input, stream):
        """The gates halve the i, f and o columns of w_rec.T, of the
        projection and of the cue-bit row on fresh arrays: at U = 1 a
        contiguous w_rec.T is a view of w_rec itself, and halving that
        would halve the weights."""
        params = init_lstm(units, 3, rng, two_input=two_input)
        before = {name: arr.copy() for name, arr in params.arrays().items()}
        sizes = [3, 3, 2, 1]
        x = rng.normal(size=(sum(sizes), 3))
        aux = rng.integers(0, 2, size=len(x)).astype(np.float64) if two_input else None
        out = np.empty((len(x), units)) if stream else None
        lstm_forward(params, x, aux, sizes, np.arange(len(x)), out=out)
        assert params.arrays().keys() == before.keys()
        for name, arr in params.arrays().items():
            assert (arr.shape, arr.tobytes()) == (before[name].shape, before[name].tobytes()), name

    def test_gates_match_the_sigmoid_oracle(self, rng):
        """One step of 64 sentences whose preactivations z are exact
        (quarter-integer inputs and weights, |z| at most 40): the
        tanh-form i, f and o gates lie within 2^-52 (one ulp of 1) of
        numerics.sigmoid(z), and the g gate is np.tanh(z) bit for bit."""
        units, dim, b = 8, 2, 64

        def quarters(*shape):
            return rng.integers(-16, 17, size=shape) / 4.0

        params = LstmParams(quarters(4 * units, dim), quarters(4 * units, units),
                            quarters(4 * units), quarters(4 * units))
        x = quarters(b, dim)
        aux = rng.integers(0, 2, size=b).astype(np.float64)
        _, cache = lstm_forward(params, x, aux, [b], np.arange(b))
        z = x @ params.w_in.T + params.b + aux[:, None] * params.w_aux
        u3 = 3 * units
        assert np.array_equal(cache.gates[:, u3:], np.tanh(z[:, u3:]))
        assert np.abs(cache.gates[:, :u3] - sigmoid(z[:, :u3])).max() <= 2.0 ** -52

    def test_reverse_equals_flipped_forward(self, rng):
        """The right-to-left half of a BiLSTM is the cell run over the
        flipped sentence, flipped back."""
        params = init_lstm(3, 2, rng)
        x = rng.normal(size=(5, 2))
        both, _ = bilstm_forward(params, params, x, None, [len(x)])
        flipped, _ = lstm_forward(params, x[::-1].copy(), None, [1] * len(x), np.arange(len(x)))
        np.testing.assert_allclose(both[:, 3:], flipped[::-1], atol=1e-14)

    def test_aux_presence_must_match_params(self, rng):
        single = init_lstm(2, 2, rng)
        double = init_lstm(2, 2, rng, two_input=True)
        x = np.zeros((3, 2))
        sizes, rows = [1, 1, 1], np.arange(3)
        with pytest.raises(ValueError):
            lstm_forward(single, x, np.zeros(3), sizes, rows)
        with pytest.raises(ValueError):
            lstm_forward(double, x, None, sizes, rows)
        with pytest.raises(ValueError):
            lstm_forward(double, x, np.zeros(4), sizes, rows)
        with pytest.raises(ValueError):
            lstm_forward(double, x, np.zeros((3, 1)), sizes, rows)
        with pytest.raises(ValueError):
            lstm_forward(single, np.zeros((3, 1, 2)), None, sizes, rows)

    @pytest.mark.parametrize("keys", [np.zeros(4), np.zeros(2), np.zeros((3, 1)), np.int64(0)])
    @pytest.mark.parametrize("stream", [False, True])
    def test_keys_must_be_one_per_input_row(self, rng, keys, stream):
        params = init_lstm(2, 2, rng)
        out = np.empty((3, 2)) if stream else None
        with pytest.raises(ValueError, match="keys shape"):
            lstm_forward(params, np.zeros((3, 2)), None, [1, 1, 1], np.arange(3), out=out,
                         keys=keys)
        with pytest.raises(ValueError, match="keys shape"):
            bilstm_forward(params, params, np.zeros((3, 2)), None, [3],
                           keep_cache=not stream, keys=keys)

    @pytest.mark.parametrize("sizes", [
        [1, 2], [2, 0, 1], [1, 1], [2, 1, 1], [], [[3]], [1.0, 1.0, 1.0], [-1, 4],
    ])
    def test_bad_batch_sizes_are_an_error(self, rng, sizes):
        """Sizes that grow, hold a zero or a negative, do not sum to the
        3 input rows, or are not a 1-D integer run fail loudly."""
        params = init_lstm(2, 2, rng)
        with pytest.raises(ValueError, match="batch_sizes"):
            lstm_forward(params, rng.normal(size=(3, 2)), None, np.array(sizes), np.arange(3))


def _grad_check_blocks(params, grads, run):
    """Finite differences on every fused block of one direction."""
    for name, arr in params.arrays().items():
        def f(v, arr=arr):
            old = arr.copy()
            arr[:] = v
            try:
                return run()
            finally:
                arr[:] = old

        assert_grad_close(f, arr, grads.arrays()[name])


class TestLstmBackward:
    def _check_all(self, rng, two_input, n=4, units=2, dim=2):
        """Two sentences, of n and 2 steps, packed step-major: steps 2..n-1
        run the longer one alone. The aux input, one scalar per step, is
        real-valued here, not only 0/1."""
        params = init_lstm(units, dim, rng, two_input=two_input)
        sizes = [2, 2] + [1] * (n - 2)
        x = rng.normal(size=(n + 2, dim))
        q = rng.normal(size=n + 2) if two_input else None
        proj = rng.normal(size=(n + 2, units))

        rows = np.arange(n + 2)
        out, cache = lstm_forward(params, x, q, sizes, rows)
        grads, d_x, d_q = lstm_backward(params, cache, proj)

        def run(x=x, q=q):
            return float(np.sum(proj * lstm_forward(params, x, q, sizes, rows)[0]))

        _grad_check_blocks(params, grads, run)
        assert_grad_close(lambda v: run(x=v), x, d_x)
        if two_input:
            assert_grad_close(lambda v: run(q=v), q, d_q)

    def test_single_input_grads(self, rng):
        self._check_all(rng, two_input=False)

    def test_two_input_grads(self, rng):
        self._check_all(rng, two_input=True)

    def test_reverse_grads(self, rng):
        """The right-to-left direction over a ragged packed batch."""
        fwd, bwd = init_lstm(2, 2, rng), init_lstm(2, 2, rng)
        lengths = [3, 1, 2]
        x = rng.normal(size=(6, 2))
        proj = rng.normal(size=(6, 4))
        _, cache = bilstm_forward(fwd, bwd, x, None, lengths)
        _, g_b, d_x = bilstm_backward(fwd, bwd, cache, proj)

        def run(x=x):
            return float(np.sum(proj * bilstm_forward(fwd, bwd, x, None, lengths)[0]))

        _grad_check_blocks(bwd, g_b, run)
        assert_grad_close(lambda v: run(x=v), x, d_x)

    def test_grads_are_c_contiguous_and_params_untouched(self, rng):
        """Adam flattens each gradient without a copy only if it is
        C-contiguous; the forward's contiguous copy of w_rec.T and its
        reused step buffers must not write through to the params."""
        params = init_lstm(3, 2, rng, two_input=True)
        before = {name: arr.tobytes() for name, arr in params.arrays().items()}
        sizes = [3, 3, 2, 1]
        x = rng.normal(size=(sum(sizes), 2))
        out, cache = lstm_forward(params, x, rng.normal(size=len(x)), sizes, np.arange(len(x)))
        grads, _, _ = lstm_backward(params, cache, rng.normal(size=out.shape))
        assert all(g.flags.c_contiguous for g in grads.arrays().values())
        assert grads.arrays().keys() == before.keys()
        assert {name: arr.tobytes() for name, arr in params.arrays().items()} == before

    def test_zero_upstream_gives_zero_grads(self, rng):
        params = init_lstm(2, 2, rng)
        x = rng.normal(size=(12, 2))
        _, cache = lstm_forward(params, x, None, [3] * 4, np.arange(12))
        grads, d_x, _ = lstm_backward(params, cache, np.zeros((12, 2)))
        np.testing.assert_array_equal(d_x, 0.0)
        np.testing.assert_array_equal(grads.w_in, 0.0)
        np.testing.assert_array_equal(grads.w_rec, 0.0)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("lengths, two_input", [
        ([7, 1, 4, 7, 2], False),  # ragged, ties, a length-1 sentence
        ([7, 1, 4, 7, 2], True),
        ([1], True),  # one row in all: no step has a predecessor
        ([1, 1, 1], False),
        ([19, 6, 23, 11], True),  # a one-row tail
    ])
    def test_bitwise_equal_to_the_out_of_place_oracle(self, rng, lengths, two_input, reverse):
        """d(preactivation) built in place over the cached gates gives the
        gradients an out-of-place build gives, bit for bit."""
        params = init_lstm(24, 16, rng, two_input=two_input)
        rows, sizes = packed_steps(np.array(lengths), reverse)
        x = rng.normal(size=(len(rows), 16))
        aux = rng.integers(0, 2, size=len(x)).astype(np.float64) if two_input else None
        d_hidden = rng.normal(size=(len(x), 24))
        _, cache = lstm_forward(params, x, aux, sizes, rows)
        want_grads, want_dx, want_dq = concat_lstm_backward(params, cache, d_hidden)
        grads, d_x, d_q = lstm_backward(params, cache, d_hidden)
        assert grads.arrays().keys() == want_grads.arrays().keys()
        for name, block in want_grads.arrays().items():
            assert np.array_equal(grads.arrays()[name], block), name
        assert np.array_equal(d_x, want_dx)
        assert (d_q is None) == (want_dq is None)
        if two_input:
            assert np.array_equal(d_q, want_dq)

    def test_a_consumed_cache_is_refused(self, rng):
        """The backward overwrites the cached gates, so a second backward
        on the same cache would silently be wrong; it raises instead."""
        params = init_lstm(3, 2, rng)
        x = rng.normal(size=(6, 2))
        _, cache = lstm_forward(params, x, None, [2, 2, 2], np.arange(6))
        d_hidden = rng.normal(size=(6, 3))
        lstm_backward(params, cache, d_hidden)
        assert cache.gates is None
        with pytest.raises(ValueError, match="consumed"):
            lstm_backward(params, cache, d_hidden)
        fwd, bwd = init_lstm(3, 2, rng), init_lstm(3, 2, rng)
        states, caches = bilstm_forward(fwd, bwd, x, None, [4, 2])
        bilstm_backward(fwd, bwd, caches, states)
        with pytest.raises(ValueError, match="consumed"):
            bilstm_backward(fwd, bwd, caches, states)

    @pytest.mark.parametrize("two_input", [False, True])
    def test_working_memory_stays_within_five_state_arrays(self, rng, two_input):
        """The traced peak of one backward above what is live on entry stays
        within five (T, U) float64 arrays plus the results' own bytes. Four
        of the five are the working arrays: tanh(c) scratch, the dc/dh
        factor, and the copies of f and i. The fifth covers the index
        arrays and numpy's iterator buffers for the strided gate slots,
        which hold at most 8,192 elements each (a (T, U) array here holds
        44,800). An out-of-place build of d(preactivation), next to the
        gates, needs about ten."""
        units, dim = 64, 8
        params = init_lstm(units, dim, rng, two_input=two_input)
        rows, sizes = packed_steps(np.array([100, 37, 100, 1, 80, 62, 100, 96, 64, 60]), False)
        x = rng.normal(size=(len(rows), dim))
        aux = rng.integers(0, 2, size=len(x)).astype(np.float64) if two_input else None
        d_hidden = rng.normal(size=(len(x), units))
        _, cache = lstm_forward(params, x, aux, sizes, rows)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            grads, d_x, d_q = lstm_backward(params, cache, d_hidden)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        results = sum(g.nbytes for g in grads.arrays().values()) + d_x.nbytes
        results += 0 if d_q is None else d_q.nbytes
        assert peak <= 5 * d_hidden.nbytes + results, (peak, d_hidden.nbytes, results)


class TestBilstm:
    def test_output_width(self, rng):
        fwd, bwd = init_lstm(3, 2, rng), init_lstm(3, 2, rng)
        out, _ = bilstm_forward(fwd, bwd, rng.normal(size=(5, 2)), None, [5])
        assert out.shape == (5, 6)

    def test_palindrome_swaps_halves(self, rng):
        """With tied directions, a palindromic input makes the reversed
        output equal the original with its halves swapped."""
        params = init_lstm(3, 2, rng)
        half = rng.normal(size=(3, 2))
        x = np.vstack([half, half[::-1]])  # palindrome of length 6
        out, _ = bilstm_forward(params, params, x, None, [6])
        swapped = np.hstack([out[:, 3:], out[:, :3]])
        np.testing.assert_allclose(out[::-1], swapped, atol=1e-12)

    def test_ragged_batch_matches_scalar_reference(self, rng):
        """Cue bits go in as one scalar per token; the oracle adds each
        bit times w_aux."""
        fwd = init_lstm(2, 3, rng, two_input=True)
        bwd = init_lstm(2, 3, rng, two_input=True)
        lengths = [4, 1, 3]
        x = rng.normal(size=(8, 3))
        bits = rng.integers(0, 2, size=8).astype(np.float64)
        out, _ = bilstm_forward(fwd, bwd, x, bits, lengths)
        start = 0
        for n in lengths:
            xs, qs = x[start:start + n], bits[start:start + n]
            expect_f = scalar_lstm_states(fwd, xs, qs)
            expect_b = scalar_lstm_states(bwd, xs[::-1], qs[::-1])[::-1]
            np.testing.assert_allclose(out[start:start + n, :2], expect_f, atol=1e-12)
            np.testing.assert_allclose(out[start:start + n, 2:], expect_b, atol=1e-12)
            start += n

    def test_packed_order_matches_scalar_reference(self, rng):
        """Unsorted lengths with ties and a length-1 sentence, plus cue
        bits: each sentence's states equal the scalar oracle run on it
        alone, and every block's gradient, and the inputs', matches finite
        differences."""
        fwd = init_lstm(2, 3, rng, two_input=True)
        bwd = init_lstm(2, 3, rng, two_input=True)
        lengths = [3, 5, 1, 3, 5, 2]
        x = rng.normal(size=(sum(lengths), 3))
        bits = rng.integers(0, 2, size=len(x)).astype(np.float64)
        proj = rng.normal(size=(len(x), 4))
        out, caches = bilstm_forward(fwd, bwd, x, bits, lengths)
        start = 0
        for n in lengths:
            xs = x[start:start + n]
            qs = bits[start:start + n]
            expect_f = scalar_lstm_states(fwd, xs, qs)
            expect_b = scalar_lstm_states(bwd, xs[::-1], qs[::-1])[::-1]
            np.testing.assert_allclose(out[start:start + n, :2], expect_f, atol=1e-12)
            np.testing.assert_allclose(out[start:start + n, 2:], expect_b, atol=1e-12)
            start += n

        g_f, g_b, d_x = bilstm_backward(fwd, bwd, caches, proj)

        def run(x=x):
            return float(np.sum(proj * bilstm_forward(fwd, bwd, x, bits, lengths)[0]))

        _grad_check_blocks(fwd, g_f, run)
        _grad_check_blocks(bwd, g_b, run)
        assert_grad_close(lambda v: run(x=v), x, d_x)

    def test_shrinking_tail_to_one_row_matches_scalar_reference(self, rng):
        """One strictly longest sentence: the step batch sizes end
        3, 3, 2, 1, so the last step is a one-row product (BLAS's
        matrix-vector kernel)."""
        fwd, bwd = init_lstm(3, 4, rng), init_lstm(3, 4, rng)
        lengths = [3, 7, 5, 3, 6]
        x = rng.normal(size=(sum(lengths), 4))
        assert packed_steps(np.array(lengths), False)[1].tolist() == [5, 5, 5, 3, 3, 2, 1]
        out, _ = bilstm_forward(fwd, bwd, x, None, lengths, keep_cache=False)
        start = 0
        for n in lengths:
            xs = x[start:start + n]
            np.testing.assert_allclose(out[start:start + n, :3],
                                       scalar_lstm_states(fwd, xs), atol=1e-12)
            np.testing.assert_allclose(out[start:start + n, 3:],
                                       scalar_lstm_states(bwd, xs[::-1])[::-1], atol=1e-12)
            start += n

    def test_lengths_must_cover_the_rows(self, rng):
        fwd, bwd = init_lstm(2, 2, rng), init_lstm(2, 2, rng)
        with pytest.raises(ValueError, match="lengths"):
            bilstm_forward(fwd, bwd, np.zeros((5, 2)), None, [2, 2])
        with pytest.raises(ValueError, match="lengths"):
            bilstm_forward(fwd, bwd, np.zeros((2, 2)), None, [2, 0])

    def test_grads_match_finite_differences(self, rng):
        fwd = init_lstm(2, 2, rng, two_input=True)
        bwd = init_lstm(2, 2, rng, two_input=True)
        x = rng.normal(size=(3, 2))
        q = rng.normal(size=3)
        proj = rng.normal(size=(3, 4))
        out, caches = bilstm_forward(fwd, bwd, x, q, [3])
        g_f, g_b, d_x = bilstm_backward(fwd, bwd, caches, proj)

        def f_x(v):
            return float(np.sum(proj * bilstm_forward(fwd, bwd, v, q, [3])[0]))

        assert_grad_close(f_x, x, d_x)

        def f_w(v):
            old = fwd.w_rec.copy()
            fwd.w_rec[:] = v
            try:
                return float(np.sum(proj * bilstm_forward(fwd, bwd, x, q, [3])[0]))
            finally:
                fwd.w_rec[:] = old

        assert_grad_close(f_w, fwd.w_rec, g_f.w_rec)


class TestStreamingForwardMemory:
    """Without a cache the BiLSTM's working memory is step-sized: with the
    step batch fixed, its traced peak grows with the token count by less
    than a states row plus an input row per token. A (T, 4U) gate array,
    a (T, U) cell or a step-major input copy would each break the bound."""

    DIM = UNITS = 32

    def _growth_within_bound(self, rng, two_input, keys):
        fwd = init_lstm(self.UNITS, self.DIM, rng, two_input=two_input)
        bwd = init_lstm(self.UNITS, self.DIM, rng, two_input=two_input)

        def traced_peak(length):
            lengths = [length] * 8
            total = sum(lengths)
            ids = {None: None, "repeated": rng.integers(50, size=total),
                   "distinct": np.arange(total)}[keys]
            x = rng.normal(size=(total, self.DIM))
            if ids is not None:
                x = x[ids]
            aux = rng.integers(0, 2, size=len(x)).astype(np.float64) if two_input else None
            tracemalloc.start()
            try:
                bilstm_forward(fwd, bwd, x, aux, lengths, keep_cache=False, keys=ids)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = 40, 200
        growth = traced_peak(long) - traced_peak(short)
        row_bytes = (2 * self.UNITS + self.DIM) * 8
        assert growth < 8 * (long - short) * row_bytes

    @pytest.mark.parametrize("two_input", [False, True])
    def test_peak_grows_by_less_than_states_and_inputs(self, rng, two_input):
        self._growth_within_bound(rng, two_input, keys=None)

    @pytest.mark.parametrize("keys", ["repeated", "distinct"])
    @pytest.mark.parametrize("two_input", [False, True])
    def test_peak_with_keys_grows_by_less_than_states_and_inputs(self, rng, two_input, keys):
        """Whatever the keys, the projection table has a fixed row count."""
        self._growth_within_bound(rng, two_input, keys)


class TestProjectionTable:
    """The input projection is computed once per distinct key. At
    d = U = 200, where OpenBLAS rounds a product's rows differently by its
    shape, the states with repeated keys must be bitwise those without
    keys, in both modes and for the two-input cell."""

    DIM = UNITS = 200

    @pytest.mark.parametrize("dim, gates", [(200, 40), (200, 200), (200, 800)])
    def test_a_row_of_an_exact_rows_product_is_that_row_of_a_large_one(self, rng, dim, gates):
        """The OpenBLAS rule the table relies on: from EXACT_ROWS rows up,
        a product's row does not depend on the other rows or their count.
        A BLAS that breaks it fails here instead of moving outputs."""
        x = rng.normal(size=(1000, dim))
        w_t = rng.normal(size=(gates, dim)).T
        full = x @ w_t
        for m in (EXACT_ROWS, EXACT_ROWS + 1, 3 * EXACT_ROWS):
            for _ in range(5):
                pick = rng.choice(len(x), size=m, replace=False)
                assert np.array_equal(x[pick] @ w_t, full[pick]), m

    @pytest.mark.parametrize("lengths, vocab", [
        ([7, 3, 12, 1, 5], 6),  # ragged, T = 28 < EXACT_ROWS
        ([23, 5, 31, 1, 17, 31, 9], 20),  # T >= EXACT_ROWS, under EXACT_ROWS distinct keys
        ([40, 12, 30], 1),  # every key equal
        ([30, 2, 25, 14, 9, 30, 21, 7, 18, 26] * 4, 600),  # over PROJECT_ROWS distinct keys
    ])
    @pytest.mark.parametrize("two_input", [False, True])
    def test_repeated_keys_are_bitwise_keys_none(self, rng, lengths, vocab, two_input):
        params = init_lstm(self.UNITS, self.DIM, rng, two_input=two_input)
        total = sum(lengths)
        keys = rng.integers(vocab, size=total)
        x = rng.normal(size=(vocab, self.DIM))[keys]
        aux = rng.integers(0, 2, size=total).astype(np.float64) if two_input else None
        if vocab > PROJECT_ROWS:  # the streamed chunk needs two tables or more
            assert len(set(keys.tolist())) > PROJECT_ROWS >= len(lengths)
        for reverse in (False, True):
            rows, sizes = packed_steps(np.array(lengths), reverse)
            want, _ = lstm_forward(params, x[rows], None if aux is None else aux[rows], sizes,
                                   np.arange(total))
            got, _ = lstm_forward(params, x, aux, sizes, rows, keys=keys)
            assert np.array_equal(got, want)
            for k in (keys, None):
                out = lstm_forward(params, x, aux, sizes, rows, out=np.empty((total, self.UNITS)),
                                   keys=k)[0]
                assert np.array_equal(out[rows], want)


def sequential_bilstm(fwd, bwd, x, aux, lengths, d_states):
    """The reference for the concurrent BiLSTM: lstm_forward and
    lstm_backward per direction, left to right first, on this thread and
    the same packed rows, with d_inputs summed in the same order."""
    units = fwd.units
    states = np.empty((len(x), 2 * units))
    d_inputs = np.zeros_like(x)
    grads = []
    for params, reverse, half in ((fwd, False, slice(0, units)),
                                  (bwd, True, slice(units, 2 * units))):
        rows, sizes = packed_steps(np.array(lengths), reverse)
        hidden, cache = lstm_forward(params, x[rows], None if aux is None else aux[rows], sizes,
                                     np.arange(len(x)))
        states[rows, half] = hidden
        g, dx, _ = lstm_backward(params, cache, d_states[rows, half])
        d_inputs[rows] += dx
        grads.append(g)
    return states, grads, d_inputs


class TestBilstmDirectionsConcurrent:
    """The right-to-left direction runs on a worker thread. The widths are
    large enough for numpy to release the interpreter lock, so the two
    directions really overlap, and the results must still be bitwise those
    of running them one after the other."""

    DIM, UNITS = 48, 64

    def _setup(self, rng, lengths, two_input):
        fwd = init_lstm(self.UNITS, self.DIM, rng, two_input=two_input)
        bwd = init_lstm(self.UNITS, self.DIM, rng, two_input=two_input)
        x = rng.normal(size=(sum(lengths), self.DIM))
        aux = rng.integers(0, 2, size=len(x)).astype(np.float64) if two_input else None
        return fwd, bwd, x, aux

    @pytest.mark.parametrize("lengths, two_input", [
        ([23, 5, 31, 1, 17, 31, 9], True),  # ragged, ties, a length-1 sentence
        ([40], False),  # a single sentence: every step has one row
        ([12, 30, 21, 12, 26], False),  # one strictly longest: a one-row tail
    ])
    def test_bitwise_equal_to_sequential_directions(self, rng, lengths, two_input):
        fwd, bwd, x, aux = self._setup(rng, lengths, two_input)
        d_states = rng.normal(size=(len(x), 2 * self.UNITS))
        want_states, want_grads, want_dx = sequential_bilstm(fwd, bwd, x, aux, lengths, d_states)

        states, caches = bilstm_forward(fwd, bwd, x, aux, lengths)
        assert np.array_equal(states, want_states)
        *grads, d_x = bilstm_backward(fwd, bwd, caches, d_states)
        assert np.array_equal(d_x, want_dx)
        for got, want in zip(grads, want_grads):
            assert got.arrays().keys() == want.arrays().keys()
            for name, block in want.arrays().items():
                assert np.array_equal(got.arrays()[name], block), name

        states, caches = bilstm_forward(fwd, bwd, x, aux, lengths, keep_cache=False)
        assert caches is None
        assert np.array_equal(states, want_states)

    def test_error_in_the_worker_direction_propagates(self, rng):
        lengths = [9, 4, 12]
        fwd, bwd, x, _ = self._setup(rng, lengths, two_input=False)
        wrong = init_lstm(self.UNITS, self.DIM + 1, rng)
        with pytest.raises(ValueError, match=rf"expected inputs \(T, {self.DIM + 1}\)"):
            bilstm_forward(fwd, wrong, x, None, lengths)
        states, _ = bilstm_forward(fwd, bwd, x, None, lengths)
        want = sequential_bilstm(fwd, bwd, x, None, lengths, np.zeros_like(states))[0]
        assert np.array_equal(states, want)

    def test_thread_count_does_not_grow(self, rng):
        lengths = [7, 3, 5]
        fwd, bwd, x, _ = self._setup(rng, lengths, two_input=False)
        d_states = rng.normal(size=(len(x), 2 * self.UNITS))
        bilstm_backward(fwd, bwd, bilstm_forward(fwd, bwd, x, None, lengths)[1], d_states)
        before = threading.active_count()
        for _ in range(50):
            _, caches = bilstm_forward(fwd, bwd, x, None, lengths)
            bilstm_backward(fwd, bwd, caches, d_states)
        assert threading.active_count() == before


class TestDense:
    def test_hand_case(self):
        weights, bias = np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([0.5, -0.5])
        scores = dense_forward(weights, bias, np.array([[1.0, 1.0], [2.0, 0.0]]))
        np.testing.assert_allclose(scores, [[1.5, 2.5], [1.5, -0.5]])

    def test_column_per_token(self, rng):
        weights, bias = init_dense(4, 6, rng)
        scores = dense_forward(weights, bias, rng.normal(size=(9, 6)))
        assert scores.shape == (4, 9)

    def test_grads_match_finite_differences(self, rng):
        weights, bias = init_dense(3, 4, rng)
        x = rng.normal(size=(5, 4))
        proj = rng.normal(size=(3, 5))
        dw, db, dx = dense_backward(weights, x, proj)

        assert_grad_close(
            lambda w: float(np.sum(proj * (w @ x.T + bias[:, None]))), weights, dw,
        )
        assert_grad_close(
            lambda b: float(np.sum(proj * (weights @ x.T + b[:, None]))), bias, db,
        )
        assert_grad_close(
            lambda v: float(np.sum(proj * dense_forward(weights, bias, v))), x, dx
        )


class TestCrfScore:
    def test_all_zero_scores(self):
        crf = init_crf(3)
        assert crf_score(np.zeros((3, 4)), crf, [0, 1, 2, 0]) == 0.0

    def test_length_one(self, rng):
        crf = random_crf(rng, 3)
        e = rng.normal(size=(3, 1))
        want = e[2, 0] + crf.trans[crf.start, 2] + crf.trans[2, crf.end]
        assert crf_score(e, crf, [2]) == pytest.approx(want, abs=1e-12)

    def test_matches_brute_accumulation(self, rng):
        for _ in range(20):
            num_labels = int(rng.integers(2, 5))
            n = int(rng.integers(1, 6))
            crf = random_crf(rng, num_labels)
            e = rng.normal(size=(num_labels, n))
            scored = dict(brute_path_scores(e, crf.trans, crf.start, crf.end))
            labels = tuple(int(v) for v in rng.integers(0, num_labels, size=n))
            assert crf_score(e, crf, list(labels)) == pytest.approx(
                scored[labels], abs=1e-9
            )

    def test_bad_labels_are_an_error(self, rng):
        crf = random_crf(rng, 3)
        with pytest.raises(ValueError):
            crf_score(np.zeros((3, 2)), crf, [0, 3])
        with pytest.raises(ValueError):
            crf_score(np.zeros((3, 2)), crf, [0])


def log_partition(e, crf):
    return crf_marginals(e, crf, [e.shape[1]])[2][0]


class TestCrfPartition:
    """The log partition crf_marginals returns beside the marginals."""

    def test_uniform_lattice(self):
        # 27 zero-score paths: ln 27 = 3 ln 3
        crf = init_crf(3)
        assert log_partition(np.zeros((3, 3)), crf) == pytest.approx(
            3 * math.log(3), abs=1e-12
        )

    def test_length_one_reduces_to_logsumexp(self, rng):
        crf = random_crf(rng, 4)
        e = rng.normal(size=(4, 1))
        want = brute_log_partition(e, crf.trans, crf.start, crf.end)
        assert log_partition(e, crf) == pytest.approx(want, abs=1e-12)

    def test_matches_enumeration(self, rng):
        for _ in range(25):
            num_labels = int(rng.integers(2, 5))
            n = int(rng.integers(1, 6))
            crf = random_crf(rng, num_labels)
            e = rng.normal(size=(num_labels, n)) * 3
            want = brute_log_partition(e, crf.trans, crf.start, crf.end)
            assert log_partition(e, crf) == pytest.approx(want, abs=1e-9)

    def test_dominates_every_path_score(self, rng):
        crf = random_crf(rng, 3)
        e = rng.normal(size=(3, 4))
        log_z = log_partition(e, crf)
        for labels, s in brute_path_scores(e, crf.trans, crf.start, crf.end):
            assert log_z >= s - 1e-12

    def test_path_probabilities_normalize(self, rng):
        crf = random_crf(rng, 3)
        e = rng.normal(size=(3, 3))
        log_z = log_partition(e, crf)
        total = sum(
            math.exp(s - log_z)
            for _, s in brute_path_scores(e, crf.trans, crf.start, crf.end)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


class TestCrfViterbi:
    def test_all_zero_ties_pick_lowest_labels(self):
        crf = init_crf(3)
        (labels,), (score,) = crf_viterbi(np.zeros((3, 4)), crf, [4])
        assert labels == [0, 0, 0, 0]
        assert score == 0.0

    def test_zero_transitions_reduce_to_argmax(self, rng):
        crf = init_crf(4)
        e = rng.normal(size=(4, 6))
        (labels,), _ = crf_viterbi(e, crf, [6])
        assert labels == list(e.argmax(axis=0))

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            num_labels = int(rng.integers(2, 5))
            n = int(rng.integers(1, 6))
            crf = random_crf(rng, num_labels)
            e = rng.normal(size=(num_labels, n)) * 2
            want_labels, want_score = brute_best_path(e, crf.trans, crf.start, crf.end)
            (got_labels,), (got_score,) = crf_viterbi(e, crf, [n])
            assert got_labels == want_labels
            assert got_score == pytest.approx(want_score, abs=1e-9)

    @pytest.mark.parametrize("ties", [False, True])
    def test_batch_is_bitwise_each_sentence_alone(self, rng, ties):
        """Ragged batches with length-1 sentences, decoded together, against
        the per-sentence loop bit for bit and, for short sentences, against
        brute force. Integer scores make ties common."""
        for _ in range(80):
            num_labels = int(rng.integers(3, 5))
            lengths = rng.integers(1, 12, size=int(rng.integers(1, 10)))
            lengths[rng.integers(len(lengths))] = 1
            crf = init_crf(num_labels)
            if ties:
                crf.trans[:] = rng.integers(-2, 3, size=crf.trans.shape)
                e = rng.integers(-2, 3, size=(num_labels, lengths.sum())).astype(np.float64)
            else:
                crf.trans[:] = rng.normal(size=crf.trans.shape)
                e = rng.normal(size=(num_labels, lengths.sum())) * 2
            paths, scores = crf_viterbi(e, crf, lengths)
            assert len(paths) == len(scores) == len(lengths)
            for path, score, cols in zip(paths, scores, np.split(e, np.cumsum(lengths)[:-1], axis=1)):
                assert (path, score) == loop_viterbi(cols, crf.trans, crf.start, crf.end)
                assert ([path], [score]) == crf_viterbi(cols, crf, [cols.shape[1]])
                if cols.shape[1] <= 5:
                    want_path, want_score = brute_best_path(cols, crf.trans, crf.start, crf.end)
                    assert path == want_path
                    assert score == pytest.approx(want_score, abs=1e-9)

    def test_lengths_must_split_the_columns(self):
        with pytest.raises(ValueError, match="lengths"):
            crf_viterbi(np.zeros((3, 5)), init_crf(3), [2, 2])
        with pytest.raises(ValueError, match="lengths"):
            crf_viterbi(np.zeros((3, 2)), init_crf(3), [2, 0])

    def test_score_agrees_with_crf_score(self, rng):
        crf = random_crf(rng, 3)
        e = rng.normal(size=(3, 5))
        (labels,), (score,) = crf_viterbi(e, crf, [5])
        assert score == pytest.approx(crf_score(e, crf, labels), abs=1e-12)


class TestCrfGradients:
    def test_marginals_normalize_and_agree(self, rng):
        crf = random_crf(rng, 3)
        e = rng.normal(size=(3, 5))
        unary, pairwise, _ = crf_marginals(e, crf, [5])
        np.testing.assert_allclose(unary.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(pairwise.sum(axis=(1, 2)), 1.0, atol=1e-9)
        # row-marginalizing the pairwise table recovers the unary table
        np.testing.assert_allclose(pairwise.sum(axis=2), unary[:-1], atol=1e-9)
        np.testing.assert_allclose(pairwise.sum(axis=1), unary[1:], atol=1e-9)

    def test_nll_is_partition_minus_score(self, rng):
        crf = random_crf(rng, 3)
        e = rng.normal(size=(3, 4))
        gold = [2, 0, 1, 1]
        (nll,), _, _ = crf_nll_grads(e, crf, gold, [4])
        want = brute_log_partition(e, crf.trans, crf.start, crf.end) - crf_score(e, crf, gold)
        assert nll == pytest.approx(want, abs=1e-12)
        assert nll >= 0

    def test_grads_match_finite_differences(self, rng):
        for n in (1, 2, 4):
            crf = random_crf(rng, 3)
            e = rng.normal(size=(3, n))
            gold = [int(v) for v in rng.integers(0, 3, size=n)]
            _, d_e, d_t = crf_nll_grads(e, crf, gold, [n])

            assert_grad_close(
                lambda v: crf_nll_grads(v, crf, gold, [n])[0][0], e, d_e
            )

            def f_t(v):
                old = crf.trans.copy()
                crf.trans[:] = v
                try:
                    return crf_nll_grads(e, crf, gold, [n])[0][0]
                finally:
                    crf.trans[:] = old

            assert_grad_close(f_t, crf.trans, d_t)

    def test_unused_transition_entries_get_zero_grad(self, rng):
        crf = random_crf(rng, 3)
        e = rng.normal(size=(3, 3))
        _, _, d_t = crf_nll_grads(e, crf, [0, 1, 2], [3])
        assert d_t[crf.start, crf.end] == 0.0
        assert np.all(d_t[crf.end, :] == 0.0)
        assert np.all(d_t[:, crf.start] == 0.0)


class TestPackedCrf:
    """crf_marginals and crf_nll_grads take a batch of sentences, packed one
    after another, and run step-major over it. Every per-sentence result
    must be bitwise the one-position-at-a-time oracle's on that sentence
    alone, and the batch's d_trans the oracle's per-sentence d_t added to
    zeros in sentence order."""

    @pytest.mark.parametrize("ties", [False, True])
    def test_batch_is_bitwise_each_sentence_alone(self, rng, ties):
        """Ragged batches with a length-1 sentence and one longer than 8,
        where numpy sums the gold path score pairwise; integer scores make
        ties common."""
        for _ in range(60):
            num_labels = int(rng.integers(3, 5))
            lengths = rng.integers(1, 30, size=int(rng.integers(2, 9)))
            lengths[:2] = 1, rng.integers(9, 40)
            rng.shuffle(lengths)
            total = int(lengths.sum())
            crf = init_crf(num_labels)
            if ties:
                crf.trans[:] = rng.integers(-2, 3, size=crf.trans.shape)
                e = rng.integers(-2, 3, size=(num_labels, total)).astype(np.float64)
            else:
                crf.trans[:] = rng.normal(size=crf.trans.shape)
                e = rng.normal(size=(num_labels, total)) * 3
            gold = rng.integers(num_labels, size=total)

            nll, d_e, d_t = crf_nll_grads(e, crf, gold, lengths)
            unary, pairwise, log_z = crf_marginals(e, crf, lengths)
            cuts = np.cumsum(lengths)[:-1]
            want = [loop_crf_nll_grads(cols, crf.trans, crf.start, crf.end, y)
                    for cols, y in zip(np.split(e, cuts, axis=1), np.split(gold, cuts))]
            want_nll, want_d_e, want_d_ts, want_unary, want_pairwise, want_log_z = zip(*want)
            want_d_t = np.zeros_like(crf.trans)
            for part in want_d_ts:
                want_d_t += part
            assert nll == list(want_nll)
            assert d_e.tobytes() == np.hstack(want_d_e).tobytes()
            assert d_t.tobytes() == want_d_t.tobytes()
            assert unary.tobytes() == np.vstack(want_unary).tobytes()
            assert pairwise.shape == (total - len(lengths), num_labels, num_labels)
            assert pairwise.tobytes() == np.concatenate(want_pairwise).tobytes()
            assert log_z.tobytes() == np.array(want_log_z).tobytes()

    def test_lengths_must_split_the_columns(self):
        crf = init_crf(3)
        for lengths in ([2, 2], [3, 3], [5, 0], [-1, 6]):
            with pytest.raises(ValueError, match="lengths"):
                crf_marginals(np.zeros((3, 5)), crf, lengths)
            with pytest.raises(ValueError, match="lengths"):
                crf_nll_grads(np.zeros((3, 5)), crf, [0] * 5, lengths)
