"""Kernel-level checks: frozen values, algebraic properties, and the
finite-difference checker validated against a function whose derivative
is known in closed form."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import finite_diff_grad
from negscope.numerics import logsumexp, sigmoid

rng = np.random.default_rng(42)


class TestActivations:
    def test_sigmoid_frozen_values(self):
        assert sigmoid(0.0) == pytest.approx(0.5, abs=1e-12)
        assert sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-12)
        assert sigmoid(-1.0) == pytest.approx(1.0 - 0.7310585786300049, abs=1e-12)

    def test_sigmoid_saturates_without_nan(self):
        vals = sigmoid(np.array([-500.0, -50.0, 50.0, 500.0]))
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(0.0, abs=1e-20)
        assert vals[-1] == pytest.approx(1.0, abs=1e-20)

    def test_sigmoid_symmetry(self):
        x = rng.normal(size=200) * 5
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_sigmoid_is_bitwise_the_masked_two_branch_form(self):
        def two_branch(x):
            """1 / (1 + e) where x >= 0, else e / (1 + e), with e = exp(-|x|)
            (which is exp(x) below zero, and carries a NaN through)."""
            e = np.exp(-np.abs(x))
            ref = np.empty_like(x)
            pos = x >= 0
            ref[pos] = 1.0 / (1.0 + e[pos])
            ref[~pos] = e[~pos] / (1.0 + e[~pos])
            return ref

        x = np.concatenate([np.linspace(-40.0, 40.0, 38001), rng.normal(size=2000) * 10,
                            [0.0, -0.0, -745.0, 745.0]])
        ref = two_branch(x)
        assert np.array_equal(sigmoid(x), ref)
        assert np.array_equal(sigmoid(x.reshape(-1, 7)[:, 2:5]), ref.reshape(-1, 7)[:, 2:5])

        # the edges, compared bit for bit so that NaN and the sign of zero count
        edges = np.array([np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
                          1e-320, -1e-320, 0.0, -0.0])
        assert np.array_equal(sigmoid(edges).view(np.int64), two_branch(edges).view(np.int64))
        assert [type(sigmoid(v)) for v in (-0.0, np.nan, 800.0)] == [float] * 3

        # lstm_forward passes the strided (b, 3U) gate slice of a (b, 4U) block
        z = np.concatenate([edges, x])[:40 * 1000].reshape(-1, 40)
        gates = z[:, :30]
        assert not gates.flags.c_contiguous
        assert np.array_equal(sigmoid(gates).view(np.int64),
                              two_branch(gates.copy()).view(np.int64))
        # ... and writes the result over that slice
        want = two_branch(gates.copy())
        assert sigmoid(gates, out=gates) is gates
        assert np.array_equal(gates.view(np.int64), want.view(np.int64))


class TestLogsumexp:
    def test_frozen_value(self):
        assert logsumexp(np.array([1.0, 2.0, 3.0])) == pytest.approx(
            3.4076059644443806, abs=1e-10
        )

    def test_singleton(self):
        assert logsumexp(np.array([-7.25])) == pytest.approx(-7.25, abs=1e-12)

    def test_equal_scores(self):
        # n equal scores x -> x + ln n
        assert logsumexp(np.full(3, math.log(3))) == pytest.approx(
            2 * math.log(3), abs=1e-12
        )

    @given(st.lists(st.floats(-40, 40), min_size=1, max_size=10))
    @settings(max_examples=100)
    def test_bounds(self, scores):
        s = np.array(scores)
        out = logsumexp(s)
        assert out >= np.max(s) - 1e-12
        assert out <= np.max(s) + math.log(len(scores)) + 1e-12

    def test_no_overflow_on_large_scores(self):
        assert logsumexp(np.array([1e4, 1e4])) == pytest.approx(
            1e4 + math.log(2), rel=1e-12
        )


class TestValidators:
    def test_as_vector_enforces_shape(self):
        """logsumexp takes only a vector; a matrix is an error."""
        assert logsumexp([0, 0]) == pytest.approx(math.log(2), rel=1e-12)
        with pytest.raises(ValueError, match="ndim=2"):
            logsumexp([[1.0]])


class TestFiniteDiff:
    def test_quadratic(self):
        # d/dx sum(x^2) = 2x
        x = np.array([3.0, -1.5, 0.25])
        np.testing.assert_allclose(
            finite_diff_grad(lambda a: float(np.sum(a * a)), x), 2 * x, atol=1e-8
        )

    def test_constant_function(self):
        g = finite_diff_grad(lambda a: 1.25, np.array([0.3, -2.0]))
        np.testing.assert_allclose(g, 0.0, atol=0)

    def test_matches_analytic_sigmoid_derivative(self):
        # d sigmoid = s (1 - s); checked at 100 random points
        xs = rng.normal(size=100) * 4
        for x0 in xs:
            g = finite_diff_grad(lambda a: float(sigmoid(a[0])), np.array([x0]))
            s = sigmoid(x0)
            expected = s * (1 - s)
            rel = abs(g[0] - expected) / max(1.0, abs(g[0]) + abs(expected))
            assert rel <= 1e-6

    def test_nonfinite_objective_is_an_error(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(ValueError):
                finite_diff_grad(lambda a: float(np.log(a[0])), np.array([0.0]))
