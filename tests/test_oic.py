import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_inner_loss, brute_force_loss, kernel_at, step_filter_weights

from oicloc.cas import Cas

from conftest import random_hypothesis


class TestForward:
    def test_worked_example(self, ramp_cas, ramp_hypothesis):
        out = kernel_at(ramp_cas, ramp_hypothesis)[0]
        assert out.a_inner == pytest.approx(0.9)
        assert out.a_outer == pytest.approx(0.1)
        assert out.loss == pytest.approx(-0.8)

    def test_matches_brute_force(self, rng):
        for _ in range(300):
            T = int(rng.integers(5, 40))
            cas = Cas(rng.uniform(0, 1, size=(1, T)))
            h = random_hypothesis(rng, T)
            expected = brute_force_loss(cas.act[0], *h)
            assert kernel_at(cas, h)[0].loss == pytest.approx(expected, abs=1e-12)

    def test_fractional_coordinates_round_half_away(self):
        cas = Cas(np.array([[0.0, 1.0, 1.0, 0.0, 0.0]]))
        # x1=1.5 rounds to 2, x2=3.4 rounds to 3
        out = kernel_at(cas, (1.5, 3.4, 0.6, 4.8))[0]
        assert out.a_inner == pytest.approx(1.0)
        assert out.a_outer == pytest.approx(0.0)


class TestBackward:
    def test_worked_example_gradients(self, ramp_cas, ramp_hypothesis):
        g = kernel_at(ramp_cas, ramp_hypothesis)[1]
        assert g.d_x1 == pytest.approx(0.4, abs=1e-6)
        assert g.d_x2 == pytest.approx(-19.0 / 60.0, abs=1e-6)
        assert g.d_X1 == pytest.approx(0.0, abs=1e-12)
        assert g.d_X2 == pytest.approx(0.0, abs=1e-12)

    def test_pad_clipped_x1_gradient_never_positive(self, rng):
        # when the rounded inner start sits on the zero pad the analytic
        # gradient must allow the boundary to move back into the video
        for _ in range(200):
            T = int(rng.integers(4, 30))
            cas = Cas(rng.uniform(0, 1, size=(1, T)))
            x1 = float(rng.uniform(-0.49, 0.49))
            x2 = float(rng.uniform(1.0, T - 1))
            h = (x1, x2, x1, min(x2 + 2.0, T + 1.0))
            assert kernel_at(cas, h)[1].d_x1 <= 0.0

    def test_uniform_signal_has_zero_inner_gradients(self):
        cas = Cas(np.full((1, 12), 0.6))
        g = kernel_at(cas, (4.0, 7.0, 2.0, 9.0))[1]
        assert g.d_x1 == pytest.approx(0.0, abs=1e-12)
        assert g.d_x2 == pytest.approx(0.0, abs=1e-12)


def inner_only(cas, h):
    """Inner-only (loss, d_x1, d_x2) of one box; its outer boundary is ignored."""
    areas, g = kernel_at(cas, h, inner_only=True)
    return areas.loss, g.d_x1, g.d_x2


class TestInnerOnly:
    def test_forward_matches_brute_force(self, rng):
        for _ in range(200):
            T = int(rng.integers(4, 30))
            cas = Cas(rng.uniform(0, 1, size=(1, T)))
            h = random_hypothesis(rng, T)
            expected = brute_force_inner_loss(cas.act[0], *h[:2])
            assert inner_only(cas, h)[0] == pytest.approx(expected, abs=1e-12)

    def test_ignores_outer_boundary(self):
        cas = Cas(np.array([[0.2, 0.9, 0.8, 0.1, 0.3, 0.7]]))
        a = inner_only(cas, (2.0, 3.0, 1.0, 4.0))
        b = inner_only(cas, (2.0, 3.0, 0.0, 6.0))
        assert a == b

    def test_backward_matches_discrete_difference(self, rng):
        for _ in range(100):
            T = int(rng.integers(20, 40))
            cas = Cas(rng.uniform(0, 1, size=(1, T)))
            x1 = float(rng.integers(3, T - 14))
            x2 = x1 + 10.0
            _, d_x1, d_x2 = inner_only(cas, (x1, x2, x1 - 1.0, x2 + 1.0))

            def loss(a, b):
                return inner_only(cas, (a, b, a - 1, b + 1))[0]

            fd_x1 = (loss(x1 + 1, x2) - loss(x1 - 1, x2)) / 2.0
            fd_x2 = (loss(x1, x2 + 1) - loss(x1, x2 - 1)) / 2.0
            assert d_x1 == pytest.approx(fd_x1, abs=3.0 / 11)
            assert d_x2 == pytest.approx(fd_x2, abs=3.0 / 11)


class TestStepFilter:
    def test_weights_reproduce_loss_and_sum_to_zero(self, rng):
        for _ in range(300):
            T = int(rng.integers(5, 50))
            cas = Cas(rng.uniform(0, 1, size=(1, T)))
            h = random_hypothesis(rng, T)
            start, weights, norm = step_filter_weights(h)
            row = cas.padded[0]
            dot = float(weights @ row[start : start + len(weights)]) / norm
            assert dot == pytest.approx(kernel_at(cas, h)[0].loss, abs=1e-12)
            assert weights.sum() == 0.0

    def test_integer_valued_profile(self):
        start, weights, norm = step_filter_weights((3.0, 5.0, 1.0, 7.0))
        assert start == 1
        # inner length 3, ring length 4
        assert np.array_equal(weights, [3.0, 3.0, -4.0, -4.0, -4.0, 3.0, 3.0])
        assert norm == 12.0

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_zero_sum_is_exact_for_all_shapes(self, inner_len, left, right):
        if left + right == 0:
            right = 1
        x1 = float(left)
        x2 = x1 + inner_len - 1
        _, weights, _ = step_filter_weights((x1, x2, 0.0, x2 + right))
        assert weights.sum() == 0.0
