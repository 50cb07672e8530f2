import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oicloc.boundary import (
    AnchorConfig,
    clip_zero_pad,
    inflate,
    round_boundary,
    transform_backward,
)
from oicloc.errors import InputError
from oicloc.oic import BoundaryGradients


class TestRoundBoundary:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3), (-0.5, -1), (-0.4, 0), (3.49, 3)],
    )
    def test_half_away_from_zero(self, x, expected):
        assert round_boundary(x) == expected

    @given(st.integers(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_integers_are_fixed_points(self, n):
        assert round_boundary(float(n)) == n


class TestAnchorConfig:
    def test_accepts_increasing_scales(self):
        cfg = AnchorConfig((1, 2, 4))
        assert cfg.count == 3
        assert cfg.scales == (1.0, 2.0, 4.0)

    @pytest.mark.parametrize("scales", [(), (0.5, 2), (4, 2), (2, 2)])
    def test_rejects_bad_scales(self, scales):
        with pytest.raises(InputError):
            AnchorConfig(scales)

    @pytest.mark.parametrize("scales", [(float("nan"), 2.0), (1.0, float("inf"))])
    def test_rejects_a_scale_that_is_not_finite(self, scales):
        with pytest.raises(InputError, match="anchor scales must be finite"):
            AnchorConfig(scales)


class TestClipInflate:
    def test_clip_into_padded_grid(self):
        assert clip_zero_pad(-3.0, 5.0, 10) == (0.0, 5.0)
        assert clip_zero_pad(2.0, 14.0, 10) == (2.0, 11.0)
        assert clip_zero_pad(-5.0, 20.0, 10) == (0.0, 11.0)

    def test_ratio_regime(self):
        # w*alpha = 2 >= 1, so the ring extends by alpha*w on each side
        X1, X2 = inflate(10.0, 18.0, 8.0, 0.25, 40)
        assert (X1, X2) == (8.0, 20.0)

    def test_min_offset_regime(self):
        # w*alpha = 0.5 < 1, so each side moves by at least one snippet
        X1, X2 = inflate(10.0, 12.0, 2.0, 0.25, 40)
        assert (X1, X2) == (9.0, 13.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.25])
    def test_rejects_a_ratio_that_is_not_positive(self, alpha):
        with pytest.raises(InputError, match="inflation ratio must be positive"):
            inflate(10.0, 12.0, 2.0, alpha, 40)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_rejects_a_ratio_that_is_not_finite(self, alpha):
        with pytest.raises(InputError, match="inflation ratio must be positive and finite"):
            inflate(10.0, 12.0, 2.0, alpha, 40)

    def test_inflation_clips_to_grid(self):
        X1, X2 = inflate(1.0, 39.0, 38.0, 0.25, 40)
        assert (X1, X2) == (0.0, 41.0)

    @given(
        st.floats(1.0, 30.0),
        st.floats(0.1, 20.0),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_outer_strictly_contains_inner_before_clipping(self, x1, w, alpha):
        x2 = x1 + w
        X1, X2 = inflate(x1, x2, w, alpha, 100)
        assert X1 <= x1 and X2 >= x2
        assert (x1 - X1) + (X2 - x2) > 0


class TestTransformBackward:
    def test_tx_chain_is_sum_of_partials_times_anchor(self):
        g = BoundaryGradients(0.1, -0.2, 0.3, -0.4)
        d_tx, _ = transform_backward(g, 4.0, 4.0, 0.25, False)
        assert d_tx == pytest.approx((0.1 - 0.2 + 0.3 - 0.4) * 4.0)

    def test_tw_ratio_regime(self):
        g = BoundaryGradients(1.0, 0.0, 0.0, 0.0)
        _, d_tw = transform_backward(g, 8.0, 8.0, 0.25, False)
        # inner start moves by -w/2 per unit t_w
        assert d_tw == pytest.approx(-4.0)
        g = BoundaryGradients(0.0, 0.0, 1.0, 0.0)
        _, d_tw = transform_backward(g, 8.0, 8.0, 0.25, False)
        # outer start moves by -(w/2 + alpha*w)
        assert d_tw == pytest.approx(-6.0)

    def test_tw_min_offset_regime(self):
        g = BoundaryGradients(0.0, 0.0, 1.0, 0.0)
        _, d_tw = transform_backward(g, 2.0, 2.0, 0.25, True)
        # the outer boundary rides rigidly on the inner one
        assert d_tw == pytest.approx(-1.0)

    def test_tw_uses_current_width(self):
        g = BoundaryGradients(0.0, 1.0, 0.0, 0.0)
        _, d_tw = transform_backward(g, 4.0, 8.0, 0.25, False)
        # the regressed length w = 8, not the anchor length 4, sets dx2/dtw = w/2
        assert d_tw == pytest.approx(4.0)

    def test_arrays_match_scalar_calls(self, rng):
        g = BoundaryGradients(*rng.standard_normal((4, 6)))
        w_a, w = rng.uniform(1.0, 16.0, (2, 6))
        min_offset = np.arange(6) % 2 == 0
        d_tx, d_tw = transform_backward(g, w_a, w, 0.25, min_offset)
        for i in range(6):
            gi = BoundaryGradients(g.d_x1[i], g.d_x2[i], g.d_X1[i], g.d_X2[i])
            assert (d_tx[i], d_tw[i]) == transform_backward(gi, w_a[i], w[i], 0.25, min_offset[i])
