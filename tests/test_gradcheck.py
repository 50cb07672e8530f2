from oicloc.gradcheck import (
    check_network_fd,
    check_oic_discrete,
    check_transform_fd,
    run_all,
    smooth_loss,
)

import numpy as np

from oracles import kernel_at

from oicloc.cas import Cas


class TestSmoothLoss:
    def test_agrees_with_discrete_loss_at_integers(self, rng):
        for _ in range(50):
            T = int(rng.integers(10, 30))
            cas = Cas(rng.uniform(0, 1, size=(1, T)))
            x1 = float(rng.integers(3, T - 5))
            x2 = x1 + 3.0
            h = (x1, x2, x1 - 2.0, x2 + 2.0)
            assert np.isclose(
                smooth_loss(cas, 1, *h),
                kernel_at(cas, h)[0].loss,
                atol=1e-12,
            )

    def test_is_continuous_inside_a_cell(self, rng):
        cas = Cas(rng.uniform(0, 1, size=(1, 20)))
        base = smooth_loss(cas, 1, 5.0, 9.0, 3.0, 11.0)
        nearby = smooth_loss(cas, 1, 5.0 + 1e-9, 9.0, 3.0, 11.0)
        assert abs(base - nearby) < 1e-6


class TestSuites:
    def test_oic_discrete_passes(self):
        result = check_oic_discrete(seed=0)
        assert result.passed, result

    def test_transform_fd_passes(self):
        result = check_transform_fd(seed=0)
        assert result.passed, result

    def test_network_fd_passes(self):
        result = check_network_fd(seed=0)
        assert result.passed, result

    def test_run_all_returns_three_suites(self):
        results = run_all(seed=1)
        assert len(results) == 3
        assert all(r.passed for r in results)
