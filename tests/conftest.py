import threading

import numpy as np
import pytest
from hypothesis import Phase, settings

from oicloc import regressor
from oicloc.cas import Cas

# tests/mutants.py runs its tests with this profile: a failure ends the test
# at once, without shrinking, and nothing is written to the example database
settings.register_profile("mutants", phases=[Phase.explicit, Phase.generate], database=None)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(params=["pool", "no-pool"])
def pool(request, monkeypatch):
    """Runs a test as if two CPUs ("pool": the worker thread engages at every
    call from ``POOL_MIN_MADDS`` or ``POOL_MIN_PARAMS`` up) or one ("no-pool": it never does)
    were usable. Yields the list of what ``_worker`` handed out, one entry
    (the pool or None) per call."""
    cpus = {0, 1} if request.param == "pool" else {0}
    monkeypatch.setattr(regressor.os, "sched_getaffinity", lambda pid: cpus)
    handed, worker = [], regressor._worker

    def spy(*args):
        handed.append(worker(*args))
        return handed[-1]

    monkeypatch.setattr(regressor, "_worker", spy)
    yield handed
    assert any(handed) == (request.param == "pool")  # the mode was in force


@pytest.fixture
def split_calls(monkeypatch):
    """Records ``(name, ran on the worker thread, args)`` for every call of
    the regressor's functions that the worker thread can share: both batch
    norms, the momentum update and the conv backward's two kinds of product."""
    calls = []
    for name in ("_batch_norm_relu", "_batch_norm_backward", "_momentum_rows", "_weight_grads",
                 "_input_grad"):
        def spy(*args, _fn=getattr(regressor, name), _name=name):
            calls.append((_name, threading.current_thread() is not threading.main_thread(), args))
            return _fn(*args)

        monkeypatch.setattr(regressor, name, spy)
    return calls


@pytest.fixture
def ramp_cas():
    """Single class, simple plateau with low shoulders; handy for hand math."""
    return Cas(np.array([[0.0, 0.1, 0.9, 1.0, 0.8, 0.1, 0.0]]))


@pytest.fixture
def ramp_hypothesis():
    """The box (x1, x2, X1, X2) around ``ramp_cas``'s plateau."""
    return 3.0, 5.0, 2.0, 6.0


def random_hypothesis(rng, T):
    """A box (x1, x2, X1, X2) whose rounded boundaries fit the padded grid [0, T+1]."""
    x1 = int(rng.integers(1, T + 1))
    x2 = int(rng.integers(x1, min(T, x1 + 11) + 1))
    left = int(rng.integers(0, min(x1, 5) + 1))
    right = int(rng.integers(0, min(T + 1 - x2, 5) + 1))
    if left + right == 0:  # the outer ring must not be empty
        if bool(rng.integers(0, 2)):
            left = 1
        else:
            right = 1  # x2 <= T, so x2 + 1 stays on the grid
    return float(x1), float(x2), float(x1 - left), float(x2 + right)
