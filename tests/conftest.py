import numpy as np
import pytest
from hypothesis import settings

from fneg.fock import FockOperator
from fneg.verify import random_even_operator  # noqa: F401  used by the test modules

settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def max_abs(a, b=None):
    m = a.matrix if isinstance(a, FockOperator) else np.asarray(a)
    if b is not None:
        n = b.matrix if isinstance(b, FockOperator) else np.asarray(b)
        m = m - n
    return float(np.abs(m).max())


def record_solves(monkeypatch, *names):
    """Patch the named ``np.linalg`` solvers to log ``(name, input shape)`` per call."""
    log = []
    for name in names:
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, name=name, solve=solve, **kw: (
            log.append((name, a.shape)) or solve(a, *args, **kw)))
    return log
