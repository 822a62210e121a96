import functools
import importlib
import sys

import numpy as np
import pytest
from hypothesis import settings

from fneg.errors import SamplingError
from fneg.fock import FockOperator, ModeLayout, as_spec
from fneg.measures import negativity
from fneg.states import _RESAMPLE_BUDGET, _block_gaussian, _parity_mask, _rng, random_separable

settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_even_operator(layout: ModeLayout, rng: np.random.Generator) -> FockOperator:
    """Generic (non-Hermitian) parity-even operator with Gaussian entries."""
    draws = rng.normal(size=(2, layout.dim, layout.dim))
    return FockOperator(layout, _block_gaussian(draws, _parity_mask(layout.num_modes)), copy=False)


def max_abs(a, b=None):
    m = a.matrix if isinstance(a, FockOperator) else np.asarray(a)
    if b is not None:
        n = b.matrix if isinstance(b, FockOperator) else np.asarray(b)
        m = m - n
    return float(np.abs(m).max())


def basis_vector(layout: ModeLayout, occupations) -> np.ndarray:
    """Normal-ordered basis state with occupation ``occupations[j-1]`` in mode j."""
    assert len(occupations) == layout.num_modes
    vec = np.zeros(layout.dim, dtype=complex)
    vec[sum(1 << j for j, n in enumerate(occupations) if n)] = 1.0
    return vec


def majorana_monomial(num_modes: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """The ordered Majorana monomial ``c_{k_1} c_{k_2} ... c_{k_m}`` (``k_1 < k_2 < ...``) as a
    signed permutation: column ``x`` holds ``phases[x]`` at row ``rows[x]``, all else is 0.

    Built in O(m d) from each factor's action on the basis, rightmost first:
    ``c_{2j-1}|x> = (-1)^{n_1+..+n_{j-1}} |x ^ b_j>`` and ``c_{2j}|x> = -i (-1)^{n_j}
    (-1)^{n_1+..+n_{j-1}} |x ^ b_j>``, with ``b_j`` the bit of mode j (``c_{2j-1} = f_j^+ + f_j``,
    ``c_{2j} = -i(f_j^+ - f_j)``).  Every phase is a product of exact ``+-1`` and ``+-i``.
    """
    rows = np.arange(1 << num_modes)
    phases = np.ones(rows.size, dtype=complex)
    for k in sorted(indices, reverse=True):
        bit = 1 << ((k - 1) // 2)
        phases *= np.where(np.bitwise_count(rows & (bit - 1)) % 2, -1, 1)
        if k % 2 == 0:
            phases *= np.where(rows & bit, 1j, -1j)
        rows = rows ^ bit
    return rows, phases


def outcome(fn):
    """``fn()``'s value, or the type and message of what it raises."""
    try:
        return fn()
    except Exception as err:
        return type(err), str(err)


def record_calls(monkeypatch, *names):
    """Log ``(name, shape of the first argument)`` per call of each named function.

    A bare name is an ``np.linalg`` solver (``"svd"``).  A dotted name is a
    function of an ``fneg`` module (``"fneg.ptranspose._signed_gather"``); it is
    patched in every ``fneg`` module that bound it, so calls through an imported
    name are logged under its bare name too.
    """
    log = []
    for name in names:
        module, _, attr = name.rpartition(".")
        home = importlib.import_module(module) if module else np.linalg
        fn = getattr(home, attr)
        wrapper = functools.wraps(fn)(lambda a, *args, attr=attr, fn=fn, **kw: (
            log.append((attr, np.shape(a))) or fn(a, *args, **kw)))
        for key, owner in list(sys.modules.items()):
            if owner is home or key.startswith("fneg.") and getattr(owner, attr, None) is fn:
                monkeypatch.setattr(owner, attr, wrapper)
    return log


def random_biseparable(
    layout: ModeLayout,
    spec,
    num_terms: int,
    seed,
    min_witness: float = 1e-4,
) -> FockOperator:
    """Mixture ``sum_i w_i rho_spec,i (x) rho_rest,i`` with entangled remainder.

    The remainder factors are unconstrained physical density matrices, so the
    state is biseparable across ``spec`` vs the rest by construction; samples
    whose remaining one-vs-rest negativities fall below ``min_witness`` are
    rejected so the biseparable class witnesses are strictly positive.
    """
    rng = _rng(seed)
    first = as_spec(spec)
    parts = [first, first.complement(layout)]
    other_labels = [lab for lab in layout.subsystems
                    if set(layout.modes_with_label(lab)) - set(first.target_modes)]
    for _ in range(_RESAMPLE_BUDGET):
        rho = random_separable(layout, parts, num_terms, rng)
        if all(negativity(rho, layout.spec(lab)) > min_witness for lab in other_labels):
            return rho
    raise SamplingError("biseparable witness resampling budget exhausted")
