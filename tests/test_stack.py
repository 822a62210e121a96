"""The private kernels take ``(..., d, d)`` stacks: each member equals the kernel on that member."""

import tracemalloc

import numpy as np
import pytest

from fneg.fock import (
    FLAG_TOL,
    FockOperator,
    ModeLayout,
    SubsystemSpec,
    _cholesky_psd,
    _dense_min_eigenvalue,
    _hermitian_residual,
    _parity_leak,
    _unit_trace,
)
from fneg.measures import _dense_pt_norms, _pt_norm
from fneg.ptranspose import _signed_gather
from fneg.states import _block_gaussian, _normalised_gram, _parity_mask, random_density
from fneg.verify import random_even_operator

MODES = (2, 3, 4)


def _targets(n: int) -> list[tuple[int, ...]]:
    """Leading, interleaved (odd) and last-mode targets, without repeats."""
    found = [tuple(range(1, n // 2 + 1)), tuple(range(1, n + 1, 2)), (n,)]
    return [t for k, t in enumerate(found) if t not in found[:k] and len(t) < n]


def _stack(n: int, seed: int) -> np.ndarray:
    """Physical states, non-Hermitian even operators and states with a parity-odd part."""
    rng = np.random.default_rng(seed)
    lay = ModeLayout.bipartite(1, n - 1)
    members = []
    for _ in range(3):
        rho = random_density(lay, rng).matrix
        members.append(rho)
        members.append(random_even_operator(lay, rng).matrix)
        odd = rng.normal(size=rho.shape) * 1e-3
        members.append(rho + odd + odd.T)  # Hermitian, not parity-even
    return np.stack(members)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("n", MODES)
class TestStackEqualsMembers:
    def test_parity_leak(self, n):
        stack = _stack(n, n)
        masks = [SubsystemSpec(t).mask() for t in _targets(n)] + [(1 << n) - 1]
        for mask in masks:
            leaks = _parity_leak(stack, n, mask)
            assert leaks.shape == (len(stack),)
            assert _bits(leaks) == _bits([_parity_leak(m, n, mask) for m in stack])

    @pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-3])
    def test_hermitian_within(self, n, tol):
        stack = _stack(n, n + 10)
        residuals = _hermitian_residual(stack)
        assert _bits(residuals) == _bits([_hermitian_residual(m) for m in stack])
        within = residuals <= tol
        assert within.any() and not within.all()

    def test_unit_trace_and_min_eigenvalue(self, n):
        stack = _stack(n, n + 20)
        assert _unit_trace(stack, 1e-10).tolist() == [bool(_unit_trace(m, 1e-10)) for m in stack]
        assert _bits(_dense_min_eigenvalue(stack)) == _bits(
            [_dense_min_eigenvalue(m) for m in stack])

    def test_cholesky_psd(self, n):
        # one factorization for the stack; a member below -tol/2 sends it to eigvalsh
        stack = _stack(n, n + 40)
        verdicts = _cholesky_psd(stack, FLAG_TOL)
        assert verdicts.tolist() == (_dense_min_eigenvalue(stack) >= -FLAG_TOL).tolist()
        assert verdicts.tolist() == [bool(_cholesky_psd(m, FLAG_TOL)) for m in stack]
        assert verdicts.any() and not verdicts.all()
        states = stack[::3]
        assert _cholesky_psd(states, FLAG_TOL).all()

    def test_dense_pt_norms(self, n):
        states = _stack(n, n + 50)[::3]
        lay = ModeLayout.bipartite(1, n - 1)
        for target in _targets(n):
            spec = SubsystemSpec(target)
            norms = _dense_pt_norms(states, n, spec, FLAG_TOL)
            singles = [_pt_norm(FockOperator(lay, m), spec, "fermionic", FLAG_TOL) for m in states]
            assert norms.tolist() == singles and _bits(norms) == _bits(singles)
        # any member failing a check, or a target of every mode, fails the stack
        assert _dense_pt_norms(_stack(n, n + 50), n, SubsystemSpec((1,)), FLAG_TOL) is None
        assert _dense_pt_norms(states, n, SubsystemSpec(range(1, n + 1)), FLAG_TOL) is None

    @pytest.mark.parametrize("fermionic", [True, False])
    def test_signed_gather(self, n, fermionic):
        stack = _stack(n, n + 30)
        for target in _targets(n):
            spec = SubsystemSpec(target)
            out = _signed_gather(stack, n, spec, fermionic)
            assert out.shape == stack.shape
            assert _bits(out) == _bits([_signed_gather(m, n, spec, fermionic) for m in stack])

    def test_draw_and_gram(self, n):
        d = 1 << n
        rng = np.random.default_rng(n)
        state = rng.bit_generator.state
        draws = rng.normal(size=(5, 2, d, d))
        rng.bit_generator.state = state
        apart = [rng.normal(size=(2, d, d)) for _ in range(5)]
        assert _bits(draws) == _bits(apart)
        mats = _normalised_gram(_block_gaussian(draws, _parity_mask(n)))
        singles = [_normalised_gram(_block_gaussian(g, _parity_mask(n))) for g in apart]
        assert _bits(mats) == _bits(singles)


@pytest.mark.parametrize("n", MODES)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_member_fails_alone(n, value):
    stack = np.stack([random_density(ModeLayout.bipartite(1, n - 1), seed).matrix
                      for seed in range(4)])
    stack[2, 0, 0] = value  # an entry of the even-even block, read by no leak band
    leaks = _parity_leak(stack, n, (1 << n) - 1)
    assert np.isnan(leaks[2]) and (leaks[[0, 1, 3]] == 0.0).all()
    if np.isnan(value):
        assert (_hermitian_residual(stack) <= 1e-10).tolist() == [True, True, False, True]
    assert _unit_trace(stack, 1e-10).tolist() == [True, True, False, True]


def test_flag_checks_stay_banded_at_ten_modes():
    """At N = 10 the parity and Hermiticity flags allocate less than d^2 * 16 / 8 bytes."""
    n = 10
    rho = random_density(ModeLayout.bipartite(5, 5), 3).matrix
    budget = (1 << n) ** 2 * 16 // 8
    for check in ("is_parity_even", "is_hermitian"):
        op = FockOperator(ModeLayout.bipartite(5, 5), rho, copy=False)
        tracemalloc.start()
        try:
            assert getattr(op, check)()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, (check, peak)
