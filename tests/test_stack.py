"""The private kernels take ``(..., d, d)`` stacks: each member equals the kernel on that member."""

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import outcome, random_even_operator
from fneg.errors import LayoutError, StateValidationError
from fneg.fock import (
    FLAG_TOL,
    FockOperator,
    ModeLayout,
    SubsystemSpec,
    _cholesky_psd,
    _density_verdicts,
    _dense_min_eigenvalue,
    _hermitian_residual,
    _parity_leak,
    _sign_vector,
    _unit_trace,
)
from fneg.measures import _pt_norm, _pt_norms, trace_norm
from fneg.ptranspose import _signed_gather
from fneg.states import _block_gaussian, _normalised_gram, _parity_mask, random_density, \
    random_pure

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


def _raises_as_per_call(states: np.ndarray, n: int, spec: SubsystemSpec):
    """Assert that the kernel raises the error of a loop of ``_pt_norm`` calls; return it."""
    lay = ModeLayout(n, ("A",) * n)
    per_call = outcome(lambda: [_pt_norm(FockOperator(lay, m), spec, "fermionic", FLAG_TOL)
                                 for m in states])
    assert isinstance(per_call, tuple)
    assert outcome(lambda: _pt_norms(states, n, spec)) == per_call
    return per_call


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

    @pytest.mark.parametrize("fermionic", [True, False])
    def test_signed_gather(self, n, fermionic):
        stack = _stack(n, n + 30)
        for target in _targets(n):
            spec = SubsystemSpec(target)
            out = _signed_gather(stack, n, spec, fermionic)
            assert out.shape == stack.shape
            assert _bits(out) == _bits([_signed_gather(m, n, spec, fermionic) for m in stack])
            one = _signed_gather(stack[:1], n, spec, fermionic)  # a stack of one keeps its axis
            assert one.shape == stack[:1].shape and _bits(one) == _bits(out[:1])

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


def _kernel_states(n: int, seed: int) -> np.ndarray:
    """Valid states: two exactly Hermitian, one with a Hermiticity residual, one leaky.

    The residual (1e-13) and the parity leak (1e-12) are within FLAG_TOL, so from
    five modes the four members take |eigvalsh| of the blocks, |eigvalsh|, the
    block SVD and the dense SVD.
    """
    rng = np.random.default_rng(seed)
    lay = ModeLayout(n, ("A",) * n)
    mixed, pure = random_density(lay, rng).matrix, random_pure(lay, "even", rng).matrix
    residual, leaky = mixed.copy(), mixed.copy()
    residual[0, 0] += 1e-13j
    leaky[0, 1] += 1e-12  # |0..0> is even, |10..0> odd
    leaky[1, 0] += 1e-12
    return np.stack([mixed, pure, residual, leaky])


def _twin_norm(rho: FockOperator, spec: SubsystemSpec, fermionic: bool) -> float:
    """A norm from five modes as solved before the stacked kernel: ``trace_norm`` of the twin."""
    n = rho.layout.num_modes
    t = _signed_gather(rho.matrix, n, spec, fermionic)
    if fermionic:
        t *= _sign_vector(n, spec.mask())
    twin = FockOperator(rho.layout, t, copy=False)
    twin._flags.update(leak=rho._parity_leak(), herm=rho._hermitian_residual())
    return trace_norm(twin)


@pytest.mark.parametrize("n", range(1, 9))
def test_pt_norms_equal_pt_norm(n):
    states = _kernel_states(n, 70 + n)
    lay = ModeLayout(n, ("A",) * n)
    verdicts, leak, herm = _density_verdicts(states, n, FLAG_TOL)
    assert verdicts.all()
    assert (leak == 0.0).tolist() == [True, True, True, False]
    if n > 1:  # the one-mode Gram keeps an imaginary part of 3e-19 on its diagonal
        assert (herm == 0.0).tolist() == [True, True, False, True]
    targets = [t for t in _targets(n) if t] + [tuple(range(1, n + 1))]
    for target, fermionic in itertools.product(targets, (True, False)):
        spec = SubsystemSpec(target)
        if fermionic and len(target) == n:  # not a proper target
            assert _raises_as_per_call(states, n, spec)[0] is LayoutError
            continue
        flavor = "fermionic" if fermionic else "bosonic"
        ops = [FockOperator(lay, m) for m in states]
        singles = [_pt_norm(op, spec, flavor, FLAG_TOL) for op in ops]
        kernel = _pt_norms(states, n, spec, fermionic, residuals=(leak, herm))
        assert _bits(kernel) == _bits(singles)
        if n >= 5:
            assert _bits([_twin_norm(op, spec, fermionic) for op in ops]) == _bits(singles)
        if fermionic:  # checked by the kernel itself
            assert _bits(_pt_norms(states, n, spec)) == _bits(singles)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_pt_norms_fail_on_a_non_finite_member(n, value):
    states = _kernel_states(n, 80 + n)
    states[2, 0, 0] = value
    with np.errstate(invalid="ignore"):  # inf - inf in the Hermiticity residual
        error = _raises_as_per_call(states, n, SubsystemSpec((1,)))
    assert error == (StateValidationError, "operator is not a unit-trace Hermitian matrix")
    assert len(_pt_norms(states[[0, 1, 3]], n, SubsystemSpec((1,)))) == 3


@pytest.mark.parametrize("n", MODES)
def test_pt_norms_fail_on_an_invalid_member(n):
    # non-Hermitian even operators and Hermitian states with a parity-odd part
    assert _raises_as_per_call(_stack(n, n + 50), n, SubsystemSpec((1,)))[0] is \
        StateValidationError


@pytest.mark.parametrize("n", [5, 6])
def test_block_psd_fails_a_member_alone(n):
    # 2 rho - |psi><psi| is exactly Hermitian, of unit trace and with exact blocks,
    # and its even block has a negative eigenvalue: only the block Cholesky fails it
    states = _kernel_states(n, 90 + n)[:3]
    stack = np.concatenate([states, [2.0 * states[0] - states[1]]])
    lay = ModeLayout(n, ("A",) * n)
    verdicts, leak, herm = _density_verdicts(stack, n, FLAG_TOL)
    assert (leak == 0.0).all() and herm[3] == 0.0
    singles = [FockOperator(lay, m).is_density_matrix() for m in stack]
    assert verdicts.tolist() == singles == [True, True, True, False]
    error = _raises_as_per_call(stack, n, SubsystemSpec((1,)))
    assert error == (StateValidationError, "operator is not positive semi-definite")
    assert len(_pt_norms(states, n, SubsystemSpec((1,)))) == 3


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
