"""Dense-diagonalization benchmark: matrix assembly and the certified bound."""

import ast
import math
import pathlib
import sys
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gha.oracle
from gha import ladder
from gha.errors import BudgetExceeded, DomainError, NonConvergence, NonFiniteValue
from gha.hartree import OscillatorModel, solve_level
from gha.oracle import (
    SpectrumEstimate,
    _TruncatedBasis,
    converged_levels,
    hamiltonian_matrix,
)

from ladder_reference import hamiltonian_polynomial

QUARTIC = OscillatorModel(power=4, g=1.0, lam=1.0)


def full_matrix(model, basis):
    """H on levels 0..N−1, with the even and odd blocks interleaved."""
    even, odd = hamiltonian_matrix(model, basis)
    h = np.zeros((basis.dimension, basis.dimension))
    h[0::2, 0::2] = even
    h[1::2, 1::2] = odd
    return h


def test_nearly_free_oscillator_is_diagonal():
    m = OscillatorModel(power=4, g=1.0, lam=1e-30)
    h = full_matrix(m, _TruncatedBasis(dimension=32, basis_frequency=1.0))
    assert np.allclose(h, np.diag(np.arange(32) + 0.5), atol=1e-12)


def test_ground_state_diagonal_element():
    h = full_matrix(QUARTIC, _TruncatedBasis(dimension=16, basis_frequency=1.0))
    # 1/2 from the free part plus <0|phi^4|0> = 3/4 at omega=1
    assert h[0, 0] == pytest.approx(1.25, abs=1e-13)


def test_band_structure_and_symmetry():
    for power in (4, 6, 8):
        m = OscillatorModel(power=power, g=1.0, lam=0.7)
        for dim in (24, 25):
            basis = _TruncatedBasis(dimension=dim, basis_frequency=1.5)
            # one block on levels 0, 2, 4, …, one on levels 1, 3, 5, …
            even, odd = hamiltonian_matrix(m, basis)
            assert even.shape == ((dim + 1) // 2,) * 2 and odd.shape == (dim // 2,) * 2
            for block in (even, odd):
                assert np.array_equal(block, block.T)
                # offset 2r of H is offset r of its parity block
                assert not np.triu(block, power // 2 + 1).any()
                assert np.all(np.diag(block, power // 2) != 0.0)
            h = full_matrix(m, basis)
            for i in range(dim):
                for j in range(dim):
                    if abs(i - j) > power:
                        assert h[i, j] == 0.0


def dense_blocks(model, n_dim, omega):
    """Both parity blocks of H on levels 0..n_dim−1 from dense numpy
    matrices: X̂ built in dimension n_dim + 2k and raised by matrix_power."""
    size, k = n_dim + model.power, model.k
    x = np.diag(np.sqrt(np.arange(1.0, size)), 1)
    x += x.T
    terms = (np.diag(omega * (np.arange(size) + 0.5)),
             (0.5 * (model.g - omega * omega) / (2.0 * omega)) * (x @ x),
             (model.lam / (2.0 * omega) ** k) * np.linalg.matrix_power(x, 2 * k))
    h = sum(terms)[:n_dim, :n_dim]
    scale = sum(np.abs(term) for term in terms)[:n_dim, :n_dim]
    return [(h[p::2, p::2], scale[p::2, p::2]) for p in (0, 1)]


@pytest.mark.parametrize("power", [4, 6, 8])
def test_small_blocks_match_a_dense_build(power):
    # a parity block no larger than the band's reach k: at N = 5 the sextic
    # odd block was asymmetric and the octic raised ValueError at N = 5..7,
    # because a band offset past the block wrapped around its end
    model = OscillatorModel(power=power, g=0.8, lam=0.37)
    for n_dim in range(1, 2 * power + 4):
        for omega in (0.6, 1.3):
            blocks = hamiltonian_matrix(model, _TruncatedBasis(n_dim, omega))
            for block, (dense, scale) in zip(blocks, dense_blocks(model, n_dim, omega)):
                assert block.shape == dense.shape, (n_dim, omega)
                assert np.array_equal(block, block.T), (n_dim, omega)
                # each element to a few ulp of its terms; a zero stays zero
                assert np.all(np.abs(block - dense) <= 8 * sys.float_info.epsilon * scale)


def test_scatter_indices_are_cached_and_read_only():
    # the block indices the band is scattered to are built once per
    # (power, dimension), in the layout cache, and cannot be written
    gha.oracle._layout.cache_clear()
    for n_dim in (16, 17, 16):
        hamiltonian_matrix(SEXTIC, _TruncatedBasis(n_dim, 1.0))
    assert gha.oracle._layout.cache_info()[:2] == (1, 2)
    destination = gha.oracle._layout(6, 17)[0]
    assert destination is gha.oracle._layout(6, 17)[0]
    with pytest.raises(ValueError):
        destination[0] = 0


@pytest.mark.parametrize("dimension", [0, -3, 2.0, None])
def test_matrix_rejects_a_dimension_that_is_not_a_positive_integer(dimension):
    # 0 and −3 raised a raw numpy ValueError
    with pytest.raises(DomainError, match="dimension must be a positive integer"):
        hamiltonian_matrix(QUARTIC, _TruncatedBasis(dimension, 1.0))


@pytest.mark.parametrize("frequency", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_matrix_rejects_a_frequency_that_is_not_positive_and_finite(frequency):
    # 0 raised ZeroDivisionError, and −1 and NaN returned a matrix
    with pytest.raises(DomainError, match="frequency must be positive and finite"):
        hamiltonian_matrix(QUARTIC, _TruncatedBasis(8, frequency))


def test_matrix_past_the_largest_build_is_over_budget_before_it_allocates():
    # 10**20 raised a raw numpy ValueError from the allocation
    cap = gha.oracle._MAX_DIMENSION + 2 * QUARTIC.k
    for dimension in (cap + 1, 10**20):
        with pytest.raises(BudgetExceeded, match=f"basis dimension {dimension} exceeds {cap}"):
            hamiltonian_matrix(QUARTIC, _TruncatedBasis(dimension, 1.0))


def test_matrix_takes_an_int_frequency_and_a_bool_dimension_as_their_floats_and_ints():
    # an int ω was squared in integers, a raw OverflowError at 10**300, and
    # numpy took no bool for a size
    for got, want in zip(hamiltonian_matrix(QUARTIC, _TruncatedBasis(True, 3)),
                         hamiltonian_matrix(QUARTIC, _TruncatedBasis(1, 3.0))):
        assert got.tobytes() == want.tobytes()
    with pytest.raises(NonFiniteValue, match="leaves floating-point range"):
        hamiltonian_matrix(QUARTIC, _TruncatedBasis(4, 10**300))


@pytest.mark.parametrize("model, frequency", [
    (QUARTIC, 1e-170),  # (2ω)^k underflowed to 0: ZeroDivisionError
    (QUARTIC, 1e160),  # (2ω)^k overflowed: OverflowError
    (OscillatorModel(power=4, g=1e300, lam=1.0), 1e-10),  # blocks of inf and NaN
    (OscillatorModel(power=8, g=1.0, lam=1e307), 0.5),  # finite factors, inf elements
])
def test_matrix_out_of_floating_point_range_is_a_typed_error(model, frequency):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="leaves floating-point range"):
            hamiltonian_matrix(model, _TruncatedBasis(64, frequency))


def test_basis_validation():
    with pytest.raises(DomainError):
        converged_levels(QUARTIC, -1, 1e-7)
    # a float n_max used to fail in math.comb with a bare TypeError
    with pytest.raises(DomainError, match="nonnegative and integral, got 2.0"):
        converged_levels(QUARTIC, 2.0, 1e-7)
    assert converged_levels(QUARTIC, np.int64(2), 1e-7) == converged_levels(QUARTIC, 2, 1e-7)
    for tol in (1e-11, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            converged_levels(QUARTIC, 2, tol)


def test_converged_ground_state_values():
    est = converged_levels(QUARTIC, 0, 1e-8)
    assert est.levels[0] == pytest.approx(0.80377, abs=1e-4)

    weak = converged_levels(OscillatorModel(power=4, g=1.0, lam=0.1), 0, 1e-8)
    assert weak.levels[0] == pytest.approx(0.55915, abs=1e-4)

    dwo = converged_levels(OscillatorModel(power=4, g=-1.0, lam=0.1), 0, 1e-8)
    assert dwo.levels[0] + 0.625 == pytest.approx(0.4702, abs=1e-3)


def test_estimate_bookkeeping():
    est = converged_levels(QUARTIC, 5, 1e-7)
    assert isinstance(est, SpectrumEstimate)
    assert len(est.levels) == 6
    assert len(est.convergence_error) == 6
    assert all(0.0 < d < 1e-7 for d in est.convergence_error)
    assert all(a < b for a, b in zip(est.levels, est.levels[1:]))
    # the a priori ⌊(3·5 + 1)/2⌋ + 9·2 + 4 = 30 certifies at the first solve
    assert est.dimension_used == 30


def test_truncation_levels_decrease_with_dimension():
    # variational interlacing: every retained eigenvalue can only move down
    # when the basis grows
    spectra = []
    for dim in (64, 128, 256):
        h = full_matrix(QUARTIC, _TruncatedBasis(dim, 2.0))
        spectra.append(np.linalg.eigvalsh(h)[:10])
    for small, big in zip(spectra, spectra[1:]):
        assert np.all(big <= small + 1e-11)


def test_basis_frequency_independence():
    levels = []
    for freq in (1.0, 2.0, 4.0):
        h = full_matrix(QUARTIC, _TruncatedBasis(512, freq))
        levels.append(np.linalg.eigvalsh(h)[:6])
    assert np.allclose(levels[0], levels[1], rtol=0.0, atol=1e-7)
    assert np.allclose(levels[0], levels[2], rtol=0.0, atol=1e-7)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([(4, 1.0), (6, 1.0), (8, 1.0), (4, -1.0)]),
       st.floats(-1.0, 1.0), st.floats(-2.0, 3.0))
@example((4, 1.0), 0.0, -1.0)
@example((4, 1.0), 0.0, 0.0)
@example((4, 1.0), 0.0, 1.0)
@example((6, 1.0), 0.0, 0.0)
@example((8, 1.0), 0.0, 0.0)
@example((4, -1.0), 1.0, -2.0)  # the deepest well, certified at N = 900
def test_variational_upper_bound(kind, log_g, log_lam):
    # Rayleigh–Ritz: the n = 0 Hartree energy is ⟨0|H|0⟩ in a Gaussian state,
    # so it lies above the exact ground state, here the oracle's level 0 less
    # its bound, on every phase and power the solver admits
    power, sign = kind
    model = OscillatorModel(power=power, g=sign * 10.0**log_g, lam=10.0**log_lam)
    energy = solve_level(model, 0).energy
    estimate = converged_levels(model, 0, 1e-8)
    floor = estimate.levels[0] - estimate.convergence_error[0]
    assert energy >= floor - 4 * sys.float_info.epsilon * abs(energy), (model, energy, estimate)


def test_a_tunnelling_doublet_is_labelled_by_parity():
    # a doublet narrower than its bounds: level n is Ritz value n // 2 of the
    # block of parity n mod 2, with that pair's own bound, even where the odd
    # value is the lower one; a sort put the odd value and bound at level 0
    model = OscillatorModel(power=4, g=-13.603196993840806, lam=0.38788182013096106)
    estimate = converged_levels(model, 2, 1e-5)
    k, n_dim = model.k, estimate.dimension_used
    omega = solve_level(model, 2 + 2 * k).omega
    blocks = hamiltonian_matrix(model, _TruncatedBasis(n_dim + 2 * k, omega))
    ritz = [np.linalg.eigvalsh(block[: n_dim // 2, : n_dim // 2]) for block in blocks]
    for n, level in enumerate(estimate.levels):
        assert level == pytest.approx(ritz[n % 2][n // 2], rel=1e-13, abs=0.0), n
    (first, second, _), (bound_first, bound_second, _) = (estimate.levels,
                                                          estimate.convergence_error)
    assert second < first
    assert abs(first - second) < min(bound_first, bound_second)


def test_levels_beyond_start_dimension():
    est = converged_levels(QUARTIC, 100, 1e-7)
    assert len(est.levels) == 101
    assert len(est.convergence_error) == 101
    assert all(0.0 < d < 1e-7 for d in est.convergence_error)
    assert est.dimension_used == 172
    assert all(a < b for a, b in zip(est.levels, est.levels[1:]))
    assert est.levels[0] == pytest.approx(0.8037706512, abs=1e-9)


def test_levels_beyond_dimension_budget():
    # from n_max = 2717 on, the a priori dimension of the quartic passes the
    # cap, so nothing is solved or built
    with mock.patch.object(gha.oracle, "hamiltonian_matrix") as build, \
            mock.patch.object(gha.oracle, "solve_level") as solve:
        for n_max in (2717, 5000):
            with pytest.raises(BudgetExceeded):
                converged_levels(QUARTIC, n_max, 1e-7)
    assert not build.called and not solve.called
    # a deep double well certifies only at dimension 294, after growing past
    # a smaller cap
    deep = OscillatorModel(power=4, g=-1.0, lam=1e-3)
    assert converged_levels(deep, 0, 1e-7).dimension_used == 294
    with mock.patch.object(gha.oracle, "_MAX_DIMENSION", 256):
        with pytest.raises(BudgetExceeded):
            converged_levels(deep, 0, 1e-7)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(4, 1.0), (4, -1.0), (6, 1.0), (8, 1.0)]),
       st.floats(-2.0, 4.0), st.integers(0, 40))
def test_bound_covers_a_run_at_twice_the_dimension(kind, log_lam, n_max):
    power, g = kind
    model = OscillatorModel(power=power, g=g, lam=10.0**log_lam)
    est = converged_levels(model, n_max, 1e-7)
    # the same solve at twice the dimension, under a tol loose enough that its
    # own rounding floor, which grows with the dimension, cannot stop it
    with mock.patch.object(gha.oracle, "_start_dimension",
                           lambda n, k: 2 * est.dimension_used):
        ref = converged_levels(model, n_max, 1e-5)
    assert ref.dimension_used == 2 * est.dimension_used
    for a, b, bound, ref_bound in zip(est.levels, ref.levels, est.convergence_error,
                                      ref.convergence_error):
        assert math.isfinite(bound) and 0.0 < bound < 1e-7
        assert abs(a - b) <= bound + ref_bound, (model, n_max)


def mpmath_blocks(model, n_dim, omega):
    """Both parity blocks of H on levels 0..n_dim−1, in mpmath, from
    X̂|n⟩ = √n|n−1⟩ + √(n+1)|n+1⟩ applied in the untruncated basis."""
    w, k = mp.mpf(omega), model.k
    x_squared, x_power = {}, {}
    for n in range(n_dim):
        vector = {n: mp.mpf(1)}
        for p in range(1, 2 * k + 1):
            applied = {}
            for j, c in vector.items():
                if j:
                    applied[j - 1] = applied.get(j - 1, 0) + mp.sqrt(j) * c
                applied[j + 1] = applied.get(j + 1, 0) + mp.sqrt(j + 1) * c
            vector = applied
            if p == 2:
                x_squared[n] = vector
        x_power[n] = vector
    quadratic = (mp.mpf(model.g) - w * w) / (4 * w)
    quartic = mp.mpf(model.lam) / (2 * w) ** k
    blocks = []
    for parity in (0, 1):
        levels = range(parity, n_dim, 2)
        block = mp.matrix(len(levels), len(levels))
        for a, m in enumerate(levels):
            for b, n in enumerate(levels):
                block[a, b] = (quadratic * x_squared[n].get(m, 0)
                               + quartic * x_power[n].get(m, 0)
                               + (w * (n + mp.mpf(0.5)) if m == n else 0))
        blocks.append(block)
    return blocks


@pytest.mark.parametrize("model, n_max", [
    (OscillatorModel(power=4, g=1.0, lam=1.0), 12),
    (OscillatorModel(power=4, g=-1.0, lam=0.1), 8),
    (OscillatorModel(power=6, g=1.0, lam=50.0), 6),
    (OscillatorModel(power=8, g=1.0, lam=1e3), 0),
])
def test_ritz_values_match_an_mpmath_diagonalization(model, n_max):
    # the numpy Ritz values at the dimension used agree with a 30-digit
    # diagonalization of the same truncation to within the stated rounding
    # floor 8k·ε·max|H|
    est = converged_levels(model, n_max, 1e-7)
    assert 34 <= est.dimension_used <= 40
    omega = solve_level(model, n_max + 2 * model.k).omega
    with mp.workdps(30):
        blocks = mpmath_blocks(model, est.dimension_used, omega)
        scale = max(abs(block[a, b]) for block in blocks
                    for a in range(block.rows) for b in range(block.cols))
        exact = sorted(e for block in blocks for e in mp.eigsy(block, eigvals_only=True))
        floor = 8 * model.k * sys.float_info.epsilon * float(scale)
        for ritz, reference in zip(est.levels, exact[: n_max + 1]):
            assert abs(ritz - reference) <= floor, (ritz, reference, floor)


def test_cli_ranges_certify_at_the_first_solve():
    # the ranges the `gha oracle` benchmark draws: one solve at the a priori
    # dimension certifies every level at the default tol
    for power in (4, 6, 8):
        for lam in (1e-2, 1.0, 1e2, 1e4):
            model = OscillatorModel(power=power, g=1.0, lam=lam)
            for n_max in (0, 5, 20, 40):
                est = converged_levels(model, n_max, 1e-7)
                assert len(est.levels) == len(est.convergence_error) == n_max + 1
                assert all(0.0 < d < 1e-7 for d in est.convergence_error)
                assert est.dimension_used == gha.oracle._start_dimension(n_max, model.k)


def test_rounding_floor_stops_growth():
    # at λ = 1e4 the floor 8k·ε·max|H| passes 1e-10 at the first octic
    # dimension and after two growth steps of the sextic one; the oracle stops
    # there instead of growing into noise
    builds = []
    real_build = gha.oracle.hamiltonian_matrix

    def build(model, basis):
        builds.append((model.power, basis.dimension))
        return real_build(model, basis)

    with mock.patch.object(gha.oracle, "hamiltonian_matrix", build):
        for power in (6, 8):
            with pytest.raises(NonConvergence, match="rounding floor"):
                converged_levels(OscillatorModel(power=power, g=1.0, lam=1e4), 0, 1e-10)
    # each build is the dimension N plus the 2k residual rows
    assert builds == [(6, 38), (6, 46), (6, 56), (8, 48)]


SEXTIC = OscillatorModel(power=6, g=1.0, lam=0.7)
DOUBLE_WELL = OscillatorModel(power=4, g=-1.0, lam=0.1)


def test_layout_cache_does_not_change_results():
    cases = [(QUARTIC, 5), (SEXTIC, 3), (DOUBLE_WELL, 12)]
    cold = []
    for model, n_max in cases:
        gha.oracle._layout.cache_clear()
        cold.append(converged_levels(model, n_max, 1e-7))
    # warm: every case's layouts were built before, with other powers and
    # dimensions built in between
    gha.oracle._layout.cache_clear()
    for model, n_max in cases:
        converged_levels(model, n_max, 1e-7)
    converged_levels(OscillatorModel(power=8, g=1.0, lam=1.0), 0, 1e-7)
    for (model, n_max), estimate in zip(cases, cold):
        assert converged_levels(model, n_max, 1e-7) == estimate
    # and every matrix element built from a cached layout is the one built cold
    for model in (QUARTIC, SEXTIC):
        for dim in (16, 17, 100):
            basis = _TruncatedBasis(dim, 1.3)
            warm = full_matrix(model, basis)
            gha.oracle._layout.cache_clear()
            assert np.array_equal(full_matrix(model, basis), warm)


def layout_term(power, n_dim, term):
    """Term 1 (X̂²), 2 (X̂^{2k}) or 3 (the levels) of the cached layout as
    an n_dim×n_dim matrix."""
    layout = gha.oracle._layout(power, n_dim)
    m = (n_dim + 1) // 2
    blocks = np.zeros((2, m, m))
    blocks.reshape(-1)[layout[0]] = layout[term]
    h = np.zeros((n_dim, n_dim))
    h[0::2, 0::2] = blocks[0]
    h[1::2, 1::2] = blocks[1, : n_dim // 2, : n_dim // 2]
    return h


def test_layout_is_read_only():
    gha.oracle._layout.cache_clear()
    destination, *terms = gha.oracle._layout(6, 64)
    for array in (destination, *terms):
        assert array.shape == destination.shape
        with pytest.raises(ValueError):
            array[0] = 1
    # each element of the blocks at most once, in ascending order
    assert np.all(np.diff(destination) > 0)
    # X̂² = 2n + 1 on the diagonal, √((n+1)(n+2)) two off it, 0 elsewhere
    n = np.arange(62)
    above = np.diag(np.sqrt((n + 1) * (n + 2)), 2)
    x_squared = np.diag(2.0 * np.arange(64) + 1.0) + above + above.T
    assert np.allclose(layout_term(6, 64, 1), x_squared, rtol=1e-15, atol=0.0)
    # X̂⁶ is the dense power of X̂ built in dimension N + 3, and n + ½ the levels
    x = np.diag(np.sqrt(np.arange(1.0, 67)), 1)
    dense = np.linalg.matrix_power(x + x.T, 6)[:64, :64]
    assert np.allclose(layout_term(6, 64, 2), dense, rtol=1e-14, atol=0.0)
    assert np.array_equal(layout_term(6, 64, 3), np.diag(np.arange(64) + 0.5))


def test_unit_power_cache_holds_one_entry_per_power():
    # X̂² and X̂^{2k} hold no ω, g or λ: at one dimension, every model and
    # frequency of a power shares that power's one cached entry
    gha.oracle._layout.cache_clear()
    for power in (4, 6, 8):
        for g, lam, freq in [(1.0, 1.0, 1.0), (-1.0, 0.1, 2.5), (0.3, 7.0, 0.4)]:
            hamiltonian_matrix(OscillatorModel(power=power, g=g, lam=lam),
                               _TruncatedBasis(64, freq))
    info = gha.oracle._layout.cache_info()
    assert (info.hits, info.misses, info.currsize) == (6, 3, 3)


def test_layout_cache_holds_one_entry_per_power_and_dimension():
    gha.oracle._layout.cache_clear()
    builds = [(4, 64, 1.0), (6, 128, 1.0), (4, 512, 1.0), (8, 16, 1.0), (4, 128, 1.0),
              (6, 64, 1.0), (4, 64, 2.5), (6, 128, 0.3), (8, 16, 1.0)]
    for power, dim, freq in builds:
        hamiltonian_matrix(OscillatorModel(power=power, g=1.0, lam=1.0),
                           _TruncatedBasis(dim, freq))
    # the frequency is not part of the key
    info = gha.oracle._layout.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 6, 6)
    # nor are g and λ, and an integer dimension of another type finds the same entry
    hamiltonian_matrix(DOUBLE_WELL, _TruncatedBasis(np.int64(64), 1.0))
    assert gha.oracle._layout.cache_info()[:2] == (4, 6)


def ladder_band(model, basis):
    """The band of H from the normal-ordered ladder algebra, element by element."""
    mode = ladder.ModeParameters(omega=basis.basis_frequency, sigma=0.0)
    poly = hamiltonian_polynomial(model, mode)
    n_dim = basis.dimension
    h = np.zeros((n_dim, n_dim))
    for n in range(n_dim):
        for m in range(n, min(n_dim, n + model.power + 1)):
            h[m, n] = h[n, m] = ladder.matrix_element(poly, m, n)
    return h


@pytest.mark.parametrize("model", [
    OscillatorModel(power=4, g=1.0, lam=1.0),
    OscillatorModel(power=4, g=-1.0, lam=0.3),
    OscillatorModel(power=6, g=1.0, lam=0.7),
    OscillatorModel(power=8, g=1.0, lam=0.05),
])
def test_matrix_agrees_with_ladder_algebra(model):
    # the oracle builds H from numpy X alone; the ladder algebra, kept as the
    # tests' independent reference, must give the same band, and its elements
    # between levels of opposite parity, which the blocks leave out, must vanish
    for dim in (16, 17, 64, 256):
        for freq in (0.5, 1.0, 2.7):
            basis = _TruncatedBasis(dim, freq)
            h = full_matrix(model, basis)
            ref = ladder_band(model, basis)
            assert np.abs(h - ref).max() <= 1e-13 * np.abs(ref).max()


def test_only_the_h_prime_reference_imports_ladder():
    # the oracle shares no code with the ladder algebra it is checked
    # against, and only `gha.hipt`, for the `build_h_prime` reference,
    # uses it at all.  Nor does it share the H′ column's cached X̂ powers:
    # neither of `gha.oracle` and `gha.hipt` imports the other
    imports = {}
    for path in sorted(pathlib.Path(gha.__file__).parent.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
        imports[path.stem] = imported
    importers = {stem for stem, names in imports.items()
                 if any("ladder" in name for name in names)}
    assert importers == {"hipt"}, importers
    assert not any("hipt" in name for name in imports["oracle"]), imports["oracle"]
    assert not any("oracle" in name for name in imports["hipt"]), imports["hipt"]
    assert not hasattr(gha.oracle, "ladder")
    assert not hasattr(gha.oracle, "hamiltonian_polynomial")
