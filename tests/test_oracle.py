"""Dense-diagonalization benchmark: matrix assembly and convergence control."""

import ast
import inspect

import numpy as np
import pytest

import gha.oracle
from gha import ladder
from gha.errors import BudgetExceeded, DomainError
from gha.hartree import OscillatorModel, solve_level
from gha.oracle import (
    SpectrumEstimate,
    TruncatedBasis,
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
    h = full_matrix(m, TruncatedBasis(dimension=32, basis_frequency=1.0))
    assert np.allclose(h, np.diag(np.arange(32) + 0.5), atol=1e-12)


def test_ground_state_diagonal_element():
    h = full_matrix(QUARTIC, TruncatedBasis(dimension=16, basis_frequency=1.0))
    # 1/2 from the free part plus <0|phi^4|0> = 3/4 at omega=1
    assert h[0, 0] == pytest.approx(1.25, abs=1e-13)


def test_band_structure_and_symmetry():
    for power in (4, 6, 8):
        m = OscillatorModel(power=power, g=1.0, lam=0.7)
        for dim in (24, 25):
            basis = TruncatedBasis(dimension=dim, basis_frequency=1.5)
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


def test_basis_validation():
    with pytest.raises(DomainError):
        TruncatedBasis(dimension=8, basis_frequency=1.0)
    with pytest.raises(DomainError):
        TruncatedBasis(dimension=64, basis_frequency=0.0)
    with pytest.raises(DomainError):
        converged_levels(QUARTIC, -1, 1e-7)
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
    assert all(d < 1e-7 for d in est.convergence_error)
    assert all(a < b for a, b in zip(est.levels, est.levels[1:]))
    assert est.dimension_used >= 128 and est.dimension_used % 64 == 0


def test_truncation_levels_decrease_with_dimension():
    # variational interlacing: every retained eigenvalue can only move down
    # when the basis grows
    spectra = []
    for dim in (64, 128, 256):
        h = full_matrix(QUARTIC, TruncatedBasis(dim, 2.0))
        spectra.append(np.linalg.eigvalsh(h)[:10])
    for small, big in zip(spectra, spectra[1:]):
        assert np.all(big <= small + 1e-11)


def test_basis_frequency_independence():
    levels = []
    for freq in (1.0, 2.0, 4.0):
        h = full_matrix(QUARTIC, TruncatedBasis(512, freq))
        levels.append(np.linalg.eigvalsh(h)[:6])
    assert np.allclose(levels[0], levels[1], rtol=0.0, atol=1e-7)
    assert np.allclose(levels[0], levels[2], rtol=0.0, atol=1e-7)


def test_variational_upper_bound():
    grid = [
        OscillatorModel(power=4, g=1.0, lam=0.1),
        OscillatorModel(power=4, g=1.0, lam=1.0),
        OscillatorModel(power=4, g=1.0, lam=10.0),
        OscillatorModel(power=6, g=1.0, lam=1.0),
        OscillatorModel(power=8, g=1.0, lam=1.0),
    ]
    for m in grid:
        exact = converged_levels(m, 0, 1e-8).levels[0]
        assert solve_level(m, 0).energy >= exact - 1e-10


def test_levels_beyond_start_dimension():
    est = converged_levels(QUARTIC, 100, 1e-7)
    assert len(est.levels) == 101
    assert len(est.convergence_error) == 101
    assert est.dimension_used == 512
    assert all(a < b for a, b in zip(est.levels, est.levels[1:]))
    assert est.levels[0] == pytest.approx(0.8037706512, abs=1e-9)


def test_levels_beyond_dimension_budget():
    # from n_max = 2048 on, two spectra holding levels 0..n_max do not fit
    # below the dimension cap, so nothing is built
    for n_max in (2048, 5000):
        with pytest.raises(BudgetExceeded):
            converged_levels(QUARTIC, n_max, 1e-7)


SEXTIC = OscillatorModel(power=6, g=1.0, lam=0.7)
DOUBLE_WELL = OscillatorModel(power=4, g=-1.0, lam=0.1)


def test_unit_power_cache_does_not_change_results():
    cases = [(QUARTIC, 5), (SEXTIC, 3), (DOUBLE_WELL, 12)]
    cold = []
    for model, n_max in cases:
        gha.oracle._unit_power_cache.clear()
        cold.append(converged_levels(model, n_max, 1e-7))
    # warm: each power's bands were grown past the dimensions used (a larger
    # dimension asked first) and another power was built in between
    gha.oracle._unit_power_cache.clear()
    converged_levels(QUARTIC, 100, 1e-7)
    converged_levels(OscillatorModel(power=8, g=1.0, lam=1.0), 0, 1e-7)
    gha.oracle._unit_powers(6, 1000)
    for (model, n_max), estimate in zip(cases, cold):
        assert estimate.dimension_used < 512
        assert converged_levels(model, n_max, 1e-7) == estimate
    # and every matrix element of a cropped band is the one built in place
    for model in (QUARTIC, SEXTIC):
        for dim in (16, 17, 100):
            basis = TruncatedBasis(dim, 1.3)
            warm = full_matrix(model, basis)
            gha.oracle._unit_power_cache.clear()
            assert np.array_equal(full_matrix(model, basis), warm)
            gha.oracle._unit_powers(model.power, 700)


def test_unit_powers_are_read_only():
    gha.oracle._unit_power_cache.clear()
    for x_squared, x_power in [gha.oracle._unit_powers(6, 64),
                               gha.oracle._unit_power_cache[6]]:
        for band in (x_squared, x_power):
            with pytest.raises(ValueError):
                band[0, 0] = 1.0
    x_squared, x_power = gha.oracle._unit_powers(6, 64)
    # only the even offsets are kept: 0, 2 of X̂² and 0, 2, 4, 6 of X̂⁶
    assert x_squared.shape == (2, 64) and x_power.shape == (4, 64)
    # X̂² = 2n + 1 on the diagonal, √((n+1)(n+2)) two above it
    n = np.arange(62)
    assert np.allclose(x_squared[0], 2.0 * np.arange(64) + 1.0, rtol=1e-15, atol=0.0)
    assert np.allclose(x_squared[1, :62], np.sqrt((n + 1) * (n + 2)), rtol=1e-15, atol=0.0)


def test_unit_power_cache_holds_one_entry_per_power():
    gha.oracle._unit_power_cache.clear()
    for power, dim in [(4, 64), (6, 128), (4, 512), (8, 16), (4, 128), (6, 64)]:
        basis = TruncatedBasis(dim, 1.0)
        hamiltonian_matrix(OscillatorModel(power=power, g=1.0, lam=1.0), basis)
    cache = gha.oracle._unit_power_cache
    assert sorted(cache) == [4, 6, 8]
    # each keeps the largest dimension asked for so far
    assert {p: bands[1].shape[1] for p, bands in cache.items()} == {4: 512, 6: 128, 8: 16}


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
            basis = TruncatedBasis(dim, freq)
            h = full_matrix(model, basis)
            ref = ladder_band(model, basis)
            assert np.abs(h - ref).max() <= 1e-13 * np.abs(ref).max()


def test_oracle_does_not_import_ladder():
    tree = ast.parse(inspect.getsource(gha.oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert not any("ladder" in name for name in imported), imported
    assert not hasattr(gha.oracle, "ladder")
    assert not hasattr(gha.oracle, "hamiltonian_polynomial")
