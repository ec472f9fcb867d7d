"""Quasiparticle vacuum content of the Hartree ground state."""

import math

import numpy as np
import pytest

from gha.errors import DomainError, NonFiniteValue
from gha.hartree import OscillatorModel
from gha.vacuum import (
    loglog_slope,
    strong_coupling_scaling,
    vacuum_structure,
)


def test_free_vacuum_is_empty():
    v = vacuum_structure(1.0)
    assert v.alpha == 0.0
    assert v.n0 == 0.0
    assert v.u == 0.0


def test_omega_two_reference_point():
    v = vacuum_structure(2.0)
    # n0 = (omega + 1/omega - 2)/4 = (2 + 0.5 - 2)/4 exactly representable
    assert v.n0 == 0.125
    assert v.u == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert v.alpha == pytest.approx(-0.5 * math.log(2.0), rel=1e-15)


def test_squeeze_symmetry_under_inversion():
    for w in (0.03, 0.4, 2.0, 17.0, 450.0):
        a, b = vacuum_structure(w), vacuum_structure(1.0 / w)
        assert a.n0 == pytest.approx(b.n0, rel=1e-12)
        assert a.alpha == pytest.approx(-b.alpha, rel=1e-12)
        assert a.u == pytest.approx(-b.u, rel=1e-12)


def test_bogoliubov_identity():
    rng = np.random.default_rng(19)
    omegas = 10.0 ** rng.uniform(-3.0, 3.0, size=1000)
    for w in omegas:
        v = vacuum_structure(w)
        c, s = math.cosh(v.alpha), math.sinh(v.alpha)
        assert c * c - s * s == pytest.approx(1.0, rel=1e-12)
        # the closed form for n0 cancels near omega = 1, so allow a tiny
        # absolute floor on top of the relative check
        assert v.n0 == pytest.approx(s * s, rel=1e-12, abs=1e-15)
        assert v.u == pytest.approx(math.tanh(v.alpha), rel=1e-12, abs=1e-15)


def test_vacuum_structure_rejects_bad_frequency():
    for w in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            vacuum_structure(w)


def test_scan_validation():
    with pytest.raises(DomainError):
        strong_coupling_scaling(1.0, [50.0, 200.0])
    with pytest.raises(DomainError):
        strong_coupling_scaling(1.0, [])
    # the scan is of the quartic AHO, so g must be positive and finite
    for g in (0.0, -1.0, math.inf, math.nan, 10**400):
        with pytest.raises(DomainError, match="quartic AHO, g > 0, got"):
            strong_coupling_scaling(g, [1e3])
    with pytest.raises(DomainError):
        loglog_slope([(1e3, 0.5)])
    with pytest.raises(DomainError):
        loglog_slope([(1e3, 0.5), (1e3, 0.7)])
    # an int past float range passed `0.0 < v < math.inf` and gave a slope
    for bad in (0.0, -1.0, math.inf, math.nan, 10**400):
        with pytest.raises(DomainError):
            loglog_slope([(1e3, 0.5), (1e4, bad)])
        with pytest.raises(DomainError):
            loglog_slope([(bad, 0.5), (1e4, 0.7)])


def test_slope_matches_numpy_polyfit_on_random_samples():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        size = int(rng.integers(2, 40))
        lams = 10.0 ** rng.uniform(-3.0, 10.0, size)
        n0s = 10.0 ** rng.uniform(-10.0, 5.0, size)
        reference = np.polyfit(np.log(lams), np.log(n0s), 1)[0]
        assert abs(loglog_slope(list(zip(lams, n0s))) - reference) <= 1e-11


def test_slope_matches_numpy_polyfit_on_strong_coupling_scans():
    # the windows acceptance criterion 9 fits
    windows = [(1e3, 1e5), (1e6, 1e8), (1e8, 1e10)]
    windows += [(10.0**e, 10.0 ** (e + 1)) for e in range(3, 10)]
    for lo, hi in windows:
        samples = strong_coupling_scaling(1.0, np.geomspace(lo, hi, 21))
        lams, n0s = zip(*samples)
        reference = np.polyfit(np.log(lams), np.log(n0s), 1)[0]
        assert loglog_slope(samples) == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_occupation_grows_with_coupling():
    lams = np.geomspace(100.0, 1e6, 25)
    samples = strong_coupling_scaling(1.0, lams)
    assert [s[0] for s in samples] == pytest.approx(list(lams))
    n0 = [s[1] for s in samples]
    assert all(b > a for a, b in zip(n0, n0[1:]))


def test_top_decade_slope():
    samples = strong_coupling_scaling(1.0, np.geomspace(1e4, 1e5, 11))
    slope = loglog_slope(samples)
    assert 0.32 <= slope <= 0.35


def test_slope_converges_to_one_third_from_above():
    # n0 ~ lambda^(1/3) up to a subleading term that decays slowly, so any
    # finite window overshoots 1/3 and wider windows overshoot more
    wide = loglog_slope(strong_coupling_scaling(1.0, np.geomspace(1e3, 1e5, 21)))
    top = loglog_slope(strong_coupling_scaling(1.0, np.geomspace(1e4, 1e5, 11)))
    far = loglog_slope(strong_coupling_scaling(1.0, np.geomspace(1e9, 1e10, 11)))
    assert 0.33 < wide < 0.36
    assert top < wide
    assert abs(far - 1.0 / 3.0) < 1e-3


def test_weak_coupling_vacuum_empties():
    from gha.hartree import solve_level

    m = OscillatorModel(power=4, g=1.0, lam=1e-6)
    v = vacuum_structure(solve_level(m, 0).omega)
    assert v.n0 < 1e-10
    assert v.n0 > 0.0


def test_occupation_monotone_in_coupling():
    prev = 0.0
    from gha.hartree import solve_level

    for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
        m = OscillatorModel(power=4, g=1.0, lam=lam)
        n0 = vacuum_structure(solve_level(m, 0).omega).n0
        assert n0 > prev
        prev = n0


def test_condensate_density_past_float_range_is_non_finite():
    # 1/ω overflows, and n0 was returned as inf
    with pytest.raises(NonFiniteValue, match="^condensate density at omega 5e-324 leaves"):
        vacuum_structure(5e-324)


def test_omega_too_large_for_a_float_is_a_domain_error():
    with pytest.raises(DomainError, match="omega"):
        vacuum_structure(10**400)


@pytest.mark.parametrize("big, message", [
    (10**400, "coupling must be positive, got inf"),
    (-10**400, "require lambda >= 100"),
], ids=["positive", "negative"])
def test_scan_coupling_too_large_for_a_float_is_that_of_an_infinite_float(big, message):
    # float(10**400) raised a raw OverflowError; the int now gets the
    # DomainError, message and all, of the infinite float of its sign
    for lam in (big, math.inf if big > 0 else -math.inf):
        with pytest.raises(DomainError, match=message):
            strong_coupling_scaling(1.0, [1e3, lam])
