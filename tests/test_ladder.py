import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gha.errors import DomainError
from gha.ladder import (ModeParameters, NormalOrderedPolynomial, ONE, ZERO,
                        constant, expectation, field_power, matrix_element,
                        momentum_squared, multiply)


def ladder_matrix(dim):
    b = np.zeros((dim, dim))
    for n in range(1, dim):
        b[n - 1, n] = math.sqrt(n)
    return b


def poly_matrix(poly, dim=40):
    b = ladder_matrix(dim)
    bd = b.T
    out = np.zeros((dim, dim))
    for (i, j), c in poly.terms.items():
        out += c * (np.linalg.matrix_power(bd, i) @ np.linalg.matrix_power(b, j))
    return out


def test_b_times_bdagger_is_number_plus_one():
    b = NormalOrderedPolynomial({(0, 1): 1.0})
    bd = NormalOrderedPolynomial({(1, 0): 1.0})
    assert multiply(b, bd) == NormalOrderedPolynomial({(1, 1): 1.0, (0, 0): 1.0})


def test_quadrature_squared():
    q = NormalOrderedPolynomial({(1, 0): 1.0, (0, 1): 1.0})
    sq = multiply(q, q)
    assert sq == NormalOrderedPolynomial(
        {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0, (0, 0): 1.0})


def test_quartic_ground_state_moment():
    q = NormalOrderedPolynomial({(1, 0): 1.0, (0, 1): 1.0})
    sq = multiply(q, q)
    quart = multiply(sq, sq)
    assert expectation(quart, 0) == pytest.approx(3.0, rel=1e-14)
    # same number from the brute-force 10-dimensional representation
    m = poly_matrix(q, 10)
    assert (np.linalg.matrix_power(m, 4))[0, 0] == pytest.approx(3.0)


def test_field_power_trivial_cases():
    mode = ModeParameters(omega=1.7, sigma=0.3)
    assert field_power(0, mode) == ONE
    assert field_power(0, mode).degree == 0
    with pytest.raises(DomainError):
        field_power(-1, mode)


def test_field_square_expectation():
    # <phi^2> = sigma^2 + xi/omega
    mode = ModeParameters(omega=2.0, sigma=0.0)
    assert expectation(field_power(2, mode), 0) == pytest.approx(0.25, rel=1e-14)


def test_field_fourth_expectation():
    mode = ModeParameters(omega=1.0, sigma=0.0)
    assert expectation(field_power(4, mode), 0) == pytest.approx(0.75, rel=1e-14)
    mode = ModeParameters(omega=2.0, sigma=1.0)
    assert expectation(field_power(4, mode), 0) == pytest.approx(2.6875, rel=1e-14)


def test_momentum_squared_diagonal():
    assert expectation(momentum_squared(ModeParameters(1.0)), 0) == pytest.approx(0.5)
    assert expectation(momentum_squared(ModeParameters(2.0)), 1) == pytest.approx(3.0)


def test_momentum_squared_off_diagonal():
    p2 = momentum_squared(ModeParameters(1.0))
    assert matrix_element(p2, 2, 0) == pytest.approx(-1.0 / math.sqrt(2), rel=1e-14)


def test_single_field_matrix_element():
    phi = field_power(1, ModeParameters(1.0))
    assert matrix_element(phi, 1, 0) == pytest.approx(1.0 / math.sqrt(2), rel=1e-14)


def test_quartic_field_matrix_elements():
    phi4 = field_power(4, ModeParameters(2.0))
    assert matrix_element(phi4, 4, 0) == pytest.approx(math.sqrt(6) / 8, rel=1e-13)
    assert matrix_element(phi4, 2, 0) == pytest.approx(3 * math.sqrt(2) / 8, rel=1e-13)


def test_cubic_expectation():
    mode = ModeParameters(omega=1.0, sigma=1.0)
    assert expectation(field_power(3, mode), 0) == pytest.approx(2.5, rel=1e-14)


def test_mean_field_is_sigma():
    for omega, sigma, n in ((1.0, 0.7, 0), (3.2, -1.1, 5), (0.4, 2.0, 17)):
        phi = field_power(1, ModeParameters(omega, sigma))
        assert expectation(phi, n) == pytest.approx(sigma, rel=1e-14)


def test_closed_form_moments_random():
    rng = np.random.default_rng(20140917)
    for _ in range(100):
        omega = float(rng.uniform(0.1, 10.0))
        sigma = float(rng.uniform(-2.0, 2.0))
        n = int(rng.integers(0, 31))
        xi = n + 0.5
        mode = ModeParameters(omega, sigma)
        m2 = sigma**2 + xi / omega
        m3 = sigma**3 + 3 * sigma * xi / omega
        m4 = sigma**4 + 6 * sigma**2 * xi / omega + 3 * (1 + 4 * xi**2) / (8 * omega**2)
        assert expectation(field_power(2, mode), n) == pytest.approx(m2, rel=1e-12)
        assert expectation(field_power(3, mode), n) == pytest.approx(m3, rel=1e-12, abs=1e-12)
        assert expectation(field_power(4, mode), n) == pytest.approx(m4, rel=1e-12)


def test_hermiticity_of_observables():
    mode = ModeParameters(omega=1.3, sigma=0.6)
    for poly in (field_power(2, mode), field_power(3, mode),
                 field_power(4, mode), momentum_squared(mode)):
        for m in range(0, 21, 4):
            for n in range(0, 21, 3):
                assert matrix_element(poly, m, n) == pytest.approx(
                    matrix_element(poly, n, m), abs=1e-10)


def test_band_structure():
    mode = ModeParameters(omega=0.9, sigma=0.5)
    phi3 = field_power(3, mode)
    assert matrix_element(phi3, 7, 0) == 0.0
    assert matrix_element(phi3, 0, 9) == 0.0
    # parity: even powers at sigma=0 connect only even offsets
    phi4 = field_power(4, ModeParameters(1.1))
    assert matrix_element(phi4, 1, 0) == 0.0
    assert matrix_element(phi4, 3, 0) == 0.0
    assert matrix_element(phi4, 2, 0) != 0.0


def test_large_level_stays_finite():
    phi2 = field_power(2, ModeParameters(1.0))
    v = matrix_element(phi2, 102, 100)
    assert math.isfinite(v) and v > 0.0
    assert expectation(phi2, 100) == pytest.approx(100.5, rel=1e-13)


def test_polynomial_canonicalization():
    p = NormalOrderedPolynomial({(0, 0): 1.0, (1, 1): 0.0})
    assert (1, 1) not in p.terms
    assert p == ONE
    assert ZERO.degree == 0 and not ZERO.terms
    with pytest.raises(DomainError):
        NormalOrderedPolynomial({(-1, 0): 1.0})


def test_polynomial_arithmetic():
    a = NormalOrderedPolynomial({(1, 0): 2.0, (0, 0): 1.0})
    b = NormalOrderedPolynomial({(1, 0): -2.0})
    assert (a + b) == ONE
    assert (a - a) == ZERO
    assert a.scale(0.5).coefficient(1, 0) == 1.0
    assert a.coefficient(3, 3) == 0.0
    assert constant(2.0).coefficient(0, 0) == 2.0
    assert hash(a) == hash(NormalOrderedPolynomial({(0, 0): 1.0, (1, 0): 2.0}))


def test_mode_parameter_validation():
    with pytest.raises(DomainError):
        ModeParameters(omega=0.0)
    with pytest.raises(DomainError):
        ModeParameters(omega=-1.0)
    with pytest.raises(DomainError):
        ModeParameters(omega=float("nan"))
    with pytest.raises(DomainError):
        ModeParameters(omega=1.0, sigma=float("inf"))
    # an int past float range raised a raw OverflowError from math.isfinite
    with pytest.raises(DomainError, match="mode frequency must be positive"):
        ModeParameters(omega=10**400)
    with pytest.raises(DomainError, match="mode shift must be finite"):
        ModeParameters(omega=1.0, sigma=10**400)


_term_keys = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
    lambda k: k[0] + k[1] <= 4)
_polys = st.dictionaries(
    _term_keys,
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6,
).map(NormalOrderedPolynomial)


def _magnitude(poly):
    return NormalOrderedPolynomial({key: abs(c) for key, c in poly.terms.items()})


def _unit(poly):
    return NormalOrderedPolynomial({key: 1.0 for key in poly.terms})


@settings(max_examples=60, deadline=None)
@given(_polys, _polys)
# elements near 6.3e5, where abs=1e-10 was below one ulp and this failed
@example(NormalOrderedPolynomial({(3, 1): 2.0, (4, 0): 2.0}),
         NormalOrderedPolynomial({(3, 1): 2.0, (4, 0): 1.75}))
# 5e-301 was dropped as dust below 1e-300, 1e-290 off the matrix product
@example(NormalOrderedPolynomial({(0, 0): 0.5}), NormalOrderedPolynomial({(0, 0): 1e-300}))
def test_multiply_matches_matrix_product(p, q):
    prod = multiply(p, q)
    ref = poly_matrix(p) @ poly_matrix(q)
    # a few ulp of the scale of each element's terms, the same product with
    # |coefficients|, plus a few subnormal ulps of the same product with unit
    # coefficients, for a term that rounds below the normal range and is
    # then multiplied by its ladder factors
    scale = poly_matrix(_magnitude(p)) @ poly_matrix(_magnitude(q))
    unit = poly_matrix(_unit(p)) @ poly_matrix(_unit(q))
    for m in range(0, 21, 5):
        for n in range(0, 21, 7):
            assert matrix_element(prod, m, n) == pytest.approx(
                ref[m, n], rel=0.0,
                abs=64 * sys.float_info.epsilon * scale[m, n] + 8 * 5e-324 * unit[m, n])
