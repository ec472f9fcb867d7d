"""Gaussian effective potential of the λφ⁴ field theory in 3+1 dimensions."""

import math
import re
import sys

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gha.errors import DomainError, GhaError, NonFiniteValue
from gha.qft import (
    FieldTheory,
    GapState,
    RenormalizedParams,
    _cutoff_integrals,
    _k1_scaled,
    effective_potential,
    renormalized,
    solve_mass_gap,
    static_potential,
    stevenson,
)

FOUR_PI2 = 4.0 * math.pi**2
THEORY = FieldTheory(m2=1.0, lam=0.1, cutoff=10.0)


def quad_integral(n, M2, cutoff):
    """½ ∫ d³k/(2π)³ (k²+M²)^{n−1/2} by adaptive quadrature."""
    val, err = scipy.integrate.quad(
        lambda k: k * k * (k * k + M2) ** (n - 0.5), 0.0, cutoff, limit=200
    )
    return val / FOUR_PI2


def test_cutoff_integrals_match_quadrature():
    assert stevenson(0, 1.0, 10.0) == pytest.approx(1.2348586794693273, rel=1e-13)
    for n in (-1, 0, 1):
        for M2, cutoff in ((1.0, 10.0), (2.0, 50.0), (0.25, 5.0), (30.0, 200.0)):
            assert stevenson(n, M2, cutoff) == pytest.approx(
                quad_integral(n, M2, cutoff), rel=1e-9
            )


def test_cutoff_integral_validation():
    with pytest.raises(DomainError):
        stevenson(2, 1.0, 10.0)
    with pytest.raises(DomainError):
        stevenson(0, -1.0, 10.0)
    with pytest.raises(DomainError):
        stevenson(0, 1.0, 0.0)
    for M2, cutoff in ((math.inf, 10.0), (1.0, math.inf), (math.nan, 10.0),
                       (1.0, math.nan)):
        with pytest.raises(DomainError):
            stevenson(0, M2, cutoff)
    with pytest.raises(NonFiniteValue):
        stevenson(1, 1.0, 1e300)  # (Λ² + M²)^{3/2} overflows


def mp_integral(n, M2, cutoff):
    """I_n in 40 digits from ∫₀^t x²(1+x²)^{n−½} dx = (t³/3)·₂F₁(½−n, 3/2; 5/2; −t²),
    t = Λ/M, a form with no cancellation at any t."""
    with mp.workdps(40):
        mass = mp.sqrt(mp.mpf(M2))
        t = mp.mpf(cutoff) / mass
        series = mp.hyp2f1(mp.mpf(1) / 2 - n, mp.mpf(3) / 2, mp.mpf(5) / 2, -t * t)
        return mass ** (2 * n + 2) * t**3 / 3 * series / (4 * mp.pi**2)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_cutoff_integrals_match_mpmath_from_light_to_heavy_mass(n):
    # Λ/M from 1e3 down through the heavy-mass switch at ½ to 1e-40; at
    # M² = 1.2e20, Λ = 10 the closed forms alone give I₀ = 60.19, not 7.7e-10
    for ratio in (1e3, 2.0, 0.5, 0.4999, 0.1, 1e-3, 1e-8, 1e-40):
        for M2 in (1e-6, 1.0, 37.0, 1.2e20):
            cutoff = ratio * math.sqrt(M2)
            exact = mp_integral(n, M2, cutoff)
            assert abs(stevenson(n, M2, cutoff) / exact - 1) <= 5e-15, (ratio, M2)
    assert stevenson(0, 1.2e20, 10.0) == pytest.approx(7.707763588059978e-10, rel=1e-15)
    assert stevenson(-1, 1.2e20, 10.0) > 0.0


def test_integral_overflow_is_typed_where_it_arises():
    # I₀ ≈ Λ²/(16π²) leaves float range; the closed form's NaN must not
    # reach solve_mass_gap's input check as if it were the user's M²
    with pytest.raises(NonFiniteValue, match="I_0"):
        stevenson(0, 1e-300, 1e300)
    with pytest.raises(NonFiniteValue, match="I_0"):
        solve_mass_gap(FieldTheory(m2=1e-300, lam=1.0, cutoff=1e300), 0.0)
    # I₀ is finite, but the gap's upper bound m² + 12λI₀ is not
    with pytest.raises(NonFiniteValue, match="mass gap"):
        solve_mass_gap(FieldTheory(m2=1.0, lam=1e300, cutoff=1e100), 0.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, 1e200])
def test_mass_gap_rejects_bad_shift_by_name(sigma):
    with pytest.raises(DomainError, match="sigma"):
        solve_mass_gap(THEORY, sigma)


def test_potential_overflow_is_typed():
    with pytest.raises(NonFiniteValue):
        effective_potential(THEORY, 1e100)


def test_potential_whose_sum_overflows_is_non_finite():
    # λσ⁴ = 1e310 overflows without raising, and U was returned as inf
    theory = FieldTheory(m2=1.0, lam=1e10, cutoff=10.0)
    with pytest.raises(NonFiniteValue, match=rf"^U\(1e\+75\) of {re.escape(repr(theory))} leaves"):
        effective_potential(theory, 1e75)


# an int that no float can hold: math.isfinite and float() raise OverflowError
HUGE = 10**400


@pytest.mark.parametrize("call, message", [
    (lambda: FieldTheory(m2=HUGE, lam=0.1, cutoff=10.0), "bare mass"),
    (lambda: FieldTheory(m2=1.0, lam=HUGE, cutoff=10.0), "coupling"),
    (lambda: FieldTheory(m2=1.0, lam=0.1, cutoff=HUGE), "cutoff"),
    (lambda: stevenson(0, HUGE, 10.0), "need finite M2"),
    (lambda: stevenson(1, 1.0, HUGE), "need finite M2"),
    (lambda: static_potential(HUGE, 1.0), "r must"),
    (lambda: static_potential(1.0, HUGE), "mR must"),
    (lambda: solve_mass_gap(THEORY, HUGE), "sigma"),
    (lambda: solve_mass_gap(THEORY, -HUGE), "sigma"),
    (lambda: effective_potential(THEORY, HUGE), "sigma"),
], ids=["m2", "lam", "cutoff", "stevenson-M2", "stevenson-cutoff", "static-r",
        "static-mR", "gap-sigma", "gap-negative-sigma", "potential-sigma"])
def test_an_int_too_large_for_a_float_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=f"^{message}"):
        call()


def test_heavy_mass_asymptotics():
    # I₋₁ → Λ³/(12π²M³) once M ≫ Λ
    M2 = 1e8
    expected = 10.0**3 / (12.0 * math.pi**2 * M2**1.5)
    assert stevenson(-1, M2, 10.0) == pytest.approx(expected, rel=1e-4)


def test_derivative_identities():
    # dI₁/dM² = I₀/2 and dI₀/dM² = −I₋₁/2
    rng = np.random.default_rng(23)
    points = [(2.0, 50.0)] + [
        (rng.uniform(0.5, 50.0), rng.uniform(5.0, 200.0)) for _ in range(20)
    ]
    for M2, cutoff in points:
        h = 1e-4 * M2
        d1 = (stevenson(1, M2 + h, cutoff) - stevenson(1, M2 - h, cutoff)) / (2 * h)
        d0 = (stevenson(0, M2 + h, cutoff) - stevenson(0, M2 - h, cutoff)) / (2 * h)
        assert d1 == pytest.approx(0.5 * stevenson(0, M2, cutoff), rel=1e-6)
        assert d0 == pytest.approx(-0.5 * stevenson(-1, M2, cutoff), rel=1e-6)


def test_theory_validation():
    with pytest.raises(DomainError):
        FieldTheory(m2=-1.0, lam=0.1, cutoff=10.0)
    with pytest.raises(DomainError):
        FieldTheory(m2=1.0, lam=0.0, cutoff=10.0)
    with pytest.raises(DomainError):
        FieldTheory(m2=1.0, lam=0.1, cutoff=-5.0)
    with pytest.raises(DomainError):
        FieldTheory(m2=math.inf, lam=0.1, cutoff=10.0)


@pytest.mark.parametrize("cutoff", [math.inf, math.nan])
def test_non_finite_cutoff_is_rejected(cutoff):
    with pytest.raises(DomainError, match="cutoff"):
        FieldTheory(m2=1.0, lam=0.1, cutoff=cutoff)


def test_mass_gap_solution():
    state = solve_mass_gap(THEORY, 0.0)
    residual = state.M2 - THEORY.m2 - 12.0 * THEORY.lam * state.i0
    assert abs(residual) < 1e-10 * state.M2
    # the state carries the residual checked at its root
    assert state.residual == residual
    shifted = solve_mass_gap(THEORY, 0.3)
    base = THEORY.m2 + 12.0 * THEORY.lam * 0.3 * 0.3
    assert shifted.residual == shifted.M2 - base - 12.0 * THEORY.lam * shifted.i0
    assert state.M2 > THEORY.m2
    assert state.sigma == 0.0
    # the cached integrals are those of the returned mass
    assert state.i0 == stevenson(0, state.M2, 10.0)
    assert state.i1 == stevenson(1, state.M2, 10.0)
    assert state.im1 == stevenson(-1, state.M2, 10.0)


def mp_mass_gap(m2, lam, cutoff, sigma):
    """Root of the gap equation from the closed-form I₀ in mpmath.

    Below Λ = M/2 the closed form cancels about log₁₀(M²/Λ²) digits, and
    M² ≤ m² + 12λσ² + 12λI₀(0) with I₀(0) = Λ²/(8π²) bounds that loss, so
    30 digits more than it leave at least 20."""
    bound = m2 + 12.0 * lam * sigma * sigma + 1.5 * lam * cutoff * cutoff / math.pi**2
    with mp.workdps(30 + max(0, math.ceil(math.log10(bound / cutoff**2)))):
        length, coupling = mp.mpf(cutoff), mp.mpf(lam)
        base = mp.mpf(m2) + 12 * coupling * mp.mpf(sigma) ** 2
        top = base + 12 * coupling * length**2 / (8 * mp.pi**2)

        def scaled_residual(y):
            s = mp.sqrt(length**2 + y)
            i0 = (length * s - y * mp.log((length + s) / mp.sqrt(y))) / (8 * mp.pi**2)
            return (y - base - 12 * coupling * i0) / top

        return mp.findroot(scaled_residual, (base, top), solver="anderson")


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None)
@given(m2=_log_uniform(1e-8, 1e8), lam=_log_uniform(1e-8, 1e6),
       cutoff=_log_uniform(1e-4, 1e12), sigma=st.just(0.0) | _log_uniform(1e-6, 1e4))
# a loose stop test once left M² 9.4e-13 relative off the root here
@example(m2=27.63, lam=2.554e-3, cutoff=0.01017, sigma=0.5237)
def test_mass_gap_matches_mpmath_shadow(m2, lam, cutoff, sigma):
    state = solve_mass_gap(FieldTheory(m2=m2, lam=lam, cutoff=cutoff), sigma)
    exact = mp_mass_gap(m2, lam, cutoff, sigma)
    assert abs(state.M2 - exact) <= 1e-14 * exact


def mp_heavy_mass_gap(m2, lam, cutoff, sigma):
    """Root of the gap equation by bisection in ln M², for Λ ≪ M.

    The root can lie many decades above the background there, so the residual
    is taken relative to M², which makes it increasing in M², and the bracket
    is bisected in ln M².  I₀ comes from the closed form, with ln((Λ + s)/M)
    as asinh(Λ/M), so that it cancels only about log₁₀(M²/Λ²) digits; 30
    digits more than that are carried."""
    length, coupling = mp.mpf(cutoff), mp.mpf(lam)
    # 12λI₀(M²) < λΛ³/(π²M) bounds M² from above
    top = (m2 + 12 * coupling * mp.mpf(sigma) ** 2
           + (coupling / mp.pi**2) ** (mp.mpf(2) / 3) * length**2)
    with mp.workdps(30 + max(0, int(mp.ceil(mp.log10(top / length**2))))):
        floor = mp.mpf(m2) + 12 * coupling * mp.mpf(sigma) ** 2

        def relative_residual(u):
            y = mp.exp(u)
            s = mp.sqrt(length**2 + y)
            i0 = (length * s - y * mp.asinh(length / mp.sqrt(y))) / (8 * mp.pi**2)
            return 1 - (floor + 12 * coupling * i0) / y

        lo, hi = mp.log(floor), mp.log(2 * top)
        assert relative_residual(lo) < 0 < relative_residual(hi)
        while hi - lo > 1e-16:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if relative_residual(mid) < 0 else (lo, mid)
        return mp.exp(lo)


@st.composite
def heavy_mass_theories(draw):
    """Theories whose gap root M² is normal while I₀(M²) is subnormal.

    I₀ ≈ Λ³/(12π²M) in the heavy-mass limit and M² ≈ 12λI₀ when m² lies far
    below M², so M² and I₀ are drawn and Λ and λ solved from them."""
    M2 = 10.0 ** draw(st.floats(-260.0, -100.0))
    i0 = 10.0 ** draw(st.floats(-323.0, -309.0))
    t = (12.0 * math.pi**2 * i0 / M2) ** (1.0 / 3.0)
    return FieldTheory(m2=M2 * 10.0 ** -draw(st.floats(0.5, 40.0)),
                       lam=M2 / (12.0 * i0), cutoff=t * math.sqrt(M2))


@settings(max_examples=60, deadline=None)
@given(theory=heavy_mass_theories(), sigma=st.just(0.0) | _log_uniform(1e-300, 1e-200))
# I₀ at this root is 1.05e-320; the gap solve stalled on its few digits here
@example(theory=FieldTheory(m2=1.8218076671547894e-210, lam=1.0534588806886617e141,
                            cutoff=2.4281178855684486e-136),
         sigma=4.2364762191118335e-278)
# I₀ rounds to 0 at the root, yet 12λI₀ ≈ M² = 2.2e-121 ≫ m²
@example(theory=FieldTheory(m2=1e-300, lam=1e300, cutoff=1e-160), sigma=0.0)
# Λ/M = 1e-450: Λ would underflow in the rescaled I₀, which is 1e-1200·M²
@example(theory=FieldTheory(m2=1e300, lam=1.0, cutoff=1e-300), sigma=0.0)
def test_mass_gap_keeps_its_digits_where_i0_is_subnormal(theory, sigma):
    state = solve_mass_gap(theory, sigma)
    exact = mp_heavy_mass_gap(theory.m2, theory.lam, theory.cutoff, sigma)
    assert abs(state.M2 - exact) <= 1e-12 * exact


def test_mass_gap_fixed_point_oracle():
    # the map M² ↦ m² + 12λσ² + 12λI₀(M²) is a contraction here; iterate it
    # as an independent route to the root
    for sigma in (0.0, 1.0):
        M2 = THEORY.m2
        for _ in range(200):
            M2 = THEORY.m2 + 12.0 * THEORY.lam * (
                sigma * sigma + stevenson(0, M2, THEORY.cutoff)
            )
        assert solve_mass_gap(THEORY, sigma).M2 == pytest.approx(M2, rel=1e-9)


def test_mass_gap_monotone_in_background():
    assert solve_mass_gap(THEORY, 1.0).M2 > solve_mass_gap(THEORY, 0.0).M2


def test_mass_gap_root_is_unique():
    state = solve_mass_gap(THEORY, 0.0)
    grid = np.geomspace(1e-3, 1e3, 400)
    signs = [
        np.sign(
            M2 - THEORY.m2 - 12.0 * THEORY.lam * stevenson(0, M2, THEORY.cutoff)
        )
        for M2 in grid
    ]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1
    assert all(s < 0 for M2, s in zip(grid, signs) if M2 < 0.9 * state.M2)


def test_weak_coupling_gap_reduces_to_bare_mass():
    weak = FieldTheory(m2=1.0, lam=1e-12, cutoff=10.0)
    assert solve_mass_gap(weak, 0.0).M2 == pytest.approx(1.0, rel=1e-9)


def test_effective_potential_shape():
    u0 = effective_potential(THEORY, 0.0)
    h = 1e-4
    slope = (effective_potential(THEORY, h) - effective_potential(THEORY, -h)) / (2 * h)
    assert abs(slope) <= 1e-7 * abs(u0)
    for s in np.linspace(-3.0, 3.0, 25):
        assert effective_potential(THEORY, s) == effective_potential(THEORY, -s)
        if abs(s) > 1e-12:
            assert effective_potential(THEORY, s) > u0


def test_renormalized_parameters():
    r = renormalized(THEORY)
    assert isinstance(r, RenormalizedParams)
    assert r.mR2 == pytest.approx(2.443389699900859, rel=1e-12)
    assert r.lambdaR == pytest.approx(0.09302114164943766, rel=1e-12)
    # the renormalized mass is the gap mass itself
    assert r.mR2 == pytest.approx(solve_mass_gap(THEORY, 0.0).M2, rel=1e-12)


def test_renormalized_coupling_weak_limit():
    weak = renormalized(FieldTheory(m2=1.0, lam=1e-8, cutoff=10.0))
    assert abs(weak.lambdaR / 1e-8 - 1.0) < 1e-6
    assert weak.mR2 == pytest.approx(1.0000001481830412, rel=1e-12)


def test_renormalized_at_large_cutoff_regression():
    # with the gap mass run self-consistently the screening ratio lands here;
    # frozen so any drift in the solver shows up
    big = renormalized(FieldTheory(m2=1.0, lam=1.0, cutoff=1e6))
    assert big.mR2 == pytest.approx(127413543038.87, rel=1e-9)
    assert big.lambdaR == pytest.approx(0.6704654115329164, rel=1e-9)


# I₁ ≈ Λ⁴/(16π²) leaves float range at Λ = 1e100, while M̄² and I₋₁ do not
WIDE = FieldTheory(m2=1.0, lam=1e-3, cutoff=1e100)


def test_renormalized_needs_no_i1():
    for fails in (lambda: solve_mass_gap(WIDE, 0.0), lambda: effective_potential(WIDE, 0.0)):
        with pytest.raises(NonFiniteValue, match="^I_1"):
            fails()
    r = renormalized(WIDE)
    assert r.mR2 == 1.5187584064074844e+196
    assert abs(r.mR2 - mp_mass_gap(1.0, 1e-3, 1e100, 0.0)) <= 1e-14 * r.mR2
    im1 = stevenson(-1, r.mR2, WIDE.cutoff)
    assert r.lambdaR == 1e-3 * (1.0 - 12.0 * 1e-3 * im1) / (1.0 + 6.0 * 1e-3 * im1)


def _hex_or_error(evaluate):
    """The float.hex of each value evaluate() returns, or its error class and message."""
    try:
        return [value.hex() for value in evaluate()]
    except GhaError as exc:
        return type(exc), str(exc)


_SCALE = _log_uniform(1e-8, 1e8) | _log_uniform(1e-300, 1e300)


@settings(max_examples=150, deadline=None)
@given(m2=_SCALE, lam=_SCALE, cutoff=_SCALE,
       sigma=st.just(0.0) | _SCALE | _SCALE.map(lambda s: -s))
@example(m2=1.0, lam=0.1, cutoff=10.0, sigma=0.3)
@example(m2=1.0, lam=1e-3, cutoff=1e100, sigma=0.0)
# U's quartic term overflows after the gap has solved
@example(m2=1.0, lam=0.1, cutoff=10.0, sigma=1e80)
# U's sum overflows to inf without raising
@example(m2=1.0, lam=1e10, cutoff=10.0, sigma=1e75)
def test_potential_and_renormalized_are_their_formulas_on_the_gap_state(m2, lam, cutoff, sigma):
    # U and (m_R², λ_R) run the gap ascent without building a GapState; each
    # is the float expression of its formula on solve_mass_gap's state, bit
    # for bit, and fails where solve_mass_gap does, with its error; U is a
    # NonFiniteValue where the formula leaves float range
    theory = FieldTheory(m2=m2, lam=lam, cutoff=cutoff)

    def on_state():
        state = solve_mass_gap(theory, sigma)
        return [state.i1 - 3.0 * lam * state.i0 * state.i0 + 0.5 * m2 * sigma * sigma
                + lam * sigma**4]

    potential = _hex_or_error(lambda: [effective_potential(theory, sigma)])
    try:
        expected = _hex_or_error(on_state)
    except OverflowError:  # λσ⁴ alone raises
        expected = ["inf"]
    if isinstance(expected, list) and not math.isfinite(float.fromhex(expected[0])):
        assert potential[0] is NonFiniteValue and potential[1].startswith(f"U({sigma})")
    else:
        assert potential == expected

    def renormalized_on_state():
        bar = solve_mass_gap(theory, 0.0)
        return [bar.M2, lam * (1.0 - 12.0 * lam * bar.im1) / (1.0 + 6.0 * lam * bar.im1)]

    def renormalized_values():
        r = renormalized(theory)
        return [r.mR2, r.lambdaR]

    renorm = _hex_or_error(renormalized_values)
    expected = _hex_or_error(renormalized_on_state)
    if expected[0] is NonFiniteValue and expected[1].startswith("I_1"):
        # the one intended difference: I₁ is not needed, so it cannot fail
        assert isinstance(renorm, list) and float.fromhex(renorm[0]) > 0.0
    else:
        assert renorm == expected


def test_renormalized_match_potential_curvatures():
    r = renormalized(THEORY)
    h = 0.05
    u = [effective_potential(THEORY, k * h) for k in range(3)]
    mr2_fd = 2.0 * (u[1] - u[0]) / (h * h)
    assert abs(mr2_fd - r.mR2) < 1e-3 * abs(r.mR2)
    lam_fd = (2.0 * u[2] - 8.0 * u[1] + 6.0 * u[0]) / h**4 / 24.0
    assert abs(lam_fd - r.lambdaR) < 1e-4 * abs(r.lambdaR)


def bessel_k1(x):
    """K₁(x) for x > 1e-17, as `static_potential` forms it from the scaled sum."""
    return math.exp(-x) * _k1_scaled(x)


def test_bessel_anchor_values():
    assert bessel_k1(1.0) == pytest.approx(0.6019072302, abs=1e-10)
    assert bessel_k1(10.0) == pytest.approx(1.8649e-5, rel=1e-4)
    # small-argument behaviour: x K₁(x) = 1 + (x²/2) ln(x/2) + ..., so the
    # limit is approached from below and at x = 1e-3 the deficit is 3.76e-6
    small = 1e-3 * bessel_k1(1e-3)
    assert small == pytest.approx(0.9999962381560853, rel=1e-10)
    assert 0.0 < 1.0 - small < 1e-5


def test_bessel_sweep_against_scipy():
    xs = np.geomspace(1e-3, 700.0, 60)
    for x in xs:
        ref = scipy.special.k1e(x) * math.exp(-x)
        assert bessel_k1(float(x)) == pytest.approx(ref, rel=1e-8)


def test_bessel_against_mpmath():
    # 401 log-spaced points of [1e-3, 700], both ends included, and short
    # distances where K₁ ≈ 1/x: the sum runs to hundreds of terms just above
    # the cut at x = 1e-17, below which `static_potential` takes x·K₁(x) = 1
    xs = [1e-3 * (700.0 / 1e-3) ** (i / 400) for i in range(400)] + [700.0]
    xs += [1e-8, 1.1e-17]
    with mp.workdps(30):
        for x in xs:
            ref = mp.besselk(1, x)
            assert abs(bessel_k1(x) - ref) <= 1e-15 * ref, x


def test_static_potential_short_range():
    # 4π² r² U(r) = x K₁(x) → 1 as x = m_R r → 0 (Coulomb-like core)
    r = 1e-3
    val = FOUR_PI2 * r * r * static_potential(r, 1.0)
    assert val == pytest.approx(0.9999962381560853, rel=1e-12)
    assert FOUR_PI2 * 1e-100 * static_potential(1e-50, 1.0) == pytest.approx(1.0, rel=1e-15)
    # U ≈ 1/(4π²r²) leaves float range near r = 1e-155
    with pytest.raises(NonFiniteValue):
        static_potential(1e-160, 1.0)


def test_static_potential_long_range_decay():
    # beyond the Yukawa exponential the envelope falls like r^{-3/2}; after
    # removing that factor the log-slope is -m_R to better than 1%
    for mr, r in ((1.0, 20.0), (2.5, 8.0)):
        h = 1e-5 * r
        lo = math.log(static_potential(r - h, mr)) + 1.5 * math.log(r - h)
        hi = math.log(static_potential(r + h, mr)) + 1.5 * math.log(r + h)
        slope = (hi - lo) / (2 * h)
        assert abs(slope + mr) < 0.01 * mr


def test_static_potential_against_oscillatory_quadrature():
    from conftest import radial_sine_potential

    for r in np.linspace(0.1, 10.0, 10):
        direct = radial_sine_potential(float(r), 1.0)
        assert static_potential(float(r), 1.0) == pytest.approx(direct, rel=1e-6)


def test_static_potential_validation():
    for r, mr in ((0.0, 1.0), (1.0, -1.0), (math.inf, 1.0), (1.0, math.inf),
                  (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError):
            static_potential(r, mr)


def test_log_term_survives_overflow_of_the_cutoff_ratio():
    # (Λ + s)/M overflows, but ln((Λ + s)/M) and I₋₁ do not
    for M2, cutoff in [(1e-300, 1e300), (1.0, 1e308), (1e300, 1.7e308)]:
        mass, length = mp.sqrt(mp.mpf(M2)), mp.mpf(cutoff)
        want = (mp.asinh(length / mass) - length / mp.hypot(length, mass)) / (4 * mp.pi**2)
        assert stevenson(-1, M2, cutoff) == pytest.approx(float(want), rel=1e-15)
    assert stevenson(-1, 1e-300, 1e300) == pytest.approx(26.2385501214605, rel=1e-14)
    for n in (0, 1):
        with pytest.raises(NonFiniteValue, match=f"I_{n}"):
            stevenson(n, 1e-300, 1e300)


# (M², Λ) with a subnormal I₀: two heavy masses, then a light one
SUBNORMAL_I0 = ((1e-200, 1e-140), (1.0, 1e-103), (1e-312, 1e-155))


def _integrals_or_error(integrals):
    """The hex of each value, or the error class and message."""
    try:
        return [value.hex() for value in integrals()]
    except NonFiniteValue as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("M2, cutoff", [
    # light mass: the closed forms
    (1.0, 10.0), (0.25, 5.0), (30.0, 200.0),
    # heavy mass, Λ < M/2: the series
    (1.2e20, 10.0), (1e8, 10.0), (4.0, 0.999),
    # the inputs of test_log_term_survives_overflow_of_the_cutoff_ratio;
    # I₀ leaves float range at the first, where I₋₁ does not
    (1e-300, 1e300), (1.0, 1e308), (1e300, 1.7e308),
    # I₀ is subnormal, as where the mass gap takes `_gap_source`
    *SUBNORMAL_I0,
])
def test_paired_integrals_are_the_single_ones(M2, cutoff):
    # the mass-gap step takes I₀ and I₋₁ from one call; they are
    # stevenson's, bit for bit, and where one leaves float range the pair
    # raises what the calls in the order I₀, I₋₁ raise
    pair = _integrals_or_error(lambda: _cutoff_integrals((0, -1), M2, cutoff))
    single = _integrals_or_error(lambda: [stevenson(0, M2, cutoff), stevenson(-1, M2, cutoff)])
    assert pair == single
    if (M2, cutoff) in SUBNORMAL_I0:
        assert 0.0 < stevenson(0, M2, cutoff) < sys.float_info.min
