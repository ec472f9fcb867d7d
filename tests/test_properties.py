"""Randomized invariants over the whole model space."""

import dataclasses
import math
import random
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gha import hartree, oracle, qft, tables
from gha.errors import DomainError, GhaError, NonConvergence, NonFiniteValue, PhaseUnavailable
from gha.hartree import (
    HartreeSolution,
    OscillatorModel,
    Phase,
    critical_coupling,
    gap_residual_scale,
    general_gap_residuals,
    moment,
    solve_level,
    xi_p,
)
from gha.hipt import second_order
from gha.ladder import ModeParameters, expectation
from gha.vacuum import loglog_slope, strong_coupling_scaling, vacuum_structure

from conftest import broken_cubic_at_floor, sigma0_gap_root
from ladder_reference import hamiltonian_polynomial

powers = st.sampled_from([4, 6, 8])
log_couplings = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
log_stiffness = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
levels = st.integers(min_value=0, max_value=25)
EPS = sys.float_info.epsilon


@settings(max_examples=60, deadline=None)
@given(powers, log_stiffness, log_couplings, levels)
def test_solved_frequency_kills_the_gap_polynomial(power, lg, ll, n):
    model = OscillatorModel(power=power, g=10.0**lg, lam=10.0**ll)
    sol = solve_level(model, n)
    gap, shift = general_gap_residuals(model, n, sol.omega, sol.sigma)
    assert abs(gap) <= 1e-9 * gap_residual_scale(model, n, Phase.AHO)
    assert shift == 0.0


@settings(max_examples=40, deadline=None)
@given(powers, log_stiffness, log_couplings, st.integers(min_value=0, max_value=12))
def test_variational_energy_is_the_expectation(power, lg, ll, n):
    model = OscillatorModel(power=power, g=10.0**lg, lam=10.0**ll)
    sol = solve_level(model, n)
    mode = ModeParameters(omega=sol.omega, sigma=sol.sigma)
    mean = expectation(hamiltonian_polynomial(model, mode), n)
    assert abs(mean - sol.energy) <= 1e-9 * max(1.0, abs(sol.energy))


@settings(max_examples=40, deadline=None)
@given(powers, log_stiffness, log_couplings, st.integers(min_value=0, max_value=20))
def test_levels_are_ordered(power, lg, ll, n):
    model = OscillatorModel(power=power, g=10.0**lg, lam=10.0**ll)
    assert solve_level(model, n + 1).energy > solve_level(model, n).energy


@settings(max_examples=40, deadline=None)
@given(powers, log_stiffness, log_couplings)
def test_second_order_lowers_the_ground_state(power, lg, ll):
    model = OscillatorModel(power=power, g=10.0**lg, lam=10.0**ll)
    assert second_order(model, 0).delta_e2 < 0.0


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_vacuum_pairing_identity(lw):
    v = vacuum_structure(10.0**lw)
    # n0 = sinh²α and u = tanh α for one squeeze parameter α
    assert abs(v.n0 - math.sinh(v.alpha) ** 2) <= 1e-12 * max(1.0, v.n0)
    assert abs(v.u - math.tanh(v.alpha)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.011, max_value=5.0, allow_nan=False), levels)
def test_double_well_phases_cover_the_coupling_axis(lam, n):
    model = OscillatorModel(power=4, g=-1.0, lam=lam)
    sol = solve_level(model, n)
    assert sol.phase in (Phase.DWO_SR, Phase.DWO_SSB)
    if sol.branches:
        # when both phases solve, the reported one is the lower
        assert sol.energy == min(b.energy for b in sol.branches)


# the quartic double well and the three anharmonic oscillators
signed_powers = st.sampled_from([(4, -1.0), (4, 1.0), (6, 1.0), (8, 1.0)])
wide_stiffness = st.floats(min_value=-3.0, max_value=6.0, allow_nan=False)
wide_couplings = st.floats(min_value=-6.0, max_value=3.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(signed_powers, wide_stiffness, wide_couplings, levels)
# g = -1e6, lam = 1e-6: the symmetry-restored root ~6e-12 sits below any
# fixed positive lower bracket
@example((4, -1.0), 6.0, -6.0, 0)
# g = +1e6, lam = 1e-6 for each power: the root sits just above sqrt(g)
@example((4, 1.0), 6.0, -6.0, 0)
@example((6, 1.0), 6.0, -6.0, 0)
@example((8, 1.0), 6.0, -6.0, 0)
def test_levels_solve_at_extreme_coupling_ratios(signed_power, lg, ll, n):
    power, sign = signed_power
    model = OscillatorModel(power=power, g=sign * 10.0**lg, lam=10.0**ll)
    sol = solve_level(model, n)
    assert math.isfinite(sol.energy)
    k, w, g = model.k, sol.omega, abs(model.g)
    c0 = 2 * k * model.lam * moment(k, n) / (n + 0.5)
    scale = max(w ** (k + 1), g * w ** (k - 1), 12.0 * model.lam * sol.sigma**2 * w, c0)
    gap, _ = general_gap_residuals(model, n, w, sol.sigma)
    assert abs(gap) <= 1e-12 * scale
    # ω against the largest positive root of the float gap polynomial, found
    # in 40 digits; the σ = 0 roots have condition number at most 1, the
    # broken branch's grows as λ nears λ_c and its roots merge
    if sol.phase is Phase.DWO_SSB:
        c0 = 6.0 * model.lam * xi_p(n + 0.5)
        coeffs = [1, 0, 2 * mp.mpf(model.g), mp.mpf(c0)]
        cond = max(1.0, max(w**3, 2 * g * w, c0) / (w * abs(3 * w * w - 2 * g)))
    else:
        coeffs = [1, 0, -mp.mpf(model.g)] + [0] * (k - 2) + [-mp.mpf(c0)]
        cond = 1.0
    with mp.workdps(40):
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
        root = max(mp.re(r) for r in roots if abs(mp.im(r)) <= 1e-30 * abs(r))
        assert abs(w / root - 1) <= 1e-15 * cond


def _largest_cubic_root(p, q):
    """Largest real root of ω³ + pω + q in mpmath, from the trigonometric or
    hyperbolic closed form, which keeps its digits at every scale."""
    p, q = mp.mpf(p), mp.mpf(q)
    if p > 0:
        return -2 * mp.sqrt(p / 3) * mp.sinh(mp.asinh(3 * q / (2 * p) * mp.sqrt(3 / p)) / 3)
    return 2 * mp.sqrt(-p / 3) * mp.cos(mp.acos(3 * q / (2 * p) * mp.sqrt(-3 / p)) / 3)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-20.0, max_value=40.0, allow_nan=False),
       st.floats(min_value=-40.0, max_value=20.0, allow_nan=False), levels)
# |g|^{3/2}/λ = 1e26: from the start (2c₀)^{1/3} the first step rounds to ω ≤ 0
@example(0.0, -26.0, 0)
# λ ≈ 1.6e-30: a start 5e16 times the root passed the absolute residual floor
@example(math.log10(2.110974189309853e-3), math.log10(1.5963222272433442e-30), 0)
def test_double_well_branches_at_tiny_coupling(lg, ll, n):
    model = OscillatorModel(power=4, g=-(10.0**lg), lam=10.0**ll)
    sol = solve_level(model, n)
    xi, g = n + 0.5, model.g
    for b in sol.branches or (sol,):
        phase = b.phase
        w = b.omega
        with mp.workdps(60):
            if phase is Phase.DWO_SSB:
                c0 = 6.0 * model.lam * xi_p(xi)
                root = _largest_cubic_root(2 * mp.mpf(g), c0)
                cond = max(1.0, max(w**3, -2 * g * w, c0) / (w * abs(3 * w * w + 2 * g)))
            else:
                c0 = 4 * model.lam * moment(2, n) / xi
                root = _largest_cubic_root(-mp.mpf(g), -mp.mpf(c0))
                cond = 1.0
            assert abs(w / root - 1) <= 1e-15 * cond, (phase, w, root)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-20.0, max_value=40.0, allow_nan=False),
       st.floats(min_value=-16.0, max_value=-1.0, allow_nan=False), levels)
def test_broken_branch_near_the_critical_coupling(lg, lu, n):
    # λ = λ_c(1 − 10^u): as u falls the cubic's two largest roots merge at
    # √(−2g/3), where f′ vanishes and float64 fixes the root to about √ε.
    # There the cubic at that floor is rounding noise, and a level that
    # drops the branch must have an exact cubic there not below that noise
    g, xi = -(10.0**lg), n + 0.5
    model = OscillatorModel(power=4, g=g, lam=critical_coupling(xi, g) * (1.0 - 10.0**lu))
    branches = solve_level(model, n).branches
    if branches is None:
        value, top = broken_cubic_at_floor(g, model.lam, n)
        assert value >= -4 * EPS * top, (value / top)
        return
    (w,) = [b.omega for b in branches if b.phase is Phase.DWO_SSB]
    c0 = 6.0 * model.lam * xi_p(xi)
    scale = max(w**3, -2.0 * g * w, c0)
    assert abs(w**3 + 2.0 * g * w + c0) <= 1e-12 * scale
    # a residual εS, ε = 1e-15 for rounding in the float cubic, moves a
    # simple root by εS/(ω|f′|) relative, and a double one by √(εS/(3ω³))
    fp = abs(3.0 * w * w + 2.0 * g)
    tol = min(1e-15 * scale / (w * fp) if fp else math.inf,
              math.sqrt(1e-15 * scale / (3.0 * w**3)))
    with mp.workdps(50):
        root = mp.re(_largest_cubic_root(2 * mp.mpf(g), c0))
        assert abs(w / root - 1) <= max(1e-15, tol), (w, root)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-300.0, max_value=300.0, allow_nan=False),
       st.integers(min_value=0, max_value=10**6), st.booleans(),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_broken_branch_shift_is_real(lg, n, near_critical, t):
    # λ = λ_c(1 − 10^U(−16, 0)) or λ_c·10^U(−300, 0).  The broken root has
    # ω² ≥ −2g/3, so −(g + 12λξ/ω) ≥ |g|/3 and σ² > 0 needs no check
    g, xi = -(10.0**lg), n + 0.5
    try:
        lam_c = critical_coupling(xi, g)
    except NonFiniteValue:
        return
    lam = lam_c * (1.0 - 10.0 ** (-16.0 * t)) if near_critical else lam_c * 10.0 ** (-300.0 * t)
    assume(lam > 0.0)
    # the broken branch alone: over the whole range the level would often
    # stop first at its symmetry-restored branch or its coefficients
    try:
        model = OscillatorModel(power=4, g=g, lam=lam)
        branch = hartree._branch(model, n, n + 0.5, Phase.DWO_SSB)
    except (NonFiniteValue, NonConvergence):
        return
    if branch is None:
        # no root above the floor, so no branch
        return
    w = branch[0]
    assert -(g + 12.0 * lam * xi / w) >= 0.3 * -g


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-300.0, max_value=300.0, allow_nan=False),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from(["fl", "ulp above", "ulp below", "below"]),
       st.floats(min_value=-16.0, max_value=-1.0, allow_nan=False))
# λ = fl(λ_c) lies 5.7e-11 above the exact λ_c: the cubic has no root
@example(math.log10(4.006705135200882e-205), 651949, "fl", -1.0)
def test_broken_cubic_decides_its_root_at_its_floor(lg, n, where, lu):
    # λ at fl(λ_c), one ulp either side of it, or λ_c(1 − 10^u).  Wherever
    # the exact cubic at the floor √(−2g/3) lies beyond the rounding of its
    # largest term, the branch has a root exactly when that value is ≤ 0
    g, xi = -(10.0**lg), n + 0.5
    try:
        lam_c = critical_coupling(xi, g)
    except NonFiniteValue:
        return
    lam = {"fl": lam_c, "ulp above": math.nextafter(lam_c, math.inf),
           "ulp below": math.nextafter(lam_c, 0.0), "below": lam_c * (1.0 - 10.0**lu)}[where]
    assume(lam > 0.0)
    model = OscillatorModel(power=4, g=g, lam=lam)
    try:
        branch = hartree._branch(model, n, n + 0.5, Phase.DWO_SSB)
    except NonFiniteValue:
        return
    value, top = broken_cubic_at_floor(g, lam, n)
    if abs(value) > 4 * EPS * top:
        assert (branch is None) == (value > 0), (branch, value / top)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([4, 6, 8, "broken"]),
       st.floats(min_value=-320.0, max_value=300.0, allow_nan=False),
       st.floats(min_value=-323.0, max_value=300.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=12.0, allow_nan=False))
# c₀ ≈ 1e304: the rounded exponent 2/3 alone would put the start 175ε low
@example(4, math.log10(6.922670635903861e-210), math.log10(3.071683194560411e+299),
         math.log10(5745))
# the unraised start is 3.5ε of f₁'s largest term below the root
@example(8, -294.5056129980772, 138.90895490736733, 1.3793666604583419)
def test_gap_start_is_not_below_the_root(shape, lg, ll, ln):
    # every gap with g > 0 is solved at its own scale, from √(g₁ +
    # max(c₁, 0)^{2/(k+1)}) raised by 1 + 4ε, where f₁ ≥ 0 exactly for the
    # float g₁ and c₁ that the descent receives: the AHO gap over the whole
    # float range, and the broken cubic at g′ = −2g with c₀′ < 0,
    # λ = λ_c·10^{−|ll|/2} ≤ λ_c
    n = int(10.0**ln) - 1
    if shape == "broken":
        g = -(10.0**lg)
        try:
            lam = critical_coupling(n + 0.5, g) * 10.0 ** -abs(ll / 2)
        except NonFiniteValue:
            return
        assume(lam > 0.0)
        model, phase = OscillatorModel(power=4, g=g, lam=lam), Phase.DWO_SSB
    else:
        model, phase = OscillatorModel(power=shape, g=10.0**lg, lam=10.0**ll), Phase.AHO
    starts = []
    with pytest.MonkeyPatch.context() as patch:
        # the descent returns its start unmoved, with a zero residual
        patch.setattr(hartree, "_newton",
                      lambda k, g, c0, w, floor: starts.append((k, g, c0, w)) or (w, 0.0, 0.0, 0.0))
        try:
            hartree._branch(model, n, n + 0.5, phase)
        except NonFiniteValue:
            # the unmoved start, scaled back, is not a normal float
            pass
    if not starts:
        # the broken cubic has no root above its floor
        return
    ((k, g, c0, w),) = starts
    assert g >= 0.0
    with mp.workdps(80):
        w, g, c0 = mp.mpf(w), mp.mpf(g), mp.mpf(c0)
        assert w ** (k + 1) - g * w ** (k - 1) - c0 >= 0, (starts, shape, lg, ll, ln)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(4, 1.0), (4, -1.0), (6, 1.0), (8, 1.0)]),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.integers(min_value=0, max_value=40), st.integers(min_value=-20, max_value=20))
# in the model's units this ω came out one ulp off its scaled value
@example((4, 1.0), math.log10(187.22857298500253), math.log10(1.408890208214099), 104, -8)
def test_levels_scale_exactly_by_powers_of_four(shape, lg, ll, n, i):
    # φ → φ/√s with s = 4^i maps (g, λ) to (s²g, s^{k+1}λ), ω to sω, σ to
    # σ/√s and E₀ to sE₀; each branch's gap is solved at a scale that moves
    # by s with the model, so these hold bit for bit away from under- and
    # overflow.  A, B, C and h₀ are formed with libm powers in the model's
    # units and are left out
    power, sign = shape
    g, lam, s = sign * 10.0**lg, 10.0**ll, 4.0**i
    base = solve_level(OscillatorModel(power, g, lam), n)
    scaled = solve_level(OscillatorModel(power, g * s * s, lam * s ** (power // 2 + 1)), n)
    assert scaled.phase is base.phase
    pairs = list(zip(base.branches or (), scaled.branches or ())) + [(base, scaled)]
    assert len(pairs) == len(base.branches or ()) + 1
    for b0, b1 in pairs:
        assert b1.phase is b0.phase
        assert (b1.omega, b1.sigma, b1.energy) == (b0.omega * s, b0.sigma / 2.0**i,
                                                   b0.energy * s), (b0, b1)


@settings(max_examples=200, deadline=None)
@given(powers, st.booleans(), st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       log_couplings, st.floats(min_value=0.0, max_value=12.0, allow_nan=False))
def test_zeroth_order_at_high_levels(power, double_well, lg, ll, ln):
    # n log-uniform up to 1e12 on the σ = 0 branches, against a 60-digit
    # root of the gap polynomial with its exact integer moment
    n = int(10.0**ln) - 1
    model = OscillatorModel(power=power, g=(-1.0 if double_well else 1.0) * 10.0**lg,
                            lam=10.0**ll)
    phase = Phase.DWO_SR if double_well else Phase.AHO
    if double_well and power != 4:
        # the sextic and octic double wells have no level to reach the branch
        w, _, _, energy = hartree._branch(model, n, n + 0.5, phase)
    else:
        sol = solve_level(model, n)
        ((w, energy),) = [(b.omega, b.energy) for b in sol.branches or (sol,)
                          if b.phase is phase]
    k = model.k
    with mp.workdps(60):
        xi, g = mp.mpf(n) + mp.mpf(1) / 2, mp.mpf(model.g)
        moment_k = mp.mpf(math.prod(range(1, 2 * k, 2)) * sum(
            math.comb(k, i) * math.comb(n, i) * 2**i for i in range(k + 1))) / 2**k
        c0 = 2 * k * mp.mpf(model.lam) * moment_k / xi
        root = mp.mpf(w)
        for _ in range(6):
            root -= ((root**(k + 1) - g * root**(k - 1) - c0)
                     / ((k + 1) * root**k - (k - 1) * g * root**(k - 2)))
        assert abs(w / root - 1) <= 1e-15, (w, root)
        # E₀ against the scale of its two terms, which cancel in the double well
        terms = [xi * (k + 1) * root / (2 * k), xi * (k - 1) * g / (root * 2 * k)]
        assert abs(energy - sum(terms)) <= 1e-15 * max(abs(t) for t in terms), (energy, terms)


def test_levels_are_finite_or_a_typed_error():
    # |g| and λ log-uniform over the whole float range, both signs of g; each
    # draw through solve_level and through second_order, each on a fresh model
    rng = random.Random(15)
    cases = [(4, -1.0, 1e-26, 0), (4, 1.0, 1e308, 0), (4, -4e-119, 2.9e307, 0),
             (4, -2.110974189309853e-3, 1.5963222272433442e-30, 0)]
    top = math.log10(sys.float_info.max)
    for _ in range(3000):
        cases.append((rng.choice([4, 6, 8]), rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, top),
                      10.0 ** rng.uniform(-300, top), rng.randint(0, 30)))
    outcomes = set()
    for power, g, lam, n in cases:
        try:
            sol = solve_level(OscillatorModel(power=power, g=g, lam=lam), n)
        except (NonFiniteValue, PhaseUnavailable) as exc:
            outcomes.add(type(exc))
        else:
            outcomes.add(HartreeSolution)
            values = [sol.omega, sol.sigma, sol.A, sol.B, sol.C, sol.h0, sol.energy]
            for b in sol.branches or ():
                values += [b.omega, b.sigma, b.energy]
            assert all(math.isfinite(v) for v in values), (power, g, lam, n, sol)
        try:
            rep = second_order(OscillatorModel(power=power, g=g, lam=lam), n)
        except GhaError:
            continue
        values = [rep.e0, rep.delta_e2, rep.e2]
        values += [v for c in rep.contributions for v in (c.numerator, c.denominator)]
        assert all(math.isfinite(v) for v in values), (power, g, lam, n, rep)
    assert {HartreeSolution, NonFiniteValue, PhaseUnavailable} <= outcomes
    # c₀ overflows in the model's units, where the gap's start did; at its
    # own scale each level solves
    for g, lam, omega in ((1.0, 1e308, 8.434326653017493e102),
                          (-4e-119, 2.9e307, 5.582770171658424e102)):
        assert solve_level(OscillatorModel(power=4, g=g, lam=lam), 0).omega == omega
        root = sigma0_gap_root(4, g, lam, 0)
        assert abs(omega - root) <= 4 * EPS * root, (omega, root)
    # ω⁵ overflowed at the start √(g + c₀^{2/5}) ≈ 1e150; at its own scale
    # the gap solves, and ω⁴ overflows in the coefficients
    with pytest.raises(NonFiniteValue, match="level 0 of .*Numerical result out of range"):
        solve_level(OscillatorModel(power=8, g=1e300, lam=1.0), 0)


# every kind of number a caller can pass where a float or an index is due:
# ints of any size, past float range and past the 4300 digits that Python
# prints too, ±0, subnormals, ±inf, NaN and bools
_numbers = st.one_of(
    st.integers(), st.floats(), st.booleans(),
    st.sampled_from([10**20, 10**300, 10**400, -10**400, 2**1024, -(2**1024), 10**5000,
                     -10**5000, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]))
_models = st.sampled_from([(4, 1.0, 1.0), (4, -1.0, 0.05), (6, 1.0, 0.3), (8, 2.0, 1.0),
                           (6, -1.0, 1.0)])
_theory = (1.0, 0.1, 10.0)


def _no_slow_n_max(n):
    # levels 41..2716 are certified at dimensions up to 4096, which is slow;
    # past them the a priori dimension is over budget at once
    return not (type(n) is int and 41 <= n <= 2716)


def _no_slow_dimension(n):
    # dimensions past 64 up to the cap, 4096 + 2k, are built; past the cap
    # the build is refused at once
    return not (type(n) is int and 65 <= n <= 4104)


def _held_floats(value):
    """Every float that value holds: itself, the items of a tuple, list or
    array, and the fields of a record."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, np.ndarray):
        yield from value.ravel().tolist()
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _held_floats(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _held_floats(getattr(value, field.name))
    elif isinstance(value, OscillatorModel):
        yield from _held_floats([value.g, value.lam])


# name -> (call, strategies of its arguments); every model and theory is fresh
_DOORS = {
    "OscillatorModel": (OscillatorModel, (st.one_of(powers, _numbers), _numbers, _numbers)),
    "solve_level": (lambda m, n: solve_level(OscillatorModel(*m), n), (_models, _numbers)),
    "second_order": (lambda m, n: second_order(OscillatorModel(*m), n), (_models, _numbers)),
    "classical_well_depth": (lambda p, g, lam: hartree.classical_well_depth(
        OscillatorModel(p, g, lam)), (powers, _numbers, _numbers)),
    "critical_coupling": (critical_coupling, (_numbers, _numbers)),
    "moment": (moment, (_numbers, _numbers)),
    "general_gap_residuals": (lambda m, n, w, s: general_gap_residuals(OscillatorModel(*m), n, w, s),
                              (_models, _numbers, _numbers, _numbers)),
    "gap_residual_scale": (lambda m, n, ph: gap_residual_scale(OscillatorModel(*m), n, ph),
                           (_models, _numbers, st.one_of(st.sampled_from(list(Phase)),
                                                         st.sampled_from(["AHO", "XX"]), _numbers))),
    "converged_levels": (lambda m, n, tol: oracle.converged_levels(OscillatorModel(*m), n, tol),
                         (_models, _numbers.filter(_no_slow_n_max), _numbers)),
    "hamiltonian_matrix": (lambda m, n, w: oracle.hamiltonian_matrix(
        OscillatorModel(*m), oracle._TruncatedBasis(n, w)),
        (_models, _numbers.filter(_no_slow_dimension), _numbers)),
    "FieldTheory": (qft.FieldTheory, (_numbers, _numbers, _numbers)),
    "solve_mass_gap": (lambda s: qft.solve_mass_gap(qft.FieldTheory(*_theory), s), (_numbers,)),
    "effective_potential": (lambda m2, lam, cut, s: qft.effective_potential(
        qft.FieldTheory(m2, lam, cut), s), (_numbers,) * 4),
    "renormalized": (lambda *t: qft.renormalized(qft.FieldTheory(*t)), (_numbers,) * 3),
    "stevenson": (qft.stevenson, (_numbers, _numbers, _numbers)),
    "static_potential": (qft.static_potential, (_numbers, _numbers)),
    "vacuum_structure": (vacuum_structure, (_numbers,)),
    "strong_coupling_scaling": (strong_coupling_scaling,
                                (_numbers, st.lists(_numbers, max_size=3))),
    "loglog_slope": (loglog_slope, (st.lists(st.tuples(_numbers, _numbers), max_size=3),)),
    "reference_table": (tables.reference_table, (_numbers,)),
    "run_table": (tables.run_table, (_numbers, _numbers)),
}


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(_DOORS)).flatmap(
    lambda name: st.tuples(st.just(name), st.tuples(*_DOORS[name][1]))))
# each raised a bare OverflowError, ValueError or TypeError
@example(("solve_level", ((4, 1.0, 1.0), 10**400)))
@example(("second_order", ((4, 1.0, 1.0), 10**400)))
@example(("hamiltonian_matrix", ((4, 1.0, 1.0), 10**20, 1.0)))
@example(("hamiltonian_matrix", ((4, 1.0, 1.0), 4, 10**300)))
@example(("general_gap_residuals", ((4, 1.0, 1.0), 0, 1.0, 1e200)))
@example(("gap_residual_scale", ((4, 1.0, 1.0), 0, "XX")))
@example(("moment", (2, 3.0)))
@example(("moment", (4, 10**200)))
# each returned an infinity or a NaN
@example(("effective_potential", (1.0, 1e10, 10.0, 1e75)))
@example(("vacuum_structure", (5e-324,)))
@example(("classical_well_depth", (4, -1e200, 1.0)))
@example(("classical_well_depth", (6, -409, 5e-324)))
@example(("gap_residual_scale", ((8, 1.0, 1e308), 40, Phase.AHO)))
@example(("general_gap_residuals", ((4, 1.0, 1.0), 0, 2.0, math.inf)))
@example(("general_gap_residuals", ((4, 1.0, 1.0), 0, 2.0, -math.inf)))
@example(("general_gap_residuals", ((4, 1.0, 1.0), 0, 2.0, math.nan)))
@example(("general_gap_residuals", ((8, 1.0, 1e308), 40, 1.0, 0.0)))
def test_every_public_door_returns_a_value_or_raises_a_gha_error(door):
    # the door contract: whatever number reaches a public argument, the call
    # returns a value whose every float is finite or raises a GhaError, never
    # a bare arithmetic or type error
    name, args = door
    try:
        value = _DOORS[name][0](*args)
    except GhaError:
        return
    held = list(_held_floats(value))
    assert all(math.isfinite(x) for x in held), (value, held)


# name -> a call of one integer parameter x, every other argument valid
_INTEGER_PARAMETERS = {
    "solve_level": lambda x: solve_level(OscillatorModel(4, 1.0, 1.0), x),
    "second_order": lambda x: second_order(OscillatorModel(4, 1.0, 1.0), x),
    "moment.j": lambda x: moment(x, 1),
    "moment.n": lambda x: moment(1, x),
    "converged_levels": lambda x: oracle.converged_levels(OscillatorModel(4, 1.0, 1.0), x, 1e-7),
    "hamiltonian_matrix": lambda x: oracle.hamiltonian_matrix(
        OscillatorModel(4, 1.0, 1.0), oracle._TruncatedBasis(x, 1.0)),
    "gap_residual_scale": lambda x: gap_residual_scale(OscillatorModel(4, 1.0, 1.0), x, Phase.AHO),
    "general_gap_residuals": lambda x: general_gap_residuals(
        OscillatorModel(4, 1.0, 1.0), x, 1.0, 0.0),
    "stevenson": lambda x: qft.stevenson(x, 1.0, 10.0),
    "reference_table": tables.reference_table,
    "run_table": tables.run_table,
}


@pytest.mark.parametrize("name", sorted(_INTEGER_PARAMETERS))
def test_every_integer_parameter_refuses_a_float(name):
    # the door contract for integral floats: an integer parameter takes an
    # int, never a float, even one equal to an int that it admits
    call = _INTEGER_PARAMETERS[name]
    for x in (0.0, 1.0, 2.0, 2.5):
        if x.is_integer():
            # the equal int first, so that a memo holds its entry, if admitted
            try:
                call(int(x))
            except DomainError:
                pass
        with pytest.raises(DomainError, match=f", got {x}$"):
            call(x)
