"""Randomized invariants over the whole model space."""

import math
import random
import sys

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gha.errors import NoPhysicalRoot, NonFiniteValue, PhaseUnavailable
from gha.hartree import (
    HartreeSolution,
    OscillatorModel,
    Phase,
    gap_residual_scale,
    general_gap_residuals,
    moment,
    solve_gap,
    solve_level,
    xi_p,
)
from gha.hipt import second_order
from gha.ladder import ModeParameters, expectation
from gha.vacuum import vacuum_structure

from ladder_reference import hamiltonian_polynomial

powers = st.sampled_from([4, 6, 8])
log_couplings = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
log_stiffness = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
levels = st.integers(min_value=0, max_value=25)


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


def test_levels_are_finite_or_a_typed_error():
    # |g| and λ log-uniform over the whole float range, both signs of g
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
        except (NonFiniteValue, NoPhysicalRoot, PhaseUnavailable) as exc:
            outcomes.add(type(exc))
            continue
        outcomes.add(HartreeSolution)
        values = [sol.omega, sol.sigma, sol.A, sol.B, sol.C, sol.h0, sol.energy]
        for b in sol.branches or ():
            values += [b.omega, b.sigma, b.energy]
        assert all(math.isfinite(v) for v in values), (power, g, lam, n, sol)
    assert {HartreeSolution, NonFiniteValue, PhaseUnavailable} <= outcomes
    with pytest.raises(NonFiniteValue, match="gap start"):
        solve_level(OscillatorModel(power=4, g=1.0, lam=1e308), 0)
    with pytest.raises(NonFiniteValue, match="gap start"):
        solve_level(OscillatorModel(power=4, g=-4e-119, lam=2.9e307), 0)
    # ω⁵ overflows at the start √(2g) ≈ 1.4e150
    with pytest.raises(NonFiniteValue, match="gap residual"):
        solve_gap(OscillatorModel(power=8, g=1e300, lam=1.0), 0, Phase.AHO)
