"""Gap equations, Hartree coefficients, level energies and phase selection."""

import math
import re
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gha import hartree, ladder
from gha.errors import DomainError, NonConvergence, NonFiniteValue, PhaseUnavailable
from gha.hartree import (
    OscillatorModel,
    Phase,
    _gap_poly,
    classical_well_depth,
    critical_coupling,
    gap_residual_scale,
    general_gap_residuals,
    moment,
    solve_level,
    xi_p,
)
from gha.hipt import potential_polynomial, second_order

from conftest import broken_cubic_at_floor, broken_cubic_root, sigma0_gap_root
from ladder_reference import hamiltonian_polynomial

QUARTIC = OscillatorModel(power=4, g=1.0, lam=1.0)
EPS = sys.float_info.epsilon


def level_branch(model, n, phase):
    """The branch of level n in the given phase, as the level solve keeps it:
    the level itself, or one of its two double-well branches."""
    sol = solve_level(model, n)
    (found,) = [b for b in sol.branches or (sol,) if b.phase is phase]
    return found


def gap_root(model, n, phase):
    """ω of one branch alone, from its private solve, which no level may
    reach; the branch must have a root."""
    return hartree._branch(model, n, n + 0.5, phase)[0]


def test_quartic_unit_coupling_frequency_is_two():
    w = solve_level(QUARTIC, 0).omega
    assert abs(w - 2.0) < 1e-13
    assert abs(w**3 - w - 6.0) < 1e-12


def test_symmetry_restored_frequency():
    m = OscillatorModel(power=4, g=-1.0, lam=1.0)
    sol = solve_level(m, 0)
    assert sol.phase is Phase.DWO_SR and sol.branches is None
    w = sol.omega
    # positive root of w^3 + w - 6 = 0
    assert abs(w**3 + w - 6.0) < 1e-11
    assert abs(w - 1.63437) < 1e-5


def test_sextic_frequency_closed_form():
    m = OscillatorModel(power=6, g=1.0, lam=1.0)
    w = solve_level(m, 0).omega
    # w^4 - w^2 - 22.5 = 0  ->  w^2 = (1 + sqrt(91))/2
    assert abs(w * w - 0.5 * (1.0 + math.sqrt(91.0))) < 1e-12


def test_octic_frequency_against_polynomial_roots():
    m = OscillatorModel(power=8, g=1.0, lam=0.5)
    w = solve_level(m, 0).omega
    # w^5 - w^3 - 52.5 = 0, h(1/2) = 3
    roots = np.roots([1.0, 0.0, -1.0, 0.0, 0.0, -52.5])
    positive = [z.real for z in roots if abs(z.imag) < 1e-9 and z.real > 0.0]
    assert len(positive) == 1
    assert abs(w - positive[0]) < 1e-10
    assert abs(w - 2.3024) < 1e-3


def test_critical_coupling_ground_state():
    lam_c = critical_coupling(0.5, -1.0)
    # (2/3)^{3/2}/(3 p(1/2)) with p(1/2) = 2
    assert lam_c == pytest.approx((2.0 / 3.0) ** 1.5 / 6.0, rel=1e-15)
    assert lam_c == pytest.approx(0.0907218423253, rel=1e-10)


def test_critical_coupling_g_scaling():
    assert critical_coupling(0.5, -4.0) == pytest.approx(
        8.0 * critical_coupling(0.5, -1.0), rel=1e-13
    )


def test_critical_coupling_shrinks_with_level():
    vals = [critical_coupling(n + 0.5, -1.0) for n in range(8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert critical_coupling(1e6, -1.0) < 1e-6


def test_critical_coupling_domain():
    with pytest.raises(DomainError):
        critical_coupling(0.5, 1.0)
    with pytest.raises(DomainError):
        critical_coupling(0.25, -1.0)
    # these returned nan, 0.0 for ξ = inf and inf for g = −inf
    for xi, g in ((math.nan, -1.0), (math.inf, -1.0), (0.5, math.nan), (0.5, -math.inf)):
        with pytest.raises(DomainError):
            critical_coupling(xi, g)
    # −2g overflows to inf before the power, and λ_c came back inf; the
    # power itself overflows from g ≈ −4.8e205 on
    for g in (-1e308, -1e206):
        with pytest.raises(NonFiniteValue, match="lambda_c at g="):
            critical_coupling(0.5, g)


def test_hartree_coefficients_symmetric():
    sol = hartree._finish(QUARTIC, 0, 0.5, 2.0, 0.0, Phase.AHO, 0.8125)
    assert abs(sol.A - 1.5) < 1e-14
    assert sol.B == 0.0
    # <phi^4> = A <phi^2> + C at omega=2: 3/16 = 1.5/4 + C
    assert abs(sol.C + 0.1875) < 1e-14


def test_hartree_condition_defines_c():
    # <n|V|n> = <n|phi^{2k}|n> for arbitrary omega, sigma, not only at the
    # self-consistent point, and for each solved level on both branches
    rng = np.random.default_rng(3)
    cases = []
    for power in (4, 6, 8):
        m = OscillatorModel(power=power, g=1.0, lam=0.7)
        for _ in range(5):
            w = float(rng.uniform(0.3, 4.0))
            s = float(rng.uniform(-1.5, 1.5))
            n = int(rng.integers(0, 6))
            cases.append((m, hartree._finish(m, n, n + 0.5, w, s, Phase.AHO, 0.0)))
    for lam in (0.7, 0.05, 0.01):
        m = OscillatorModel(power=4, g=-1.0, lam=lam)
        cases += [(m, solve_level(m, n)) for n in range(3)]
    assert {sol.phase for _, sol in cases} == {Phase.AHO, Phase.DWO_SR, Phase.DWO_SSB}
    for m, sol in cases:
        n = sol.n
        mode = ladder.ModeParameters(omega=sol.omega, sigma=sol.sigma)
        v = ladder.expectation(potential_polynomial(sol.A, sol.B, sol.C, mode), n)
        h_int = ladder.expectation(ladder.field_power(m.power, mode), n)
        assert abs(v - h_int) < 1e-9 * max(1.0, abs(h_int))


def test_level_energies():
    # ω = 2 is the exact root, and E₀ = ξ(3ω + g/ω)/4 = 13/16 there
    assert solve_level(QUARTIC, 0).energy == pytest.approx(0.8125, abs=1e-14)
    m = OscillatorModel(power=4, g=1.0, lam=0.1)
    assert solve_level(m, 0).energy == pytest.approx(0.56031, abs=5e-6)
    m6 = OscillatorModel(power=6, g=1.0, lam=1.0)
    assert solve_level(m6, 0).energy == pytest.approx(0.83780, abs=5e-6)
    m8 = OscillatorModel(power=8, g=1.0, lam=1.0)
    # quoted as half of the doubled convention value 1.7794
    assert solve_level(m8, 0).energy == pytest.approx(0.88970, abs=1e-5)
    assert 2.0 * solve_level(m8, 0).energy == pytest.approx(1.7794, abs=5e-5)


def test_table_one_strong_coupling_cell():
    m = OscillatorModel(power=4, g=1.0, lam=10.0)
    assert solve_level(m, 2).energy == pytest.approx(10.3240, rel=1e-4)


def test_double_well_ground_state():
    m = OscillatorModel(power=4, g=-1.0, lam=0.1)
    sol = solve_level(m, 0)
    assert sol.phase is Phase.DWO_SR
    assert sol.sigma == 0.0
    assert sol.omega == pytest.approx(0.48558, abs=1e-4)
    assert sol.energy == pytest.approx(-0.07537, abs=5e-5)
    assert sol.energy + classical_well_depth(m) == pytest.approx(0.54963, abs=1e-5)


def test_double_well_first_excited():
    m = OscillatorModel(power=4, g=-1.0, lam=1.0)
    sol = solve_level(m, 1)
    assert sol.energy + classical_well_depth(m) == pytest.approx(2.1250, rel=1e-5)


def test_well_depth_is_zero_without_a_well():
    # for g > 0 the minimum of the potential is V(0) = 0; it was g²/(16λ)
    for g, lam in [(1.0, 1.0), (0.3, 1e-3), (1e3, 7.0)]:
        assert classical_well_depth(OscillatorModel(power=4, g=g, lam=lam)) == 0.0
    assert classical_well_depth(OscillatorModel(power=4, g=-1.0, lam=0.1)) == 0.625


@pytest.mark.parametrize("power", [4, 6, 8])
@pytest.mark.parametrize("g, lam", [(-1.0, 0.1), (-4.0, 0.05), (-0.3, 7.0), (-1e3, 1e-2)])
def test_well_depth_is_the_minimum_of_the_potential(power, g, lam):
    # the sextic and octic depths were the quartic g²/(16λ): 0.625 at
    # (6|8, −1, 0.1), where the minima lie 0.43033 and 0.40396 below zero.
    # The minimum here is V at a 50-digit root of V′ = gφ + 2kλφ^{2k−1},
    # bracketed by doubling and halving φ until V′ changes sign
    k = power // 2
    depth = classical_well_depth(OscillatorModel(power=power, g=g, lam=lam))
    with mp.workdps(50):
        g_, lam_ = mp.mpf(g), mp.mpf(lam)
        slope = lambda phi: g_ * phi + 2 * k * lam_ * phi ** (2 * k - 1)
        low = high = mp.mpf(1)
        while slope(high) <= 0:
            high *= 2
        while slope(low) >= 0:
            low /= 2
        phi = mp.findroot(slope, (low, high), solver="illinois")
        exact = -(g_ * phi**2 / 2 + lam_ * phi ** (2 * k))
    assert exact > 0
    assert abs(depth - exact) <= 4 * sys.float_info.epsilon * exact, (depth, exact)


def test_energy_equals_hamiltonian_average():
    cases = [
        (QUARTIC, 0),
        (OscillatorModel(power=4, g=1.0, lam=100.0), 7),
        (OscillatorModel(power=6, g=2.0, lam=0.3), 3),
        (OscillatorModel(power=8, g=0.5, lam=5.0), 2),
        (OscillatorModel(power=4, g=-1.0, lam=1.0), 1),
        (OscillatorModel(power=4, g=-1.0, lam=0.05), 0),  # broken branch
    ]
    for model, n in cases:
        sol = solve_level(model, n)
        mode = ladder.ModeParameters(omega=sol.omega, sigma=sol.sigma)
        direct = ladder.expectation(hamiltonian_polynomial(model, mode), n)
        assert abs(direct - sol.energy) < 1e-9 * max(1.0, abs(sol.energy))


def test_perturbation_average_vanishes():
    rng = np.random.default_rng(11)
    for power in (4, 6, 8):
        for _ in range(4):
            m = OscillatorModel(
                power=power, g=float(rng.uniform(0.2, 3.0)),
                lam=float(10.0 ** rng.uniform(-1.5, 2.0)),
            )
            n = int(rng.integers(0, 10))
            sol = solve_level(m, n)
            mode = ladder.ModeParameters(omega=sol.omega, sigma=sol.sigma)
            h_int = ladder.expectation(ladder.field_power(power, mode), n)
            v = ladder.expectation(
                potential_polynomial(sol.A, sol.B, sol.C, mode), n
            )
            assert abs(h_int - v) < 1e-9


def test_gap_root_is_unique_on_log_grid():
    rng = np.random.default_rng(7)
    grid = np.logspace(-6, 6, 481)
    for power in (4, 6, 8):
        for _ in range(5):
            g = float(rng.uniform(0.2, 5.0))
            if power == 4 and rng.random() < 0.3:
                g = -g
            m = OscillatorModel(power=power, g=g, lam=float(10.0 ** rng.uniform(-3, 3)))
            n = int(rng.integers(0, 12))
            signs = np.sign([general_gap_residuals(m, n, w, 0.0)[0] for w in grid])
            assert np.count_nonzero(np.diff(signs)) == 1
            phase = Phase.AHO if m.g > 0 else Phase.DWO_SR
            w = level_branch(m, n, phase).omega
            assert grid[0] < w < grid[-1]


def test_broken_branch_closed_form_satisfies_cubic():
    rng = np.random.default_rng(42)
    for _ in range(50):
        g = -(10.0 ** float(rng.uniform(-0.7, 0.7)))
        n = int(rng.integers(0, 4))
        lam_c = critical_coupling(n + 0.5, g)
        lam = lam_c * float(rng.uniform(0.05, 0.999))
        m = OscillatorModel(power=4, g=g, lam=lam)
        b = level_branch(m, n, Phase.DWO_SSB)
        w = b.omega
        c0 = 6.0 * lam * xi_p(n + 0.5)
        assert abs(w**3 + 2.0 * g * w + c0) < 1e-10 * max(1.0, abs(c0))
        sigma_squared = -(g + 12.0 * lam * (n + 0.5) / w) / (4.0 * lam)
        assert sigma_squared > 0.0 and b.sigma == math.sqrt(sigma_squared)


def test_broken_branch_satisfies_full_system():
    m = OscillatorModel(power=4, g=-1.0, lam=0.05)
    sol = solve_level(m, 0)
    assert sol.phase is Phase.DWO_SSB
    gap, config = general_gap_residuals(m, 0, sol.omega, sol.sigma)
    assert abs(gap) < 1e-9
    assert abs(config) < 1e-9


def test_phase_selection_around_branch_crossing():
    # the broken branch exists up to lambda_c but stops being the minimum a
    # little earlier; both regimes keep a record of the two branches
    deep = solve_level(OscillatorModel(power=4, g=-1.0, lam=0.05), 0)
    assert deep.phase is Phase.DWO_SSB
    assert deep.sigma > 0.0
    assert deep.branches is not None and len(deep.branches) == 2
    e_by_phase = {b.phase: b.energy for b in deep.branches}
    assert e_by_phase[Phase.DWO_SSB] < e_by_phase[Phase.DWO_SR]

    near = solve_level(OscillatorModel(power=4, g=-1.0, lam=0.085), 0)
    assert near.phase is Phase.DWO_SR
    assert near.branches is not None
    e_by_phase = {b.phase: b.energy for b in near.branches}
    assert e_by_phase[Phase.DWO_SR] <= e_by_phase[Phase.DWO_SSB]

    above = solve_level(OscillatorModel(power=4, g=-1.0, lam=0.2), 0)
    assert above.phase is Phase.DWO_SR
    assert above.branches is None


def test_monotonicity_in_coupling_and_level():
    for power in (4, 6, 8):
        sols = [
            solve_level(OscillatorModel(power=power, g=1.0, lam=lam), 0)
            for lam in (0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a.omega < b.omega for a, b in zip(sols, sols[1:]))
        assert all(a.energy < b.energy for a, b in zip(sols, sols[1:]))
        m = OscillatorModel(power=power, g=1.0, lam=1.0)
        levels = [solve_level(m, n).energy for n in range(8)]
        assert all(a < b for a, b in zip(levels, levels[1:]))


def test_weak_coupling_expansion():
    # E_n = xi + 3 lambda (4 xi^2 + 1)/8 + O(lambda^2) for the quartic AHO
    lam = 1e-8
    m = OscillatorModel(power=4, g=1.0, lam=lam)
    for n in (0, 1, 5):
        xi = n + 0.5
        expected = xi + 3.0 * lam * (4.0 * xi * xi + 1.0) / 8.0
        assert abs(solve_level(m, n).energy - expected) < 1e-12


def test_residuals_scale_with_constant_term():
    m = OscillatorModel(power=4, g=1.0, lam=1000.0)
    for n in (0, 40):
        w = solve_level(m, n).omega
        gap, _ = general_gap_residuals(m, n, w, 0.0)
        assert abs(gap) <= 1e-12 * gap_residual_scale(m, n, Phase.AHO)
    assert gap_residual_scale(QUARTIC, 0, Phase.AHO) == 6.0


@pytest.mark.parametrize("power", [4, 6, 8])
def test_gap_tolerance_scales_with_largest_term(power):
    # g = 1e6, lambda = 1e-6: the root sits at omega ~ sqrt(g) = 1e3, where
    # omega^{k+1} and g omega^{k-1} are ~1e9..1e15 while the constant term is
    # below 1; rounding in the large terms alone leaves residuals far above
    # 1e-12 |c0|
    m = OscillatorModel(power=power, g=1e6, lam=1e-6)
    k = m.k
    for n in (0, 10):
        sol = solve_level(m, n)
        w = sol.omega
        assert w == pytest.approx(1e3, rel=1e-9)
        gap, _ = general_gap_residuals(m, n, w, 0.0)
        assert abs(gap) <= 1e-12 * w ** (k + 1)
        assert sol.energy == pytest.approx(1e3 * (n + 0.5), rel=1e-9)


def test_phase_errors():
    for power in (6, 8):
        with pytest.raises(PhaseUnavailable):
            solve_level(OscillatorModel(power=power, g=-1.0, lam=1.0), 0)


def test_model_validation():
    with pytest.raises(DomainError):
        OscillatorModel(power=5, g=1.0, lam=1.0)
    with pytest.raises(DomainError):
        OscillatorModel(power=4, g=1.0, lam=0.0)
    with pytest.raises(DomainError):
        OscillatorModel(power=4, g=1.0, lam=-2.0)
    with pytest.raises(DomainError):
        OscillatorModel(power=4, g=0.0, lam=1.0)
    # a float power is not integral; it used to fail later, in math.comb
    with pytest.raises(DomainError, match="integer 4, 6 or 8"):
        OscillatorModel(power=4.0, g=1.0, lam=1.0)
    # an integer type other than int is integral
    assert solve_level(OscillatorModel(power=np.int64(6), g=1.0, lam=1.0), 0) == solve_level(
        OscillatorModel(power=6, g=1.0, lam=1.0), 0)
    with pytest.raises(DomainError):
        solve_level(QUARTIC, -1)
    # a float level is not integral; it used to fail in math.comb with a
    # bare TypeError, or to hit the memo of level 2 once that was solved
    for model in (OscillatorModel(power=4, g=-1.0, lam=0.05),
                  OscillatorModel(power=6, g=1.0, lam=1.0)):
        for warm in (False, True):
            if warm:
                second_order(model, 2)
            with pytest.raises(DomainError, match="nonnegative and integral, got 2.0"):
                solve_level(model, 2.0)
            with pytest.raises(DomainError, match="nonnegative and integral, got 2.0"):
                second_order(model, 2.0)
    # an integer type other than int is a level
    assert second_order(OscillatorModel(power=4, g=-1.0, lam=0.05), np.int64(2)) == second_order(
        OscillatorModel(power=4, g=-1.0, lam=0.05), 2)
    with pytest.raises(DomainError):
        moment(1, -1)
    # the moment cache keys on the argument types: a float level is refused
    # after the integer level has been cached, where it was a bare TypeError
    # from math.comb
    moment(2, 1)
    with pytest.raises(DomainError, match="got 1.0"):
        moment(2, 1.0)


def test_residual_helpers_and_moments_return_a_value_or_a_typed_error():
    # each raised a bare OverflowError, ValueError or TypeError
    with pytest.raises(NonFiniteValue, match="^gap residuals of level 0 of Osc"):
        general_gap_residuals(QUARTIC, 0, 1.0, 1e200)
    with pytest.raises(DomainError, match="phase must be AHO, DWO_SR or DWO_SSB, got 'XX'"):
        gap_residual_scale(QUARTIC, 0, "XX")
    assert gap_residual_scale(QUARTIC, 0, "AHO") == gap_residual_scale(QUARTIC, 0, Phase.AHO)
    with pytest.raises(DomainError, match="got 3.0"):
        moment(2, 3.0)
    with pytest.raises(NonFiniteValue, match=r"^moment c_4\(10{200}\) leaves"):
        moment(4, 10**200)
    # c_j(0) = (2j − 1)!!/2^j is the least moment of order j; it is finite
    # at j = 171 and overflows at 172, past which nothing is summed
    assert moment(171, 0) == math.prod(range(1, 342, 2)) / 2**171
    for j in (172, 10**9):
        with pytest.raises(NonFiniteValue, match=f"^moment c_{j}\\(0\\)"):
            moment(j, 0)


@pytest.mark.parametrize("power, g, lam", [(4, -1e200, 1.0), (6, -409, 5e-324)])
def test_well_depth_past_float_range_is_non_finite(power, g, lam):
    # g² or |g|/(2kλ) overflows without raising, and the depth was inf
    model = OscillatorModel(power=power, g=g, lam=lam)
    with pytest.raises(NonFiniteValue, match=rf"^well depth of {re.escape(repr(model))} leaves"):
        classical_well_depth(model)


def test_residual_scale_past_float_range_is_non_finite():
    # c₀ = 2kλc_k(n)/ξ overflows without raising, and the scale was inf
    model = OscillatorModel(power=8, g=1.0, lam=1e308)
    with pytest.raises(NonFiniteValue, match="^gap residual scale of level 40 of Osc"):
        gap_residual_scale(model, 40, Phase.AHO)


@pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan, 10**400],
                         ids=["inf", "-inf", "nan", "10**400"])
def test_residuals_refuse_a_shift_that_is_not_finite(sigma):
    # ±inf and NaN came back as residuals of ±inf or NaN
    with pytest.raises(DomainError, match="^sigma must be finite, got"):
        general_gap_residuals(QUARTIC, 0, 2.0, sigma)


def test_residuals_past_float_range_are_non_finite():
    # the gap residual overflowed to −inf without raising
    model = OscillatorModel(power=8, g=1.0, lam=1e308)
    with pytest.raises(NonFiniteValue, match="^gap residuals of level 40 of Osc"):
        general_gap_residuals(model, 40, 1.0, 0.0)


def test_overflow_is_a_typed_error_naming_the_model():
    # sigma^2 = 1/(4 lam) ~ 2.5e299, so sigma^p overflows in the averages
    model = OscillatorModel(power=4, g=-1.0, lam=1e-300)
    with pytest.raises(NonFiniteValue, match=r"OscillatorModel\(power=4, g=-1.0, lam=1e-300\)"):
        solve_level(model, 0)


def test_overflowing_energy_fails_the_winner_step_by_its_range_rule():
    # the winning DWO_SR energy g/ω overflows to −inf (and ω² underflows in
    # the averages).  The winner step's one range rule, a finite σ + E₀ on
    # every branch it solved, fails the level before any coefficient is
    # formed, also at the winner step that second order takes its
    # neighbours to; the message carries no arithmetic error
    model = OscillatorModel(power=4, g=-1.011159896108892e+138, lam=9.030102062832079e-104)
    message = r"^level 11 of OscillatorModel\(.*\) leaves floating-point range$"
    with pytest.raises(NonFiniteValue, match=message):
        solve_level(model, 11)
    fresh = OscillatorModel(power=4, g=-1.011159896108892e+138, lam=9.030102062832079e-104)
    with pytest.raises(NonFiniteValue, match=message):
        hartree._winner(fresh, 11, 11.5)
    assert not fresh._winners and not fresh._levels


@pytest.mark.parametrize("g, lam, n", [
    # the root underflows to 0.0
    (-1.7426264624882977e55, 1.9574360759863343e-306, 2),
    # the root is the subnormal 8.23e-317, its residual 1.4e-8 of its terms
    (-4.750424056133419e162, 1.1754133192628986e-155, 5),
])
def test_gap_root_below_normal_range_is_non_finite(g, lam, n):
    # the symmetry-restored branch is solved first, so its error is the level's
    model = OscillatorModel(power=4, g=g, lam=lam)
    with pytest.raises(NonFiniteValue, match=r"gap root of level \d+ of Osc"):
        solve_level(model, n)


@pytest.mark.parametrize("power, g, lam, n, phase", [
    # −2g overflows, and the broken branch returned ω = inf unchecked
    (4, -1e308, 1e-300, 0, Phase.DWO_SSB),
])
def test_gap_start_out_of_range_is_non_finite(power, g, lam, n, phase):
    # the start, √(−2g) raised by 1 + 4ε, is not finite, nor is the root
    # the descent stops at; the level's symmetry-restored branch fails first,
    # where g₁ = g/4^j overflows
    model = OscillatorModel(power=power, g=g, lam=lam)
    with pytest.raises(NonFiniteValue, match="gap root of level 0 of Osc"):
        gap_root(model, n, phase)
    with pytest.raises(NonFiniteValue, match="range: math range error"):
        solve_level(model, n)


@pytest.mark.parametrize("power, g, lam, n", [
    # ω² ≈ 3.5e-314 is subnormal; in the model's units the start 2.6e-157 had
    # ω² ≈ 7.0e-314, and the residual check failed on a root that had lost
    # its digits
    (6, -1.9131896110902806e34, 2.1050516422410636e-283, 14),
    # ω³ ≈ 2.1e-318 is subnormal; in the model's units the descent from the
    # start 1.6e-106 spent all its steps
    (8, -5.233714652376457e246, 2.9074180988384645e-75, 4),
    # ω = 2.18e-107, with c₀, |g|ω and ω³ all subnormal in the model's units,
    # where the root came back 1.1e-5 off the root for the exact λ
    (4, -1.4710131100118016e-212, 1.556e-321, 35),
])
def test_gaps_below_normal_range_in_model_units_solve(power, g, lam, n):
    # each gap was NonFiniteValue ("gap start" or "gap root") while it was
    # solved in the model's units; at its own scale its terms are near 1
    model = OscillatorModel(power=power, g=g, lam=lam)
    w = gap_root(model, n, Phase.DWO_SR)
    root = sigma0_gap_root(power, g, lam, n)
    assert abs(w - root) <= 4 * EPS * root, (w, root)
    if power != 4:
        # no level reaches the sextic and octic double wells
        with pytest.raises(PhaseUnavailable):
            solve_level(model, n)
        return
    # both branches solve, and the restored one wins
    sol = solve_level(model, n)
    assert sol.phase is Phase.DWO_SR and sol.omega == w
    (broken,) = [b.omega for b in sol.branches if b.phase is Phase.DWO_SSB]
    root = broken_cubic_root(g, lam, n)
    assert abs(broken - root) <= 4 * EPS * root, (broken, root)


def test_broken_branch_residual_overflow_is_non_finite():
    # c₀′ = −6λp(ξ) overflows in the model's units, where the residual was
    # nan against a tolerance inf.  At its own scale the root solves, but σ²
    # needs 12λ, which overflows, so the level fails.  λ lies 1.6e-12 below
    # λ_c, so the root lies 1e-6 above the floor, where f′ is 6e-6 of the
    # cubic's terms: their rounding moves it by up to about 1e-10
    model = OscillatorModel(power=4, g=-3.3612749348220363e+205, lam=1.7679416060938297e+307)
    w = gap_root(model, 0, Phase.DWO_SSB)
    root = broken_cubic_root(model.g, model.lam, 0)
    assert abs(w - root) <= 1e-10 * root, (w, root)
    with pytest.raises(NonFiniteValue, match="level 0 of Osc.* leaves floating-point range$"):
        solve_level(model, 0)


@pytest.mark.parametrize("g, lam, n", [
    # 12λξ overflows, and σ² = −(g + 12λξ/ω)/(4λ) is −∞, whose square root
    # raised ValueError
    (-1e250, 2e307, 1),
    # 12λ and 16λ overflow, σ and E₀ are nan, and the restored branch won
    # the comparison with that nan
    (-2.523205182059445e226, 1.736061847941676e308, 10),
])
def test_broken_branch_that_overflows_in_model_units_fails_the_level(g, lam, n):
    # the broken root is in range at its own scale, where the parent's gap
    # overflowed; its σ and E₀ are formed in the model's units and are not
    model = OscillatorModel(power=4, g=g, lam=lam)
    assert gap_root(model, n, Phase.DWO_SSB) < math.inf
    with pytest.raises(NonFiniteValue, match=rf"^level {n} of Osc.* floating-point range$"):
        solve_level(model, n)
    with pytest.raises(NonFiniteValue, match=rf"^level {n} of Osc"):
        second_order(OscillatorModel(power=4, g=g, lam=lam), n)


def test_broken_branch_start_keeps_a_representable_root():
    # the start √g′ = √(−2g) lies above the root; in the model's units its
    # cube is finite for g down to about −1.59e205, and the cube of
    # √(2g′) = √(−4g) overflows below about −7.95e204, a start from which
    # this branch raised NonFiniteValue although its root is a normal float
    model = OscillatorModel(power=4, g=-1e205, lam=1.0)
    with mp.workdps(60):
        # ω³ + 2gω + 6λp(½) at λ = 1, p(½) = 2
        roots = mp.polyroots([1, 0, 2 * mp.mpf(model.g), 12], maxsteps=200, extraprec=400)
        root = max(mp.re(r) for r in roots)
    w = gap_root(model, 0, Phase.DWO_SSB)
    assert w == 4.4721359549995794e102
    assert abs(w - root) <= 4 * EPS * root
    # here the root's own ω³ overflows in the model's units, where the
    # branch raised NonFiniteValue ("gap residual"); at its own scale it solves
    w = gap_root(OscillatorModel(power=4, g=-2e205, lam=1.0), 0, Phase.DWO_SSB)
    root = broken_cubic_root(-2e205, 1.0, 0)
    assert w == 6.324555320336758e102
    assert abs(w - root) <= 4 * EPS * root


@pytest.mark.parametrize("power, g, lam, n", [
    (6, 6.979364091694545e+153, 2.045428646696486e+292, 27),
    (8, 1.9874511174897914e+123, 6.870625526609761e-64, 24),
    (4, 2.8221902846125436e+205, 1.945912810192572e+67, 11),
])
def test_levels_in_range_where_sqrt_2g_overflows(power, g, lam, n):
    # ω^{k+1} overflows at √(2g), above these roots near √g, although the
    # terms at each root are finite: from that start the levels raised
    # NonFiniteValue ("gap residual").  From √(g + c₀^{2/(k+1)}) the descent
    # stays in range down to the root
    model = OscillatorModel(power=power, g=g, lam=lam)
    sol = solve_level(model, n)
    assert sol.phase is Phase.AHO
    root = sigma0_gap_root(power, g, lam, n)
    assert abs(sol.omega - root) <= 4 * EPS * root, (sol.omega, root)
    if power == 6:
        assert sol.omega == 8.354258849070841e76


def test_gap_check_rejects_an_unmoved_start(monkeypatch):
    cases = [
        # every term of this gap is far below 1; the start 9.0e-27 is twice
        # the root 4.5e-27, and its residual c₀ ≈ 9.6e-30 is wrong at the
        # scale of the terms, though below an absolute 1e-12
        (-2.110974189309853e-3, 1.5963222272433442e-30, Phase.DWO_SR, 4.5e-27),
        # the broken branch starts at √g′ = √2, 2% above its root, where the
        # residual is c₀′ = −0.12 against terms of about 2.8
        (-1.0, 0.01, Phase.DWO_SSB, 1.3832),
    ]
    for g, lam, phase, root in cases:
        model = OscillatorModel(4, g, lam)
        assert level_branch(model, 0, phase).omega == pytest.approx(root, rel=0.01)
    monkeypatch.setattr(hartree, "_newton", lambda k, g, c0, w, floor:
                        (w, w ** (k + 1) - g * w ** (k - 1) - c0, w ** (k + 1), g * w ** (k - 1)))
    for g, lam, phase, _ in cases:
        # each branch's own check; the level stops at the symmetry-restored
        # branch, which it solves first
        with pytest.raises(NonConvergence, match="gap residual"):
            gap_root(OscillatorModel(4, g, lam), 0, phase)
        with pytest.raises(NonConvergence, match="gap residual"):
            solve_level(OscillatorModel(4, g, lam), 0)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(4, 1.0), (4, -1.0), (6, 1.0), (8, 1.0)]),
       st.floats(min_value=-1.0, max_value=3.0), st.floats(min_value=-4.0, max_value=0.5),
       st.integers(min_value=0, max_value=40))
@example((4, -1.0), 0.0, -1.5, 2)  # both branches, the broken one lower
@example((4, -1.0), 0.0, -0.01, 2)  # both branches, the restored one lower
def test_winner_step_is_one_of_its_branches(shape, log_g, log_lam, n):
    # the winner is one of the branches the step solved; on the double well
    # λ = λ_c(n)·10^log_lam, so both branches exist where log_lam ≤ 0
    power, sign = shape
    g = sign * 10.0**log_g
    lam = (critical_coupling(n + 0.5, g) if g < 0.0 else 1.0) * 10.0**log_lam
    model = OscillatorModel(power=power, g=g, lam=lam)
    *won, branches = hartree._winner(model, n, n + 0.5)
    if branches is not None:
        assert tuple(won) in branches


# Hand-expanded per-power formulas, kept as the reference for the moment
# core.  Each returns the terms of its expression, so agreement can be
# judged against the largest term rather than a cancelled sum.


def _f(xi):
    return xi + 1.0 / (4.0 * xi)


def _h(xi):
    return xi**3 + 3.5 * xi + 9.0 / (16.0 * xi)


def reference_a(power, xi, w, s):
    if power == 4:
        return [6.0 * s * s, 3.0 * _f(xi) / w]
    if power == 6:
        return [
            15.0 * s**4,
            45.0 * s * s * (4.0 * xi * xi + 1.0) / (4.0 * xi * w),
            15.0 / (8.0 * w * w) * (4.0 * xi * xi + 5.0),
        ]
    return [
        28.0 * s**6,
        105.0 * s**4 * (4.0 * xi * xi + 1.0) / (2.0 * xi * w),
        105.0 / (2.0 * w * w) * s * s * (4.0 * xi * xi + 5.0),
        35.0 * _h(xi) / (2.0 * w**3),
    ]


def reference_gap(power, g, lam, xi, w, s):
    if power == 4:
        return [w**3, -w * g, -w * 12.0 * lam * s * s, -6.0 * lam * _f(xi)]
    if power == 6:
        return [
            w**4,
            -w * w * g,
            -w * w * 30.0 * lam * s**4,
            -45.0 * lam * s * s * w * (4.0 * xi * xi + 1.0) / (2.0 * xi),
            -3.75 * lam * (4.0 * xi * xi + 5.0),
        ]
    return [
        w**5,
        -(w**3) * g,
        -(w**3) * 56.0 * lam * s**6,
        -105.0 * lam * s**4 * w * w * (4.0 * xi * xi + 1.0) / xi,
        -105.0 * lam * s * s * w * (4.0 * xi * xi + 5.0),
        -35.0 * lam * _h(xi),
    ]


def reference_gap_derivative(power, g, w):
    """d/dω of the σ = 0 gap polynomial."""
    if power == 4:
        return [3.0 * w * w, -g]
    if power == 6:
        return [4.0 * w**3, -2.0 * g * w]
    return [5.0 * w**4, -3.0 * g * w * w]


def reference_bracket(power, g, lam, xi, w, s):
    """Terms of σ times the ground-state-configuration bracket."""
    if power == 4:
        terms = [g, 4.0 * lam * s * s, 12.0 * lam * xi / w]
    elif power == 6:
        terms = [
            g,
            6.0 * lam * s**4,
            60.0 * lam * s * s * xi / w,
            11.25 * lam * (4.0 * xi * xi + 1.0) / (w * w),
        ]
    else:
        terms = [
            g,
            8.0 * lam * s**6,
            168.0 * lam * s**4 * xi / w,
            105.0 * lam * s * s * (4.0 * xi * xi + 1.0) / (w * w),
            35.0 * lam * xi * (4.0 * xi * xi + 5.0) / w**3,
        ]
    return [s * t for t in terms]


def reference_energy(power, g, xi, w):
    if power == 4:
        return [0.25 * xi * 3.0 * w, 0.25 * xi * g / w]
    if power == 6:
        return [xi / 3.0 * 2.0 * w, xi / 3.0 * g / w]
    return [0.125 * xi * 5.0 * w, 0.125 * xi * 3.0 * g / w]


def assert_matches_terms(value, terms, rel=1e-13):
    assert abs(value - math.fsum(terms)) <= rel * max(abs(t) for t in terms)


@pytest.mark.parametrize("power", [4, 6, 8])
def test_moment_core_reproduces_closed_forms(power):
    rng = np.random.default_rng(power)
    for _ in range(150):
        g = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))
        lam = float(10.0 ** rng.uniform(-4, 4))
        w = float(10.0 ** rng.uniform(-1.5, 1.5))
        s = float(rng.uniform(-3.0, 3.0))
        n = int(rng.integers(0, 41))
        xi = n + 0.5
        m = OscillatorModel(power=power, g=g, lam=lam)
        phase = Phase.AHO if g > 0 else Phase.DWO_SR
        sol = hartree._finish(m, n, xi, w, s, phase, 0.0)
        a_terms = reference_a(power, xi, w, s)
        assert_matches_terms(sol.A, a_terms)
        # B = σω²/λ, from completing the square in H₀
        assert sol.B == s * w * w / lam
        mode = ladder.ModeParameters(omega=w, sigma=s)
        avg = ladder.expectation(ladder.field_power(power, mode), n)
        avg_phi2 = s * s + xi / w
        c_terms = [avg, -math.fsum(a_terms) * avg_phi2, s * w * w / lam * s]
        assert_matches_terms(sol.C, c_terms)

        gap, config = general_gap_residuals(m, n, w, s)
        assert_matches_terms(gap, reference_gap(power, g, lam, xi, w, s))
        assert_matches_terms(config, reference_bracket(power, g, lam, xi, w, s))

        k, g_gap, c0 = _gap_poly(m, n, xi, phase, lam)
        assert (k, g_gap) == (power // 2, g)
        assert_matches_terms(w ** (k + 1) - g_gap * w ** (k - 1) - c0,
                             reference_gap(power, g, lam, xi, w, 0.0))
        assert_matches_terms((k + 1) * w**k - (k - 1) * g_gap * w ** (k - 2),
                             reference_gap_derivative(power, g, w))
        if power == 4 and g < 0:
            # the broken branch's cubic ω³ + 2gω + 6λp(ξ) and its energy,
            # measured from the bottom of the wells
            k, g_gap, c0 = _gap_poly(m, n, xi, Phase.DWO_SSB, lam)
            assert (k, g_gap, c0) == (2, -2.0 * g, -6.0 * lam * xi_p(xi))
            assert_matches_terms(w**3 - g_gap * w - c0,
                                 [w**3, 2.0 * g * w, 6.0 * lam * xi_p(xi)])
            assert_matches_terms(3 * w**2 - g_gap, [3.0 * w * w, 2.0 * g])
        # E₀ of each branch at its own root, through the level where it
        # reaches the branch; the sextic and octic double wells have no level
        if g < 0 and power != 4:
            w0, _, _, energy = hartree._branch(m, n, xi, Phase.DWO_SR)
            found = [(Phase.DWO_SR, w0, energy)]
        else:
            level = solve_level(m, n)
            found = [(b.phase, b.omega, b.energy) for b in level.branches or (level,)]
        for branch_phase, w0, energy in found:
            if branch_phase is Phase.DWO_SSB:
                # the cubic's energy, measured from the bottom of the wells
                assert_matches_terms(energy, [0.75 * xi * w0, -0.5 * xi * g / w0,
                                              -g * g / (16.0 * lam)])
            else:
                assert_matches_terms(energy, reference_energy(power, g, xi, w0))


def test_moments_match_ladder_algebra():
    unit = ladder.ModeParameters(1.0)
    for j in range(7):
        poly = ladder.field_power(2 * j, unit)
        for n in range(41):
            assert moment(j, n) == pytest.approx(
                ladder.expectation(poly, n), rel=1e-14, abs=0.0
            )


def test_symmetry_restored_root_below_old_bracket():
    # the symmetry-restored root 6 lambda f / |g| ~ 6e-12 lies far below any
    # fixed positive lower bracket; the broken branch wins by energy
    m = OscillatorModel(power=4, g=-1e6, lam=1e-6)
    w_sr = level_branch(m, 0, Phase.DWO_SR).omega
    assert w_sr == pytest.approx(6e-12, rel=1e-9)
    sol = solve_level(m, 0)
    assert sol.phase is Phase.DWO_SSB
    assert sol.omega == pytest.approx(math.sqrt(2e6), rel=1e-12)


@pytest.fixture
def calls(monkeypatch):
    """Levels that reach the unmemoized solve, in call order."""
    seen = []
    real = hartree._solve_level
    monkeypatch.setattr(hartree, "_solve_level",
                        lambda model, n, xi: seen.append(n) or real(model, n, xi))
    return seen


def test_double_well_level_computes_no_lambda_c(monkeypatch):
    # the broken cubic decides from its value at the floor whether it has a
    # root; λ_c is only reported
    def refuse(xi, g):
        raise AssertionError(f"critical_coupling({xi}, {g}) called by a level")

    monkeypatch.setattr(hartree, "critical_coupling", refuse)
    # below λ_c(½, −1) ≈ 0.0907 both branches, above it the restored one alone
    below = solve_level(OscillatorModel(power=4, g=-1.0, lam=0.05), 0)
    assert below.phase is Phase.DWO_SSB and len(below.branches) == 2
    above = solve_level(OscillatorModel(power=4, g=-1.0, lam=0.1), 0)
    assert above.phase is Phase.DWO_SR and above.branches is None


def test_recorded_double_well_levels():
    # λ equals fl(λ_c) but lies above the exact λ_c, so the broken cubic has
    # no root above its floor; the level used to raise NonConvergence there
    sol = solve_level(OscillatorModel(4, -4.006705135200882e-205, 1.411688802e-314), 651949)
    assert sol.phase is Phase.DWO_SR and sol.branches is None
    assert sol.omega == 1.3207177664343732e-103
    # the symmetric root 3.2e-151 has |g|ω and c₀ subnormal in the model's
    # units, where its range rule failed the level; at its own scale it
    # solves, and the broken branch, which won before its range rule, wins
    g, lam = -4.165636187898341e-162, 1.2732862223e-314
    sol = solve_level(OscillatorModel(4, g, lam), 17)
    assert sol.phase is Phase.DWO_SSB
    assert (sol.omega, sol.energy) == (2.886394355557931e-81, -9.70060064237261e-11)
    (sr,) = [b.omega for b in sol.branches if b.phase is Phase.DWO_SR]
    assert sr == 3.212095010840359e-151
    for w, root in ((sol.omega, broken_cubic_root(g, lam, 17)),
                    (sr, sigma0_gap_root(4, g, lam, 17))):
        assert abs(w - root) <= 4 * EPS * root, (w, root)
    # deep wells: E_n and E_m both round to −g²/(16λ) before they are
    # subtracted.  These flip once the denominators are taken from the
    # difference of the two gap equations
    for g, lam, m in ((-1e10, 1e-3, 4), (-5.7626184661591784e+94, 1.8745925611625049e+81, 2)):
        with pytest.raises(NonConvergence, match=f"degenerate denominator between levels 5 and {m}"):
            second_order(OscillatorModel(4, g, lam), 5)


def test_levels_are_solved_once_per_model(calls):
    m = OscillatorModel(power=6, g=1.0, lam=0.3)
    first = solve_level(m, 5)
    assert solve_level(m, 5) is first
    assert calls == [5]
    # an equal but separate model solves again: the memo is per instance
    assert solve_level(OscillatorModel(power=6, g=1.0, lam=0.3), 5) == first
    assert calls == [5, 5]


def test_failed_solves_are_not_memoized(calls):
    m = OscillatorModel(power=6, g=-1.0, lam=1.0)
    for _ in range(2):
        with pytest.raises(PhaseUnavailable):
            solve_level(m, 0)
    assert calls == [0, 0]
    # the start √(g + c₀^{2/3}) of this level overflowed in the model's
    # units; at its own scale it solves, once
    wide = OscillatorModel(power=4, g=1e300, lam=1e300)
    assert solve_level(wide, 40) is solve_level(wide, 40)
    root = sigma0_gap_root(4, 1e300, 1e300, 40)
    assert abs(wide._levels[40].omega - root) <= 4 * EPS * root
    # the symmetry-restored root 7e-361 lies below the float range
    overflowing = OscillatorModel(power=4, g=-1.7426264624882977e55, lam=1.9574360759863343e-306)
    for _ in range(2):
        with pytest.raises(NonFiniteValue, match="gap root"):
            solve_level(overflowing, 40)
    assert calls == [0, 0, 40, 40, 40]
    # the winner step holds (E₀ ≈ −6.25e258) but σ⁴ ≈ 6e318 overflows in
    # the coefficients: the winner is kept, the solution never is
    deep = OscillatorModel(power=4, g=-1e100, lam=1e-60)
    for _ in range(2):
        with pytest.raises(NonFiniteValue, match="level 0 of"):
            solve_level(deep, 0)
        with pytest.raises(NonFiniteValue, match="level 0 of"):
            second_order(deep, 0)
    assert calls == [0, 0, 40, 40, 40, 0]
    assert deep._winners[0][2] is Phase.DWO_SSB and 0 not in deep._levels


def test_neighbours_stop_at_the_winner_step(calls):
    # second order reads only the energies of level 5's neighbours; their
    # winners are kept, so a later full solve of one adds no gap solve
    m = OscillatorModel(power=4, g=1.0, lam=1.0)
    second_order(m, 5)
    assert calls == [5, 1, 3, 7, 9]
    assert 5 in m._levels and 3 not in m._levels
    assert solve_level(m, 3) == solve_level(OscillatorModel(power=4, g=1.0, lam=1.0), 3)
    # the one new solve is the separate model's
    assert calls == [5, 1, 3, 7, 9, 3]


def test_memo_leaves_equality_hash_and_repr_alone():
    warm = OscillatorModel(power=4, g=-1.0, lam=0.05)
    cold = OscillatorModel(power=4, g=-1.0, lam=0.05)
    for n in range(4):
        solve_level(warm, n)
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold) == "OscillatorModel(power=4, g=-1.0, lam=0.05)"
    assert {warm: 1}[cold] == 1
    assert warm != OscillatorModel(power=4, g=-1.0, lam=0.06)


def test_model_keeps_the_contract_of_a_frozen_record():
    # a plain __slots__ class with the repr, equality, hash, construction
    # and validation of the frozen dataclass it replaced
    model = OscillatorModel(4, 1.0, 1.0)
    assert repr(model) == "OscillatorModel(power=4, g=1.0, lam=1.0)"
    assert model == OscillatorModel(power=4, g=1.0, lam=1.0) == OscillatorModel(4, 1.0, lam=1.0)
    assert hash(model) == hash((4, 1.0, 1.0))
    # the memo dicts take no part in equality and hash
    solve_level(model, 3)
    assert model == OscillatorModel(4, 1.0, 1.0) and hash(model) == hash((4, 1.0, 1.0))
    for other in (OscillatorModel(6, 1.0, 1.0), OscillatorModel(4, 2.0, 1.0),
                  OscillatorModel(4, 1.0, 2.0), (4, 1.0, 1.0)):
        assert model != other
    # k is an int, whatever integer type power has
    wide = OscillatorModel(np.int64(6), 1.0, 1.0)
    assert type(wide.k) is int and wide.k == 3
    assert repr(wide) == f"OscillatorModel(power={np.int64(6)!r}, g=1.0, lam=1.0)"
    assert wide == OscillatorModel(6, 1.0, 1.0) and hash(wide) == hash(OscillatorModel(6, 1.0, 1.0))
    # power is checked first, then λ, then g, each with its own message
    for args, message in [
        ((5, 0.0, -1.0), "anharmonic power must be the integer 4, 6 or 8, got 5"),
        ((4.0, 1.0, 1.0), "anharmonic power must be the integer 4, 6 or 8, got 4.0"),
        ((4, 0.0, -1.0), "coupling must be positive, got -1.0"),
        ((4, math.nan, math.nan), "coupling must be positive, got nan"),
        ((6, 1.0, math.inf), "coupling must be positive, got inf"),
        ((4, 0.0, 1.0), "quadratic coefficient must be nonzero, got 0.0"),
        ((8, -math.inf, 1.0), "quadratic coefficient must be nonzero, got -inf"),
    ]:
        with pytest.raises(DomainError) as err:
            OscillatorModel(*args)
        assert str(err.value) == message
    # no field, memo or new attribute can be assigned or deleted
    for name in ("power", "g", "lam", "k", "_frexp", "_winners", "_levels", "other"):
        with pytest.raises(AttributeError):
            setattr(model, name, 2)
    for name in ("g", "_levels"):
        with pytest.raises(AttributeError):
            delattr(model, name)
    assert (model.power, model.g, model.lam, model.k) == (4, 1.0, 1.0, 2)
    assert solve_level(model, 3) is model._levels[3]


def test_broken_branch_at_the_double_root():
    # at λ = λ_c the cubic's two largest roots merge at √(−2g/3), which
    # float64 fixes only to about √ε; there f′ is rounding noise, and a
    # Newton step that leaves the region above the minimum lands far off.
    # The cubic at that floor is rounding noise too, so at λ = fl(λ_c) a
    # level may drop the broken branch, but only where the exact cubic
    # there is not below the rounding of its largest term
    rng = np.random.default_rng(5)
    lost = 0
    for _ in range(200):
        g = -(10.0 ** float(rng.uniform(-2, 4)))
        n = int(rng.integers(0, 11))
        m = OscillatorModel(power=4, g=g, lam=critical_coupling(n + 0.5, g))
        if solve_level(m, n).branches is None:
            lost += 1
            value, top = broken_cubic_at_floor(g, m.lam, n)
            assert value >= -4 * EPS * top, (g, n, value / top)
            continue
        w = level_branch(m, n, Phase.DWO_SSB).omega
        assert w == pytest.approx(math.sqrt(-2.0 * g / 3.0), rel=1e-7)
    # rounding goes both ways here: 55 of these 200 draws drop the branch
    assert 0 < lost < 200


def test_broken_branch_solves_well_within_its_steps(monkeypatch):
    # near λ_c the root nears the floor √(g′/3), where f′ vanishes, and the
    # descent from √g′ about halves its distance per step; over the whole
    # range it took at most 29 steps, so 40 must still solve every level
    monkeypatch.setattr(hartree, "_NEWTON_STEPS", 40)
    rng = np.random.default_rng(23)
    for _ in range(300):
        g = -(10.0 ** float(rng.uniform(-3, 4)))
        n = int(rng.integers(0, 41))
        lam = critical_coupling(n + 0.5, g) * (1.0 - 10.0 ** float(rng.uniform(-16, -1)))
        w = level_branch(OscillatorModel(power=4, g=g, lam=lam), n, Phase.DWO_SSB).omega
        assert w > math.sqrt(-2.0 * g / 3.0)


def test_broken_branch_b_keeps_its_digits():
    # B = σω²/λ moves by rounding alone when ω moves by one ulp; forms that
    # lean on the configuration equation, (1+g)σω²/λ + ω²∂_σ⟨φ⁴⟩, cancel two
    # terms |g| times larger than B and move by about |g| ulps
    m = OscillatorModel(power=4, g=-8.6e5, lam=1.4e-5)
    n = 19
    sol = solve_level(m, n)
    assert sol.phase is Phase.DWO_SSB
    for direction in (math.inf, -math.inf):
        moved = hartree._finish(m, n, n + 0.5, math.nextafter(sol.omega, direction),
                                sol.sigma, sol.phase, sol.energy)
        assert abs(moved.B - sol.B) <= 1e-14 * abs(sol.B)


@pytest.mark.parametrize("g, lam, field", [(10**400, 1.0, "quadratic"), (1.0, 10**400, "coupling"),
                                           (-(10**400), 1.0, "quadratic")])
def test_model_refuses_an_int_too_large_for_a_float(g, lam, field):
    # math.isfinite raises OverflowError on such an int; it is bad input
    with pytest.raises(DomainError, match=f"^{field}"):
        OscillatorModel(4, g, lam)
