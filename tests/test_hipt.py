"""Second-order corrections on the Hartree basis."""

import math
import os
import random
import subprocess
import sys

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gha import hipt, ladder
from gha.errors import NonConvergence
from gha.hartree import (OscillatorModel, Phase, classical_well_depth, critical_coupling,
                         solve_level)
from gha.hipt import build_h_prime, h_prime_column, second_order

QUARTIC = OscillatorModel(power=4, g=1.0, lam=1.0)


def test_quartic_ground_state_anchor():
    rep = second_order(QUARTIC, 0)
    assert rep.e0 == pytest.approx(0.8125, abs=1e-13)
    assert rep.e2 == pytest.approx(0.80321, rel=1e-4)
    assert rep.e2 == pytest.approx(0.8032063615, abs=1e-8)


def test_weak_coupling_anchor():
    rep = second_order(OscillatorModel(power=4, g=1.0, lam=0.1), 0)
    assert rep.e2 == pytest.approx(0.55911, rel=1e-4)


def test_single_channel_at_ground_state():
    # for n=0 the m=2 element cancels between phi^4 and A phi^2, so only
    # m=4 survives inside the band
    rep = second_order(QUARTIC, 0)
    assert [c.m for c in rep.contributions] == [4]
    c = rep.contributions[0]
    assert c.numerator**2 == pytest.approx(6.0 / 64.0, rel=1e-12)
    assert c.numerator == pytest.approx(math.sqrt(6.0) / 8.0, rel=1e-12)
    assert c.denominator == pytest.approx(
        rep.e0 - solve_level(QUARTIC, 4).energy, rel=1e-13
    )
    assert c.denominator == pytest.approx(-10.0875, abs=5e-3)
    assert rep.delta_e2 == pytest.approx(c.numerator**2 / c.denominator, rel=1e-13)
    assert rep.e2 == rep.e0 + rep.delta_e2


def test_matrix_elements_of_h_prime():
    sol = solve_level(QUARTIC, 0)
    hp = build_h_prime(QUARTIC, sol)
    assert ladder.matrix_element(hp, 4, 0) == pytest.approx(
        math.sqrt(6.0) / 8.0, rel=1e-12
    )
    assert abs(ladder.matrix_element(hp, 2, 0)) < 1e-13
    assert abs(ladder.matrix_element(hp, 0, 0)) < 1e-13


def _column_draws(count, seed):
    # a third of the draws sit below λ_c of a quartic double well, where the
    # broken branch (σ ≠ 0) wins about half the time
    rng = random.Random(seed)
    while count:
        n = rng.randint(0, 40)
        if count % 3 == 0:
            g = -(10.0 ** rng.uniform(0.0, 3.0))
            yield 4, g, critical_coupling(n + 0.5, g) * rng.uniform(0.01, 0.99), n
        else:
            # negative-g spectra exist for the quartic only
            power = rng.choice((4, 6, 8))
            g = rng.choice((1.0, -1.0)) if power == 4 else 1.0
            yield power, g, 10.0 ** rng.uniform(-2.0, 4.0), n
        count -= 1


def test_column_matches_ladder_algebra():
    broken = 0
    for power, g, lam, n in _column_draws(300, seed=8):
        model = OscillatorModel(power=power, g=g, lam=lam)
        sol = solve_level(model, n)
        broken += sol.phase is Phase.DWO_SSB
        column = h_prime_column(model, sol, n)
        assert list(column) == list(range(max(0, n - power), n + power + 1))
        reference = build_h_prime(model, sol)
        scale = max(abs(v) for v in column.values())
        if sol.sigma:
            # on the broken branch the elements are differences of terms up
            # to ~σ^{2k}, far larger than the elements; both sides round there
            mode = ladder.ModeParameters(omega=sol.omega, sigma=sol.sigma)
            terms = (ladder.field_power(power, mode), ladder.field_power(2, mode).scale(sol.A),
                     ladder.field_power(1, mode).scale(sol.B), ladder.constant(sol.C))
            scale = max(sum(abs(ladder.matrix_element(t, m, n)) for t in terms) for m in column)
        for m, value in column.items():
            want = ladder.matrix_element(reference, m, n)
            assert abs(value - want) <= 1e-13 * scale, (power, g, lam, n, m)
            if sol.sigma == 0.0 and (m - n) % 2:
                assert value == 0.0, (power, g, lam, n, m)
    assert broken >= 30, broken


def _shadow_delta_e2(model, n):
    """ΔE⁽²⁾ of the quartic broken-branch level n, with ω, σ, A, B, C and the
    φ-form column ⟨m|φ⁴ − Aφ² + Bφ − C|n⟩ at 50 digits and the float
    denominators of `second_order`."""
    e_n = solve_level(model, n).energy
    with mp.workdps(50):
        g, lam, xi = mp.mpf(model.g), mp.mpf(model.lam), mp.mpf(n) + 0.5
        lam_c = (-2 * g / 3) ** 1.5 / (3 * (5 * xi - 1 / (4 * xi)))
        w = 2 * mp.sqrt(-2 * g / 3) * mp.cos(mp.pi / 6 + mp.asin(lam / lam_c) / 3)
        s2 = -(g + 12 * lam * xi / w) / (4 * lam)
        s = mp.sqrt(s2)
        c2 = mp.mpf(3 * (2 * n * n + 2 * n + 1)) / 4  # ω²⟨n|(φ−σ)⁴|n⟩
        A = 6 * s2 + 2 * c2 / (xi * w)
        B = s * w * w / lam
        C = s**4 + 6 * s2 * xi / w + c2 / w**2 - A * (s2 + xi / w) + B * s
        lo = max(0, n - 4)
        hop = [mp.sqrt((lo + i) / (2 * w)) for i in range(n + 5 - lo)]
        v, powers = [mp.mpf(0)] * len(hop), []
        v[n - lo] = mp.mpf(1)
        for _ in range(4):
            u = [s * x for x in v]
            for i in range(1, len(v)):
                u[i - 1] += hop[i] * v[i]
                u[i] += hop[i] * v[i - 1]
            v = u
            powers.append(v)
        delta = 0
        for i, m in enumerate(range(lo, n + 5)):
            if m != n:
                element = powers[3][i] - A * powers[1][i] + B * powers[0][i]
                delta += (lam * element) ** 2 / (e_n - solve_level(model, m).energy)
        assert abs(powers[3][n - lo] - A * powers[1][n - lo] + B * powers[0][n - lo] - C) \
            < mp.mpf(10) ** -30 * (1 + s**4)
        return float(delta)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-1.0, max_value=3.0), st.floats(min_value=-4.0, max_value=-0.01),
       st.integers(min_value=0, max_value=40))
@example(0.8087037075081285, -3.8887814590928835, 32)  # the φ-form sum is off by 2.2e-9
def test_broken_branch_second_order_keeps_its_digits(log_depth, log_fraction, n):
    # g ∈ −[0.1, 1000] and λ ∈ λ_c·[1e-4, 0.98], where the terms of size σ⁴
    # that an H′ element is made of dwarf it
    g = -(10.0**log_depth)
    model = OscillatorModel(power=4, g=g, lam=critical_coupling(n + 0.5, g) * 10.0**log_fraction)
    assume(solve_level(model, n).phase is Phase.DWO_SSB)
    want = _shadow_delta_e2(model, n)
    assert abs(second_order(model, n).delta_e2 - want) <= 1e-12 * abs(want)


def test_double_well_anchor():
    m = OscillatorModel(power=4, g=-1.0, lam=1.0)
    rep = second_order(m, 0)
    assert rep.e2 + classical_well_depth(m) == pytest.approx(0.5752, abs=5e-5)


def test_weak_coupling_limits():
    # the Hartree split absorbs -9/4 of the textbook -21/8 second-order
    # coefficient into the zeroth order; the residue carried by the
    # correction is -3/8
    lam = 1e-5
    rep = second_order(OscillatorModel(power=4, g=1.0, lam=lam), 0)
    assert rep.delta_e2 / lam**2 == pytest.approx(-0.375, abs=1e-3)
    assert (rep.e2 - 0.5 - 0.75 * lam) / lam**2 == pytest.approx(-2.625, abs=1e-3)


def test_ground_state_correction_is_negative():
    models = [
        OscillatorModel(power=4, g=1.0, lam=0.5),
        OscillatorModel(power=6, g=1.0, lam=1.0),
        OscillatorModel(power=8, g=1.0, lam=1.0),
        OscillatorModel(power=4, g=-1.0, lam=0.3),
    ]
    for m in models:
        assert second_order(m, 0).delta_e2 < 0.0


def test_contribution_window_and_parity():
    for power in (4, 6, 8):
        m = OscillatorModel(power=power, g=1.0, lam=2.0)
        for n in (0, 3, 7):
            rep = second_order(m, n)
            for c in rep.contributions:
                assert 0 < abs(c.m - n) <= power
                assert (c.m - n) % 2 == 0
                assert c.numerator != 0.0
            total = sum(c.numerator**2 / c.denominator for c in rep.contributions)
            assert rep.delta_e2 == pytest.approx(total, rel=1e-12)


def test_broken_branch_brings_odd_channels():
    m = OscillatorModel(power=4, g=-1.0, lam=0.05)
    rep = second_order(m, 0)
    offsets = sorted(c.m - rep.n for c in rep.contributions)
    assert any(d % 2 != 0 for d in offsets)

    even = second_order(m, 0, even_only=True)
    assert all((c.m - even.n) % 2 == 0 for c in even.contributions)
    assert {c.m for c in even.contributions} <= {c.m for c in rep.contributions}
    assert even.e0 == rep.e0


def test_excited_levels_run_clean():
    for m in (QUARTIC, OscillatorModel(power=6, g=1.0, lam=10.0),
              OscillatorModel(power=8, g=1.0, lam=0.2)):
        for n in (1, 2, 6):
            rep = second_order(m, n)
            assert rep.e2 == rep.e0 + rep.delta_e2
            assert math.isfinite(rep.delta_e2)


def test_nonzero_first_order_term_raises(monkeypatch):
    real = hipt.h_prime_column

    def shifted(model, sol, n):
        column = real(model, sol, n)
        column[n] += 1e-3
        return column

    monkeypatch.setattr(hipt, "h_prime_column", shifted)
    with pytest.raises(NonConvergence, match="first-order term 1.000e-03"):
        second_order(QUARTIC, 0)


def test_first_order_check_survives_optimized_mode():
    script = (
        "from gha import hipt\n"
        "from gha.errors import NonConvergence\n"
        "from gha.hartree import OscillatorModel\n"
        "real = hipt.h_prime_column\n"
        "def shifted(model, sol, n):\n"
        "    column = real(model, sol, n)\n"
        "    column[n] += 1.0\n"
        "    return column\n"
        "hipt.h_prime_column = shifted\n"
        "try:\n"
        "    hipt.second_order(OscillatorModel(4, 1.0, 1.0), 0)\n"
        "except NonConvergence:\n"
        "    raise SystemExit(3)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr


@pytest.mark.parametrize("power, g, lam, n", [(4, 1.0, 0.1, 10), (4, -1.0, 0.05, 2),
                                             (8, 1.0, 200.0, 8)])
def test_second_order_is_the_same_on_a_warmed_model(power, g, lam, n):
    warm = OscillatorModel(power=power, g=g, lam=lam)
    for m in range(n + power + 1):
        solve_level(warm, m)
    first = second_order(warm, n)
    assert second_order(warm, n) == first
    assert second_order(OscillatorModel(power=power, g=g, lam=lam), n) == first
