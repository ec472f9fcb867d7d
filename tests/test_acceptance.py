"""Acceptance gate: one test per shipping criterion, one verdict line each.

The printed reference tables contain digit slips.  Those cells are listed,
with the evidence against each, in the disputed-cell registry of gha.tables,
and criteria 2, 4 and 7 apply that registry the way `run_table` does: an
undisputed cell must meet its tolerance, and the set of cells beyond
tolerance must be exactly the disputed set, so an entry can be neither
missing nor spare.  Nor can an entry hide a regression, because the
recomputed values are also checked against evaluations that do not go
through gha: the root of the quartic Hartree gap cubic (numpy.roots), a
dense number-basis diagonalization built here from numpy matrices, and the
cutoff integral I_-1 in closed form.  Criteria 5, 9 and 10 check what the
method's equations define (the double root at the critical coupling, the
approach of the strong-coupling slope to 1/3, the fixed-gap-mass limit of
lambda_R) rather than a printed number or a window the equations never
visit.  Every verdict line keeps the measured gap between a disputed
printed value and the recomputation.
"""

import io
import math
import time
from contextlib import redirect_stdout

import numpy as np

from gha import cli
from gha.hartree import (
    OscillatorModel,
    Phase,
    classical_well_depth,
    critical_coupling,
    solve_level,
)
from gha.hipt import build_h_prime, potential_polynomial, second_order
from gha.ladder import ModeParameters, expectation, field_power
from gha.oracle import converged_levels
from gha.qft import (
    FieldTheory,
    renormalized,
    solve_mass_gap,
    static_potential,
    stevenson,
)
from gha.tables import Provenance, reference_table, run_table
from gha.vacuum import loglog_slope, strong_coupling_scaling, vacuum_structure

from ladder_reference import hamiltonian_polynomial


def verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def gha_value(table, lam, n):
    model = OscillatorModel(power=table.power, g=table.g,
                            lam=lam / 2.0 if table.table_id == 3 else lam)
    raw = solve_level(model, n).energy
    if table.convention == "shifted":
        return raw + classical_well_depth(model)
    if table.convention == "doubled":
        return 2.0 * raw
    return raw


def registry_note(beyond, disputed, tol):
    """How the cells beyond tolerance compare with the disputed set."""
    if beyond == disputed:
        return f"the {len(beyond)} cell(s) beyond {tol} are exactly the disputed ones"
    return (f"beyond {tol} but not disputed {sorted(beyond - disputed)}, "
            f"disputed but within {tol} {sorted(disputed - beyond)}")


def quartic_omega(g, lam, n):
    """The positive root of the quartic gap cubic w^3 - g*w - 6*lam*f(xi)
    (unique by Descartes' rule of signs), found by numpy.roots without going
    through gha."""
    xi = n + 0.5
    roots = np.roots([1.0, 0.0, -g, -6.0 * lam * (xi + 1.0 / (4.0 * xi))])
    return max(r.real for r in roots if abs(r.imag) <= 1e-9 * abs(r))


def quartic_energy(g, lam, n):
    """Zeroth-order level xi*(3w + g/w)/4 on the symmetric branch."""
    w = quartic_omega(g, lam, n)
    return 0.25 * (n + 0.5) * (3.0 * w + g / w)


def dense_levels(g, lam, omega, dim=600):
    """Levels of 1/2 p^2 + 1/2 g x^2 + lam x^4 from a dense numpy matrix in
    the number basis of frequency omega, sharing no code with gha.ladder.
    x and p are built on dim + 2 states so that the products are exact on
    the first dim; even and odd parity sectors are diagonalized apart."""
    a = np.diag(np.sqrt(np.arange(1.0, dim + 2.0)), 1)
    x = (a + a.T) / math.sqrt(2.0 * omega)
    ip = math.sqrt(0.5 * omega) * (a.T - a)  # i*p
    x2 = x @ x
    h = (-0.5 * ip @ ip + 0.5 * g * x2 + lam * x2 @ x2)[:dim, :dim]
    levels = np.concatenate([np.linalg.eigvalsh(h[0::2, 0::2]),
                             np.linalg.eigvalsh(h[1::2, 1::2])])
    levels.sort()
    return levels


def test_criterion_01_gap_equation_exactness():
    model = OscillatorModel(power=4, g=1.0, lam=1.0)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        sol = solve_level(model, 0)
        best = min(best, time.perf_counter() - t0)
    residual = sol.omega**3 - sol.omega - 6.0
    ok = abs(residual) < 1e-12 and best < 1e-3
    verdict(1, ok,
            f"omega={sol.omega!r}, residual={residual:.2e}, "
            f"best runtime {best * 1e3:.3f} ms")


def test_criterion_02_table1_zeroth_order():
    t1 = reference_table(1)
    cells = [c for c in t1.cells if c.provenance is Provenance.GHA]
    assert len(cells) == 30
    t0 = time.perf_counter()
    values = [gha_value(t1, c.lam, c.n) for c in cells]
    elapsed = time.perf_counter() - t0
    beyond, worst_live, worst_closed, slips = set(), 0.0, 0.0, []
    for c, value in zip(cells, values):
        rel = abs(value - c.reference) / abs(c.reference)
        if rel > 5e-4:
            beyond.add((c.lam, c.n))
        if c.disputed:
            slips.append(f"(lambda={c.lam}, n={c.n}) computed {value:.10g}, "
                         f"rel {rel:.2e}: {c.note}")
        else:
            worst_live = max(worst_live, rel)
        closed = quartic_energy(1.0, c.lam, c.n)
        worst_closed = max(worst_closed, abs(value - closed) / abs(closed))
    disputed = {(c.lam, c.n) for c in cells if c.disputed}
    ok = beyond == disputed and worst_closed <= 1e-10 and elapsed < 1.0
    verdict(2, ok,
            f"30 cells in {elapsed:.2f} s; {len(cells) - len(disputed)} "
            f"undisputed within 5e-4 (worst {worst_live:.2e}); "
            f"{registry_note(beyond, disputed, '5e-4')}; all 30 "
            f"match the closed-form gap root to {worst_closed:.1e}; disputed "
            + "; ".join(slips))


def test_criterion_03_table1_second_order():
    t1 = reference_table(1)
    cells = [c for c in t1.cells if c.provenance is Provenance.HIPT]
    worst = 0.0
    for c in cells:
        model = OscillatorModel(power=4, g=1.0, lam=c.lam)
        rel = abs(second_order(model, c.n).e2 - c.reference) / abs(c.reference)
        worst = max(worst, rel)
    anchors = []
    for lam, ref in ((1.0, 0.80321), (0.1, 0.55911)):
        e2 = second_order(OscillatorModel(power=4, g=1.0, lam=lam), 0).e2
        anchors.append(abs(e2 - ref) / ref)
    ok = worst <= 2e-3 and max(anchors) <= 5e-4
    verdict(3, ok,
            f"{len(cells)} cells worst rel {worst:.2e}; anchors "
            f"{anchors[0]:.1e}, {anchors[1]:.1e}")


def test_criterion_04_table2_double_well():
    t2 = reference_table(2)
    printed_gha = {(c.lam, c.n): c for c in t2.cells
                   if c.provenance is Provenance.GHA}
    beyond, disputed, slips = set(), set(), []
    phases_ok, evidence_ok, worst_closed = True, True, 0.0
    for c in t2.cells:
        if c.provenance is Provenance.EXTERNAL_REF:
            continue
        model = OscillatorModel(power=4, g=-1.0, lam=c.lam)
        depth = classical_well_depth(model)
        sol = solve_level(model, c.n)
        phases_ok = phases_ok and sol.phase is Phase.DWO_SR
        if c.provenance is Provenance.GHA:
            value = sol.energy + depth
            closed = quartic_energy(-1.0, c.lam, c.n) + depth
            worst_closed = max(worst_closed, abs(value - closed) / abs(closed))
        else:
            value = second_order(model, c.n).e2 + depth
        key = (c.provenance.value, c.lam, c.n)
        rel = abs(value - c.reference) / abs(c.reference)
        if rel > 2e-3:
            beyond.add(key)
        if c.disputed:
            disputed.add(key)
            slips.append(f"{c.provenance.value} (lambda={c.lam}, n={c.n}) "
                         f"printed {c.text} vs computed {value:.6g}, rel {rel:.2e}")
            if c.provenance is Provenance.HIPT:
                # the registry's case: the row's printed GHA entry is this
                # second-order value, put in the wrong column
                row_gha = printed_gha[(c.lam, c.n)]
                gap = abs(value - row_gha.reference) / row_gha.reference
                evidence_ok = evidence_ok and gap <= 2e-3
                slips.append(f"second order {value:.6g} sits {gap:.1e} from "
                             f"the row's printed GHA {row_gha.text}")
    ok = (beyond == disputed and phases_ok and evidence_ok
          and worst_closed <= 1e-10)
    phase_note = ("all listed couplings sit" if phases_ok
                  else "a listed coupling does not sit")
    phase_note += " in the symmetry-restored phase"
    verdict(4, ok,
            f"{phase_note}; {registry_note(beyond, disputed, '2e-3')}; GHA "
            f"cells match the closed-form gap root to {worst_closed:.1e}; "
            f"disputed " + "; ".join(slips))


def test_criterion_05_critical_coupling():
    # lambda_c is where the broken-branch cubic w^3 + 2g*w + 6*lam*p(xi)
    # acquires a double root at w = sqrt(-2g/3); for xi = 1/2, g = -1 that
    # is lambda_c = (2/3)^(3/2)/6 = sqrt(2/3)/9
    g, xi = -1.0, 0.5
    computed = critical_coupling(xi, g)
    closed = math.sqrt(2.0 / 3.0) / 9.0
    w_c = math.sqrt(-2.0 * g / 3.0)
    p = 5.0 * xi - 1.0 / (4.0 * xi)
    cubic = w_c**3 + 2.0 * g * w_c + 6.0 * computed * p
    slope = 3.0 * w_c**2 + 2.0 * g
    below = OscillatorModel(power=4, g=g, lam=computed * (1.0 - 1e-9))
    above = OscillatorModel(power=4, g=g, lam=computed * (1.0 + 1e-9))
    opens = any(b.phase is Phase.DWO_SSB and b.omega > 0.0
                for b in solve_level(below, 0).branches or ())
    closes = solve_level(above, 0).branches is None
    ok = (abs(computed - closed) <= 1e-14 * closed and abs(cubic) <= 1e-14
          and abs(slope) <= 1e-14 and opens and closes)
    verdict(5, ok,
            f"lambda_c = {computed!r}, closed form sqrt(2/3)/9 off by "
            f"{abs(computed - closed):.1e}; cubic {cubic:.1e} and its "
            f"derivative {slope:.1e} at (lambda_c, sqrt(2/3)); broken branch "
            f"present at lambda_c(1-1e-9): {opens}, absent at "
            f"lambda_c(1+1e-9): {closes}; disputed printed 0.09007 vs "
            f"{computed:.7f}, gap {abs(computed - 0.09007):.1e}")


def test_criterion_06_tables3_and_4():
    t0 = time.perf_counter()
    worst_gha = 0.0
    reports = [run_table(3), run_table(4)]
    elapsed = time.perf_counter() - t0
    for report in reports:
        for r in report.rows:
            if r.provenance == "GHA" and not r.disputed:
                worst_gha = max(worst_gha, r.rel_error)
    ok = (all(rep.ok for rep in reports) and worst_gha <= 5e-4
          and elapsed < 1.0)
    verdict(6, ok,
            f"doubled-convention cells worst rel {worst_gha:.2e}, "
            f"external cells within their 2e-3 design tolerance, "
            f"{elapsed:.2f} s")


def _oracle_grid():
    """(key, model, shift, cell) for every external reference cell in scope:
    table 1 with lambda <= 100 and n <= 10, and all of table 2."""
    grid = []
    t1 = reference_table(1)
    for c in t1.cells:
        if c.provenance is Provenance.EXTERNAL_REF and c.lam <= 100.0 and c.n <= 10:
            model = OscillatorModel(power=4, g=1.0, lam=c.lam)
            grid.append(((1, c.lam, c.n), model, 0.0, c))
    t2 = reference_table(2)
    for c in t2.cells:
        if c.provenance is Provenance.EXTERNAL_REF:
            model = OscillatorModel(power=4, g=-1.0, lam=c.lam)
            grid.append(((2, c.lam, c.n), model, classical_well_depth(model), c))
    return grid


def test_criterion_07_oracle_agreement_and_improvement():
    grid = _oracle_grid()
    assert len(grid) == 40
    top = {}
    for _, model, _, c in grid:
        top[model] = max(top.get(model, 0), c.n)
    levels = {model: converged_levels(model, n_max, tol=1e-8).levels
              for model, n_max in top.items()}
    dense = {model: dense_levels(model.g, model.lam,
                                 quartic_omega(model.g, model.lam, n_max))
             for model, n_max in top.items()}
    beyond, disputed, slips = set(), set(), []
    worst_dense, ratios, improve_bad, not_improved = 0.0, [], [], []
    for key, model, shift, c in grid:
        exact = levels[model][c.n] + shift
        worst_dense = max(worst_dense,
                          abs(dense[model][c.n] + shift - exact) / abs(exact))
        rel = abs(exact - c.reference) / abs(c.reference)
        if rel > 2e-3:
            beyond.add(key)
        if c.disputed:
            disputed.add(key)
            slips.append(f"{key} printed {c.text} vs {exact:.6g}")
        # second order must beat zeroth order wherever zeroth order misses
        # table 1's GHA tolerance; where zeroth order already meets it,
        # second order must meet it too
        gha_err = abs(solve_level(model, c.n).energy + shift - exact) / abs(exact)
        hipt_err = abs(second_order(model, c.n).e2 + shift - exact) / abs(exact)
        if gha_err > 5e-4:
            ratios.append(hipt_err / gha_err)
            if not hipt_err < gha_err:
                improve_bad.append(key)
        else:
            if not hipt_err <= 5e-4:
                improve_bad.append(key)
            if not hipt_err < gha_err:
                not_improved.append(f"{key} zeroth {gha_err:.1e}, "
                                    f"second {hipt_err:.1e}")
    ok = beyond == disputed and worst_dense <= 1e-10 and not improve_bad
    improved = sum(1 for r in ratios if r < 1.0)
    verdict(7, ok,
            f"against the diagonalizer, {registry_note(beyond, disputed, '2e-3')}"
            f" ({'; '.join(slips)}); a dense 600-state diagonalization built "
            f"without gha.ladder reproduces the diagonalizer to "
            f"{worst_dense:.1e} at all 40 points; second order improves at "
            f"{improved} of {len(ratios)} points with zeroth-order error above "
            f"5e-4 (error ratio {min(ratios, default=0):.2f}-"
            f"{max(ratios, default=0):.2f}); points failing the improvement "
            f"rule {improve_bad}; not improved but within 5e-4: "
            + ("; ".join(not_improved) or "none"))


def test_criterion_08_hartree_condition_suite():
    rng = np.random.default_rng(17)
    worst_v, worst_h, worst_e = 0.0, 0.0, 0.0
    for i in range(200):
        power = (4, 6, 8)[i % 3]
        lam = 10.0 ** rng.uniform(-3.0, 3.0)
        if power == 4 and i % 4 == 0:
            g = -10.0 ** rng.uniform(-0.5, 0.5)
            lam = max(lam, 0.02 * abs(g) ** 1.5)
        else:
            g = 10.0 ** rng.uniform(-1.0, 1.0)
        n = int(rng.integers(0, 31))
        model = OscillatorModel(power=power, g=g, lam=lam)
        sol = solve_level(model, n)
        mode = ModeParameters(omega=sol.omega, sigma=sol.sigma)
        # V replaces the bare phi^2k inside H_I = lam*phi^2k, so the Hartree
        # condition <lam V> = <H_I> divides through to <V> = <phi^2k>
        v_mean = lam * expectation(potential_polynomial(sol.A, sol.B, sol.C, mode), n)
        hi_mean = lam * expectation(field_power(model.power, mode), n)
        worst_v = max(worst_v, abs(v_mean - hi_mean))
        worst_h = max(worst_h, abs(expectation(build_h_prime(model, sol), n)))
        h_mean = expectation(hamiltonian_polynomial(model, mode), n)
        worst_e = max(worst_e, abs(h_mean - sol.energy) / abs(sol.energy))
    ok = worst_v <= 1e-9 and worst_h <= 1e-9 and worst_e <= 1e-9
    verdict(8, ok,
            f"200 random levels: |<V>-<H_I>| <= {worst_v:.1e}, "
            f"|<H'>| <= {worst_h:.1e}, energy identity rel {worst_e:.1e}")


def test_criterion_09_vacuum_structure():
    n0 = vacuum_structure(2.0).n0
    exact = n0 == 0.125

    def fitted_slope(lo, hi):
        return loglog_slope(strong_coupling_scaling(1.0, np.geomspace(lo, hi, 21)))

    # the exact local slope is (w+1)^2/(3w^2-1) = 1/3 + 2/(3w) + O(1/w^2):
    # [1e3, 1e5] (w = 18..84) sits ~0.02 above 1/3, so the 1/3 +- 0.01
    # bracket is tested where the correction has fallen below it
    lambdas = np.geomspace(1e3, 1e5, 21)
    slope = fitted_slope(1e3, 1e5)
    n0_closed = [(w + 1.0 / w - 2.0) / 4.0
                 for w in (quartic_omega(1.0, lam, 0) for lam in lambdas)]
    closed = float(np.polyfit(np.log(lambdas), np.log(n0_closed), 1)[0])
    high = [fitted_slope(1e6, 1e8), fitted_slope(1e8, 1e10)]
    decades = [fitted_slope(10.0**e, 10.0 ** (e + 1)) for e in range(3, 10)]
    creeps = all(a > b for a, b in zip(decades, decades[1:])) and decades[-1] > 1 / 3
    ok = (exact and abs(slope - closed) <= 1e-9 and creeps
          and all(abs(s - 1 / 3) <= 0.01 for s in high))
    verdict(9, ok,
            f"n0(omega=2)={n0!r}; fitted slope {slope:.5f} on [1e3, 1e5] "
            f"({slope - 1 / 3:+.4f} from 1/3; closed-form gap root gives "
            f"{closed:.5f}); decade slopes 1e3..1e10 minus 1/3: "
            + ", ".join(f"{s - 1 / 3:+.1e}" for s in decades)
            + f"; [1e6, 1e8] {high[0] - 1 / 3:+.4f} and [1e8, 1e10] "
            f"{high[1] - 1 / 3:+.4f} from 1/3 (bracket 0.01)")


def test_criterion_10_field_theory_sector():
    t0 = time.perf_counter()
    clauses = []

    rng = np.random.default_rng(31)
    worst = 0.0
    points = [(2.0, 50.0)] + [
        (rng.uniform(0.5, 50.0), rng.uniform(5.0, 200.0)) for _ in range(20)
    ]
    for M2, cutoff in points:
        h = 1e-4 * M2
        d1 = (stevenson(1, M2 + h, cutoff) - stevenson(1, M2 - h, cutoff)) / (2 * h)
        d0 = (stevenson(0, M2 + h, cutoff) - stevenson(0, M2 - h, cutoff)) / (2 * h)
        worst = max(worst,
                    abs(d1 / (0.5 * stevenson(0, M2, cutoff)) - 1.0),
                    abs(d0 / (-0.5 * stevenson(-1, M2, cutoff)) - 1.0))
    clauses.append(("derivative identities", worst <= 1e-6, f"rel {worst:.1e}"))

    theory = FieldTheory(m2=1.0, lam=0.1, cutoff=10.0)
    gap = solve_mass_gap(theory, 0.0)
    ren = renormalized(theory)
    drift = abs(ren.mR2 - gap.M2) / gap.M2
    clauses.append(("mass identity", drift <= 1e-10, f"rel {drift:.1e}"))

    # lambda_R = lam (1 - 12 lam I_-1)/(1 + 6 lam I_-1) at the gap mass; at
    # fixed bare mass the gap mass grows with the cutoff and the ratio stays
    # near 0.67, at fixed gap mass it falls toward -2 as I_-1 ~ ln(cutoff)
    def coupling_ratio(lam, im1):
        return (1.0 - 12.0 * lam * im1) / (1.0 + 6.0 * lam * im1)

    theory = FieldTheory(m2=1.0, lam=1.0, cutoff=1e6)
    bare_ratio = renormalized(theory).lambdaR / theory.lam
    m2bar = solve_mass_gap(theory, 0.0).M2
    edge = theory.cutoff / math.hypot(theory.cutoff, math.sqrt(m2bar))
    im1 = (math.asinh(theory.cutoff / math.sqrt(m2bar)) - edge) / (4 * math.pi**2)
    tie = abs(bare_ratio / coupling_ratio(theory.lam, im1) - 1.0)
    cutoffs = [10.0**e for e in range(0, 101, 5)]
    ratios = [coupling_ratio(1.0, stevenson(-1, 1.0, cut)) for cut in cutoffs]
    falls = all(a > b for a, b in zip(ratios, ratios[1:]))
    limit_ok = falls and min(ratios) > -2.0 and -2.0 < ratios[-1] < -1.9
    clauses.append(("coupling window", tie <= 1e-12 and limit_ok,
                    f"lambda_R matches the documented expression at the "
                    f"theory's own gap mass to {tie:.1e}; at fixed gap mass "
                    f"M^2=1, lambda=1 the ratio {'falls' if falls else 'does not fall'} "
                    f"monotonically, "
                    f"{ratios[0]:.4f} at cutoff 1, {ratios[6]:.4f} at 1e30, "
                    f"{ratios[-1]:.6f} at 1e100, above -2: {min(ratios) > -2.0}; "
                    f"at fixed bare mass lambda_R/lambda = {bare_ratio:.6f} "
                    f"at cutoff 1e6"))

    weak = renormalized(FieldTheory(m2=1.0, lam=1e-8, cutoff=10.0))
    weak_off = abs(weak.lambdaR / 1e-8 - 1.0)
    clauses.append(("weak-coupling limit", weak_off <= 1e-6, f"off by {weak_off:.1e}"))

    from conftest import radial_sine_potential
    worst_q = 0.0
    for r in np.linspace(0.1, 10.0, 20):
        direct = radial_sine_potential(float(r), 1.0)
        closed = static_potential(float(r), 1.0)
        worst_q = max(worst_q, abs(closed - direct) / abs(direct))
    clauses.append(("quadrature vs Bessel form", worst_q <= 1e-6,
                    f"rel {worst_q:.1e}"))

    slopes_ok = True
    slope_note = []
    for mr in (1.0, 2.5):
        r = 20.0 / mr
        h = 1e-5 * r
        lo = math.log(static_potential(r - h, mr)) + 1.5 * math.log(r - h)
        hi = math.log(static_potential(r + h, mr)) + 1.5 * math.log(r + h)
        slope = (hi - lo) / (2 * h)
        slopes_ok = slopes_ok and abs(slope + mr) <= 0.01 * mr
        slope_note.append(f"{slope:.4f} vs -{mr}")
    clauses.append(("large-r decay rate, r^(-3/2) envelope removed",
                    slopes_ok, "; ".join(slope_note)))

    elapsed = time.perf_counter() - t0
    clauses.append(("runtime", elapsed < 30.0, f"{elapsed:.1f} s"))

    ok = all(c[1] for c in clauses)
    detail = "; ".join(f"{name} {'ok' if good else 'FAILED'} ({note})"
                       for name, good, note in clauses)
    verdict(10, ok, detail)


def test_criterion_11_full_regression_runtime():
    t0 = time.perf_counter()
    codes = []
    for tid in ("1", "2", "3", "4"):
        with redirect_stdout(io.StringIO()):
            codes.append(cli.main(["table", tid, "--compare", "--no-meta"]))
    elapsed = time.perf_counter() - t0
    ok = codes == [0, 0, 0, 0] and elapsed < 120.0
    verdict(11, ok, f"exit codes {codes}, {elapsed:.1f} s")
