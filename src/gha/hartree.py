"""Self-consistent Hartree treatment of even anharmonic oscillators.

The Hamiltonian family is

    H = ½p² + ½g φ² + λ φ^{2k},      2k ∈ {4, 6, 8},  λ > 0,

with g > 0 an anharmonic oscillator (AHO) and g < 0 a double well (DWO).
The interaction is replaced level by level with a solvable quadratic
potential V = Aφ² − Bφ + C whose quantum averages reproduce those of
φ^{2k} in every Hartree eigenstate: ⟨n|V|n⟩ = ⟨n|φ^{2k}|n⟩.  Completing
the square in H₀ = ½p² + ½gφ² + λV identifies the mode frequency and shift
(ω, σ) and yields, per level, a gap equation for ω and a ground-state
configuration equation for σ.

With ξ = n + ½ the simplified (σ = 0) gap equations are

    quartic:  ω³ − gω  − 6λ f(ξ) = 0,          f(ξ) = ξ + 1/(4ξ)
    sextic:   ω⁴ − gω² − (15λ/4)(4ξ² + 5) = 0
    octic:    ω⁵ − gω³ − 35λ h(ξ) = 0,         h(ξ) = ξ³ + 7ξ/2 + 9/(16ξ)

For the quartic double well a broken-symmetry branch with σ² =
−(g + 12λξ/ω)/(4λ) exists for λ ≤ λ_c(ξ, g); its frequency satisfies the
cubic ω³ + 2gω + 6λ p(ξ) = 0 with p(ξ) = 5ξ − 1/(4ξ) and is given in closed
form by ω = 2√(−2g/3) cos[π/6 + ⅓ arcsin(λ/λ_c)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from . import ladder
from .errors import DomainError, NoPhysicalRoot, NonConvergence, PhaseUnavailable


class Phase(str, Enum):
    AHO = "AHO"
    DWO_SR = "DWO_SR"
    DWO_SSB = "DWO_SSB"


@dataclass(frozen=True)
class OscillatorModel:
    """Anharmonic power 2k ∈ {4,6,8}, quadratic coefficient g ≠ 0, coupling λ > 0."""

    power: int
    g: float
    lam: float

    def __post_init__(self):
        if self.power not in (4, 6, 8):
            raise DomainError(f"anharmonic power must be 4, 6 or 8, got {self.power}")
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise DomainError(f"coupling must be positive, got {self.lam}")
        if self.g == 0.0 or not math.isfinite(self.g):
            raise DomainError(f"quadratic coefficient must be nonzero, got {self.g}")

    @property
    def k(self) -> int:
        return self.power // 2


@dataclass(frozen=True)
class BranchInfo:
    phase: Phase
    omega: float
    sigma: float
    energy: float


@dataclass(frozen=True)
class HartreeSolution:
    """Per-level self-consistent output."""

    n: int
    xi: float
    omega: float
    sigma: float
    phase: Phase
    A: float
    B: float
    C: float
    h0: float
    energy: float
    branches: Optional[Tuple[BranchInfo, ...]] = None


def xi_f(xi: float) -> float:
    """f(ξ) = ξ + 1/(4ξ), quartic gap-equation combination."""
    return xi + 1.0 / (4.0 * xi)


def xi_p(xi: float) -> float:
    """p(ξ) = 5ξ − 1/(4ξ), broken-phase cubic combination."""
    return 5.0 * xi - 1.0 / (4.0 * xi)


def xi_h(xi: float) -> float:
    """h(ξ) = ξ³ + 7ξ/2 + 9/(16ξ), octic gap-equation combination."""
    return xi**3 + 3.5 * xi + 9.0 / (16.0 * xi)


def _xi(n: int) -> float:
    if n < 0:
        raise DomainError(f"level index must be nonnegative, got {n}")
    return n + 0.5


def critical_coupling(xi: float, g: float) -> float:
    """λ_c(ξ, g) = (−2g/3)^{3/2} / (3 p(ξ)), the largest coupling with a
    broken-symmetry branch of the quartic double well."""
    if g >= 0.0:
        raise DomainError(f"critical coupling is defined for g < 0, got g={g}")
    if xi < 0.5:
        raise DomainError(f"xi must be at least 1/2, got {xi}")
    return (-2.0 * g / 3.0) ** 1.5 / (3.0 * xi_p(xi))


def _gap_poly(model: OscillatorModel, xi: float, phase: Phase):
    """Residual polynomial, derivative, and constant-term scale for the phase."""
    g, lam = model.g, model.lam
    if phase is Phase.DWO_SSB:
        c0 = 6.0 * lam * xi_p(xi)

        def fn(w):
            return w**3 + 2.0 * g * w + c0

        def dfn(w):
            return 3.0 * w * w + 2.0 * g

        return fn, dfn, c0
    if model.power == 4:
        c0 = 6.0 * lam * xi_f(xi)

        def fn(w):
            return w**3 - g * w - c0

        def dfn(w):
            return 3.0 * w * w - g

    elif model.power == 6:
        c0 = 3.75 * lam * (4.0 * xi * xi + 5.0)

        def fn(w):
            return w**4 - g * w * w - c0

        def dfn(w):
            return 4.0 * w**3 - 2.0 * g * w

    else:
        c0 = 35.0 * lam * xi_h(xi)

        def fn(w):
            return w**5 - g * w**3 - c0

        def dfn(w):
            return 5.0 * w**4 - 3.0 * g * w * w

    return fn, dfn, c0


def _polish(fn, dfn, w: float) -> float:
    for _ in range(8):
        d = dfn(w)
        if d == 0.0:
            break
        step = fn(w) / d
        w2 = w - step
        if w2 <= 0.0:
            break
        w = w2
        if abs(step) <= 1e-16 * w:
            break
    return w


def _bracketed_root(fn, dfn, scale) -> float:
    lo, hi = 1e-8, 1.0
    expansions = 0
    while fn(hi) <= 0.0:
        hi *= 2.0
        expansions += 1
        if expansions > 2000:
            raise NoPhysicalRoot("failed to bracket a positive root")
    if fn(lo) >= 0.0:
        raise NoPhysicalRoot("residual does not change sign on (0, inf)")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    w = _polish(fn, dfn, 0.5 * (lo + hi))
    tol = 1e-12 * scale(w)
    if abs(fn(w)) > tol:
        raise NonConvergence(f"gap residual {fn(w):.3e} above tolerance {tol:.3e}")
    return w


def solve_gap(model: OscillatorModel, n: int, phase: Phase) -> float:
    """Positive root ω of the phase-appropriate gap equation at level n."""
    xi = _xi(n)
    phase = Phase(phase)
    if phase is Phase.AHO and model.g < 0.0:
        raise PhaseUnavailable("AHO phase requires g > 0")
    if phase in (Phase.DWO_SR, Phase.DWO_SSB) and model.g > 0.0:
        raise PhaseUnavailable("DWO phases require g < 0")
    if phase is Phase.DWO_SSB:
        if model.power != 4:
            raise PhaseUnavailable("broken-symmetry branch is quartic-only here")
        lam_c = critical_coupling(xi, model.g)
        if model.lam > lam_c:
            raise PhaseUnavailable(
                f"no broken-symmetry branch: lambda={model.lam} exceeds lambda_c={lam_c}"
            )
        fn, dfn, c0 = _gap_poly(model, xi, phase)
        # closed form, exact up to rounding; Newton cleans the last bits
        w = (
            2.0
            * math.sqrt(-2.0 * model.g / 3.0)
            * math.cos(math.pi / 6.0 + math.asin(min(1.0, model.lam / lam_c)) / 3.0)
        )
        w = _polish(fn, dfn, w)
        if w <= 0.0:
            raise NoPhysicalRoot("broken-symmetry frequency came out nonpositive")
        return w
    fn, dfn, c0 = _gap_poly(model, xi, phase)
    k, g = model.k, abs(model.g)

    def scale(w):
        # the residual is a sum of ω^{k+1}, gω^{k−1} and c₀; rounding in the
        # largest of them bounds how small it can get
        return max(1.0, w ** (k + 1), g * w ** (k - 1), abs(c0))

    return _bracketed_root(fn, dfn, scale)


def hartree_coefficients(
    model: OscillatorModel, n: int, omega: float, sigma: float
) -> Tuple[float, float, float]:
    """Closed-form A and B of the Hartree potential V = Aφ² − Bφ + C, with C
    fixed from the quantum averages so that ⟨V⟩ = ⟨φ^{2k}⟩ identically."""
    if not omega > 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    xi = _xi(n)
    g, lam, w, s = model.g, model.lam, omega, sigma
    if model.power == 4:
        A = 6.0 * s * s + 3.0 * xi_f(xi) / w
        B = (1.0 + g) * s * w * w / lam + 4.0 * w * w * s**3 + 12.0 * w * s * xi
    elif model.power == 6:
        A = (
            15.0 * s**4
            + 45.0 * s * s * (4.0 * xi * xi + 1.0) / (4.0 * xi * w)
            + 15.0 / (8.0 * w * w) * (4.0 * xi * xi + 5.0)
        )
        B = s * (
            (1.0 + g) * w * w / lam
            + 6.0 * w * w * s**4
            + 60.0 * s * s * xi * w
            + 11.25 * (4.0 * xi * xi + 1.0)
        )
    else:
        A = (
            28.0 * s**6
            + 105.0 * s**4 * (4.0 * xi * xi + 1.0) / (2.0 * xi * w)
            + 105.0 / (2.0 * w * w) * s * s * (4.0 * xi * xi + 5.0)
            + 35.0 * xi_h(xi) / (2.0 * w**3)
        )
        B = s * (
            (1.0 + g) * w * w / lam
            + 8.0 * w * w * s**6
            + 168.0 * s**4 * xi * w
            + 105.0 * s * s * (4.0 * xi * xi + 1.0)
            + 35.0 * xi * (4.0 * xi * xi + 5.0) / w
        )
    mode = ladder.ModeParameters(omega=w, sigma=s)
    avg_int = ladder.expectation(ladder.field_power(model.power, mode), n)
    avg_phi2 = ladder.expectation(ladder.field_power(2, mode), n)
    C = avg_int - A * avg_phi2 + B * s
    return A, B, C


def zeroth_energy(model: OscillatorModel, n: int, omega: float, phase: Phase) -> float:
    """Closed-form level energy of the Hartree Hamiltonian H₀."""
    xi = _xi(n)
    g, lam, w = model.g, model.lam, omega
    phase = Phase(phase)
    if phase is Phase.DWO_SSB:
        if model.power != 4:
            raise PhaseUnavailable("broken-symmetry energies are quartic-only here")
        return 0.25 * xi * (3.0 * w - 2.0 * g / w) - g * g / (16.0 * lam)
    if model.power == 4:
        return 0.25 * xi * (3.0 * w + g / w)
    if model.power == 6:
        return xi / 3.0 * (2.0 * w + g / w)
    return 0.125 * xi * (5.0 * w + 3.0 * g / w)


def ssb_sigma_squared(model: OscillatorModel, n: int, omega: float) -> float:
    """σ² = −(g + 12λξ/ω)/(4λ) on the broken-symmetry branch."""
    xi = _xi(n)
    return -(model.g + 12.0 * model.lam * xi / omega) / (4.0 * model.lam)


def _finish(model, n, omega, sigma, phase, branches=None) -> HartreeSolution:
    A, B, C = hartree_coefficients(model, n, omega, sigma)
    h0 = model.lam * C - 0.5 * omega * omega * sigma * sigma
    return HartreeSolution(
        n=n,
        xi=_xi(n),
        omega=omega,
        sigma=sigma,
        phase=phase,
        A=A,
        B=B,
        C=C,
        h0=h0,
        energy=zeroth_energy(model, n, omega, phase),
        branches=branches,
    )


def solve_level(model: OscillatorModel, n: int) -> HartreeSolution:
    """Full per-level pipeline: gap solve, phase selection, coefficients, energy."""
    xi = _xi(n)
    if model.g > 0.0:
        omega = solve_gap(model, n, Phase.AHO)
        return _finish(model, n, omega, 0.0, Phase.AHO)
    if model.power != 4:
        raise PhaseUnavailable(
            "negative-g spectra are provided for the quartic well only"
        )
    lam_c = critical_coupling(xi, model.g)
    w_sr = solve_gap(model, n, Phase.DWO_SR)
    e_sr = zeroth_energy(model, n, w_sr, Phase.DWO_SR)
    if model.lam > lam_c:
        return _finish(model, n, w_sr, 0.0, Phase.DWO_SR)
    w_ssb = solve_gap(model, n, Phase.DWO_SSB)
    s2 = ssb_sigma_squared(model, n, w_ssb)
    if s2 <= 0.0:
        raise NoPhysicalRoot(f"broken-symmetry shift came out with sigma^2={s2}")
    s_ssb = math.sqrt(s2)  # the two minima are degenerate; sign is not physical
    e_ssb = zeroth_energy(model, n, w_ssb, Phase.DWO_SSB)
    branches = (
        BranchInfo(Phase.DWO_SR, w_sr, 0.0, e_sr),
        BranchInfo(Phase.DWO_SSB, w_ssb, s_ssb, e_ssb),
    )
    # the lower branch is the physical one; on an exact tie keep the
    # symmetry-restored branch
    if e_ssb < e_sr:
        return _finish(model, n, w_ssb, s_ssb, Phase.DWO_SSB, branches)
    return _finish(model, n, w_sr, 0.0, Phase.DWO_SR, branches)


def general_gap_residuals(
    model: OscillatorModel, n: int, omega: float, sigma: float
) -> Tuple[float, float]:
    """Residuals of the full σ ≠ 0 gap polynomial and of σ times the
    ground-state-configuration bracket, for exploratory studies."""
    if not omega > 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    xi = _xi(n)
    g, lam, w, s = model.g, model.lam, omega, sigma
    if model.power == 4:
        gap = w**3 - w * (g + 12.0 * lam * s * s) - 6.0 * lam * xi_f(xi)
        bracket = g + 4.0 * lam * s * s + 12.0 * lam * xi / w
    elif model.power == 6:
        gap = (
            w**4
            - w * w * (g + 30.0 * lam * s**4)
            - 45.0 * lam * s * s * w * (4.0 * xi * xi + 1.0) / (2.0 * xi)
            - 3.75 * lam * (4.0 * xi * xi + 5.0)
        )
        bracket = (
            g
            + 6.0 * lam * s**4
            + 60.0 * lam * s * s * xi / w
            + 11.25 * lam * (4.0 * xi * xi + 1.0) / (w * w)
        )
    else:
        gap = (
            w**5
            - w**3 * (g + 56.0 * lam * s**6)
            - 105.0 * lam * s**4 * w * w * (4.0 * xi * xi + 1.0) / xi
            - 105.0 * lam * s * s * w * (4.0 * xi * xi + 5.0)
            - 35.0 * lam * xi_h(xi)
        )
        bracket = (
            g
            + 8.0 * lam * s**6
            + 168.0 * lam * s**4 * xi / w
            + 105.0 * lam * s * s * (4.0 * xi * xi + 1.0) / (w * w)
            + 35.0 * lam * xi * (4.0 * xi * xi + 5.0) / w**3
        )
    return gap, sigma * bracket


def gap_residual_scale(model: OscillatorModel, n: int, phase: Phase) -> float:
    """Natural magnitude of the gap polynomial's constant term, used to judge
    residual smallness without pretending float64 can do better than eps."""
    _, _, c0 = _gap_poly(model, _xi(n), Phase(phase))
    return max(1.0, abs(c0))


def classical_well_depth(model: OscillatorModel) -> float:
    """Depth g²/(16λ) of the double-well minima below zero; the usual
    additive shift when quoting double-well spectra."""
    return model.g * model.g / (16.0 * model.lam)


def hamiltonian_polynomial(model: OscillatorModel, mode: ladder.ModeParameters):
    """H = ½p² + ½gφ² + λφ^{2k} as a normal-ordered ladder polynomial."""
    h = ladder.momentum_squared(mode).scale(0.5)
    h = h + ladder.field_power(2, mode).scale(0.5 * model.g)
    h = h + ladder.field_power(model.power, mode).scale(model.lam)
    return h


def potential_polynomial(A: float, B: float, C: float, mode: ladder.ModeParameters):
    """Hartree potential V = Aφ² − Bφ + C as a ladder polynomial."""
    v = ladder.field_power(2, mode).scale(A)
    v = v - ladder.field_power(1, mode).scale(B)
    v = v + ladder.constant(C)
    return v


if __name__ == "__main__":
    # quick look at the quartic double well around the critical coupling
    for lam in (0.05, 0.08, 0.0905, 0.095, 0.1, 1.0):
        m = OscillatorModel(power=4, g=-1.0, lam=lam)
        sol = solve_level(m, 0)
        print(
            f"lambda={lam:<8g} phase={sol.phase.value:<8} omega={sol.omega:.6f} "
            f"sigma={sol.sigma:.6f} E0_raw={sol.energy:+.6f}"
        )
