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

Every σ-dependent quantity follows from the exact moments of the number
states of the mode φ = σ + (b + b†)/√(2ω),

    c_j(n) = ω^j ⟨n|(φ − σ)^{2j}|n⟩ = (2j−1)!!/2^j Σ_{i=0..j} C(j,i) C(n,i) 2^i,

through ⟨φ^{2k}⟩ = Σ_j C(2k,2j) σ^{2k−2j} c_j/ω^j.  With ξ = n + ½ the
gap equation is ω² = g + 2λA, and at σ = 0 it reads

    ω^{k+1} − gω^{k−1} − 2kλ c_k(n)/ξ = 0,

with level energy E = ξ[(k+1)ω + (k−1)g/ω]/(2k).  Worked instances:

    quartic:  ω³ − gω  − 6λ f(ξ) = 0,          f(ξ) = ξ + 1/(4ξ)
    sextic:   ω⁴ − gω² − (15λ/4)(4ξ² + 5) = 0
    octic:    ω⁵ − gω³ − 35λ h(ξ) = 0,         h(ξ) = ξ³ + 7ξ/2 + 9/(16ξ)

For the quartic double well a broken-symmetry branch with σ² =
−(g + 12λξ/ω)/(4λ) exists for λ ≤ λ_c(ξ, g); its frequency satisfies the
cubic ω³ + 2gω + 6λ p(ξ) = 0 with p(ξ) = 5ξ − 1/(4ξ) and is given in closed
form by ω = 2√(−2g/3) cos[π/6 + ⅓ arcsin(λ/λ_c)].  There the configuration
equation gσ + λ∂_σ⟨φ⁴⟩ = 0 reduces B to σω²/λ, which the level's solution
uses; `hartree_coefficients` keeps the general form for any (ω, σ).

The σ = 0 gap residual f(ω) = ω^{k+1} − gω^{k−1} − c₀, c₀ = 2kλc_k(n)/ξ > 0,
is solved by Newton descent from ω₀ = max(√(2·max(g, 0)), (2c₀)^{1/(k+1)}).
There f(ω₀) ≥ 0: ω₀² ≥ 2g gives ω₀^{k−1}(ω₀² − g) ≥ ω₀^{k+1}/2 ≥ c₀.  Since
c₀ > 0 the root has ω² > g, and on [root, ∞) both f′ = ω^{k−2}[(k+1)ω² −
(k−1)g] and f″ = ω^{k−3}[k(k+1)ω² − (k−1)(k−2)g] are positive.  On an
increasing convex function every Newton step from above lands between the
root and the current point, so the iterates fall monotonically onto the root
and stop when rounding no longer lets a step decrease ω.  The broken branch
descends the same way from just above its closed form; its cubic is convex
and increasing above √(−2g/3), below which its largest root never lies.

`solve_level` memoizes each level's solution on the model instance, so the
second-order sums, the table columns and the oracle's basis frequency share
one solve per (model, level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

from .errors import (DomainError, NoPhysicalRoot, NonConvergence,
                     NonFiniteValue, PhaseUnavailable)

# Newton descends monotonically from its start and settles in under ten
# steps on the σ = 0 gap; near λ_c the broken branch's double root slows it
_NEWTON_STEPS = 100


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
    # level n -> HartreeSolution, filled by solve_level
    _levels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def xi_p(xi: float) -> float:
    """p(ξ) = 5ξ − 1/(4ξ), broken-phase cubic combination."""
    return 5.0 * xi - 1.0 / (4.0 * xi)


def _xi(n: int) -> float:
    if n < 0:
        raise DomainError(f"level index must be nonnegative, got {n}")
    return n + 0.5


def moment(j: int, n: int) -> float:
    """c_j(n) = ω^j⟨n|(φ−σ)^{2j}|n⟩, summed exactly in integers and rounded once."""
    if j < 0 or n < 0:
        raise DomainError(f"moment needs j >= 0 and n >= 0, got j={j}, n={n}")
    total = sum(math.comb(j, i) * math.comb(n, i) * 2**i for i in range(j + 1))
    return math.prod(range(1, 2 * j, 2)) * total / 2**j


def _field_averages(k: int, n: int, omega: float, sigma: float):
    """⟨φ^{2k}⟩, ∂_σ⟨φ^{2k}⟩ and A = Σ_{j≥1} C(2k,2j) σ^{2k−2j} j c_j/(ξω^{j−1})
    in level n of the mode (ω, σ)."""
    xi = _xi(n)
    avg = d_sigma = a = 0.0
    # at σ = 0 every j < k term carries σ^{2k−2j} = 0.0 and adds exact zeros
    for j in range(k + 1) if sigma else (k,):
        p = 2 * k - 2 * j
        term = math.comb(2 * k, 2 * j) * moment(j, n) / omega**j
        avg += term * sigma**p
        if p:
            d_sigma += p * term * sigma ** (p - 1)
        if j:
            a += j * term * omega * sigma**p / xi
    return avg, d_sigma, a


def critical_coupling(xi: float, g: float) -> float:
    """λ_c(ξ, g) = (−2g/3)^{3/2} / (3 p(ξ)), the largest coupling with a
    broken-symmetry branch of the quartic double well."""
    if g >= 0.0:
        raise DomainError(f"critical coupling is defined for g < 0, got g={g}")
    if xi < 0.5:
        raise DomainError(f"xi must be at least 1/2, got {xi}")
    try:
        return (-2.0 * g / 3.0) ** 1.5 / (3.0 * xi_p(xi))
    except OverflowError as exc:
        raise NonFiniteValue(f"lambda_c at g={g} leaves floating-point range") from exc


def _gap_poly(model: OscillatorModel, n: int, phase: Phase):
    """Residual polynomial, derivative, and constant-term scale for the phase."""
    xi, g, lam = _xi(n), model.g, model.lam
    if phase is Phase.DWO_SSB:
        c0 = 6.0 * lam * xi_p(xi)

        def fn(w):
            return w**3 + 2.0 * g * w + c0

        def dfn(w):
            return 3.0 * w * w + 2.0 * g

        return fn, dfn, c0
    k = model.k
    c0 = 2 * k * lam * moment(k, n) / xi

    def fn(w):
        return w ** (k + 1) - g * w ** (k - 1) - c0

    def dfn(w):
        return (k + 1) * w**k - (k - 1) * g * w ** (k - 2)

    return fn, dfn, c0


def _newton(fn, dfn, w: float, floor: float = 0.0) -> float:
    """Newton descent onto the root of fn from w at or above it.

    fn must be increasing and convex on (floor, w] with its root in there,
    so every step lands between the root and the current point; the descent
    ends when rounding stops a step from decreasing w or keeping it above
    floor.
    """
    for _ in range(_NEWTON_STEPS):
        w2 = w - fn(w) / dfn(w)
        if not floor < w2 < w:
            return w
        w = w2
    raise NonConvergence(f"gap Newton descent did not settle in {_NEWTON_STEPS} steps")


def solve_gap(model: OscillatorModel, n: int, phase: Phase) -> float:
    """Positive root ω of the phase-appropriate gap equation at level n."""
    xi = _xi(n)
    phase = Phase(phase)
    if phase is Phase.AHO and model.g < 0.0:
        raise PhaseUnavailable("AHO phase requires g > 0")
    if phase in (Phase.DWO_SR, Phase.DWO_SSB) and model.g > 0.0:
        raise PhaseUnavailable("DWO phases require g < 0")
    fn, dfn, c0 = _gap_poly(model, n, phase)
    if phase is Phase.DWO_SSB:
        if model.power != 4:
            raise PhaseUnavailable("broken-symmetry branch is quartic-only here")
        lam_c = critical_coupling(xi, model.g)
        if model.lam > lam_c:
            raise PhaseUnavailable(
                f"no broken-symmetry branch: lambda={model.lam} exceeds lambda_c={lam_c}"
            )
        # closed form, exact up to rounding; the descent starts just above
        # it, whichever side of the root rounding put it on, and stays above
        # the cubic's minimum at √(−2g/3), where the root merges with the
        # next one at λ = λ_c
        floor = math.sqrt(-2.0 * model.g / 3.0)
        w = 2.0 * floor * math.cos(
            math.pi / 6.0 + math.asin(min(1.0, model.lam / lam_c)) / 3.0)
        return _newton(fn, dfn, w * (1.0 + 1e-6), floor)
    if not c0 > 0.0:
        raise NoPhysicalRoot(f"gap constant term {c0} leaves no positive root")
    k, g = model.k, model.g
    # fn(w₀) ≥ 0: w₀² ≥ 2g halves ω^{k+1} at worst, and w₀^{k+1} ≥ 2c₀
    w = _newton(fn, dfn, max(math.sqrt(2.0 * max(g, 0.0)), (2.0 * c0) ** (1.0 / (k + 1))))
    # the residual is a sum of ω^{k+1}, gω^{k−1} and c₀; rounding in the
    # largest of them bounds how small it can get
    tol = 1e-12 * max(1.0, w ** (k + 1), abs(g) * w ** (k - 1), c0)
    if not abs(fn(w)) <= tol:
        raise NonConvergence(f"gap residual {fn(w):.3e} above tolerance {tol:.3e}")
    return w


def hartree_coefficients(
    model: OscillatorModel, n: int, omega: float, sigma: float
) -> Tuple[float, float, float]:
    """A and B of the Hartree potential V = Aφ² − Bφ + C from the level-n
    moments, with C fixed so that ⟨V⟩ = ⟨φ^{2k}⟩ identically."""
    if not omega > 0.0 or not math.isfinite(omega):
        raise DomainError(f"omega must be positive and finite, got {omega}")
    if not math.isfinite(sigma):
        raise DomainError(f"sigma must be finite, got {sigma}")
    avg, d_sigma, A = _field_averages(model.k, n, omega, sigma)
    B = (1.0 + model.g) * sigma * omega * omega / model.lam + omega * omega * d_sigma
    return A, B, _constant_term(n, omega, sigma, avg, A, B)


def _constant_term(n: int, w: float, s: float, avg: float, A: float, B: float) -> float:
    """C such that ⟨n|Aφ² − Bφ + C|n⟩ = ⟨φ^{2k}⟩ = avg, with ⟨φ²⟩ = σ² + ξ/ω."""
    return avg - A * (s * s + _xi(n) / w) + B * s


def zeroth_energy(model: OscillatorModel, n: int, omega: float, phase: Phase) -> float:
    """Closed-form level energy of the Hartree Hamiltonian H₀."""
    xi = _xi(n)
    g, w, k = model.g, omega, model.k
    phase = Phase(phase)
    if phase is Phase.DWO_SSB:
        if model.power != 4:
            raise PhaseUnavailable("broken-symmetry energies are quartic-only here")
        return 0.25 * xi * (3.0 * w - 2.0 * g / w) - g * g / (16.0 * model.lam)
    return xi * ((k + 1) * w + (k - 1) * g / w) / (2 * k)


def ssb_sigma_squared(model: OscillatorModel, n: int, omega: float) -> float:
    """σ² = −(g + 12λξ/ω)/(4λ) on the broken-symmetry branch."""
    xi = _xi(n)
    return -(model.g + 12.0 * model.lam * xi / omega) / (4.0 * model.lam)


def _finish(model, n, omega, sigma, phase, branches=None) -> HartreeSolution:
    if phase is Phase.DWO_SSB:
        # the configuration equation gσ + λ∂_σ⟨φ⁴⟩ = 0 reduces the general B
        # to σω²/λ; the general form cancels two terms |g| times larger
        avg, _, A = _field_averages(model.k, n, omega, sigma)
        B = sigma * omega * omega / model.lam
        C = _constant_term(n, omega, sigma, avg, A, B)
    else:
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
    """Full per-level pipeline: gap solve, phase selection, coefficients, energy.

    Each level is solved once per model instance; later calls return the
    stored solution.  A failed solve stores nothing and fails again.
    """
    sol = model._levels.get(n)
    if sol is None:
        try:
            sol = _solve_level(model, n)
        except (OverflowError, ZeroDivisionError) as exc:
            raise NonFiniteValue(
                f"level {n} of {model} leaves floating-point range: {exc}") from exc
        model._levels[n] = sol
    return sol


def _solve_level(model: OscillatorModel, n: int) -> HartreeSolution:
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
    """Residuals of the full σ ≠ 0 gap polynomial ω^{k−1}(ω² − g − 2λA) and
    of the ground-state configuration gσ + λ∂_σ⟨φ^{2k}⟩, for exploratory
    studies."""
    if not omega > 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    g, lam, w = model.g, model.lam, omega
    _, d_sigma, A = _field_averages(model.k, n, w, sigma)
    return w ** (model.k - 1) * (w * w - g - 2.0 * lam * A), g * sigma + lam * d_sigma


def gap_residual_scale(model: OscillatorModel, n: int, phase: Phase) -> float:
    """Natural magnitude of the gap polynomial's constant term, used to judge
    residual smallness without pretending float64 can do better than eps."""
    _, _, c0 = _gap_poly(model, n, Phase(phase))
    return max(1.0, abs(c0))


def classical_well_depth(model: OscillatorModel) -> float:
    """Depth g²/(16λ) of the double-well minima below zero; the usual
    additive shift when quoting double-well spectra."""
    return model.g * model.g / (16.0 * model.lam)


def potential_polynomial(A: float, B: float, C: float, mode: ladder.ModeParameters):
    """Hartree potential V = Aφ² − Bφ + C as a ladder polynomial."""
    from . import ladder

    v = ladder.field_power(2, mode).scale(A)
    v = v - ladder.field_power(1, mode).scale(B)
    v = v + ladder.constant(C)
    return v

