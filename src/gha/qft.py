"""Gaussian-effective-potential sector of λφ⁴ theory in 3+1 dimensions.

A sharp momentum cutoff Λ regulates the momentum integrals

    I_n(M²) = (1/4π²) ∫₀^Λ dk k² (k² + M²)^{(2n−1)/2},     n ∈ {−1, 0, 1},

which are evaluated in closed form, or by their heavy-mass series once
Λ < M/2, where the closed forms cancel.  The variational (Gaussian) vacuum of

    H = ∫d³x [ ½π² + ½(∇φ)² + ½m²φ² + λφ⁴ ]

has quasiparticle mass M and shift σ determined by

    gap:  M² = m² + 12λσ² + 12λ I₀(M²)
    VEV:  σ [M² − 8λσ²] = 0.

The gap residual F(M²) = M² − m² − 12λσ² − 12λI₀(M²) is increasing and
concave in M² and negative at M² = m² + 12λσ², so Newton started there
climbs monotonically onto its unique root; the climb stops once rounding no
longer lets a step increase M².  The effective potential
U(σ) = I₁ − 3λI₀² + ½m²σ² + λσ⁴ is evaluated on the gap solution M²(σ).  For m² > 0 the only physical vacuum is σ = 0: a σ ≠ 0
root would need −M²/2 = m² + 12λI₀(M²), whose sides differ in sign.  The
curvatures of U at the origin give the renormalized parameters

    m_R² = m² + 12λ I₀(M̄²) = M̄²,
    λ_R  = λ (1 − 12λ I₋₁(M̄²)) / (1 + 6λ I₋₁(M̄²)),

and the equal-time two-point structure of the vacuum is carried by
u(k) = √((k²+m²)/(k²+M²)), ρ(k) = (1 + k²/m_R²)^{−1/2}, and the static
potential U(r) = m_R K₁(m_R r)/(4π² r), formed as x·K₁(x)/(4π²r²) with
x = m_R r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonConvergence, NonFiniteValue

_FOUR_PI2 = 4.0 * math.pi * math.pi
_LN2 = math.log(2.0)
# Λ/M below which the cutoff integrals switch to the heavy-mass series
_HEAVY_MASS = 0.5
# Newton steps allowed for the mass gap: ordinary inputs take at most about 15,
# but where Λ ≪ M a step only triples M², so crossing float range takes ~1330
_GAP_STEPS = 1400
# smallest normal float; below it I₀ keeps only some of its digits
_NORMAL_MIN = 2.0**-1022


@dataclass(frozen=True)
class FieldTheory:
    """Bare parameters: mass² m² > 0 (symmetric theory), coupling λ > 0,
    momentum cutoff Λ > 0 (Λ ≫ m recommended)."""

    m2: float
    lam: float
    cutoff: float

    def __post_init__(self):
        if not (self.m2 > 0.0) or not math.isfinite(self.m2):
            raise DomainError(f"bare mass^2 must be positive, got {self.m2}")
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise DomainError(f"coupling must be positive, got {self.lam}")
        if not (self.cutoff > 0.0) or not math.isfinite(self.cutoff):
            raise DomainError(f"cutoff must be positive and finite, got {self.cutoff}")


@dataclass(frozen=True)
class GapState:
    sigma: float
    M2: float
    i0: float
    i1: float
    im1: float
    # F(M²) = M² − m² − 12λσ² − 12λI₀(M²), the residual checked at the root
    residual: float


@dataclass(frozen=True)
class RenormalizedParams:
    mR2: float
    lambdaR: float


def _heavy_mass_series(n: int, length: float, mass: float) -> float:
    """I_n for t = Λ/M < ½ from (1 + x²)^{n−½} = Σ_j C(n−½, j) x^{2j}:

        I_n = Λ³ M^{2n−1}/(4π²) · Σ_j C(n−½, j) t^{2j}/(2j + 3),

    whose terms fall at least as fast as 4^{−j}."""
    t = length / mass
    t2 = t * t
    coef, total = 1.0, 1.0 / 3.0
    for j in range(1, 64):
        coef *= (n + 0.5 - j) / j * t2
        term = coef / (2 * j + 3)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    # Λ³M^{2n−1}, grouped so that no factor over- or underflows before the
    # product does
    if n == -1:
        scale = t * t2
    elif n == 0:
        scale = length * length * t
    else:
        scale = length * length * (length * mass)
    return scale * total / _FOUR_PI2


def stevenson(n: int, M2: float, cutoff: float) -> float:
    """Cutoff integral I_n(M²) for n ∈ {−1, 0, 1}.

    Closed forms for Λ ≥ M/2.  Below that they cancel to a relative error of
    about ε(M/Λ)³, and the heavy-mass series takes over.
    """
    if n not in (-1, 0, 1):
        raise DomainError(f"only n in {{-1, 0, 1}} supported, got {n}")
    if not 0.0 < M2 < math.inf or not 0.0 < cutoff < math.inf:
        raise DomainError(f"need finite M2 > 0 and cutoff > 0, got {M2}, {cutoff}")
    length = float(cutoff)
    mass = math.sqrt(M2)
    try:
        if length < _HEAVY_MASS * mass:
            value = _heavy_mass_series(n, length, mass)
        else:
            s = math.hypot(length, mass)  # overflow-safe sqrt(L² + M²)
            ratio = (length + s) / mass
            # ln((Λ + s)/M) stays finite after Λ + s or the ratio overflows
            lt = (math.log(ratio) if ratio < math.inf else
                  math.log(0.5 * length + 0.5 * s) - math.log(mass) + _LN2)
            if n == -1:
                value = (lt - length / s) / _FOUR_PI2
            elif n == 0:
                value = (length * s - M2 * lt) / (2.0 * _FOUR_PI2)
            else:
                value = (length * s**3 / 4.0 - M2 * length * s / 8.0
                         - M2 * M2 * lt / 8.0) / _FOUR_PI2
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonFiniteValue(f"I_{n}({M2}) at cutoff {cutoff} leaves floating-point range")
    return value


def _gap_source(lam: float, M2: float, cutoff: float, i0: float) -> float:
    """12λI₀(M²), given I₀ = stevenson(0, M², Λ), without a subnormal factor.

    Where Λ³/M or Λ² falls below about 1e-306, I₀ is subnormal and keeps only
    a few digits, although 12λI₀ in the gap equation can be a normal number.
    I₀ is homogeneous of degree two in (Λ, M), so it is then formed at
    (2^{−s}Λ, 4^{−s}M²) with 4^{−s}M² ≈ 2^600, and 12λ times it is scaled back
    by 4^s through the exponents alone, which is exact.  That keeps every
    digit while Λ/M > 1e-160; below Λ/M ≈ 2e-414 the cutoff itself would
    underflow, and 12λI₀ < 1e-930·M² is left as it is.
    """
    if i0 >= _NORMAL_MIN:
        return 12.0 * lam * i0
    s = (math.frexp(M2)[1] - 600) // 2
    length = math.ldexp(cutoff, -s)
    if length == 0.0:
        return 12.0 * lam * i0
    coupling, e_lam = math.frexp(lam)
    unit, e_unit = math.frexp(stevenson(0, math.ldexp(M2, -2 * s), length))
    return math.ldexp(12.0 * coupling * unit, e_lam + e_unit + 2 * s)


def solve_mass_gap(theory: FieldTheory, sigma: float) -> GapState:
    """Unique root of M² = m² + 12λσ² + 12λI₀(M²).

    The residual F(M²) = M² − m² − 12λσ² − 12λI₀(M²) is increasing,
    F′ = 1 + 6λI₋₁ > 0, and concave, F″ = 6λ·dI₋₁/dM² < 0, and it is
    negative at M² = m² + 12λσ², where F = −12λI₀.  Each Newton tangent of a
    concave F lies above F, so Newton started there climbs monotonically
    onto the root and never overshoots it.  The climb stops once rounding no
    longer lets a step increase M², and the residual already evaluated there
    is the one checked and returned.  12λI₀ comes from `_gap_source`, which keeps its
    digits where I₀ itself is subnormal.
    """
    lam, cut = theory.lam, theory.cutoff
    base = theory.m2 + 12.0 * lam * sigma * sigma
    if not math.isfinite(base):
        raise DomainError(f"sigma must be finite with 12*lambda*sigma^2 finite, got {sigma}")
    m2 = base
    for _ in range(_GAP_STEPS):
        i0, im1 = stevenson(0, m2, cut), stevenson(-1, m2, cut)
        # the normal case inline: a call per step costs about 4% of a solve
        source = 12.0 * lam * i0 if i0 >= _NORMAL_MIN else _gap_source(lam, m2, cut, i0)
        f = m2 - base - source
        step = m2 - f / (1.0 + 6.0 * lam * im1)
        # inf where the climb leaves float range, NaN where 12λI₀ and 6λI₋₁ both do
        if not step < math.inf:
            raise NonFiniteValue(f"mass gap M2 of {theory} at sigma={sigma} leaves floating-point range")
        if not step > m2:
            break
        m2 = step
    else:
        raise NonConvergence(f"mass-gap ascent did not settle in {_GAP_STEPS} steps")
    if not abs(f) <= 1e-10 * m2:
        raise NonConvergence(f"gap residual {f:.3e} too large")
    return GapState(sigma=float(sigma), M2=m2, i0=i0,
                    i1=stevenson(1, m2, cut), im1=im1, residual=f)


def effective_potential(theory: FieldTheory, sigma: float) -> float:
    """Gaussian effective potential U(σ) on the gap solution M²(σ)."""
    state = solve_mass_gap(theory, sigma)
    try:
        quartic = theory.lam * sigma**4
    except OverflowError as exc:
        raise NonFiniteValue(f"U({sigma}) of {theory} leaves floating-point range") from exc
    return (
        state.i1
        - 3.0 * theory.lam * state.i0 * state.i0
        + 0.5 * theory.m2 * sigma * sigma
        + quartic
    )


def renormalized(theory: FieldTheory) -> RenormalizedParams:
    """Renormalized mass² and coupling from the curvatures of U at σ = 0."""
    bar = solve_mass_gap(theory, 0.0)
    lam = theory.lam
    lam_r = lam * (1.0 - 12.0 * lam * bar.im1) / (1.0 + 6.0 * lam * bar.im1)
    return RenormalizedParams(mR2=bar.M2, lambdaR=lam_r)


def structure_function(k: float, m2: float, M2: float) -> float:
    """Vacuum structure function u(k) = √((k²+m²)/(k²+M²))."""
    if k < 0.0 or m2 <= 0.0 or M2 <= 0.0:
        raise DomainError("need k >= 0, m2 > 0, M2 > 0")
    return math.sqrt((k * k + m2) / (k * k + M2))


def density_ratio(k: float, mR2: float) -> float:
    """ρ(k) = (1 + k²/m_R²)^{−1/2}, the density profile of the condensate."""
    if k < 0.0 or mR2 <= 0.0:
        raise DomainError("need k >= 0 and mR2 > 0")
    return 1.0 / math.sqrt(1.0 + k * k / mR2)


def peak_density(m2: float, mR2: float) -> float:
    """Peak condensate number density n(0) = (m/m_R)/(32π³)."""
    if m2 <= 0.0 or mR2 <= 0.0:
        raise DomainError("need m2 > 0 and mR2 > 0")
    return math.sqrt(m2 / mR2) / (32.0 * math.pi**3)


def occupation(k: float, m2: float, M2: float) -> float:
    """Finite-cutoff mode occupation n(k) = sinh²(½ ln u(k)) = ¼(u + 1/u − 2)."""
    u = structure_function(k, m2, M2)
    return 0.25 * (u + 1.0 / u - 2.0)


def _k1_scaled(x: float) -> float:
    """e^x K₁(x) = ∫₀^∞ e^{−x(cosh t−1)} cosh t dt by the trapezoid rule.

    The integrand is even and analytic in the strip |Im t| < π/2 and decays
    double-exponentially, so the trapezoid sum over the whole line,

        h·[½ + Σ_{j=1..N} exp(−2x sinh²(jh/2)) cosh(jh)],

    converges geometrically in 1/h: its error is about e^{−2πa/h} for a strip
    of half-width a.  The full strip a = π/2 gives e^{−π²/h}, below 1e-21 at
    h = 0.2.  At large x the integrand grows like e^{xa²/2} off the real
    axis, so the usable strip shrinks to the peak width a ~ 1/√x and the
    error becomes about e^{−2π²/(h²x)}; h = 0.6/√x keeps that at e^{−55}.
    The sum stops at x(cosh t − 1) = 45; the tail it leaves out is at most
    about e^{−45} of the integral.  At small x that cut lies near t =
    ln(90/x), so the sum takes about 5 ln(90/x) terms (219 at x = 1e-17).
    Callers use it for x > 1e-17 only: below, x·eˣK₁(x) rounds to 1.
    Factoring out e^{−x} keeps x up to 700 inside normal double range.
    """
    h = min(0.2, 0.6 / math.sqrt(x))
    n = math.ceil(2.0 * math.asinh(math.sqrt(22.5 / x)) / h)
    total = 0.5
    for j in range(1, n + 1):
        s = math.sinh(0.5 * j * h)
        total += math.exp(-2.0 * x * s * s) * math.cosh(j * h)
    return h * total


def bessel_k1(x: float) -> float:
    """Modified Bessel function K₁(x) for x ∈ (0, 700].

    Computed from the integral representation K₁(x) = ∫₀^∞ e^{−x cosh t}
    cosh t dt by one fixed-step trapezoid sum (see `_k1_scaled`): the step
    h = min(0.2, 0.6/√x) follows from the half-width π/2 of the strip where
    the integrand is analytic and, at large x, from the 1/√x width of its
    peak; the sum is cut where x(cosh t − 1) = 45, after N ≤ 58 terms for
    x ≥ 1e-3 and about 5 ln(90/x) terms below.  Both depend on x alone, so
    nothing is iterated, and the result is within 1e-15 relative of K₁ from
    x = 1e-17 to 700.  At x ≤ 1e-17 it is 1/x, since K₁(x) = 1/x +
    O(x ln x) and the rest is below 1e-32 relative; below x ≈ 5.6e-309,
    where 1/x overflows, it raises NonFiniteValue.
    """
    if not (0.0 < x <= 700.0):
        raise DomainError(f"bessel_k1 supports x in (0, 700], got {x}")
    if x > 1e-17:
        return math.exp(-x) * _k1_scaled(x)
    k1 = 1.0 / x
    if k1 == math.inf:
        raise NonFiniteValue(f"K1({x}) leaves floating-point range")
    return k1


def static_potential(r: float, mR: float) -> float:
    """Static inter-particle potential U(r) = m_R K₁(m_R r)/(4π² r).

    Formed as U = x·K₁(x)/(4π²r²) with x = m_R r and x·K₁(x) = e^{−x}·x·eˣK₁(x)
    from the scaled sum, so that no factor leaves float range unless U does:
    x may underflow to 0, where x·K₁(x) → 1, or pass 708, where e^{−x} is no
    longer normal and U is formed from its logarithm.  U is 0.0 where it
    underflows and raises NonFiniteValue where it overflows.
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"r must be positive and finite, got {r}")
    if not 0.0 < mR < math.inf:
        raise DomainError(f"mR must be positive and finite, got {mR}")
    x = mR * r
    if x >= 2300.0:  # U < e^{−x}/r² ≤ e^{−2300}·2^{2148} underflows for every float r
        return 0.0
    # x·eˣK₁(x) = 1 + x + O(x² ln x) rounds to 1 below x = 1e-17
    xk1 = x * _k1_scaled(x) if x > 1e-17 else 1.0
    try:
        if x < 708.0:
            u = xk1 / _FOUR_PI2 * math.exp(-x) / r / r
        else:  # e^{−x} is no longer normal
            u = math.exp(math.log(xk1 / _FOUR_PI2) - x - 2.0 * math.log(r))
    except OverflowError:
        u = math.inf
    if not math.isfinite(u):  # U ≈ 1/(4π²r²) at short range
        raise NonFiniteValue(f"U({r}) at mR {mR} leaves floating-point range")
    return u
