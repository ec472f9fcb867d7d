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
longer lets a step increase M².  One private ascent, `_ascend`, returns the
bare (M², I₀, I₋₁, F) at the root.  Only `solve_mass_gap` builds a
`GapState` from it, adding I₁; `effective_potential` takes I₁ at the root
itself, and `renormalized` needs M̄² and I₋₁ alone, so it never evaluates I₁.
The effective potential U(σ) = I₁ − 3λI₀² + ½m²σ² + λσ⁴ is evaluated on
the gap solution M²(σ).  For m² > 0 the only physical vacuum is σ = 0: a σ ≠ 0
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

from .errors import DomainError, NonConvergence, NonFiniteValue, _finite, _positive, _shown

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
        _positive(self.m2, "bare mass^2 must be positive")
        _positive(self.lam, "coupling must be positive")
        _positive(self.cutoff, "cutoff must be positive and finite")


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


def _cutoff_integrals(orders, M2: float, cutoff: float) -> list:
    """[I_n(M²) for n in orders], n ∈ {−1, 0, 1}, for finite M² > 0 and
    cutoff Λ > 0, from one √M² and, for the closed forms, one hypot and one
    ln((Λ + s)/M).  Raises NonFiniteValue for the first I_n, in the order
    given, that leaves float range.

    Closed forms for Λ ≥ M/2.  Below that they cancel to a relative error of
    about ε(M/Λ)³, and the heavy-mass series takes over.
    """
    length = float(cutoff)
    mass = math.sqrt(M2)
    heavy = length < _HEAVY_MASS * mass
    if not heavy:
        # none of these raises: hypot and log return inf where they overflow
        s = math.hypot(length, mass)  # overflow-safe sqrt(L² + M²)
        ratio = (length + s) / mass
        # ln((Λ + s)/M) stays finite after Λ + s or the ratio overflows
        lt = (math.log(ratio) if ratio < math.inf else
              math.log(0.5 * length + 0.5 * s) - math.log(mass) + _LN2)
    values = []
    for n in orders:
        try:
            if heavy:
                value = _heavy_mass_series(n, length, mass)
            elif n == -1:
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
        values.append(value)
    return values


def stevenson(n: int, M2: float, cutoff: float) -> float:
    """Cutoff integral I_n(M²) for n ∈ {−1, 0, 1}.

    Closed forms for Λ ≥ M/2.  Below that they cancel to a relative error of
    about ε(M/Λ)³, and the heavy-mass series takes over.
    """
    if n not in (-1, 0, 1):
        raise DomainError(f"only n in {{-1, 0, 1}} supported, got {_shown(n)}")
    if not (M2 > 0.0 and _finite(M2)) or not (cutoff > 0.0 and _finite(cutoff)):
        raise DomainError(f"need finite M2 > 0 and cutoff > 0, got {_shown(M2)}, {_shown(cutoff)}")
    return _cutoff_integrals((n,), M2, cutoff)[0]


def _gap_source(lam: float, M2: float, cutoff: float, i0: float) -> float:
    """12λI₀(M²), given a subnormal I₀ = stevenson(0, M², Λ), without its subnormal factor.

    Where Λ³/M or Λ² falls below about 1e-306, I₀ is subnormal and keeps only
    a few digits, although 12λI₀ in the gap equation can be a normal number.
    I₀ is homogeneous of degree two in (Λ, M), so it is then formed at
    (2^{−s}Λ, 4^{−s}M²) with 4^{−s}M² ≈ 2^600, and 12λ times it is scaled back
    by 4^s through the exponents alone, which is exact.  That keeps every
    digit while Λ/M > 1e-160; below Λ/M ≈ 2e-414 the cutoff itself would
    underflow, and 12λI₀ < 1e-930·M² is left as it is.
    """
    s = (math.frexp(M2)[1] - 600) // 2
    length = math.ldexp(cutoff, -s)
    if length == 0.0:
        return 12.0 * lam * i0
    coupling, e_lam = math.frexp(lam)
    unit, e_unit = math.frexp(stevenson(0, math.ldexp(M2, -2 * s), length))
    return math.ldexp(12.0 * coupling * unit, e_lam + e_unit + 2 * s)


def _ascend(theory: FieldTheory, sigma: float):
    """(M², I₀(M²), I₋₁(M²), F(M²)) at the unique root of the gap equation, by
    the monotone Newton ascent that `solve_mass_gap` describes."""
    lam, cut = theory.lam, theory.cutoff
    try:
        base = theory.m2 + 12.0 * lam * sigma * sigma
    except OverflowError:  # an int σ too large for a float
        base = math.inf
    if not math.isfinite(base):
        raise DomainError(f"sigma must be finite with 12*lambda*sigma^2 finite, got {_shown(sigma)}")
    m2 = base
    for _ in range(_GAP_STEPS):
        i0, im1 = _cutoff_integrals((0, -1), m2, cut)
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
    return m2, i0, im1, f


def solve_mass_gap(theory: FieldTheory, sigma: float) -> GapState:
    """Unique root of M² = m² + 12λσ² + 12λI₀(M²), with I₀, I₁ and I₋₁ there.

    The residual F(M²) = M² − m² − 12λσ² − 12λI₀(M²) is increasing,
    F′ = 1 + 6λI₋₁ > 0, and concave, F″ = 6λ·dI₋₁/dM² < 0, and it is
    negative at M² = m² + 12λσ², where F = −12λI₀.  Each Newton tangent of a
    concave F lies above F, so Newton started there climbs monotonically
    onto the root and never overshoots it.  The climb stops once rounding no
    longer lets a step increase M², and the residual already evaluated there
    is the one checked and returned.  Each step takes I₀ and I₋₁ from one
    `_cutoff_integrals` call, which forms √M², the hypot and the logarithm
    once for both and raises as `stevenson` does for I₀, then for I₋₁.  Where
    I₀ is subnormal, 12λI₀ comes from `_gap_source`, which keeps its digits.

    The ascent is the private `_ascend`, which returns the raw (M², I₀, I₋₁,
    F); `effective_potential` and `renormalized` call it directly.  Only this
    function builds a `GapState`, and only it adds I₁ = `stevenson(1, M², Λ)`.
    """
    m2, i0, im1, f = _ascend(theory, sigma)
    return GapState(float(sigma), m2, i0, stevenson(1, m2, theory.cutoff), im1, f)


def effective_potential(theory: FieldTheory, sigma: float) -> float:
    """Gaussian effective potential U(σ) on the gap solution M²(σ)."""
    m2, i0, _, _ = _ascend(theory, sigma)
    i1 = _cutoff_integrals((1,), m2, theory.cutoff)[0]
    lam = theory.lam
    try:
        u = i1 - 3.0 * lam * i0 * i0 + 0.5 * theory.m2 * sigma * sigma + lam * sigma**4
    except OverflowError:  # σ⁴ past float range raises; the products give inf
        u = math.inf
    if not math.isfinite(u):
        raise NonFiniteValue(f"U({sigma}) of {theory} leaves floating-point range")
    return u


def renormalized(theory: FieldTheory) -> RenormalizedParams:
    """Renormalized mass² and coupling from the curvatures of U at σ = 0;
    they need M̄² and I₋₁(M̄²) alone, so I₁ is not evaluated."""
    m2, _, im1, _ = _ascend(theory, 0.0)
    lam = theory.lam
    lam_r = lam * (1.0 - 12.0 * lam * im1) / (1.0 + 6.0 * lam * im1)
    return RenormalizedParams(m2, lam_r)


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
    ln(90/x), so the sum takes about 5 ln(90/x) terms (219 at x = 1e-17),
    and N ≤ 58 terms for x ≥ 1e-3.  Both h and N depend on x alone, so
    nothing is iterated, and e^{−x} times the sum is within 1e-15 relative
    of K₁ from x = 1e-17 to 700.  Callers use it for x > 1e-17 only: below,
    x·eˣK₁(x) rounds to 1.
    """
    h = min(0.2, 0.6 / math.sqrt(x))
    n = math.ceil(2.0 * math.asinh(math.sqrt(22.5 / x)) / h)
    total = 0.5
    for j in range(1, n + 1):
        s = math.sinh(0.5 * j * h)
        total += math.exp(-2.0 * x * s * s) * math.cosh(j * h)
    return h * total


def static_potential(r: float, mR: float) -> float:
    """Static inter-particle potential U(r) = m_R K₁(m_R r)/(4π² r).

    Formed as U = x·K₁(x)/(4π²r²) with x = m_R r and x·K₁(x) = e^{−x}·x·eˣK₁(x)
    from the scaled sum `_k1_scaled`, so that no factor leaves float range
    unless U does.  At x ≤ 1e-17, x·K₁(x) is taken as 1, since K₁(x) = 1/x +
    O(x ln x) and the rest is below 1e-32 relative; x may underflow to 0
    there.  Past x = 708, e^{−x} is no longer normal and U is formed from its
    logarithm.  U is 0.0 where it underflows and raises NonFiniteValue where
    it overflows.
    """
    _positive(r, "r must be positive and finite")
    _positive(mR, "mR must be positive and finite")
    x = mR * r
    if x >= 2300.0:  # U < e^{−x}/r² ≤ e^{−2300}·2^{2148} underflows for every float r
        return 0.0
    # x·eˣK₁(x) = 1 + x + O(x² ln x) rounds to 1 below x = 1e-17
    xk1 = x * _k1_scaled(x) if x > 1e-17 else 1.0
    # neither branch raises: the divisions overflow to inf, and past x = 708,
    # r ≥ 708/(largest float) holds the exponent below 699
    if x < 708.0:
        u = xk1 / _FOUR_PI2 * math.exp(-x) / r / r
    else:  # e^{−x} is no longer normal
        u = math.exp(math.log(xk1 / _FOUR_PI2) - x - 2.0 * math.log(r))
    if not math.isfinite(u):  # U ≈ 1/(4π²r²) at short range
        raise NonFiniteValue(f"U({r}) at mR {mR} leaves floating-point range")
    return u
