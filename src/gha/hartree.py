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
cubic ω³ + 2gω + 6λ p(ξ) = 0 with p(ξ) = 5ξ − 1/(4ξ), and σ solves the
configuration equation gσ + λ∂_σ⟨φ⁴⟩ = 0.  The cubic is the σ = 0 gap
polynomial below with k = 2 at g′ = −2g and c₀′ = −6λp(ξ), and its level
energy is the same formula at g′, less the well depth g²/(16λ).  Its σ² is
always positive: the root has ω² ≥ −2g/3, and there 6λp(ξ) = ω(−2g − ω²) ≤
−4gω/3, so g + 12λξ/ω ≤ g(1 − 8ξ/(3p(ξ))) ≤ g/3 < 0 wherever 12λξ/ω is
finite.  Where the cubic has that root a level has both branches, and the
lower energy is the physical one; on an exact tie the symmetry-restored
branch is kept.  The root is solved at its own scale (below), but σ and E₀
are formed in the model's units, where 12λ, g² and g/ω can overflow; a level
with a branch whose σ or E₀ is not finite raises `NonFiniteValue`, since the
comparison then decided nothing.

On every branch the level's coefficients follow from completing the square
in H₀: ω² = g + 2λA and σ = λB/ω², so B = σω²/λ, and C makes ⟨V⟩ = ⟨φ^{2k}⟩
with ⟨φ²⟩ = σ² + ξ/ω.

Every branch, the broken one included, solves f(ω) = ω^{k+1} − gω^{k−1} − c₀
by one Newton descent onto its largest root, from one start and above one
floor, at its own power-of-two scale.  f is homogeneous: f(2^jω) = 2^{(k+1)j}
f₁(ω) with f₁(ω) = ω^{k+1} − g₁ω^{k−1} − c₁, g₁ = g/4^j and c₁ = c₀/2^{(k+1)j}.
The even j comes from the exponents of g, of λ and of c₀ formed at λ's
mantissa, so that c₁ ∈ [½, 2^{2k+1}) and, for g > 0, g₁ < 16: the gap's
largest term near its root, ω^{k+1} for g > 0 and c₀ for g < 0, is then near
1.  c₁ is formed from λ/2^{(k+1)j} in the order that forms c₀, so it is c₀
scaled exactly wherever c₀ is a normal float, and keeps its digits where c₀
would be subnormal or overflow.  For g > 0 it may underflow, far below the
rounding of g₁, and g₁ may underflow where c₀ dominates; so the sign of g,
not of g₁, picks the start.  The root of f is 2^j times that of f₁.  g₁
overflows only for g < 0 so large that the root's ω^{k−1} ≈ c₀/|g| lies below
the float range, and ω must be a normal float: those are the gap's range
checks, each a `NonFiniteValue`.  Scaling a model by s = 4^i, g → s²g and
λ → s^{k+1}λ, moves j by 2i and leaves f₁ and every step of its descent alone,
so ω scales by s exactly, and with it σ by s^{−1/2} and E₀ by s, away from
under- and overflow.  A, B, C and h₀ are formed in the model's units, with
libm powers, and need not scale exactly.

The floor √((k−1)·max(g, 0)/(k+1)) is where f′ = ω^{k−2}[(k+1)ω² −
(k−1)g] vanishes for g > 0; above it f′ and f″ = ω^{k−3}[k(k+1)ω² −
(k−1)(k−2)g] are positive.  For g > 0 the descent starts at
ω₀ = √(g + max(c₀, 0)^{2/(k+1)}), a function of the branch's (k, g, c₀)
alone, never of another level's root.  There f(ω₀) = ω₀^{k−1}(ω₀² − g) − c₀
≥ c₀^{(k−1)/(k+1)}c₀^{2/(k+1)} − c₀ = 0 for c₀ > 0, and f(ω₀) = −c₀ > 0 for
c₀ < 0.  Computed at unit scale, that start is above ω₀(1 − 4.5u),
u = 2⁻⁵³, and it is raised by the factor 1 + 4ε = 1 + 8u, so f₁ ≥ 0 holds
there for the float g₁ and c₁ (`_branch` derives the bound).  At σ = 0,
c₀ = 2kλc_k(n)/ξ > 0, so the root has ω² > g, above the floor.  For g < 0
the descent starts at the smaller of (2c₀)^{1/(k+1)} and (2c₀/|g|)^{1/(k−1)}.
f exceeds both ω^{k+1} − c₀ and |g|ω^{k−1} − c₀, so f ≥ c₀ > 0 there.  Where
|g| dominates, this start lies within a factor 2^{1/(k−1)} of the root,
whereas from (2c₀)^{1/(k+1)} the first step can round to ω ≤ 0.  The broken
cubic has g′ > 0 > c₀′, so it starts at √g′, above the floor √(g′/3) =
√(−2g/3).  There f = 6λp(ξ) − 2(−2g/3)^{3/2}, which in exact arithmetic is ≤ 0
exactly when λ ≤ λ_c.  The cubic decides from f at its floor, as computed,
whether it has a root: it has none where that f is positive.  This test and
λ ≤ fl(λ_c) round differently, so they can disagree where f at the floor lies
within a few ε of its largest term 3(−2g/3)^{3/2}.  On an increasing convex
function every Newton step from above lands between the root and the current
point, so the iterates fall monotonically onto the root and stop when
rounding no longer lets a step decrease ω and keep it above the floor.  The
root's residual must then be at most 1e-12 times the largest term of f₁,
max(ω^{k+1}, |g₁|ω^{k−1}, |c₁|), which is near 1.

A level is solved in two memoized steps on the model instance.  The winner
step solves each branch and keeps the lowest branch's (ω, σ, phase, E₀).
It has one range rule, that every branch it solved has a finite σ + E₀, and
fails with `NonFiniteValue` otherwise, before any coefficient is formed.  The
solution step, `solve_level`, adds the coefficients A, B, C and h₀ at that
winner.  The second-order denominators read only E₀ of the 2k
neighbours, so neighbours stop at the winner step, and the second-order
sums, the table columns and the oracle's basis frequency share one solve
per (model, level); a failed step stores nothing and fails again.  A second-
order level op thus solves 1 + 2k gaps, so a branch is one function,
`_branch`: it takes its gap from `_gap_poly`, the one place that forms it,
picks the scale and the start, runs the descent, checks the range and the
residual, and forms σ and E₀.  The descent hands back ω^{k+1} and gω^{k−1}
at its last iterate for the residual's scale.  The model is an immutable
`__slots__` class that stores k and the binary exponents of g and λ once.
The exponent of c₀ is taken per gap: one of 2kc_k(n)/ξ cached per (power,
n) would move j by 2 where λ's mantissa times that factor falls into the
binade below, and with it the last bit of some roots.  The moments c_j(n)
of the 4096 pairs (j, n) used last are cached per process.

A level is the one way into its branches.  The level index must be a
nonnegative integer in float range (`errors._index`), checked once, by
`solve_level` before the level's memo; the steps below it take ξ = n + ½
from there.  The winner step solves
only the phases that the model's sign of g and power admit; on the double
well it solves both, and the broken branch exists where its cubic has a root
above its floor.  No level solve computes λ_c: `critical_coupling` is a
reported number.  Each branch's ω, σ and E₀ stay readable on the level: its
own fields for the winner, and `branches` for both double-well branches
where both exist.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from .errors import (DomainError, NonConvergence, NonFiniteValue, PhaseUnavailable, _finite,
                     _in_range, _index, _positive, _shown)

# Newton descends monotonically from its start.  Over whole-range draws it
# took at most 8 steps at σ = 0 and 29 on the broken branch, whose root nears
# the floor, where f′ vanishes, as λ → λ_c
_NEWTON_STEPS = 100

# the smallest normal float
_TINY = sys.float_info.min

# 1 + 4ε: raises a g > 0 gap's start above its root (see `_branch`)
_START_RAISE = 1.0 + 4.0 * sys.float_info.epsilon


class Phase(str, Enum):
    AHO = "AHO"
    DWO_SR = "DWO_SR"
    DWO_SSB = "DWO_SSB"


# Phase.X goes through the slow attribute hook of Enum's metaclass (about
# 0.2 µs); the gap solves, 1 + 2k per level op, use these names instead
_AHO, _DWO_SR, _DWO_SSB = Phase.AHO, Phase.DWO_SR, Phase.DWO_SSB


class OscillatorModel:
    """Anharmonic power 2k ∈ {4,6,8}, quadratic coefficient g ≠ 0, coupling λ > 0.

    Immutable: its repr, equality and hash are over (power, g, lam) alone.
    """

    __slots__ = ("power", "g", "lam", "k", "_frexp", "_winners", "_levels")

    def __init__(self, power: int, g: float, lam: float):
        # a float power passes the membership test but fails in math.comb
        if not hasattr(power, "__index__") or power not in (4, 6, 8):
            raise DomainError("anharmonic power must be the integer 4, 6 or 8, "
                              f"got {_shown(power, repr)}")
        _positive(lam, "coupling must be positive")
        if g == 0.0 or not _finite(g):
            raise DomainError(f"quadratic coefficient must be nonzero, got {_shown(g)}")
        init = object.__setattr__
        init(self, "power", power)
        init(self, "g", g)
        init(self, "lam", lam)
        # an int, whatever integer type power has: math.ldexp takes no other
        init(self, "k", int(power) // 2)
        # (m, e) of λ = m·2^e and the exponent of g, from which `_branch` scales each gap
        init(self, "_frexp", (*math.frexp(lam), math.frexp(g)[1]))
        # level n -> (ω, σ, phase, E₀, branches) of its lowest branch, filled by _winner
        init(self, "_winners", {})
        # level n -> HartreeSolution, filled by solve_level
        init(self, "_levels", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(power={self.power!r}, g={self.g!r}, lam={self.lam!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.power, self.g, self.lam) == (other.power, other.g, other.lam)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.power, self.g, self.lam))


@dataclass(frozen=True, slots=True)
class BranchInfo:
    phase: Phase
    omega: float
    sigma: float
    energy: float


@dataclass(frozen=True, slots=True)
class HartreeSolution:
    """Per-level self-consistent output."""

    n: int
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
    _index(n, "level index must be nonnegative and integral")
    return n + 0.5


# typed, so that a float n misses the entry of the equal int and is refused
@functools.lru_cache(maxsize=4096, typed=True)
def moment(j: int, n: int) -> float:
    """c_j(n) = ω^j⟨n|(φ−σ)^{2j}|n⟩, summed exactly in integers and rounded
    once; `NonFiniteValue` where that leaves float range.  c_j(n) ≥ c_j(0) =
    (2j − 1)!!/2^j, which overflows from j = 172 on, so no larger j is summed."""
    _index(j, "moment needs j >= 0 and n >= 0")
    _index(n, "moment needs j >= 0 and n >= 0")
    if j < 172:
        total = sum(math.comb(j, i) * math.comb(n, i) * 2**i for i in range(j + 1))
        try:
            return math.prod(range(1, 2 * j, 2)) * total / 2**j
        except OverflowError:  # inline, not errors._in_range: int / int raises, not inf
            pass
    raise NonFiniteValue(f"moment c_{_shown(j)}({n}) leaves floating-point range")


def _field_averages(k: int, n: int, xi: float, omega: float, sigma: float):
    """⟨φ^{2k}⟩, ∂_σ⟨φ^{2k}⟩, A = Σ_{j≥1} C(2k,2j) σ^{2k−2j} j c_j/(ξω^{j−1})
    in level n of the mode (ω, σ), and the coefficients h₁ and h₂ of χ and χ²,
    χ = φ − σ, in H′ = φ^{2k} − Aφ² + Bφ − C.  h₂ = C(2k,2)σ^{2k−2} − A is
    minus A's j ≥ 2 terms, since c₁ = ξ.  h₁ = 2kσ^{2k−1} − 2Aσ + B is minus
    ∂_σ⟨φ^{2k}⟩'s j ≥ 1 terms wherever B = σω²/λ, ω² = g + 2λA and the
    configuration equation gσ + λ∂_σ⟨φ^{2k}⟩ = 0 hold.  Neither sum cancels
    terms far larger than itself.  ξ = n + ½, from a caller that checked n.
    """
    if not sigma:
        # every j < k term carries σ^{2k−2j} = 0.0
        avg = moment(k, n) / omega**k
        a = k * avg * omega / xi
        return avg, 0.0, a, 0.0, -a
    avg = d_sigma = a = h1 = h2 = 0.0
    for j in range(k + 1):
        p = 2 * k - 2 * j
        term = math.comb(2 * k, 2 * j) * moment(j, n) / omega**j
        avg += term * sigma**p
        if p:
            d = p * term * sigma ** (p - 1)
            d_sigma += d
            if j:
                h1 -= d
        if j:
            a_j = j * term * omega * sigma**p / xi
            a += a_j
            if j > 1:
                h2 -= a_j
    return avg, d_sigma, a, h1, h2


def critical_coupling(xi: float, g: float) -> float:
    """λ_c(ξ, g) = (−2g/3)^{3/2} / (3 p(ξ)), the largest coupling with a
    broken-symmetry branch of the quartic double well; for finite ξ ≥ ½ and
    finite g < 0 only.  Reported, not consulted: a level decides that branch
    from its cubic, which can disagree with λ ≤ λ_c within rounding."""
    if not (g < 0.0 and _finite(g)):
        raise DomainError(f"critical coupling is defined for g < 0, got g={_shown(g)}")
    if not (0.5 <= xi and _finite(xi)):
        raise DomainError(f"xi must be finite and at least 1/2, got {_shown(xi)}")
    try:
        # below g ≈ −9e307 it is −2g that overflows, to inf and without raising
        lam_c = (-2.0 * g / 3.0) ** 1.5 / (3.0 * xi_p(xi))
    except OverflowError:
        lam_c = math.inf
    return _in_range(lam_c, "lambda_c at g={} leaves floating-point range", g)


def _gap_poly(model: OscillatorModel, n: int, xi: float, phase: Phase,
              lam: float) -> Tuple[int, float, float]:
    """(k, g, c₀) of the phase's gap residual f(ω) = ω^{k+1} − gω^{k−1} − c₀
    at level n with ξ = n + ½ and coupling lam: the model's λ, or a
    power-of-two multiple of it, by which c₀ is then scaled exactly.

    The broken branch's cubic ω³ + 2gω + 6λp(ξ) is the k = 2 case at
    (−2g, −6λp(ξ)).
    """
    if phase is _DWO_SSB:
        return 2, -2.0 * model.g, -6.0 * lam * xi_p(xi)
    k = model.k
    return k, model.g, 2 * k * lam * moment(k, n) / xi


def _newton(k: int, g: float, c0: float, w: float,
            floor: float) -> Tuple[float, float, float, float]:
    """Newton descent onto the root of f(ω) = ω^{k+1} − gω^{k−1} − c₀ from
    w at or above it; the last iterate ω, f(ω), ω^{k+1} and gω^{k−1}.

    f must be increasing and convex on (floor, w] with its root in there,
    so every step lands between the root and the current point; the descent
    ends when rounding stops a step from decreasing w or keeping it above
    floor.
    """
    # loop invariants; (k − 1)·g is the product that `(k - 1) * g * w ** (k - 2)`
    # forms first, so hoisting it leaves every iterate the same float
    k_up, k_down, k_low, kg = k + 1, k - 1, k - 2, (k - 1) * g
    for _ in range(_NEWTON_STEPS):
        top, mid = w ** k_up, g * w ** k_down
        f = top - mid - c0
        w2 = w - f / (k_up * w**k - kg * w ** k_low)
        if not floor < w2 < w:
            return w, f, top, mid
        w = w2
    raise NonConvergence(f"gap Newton descent did not settle in {_NEWTON_STEPS} steps")


def _branch(model: OscillatorModel, n: int, xi: float,
            phase: Phase) -> Optional[Tuple[float, float, Phase, float]]:
    """(ω, σ, phase, E₀) of one branch of level n ≥ 0 with ξ = n + ½, in
    `_finish`'s order, or None where its gap has no root above its floor;
    the phase is one that the model admits, and only the broken branch can
    lack a root.

    ω is the largest root of the gap f(ω) = ω^{k+1} − gω^{k−1} − c₀ that
    `_gap_poly` forms, found as 2^j times that of f₁(ω) = ω^{k+1} − g₁ω^{k−1}
    − c₁ (see the module docstring).  E₀ = ξ[(k+1)ω + (k−1)g/ω]/(2k) at the
    (k, g) of the gap, on the broken branch measured from the bottom of the
    wells.  That branch takes σ = +√σ² with σ² = −(g + 12λξ/ω)/(4λ), which
    is positive wherever its gap solves; the two wells are degenerate, so
    the sign is not physical.  ω, σ and E₀ are in the model's units.
    """
    m_lam, e_lam, e_g = model._frexp
    # c₀ = c·2^{e_λ}: c, formed at λ's mantissa, is a normal float at any λ
    k, g, c = _gap_poly(model, n, xi, phase, m_lam)
    # j = 2i puts c₁ = c₀/2^{(k+1)j} in [½, 2^{2k+1}), and for g > 0 also
    # g₁ = g/4^j below 16, with c₁ ≥ ½ or g₁ ≥ ½
    i = (e_lam + math.frexp(c)[1]) // (2 * k + 2)
    if g > 0.0 and i < e_g // 4:
        i = e_g // 4
    j = 2 * i
    # g₁ overflows only for g < 0 so far above c₀ that the root's
    # ω^{k−1} ≈ c₀/|g| lies below the float range; ldexp then raises
    # OverflowError, which the winner step reports as NonFiniteValue
    g1, c1 = math.ldexp(g, -2 * j), math.ldexp(c, e_lam - (k + 1) * j)
    if g > 0.0:
        # f₁′ vanishes here
        floor = math.sqrt(g1 / (k + 1) * (k - 1))
        # f₁(floor) = floor^{k−1}(floor² − g₁) − c₁ is negative unless c₁ < 0,
        # as on the broken cubic; where it is positive f₁ has no root above
        if c1 < 0.0 and floor ** (k - 1) * (floor * floor - g1) > c1:
            return None
        # ω* = √(g₁ + c̃), c̃ = max(c₁, 0)^{2/(k+1)}, has f₁(ω*) ≥ 0.  The
        # rounded exponent moves c̃ by u|ln c̃|, u = 2⁻⁵³, and pow by up to 2u;
        # as ω*² ∈ [½, 32), the share c̃/ω*² of that is below u(2 + 1/e +
        # ln 32) < 5.9u.  With u each for the sum and the root, the float
        # start is above ω*(1 − 4.5u), and its product with 1 + 8u, rounded,
        # above ω*(1 + 2.5u): f₁ ≥ 0 there for the float g₁ and c₁
        w = math.sqrt(g1 + (c1 if c1 > 0.0 else 0.0) ** (2.0 / (k + 1))) * _START_RAISE
    else:
        # f₁ ≥ |g₁|ω^{k−1} − c₁ = c₁ there, near the root where |g₁|
        # dominates; where g₁ underflows to −0 the first start is the smaller
        w = min((2.0 * c1) ** (1.0 / (k + 1)), (2.0 * c1 / (-g1 or _TINY)) ** (1.0 / (k - 1)))
        floor = 0.0
    w, residual, top, mid = _newton(k, g1, c1, w, floor)
    # checked before the residual, since below the normal range the descent
    # loses digits; ω is not finite where −2g overflowed on the broken cubic
    omega = math.ldexp(w, j)
    # inline, not errors._in_range: ω must be normal, not only finite
    if not _TINY <= omega < math.inf:
        raise NonFiniteValue(f"gap root of level {n} of {model} leaves floating-point range")
    # the residual is a sum of the terms of f₁, and rounding in the largest
    # of them, near 1, bounds how small it can get
    tol = 1e-12 * max(top, abs(mid), abs(c1))
    if not abs(residual) <= tol:
        raise NonConvergence(f"gap residual {residual:.3e} above tolerance {tol:.3e}")
    sigma = depth = 0.0
    if phase is _DWO_SSB:
        # σ² > 0 wherever 12λξ/ω is finite; where that overflows, σ² is −∞ or
        # nan, and the σ = ∞ or nan taken from |σ²| fails the level
        sigma = math.sqrt(abs((model.g + 12.0 * model.lam * xi / omega) / (4.0 * model.lam)))
        depth = _well_depth(model)
    return omega, sigma, phase, xi * ((k + 1) * omega + (k - 1) * g / omega) / (2 * k) - depth


def _finish(model, n, xi, omega, sigma, phase, energy, branches=None) -> HartreeSolution:
    """Level n's solution, ξ = n + ½, at its gap root (ω, σ) with energy E₀;
    branches are the two double-well branches in `_branch`'s order, or None."""
    avg, _, A, _, _ = _field_averages(model.k, n, xi, omega, sigma)
    B = sigma * omega * omega / model.lam
    C = avg - A * (sigma * sigma + xi / omega) + B * sigma
    h0 = model.lam * C - 0.5 * omega * omega * sigma * sigma
    if branches is not None:
        branches = tuple(BranchInfo(ph, w, s, e) for w, s, ph, e in branches)
    return HartreeSolution(n, omega, sigma, phase, A, B, C, h0, energy, branches)


def _winner(model: OscillatorModel, n: int, xi: float):
    """(ω, σ, phase, E₀, branches) of level n's lowest branch, ξ = n + ½:
    the winner step, solved once per model instance.  A failed solve stores
    nothing and fails again."""
    won = model._winners.get(n)
    if won is None:
        try:
            won = _solve_level(model, n, xi)
            # one range rule: every branch solved has a finite σ + E₀, the
            # winner alone or, where the broken branch exists, both branches
            # (the winner among them).  σ ≥ 0 and σ² ≤ the largest float, so
            # σ + E₀ is finite exactly where both are.  No loop: this runs
            # 1 + 2k times per second-order level, and for the same reason it
            # is inline, not errors._in_range, which takes one value per call
            both = won[4]
            if not (math.isfinite(won[1] + won[3]) if both is None else
                    math.isfinite(both[0][1] + both[0][3])
                    and math.isfinite(both[1][1] + both[1][3])):
                raise NonFiniteValue(f"level {n} of {model} leaves floating-point range")
        except (OverflowError, ZeroDivisionError) as exc:
            raise NonFiniteValue(
                f"level {n} of {model} leaves floating-point range: {exc}") from exc
        model._winners[n] = won
    return won


def solve_level(model: OscillatorModel, n: int) -> HartreeSolution:
    """Full per-level pipeline: gap solve, phase selection, coefficients, energy.

    The solution step over `_winner`: each level is solved once per model
    instance, and later calls return the stored solution.  A failed solve
    stores nothing and fails again.
    """
    # checked before the memo, which would take a float equal to a solved
    # level; the steps below take ξ from here and check n no more
    xi = _xi(n)
    sol = model._levels.get(n)
    if sol is None:
        try:
            sol = _finish(model, n, xi, *_winner(model, n, xi))
        except (OverflowError, ZeroDivisionError) as exc:
            raise NonFiniteValue(
                f"level {n} of {model} leaves floating-point range: {exc}") from exc
        # a product or a sum that overflows gives inf or nan without raising.
        # ω is finite, and a non-finite A, B, C or σ makes h0 non-finite too
        _in_range(sol.h0, "level {} of {} leaves floating-point range", n, model)
        model._levels[n] = sol
    return sol


def _solve_level(model: OscillatorModel, n: int, xi: float):
    """The unmemoized winner step of level n, ξ = n + ½: the lowest
    branch's (ω, σ, phase, E₀), and both branches of a double-well level
    whose broken cubic has a root, else None."""
    if model.g > 0.0:
        return (*_branch(model, n, xi, _AHO), None)
    if model.power != 4:
        raise PhaseUnavailable("negative-g spectra are provided for the quartic well only")
    sr = _branch(model, n, xi, _DWO_SR)
    ssb = _branch(model, n, xi, _DWO_SSB)
    if ssb is None:
        return (*sr, None)
    # the lower branch is the physical one; on an exact tie, or a NaN, keep
    # the symmetry-restored branch (a NaN fails the winner step)
    return (*(ssb if ssb[3] < sr[3] else sr), (sr, ssb))


def general_gap_residuals(
    model: OscillatorModel, n: int, omega: float, sigma: float
) -> Tuple[float, float]:
    """Residuals of the full σ ≠ 0 gap polynomial ω^{k−1}(ω² − g − 2λA) and
    of the ground-state configuration gσ + λ∂_σ⟨φ^{2k}⟩, for exploratory
    studies."""
    _positive(omega, "omega must be positive")
    if not _finite(sigma):
        raise DomainError(f"sigma must be finite, got {_shown(sigma)}")
    g, lam, w, xi = model.g, model.lam, omega, _xi(n)
    try:
        _, d_sigma, A, _, _ = _field_averages(model.k, n, xi, w, sigma)
        gap, shift = w ** (model.k - 1) * (w * w - g - 2.0 * lam * A), g * sigma + lam * d_sigma
    except (OverflowError, ZeroDivisionError):
        # a power past float range raises, as does a moment over ω^j = 0.0;
        # a product past float range gives inf or NaN instead
        gap = shift = math.inf
    message = "gap residuals of level {} of {} leave floating-point range"
    return _in_range(gap, message, n, model), _in_range(shift, message, n, model)


def gap_residual_scale(model: OscillatorModel, n: int, phase: Phase) -> float:
    """Natural magnitude of the gap polynomial's constant term, used to judge
    residual smallness without pretending float64 can do better than eps."""
    if phase not in (_AHO, _DWO_SR, _DWO_SSB):
        raise DomainError(f"phase must be AHO, DWO_SR or DWO_SSB, got {_shown(phase, repr)}")
    return _in_range(max(1.0, abs(_gap_poly(model, n, _xi(n), Phase(phase), model.lam)[2])),
                     "gap residual scale of level {} of {} leaves floating-point range", n, model)


def _well_depth(model: OscillatorModel) -> float:
    """`classical_well_depth` before its range check, inf where that
    overflows; the broken branch subtracts it, and the winner step's range
    rule then fails the level."""
    # as a float: the square of an int g past 2^512 does not convert to one
    g, lam, k = float(model.g), model.lam, model.k
    if g > 0.0:
        return 0.0
    # g² and the products overflow to inf without raising.  16λ overflows
    # for λ above about 1.1e307, and 2kλ above max/(2k), where g²/λ ≤ 16 and
    # |g|/λ ≤ 2k do not: there λ divides first
    if k == 2:
        d = 16.0 * lam
        return g * g / d if d < math.inf else g * g / lam / 16.0
    d = 2 * k * lam
    ratio = abs(g) / d if d < math.inf else abs(g) / lam / (2 * k)
    return (k - 1) / (2 * k) * abs(g) * ratio ** (1.0 / (k - 1))


def classical_well_depth(model: OscillatorModel) -> float:
    """Depth of the double-well minima of V = ½gφ² + λφ^{2k} below zero; the
    usual additive shift when quoting double-well spectra.  For g < 0 the
    minima lie at φ₀² = (|g|/(2kλ))^{1/(k−1)}, (k−1)/(2k)·|g|·φ₀² below zero,
    which is g²/(16λ) for the quartic.  For g > 0 there is no well: the
    minimum is V(0) = 0 and the depth 0.0.  A depth past float range is a
    `NonFiniteValue`."""
    return _in_range(_well_depth(model), "well depth of {} leaves floating-point range", model)
