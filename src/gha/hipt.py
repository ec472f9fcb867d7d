"""Hartree-improved perturbation theory (second order).

The Hartree split H = H₀ + λH′ with H′ = φ^{2k} − V leaves every diagonal
element ⟨n|H′|n⟩ = 0, so the first nonvanishing correction is

    ΔE⁽²⁾_n = Σ_{m≠n} |⟨m|λH′|n⟩|² / (E_n − E_m).

Convention (pinned by reproducing the published second-order columns):
matrix elements are taken in the single level-n Hartree basis (ω(n), σ(n));
the energies E_m in the denominators are the zeroth-order Hartree energies,
each computed from its own level-m gap equation.  Using the rigid spectrum
h₀ + ω(n)(m + ½) of the level-n basis instead does not reproduce the
published numbers.  Only level n needs its full Hartree solution; the 2k
neighbours are solved only to their energy E_m, by the winner step of
`gha.hartree`, which `solve_level` shares.

Only |m − n| ≤ 2k can contribute, and for σ = 0 only even m − n survive
parity.  On the broken-symmetry branch (σ ≠ 0) the odd offsets contribute
as well.

The column ⟨m|H′|n⟩ is summed as Σ_p h_p c^p X̂^p|n⟩ in χ = φ − σ = cX̂,
c = 1/√(2ω) and X̂ = b + b†, from p = 2k down to 1.  Applying X̂ 2k times to
the unit vector |n⟩ on the window max(0, n−2k)…n+2k, (X̂v)[j] = √(j+1) v[j+1]
+ √j v[j−1], yields every X̂^p|n⟩; no path of 2k unit steps from n leaves the
window before its last step, so cutting the basis there drops nothing.
X̂^p|n⟩ is nonzero only at n−p, n−p+2, …, n+p, so each application fills
only that band, clipped at 0 with its parity kept; the entries it skips are
exact zeros.  These unit columns depend on (2k, n) alone, not on ω, and the
1024 used last are cached per process as tuples, so a level pays only for
its own h_p c^p.  `gha.oracle` builds its own X̂ powers; neither module
imports the other.
h_p = C(2k,p)σ^{2k−p} for p ≥ 3, and h₂ = C(2k,2)σ^{2k−2} − A and
h₁ = 2kσ^{2k−1} − 2Aσ + B (−12σξ/ω for the quartic, by the configuration
equation) come from the moment loop of `gha.hartree` without the terms that
cancel.  Written in φ instead, each
element on the broken branch is a difference of terms of size σ^{2k} far
larger than itself.  At σ = 0 only h₂ = −A and h_{2k} = 1 are nonzero and the
odd offsets come out as exact zeros.  h₀ = σ^{2k} − Aσ² + Bσ − C enters the
m = n element alone and is formed from C, so the first-order check tests C;
it holds ⟨n|H′|n⟩ to 1e-9 of the largest of ⟨φ^{2k}⟩, |A⟨φ²⟩|, |Bσ| and
|C|, the scale of its own terms at every λ.
Each kept channel is a `Contribution`, a NamedTuple, so a level op's 2k of
them cost a tuple each.
`build_h_prime` forms H′ as a normal-ordered ladder polynomial instead, with
V from `potential_polynomial`; the two are kept as the independent reference
the tests compare the column with, and are the only library code that uses
`gha.ladder`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

from .errors import NonConvergence
from .hartree import (
    HartreeSolution,
    OscillatorModel,
    _field_averages,
    _winner,
    solve_level,
)

# numerators this far (relatively) below the largest one are cancellation
# debris from the A-coefficient subtraction, not physics; this cut is the one
# numerator filter, and it drops every zero numerator too
_NUMERATOR_DUST = 1e-9


class Contribution(NamedTuple):
    m: int
    numerator: float  # ⟨m|λH′|n⟩
    denominator: float  # E_n − E_m


@dataclass(frozen=True, slots=True)
class PerturbationReport:
    n: int
    e0: float
    delta_e2: float
    e2: float
    contributions: Tuple[Contribution, ...]


def potential_polynomial(A: float, B: float, C: float, mode: ladder.ModeParameters):
    """Hartree potential V = Aφ² − Bφ + C as a ladder polynomial in mode."""
    from . import ladder

    v = ladder.field_power(2, mode).scale(A)
    v = v - ladder.field_power(1, mode).scale(B)
    v = v + ladder.constant(C)
    return v


def build_h_prime(model: OscillatorModel, sol: HartreeSolution):
    """Normal-ordered H′ = φ^{2k} − (Aφ² − Bφ + C) in the mode of sol; a
    reference for `h_prime_column`, not used by `second_order`."""
    from . import ladder

    mode = ladder.ModeParameters(omega=sol.omega, sigma=sol.sigma)
    h_int = ladder.field_power(model.power, mode)
    v = potential_polynomial(sol.A, sol.B, sol.C, mode)
    return h_int - v


@functools.lru_cache(maxsize=1024)
def _unit_column(power: int, n: int) -> Tuple[Tuple[float, ...], ...]:
    """X̂^p|n⟩ on the window max(0, n−2k)…n+2k for p = 0…2k, X̂ = b + b†."""
    lo = max(0, n - power)
    size = n + power + 3 - lo
    # index i holds level lo+i−1, with a zero at each end of the window;
    # hop[i] = ⟨lo+i−1|X̂|lo+i−2⟩ = √(lo+i−1)
    hop = [0.0] + [math.sqrt(lo + i) for i in range(size - 1)]
    v = [0.0] * size
    v[n - lo + 1] = 1.0
    powers = [tuple(v[1:-1])]
    for p in range(1, power + 1):
        w = [0.0] * size
        # X̂^p|n⟩ is nonzero only at n−p, n−p+2, …, n+p, none of them below 0
        for i in range(max(n - p, (n - p) % 2) - lo + 1, n + p - lo + 2, 2):
            w[i] = hop[i] * v[i - 1] + hop[i + 1] * v[i + 1]
        v = w
        powers.append(tuple(v[1:-1]))
    return tuple(powers)


def h_prime_column(model: OscillatorModel, sol: HartreeSolution) -> dict:
    """⟨m|H′|n⟩ in the mode of sol, n = sol.n, for m = max(0, n−2k)…n+2k,
    keyed by m."""
    power, s, n = model.power, sol.sigma, sol.n
    # h[p], the χ^p coefficient of H′ for p = 1…2k; at σ = 0 only h₂ = −A
    # and h_{2k} = 1 are nonzero
    h = [0.0] * power + [1.0]
    if s:
        h[3:power] = [math.comb(power, p) * s ** (power - p) for p in range(3, power)]
        h[1], h[2] = _field_averages(model.k, n, n + 0.5, sol.omega, s)[3:]
    else:
        h[2] = -sol.A
    unit = _unit_column(power, n)
    c = 1.0 / math.sqrt(2.0 * sol.omega)
    scale = c**power
    column = [scale * x for x in unit[power]]
    for p in range(power - 1, 0, -1):
        if h[p]:
            scale = h[p] * c**p
            column = [x + scale * y for x, y in zip(column, unit[p])]
    column = dict(enumerate(column, max(0, n - power)))
    column[n] += s**power - sol.A * s * s + sol.B * s - sol.C
    return column


def second_order(model: OscillatorModel, n: int) -> PerturbationReport:
    """Second-order Hartree-improved energy of level n."""
    sol = solve_level(model, n)
    column = h_prime_column(model, sol)

    # the first-order term λ⟨n|H′|n⟩ is zero by construction of C; checked,
    # never added.  ⟨n|H′|n⟩ = ⟨φ^{2k}⟩ − A⟨φ²⟩ + Bσ − C is held to 1e-9 of
    # its largest term, with ⟨φ^{2k}⟩ = C + A⟨φ²⟩ − Bσ as C states it
    s = sol.sigma
    a_phi2 = sol.A * (s * s + (n + 0.5) / sol.omega)
    b_sigma = sol.B * s
    bound = 1e-9 * max(abs(sol.C + a_phi2 - b_sigma), abs(a_phi2), abs(b_sigma), abs(sol.C))
    first = column.pop(n)
    if not abs(first) <= bound:
        raise NonConvergence(f"first-order term {model.lam * first:.3e} of level {n}"
                             f" exceeds {model.lam * bound:.3e}")

    # the column now holds the 2k or more neighbours of n; since λ > 0,
    # λ·max|⟨m|H′|n⟩| is the largest |numerator| to the bit
    cutoff = _NUMERATOR_DUST * (model.lam * max(map(abs, column.values())))

    contributions = []
    delta = 0.0
    for m, element in column.items():
        num = model.lam * element
        if abs(num) <= cutoff:
            continue
        # m is a level of the column, an int ≥ 0
        den = sol.energy - _winner(model, m, m + 0.5)[3]
        if den == 0.0:
            raise NonConvergence(f"degenerate denominator between levels {n} and {m}")
        contributions.append(Contribution(m, num, den))
        delta += num * num / den

    return PerturbationReport(n, sol.energy, delta, sol.energy + delta, tuple(contributions))
