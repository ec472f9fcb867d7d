"""Hartree-improved perturbation theory (second order).

The Hartree split H = H₀ + λH′ with H′ = φ^{2k} − V leaves every diagonal
element ⟨n|H′|n⟩ = 0, so the first nonvanishing correction is

    ΔE⁽²⁾_n = Σ_{m≠n} |⟨m|λH′|n⟩|² / (E_n − E_m).

Convention (pinned by reproducing the published second-order columns):
matrix elements are taken in the single level-n Hartree basis (ω(n), σ(n));
the energies E_m in the denominators are the zeroth-order Hartree energies,
each computed from its own level-m gap equation.  Using the rigid spectrum
h₀ + ω(n)(m + ½) of the level-n basis instead does not reproduce the
published numbers.

Only |m − n| ≤ 2k can contribute, and for σ = 0 only even m − n survive
parity.  On the broken-symmetry branch (σ ≠ 0) the odd offsets contribute
as well; pass even_only=True to drop them for comparison purposes.

The column ⟨m|H′|n⟩ is summed as Σ_p h_p χ^p|n⟩ in χ = φ − σ = c(b + b†),
c = 1/√(2ω).  Applying χ 2k times to the unit vector |n⟩ on the window
max(0, n−2k)…n+2k, (χv)[j] = c√(j+1) v[j+1] + c√j v[j−1], yields every
χ^p|n⟩; no path of 2k unit steps from n leaves the window before its last
step, so cutting the basis there drops nothing.  h_p = C(2k,p)σ^{2k−p} for
p ≥ 3, and h₂ = C(2k,2)σ^{2k−2} − A and h₁ = 2kσ^{2k−1} − 2Aσ + B (−12σξ/ω
for the quartic, by the configuration equation) come from the moment loop of
`gha.hartree` without the terms that cancel.  Written in φ instead, each
element on the broken branch is a difference of terms of size σ^{2k} far
larger than itself.  At σ = 0 only h₂ = −A and h_{2k} = 1 are nonzero and the
odd offsets come out as exact zeros.  h₀ = σ^{2k} − Aσ² + Bσ − C enters the
m = n element alone and is formed from C, so the first-order check tests C.
`build_h_prime` forms H′ as a normal-ordered ladder polynomial instead; it
is kept as the independent reference the tests compare the column with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .errors import NonConvergence
from .hartree import (
    HartreeSolution,
    OscillatorModel,
    _field_averages,
    potential_polynomial,
    solve_level,
)

# numerators this far (relatively) below the largest one are cancellation
# debris from the A-coefficient subtraction, not physics
_NUMERATOR_DUST = 1e-9


@dataclass(frozen=True)
class Contribution:
    m: int
    numerator: float  # ⟨m|λH′|n⟩
    denominator: float  # E_n − E_m


@dataclass(frozen=True)
class PerturbationReport:
    n: int
    e0: float
    delta_e2: float
    e2: float
    contributions: Tuple[Contribution, ...]


def build_h_prime(model: OscillatorModel, sol: HartreeSolution):
    """Normal-ordered H′ = φ^{2k} − (Aφ² − Bφ + C) in the mode of sol; a
    reference for `h_prime_column`, not used by `second_order`."""
    from . import ladder

    mode = ladder.ModeParameters(omega=sol.omega, sigma=sol.sigma)
    h_int = ladder.field_power(model.power, mode)
    v = potential_polynomial(sol.A, sol.B, sol.C, mode)
    return h_int - v


def h_prime_column(model: OscillatorModel, sol: HartreeSolution, n: int) -> dict:
    """⟨m|H′|n⟩ in the mode of sol for m = max(0, n−2k)…n+2k, keyed by m."""
    power, s = model.power, sol.sigma
    # h[p], the χ^p coefficient of H′ for p = 1…2k; at σ = 0 only h₂ = −A
    # and h_{2k} = 1 are nonzero
    h = [0.0] * power + [1.0]
    if s:
        h[3:power] = [math.comb(power, p) * s ** (power - p) for p in range(3, power)]
        h[1], h[2] = _field_averages(model.k, n, sol.omega, s)[3:]
    else:
        h[2] = -sol.A
    lo = max(0, n - power)
    size = n + power + 1 - lo
    c = 1.0 / math.sqrt(2.0 * sol.omega)
    # hop[i] = ⟨lo+i|χ|lo+i−1⟩ = c√(lo+i)
    hop = [c * math.sqrt(lo + i) for i in range(size)]
    v = [0.0] * size
    v[n - lo] = 1.0
    powers = [v]  # χ^p|n⟩ for p = 0…2k
    for _ in range(power):
        w = [0.0] * size
        for i in range(1, size):
            w[i - 1] += hop[i] * v[i]
            w[i] += hop[i] * v[i - 1]
        v = w
        powers.append(v)
    column = v
    for p in range(power - 1, 0, -1):
        if h[p]:
            column = [x + h[p] * y for x, y in zip(column, powers[p])]
    column = dict(enumerate(column, lo))
    column[n] += s**power - sol.A * s * s + sol.B * s - sol.C
    return column


def second_order(
    model: OscillatorModel, n: int, even_only: bool = False
) -> PerturbationReport:
    """Second-order Hartree-improved energy of level n."""
    sol = solve_level(model, n)
    column = h_prime_column(model, sol, n)

    # first-order term is zero by construction of C; checked, never added
    diag = model.lam * column[n]
    bound = 1e-9 * max(1.0, abs(sol.energy))
    if not abs(diag) <= bound:
        raise NonConvergence(
            f"first-order term {diag:.3e} of level {n} exceeds {bound:.3e}"
        )

    raw = []
    for m, element in column.items():
        if m == n:
            continue
        if even_only and (m - n) % 2 != 0:
            continue
        num = model.lam * element
        if num != 0.0:
            raw.append((m, num))
    cutoff = _NUMERATOR_DUST * max((abs(num) for _, num in raw), default=0.0)

    contributions = []
    delta = 0.0
    for m, num in raw:
        if abs(num) <= cutoff:
            continue
        den = sol.energy - solve_level(model, m).energy
        if den == 0.0:
            raise NonConvergence(f"degenerate denominator between levels {n} and {m}")
        contributions.append(Contribution(m=m, numerator=num, denominator=den))
        delta += num * num / den

    return PerturbationReport(
        n=n,
        e0=sol.energy,
        delta_e2=delta,
        e2=sol.energy + delta,
        contributions=tuple(contributions),
    )
