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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from . import ladder
from .errors import NonConvergence
from .hartree import (
    HartreeSolution,
    OscillatorModel,
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
    """Normal-ordered H′ = φ^{2k} − (Aφ² − Bφ + C) in the mode of sol."""
    mode = ladder.ModeParameters(omega=sol.omega, sigma=sol.sigma)
    h_int = ladder.field_power(model.power, mode)
    v = potential_polynomial(sol.A, sol.B, sol.C, mode)
    return h_int - v


def second_order(
    model: OscillatorModel, n: int, even_only: bool = False
) -> PerturbationReport:
    """Second-order Hartree-improved energy of level n."""
    sol = solve_level(model, n)
    h_prime = build_h_prime(model, sol)

    # first-order term is zero by construction of C; checked, never added
    diag = model.lam * ladder.matrix_element(h_prime, n, n)
    bound = 1e-9 * max(1.0, abs(sol.energy))
    if not abs(diag) <= bound:
        raise NonConvergence(
            f"first-order term {diag:.3e} of level {n} exceeds {bound:.3e}"
        )

    window = range(max(0, n - model.power), n + model.power + 1)
    raw = []
    for m in window:
        if m == n:
            continue
        if even_only and (m - n) % 2 != 0:
            continue
        num = model.lam * ladder.matrix_element(h_prime, m, n)
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
