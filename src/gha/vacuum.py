"""Structure of the Hartree vacuum for the oscillator models.

The free (λ = 0, unit-frequency) and Hartree vacua are related by a
Bogoliubov transformation with parameter α = ½ ln(1/ω).  The free-particle
number density in the Hartree vacuum and the structure parameter are

    n₀ = sinh²α = ¼(ω + 1/ω − 2),        u = (1 − ω)/(1 + ω),

so n₀ = 0 exactly at ω = 1 and grows on both sides.  At strong coupling the
quartic gap equation gives ω ≈ (6λf)^{1/3}, hence n₀ ~ λ^{1/3} for λ ≫ 1
(the local log-log slope creeps toward 1/3 from above, with a λ^{-1/3}
correction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .errors import DomainError, NonFiniteValue, _finite, _positive
from .hartree import OscillatorModel, solve_level


@dataclass(frozen=True)
class VacuumStructure:
    alpha: float
    n0: float
    u: float


def vacuum_structure(omega: float) -> VacuumStructure:
    """Bogoliubov parameter, condensate density, and structure parameter."""
    _positive(omega, "omega must be positive")
    alpha = -0.5 * math.log(omega)
    n0 = 0.25 * (omega + 1.0 / omega - 2.0)
    if not n0 < math.inf:  # 1/ω overflows for ω below 1/(largest float)
        raise NonFiniteValue(f"condensate density at omega {omega} leaves floating-point range")
    u = (1.0 - omega) / (1.0 + omega)
    return VacuumStructure(alpha=alpha, n0=n0, u=u)


def _coupling(lam) -> float:
    """float(lam), or the infinity of its sign where lam is an int too large
    for a float, so that it gets the DomainError of an infinite float."""
    try:
        return float(lam)
    except OverflowError:
        return math.inf if lam > 0 else -math.inf


def strong_coupling_scaling(g: float, lambdas: Iterable[float]) -> List[Tuple[float, float]]:
    """Ground-state n₀ of the quartic AHO ½p² + ½gφ² + λφ⁴, g > 0, sampled
    at each coupling λ ≥ 100 of lambdas, as (λ, n₀) pairs."""
    _positive(g, "strong-coupling scaling is defined for the quartic AHO, g > 0")
    values = [_coupling(lam) for lam in lambdas]
    if not values:
        raise DomainError("need at least one coupling")
    if min(values) < 100.0:
        raise DomainError("strong-coupling samples require lambda >= 100")
    samples = []
    for lam in values:
        sol = solve_level(OscillatorModel(power=4, g=g, lam=lam), 0)
        samples.append((lam, vacuum_structure(sol.omega).n0))
    return samples


def loglog_slope(samples: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of ln n₀ against ln λ."""
    if len(samples) < 2:
        raise DomainError("slope needs at least two samples")
    if not all(v > 0.0 and _finite(v) for sample in samples for v in sample):
        raise DomainError("slope needs finite positive couplings and densities")
    x = [math.log(lam) for lam, _ in samples]
    y = [math.log(n0) for _, n0 in samples]
    x_bar = math.fsum(x) / len(x)
    y_bar = math.fsum(y) / len(y)
    dx = [xi - x_bar for xi in x]
    spread = math.fsum(d * d for d in dx)
    if spread == 0.0:
        raise DomainError("slope needs at least two distinct couplings")
    return math.fsum(d * (yi - y_bar) for d, yi in zip(dx, y)) / spread
