"""Exact algebra of polynomials in harmonic-oscillator ladder operators.

Operators are stored normal ordered: a polynomial is a finite sum

    P = sum_{i,j} c_{ij} (b†)^i b^j

represented as a map (i, j) -> c_{ij}.  With the field mode parametrised as

    φ = σ + (b + b†)/√(2ω),      p = i √(ω/2) (b† − b),

every quantum average and transition element used by the Hartree solvers and
the perturbation theory reduces to exact evaluations of

    ⟨m|(b†)^i b^j|n⟩ = δ_{m−i, n−j} √(n!/(n−j)!) √(m!/(m−i)!).

Factorial ratios are accumulated multiplicatively so levels of a few hundred
are safe in double precision.  All values are immutable and all operations
are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from .errors import DomainError, _finite, _positive, _shown

Key = Tuple[int, int]


@dataclass(frozen=True)
class ModeParameters:
    """Hartree mode: frequency ω > 0 and field shift σ of φ = σ + (b+b†)/√(2ω)."""

    omega: float
    sigma: float = 0.0

    def __post_init__(self):
        _positive(self.omega, "mode frequency must be positive")
        if not _finite(self.sigma):
            raise DomainError(f"mode shift must be finite, got {_shown(self.sigma)}")


class NormalOrderedPolynomial:
    """Immutable normal-ordered polynomial in (b†, b)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Key, float]):
        clean: Dict[Key, float] = {}
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise DomainError(f"ladder powers must be nonnegative, got {(i, j)}")
            key = (int(i), int(j))
            clean[key] = clean.get(key, 0.0) + float(c)
        # only exact zeros are dropped, so the algebra stays exact near underflow
        self._terms = {k: v for k, v in clean.items() if v != 0.0}

    @property
    def terms(self) -> Mapping[Key, float]:
        return dict(self._terms)

    @property
    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(i + j for i, j in self._terms)

    def coefficient(self, i: int, j: int) -> float:
        return self._terms.get((i, j), 0.0)

    def __add__(self, other: "NormalOrderedPolynomial") -> "NormalOrderedPolynomial":
        merged = dict(self._terms)
        for k, c in other._terms.items():
            merged[k] = merged.get(k, 0.0) + c
        return NormalOrderedPolynomial(merged)

    def __sub__(self, other: "NormalOrderedPolynomial") -> "NormalOrderedPolynomial":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "NormalOrderedPolynomial":
        return NormalOrderedPolynomial({k: factor * c for k, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalOrderedPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "NormalOrderedPolynomial({})"
        parts = ", ".join(
            f"({i},{j}): {c!r}" for (i, j), c in sorted(self._terms.items())
        )
        return f"NormalOrderedPolynomial({{{parts}}})"


ZERO = NormalOrderedPolynomial({})
ONE = NormalOrderedPolynomial({(0, 0): 1.0})


def constant(value: float) -> NormalOrderedPolynomial:
    return NormalOrderedPolynomial({(0, 0): value})


def multiply(
    lhs: NormalOrderedPolynomial, rhs: NormalOrderedPolynomial
) -> NormalOrderedPolynomial:
    """Operator product, re-normal-ordered.

    Uses b^j (b†)^k = sum_s C(j,s) C(k,s) s! (b†)^{k−s} b^{j−s}, the closed
    form of repeated commutation with [b, b†] = 1.
    """
    out: Dict[Key, float] = {}
    for (i1, j1), c1 in lhs._terms.items():
        for (i2, j2), c2 in rhs._terms.items():
            c12 = c1 * c2
            smax = min(j1, i2)
            for s in range(smax + 1):
                w = math.comb(j1, s) * math.comb(i2, s) * math.factorial(s)
                key = (i1 + i2 - s, j1 + j2 - s)
                out[key] = out.get(key, 0.0) + c12 * w
    return NormalOrderedPolynomial(out)


def field_power(p: int, mode: ModeParameters) -> NormalOrderedPolynomial:
    """Normal-ordered φ^p for φ = σ + (b+b†)/√(2ω)."""
    if p < 0:
        raise DomainError(f"field power must be nonnegative, got {p}")
    c = 1.0 / math.sqrt(2.0 * mode.omega)
    phi = NormalOrderedPolynomial({(0, 0): mode.sigma, (1, 0): c, (0, 1): c})
    result = ONE
    for _ in range(p):
        result = multiply(result, phi)
    return result


def momentum_squared(mode: ModeParameters) -> NormalOrderedPolynomial:
    """Normal-ordered p² = −(ω/2)(b† − b)² = (ω/2)(1 + 2b†b − b†² − b²)."""
    w = mode.omega
    return NormalOrderedPolynomial(
        {(0, 0): 0.5 * w, (1, 1): w, (2, 0): -0.5 * w, (0, 2): -0.5 * w}
    )


def _ladder_element(i: int, j: int, m: int, n: int) -> float:
    """⟨m|(b†)^i b^j|n⟩, zero unless m − i = n − j with j ≤ n, i ≤ m."""
    if j > n or i > m or m - i != n - j:
        return 0.0
    val = 1.0
    # b^j |n> pulls down sqrt(n (n-1) ... (n-j+1))
    for t in range(j):
        val *= n - t
    # (b†)^i |n-j> pushes up sqrt((n-j+1) ... (n-j+i))
    for t in range(1, i + 1):
        val *= n - j + t
    return math.sqrt(val)


def matrix_element(poly: NormalOrderedPolynomial, m: int, n: int) -> float:
    """Exact ⟨m|poly|n⟩ in the number basis of the polynomial's mode."""
    if m < 0 or n < 0:
        raise DomainError("level indices must be nonnegative")
    if abs(m - n) > poly.degree:
        return 0.0
    total = 0.0
    for (i, j), c in poly._terms.items():
        if i - j == m - n:
            total += c * _ladder_element(i, j, m, n)
    return total


def expectation(poly: NormalOrderedPolynomial, n: int) -> float:
    """Diagonal quantum average ⟨n|poly|n⟩."""
    return matrix_element(poly, n, n)
