"""Independent eigenvalue oracle: dense diagonalization in a truncated basis.

The Hamiltonian H = ½p² + ½gφ² + λφ^{2k} is assembled with numpy alone in
the number basis of a harmonic oscillator of chosen frequency ω with σ = 0,
giving a symmetric banded matrix of bandwidth 2k.  It shares no code with
the moment core behind the Hartree coefficients, the φ-recurrence behind the
perturbation theory's H′ column, or the ladder algebra of `gha.ladder` that
the tests keep as their reference, so an error in any of them shows up as a
disagreement with this oracle instead of moving both together; only the
basis frequency comes from `solve_level`.

In that basis the position operator X is tridiagonal with
X[j, j+1] = X[j+1, j] = √((j+1)/(2ω)), and ½p² + ½ω²X² is diagonal, so

    H = diag(ω(n + ½)) + ½(g − ω²) X² + λ X^{2k}.

ω enters X² and X^{2k} only as the scalar factors (2ω)^{−1} and (2ω)^{−k}:
with X̂ = √(2ω)·X, whose entries are √(j+1),

    H = diag(ω(n + ½)) + ½(g − ω²)(2ω)^{−1} X̂² + λ(2ω)^{−k} X̂^{2k}.

The unit powers X̂² and X̂^{2k} depend only on (2k, N).  They are built in
banded storage, one shifted multiply per power.  A product of truncated
matrices differs from the truncation of the infinite product only through
paths that leave the basis; a path of 2k unit steps between levels m and n
climbs at most k levels above max(m, n).  The powers are therefore formed in
dimension N + k and cropped to N, which makes every element of the N×N block
exact.

Because the potential is even, a level couples only to levels of its own
parity: only the even offsets of the powers are kept, and offset 2r between
levels of parity p is offset r of the block on levels p, p + 2, ….  An
offset that reaches past the end of a small block has no element there and
is left out.  One cache keyed by (2k, N), `_layout`, holds the flat indices
of the elements that the band reaches in a (2, m, m) array of both blocks,
and at each of them X̂², X̂^{2k} and the level n + ½ (0 off the diagonal).
`hamiltonian_matrix` fills both blocks, with no N×N matrix, by one scatter
of their sum with the three scalar factors λ(2ω)^{−k}, ½(g − ω²)(2ω)^{−1}
and ω, added in that order.  A term that an element lacks adds a zero, and
the λ term is never negative, so the element is the float it would be
without that term.

`converged_levels` certifies levels 0..n_max with one eigensolve, which both
validates the Hartree results and reproduces the external benchmark values
quoted alongside them.  It takes the basis frequency from the Hartree ω of
level n_max + 2k, picks an even dimension N a priori, builds the blocks at
N + 2k and diagonalizes the leading N/2 × N/2 of both in one stacked `eigh`.
Its bound rests on three facts (Parlett, *The Symmetric Eigenvalue Problem*,
ch. 10–11):

- Rayleigh–Ritz: the j-th Ritz value θ_j of a parity block is an upper bound
  on the j-th exact level λ_j of that parity.
- The residual (H − θ_j)v_j of a Ritz pair in the infinite basis lives only
  in the k block rows just past the block, whose bandwidth is k.  The blocks
  built at N + 2k hold those rows exactly, so its norm ρ_j is exact up to
  rounding.
- Temple (1928) and Kato (1949): if no exact level of the parity lies
  strictly between λ_j and some b > θ_j, then θ_j − λ_j ≤ ρ_j²/(b − θ_j).

Level n is Ritz pair j = n // 2 of the block of parity n mod 2: in an even
potential the n-th level has parity (−1)^n (the oscillation theorem), so the
blocks already say which pair is level n, and no sort merges them.  Inside a
tunnelling doublet narrower than its bounds, levels 2j and 2j + 1 may then
be printed out of order, by less than their bounds, and each printed bound
is the Kato–Temple bound of the level it stands beside.

Temple's b is taken as θ_{j+1} − ρ_{j+1}, the next Ritz value of the parity
less its residual.  Some exact level lies within ρ_{j+1} of θ_{j+1}
(Krylov–Weinstein) and λ_{j+1} ≤ θ_{j+1}, so b is a true lower bound on
λ_{j+1} exactly when at most j + 1 exact levels of the parity lie below b:
when the basis has missed no level there, which would need an eigenvector
almost orthogonal to the first N states.  The oracle does not prove that;
the tests check the bound against runs at twice the dimension and against
an mpmath diagonalization.  Each reported error is ρ_j²/(b − θ_j) plus a
rounding floor 8k·ε·max|H| of the diagonalized blocks, for the rounding of
the elements and the backward error of `eigh`.  A bound that misses tol
grows N by a factor of 1.25.  The floor grows with N, so once it reaches tol
a larger basis can only be worse, and the oracle raises `NonConvergence`
instead of growing into noise.

numpy is imported inside the functions that use it, so `import gha` and every
command that never diagonalizes do not pay for loading it.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple, Tuple

from .errors import (BudgetExceeded, DomainError, NonConvergence, NonFiniteValue, _finite,
                     _index, _positive, _shown)
from .hartree import OscillatorModel, solve_level

_MAX_DIMENSION = 4096
_EPSILON = sys.float_info.epsilon


class _TruncatedBasis(NamedTuple):
    """Number basis |0⟩..|dimension − 1⟩ of the oscillator of this frequency."""

    dimension: int
    basis_frequency: float


class SpectrumEstimate(NamedTuple):
    levels: Tuple[float, ...]
    dimension_used: int
    convergence_error: Tuple[float, ...]


@functools.lru_cache(maxsize=64)
def _layout(power: int, n_dim: int) -> Tuple[np.ndarray, ...]:
    """Where the band of H goes in both parity blocks, and its ω-free terms.

    Returns the flat indices, in ascending order, of every element of the
    (2, m, m) blocks, m = ⌈n_dim/2⌉, that offsets 0..2k of H reach, and at
    each one X̂², X̂^{2k} and the level i + ½ (0 off the diagonal), where
    X̂[j, j+1] = √(j+1).  Band r at level i = p + 2a is H[i, i + 2r], which
    goes to [a, a + r] and [a + r, a] of block p; offsets past a small
    block's size are dropped, not wrapped.  All four arrays are read-only.
    """
    import numpy as np

    k = power // 2
    padded = n_dim + k
    width = power
    # banded storage: band[r, i] = A[i, i + r − width]; steps[r, i] is
    # X̂[j, j+1] at j = i + r − width, zero where j + 1 leaves the basis
    padded_x = np.zeros(padded + 2 * width)
    padded_x[width : width + padded - 1] = np.sqrt(np.arange(1.0, padded))
    steps = np.lib.stride_tricks.sliding_window_view(padded_x, padded)
    # terms[t, r, i] is offset 2r at level i of X̂², X̂^{2k} and the levels
    terms = np.zeros((3, k + 1, n_dim))
    band = np.zeros((2 * width + 1, padded))
    band[width] = 1.0
    for p in range(1, power + 1):
        # (A·X̂)[i, j] = A[i, j − 1] X̂[j − 1, j] + A[i, j + 1] X̂[j, j + 1]
        product = np.zeros_like(band)
        product[1:] += band[:-1] * steps[:-1]
        product[:-1] += band[1:] * steps[:-1]
        band = product
        if p == 2:
            terms[0, :2] = band[width : width + 3 : 2, :n_dim]
    terms[1] = band[width::2, :n_dim]
    terms[2, 0] = np.arange(n_dim) + 0.5

    m = (n_dim + 1) // 2
    source, destination = [], []
    for parity in (0, 1):
        size = (n_dim + 1 - parity) // 2
        for r in range(min(k + 1, size)):
            a = np.arange(size - r)
            band_index = r * n_dim + parity + 2 * a
            corner = parity * m * m + a * (m + 1)
            # [a, a + r] and its mirror [a + r, a], the same on the diagonal
            source += [band_index, band_index]
            destination += [corner + r, corner + r * m]
    destination, first = np.unique(np.concatenate(destination), return_index=True)
    values = terms.reshape(3, -1)[:, np.concatenate(source)[first]]
    destination.flags.writeable = values.flags.writeable = False
    return (destination, *values)


def hamiltonian_matrix(
    model: OscillatorModel, basis: _TruncatedBasis
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact H_{mn} in the σ=0 number basis of the given frequency, as its
    even and odd parity blocks: block p holds H[p + 2a, p + 2b] at [a, b].

    Raises `DomainError` unless the dimension is a positive integer and the
    frequency positive and finite, `BudgetExceeded` for a dimension past
    `_MAX_DIMENSION` + 2k, the largest that `converged_levels` builds, and
    `NonFiniteValue` where a scalar factor or an element leaves
    floating-point range, as at extreme frequencies.
    """
    import numpy as np

    n_dim, w, k = basis.dimension, basis.basis_frequency, model.k
    _index(n_dim, "basis dimension must be a positive integer", 1)
    _positive(w, "basis frequency must be positive and finite")
    if n_dim > _MAX_DIMENSION + 2 * k:
        raise BudgetExceeded(f"basis dimension {n_dim} exceeds {_MAX_DIMENSION + 2 * k}")
    # numpy takes no bool for a size, and an int frequency is squared in integers
    n_dim, w = int(n_dim), float(w)
    destination, x_squared, x_power, level = _layout(model.power, n_dim)
    # as a numpy float, (2ω)^k underflows to 0 or overflows to inf instead of
    # raising; a factor or an element that is not finite then shows in the
    # values, since every scattered element has X̂^{2k} > 0 and the diagonal
    # ones X̂² > 0 too
    with np.errstate(all="ignore"):
        values = ((model.lam / np.float64(2.0 * w) ** k) * x_power
                  + (0.5 * (model.g - w * w) / (2.0 * w)) * x_squared
                  + w * level)
    # inline, not errors._in_range: the values are a numpy array, not a float
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"H of {model} at basis frequency {w!r} leaves floating-point range")
    # one allocation for both blocks, as two fresh half-size arrays can cost a
    # page fault per row; for odd n_dim the odd block is one level smaller
    m = (n_dim + 1) // 2
    blocks = np.zeros((2, m, m))
    blocks.reshape(-1)[destination] = values
    return blocks[0], blocks[1, : n_dim // 2, : n_dim // 2]


def _start_dimension(n_max: int, k: int) -> int:
    """A priori even dimension for levels 0..n_max of the power 2k.

    ⌊(3n_max + 1)/2⌋ + 9k + 4, rounded up to even.  At the basis frequency
    ω(n_max + 2k) it certifies every coupling of the four replayed tables,
    and every point of the CLI's ranges (g = 1, λ ∈ [1e-2, 1e4],
    n_max ≤ 40), to 1e-7 at the first solve.
    """
    n_dim = (3 * n_max + 1) // 2 + 9 * k + 4
    return n_dim + n_dim % 2


def converged_levels(
    model: OscillatorModel, n_max: int, tol: float
) -> SpectrumEstimate:
    """Levels 0..n_max, each with a certified bound on its error below tol.

    Level n is the Ritz value n // 2 of the parity block n mod 2, so the two
    levels of a tunnelling doublet narrower than their bounds may come out of
    order, by less than those bounds.  `convergence_error` holds the
    Kato–Temple bound plus the rounding floor of each level (see the module
    docstring for when it holds), and `dimension_used` the dimension that
    certified them.  Raises `NonConvergence` once the rounding floor reaches
    tol and `BudgetExceeded` once the dimension passes `_MAX_DIMENSION`.
    """
    import numpy as np

    _index(n_max, "n_max must be nonnegative and integral")
    if not (1e-10 <= tol and _finite(tol)):
        raise DomainError(f"tolerance must lie in [1e-10, inf), got {_shown(tol)}")
    budget = f"levels 0..{n_max} not certified to {tol} within dimension {_MAX_DIMENSION}"
    k = model.k
    n_dim = _start_dimension(n_max, k)
    if n_dim > _MAX_DIMENSION:
        raise BudgetExceeded(budget)
    frequency = solve_level(model, n_max + 2 * k).omega
    # level n is Ritz pair n // 2 of parity block n mod 2, and the bound of
    # the last even one reads the Ritz pair above it
    top = n_max // 2 + 2
    while n_dim <= _MAX_DIMENSION:
        m = n_dim // 2
        even, odd = hamiltonian_matrix(model, _TruncatedBasis(n_dim + 2 * k, frequency))
        # the leading m columns of both blocks: the m×m block that is
        # diagonalized and, under it, the k rows past it
        columns = np.array((even[:, :m], odd[:, :m]))
        leading = columns[:, :m]
        floor = 8 * k * _EPSILON * float(np.abs(leading).max())
        if not floor < tol:
            raise NonConvergence(
                f"levels 0..{n_max} cannot be certified to {tol}: the rounding "
                f"floor at dimension {n_dim} is {floor:.3g}")
        theta, vectors = np.linalg.eigh(leading)
        # the k rows past a block hold the residual of each of its Ritz pairs,
        # which only the last k components of the Ritz vector reach
        residuals = columns[:, m:, m - k :] @ vectors[:, m - k :, :top]
        rho = np.sqrt(np.add.reduce(residuals * residuals, axis=1)).tolist()
        theta = theta[:, :top].tolist()
        levels, errors = [], []
        for n in range(n_max + 1):
            t, r, j = theta[n % 2], rho[n % 2], n // 2
            # Temple's b for level n is θ_{j+1} − ρ_{j+1} of its parity
            gap = t[j + 1] - r[j + 1] - t[j]
            levels.append(t[j])
            errors.append((r[j] * r[j] / gap if gap > 0.0 else math.inf) + floor)
        if max(errors) < tol:
            return SpectrumEstimate(tuple(levels), n_dim, tuple(errors))
        n_dim = 2 * math.ceil(0.625 * n_dim)
    raise BudgetExceeded(budget)
