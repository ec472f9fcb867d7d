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
banded storage, one shifted multiply per power, and cached, one band set per
power.  A product of truncated matrices differs from the truncation of the
infinite product only through paths that leave the basis; a path of 2k unit
steps between levels m and n climbs at most k levels above max(m, n).  The
powers are therefore formed in dimension N + k and cropped to N, which makes
every element of the N×N block exact.  For the same reason every element of
that block is the same float whatever larger dimension the cached bands were
formed in, so the cache keeps the largest dimension asked for so far and
crops it for smaller ones.

Because the potential is even, a level couples only to levels of its own
parity: only the even offsets of the powers are kept, and offset 2r between
levels of parity p is offset r of the block on levels p, p + 2, ….
`hamiltonian_matrix` fills both blocks from alternate columns of the bands,
with no N×N matrix, and each is diagonalized on its own.  Dimensions double
until the requested levels stop moving, which both validates the Hartree
results and reproduces the external benchmark values quoted alongside them.

numpy is imported inside the functions that use it, so `import gha` and every
command that never diagonalizes do not pay for loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .errors import BudgetExceeded, DomainError
from .hartree import OscillatorModel, solve_level

_START_DIMENSION = 64
_MAX_DIMENSION = 4096


@dataclass(frozen=True)
class TruncatedBasis:
    dimension: int
    basis_frequency: float

    def __post_init__(self):
        if self.dimension < 16:
            raise DomainError(f"basis dimension must be at least 16, got {self.dimension}")
        if not (self.basis_frequency > 0.0) or not math.isfinite(self.basis_frequency):
            raise DomainError(f"basis frequency must be positive, got {self.basis_frequency}")


@dataclass(frozen=True)
class SpectrumEstimate:
    levels: Tuple[float, ...]
    dimension_used: int
    convergence_error: Tuple[float, ...]


# power -> read-only even-offset upper bands of X̂² and X̂^{2k}, in the
# largest dimension asked for so far
_unit_power_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _unit_powers(power: int, n_dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Upper bands of X̂² and X̂^{2k} in dimension n_dim, X̂[j, j+1] = √(j+1).

    Row r holds offset 2r: band[r, i] = X̂^p[i, i + 2r], inside the basis where
    i + 2r < n_dim; the odd offsets vanish by parity.  Both are read-only
    views of the cached bands, cropped to n_dim.
    """
    import numpy as np

    cached = _unit_power_cache.get(power)
    if cached is None or cached[1].shape[1] < n_dim:
        k = power // 2
        padded = n_dim + k
        width = power
        # banded storage: band[r, i] = A[i, i + r − width]; steps[r, i] is
        # X̂[j, j+1] at j = i + r − width, zero where j + 1 leaves the basis
        padded_x = np.zeros(padded + 2 * width)
        padded_x[width : width + padded - 1] = np.sqrt(np.arange(1.0, padded))
        steps = np.lib.stride_tricks.sliding_window_view(padded_x, padded)

        band = np.zeros((2 * width + 1, padded))
        band[width] = 1.0
        for p in range(1, power + 1):
            # (A·X̂)[i, j] = A[i, j − 1] X̂[j − 1, j] + A[i, j + 1] X̂[j, j + 1]
            product = np.zeros_like(band)
            product[1:] += band[:-1] * steps[:-1]
            product[:-1] += band[1:] * steps[:-1]
            band = product
            if p == 2:
                x_squared = band[width : width + 3 : 2, :n_dim].copy()
        x_power = band[width::2, :n_dim].copy()
        x_squared.flags.writeable = False
        x_power.flags.writeable = False
        cached = _unit_power_cache[power] = (x_squared, x_power)
    return cached[0][:, :n_dim], cached[1][:, :n_dim]


def hamiltonian_matrix(
    model: OscillatorModel, basis: TruncatedBasis
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact H_{mn} in the σ=0 number basis of the given frequency, as its
    even and odd parity blocks: block p holds H[p + 2a, p + 2b] at [a, b]."""
    import numpy as np

    n_dim, w, k = basis.dimension, basis.basis_frequency, model.k
    x_squared, x_power = _unit_powers(model.power, n_dim)
    # row r holds offset 2r of the upper triangle
    upper = (model.lam / (2.0 * w) ** k) * x_power
    upper[:2] += (0.5 * (model.g - w * w) / (2.0 * w)) * x_squared
    upper[0] += w * (np.arange(n_dim) + 0.5)
    # one allocation for both blocks, as two fresh half-size arrays can cost a
    # page fault per row; for odd n_dim the odd block is one level smaller
    m = (n_dim + 1) // 2
    blocks = np.zeros((2, m, m))
    for bands, flat in zip((upper[:, 0::2], upper[:, 1::2]), blocks.reshape(2, -1)):
        # offset 2r between levels of one parity is offset r of their block
        for r, diagonal in enumerate(bands):
            n = bands.shape[1] - r
            flat[r :: m + 1][:n] = flat[r * m :: m + 1][:n] = diagonal[:n]
    return blocks[0], blocks[1, : n_dim // 2, : n_dim // 2]


def converged_levels(
    model: OscillatorModel, n_max: int, tol: float
) -> SpectrumEstimate:
    """Levels 0..n_max converged to tol by doubling the basis dimension.

    The basis frequency is adapted to the Hartree ω of level n_max, which
    keeps the required dimension small even at strong coupling.
    """
    import numpy as np

    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    if not 1e-10 <= tol < math.inf:
        raise DomainError(f"tolerance must lie in [1e-10, inf), got {tol}")
    budget = f"levels 0..{n_max} not converged to {tol} within dimension {_MAX_DIMENSION}"
    n_dim = _START_DIMENSION
    # every compared spectrum must hold levels 0..n_max, and convergence
    # needs two of them within the budget
    while n_dim <= n_max:
        n_dim *= 2
    if 2 * n_dim > _MAX_DIMENSION:
        raise BudgetExceeded(budget)
    frequency = solve_level(model, n_max).omega
    previous = None
    while n_dim <= _MAX_DIMENSION:
        basis = TruncatedBasis(dimension=n_dim, basis_frequency=frequency)
        spectra = [np.linalg.eigvalsh(block) for block in hamiltonian_matrix(model, basis)]
        levels = np.sort(np.concatenate(spectra))[: n_max + 1]
        if previous is not None:
            drift = np.abs(levels - previous)
            if drift.max() < tol:
                return SpectrumEstimate(
                    levels=tuple(float(e) for e in levels),
                    dimension_used=n_dim,
                    convergence_error=tuple(float(d) for d in drift),
                )
        previous = levels
        n_dim *= 2
    raise BudgetExceeded(budget)
