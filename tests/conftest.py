"""Shared numerical helpers for the test suite."""

import mpmath as mp


def radial_sine_potential(r, a):
    """Static potential by direct oscillatory quadrature.

    The 3-D Fourier transform of 1/(2 omega_k) reduces to the radial sine
    integral (1/(4 pi^2 r)) int_0^inf k sin(kr)/sqrt(k^2+a^2) dk.  The
    integrand does not decay, so the free piece int sin(kr) dk = 1/r is
    resummed (Abel) and only the k^-2 remainder is integrated between
    consecutive zeros.
    """
    tail = mp.quadosc(
        lambda k: (k / mp.sqrt(k * k + a * a) - 1.0) * mp.sin(k * r),
        [0, mp.inf],
        zeros=lambda m: m * mp.pi / r,
    )
    return float((1.0 / r + tail) / (4 * mp.pi ** 2 * r))


def broken_cubic_at_floor(g, lam, n):
    """The broken branch's cubic ω³ + 2gω + 6λp(ξ) at its floor √(−2g/3),
    6λp(ξ) − 2(−2g/3)^{3/2}, and its largest term there, 3(−2g/3)^{3/2}:
    both in 60-digit arithmetic at the float inputs, as mpmath numbers,
    since either can lie outside the float range."""
    with mp.workdps(60):
        g, lam, xi = mp.mpf(g), mp.mpf(lam), mp.mpf(n) + mp.mpf(1) / 2
        cube = (-2 * g / 3) ** mp.mpf(1.5)
        return 6 * lam * (5 * xi - 1 / (4 * xi)) - 2 * cube, 3 * cube
