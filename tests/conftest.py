"""Shared numerical helpers for the test suite."""

import math

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


def sigma0_gap_root(power, g, lam, n):
    """The largest root of level n's σ = 0 gap ω^{k+1} − gω^{k−1} − c₀,
    c₀ = 2kλc_k(n)/ξ with the exact integer moment, by Newton in 80-digit
    arithmetic from a start above it, as an mpmath number."""
    k = power // 2
    with mp.workdps(80):
        g, lam, xi = mp.mpf(g), mp.mpf(lam), mp.mpf(n) + mp.mpf(1) / 2
        moment_k = mp.mpf(math.prod(range(1, 2 * k, 2)) * sum(
            math.comb(k, i) * math.comb(n, i) * 2**i for i in range(k + 1))) / 2**k
        c0 = 2 * k * lam * moment_k / xi
        # f ≥ 0 at either start; f is increasing and convex above them
        if g > 0:
            root = mp.sqrt(g + c0 ** (mp.mpf(2) / (k + 1)))
        else:
            root = min((2 * c0) ** (mp.mpf(1) / (k + 1)), (2 * c0 / -g) ** (mp.mpf(1) / (k - 1)))
        for _ in range(100):
            step = ((root**(k + 1) - g * root**(k - 1) - c0)
                    / ((k + 1) * root**k - (k - 1) * g * root**(k - 2)))
            root -= step
            if abs(step) <= mp.mpf(10) ** -75 * root:
                return root
    raise AssertionError("80-digit Newton did not settle")


def broken_cubic_root(g, lam, n):
    """The largest real root of the broken branch's cubic ω³ + 2gω + 6λp(ξ),
    g < 0, from `mpmath.polyroots` in 60-digit arithmetic.  It solves for
    x = ω/√(−2g), x³ − x + 6λp(ξ)/(−2g)^{3/2} = 0, whose coefficients stay
    near 1 at any scale; an mpmath number."""
    with mp.workdps(60):
        g, lam, xi = mp.mpf(g), mp.mpf(lam), mp.mpf(n) + mp.mpf(1) / 2
        scale = mp.sqrt(-2 * g)
        roots = mp.polyroots([1, 0, -1, 6 * lam * (5 * xi - 1 / (4 * xi)) / scale**3],
                             maxsteps=200, extraprec=200)
        return scale * max(mp.re(r) for r in roots if abs(mp.im(r)) <= mp.mpf(10) ** -50)
