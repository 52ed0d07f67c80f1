"""Small numeric utilities: compensated accumulation, extended-precision
powers, products and rounding, and power-series tools."""

from __future__ import annotations

import math

import numpy as np


def fsum(values) -> float:
    """Exactly rounded sum of a sequence of floats."""
    return math.fsum(np.asarray(values, dtype=float).tolist())


def cumsum_extended(values: np.ndarray) -> np.ndarray:
    """Cumulative sum accumulated in extended precision, returned as float64.

    Plain float64 cumsum accumulates O(n*eps) error; going through
    longdouble keeps cumulative tables accurate to ~1e-15 relative even at
    n = 1e6, which the 1e-12 mass-accounting invariants rely on.
    """
    return np.cumsum(np.asarray(values, dtype=np.longdouble)).astype(float)


def ratio_cumprod(c, start: int, stop: int) -> np.ndarray:
    """Running products prod_{j=start..k} (j - c)/(j + 1), k = start..stop-1.

    Ratios and products are both formed in extended precision and returned
    as a longdouble array: over 10^6 factors a float64 cumprod drifts by
    ~2.5e-11 relative, this by ~1e-14.  Pass c as a longdouble when it is
    itself a sum, such as 1 + nu, to keep it unrounded.
    """
    j = np.arange(start, stop, dtype=np.longdouble)
    return np.cumprod((j - c) / (j + 1.0))


def ext_power(x: np.ndarray, a: float) -> np.ndarray:
    """x**a in extended precision for x >= 0, as a new longdouble array.

    At a = 1 the result is an exact copy.  Otherwise it is exp(a * log x),
    formed in place and about 3 times faster than powl at a fractional
    exponent; the rounding of a * log x puts it within
    2^-62 * (1 + |a log x|) relative of powl, far below float64
    resolution.  x = 0 gives 0.
    """
    out = np.asarray(x).astype(np.longdouble)
    if a == 1.0:
        return out
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    out *= np.longdouble(a)
    return np.exp(out, out=out)


_FLOAT64_ZERO = np.ldexp(np.longdouble(1.0), -1076)   # rounds to 0 in float64


def round_to_float64(x: np.ndarray, divisor: float = 1.0) -> np.ndarray:
    """x / divisor rounded once to float64, bit for bit as
    (x / divisor).astype(float) with x in extended precision, divisor > 0.

    Casting values below the float64 range takes a slow path (0.19 s per
    10^6 entries against 3 ms), so entries whose quotient lies below
    2^-1076, which round to zero anyway, are zeroed first, in place: x is
    modified.  Its entries that survive round as before.
    """
    limit = _FLOAT64_ZERO * np.longdouble(divisor)
    # multiplying by zero keeps the sign, so negative entries give -0
    np.multiply(x, 0.0, out=x, where=(x < limit) & (x > -limit))
    return np.divide(x, divisor, out=np.empty(x.shape), casting="unsafe")


def _spectrum(x: np.ndarray, size: int) -> np.ndarray:
    """rfft of x zero-padded to `size`, its zero-frequency bin summed in
    extended precision.

    That bin is X(1).  For a divisor E(x) = 1 - x*A(x) with A(1) near 1 it
    is tiny by cancellation, and the FFT's own roundoff there, multiplied
    by R(1) ~ n for R = 1/E, would shift the pole of the computed inverse
    off x = 1: its relative error would grow linearly along the series.
    """
    f = np.fft.rfft(x, size)
    f[0] = np.sum(x, dtype=np.longdouble)
    return f


def poly_mul_trunc(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First `n` coefficients of the product of two power series (FFT)."""
    la = min(len(a), n)
    lb = min(len(b), n)
    size = 1
    while size < la + lb - 1:
        size <<= 1
    return np.fft.irfft(_spectrum(a[:la], size) * _spectrum(b[:lb], size),
                        size)[:n]


def series_inverse(e: np.ndarray, n: int) -> np.ndarray:
    """First `n` coefficients of 1/E(x) for a power series with e[0] != 0.

    Newton doubling: R <- R*(2 - E*R) mod x^m, so the whole inversion costs
    O(n log n) via FFT products.
    """
    if e[0] == 0.0:
        raise ZeroDivisionError("series has no inverse: constant term is zero")
    r = np.array([1.0 / e[0]])
    m = 1
    while m < n:
        m = min(2 * m, n)
        er = poly_mul_trunc(e[:m], r, m)
        er[0] -= 2.0
        r = -poly_mul_trunc(r, er, m)
    return r[:n]


def series_quotient(d: np.ndarray, e: np.ndarray, n: int) -> np.ndarray:
    """First `n` coefficients of D(x)/E(x) for power series with e[0] != 0.

    With m the power of two >= n and h = m/2, R = 1/E is taken only to
    x^h by `series_inverse`; then one Karp-Markstein step (Karp &
    Markstein 1997) gives

        u = u0 + x^h * R * (D - E*u0)_hi,   u0 = D*R mod x^h,

    where (.)_hi are the coefficients h..n-1.  All three products are
    cyclic of size m: D*R and R*(.)_hi never wrap, and E*u0 wraps only
    into coefficients below h, which are not read (the "middle product"
    of Hanrot, Quercia & Zimmermann 2004).  The transform of R is
    computed once.
    """
    if e[0] == 0.0:
        raise ZeroDivisionError("series has no inverse: constant term is zero")
    if n <= 1:
        return np.asarray(d[:n], dtype=float) / e[0]
    m = 1 << (n - 1).bit_length()
    h = m // 2
    fr = _spectrum(series_inverse(e, h), m)
    u = np.empty(n)
    u[:h] = np.fft.irfft(_spectrum(d[:h], m) * fr, m)[:h]
    eu = np.fft.irfft(_spectrum(e[:n], m) * _spectrum(u[:h], m), m)
    u[h:] = np.fft.irfft(_spectrum(d[h:n] - eu[h:n], m) * fr, m)[:n - h]
    return u


def gauss_legendre_panels(f, a: float, b: float) -> float:
    """Integrate f on [a, b] with composite 24-point Gauss-Legendre panels.

    The 32 panel widths halve toward `a` from half the interval on, which
    resolves mild derivative singularities at the left endpoint without
    adaptivity.
    """
    nodes, weights = np.polynomial.legendre.leggauss(24)
    # [a, a+h], [a+h, a+2h], ... with h halving toward a
    fracs = 0.5 * 0.5 ** np.arange(31, 0, -1)
    edges = np.concatenate(([a], a + (b - a) * fracs, [b]))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * float(np.dot(weights, f(mid + half * nodes)))
    return total
