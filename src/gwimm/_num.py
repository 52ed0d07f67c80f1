"""Small numeric utilities: compensated accumulation, extended-precision
powers, products and rounding, the FFT spectrum of a power series, and
Gauss-Legendre quadrature."""

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

    That bin is X(1), the sum of the coefficients.  Taken this way it
    carries no FFT roundoff, so a product of two spectra holds the sum
    of the product's coefficients, X(1)*Y(1), to float64 rounding.
    """
    f = np.fft.rfft(x, size)
    f[0] = np.sum(x, dtype=np.longdouble)
    return f


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
