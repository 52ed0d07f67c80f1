"""Extended-precision helpers and the FFT product kernel of gwimm._num."""

import math

import numpy as np
import pytest

from gwimm._num import _product, _spectrum, round_to_float64
from gwimm.laws import LawParams, immigration_pmf, offspring_pmf


def test_round_to_float64_is_astype_bit_for_bit():
    one = np.longdouble(1.0)
    mags = [np.ldexp(one, k) for k in range(-1100, -20, 3)]
    edges = [np.ldexp(one, -1075),                  # tie: rounds to +0
             np.ldexp(one, -1076),
             np.ldexp(one, -1076) * (1 + np.ldexp(one, -40)),
             np.ldexp(one, -1075) * (1 + np.ldexp(one, -60)),
             np.ldexp(one, -1074) * 1.5,
             np.ldexp(one, -1022) * (1 - np.ldexp(one, -55)),
             np.ldexp(one, -40) / 3, 0.0, -0.0]
    vals = np.array(mags + edges, dtype=np.longdouble) * np.longdouble(1.3)
    x = np.concatenate((vals, -vals, [np.ldexp(one, -1075)]))
    for divisor in (1.0, 0.7, 1e-310):
        ref = (x / np.longdouble(divisor)).astype(float)
        got = round_to_float64(x.copy(), divisor)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


UNIT_ROUNDOFF = 2.0 ** -53
ETA = 10 * UNIT_ROUNDOFF


def l1_bound(size: int, x: np.ndarray, y: np.ndarray) -> float:
    """Bound on the error of every coefficient of a `_product` of the
    nonnegative x and y at `size` points, to first order in the unit
    roundoff u:

        (3 * log2(size) * ETA + 2 * sqrt(2) * u) * |x|_1 * |y|_1.

    A transform of n points is off by at most log2(n) * ETA times its
    2-norm (Higham 2002, Theorem 24.2, there with eta = mu +
    gamma_4 * (sqrt(2) + mu) for twiddles off by mu; ETA = 10u is loose).
    Every bin of the spectrum of x is at most |x|_1 in modulus, so each
    forward error costs ETA * log2(size) * |x|_1 * |y|_1 once the inverse
    has divided 2-norms by sqrt(size); the complex products add
    2 * sqrt(2) * u relative, the inverse its own log2(size) * ETA, and
    |.|_2 <= |.|_1 gives the l1 form.  The largest coefficient error is
    at most the 2-norm of the error."""
    return ((3 * math.log2(size) * ETA + 2 * math.sqrt(2) * UNIT_ROUNDOFF)
            * float(np.sum(x)) * float(np.sum(y)))


def cyclic(x: np.ndarray, y: np.ndarray, size: int) -> np.ndarray:
    """The cyclic product of x and y at `size` points, by long-double
    np.convolve folded modulo x^size."""
    full = np.convolve(x.astype(np.longdouble), y.astype(np.longdouble))
    out = np.zeros(size, dtype=np.longdouble)
    for start in range(0, len(full), size):
        chunk = full[start:start + size]
        out[:len(chunk)] += chunk
    return out


def operands(kind: str, size: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two nonnegative vectors of `size` coefficients each."""
    if kind == "uniform":
        return rng.random(size), rng.random(size)
    if kind == "spiky":
        x, y = rng.random((2, size)) * 1e-20
        for v in (x, y):
            v[rng.integers(0, size, 4)] = rng.random(4)
        return x, y
    # the offspring and immigration tables of a law from the admissible
    # box, as the DP's F * B
    nu, theta, delta, kappa0, frac = 1.0 - rng.random(5)
    p = LawParams(nu, theta, delta, kappa0, frac / (1.0 + nu),
                  8.0 * (1.0 - rng.random()))
    return (offspring_pmf(p, size - 1).probs,
            immigration_pmf(p, size - 1).probs)


def assert_product(fx, fy, lo, hi, x, y, size):
    """`_product(fx, fy, lo, hi)` is within `l1_bound` of the long-double
    cyclic product of x and each row of y, and writes fy alone."""
    fx0, fy0 = fx.copy(), fy.copy()
    got = _product(fx, fy, lo, hi)
    assert np.array_equal(fx, fx0)
    assert np.array_equal(fy, fx0 * fy0)
    assert got.shape == y.shape[:-1] + (hi - lo,)
    for row, out in zip(np.atleast_2d(y), np.atleast_2d(got)):
        err = np.max(np.abs(out - cyclic(x, row, size)[lo:hi]))
        assert err <= l1_bound(size, x, row), (err, l1_bound(size, x, row))


@pytest.mark.parametrize("kind", ["uniform", "spiky", "tables"])
@pytest.mark.parametrize("size", [2 ** e for e in range(4, 15)])
def test_product_against_long_double_convolve(size, kind):
    rng = np.random.default_rng([size, len(kind)])
    m = size // 2
    x, y = operands(kind, size, rng)
    rows = np.stack((y, y[::-1]))
    # the DP's window: a row of at most M = size/2 coefficients times a
    # cached spectrum, cut at M + 1, plain rfft spectra
    for ys in (y[:m], rows[:, :m]):
        assert_product(np.fft.rfft(x[:m], size), np.fft.rfft(ys, size), 0,
                       m + 1, x[:m], ys, size)
    # the renewal solve's middle window: A * u[:m] wraps only below
    # m - 1, `_spectrum` spectra of one row, of rows stacked one by one,
    # and of a 3-row stack, whose zero bins are the sums of its rows
    assert_product(_spectrum(x, size), _spectrum(y[:m], size), m - 1,
                   size - 1, x, y[:m], size)
    assert_product(_spectrum(x, size),
                   np.stack([_spectrum(row, size) for row in rows[:, :m]]),
                   m - 1, size - 1, x, rows[:, :m], size)
    stack = np.stack((y, y[::-1], x))[:, :m]
    assert_product(_spectrum(x, size), _spectrum(stack, size), m - 1,
                   size - 1, x, stack, size)
