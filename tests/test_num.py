"""Extended-precision helpers and power-series tools of gwimm._num."""

import warnings

import numpy as np
import pytest

from gwimm._num import (ext_power, poly_mul_trunc, round_to_float64,
                        series_inverse, series_quotient)
from gwimm.laws import LawParams
from gwimm.pgf import theta_sums

FRAC = LawParams(nu=0.95, theta=1.0, delta=0.9, kappa0=0.5, kappa1=0.5,
                 kappa2=0.3)


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 1023, 1024, 1025])
def test_series_quotient_matches_inverse_then_product(n):
    # a renewal-type divisor 1 - x*A(x) and a decaying numerator
    rng = np.random.default_rng(n)
    a = rng.random(n) * 0.9 ** np.arange(n)
    a *= 0.95 / a.sum()
    e = np.concatenate(([1.0], -a[:-1]))
    d = rng.random(n) / (1.0 + np.arange(n)) ** 2
    ref = poly_mul_trunc(d, series_inverse(e, n), n)
    got = series_quotient(d, e, n)
    assert got.shape == (n,)
    assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))


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


def test_ext_power_against_powl():
    q, _, _ = theta_sums(FRAC, 1.0, 10 ** 5)
    q = np.concatenate((q, np.logspace(-300, -6, 50), [0.0]))
    assert np.array_equal(ext_power(q, 1.0), q.astype(np.longdouble))
    for a in (0.9, 0.5, 0.25, 1e-3):
        ref = q.astype(np.longdouble) ** np.longdouble(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ext_power(q, a)
        assert got.dtype == np.longdouble
        assert got[-1] == 0.0
        # the rounding of a * log q, amplified by exp, is the whole error
        scale = 1.0 + np.abs(a * np.log(q[:-1]))
        rel = np.abs(got[:-1] - ref[:-1]) / ref[:-1]
        assert np.max(rel / scale) < 2.0 ** -62
