"""Extended-precision helpers of gwimm._num."""

import warnings

import numpy as np

from gwimm._num import ext_power, round_to_float64
from gwimm.laws import LawParams
from gwimm.pgf import theta_sums

FRAC = LawParams(nu=0.95, theta=1.0, delta=0.9, kappa0=0.5, kappa1=0.5,
                 kappa2=0.3)


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
    q = theta_sums(FRAC, 0.0, 10 ** 5)[0].q
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
