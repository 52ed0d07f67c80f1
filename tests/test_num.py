"""Extended-precision helpers of gwimm._num."""

import numpy as np

from gwimm._num import round_to_float64


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
