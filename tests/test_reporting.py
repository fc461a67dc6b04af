"""The CSV number formatter, ``reporting._format_17g``, against Python's
``format(x, ".17g")``, whose text every trajectory CSV keeps byte for
byte."""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reilly_lab.reporting import _format_17g, _tables


def _texts(values):
    x = np.asarray(values, dtype=float)
    out = np.zeros(x.shape + (3,), "<u8")
    _format_17g(x, out, _tables())
    return [cell.tobytes().replace(b"\0", b"").decode("ascii")
            for cell in out.reshape(-1, 3)]


def _expected(values):
    return [format(v, ".17g") for v in np.ravel(values).tolist()]


def _edge_values():
    values = [0.0, math.nan, math.inf, 5e-324, 1e-300,
              1234567890123456.25, 1234567890123456.75,
              # ties at the 17th digit, rounded half to even
              1e14 + 0.125, 1e14 + 0.375, 1e14 - 0.125, 0.5 + 2.0**-53]
    for k in range(-6, 17):
        p = 10.0 ** k
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)]
    for end in (1e-4, 1e15):             # the exact path's ends
        values += [np.nextafter(end, 0.0), end, np.nextafter(end, math.inf)]
    return values + [-v for v in values]


def test_format_17g_matches_format_on_edge_values():
    values = _edge_values()
    assert _texts(values) == _expected(values)


def test_format_17g_fills_any_shape_of_slots():
    values = np.array(_edge_values()[:60]).reshape(5, 4, 3)
    assert _texts(values) == _expected(values)


def _float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# any bit pattern, and patterns whose exponent lies in the exact path's
# range [1e-4, 1e15), which random patterns hit about 3% of the time
ANY_BITS = st.integers(0, 2**64 - 1)
EXACT_BITS = st.builds(lambda sign, e, frac: sign << 63 | e << 52 | frac,
                       st.integers(0, 1), st.integers(1009, 1073),
                       st.integers(0, 2**52 - 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(ANY_BITS, EXACT_BITS), min_size=1, max_size=64))
def test_format_17g_matches_format_on_random_bit_patterns(patterns):
    values = [_float(bits) for bits in patterns]
    assert _texts(values) == _expected(values)
