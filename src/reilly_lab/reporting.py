"""Deterministic JSON and CSV emission.

All floating-point numbers are rendered with 17 significant digits and
dictionary keys are emitted in a fixed order, so two runs of the same
configuration produce byte-identical output.  Non-finite values are
rendered as the strings "inf", "-inf" and "nan" (valid JSON, unlike the
bare tokens).

A trajectory CSV is written to its handle state by state
(``write_flow_csv``), so ``flow --out`` never holds the whole file as
text; ``flow_csv`` builds the same bytes as one str.  Its numbers are
``format(x, ".17g")`` byte for byte, computed by numpy for many values
at once (``_format_17g``): the 17 digits come from an exact scaling by a
power of ten, and only zeros, tiny, huge and non-finite values go through
Python's formatter.
"""

from __future__ import annotations

import io
import math
from typing import Iterable, List

import numpy as np

from .checks import CheckReport

SCHEMA_VERSION = "1"


def format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    v = float(x)
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format_number(value)
    if isinstance(value, dict):
        inner = ",".join(
            f"{_json_string(str(k))}:{_json_value(v)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    # numpy scalars and anything float-like
    try:
        return format_number(float(value))
    except (TypeError, ValueError):
        return _json_string(str(value))


def _json_string(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def check_to_json(report: CheckReport) -> str:
    fields = [
        ("name", _json_string(report.name)),
        ("params", _json_value(report.params)),
        ("lhs", format_number(report.lhs)),
        ("rhs", format_number(report.rhs)),
        ("slack", format_number(report.slack)),
        ("tolerance", format_number(report.tolerance)),
        ("pass", _json_value(report.passed)),
        ("grids", _json_value([list(g) for g in report.grids])),
        ("order_estimate", _json_value(report.order_estimate)),
    ]
    return "{" + ",".join(f"{_json_string(k)}:{v}" for k, v in fields) + "}"


def emit_report(reports: Iterable[CheckReport], config_echo: dict) -> str:
    """Full JSON document: {version, config_echo, checks: [...]}."""
    checks = ",".join(check_to_json(r) for r in reports)
    return ("{" + f"{_json_string('version')}:{_json_string(SCHEMA_VERSION)},"
            f"{_json_string('config_echo')}:{_json_value(config_echo)},"
            f"{_json_string('checks')}:[{checks}]" + "}\n")


def sweep_csv(param: str, values: List[str],
              reports: List[CheckReport]) -> str:
    """One row per swept value and its report; every report of a sweep is
    the same check, whose name heads the lhs, rhs, slack and pass columns."""
    name = reports[0].name
    lines = [f"{param},{name}:lhs,{name}:rhs,{name}:slack,{name}:pass"]
    for value, rep in zip(values, reports):
        passed = "" if rep.passed is None else str(rep.passed).lower()
        lines.append(f"{value},{rep.lhs:.17g},{rep.rhs:.17g},"
                     f"{rep.slack:.17g},{passed}")
    return "\n".join(lines) + "\n"


# A field's text is three little-endian words, 24 NUL-padded bytes, and
# the NULs are dropped on the way out.  A finite |v| in [1e-4, 1e15) is
# the 17-digit integer D in [1e16, 1e17) times 10^(X - 16), X in [-4, 14],
# which %g prints in fixed notation:
#   byte 1       "-" or NUL
#   bytes 2-6    "0." and the zeros before the first digit when X < 0
#   byte 7       D's lead digit; bytes 8-23 its other 16 digits
# When X >= 0 and a digit after the point is not 0, the lead digit and the
# X digits after it move one byte left, into the empty prefix, and "."
# takes byte 7 + X.  Zeros after the last non-zero digit that are not
# integer digits become NUL, as %g strips them.
_TEXT = 24                         # also the longest format(v, ".17g")
_POW10 = np.array([float(10 ** k) for k in range(23)])   # exact
_VELTKAMP = 134217729.0            # 2^27 + 1


def _tables():
    """The formatter's lookup tables.  Each CSV writer builds its own, in
    about half a millisecond; a run that writes no trajectory CSV, and
    importing this module, build none.

    - quad: each of 0000..9999 as text in the low half of a word;
    - last: for the k-th four digits after the lead digit, the place
      1..16 of the last non-zero one (0 for 0000), by [k, q];
    - head: the first word, by [190 sign + 10 (X + 4) + lead digit];
    - hold, move, dot: by [17 (X + 4) + last], per word, the bytes kept
      in place, the bytes moved one byte left, and the point."""
    q = np.arange(10000, dtype=np.uint16)      # small types: less memory
    digits = (q[:, None] // np.array([1000, 100, 10, 1], np.uint16)
              % np.uint16(10)).astype(np.uint8)
    quad = (digits + np.uint8(ord("0"))).view("<u4").ravel()
    last = np.select([digits[:, 3] > 0, digits[:, 2] > 0, digits[:, 1] > 0,
                      q > 0], np.array([4, 3, 2, 1], np.uint8), np.uint8(0))
    last = last + np.arange(0, 16, 4, dtype=np.uint8)[:, None] * (q > 0)
    head = np.zeros((2, 19, 10, 8), np.uint8)
    head[1, :, :, 1] = ord("-")
    head[:, :4, :, 2:7] = np.frombuffer(
        b"0.000" b"0.00\0" b"0.0\0\0" b"0.\0\0\0", np.uint8).reshape(4, 1, 5)
    head[:, :, :, 7] = np.arange(10) + ord("0")
    exp = np.arange(-4, 15)[:, None, None]
    end = np.arange(17)[:, None]
    byte = np.arange(_TEXT)
    point = (end > exp) & (exp >= 0)
    keep = byte <= 7 + np.maximum(end, exp)
    hold = ((byte < 6) | (byte > 7 + exp) | ~point) & keep
    move = (byte >= 6) & (byte <= 6 + exp) & point & keep
    dot = (byte == 7 + exp) & point

    def words(mask, value=0xFF):
        return (np.where(mask, value, 0).astype(np.uint8).view("<u8")
                .reshape(-1, 3).T.copy())
    return (quad, last, head.view("<u8").ravel(),
            words(hold), words(move), words(dot, ord(".")))


def _two_product(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker)."""
    p = a * b
    a_hi = _VELTKAMP * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    b_hi = _VELTKAMP * b
    b_hi -= b_hi - b
    b_lo = b - b_hi
    e = a_hi * b_hi                     # ((a_hi b_hi - p) + a_hi b_lo
    e -= p                              #   + a_lo b_hi) + a_lo b_lo
    e += a_hi * b_lo
    e += a_lo * b_hi
    e += a_lo * b_lo
    return p, e


def _format_17g(x, out, tables) -> None:
    """Write format(v, ".17g") of each float64 v of x, NUL-padded, as the
    3 words of out[..., :] ("<u8", shape x.shape + (3,)), with the lookup
    tables of ``_tables()``.

    A finite |v| in [1e-4, 1e15) is scaled by an exact 10^P to p + e in
    [1e16, 1e17), exactly; there p is an even integer, so p + rint(e) is
    v's 17 digits rounded half to even, as %g rounds.  Any other v (0,
    tiny, huge, non-finite) is formatted by Python, one at a time."""
    quad, last, head, hold, move, dot = tables
    shape = x.shape
    x = x.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15)
    slow = None if fast.all() else np.flatnonzero(~fast)
    if slow is not None:
        a[slow] = 1.0
    scale = 16 - np.floor(np.log10(a)).astype(np.int64)
    p, e = _two_product(a, _POW10[scale])
    if not ((p > 1e16) & (p < 1e17)).all():
        # log10 is one off near a power of ten, and p + e is then out of
        # [1e16, 1e17), or p sits on an end and e's sign decides
        scale += (p < 1e16) | ((p == 1e16) & (e < 0))
        scale -= (p > 1e17) | ((p == 1e17) & (e >= 0))
        p, e = _two_product(a, _POW10[scale])
    # p + e never rounds up to 10^17: the largest double below each 10^k
    # scales to 1e17 - 8 or less
    digits = p.astype(np.int64)
    digits += np.rint(e).astype(np.int64)
    del a, p, e                         # few temporaries live at once
    exp = np.subtract(20, scale, out=scale)   # X + 4, the tables' row
    lead = digits // 10 ** 16
    words = np.empty((3, x.size), "<u8")
    head.take(190 * (x < 0) + 10 * exp + lead, out=words[0])
    digits -= lead * 10 ** 16           # 16 digits, taken four at a time
    del lead
    high = digits // 10 ** 8
    digits -= high * 10 ** 8
    quads = np.empty((4, x.size), np.int64)
    for k, half in ((0, high), (2, digits)):
        np.floor_divide(half, 10 ** 4, out=quads[k])
        np.subtract(half, quads[k] * 10 ** 4, out=quads[k + 1])
    del high, digits
    end = last[0].take(quads[0])
    for k in range(1, 4):
        np.maximum(end, last[k].take(quads[k]), out=end)
    layout = 17 * exp + end
    text = quad.take(quads)
    del quads
    np.bitwise_or(text[0::2], np.left_shift(text[1::2], 32, dtype="<u8"),
                  out=words[1:])
    del text
    moved = words >> 8
    moved[:2] |= words[1:] << 56
    moved &= move.take(layout, axis=1)
    words &= hold.take(layout, axis=1)
    words |= moved
    words |= dot.take(layout, axis=1)
    for k in range(3):
        out[..., k] = words[k].reshape(shape)
    if slow is not None:
        text = b"".join(format(v, ".17g").encode().ljust(_TEXT, b"\0")
                        for v in x[slow].tolist())
        out[np.unravel_index(slow, shape)] = np.frombuffer(
            text, "<u8").reshape(-1, 3)


def _row_buffer(m: int, dim: int):
    """The m rows of a state as one NUL-padded bytearray: per row, the
    time's text, "," index ",", then a word per field's text and another
    for its "," or the row's "\n".  Returns the bytearray, its rows as
    words and the (m, fields, 3) words of the field texts."""
    fields = 2 * dim + 2
    index = [b",%d," % i for i in range(m)]
    width = -(-len(index[-1]) // 8) * 8
    start = (_TEXT + width) // 8
    buffer = bytearray(8 * m * (start + 4 * fields))
    rows = np.frombuffer(buffer, "<u8").reshape(m, -1)
    rows.view(np.uint8)[:, _TEXT:_TEXT + width] = np.frombuffer(
        b"".join(i.rjust(width, b"\0") for i in index),
        np.uint8).reshape(m, width)
    cells = rows[:, start:].reshape(m, fields, 4)
    cells[:, :, 3] = ord(",") << 56
    cells[:, -1, 3] = ord("\n") << 56
    return buffer, rows, cells[:, :, :3]


_BLOCK = 384        # rows formatted at once; bounds the temporaries, at
                    # about 100 bytes a value


def write_flow_csv(handle, states) -> None:
    """Trajectory dump to an open text handle, one state's rows per write:
    t, marker index, coordinates, speed, curvature, normal.

    Every number is format(x, ".17g"), computed by ``_format_17g`` for
    ``_BLOCK`` rows at once into a row buffer (``_row_buffer``) that
    every state of one shape reuses."""
    handle.write("t,idx,x,y,phi,kappa,nux,nuy\n"
                 if states[0].points.shape[1] == 2
                 else "t,idx,x,y,z,phi,kappa,nux,nuy,nuz\n")
    tables, shape = _tables(), None
    for state in states:
        if state.points.shape != shape:
            shape = state.points.shape
            buffer, rows, cells = _row_buffer(*shape)
        values = np.column_stack((state.points, state.phi, state.kappa,
                                  state.normals)).astype(float, copy=False)
        for i in range(0, len(values), _BLOCK):
            _format_17g(values[i:i + _BLOCK], cells[i:i + _BLOCK], tables)
        t = format(state.t, ".17g").encode().ljust(_TEXT, b"\0")
        rows[:, :_TEXT // 8] = np.frombuffer(t, "<u8")
        handle.write(buffer.translate(None, b"\0").decode("ascii"))


def flow_csv(states) -> str:
    """write_flow_csv's text as one str."""
    buffer = io.StringIO()
    write_flow_csv(buffer, states)
    return buffer.getvalue()
