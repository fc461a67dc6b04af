"""Deterministic JSON and CSV emission.

All floating-point numbers are rendered with 17 significant digits and
dictionary keys are emitted in a fixed order, so two runs of the same
configuration produce byte-identical output.  Non-finite values are
rendered as the strings "inf", "-inf" and "nan" (valid JSON, unlike the
bare tokens).

A trajectory CSV is written to its handle state by state
(``write_flow_csv``), so ``flow --out`` never holds the whole file as
text; ``flow_csv`` builds the same bytes as one str.  The marker index
and a speed column that repeats the previous state's bit for bit (a
parallel normal flow's phi) are rendered once per flow, not once per
state; the bytes are unchanged.
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


def _row_templates(m: int, dim: int, phi=None) -> List[str]:
    """A state's m row templates after its time: the marker index as
    literal text (what "%d" % float(i) prints), "%.17g" for every other
    field and, given phi, phi's text baked in; the last row ends the line.
    Baked text must hold no "%", and format(x, ".17g") never prints one."""
    xyz = ",%.17g" * dim
    if phi is None:
        rows = [f"{i}{xyz},%.17g,%.17g{xyz}" for i in range(m)]
    else:
        rows = [f"{i}{xyz},{p:.17g},%.17g{xyz}"
                for i, p in enumerate(phi.tolist())]
    rows[-1] += "\n"
    return rows


def write_flow_csv(handle, states) -> None:
    """Trajectory dump to an open text handle, one state's rows per write:
    t, marker index, coordinates, speed, curvature, normal.

    The index text is rendered once per run of states of one shape, and
    a speed column that repeats the previous state's bit for bit (a
    parallel normal flow's phi) once until it changes."""
    handle.write("t,idx,x,y,phi,kappa,nux,nuy\n"
                 if states[0].points.shape[1] == 2
                 else "t,idx,x,y,z,phi,kappa,nux,nuy,nuz\n")
    shape = last_phi = baked_phi = None
    for state in states:
        if state.points.shape != shape:
            shape, baked_phi = state.points.shape, None
            plain = _row_templates(*shape)
        phi = np.asarray(state.phi, dtype=float)
        # bytes, not np.array_equal: -0.0 must not stand for 0.0, and a
        # NaN repeated bit for bit is a repeat
        key = phi.tobytes()
        if key == last_phi:
            if key != baked_phi:
                baked, baked_phi = _row_templates(*shape, phi), key
            rows, cols = baked, (state.points, state.kappa, state.normals)
        else:
            rows = plain
            cols = (state.points, phi, state.kappa, state.normals)
        last_phi = key
        # "%.17g" % x is format(x, ".17g") for every Python float, and
        # neither prints a "%", so t's text is safe in the template
        t = format(state.t, ".17g") + ","
        handle.write((t + ("\n" + t).join(rows))
                     % tuple(np.column_stack(cols).ravel().tolist()))


def flow_csv(states) -> str:
    """write_flow_csv's text as one str."""
    buffer = io.StringIO()
    write_flow_csv(buffer, states)
    return buffer.getvalue()
