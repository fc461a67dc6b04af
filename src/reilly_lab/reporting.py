"""Deterministic JSON and CSV emission.

All floating-point numbers are rendered with 17 significant digits and
dictionary keys are emitted in a fixed order, so two runs of the same
configuration produce byte-identical output.  Non-finite values are
rendered as the strings "inf", "-inf" and "nan" (valid JSON, unlike the
bare tokens).

A trajectory CSV is written to its handle state by state
(``write_flow_csv``), so ``flow --out`` never holds the whole file as
text; ``flow_csv`` builds the same bytes as one str.
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


def write_flow_csv(handle, states) -> None:
    """Trajectory dump to an open text handle, one state's rows per write:
    t, marker index, coordinates, speed, curvature, normal."""
    handle.write("t,idx,x,y,phi,kappa,nux,nuy\n"
                 if states[0].points.shape[1] == 2
                 else "t,idx,x,y,z,phi,kappa,nux,nuy,nuz\n")
    for state in states:
        m = state.points.shape[0]
        # the row index rides along as a float column: "%d" % 3.0 == "3"
        cols = np.column_stack([np.arange(m, dtype=float), state.points,
                                state.phi, state.kappa, state.normals])
        # "%.17g" % x is format(x, ".17g") for every Python float
        row = format(state.t, ".17g") + ",%d," + ",".join(
            ["%.17g"] * (cols.shape[1] - 1))
        handle.write("\n".join([row] * m) % tuple(cols.ravel().tolist()))
        handle.write("\n")


def flow_csv(states) -> str:
    """write_flow_csv's text as one str."""
    buffer = io.StringIO()
    write_flow_csv(buffer, states)
    return buffer.getvalue()
