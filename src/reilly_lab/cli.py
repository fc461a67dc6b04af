"""Command-line interface: verify / sweep / flow.

Exit codes: 0 all pass-required checks passed, 1 check failure,
2 configuration error, 3 internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Callable, List, Optional, TextIO

from . import __version__
from .checks import from_inequality
from .config import (SWEEP_CHECKS, SuiteConfig, load_config, validate_flow,
                     validate_sweep)
from .errors import ConfigError, ReillyLabError
from .flows import concavity_check
from .reporting import emit_report, sweep_csv, write_flow_csv
from .suites import SUITE_NAMES, run_suite_checks

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reilly-lab",
        description="Numerical verification lab for weighted-manifold "
                    "Poincare and Brunn-Minkowski inequalities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--out", help="output path (JSON for verify, CSV "
                                      "for sweep/flow)")
    common.add_argument("--tol-scale", dest="tol_scale",
                        help="multiply every tolerance by this factor")
    common.add_argument("--workers",
                        help="processes that run verify's checks; flow "
                             "and sweep validate it and run in one "
                             "process; reports do not depend on it "
                             "(default 1 or REILLY_LAB_WORKERS)")
    common.add_argument("--seed", help="corpus seed (default 1234)")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a named check suite")
    p_verify.add_argument("--suite",
                          help="one of " + ", ".join(SUITE_NAMES))

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="sweep one numeric parameter of a check")
    p_sweep.add_argument("--check", help=" | ".join(SWEEP_CHECKS))
    p_sweep.add_argument("--param", help="parameter to sweep")
    p_sweep.add_argument("--values", help="comma-separated values")

    p_flow = sub.add_parser("flow", parents=[common],
                            help="run a geometric flow and dump trajectories")
    p_flow.add_argument("--kind", help="parallel-normal | weingarten")
    p_flow.add_argument("--body", help="disk | ellipse:a,b | cap:r")
    p_flow.add_argument("--phi-coeffs", dest="phi_coeffs",
                        help="cosine coefficients a0,a1,... of the speed")
    p_flow.add_argument("--t-end", dest="t_end")
    p_flow.add_argument("--dt")
    p_flow.add_argument("--m", help="marker count")
    return parser


def _glue_negative_values(argv: List[str]) -> List[str]:
    """``--flag -1e-3`` as ``--flag=-1e-3``: argparse reads only ``-5`` and
    ``-.5`` shapes as negative numbers, and any other token that starts
    with ``-`` as a flag, so a value such as ``-1e-3`` would never reach
    the config parser.  Every ``--`` flag but --help and --version takes
    one value."""
    out: List[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and out[-1] not in ("--help", "--version")
                and re.match(r"-[\d.]", token)):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _write(path: Optional[str], emit: Callable[[TextIO], object]) -> None:
    """``emit(handle)`` into the file at ``path``, or into stdout when
    ``path`` is None."""
    if path is None:
        emit(sys.stdout)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                emit(handle)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


def _config(args, **extra) -> SuiteConfig:
    """load_config with the flags every command shares plus ``extra``."""
    return load_config(args.config, overrides={
        "seed": args.seed, "workers": args.workers,
        "tol_scale": args.tol_scale, "out": args.out, **extra})


def _cmd_verify(args) -> int:
    cfg = _config(args, suite=args.suite)
    reports = run_suite_checks(cfg.suite, seed=cfg.seed, workers=cfg.workers,
                               tol_scale=cfg.tol_scale)
    document = emit_report(reports, cfg.echo())
    _write(cfg.out or None, lambda handle: handle.write(document))
    passed = sum(1 for r in reports if r.passed is True)
    failed = [r for r in reports if r.passed is False]
    diag = sum(1 for r in reports if r.passed is None)
    print(f"# suite={cfg.suite} checks={len(reports)} passed={passed} "
          f"failed={len(failed)} diagnostic={diag}", file=sys.stderr)
    for r in failed:
        print(f"# FAIL {r.name} slack={r.slack:.6g} "
              f"tolerance={r.tolerance:.6g}", file=sys.stderr)
    return EXIT_OK if all(r.gate() for r in reports) else EXIT_CHECK_FAILURE


def _cmd_sweep(args) -> int:
    cfg = _config(args, **{f"sweep.{key}": getattr(args, key)
                           for key in ("check", "param", "values")})
    spec = validate_sweep(cfg)
    reports = [row().with_tol_scale(cfg.tol_scale) for row in spec["rows"]]
    table = sweep_csv(spec["param"], spec["values"], reports)
    _write(cfg.out, lambda handle: handle.write(table))
    return EXIT_OK if all(r.gate() for r in reports) else EXIT_CHECK_FAILURE


def _cmd_flow(args) -> int:
    cfg = _config(args, **{f"flow.{key}": getattr(args, key)
                           for key in ("kind", "body", "phi_coeffs", "t_end",
                                       "dt", "m")})
    result = validate_flow(cfg)()
    reports = []
    if result.series is not None:
        reports.append(concavity_check(result.series, name="flow-concavity"))
    reports.append(from_inequality(
        "flow-alive", lhs=1.0, rhs=1.0 if result.alive else 0.0,
        tolerance=0.0,
        params={"death_reason": result.death_reason or "",
                "normal_drift": result.normal_drift, **result.diagnostics},
    ))
    document = emit_report(sorted(reports, key=lambda r: r.name), cfg.echo())
    sys.stdout.write(document)
    if cfg.out:
        _write(cfg.out, lambda handle: write_flow_csv(handle, result.states))
    return EXIT_OK if all(r.gate() for r in reports) else EXIT_CHECK_FAILURE


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(
        _glue_negative_values(sys.argv[1:] if argv is None else list(argv)))
    commands = {"verify": _cmd_verify, "sweep": _cmd_sweep, "flow": _cmd_flow}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReillyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
