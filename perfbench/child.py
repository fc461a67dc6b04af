"""One benchmark run inside a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec (written by
``run.py``) names the operations, the seconds to measure, whether to
trace, and where to write outputs and the child's result.  Passes run
back to back until the next pass would end after ``seconds``; a traced
run alternates untraced and traced passes, installing the tracer only
for the traced ones, so that the tracing overhead is measured in the
same process.  The first pass's outputs are kept for the
golden diff; every pass's outputs are hashed, so a pass that differs from
the first shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import reilly_lab.cli as cli
from reilly_lab.reporting import check_to_json
from cpu_probe import CpuProbes
from speed import PASS_REFERENCE_S, normalise, pass_probe, window
from tracer import Tracer, layer_metrics
from workloads import out_path


def _resolve(bound: dict, value):
    if isinstance(value, dict) and "ref" in value:
        result = bound[value["ref"]]
        return result[value["index"]] if "index" in value else result
    return value


def _check_texts(result):
    items = result if isinstance(result, list) else [result]
    return [check_to_json(r) for r in items if hasattr(r, "gate")]


def run_op(op: dict, out_dir: str, bound: dict) -> dict:
    """Run one operation; never raises for a failure of the program."""
    if op["kind"] == "cli":
        argv = [a.replace("{out}", out_dir) for a in op["argv"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:          # argparse rejects argv
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:                   # noqa: BLE001 - counted
                code, error = None, traceback.format_exc()
        return {"exit": code, "error": error, "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(), "result": None}
    module, _, name = op["fn"].rpartition(".")
    fn = getattr(importlib.import_module(f"reilly_lab.{module}"), name)
    try:
        args = [_resolve(bound, a) for a in op["args"]]
        kwargs = {k: _resolve(bound, v) for k, v in op["kwargs"].items()}
        result = fn(*args, **kwargs)
    except Exception:                           # noqa: BLE001 - counted
        return {"exit": None, "error": traceback.format_exc(), "result": None}
    if op.get("bind"):
        bound[op["id"]] = result
    return {"exit": 0, "error": None, "result": result}


def run_pass(ops, out_dir: str):
    """Start and end of one pass on the wall clock, and its records."""
    bound = {}
    records = []
    start = perf_counter()
    for op in ops:
        records.append(run_op(op, out_dir, bound))
    return start, perf_counter(), records


def finish_records(ops, records, out_dir: str):
    """Serialise a pass's outputs (outside the timed region) and hash them."""
    digest = hashlib.sha256()
    for op, rec in zip(ops, records):
        rec["checks"] = _check_texts(rec.pop("result"))
        digest.update(json.dumps([op["id"], rec["exit"], rec.get("stdout"),
                                  rec["checks"]]).encode())
        out = out_path(op, out_dir)
        if out is not None and rec["exit"] == 0:
            digest.update(out.read_bytes())
    return digest.hexdigest()


def _blas_info():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:                           # numpy before 1.26
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    ops, out_dir = spec["ops"], spec["out_dir"]
    tracer = Tracer() if spec["trace"] else None
    modes = ("plain", "traced") if tracer is not None else ("plain",)
    times = {mode: [] for mode in modes}
    walls = {mode: [] for mode in modes}
    windows = []
    inline = spec["probe"] == "inline"
    probe = pass_probe() if inline else None
    exits = {op["id"]: [] for op in ops}
    errors = {}
    digests = []
    first = None
    attempted = failed = 0
    cpu_probes = None if inline else CpuProbes(Path(out_dir))
    began = perf_counter()
    try:
        while True:
            mode = modes[len(digests) % len(modes)]
            if mode == "traced":
                tracer.install()
                start, end, records = run_pass(ops, out_dir)
                tracer.uninstall()
                times[mode].append(end - start)
            else:
                with probe if inline else contextlib.nullcontext():
                    start, end, records = run_pass(ops, out_dir)
                windows.append((start, end))
            walls[mode].append(end - start)
            digests.append(finish_records(ops, records, out_dir))
            if first is None:
                first = records
            for op, rec in zip(ops, records):
                exits[op["id"]].append(rec["exit"])
                attempted += 1
                if rec["exit"] != 0:
                    failed += 1
                    errors.setdefault(op["id"],
                                      rec["error"] or rec.get("stderr"))
            if len(digests) < spec["min_passes"]:
                continue
            upcoming = walls[modes[len(digests) % len(modes)]]
            elapsed = perf_counter() - began
            if elapsed + statistics.median(upcoming) > spec["seconds"]:
                break
    finally:
        cpu_samples = cpu_probes.stop() if cpu_probes is not None else None
    if inline:
        plain_passes = [probe.normalise(a, b) for a, b in windows]
    else:
        plain_passes = [normalise(a, b, window(cpu_samples, a, b),
                                  PASS_REFERENCE_S) for a, b in windows]
    times["plain"] = [p["normalised"] for p in plain_passes]
    result = {
        "times": times, "plain_passes": plain_passes, "windows": windows,
        "digests": digests, "exits": exits, "errors": errors,
        "attempted": attempted, "failed": failed,
        "first_pass": {op["id"]: {k: rec.get(k) for k in
                                  ("exit", "stdout", "checks")}
                       for op, rec in zip(ops, first)},
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "blas": _blas_info(),
    }
    if tracer is not None:
        spans = tracer.spans()
        result["layer"] = layer_metrics(spans, len(times["traced"]))
        result["spans"] = len(spans)
        tracer.write_spans(Path(out_dir) / "spans.csv")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
