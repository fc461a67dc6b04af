"""reilly-lab benchmark: one workload at one seed, end to end or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload catalogue --seed 3 --seconds 24 --trace 0

The run times ``import reilly_lab.cli`` in fresh interpreters
(``timed_import.py``, set-up), then starts one more fresh interpreter
(``child.py``) that runs the workload's operation list pass after pass
for ``--seconds``.  ``setup_s`` and ``pass_s`` are medians normalised to
a reference machine speed by the probe of ``speed.py`` that runs inside
the timed code (for the multi-threaded catalogue-w2, by the per-processor
probes of ``cpu_probe.py``); their wall times are in the result file.  BLAS and
OpenMP threads are pinned to one in every interpreter it starts.  The
outputs of the first pass are diffed against the golden of the seed when
one is recorded (``perfbench/golden`` holds seeds 0-19); at any seed,
every later pass must repeat the first byte for byte, every operation
must exit 0 and no pass-required check may fail.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Everything else (machine info, generated inputs, exit
codes, pass times with quartiles, the per-field golden deviations) goes
to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.

``--record-golden`` runs one pass and stores its outputs as the golden of
the seed instead of diffing them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import golden
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
IMPORT_TARGETS = ("numpy", "scipy.linalg", "scipy.interpolate", "reilly_lab")
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "REILLY_LAB_WORKERS")}
    env.update(THREAD_PIN)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _python(args, env, timeout=60):
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, check=True)


def time_setup(env) -> list:
    """``import reilly_lab.cli`` in fresh interpreters, speed-normalised."""
    return [json.loads(_python([str(BENCH_DIR / "timed_import.py")],
                               env).stdout.splitlines()[-1])
            for _ in range(SETUP_SAMPLES)]


def parse_importtime(text: str) -> dict:
    """Cumulative seconds of the first import of each target module."""
    found = {}
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        name = parts[2].strip()
        if name in IMPORT_TARGETS and name not in found:
            found[name] = int(parts[1]) / 1e6
    return found


def time_imports(env) -> dict:
    samples = {name: [] for name in IMPORT_TARGETS}
    for _ in range(IMPORT_SAMPLES):
        proc = _python(["-X", "importtime", "-c", "import reilly_lab.cli"], env)
        for name, seconds in parse_importtime(proc.stderr).items():
            samples[name].append(seconds)
    return {f"import.{name}.s": statistics.median(v) if v else 0.0
            for name, v in samples.items()}


def run_child(spec: dict, env, run_dir: Path) -> dict:
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"),
                           str(spec_path)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def machine_info(child: dict) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": child["versions"]["numpy"],
            "scipy": child["versions"]["scipy"],
            "blas": child["blas"],
            "thread_pin": THREAD_PIN}


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def select(computed: dict, declared: dict) -> dict:
    """The declared metrics, each with its unit; undeclared ones are left out."""
    return {name: {"value": float(computed.get(name, 0.0)), "unit": unit}
            for name, unit in declared.items()}


def computed_metrics(setup, child, plain, traced, imports, diff) -> dict:
    """End-to-end metrics, or per-layer ones when ``traced`` is given."""
    if traced is None:
        return {"setup_s": statistics.median(setup) if setup else 0.0,
                "pass_s": plain["median"],
                "peak_rss_mb": child["maxrss_kb"] / 1024.0}
    computed = dict(child["layer"], **imports)
    computed["trace.overhead_s"] = traced["median"] - plain["median"]
    # JSON has no infinity: a non-numeric mismatch reads as 1e300.
    computed["output_max_dev"] = min(diff.max, 1e300)
    return computed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "reilly_lab" / "cli.py").is_file():
        print(f"no reilly_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be a non-negative integer", file=sys.stderr)
        return 2
    declared = declared_metrics()
    env = child_env()
    load_start = os.getloadavg()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT_DIR / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_runs = [] if args.record_golden else time_setup(env)
    setup = [run["normalised"] for run in setup_runs]
    imports = time_imports(env) if args.trace else {}
    ops = workloads.generate(args.workload, args.seed)
    child = run_child({"ops": ops, "out_dir": str(run_dir),
                       "result": str(run_dir / "child.json"),
                       "seconds": 0.0 if args.record_golden else args.seconds,
                       "min_passes": 1 if args.record_golden else 2,
                       "trace": bool(args.trace),
                       "probe": workloads.PROBE[args.workload]},
                      env, run_dir)

    outputs = {op["id"]: golden.normalise(op, child["first_pass"][op["id"]],
                                          run_dir) for op in ops}
    group = workloads.GOLDEN_GROUP[args.workload]
    if args.record_golden:
        print(f"recorded {golden.save(group, args.seed, outputs)}",
              file=sys.stderr)
    reference = golden.load(group, args.seed)
    diff = golden.compare(reference["ops"] if reference else outputs, outputs)
    repeatable = len(set(child["digests"])) == 1
    gates = all(check.get("pass") is not False
                for entry in outputs.values() for check in entry["checks"])
    correct = (child["failed"] == 0 and repeatable and gates
               and diff.max <= golden.DEV_TOLERANCE)

    plain = quartiles(child["times"]["plain"])
    plain_wall = quartiles([p["net"] for p in child["plain_passes"]])
    traced = quartiles(child["times"]["traced"]) if args.trace else None
    # Traced passes are timed by the wall clock, so the tracing overhead is
    # taken against the untraced passes' net wall time, not pass_s.
    computed = computed_metrics(setup, child, plain_wall if args.trace
                                else plain, traced, imports, diff)
    metrics = select(computed, declared["per_layer" if args.trace
                                        else "end_to_end"])

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct,
        "attempted": child["attempted"], "failed": child["failed"],
        "failed_ops": child["failed"] / child["attempted"],
        "machine": dict(machine_info(child), loadavg_start=load_start,
                        loadavg_end=os.getloadavg()),
        "inputs": ops,
        "exits": child["exits"], "errors": child["errors"],
        "setup_s": quartiles(setup) if setup else None,
        "setup_runs": setup_runs,
        "pass_s": plain,
        "pass_wall_s": plain_wall,
        "probe_s": quartiles([p["probe"] for p in child["plain_passes"]]),
        "plain_passes": child["plain_passes"],
        "traced_pass_s": traced,
        "repeatable": repeatable, "checks_gate": gates,
        "golden": (str(golden.golden_path(group, args.seed).relative_to(ROOT))
                   if reference else None),
        "output_diff": diff.as_dict(),
        "metrics": metrics,
        "unlisted_metrics": sorted(set(computed) - set(metrics)),
        "declared_not_computed": sorted(set(metrics) - set(computed)),
    }
    (OUT_DIR / f"{tag}.json").write_text(
        json.dumps(result, indent=1, default=str), encoding="utf-8")
    if not correct:
        print(f"incorrect run: failed={child['failed']} repeatable={repeatable}"
              f" gates={gates} output_max_dev={diff.max:g}", file=sys.stderr)
        for problem in diff.problems[:20]:
            print(f"  {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
