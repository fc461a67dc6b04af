"""Summarise one set of benchmark results as BENCH_<pr>.json, or compare two.

Usage (from the repository root):

    python tools/bench_summary.py --pr N [--tree .] [--against BENCH_<M>.json]
    python tools/bench_summary.py --compare BENCH_<M>.json BENCH_<N>.json

The first form reads every untraced result ``<tree>/perfbench/out/*-trace0.json``
that ``perfbench/run.py`` wrote in that tree and writes ``BENCH_<pr>.json``
at the root of this repository.  The file holds the tree's commit (and
whether its working tree differed from it), a SHA-256 of its ``src/``
files, the machine (nproc, Python, numpy, scipy, BLAS) and the thread pin
of the runs; per workload, the runs' seeds and, over the runs, the count,
median, q1 and q3 of ``setup_s``, ``pass_s``, ``pass_wall_s`` and
``peak_rss_mb`` with each run's value; and the SHA-256 of the ``checks``
array of ``reilly-lab verify --suite all`` (default seed, one BLAS thread)
run from the tree's ``src/``, the same bytes as the ``verify all
seed=1234`` line of ``tools/output_digest.py``.  Under ``verify_wall`` it
records, at ``--workers`` 1 and 2, the median and quartiles of the wall
times of ``VERIFY_RUNS`` (5) ``reilly-lab verify --suite all`` runs,
each in a fresh interpreter from the tree's ``src/`` with the BLAS
thread variables unset (the package then defaults to one thread), the
two worker counts alternating; and each run's largest-process peak RSS,
the larger of its own (``RUSAGE_SELF``) and that of its forked workers
(``RUSAGE_CHILDREN``).  With ``--against`` the file also records the
comparison below against that earlier file.

``--compare A B`` prints, per workload and metric, the medians of A and B,
B's relative change against A and the bound ``BENCHMARK.json`` fixes for
the metric; and for ``pass_s`` and ``setup_s`` also how many seeds run on
both sides B wins, and whether the medians differ by more than A's q3 - q1.
It leaves ``verify_wall`` out: two files record it in different sessions,
five runs each, and the host's speed drifts between sessions by more than
a change moves it, so the sign of such a comparison says nothing.  Compare
wall times in alternating runs of both trees within one session.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "pass_s", "pass_wall_s", "peak_rss_mb")
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
VERIFY_RUNS = 5


def spread(values) -> dict:
    """Count, median and quartiles (statistics.quantiles, n=4) of values."""
    values = sorted(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) >= 2
                 else (values[0],) * 3)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def run_value(result: dict, metric: str) -> float:
    if metric == "peak_rss_mb":
        return result["metrics"]["peak_rss_mb"]["value"]
    return result[metric]["median"]


def _git(tree: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def src_sha(tree: Path) -> str:
    """SHA-256 over the relative path and bytes of every .py file of src/."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def checks_sha(tree: Path) -> str:
    """SHA-256 of the checks array of ``verify --suite all`` from tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **THREAD_PIN)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        subprocess.run([sys.executable, "-c",
                        "import sys\nfrom reilly_lab.cli import main\n"
                        "sys.exit(main(['verify', '--suite', 'all', '--out', "
                        f"{str(out)!r}]))"],
                       env=env, check=True, capture_output=True, timeout=300)
        document = out.read_bytes()
    # the document ends with "checks":[...]}\n
    start = document.index(b'"checks":[') + len(b'"checks":')
    return hashlib.sha256(document[start:-2]).hexdigest()


# one verify run; prints its peak RSS and that of its workers in kB
VERIFY_SCRIPT = """\
import json, resource, sys
from reilly_lab.cli import main
code = main(["verify", "--suite", "all", "--workers", sys.argv[1],
             "--out", sys.argv[2]])
print(json.dumps([resource.getrusage(who).ru_maxrss for who in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]))
sys.exit(code)
"""


def verify_walls(tree: Path, runs: int) -> dict:
    """Wall time and largest-process peak RSS of fresh-interpreter
    ``verify --suite all`` runs at 1 and 2 workers, alternating."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_PIN}
    env["PYTHONPATH"] = str(tree / "src")
    walls = {1: [], 2: []}
    rss = {1: [], 2: []}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(runs):
            for workers in walls:
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-c", VERIFY_SCRIPT, str(workers),
                     str(Path(tmp) / "report.json")],
                    env=env, check=True, capture_output=True, text=True,
                    timeout=300)
                walls[workers].append(time.perf_counter() - start)
                rss[workers].append(max(json.loads(proc.stdout)) / 1024.0)
    return {f"workers={w}": {
        "wall_s": dict(spread(walls[w]), runs=walls[w]),
        "peak_rss_mb": dict(spread(rss[w]), runs=rss[w])} for w in walls}


def summarise(tree: Path, pr: int) -> dict:
    results = [json.loads(path.read_text(encoding="utf-8")) for path in
               sorted((tree / "perfbench" / "out").glob("*-trace0.json"))]
    if not results:
        raise SystemExit(f"no untraced results under {tree}/perfbench/out")
    machine = {key: results[0]["machine"][key] for key in
               ("nproc", "python", "numpy", "scipy", "blas", "thread_pin")}
    workloads = {}
    for name in sorted({r["workload"] for r in results}):
        runs = sorted((r for r in results if r["workload"] == name),
                      key=lambda r: r["seed"])
        workloads[name] = {
            "runs": len(runs), "seeds": [r["seed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "failed_ops": sum(r["failed"] for r in runs),
            "attempted_ops": sum(r["attempted"] for r in runs),
            **{metric: dict(spread([run_value(r, metric) for r in runs]),
                            per_seed={str(r["seed"]): run_value(r, metric)
                                      for r in runs})
               for metric in METRICS}}
    return {"pr": pr, "commit": _git(tree, "rev-parse", "HEAD"),
            "worktree_modified": bool(_git(tree, "status", "--porcelain",
                                           "--", "src")),
            "src_sha256": src_sha(tree), "machine": machine,
            "verify_all_checks_sha256": checks_sha(tree),
            "verify_wall": verify_walls(tree, VERIFY_RUNS),
            "workloads": workloads}


def bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def compare(a: dict, b: dict) -> dict:
    """Per workload and metric: medians, relative change, bound, pairs."""
    limits = bounds()
    rows = {}
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        for metric in METRICS:
            old, new = a["workloads"][name][metric], b["workloads"][name][metric]
            change = (new["median"] - old["median"]) / old["median"]
            row = {"a_median": old["median"], "b_median": new["median"],
                   "relative_change": change,
                   "bound": limits.get(metric, {}).get("bound")}
            if row["bound"] is not None:
                row["within_bound"] = change <= row["bound"]
            if metric in ("setup_s", "pass_s"):
                seeds = sorted(set(old["per_seed"]) & set(new["per_seed"]),
                               key=int)
                row["pairs"] = len(seeds)
                row["b_wins"] = sum(new["per_seed"][s] < old["per_seed"][s]
                                    for s in seeds)
                row["a_iqr"] = old["q3"] - old["q1"]
                row["medians_differ_by_more_than_a_iqr"] = (
                    abs(change * old["median"]) > row["a_iqr"])
            rows[f"{name}.{metric}"] = row
    return {"a": {"pr": a["pr"], "commit": a["commit"]},
            "b": {"pr": b["pr"], "commit": b["commit"]},
            "same_verify_checks": (a["verify_all_checks_sha256"]
                                   == b["verify_all_checks_sha256"]),
            "metrics": rows}


def print_comparison(result: dict) -> None:
    print(f"A = BENCH_{result['a']['pr']} ({result['a']['commit'][:10]}), "
          f"B = BENCH_{result['b']['pr']} ({result['b']['commit'][:10]}); "
          f"verify checks identical: {result['same_verify_checks']}")
    for key, row in result["metrics"].items():
        bound = ("no bound" if row["bound"] is None else
                 f"bound {row['bound']:+.0%} "
                 f"{'ok' if row['within_bound'] else 'EXCEEDED'}")
        pairs = ("" if "pairs" not in row else
                 f"  B wins {row['b_wins']}/{row['pairs']}, "
                 f"|diff| {'>' if row['medians_differ_by_more_than_a_iqr'] else '<='}"
                 f" A IQR {row['a_iqr']:.4g}")
        print(f"{key:28s} {row['a_median']:10.4g} -> {row['b_median']:10.4g}"
              f"  {row['relative_change']:+7.1%}  {bound}{pairs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int)
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--against", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        print_comparison(compare(a, b))
        return 0
    if args.pr is None:
        parser.error("--pr is required unless --compare is given")
    summary = summarise(args.tree.resolve(), args.pr)
    if args.against:
        summary["compared_to"] = compare(
            json.loads(args.against.read_text(encoding="utf-8")), summary)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    if args.against:
        print_comparison(summary["compared_to"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
