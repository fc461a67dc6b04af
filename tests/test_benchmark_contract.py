"""The benchmark's workloads, run at seed 0 against their goldens.

``perfbench`` calls library functions by module path (``presets``,
``bodies``, ``inequalities``) and reads sweep CSVs by their header, so a
renamed entry point or a changed layout ends a benchmark run with exit 1
while every other test stays green.  This test runs one pass of the
seed-0 operations of each single-thread workload through the benchmark's
own child interpreter, as ``perfbench/run.py`` does, and diffs each
workload's outputs against its golden.  ``catalogue-w2`` is left out: it
shares the catalogue's golden, and ``tests/test_suites.py`` pins the
catalogue's independence of the worker count.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import golden  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("catalogue", "trajectory", "spectra")


@pytest.fixture(scope="module")
def first_pass(tmp_path_factory):
    """(ops per workload, child result, output directory) of one pass of
    every workload's ops, back to back in one child with one BLAS thread."""
    out_dir = tmp_path_factory.mktemp("bench")
    ops = {w: workloads.generate(w, 0) for w in WORKLOADS}
    everything = [op for w in WORKLOADS for op in ops[w]]
    assert len({op["id"] for op in everything}) == len(everything)
    child = run.run_child({"ops": everything, "out_dir": str(out_dir),
                           "result": str(out_dir / "child.json"),
                           "seconds": 0.0, "min_passes": 1, "trace": False,
                           "probe": "inline"}, run.child_env(), out_dir)
    return ops, child, out_dir


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_matches_its_golden(first_pass, workload):
    ops, child, out_dir = first_pass
    assert child["failed"] == 0, child["errors"]
    outputs = {op["id"]: golden.normalise(op, child["first_pass"][op["id"]],
                                          out_dir)
               for op in ops[workload]}
    failing = [(op_id, check["name"]) for op_id, entry in outputs.items()
               for check in entry["checks"] if check.get("pass") is False]
    assert not failing
    reference = golden.load(workloads.GOLDEN_GROUP[workload], 0)
    diff = golden.compare(reference["ops"], outputs)
    assert not diff.problems, diff.problems
    assert diff.max <= golden.DEV_TOLERANCE, diff.fields
