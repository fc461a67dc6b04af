"""Tests of the benchmark itself: golden diff, span arithmetic, tracer
patching, speed normalisation and the metric names it prints.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402

DECLARED = run.declared_metrics()


def _check(name="c", lhs=2.0, rhs=3.0, **extra):
    check = {"name": name, "params": {"body": "disk", "sigma": 0.5},
             "lhs": lhs, "rhs": rhs, "slack": rhs - lhs, "tolerance": 1e-8,
             "pass": True, "grids": [[128, 0.25], [256, 0.0625]],
             "order_estimate": None}
    check.update(extra)
    return check


def _csv(rows):
    lines = ["t,idx,x"] + [f"{t},{i},{x!r}" for t, i, x in rows]
    return ("\n".join(lines) + "\n").encode()


def _entry(checks, csv_rows=None, exit_code=0):
    return {"exit": exit_code, "checks": checks,
            "csv": None if csv_rows is None else golden.csv_summary(_csv(csv_rows))}


def test_golden_diff_is_zero_on_identical_outputs():
    rows = [(0.0, i, 1.0 + i) for i in range(100)]
    ops = {"op": _entry([_check()], rows)}
    diff = golden.compare(ops, json.loads(json.dumps(ops)))
    assert diff.max == 0.0 and not diff.problems


def test_golden_diff_flags_a_perturbed_field():
    base = {"op": _entry([_check("a", lhs=2.0, rhs=4.0), _check("b")])}
    moved = {"op": _entry([_check("a", lhs=2.0, rhs=4.0 + 4e-6),
                           _check("b")])}
    diff = golden.compare(base, moved)
    # scaled by max(|lhs|, |rhs|, 1) = 4 of the golden check
    assert diff.fields["rhs"]["dev"] == pytest.approx(1e-6)
    assert diff.fields["rhs"]["where"] == "op/a"
    assert diff.fields["lhs"]["dev"] == 0.0
    assert diff.max > golden.DEV_TOLERANCE


@pytest.mark.parametrize("change", [
    {"pass": False}, {"params": {"body": "ellipse", "sigma": 0.5}},
    {"grids": [[128, 0.25]]}, {"slack": "nan"},
])
def test_golden_diff_counts_non_numeric_changes_as_infinite(change):
    base = {"op": _entry([_check()])}
    diff = golden.compare(base, {"op": _entry([_check(**change)])})
    assert math.isinf(diff.max)


def test_golden_diff_flags_missing_checks_exit_codes_and_csv_cells():
    rows = [(0.0, i, 1.0 + i) for i in range(200)]
    base = {"op": _entry([_check("a"), _check("b")], rows)}
    assert math.isinf(golden.compare(
        base, {"op": _entry([_check("a")], rows)}).max)
    assert math.isinf(golden.compare(
        base, {"op": _entry([_check("a"), _check("b")], rows, 1)}).max)
    moved = list(rows)
    moved[-1] = (0.0, 199, 200.0 + 3e-7)
    diff = golden.compare(base, {"op": _entry([_check("a"), _check("b")],
                                              moved)})
    assert diff.fields["csv.x"]["dev"] == pytest.approx(3e-7)


def test_sweep_csv_becomes_check_records():
    text = ("n_pts,lich:lhs,lich:rhs,lich:slack,lich:pass\n"
            "2001,1.25,1.5,0.25,true\n4001,1.25,1.0,-0.25,false\n")
    checks = golden.sweep_checks(text)
    assert [c["name"] for c in checks] == ["n_pts=2001/lich", "n_pts=4001/lich"]
    assert checks[1]["pass"] is False and checks[0]["rhs"] == 1.5


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] has children [1, 3], [2, 5] (overlapping, as on two
    # executor threads) and [7, 8]; [1, 3] has a child [1.5, 2.5].
    spans = [(1, 0, 0.0, 10.0), (2, 1, 1.0, 3.0), (3, 1, 2.0, 5.0),
             (4, 1, 7.0, 8.0), (5, 2, 1.5, 2.5), (6, 1, 2.5, 2.75)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_layer_metrics_on_synthetic_spans():
    spans = [
        (1, 0, "flows.parallel_normal_flow", 0.0, 4.0, 2.0),
        (2, 1, "numerics.periodic_diff1", 0.5, 1.0, 0.0),
        (3, 1, "numerics.periodic_diff2", 1.0, 1.5, 0.0),
        (4, 0, "numerics.periodic_diff1", 5.0, 5.5, 0.0),
        (5, 0, "operators.spectral_gap.dense", 6.0, 7.0, 512.0 ** 3),
        (6, 0, "suites.run_suite_checks", 10.0, 14.0, 2.0),
        (7, 6, "suites.thunk.flows.pnf-disk", 10.0, 14.0, 0.0),
        (8, 6, "suites.thunk.reilly.disk-radial", 10.0, 12.0, 0.0),
    ]
    m = layer_metrics(spans, passes=2)
    assert m["numerics.periodic_diff1.calls"] == 1.0
    assert m["flows.parallel_normal_flow.self_s"] == pytest.approx(1.5)
    assert m["flows.steps"] == 1.0
    # two stencil calls inside the flow over two RK steps
    assert m["flows.stencil_calls_per_step"] == 1.0
    assert m["operators.dense.n3_sum"] == 512.0 ** 3 / 2
    assert m["suites.flows.s"] == 2.0 and m["suites.reilly.s"] == 1.0
    assert m["suites.parallel_efficiency"] == pytest.approx(6.0 / 8.0)
    assert m["suites.run_suite_checks.self_s"] == 0.0


def test_tracer_patches_by_name_imports_and_restores_them():
    from reilly_lab import flows, numerics, presets
    original = numerics.periodic_diff1
    assert flows.periodic_diff1 is original
    tracer = Tracer()
    try:
        assert tracer.install() > 0
        assert flows.periodic_diff1 is not original
        assert flows.periodic_diff1 is numerics.periodic_diff1
        disk = presets.disk_body(m=64)
        flows.parallel_normal_flow(disk, 1.0, t_end=0.02, dt=0.01)
    finally:
        tracer.uninstall()
    assert flows.periodic_diff1 is original
    assert numerics.periodic_diff1 is original
    names = [span[2] for span in tracer.spans()]
    assert "numerics.periodic_diff1" in names
    assert "flows.polyline_area" in names
    metrics = layer_metrics(tracer.spans(), passes=1)
    assert metrics["flows.steps"] == 2.0
    assert metrics["flows.stencil_calls_per_step"] > 0.0


def _mini_traced_run():
    from reilly_lab import InverseDimension, inequalities, presets, suites
    tracer = Tracer()
    try:
        tracer.install()
        inequalities.check_boundary_gaps(presets.disk_body(m=32))
        inequalities.check_lichnerowicz(presets.gaussian_model(n_pts=201),
                                        1.0, InverseDimension(0.0, 1))
        suites.run_suite_checks("reilly", seed=1, workers=2)
    finally:
        tracer.uninstall()
    return layer_metrics(tracer.spans(), passes=1)


def test_every_printed_metric_is_declared():
    metrics = _mini_traced_run()
    expected = {"operators.spectral_gap.dense.calls",
                "operators.spectral_gap.tridiag.calls",
                "operators.dense.n3_sum", "suites.reilly.s",
                "suites.thunk.reilly.interval-gauss.s",
                "suites.parallel_efficiency", "suites.run_suite_checks.self_s",
                "inequalities.check_boundary_gaps.self_s"}
    assert expected <= set(metrics) & set(DECLARED["per_layer"])
    printed = run.select(metrics, DECLARED["per_layer"])
    assert set(printed) == set(DECLARED["per_layer"])
    assert all(set(v) == {"value", "unit"} for v in printed.values())

    child = {"maxrss_kb": 102400, "layer": metrics}
    plain = run.quartiles([2.0, 2.2])
    e2e = run.computed_metrics([1.0, 1.1, 0.9], child, plain, None, {}, None)
    assert set(e2e) == set(DECLARED["end_to_end"])
    diff = golden.Diff()
    traced = run.quartiles([2.3, 2.4])
    layer = run.computed_metrics([], child, plain, traced,
                                 {"import.numpy.s": 0.1}, diff)
    assert set(layer) <= set(metrics) | set(DECLARED["per_layer"])


def test_declared_thunk_metrics_match_the_catalogue():
    from reilly_lab.suites import suite_thunks
    thunks = {"suites.thunk." + name.replace("/", ".") + ".s"
              for name, _ in suite_thunks("all", 0)}
    declared = {n for n in DECLARED["per_layer"] if n.startswith("suites.thunk.")}
    assert declared == thunks and len(thunks) == 57
    assert len(DECLARED["per_layer"]) < 128


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |      91000 |     numpy\n"
            "import time:        80 |      40000 |       scipy.linalg\n"
            "import time:        10 |     900000 | reilly_lab\n")
    parsed = run.parse_importtime(text)
    assert parsed == {"numpy": 0.091, "scipy.linalg": 0.04, "reilly_lab": 0.9}


def test_workload_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5) == workloads.generate(name, 5)
    assert workloads.generate("trajectory", 5) != workloads.generate("trajectory", 6)
    # the generated speeds keep phi + phi'' > 0 on a fine angle grid
    for seed in range(50):
        for op in workloads.generate("trajectory", seed):
            argv = op["argv"]
            a0, a1, c2, c3 = (float(c) for c in
                              argv[argv.index("--phi-coeffs") + 1].split(","))
            t = np.linspace(0.0, 2.0 * np.pi, 721)
            assert np.min(a0 - 3 * c2 * np.cos(2 * t) - 8 * c3 * np.cos(3 * t)) > 0.1


def test_quartiles_match_statistics():
    q = run.quartiles([3.0, 1.0, 2.0, 4.0])
    assert [q["q1"], q["q3"]] == statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4)[::2]
    assert q["median"] == 2.5 and q["n"] == 4


def test_normalise_at_reference_speed_is_the_net_wall_time():
    ref = speed.PASS_REFERENCE_S
    samples = [(t, 0.01, ref) for t in (1.0, 2.0, 3.0)]
    out = speed.normalise(0.5, 4.0, samples, ref)
    assert out["net"] == pytest.approx(3.5 - 0.03)
    assert out["normalised"] == pytest.approx(out["net"])


def test_normalise_scales_each_stretch_by_its_probes():
    ref = 1.0e-3
    # probes at 1-4 s at reference speed, at 5-8 s twice as slow
    samples = [(float(t), 0.0, ref if t <= 4 else 2 * ref) for t in range(1, 9)]
    out = speed.normalise(0.0, 9.0, samples, ref)
    # stretches up to 4 s at speed 1, [4,5] at the mean 0.75, then 0.5
    assert out["normalised"] == pytest.approx(4.0 + 0.75 + 4 * 0.5)
    # a probe read as zero CPU time is outvoted by its neighbours
    samples[1] = (2.0, 0.0, 0.0)
    assert speed.normalise(0.0, 9.0, samples, ref)["normalised"] == \
        pytest.approx(out["normalised"])
    with pytest.raises(RuntimeError):
        speed.normalise(0.0, 4.0, samples[:2], ref)


def test_probe_samples_only_while_installed():
    with speed.import_probe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            speed.interpreter_work(200)
        end = time.perf_counter()
    taken = len(probe.samples)
    assert taken >= speed.MIN_SAMPLES
    assert probe.normalise(start, end)["net"] < end - start
    time.sleep(0.05)
    assert len(probe.samples) == taken
