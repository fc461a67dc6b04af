import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from reilly_lab import config, suites
from reilly_lab.checks import CheckReport
from reilly_lab.cli import main
from reilly_lab.config import (SWEEP_CHECKS, load_config, parse_config_text,
                               validate_flow, validate_sweep)
from reilly_lab.errors import ConfigError
from reilly_lab.reporting import emit_report, format_number


def run_cli(args):
    return main(args)


def test_verify_colesanti_writes_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli(["verify", "--suite", "colesanti", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == "1"
    assert len(doc["checks"]) >= 6
    assert all(c["pass"] in (True, None) for c in doc["checks"])
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)
    # config echo carries every effective parameter, defaults included
    echo = doc["config_echo"]
    for key in ("suite", "seed", "workers", "tol_scale", "out"):
        assert key in echo


def test_verify_deterministic_bytes(tmp_path):
    out = tmp_path / "d.json"
    run_cli(["verify", "--suite", "spectral", "--out", str(out)])
    first = out.read_bytes()
    run_cli(["verify", "--suite", "spectral", "--out", str(out)])
    assert out.read_bytes() == first


def test_verify_worker_count_does_not_change_checks(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["verify", "--suite", "reilly", "--out", str(a)])
    run_cli(["verify", "--suite", "reilly", "--out", str(b), "--workers", "4"])
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert da["checks"] == db["checks"]


def test_verify_tol_scale_tightening_keeps_equalities(tmp_path):
    out = tmp_path / "t.json"
    code = run_cli(["verify", "--suite", "colesanti", "--tol-scale", "0.1",
                    "--out", str(out)])
    assert code == 0


def test_verify_all_tightened_keeps_equality_catalogue(tmp_path):
    # at tol-scale 0.1 every equality-case check keeps its headroom; only
    # resolution-limited flow diagnostics may approach their budgets
    out = tmp_path / "tight.json"
    run_cli(["verify", "--suite", "all", "--tol-scale", "0.1",
             "--out", str(out)])
    doc = json.loads(out.read_text())
    equality_names = (
        "colesanti/disk-cos-equality", "colesanti/dual-circle-cos-equality",
        "reilly/gamma2-model-equality", "spectral/circle-gap",
        "spectral/lichnerowicz-model-n5", "boundary/gaps-circle-boundary-gap-sigma-xi",
        "boundary/gaps-sphere-boundary-gap-curvature-split",
        "isoperimetric/alexandrov-disk",
    )
    by_name = {c["name"]: c for c in doc["checks"]}
    for name in equality_names:
        assert by_name[name]["pass"] is True, name


def test_verify_exit_one_on_check_failure(tmp_path):
    # an absurdly tight tolerance scale forces discretization-limited
    # checks below their slack floors: exit code must report the failure
    out = tmp_path / "fail.json"
    code = run_cli(["verify", "--suite", "spectral", "--tol-scale", "1e-12",
                    "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert any(c["pass"] is False for c in doc["checks"])


def test_workers_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REILLY_LAB_WORKERS", "3")
    cfg = load_config(None)
    assert cfg.workers == 3
    monkeypatch.setenv("REILLY_LAB_WORKERS", "zebra")
    with pytest.raises(ConfigError):
        load_config(None)


def test_config_unknown_key_named(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[suite]\nNN = 5\n")
    code = run_cli(["verify", "--config", str(bad)])
    assert code == 2
    with pytest.raises(ConfigError, match="NN"):
        parse_config_text(bad.read_text())


def test_config_file_round_trip(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(
        "# comment\n[suite]\nname = spectral\nseed = 77\nworkers = 2\n"
        "tol_scale = 2.0\n\n[sweep]\ncheck = sharpness\nparam = beta_frac\n"
        "values = 0.9, 0.99\n")
    cfg = load_config(str(cfg_path))
    assert cfg.suite == "spectral"
    assert cfg.seed == 77 and cfg.workers == 2 and cfg.tol_scale == 2.0
    spec = validate_sweep(cfg)
    assert spec["values"] == ["0.9", "0.99"]


def test_sweep_validation_errors(tmp_path):
    cfg = load_config(None, overrides={"sweep.check": "sharpness"})
    with pytest.raises(ConfigError, match="param"):
        validate_sweep(cfg)
    cfg2 = load_config(None, overrides={"sweep.check": "sharpness",
                                        "sweep.param": "bogus",
                                        "sweep.values": "1"})
    with pytest.raises(ConfigError, match="bogus"):
        validate_sweep(cfg2)


def test_sweep_sharpness_monotone(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = run_cli(["sweep", "--check", "sharpness", "--param", "beta_frac",
                    "--values", "0.9,0.99,0.999", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("beta_frac,")
    ratios = [float(line.split(",")[1]) for line in lines[1:]]
    assert ratios[0] < ratios[1] < ratios[2] <= 1.0 + 1e-9


def test_sweep_lichnerowicz_bound_column(tmp_path):
    out = tmp_path / "l.csv"
    code = run_cli(["sweep", "--check", "lichnerowicz", "--param", "N",
                    "--values=-4,-2,20,inf", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    bounds = [float(line.split(",")[1]) for line in lines[1:]]
    # N/(N-1) * rho per value, with the theta = 0 convention at N = inf
    expect = [(-4.0) / (-5.0), (-2.0) / (-3.0), 20.0 / 19.0, 1.0]
    np.testing.assert_allclose(bounds, expect, rtol=1e-12)


def test_sweep_flow_oracle_fourth_order(tmp_path):
    # locked space-time refinement (m ~ 1/dt): each halving of dt shrinks
    # the distance to the support-sum oracle by ~16x (order 4), within 30%
    out = tmp_path / "fo.csv"
    code = run_cli(["sweep", "--check", "flow-oracle", "--param", "dt",
                    "--values", "4e-3,2e-3,1e-3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    dists = [float(line.split(",")[1]) for line in lines[1:]]
    for coarse, fine in zip(dists[:-1], dists[1:]):
        assert 16.0 * 0.7 <= coarse / fine <= 16.0 * 1.3


def test_flow_csv_schema_plane(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run_cli(["flow", "--kind", "parallel-normal", "--body", "disk",
                    "--phi-coeffs", "1,0,0.3", "--t-end", "0.1",
                    "--dt", "0.002", "--m", "64", "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert {c["name"] for c in doc["checks"]} == {"flow-alive",
                                                  "flow-concavity"}
    lines = out.read_text().splitlines()
    assert lines[0] == "t,idx,x,y,phi,kappa,nux,nuy"
    assert lines[1].split(",")[0] == "0"


def test_flow_csv_schema_sphere(tmp_path, capsys):
    out = tmp_path / "cap.csv"
    code = run_cli(["flow", "--kind", "parallel-normal", "--body",
                    "cap:1.0472", "--phi-coeffs", "1", "--t-end", "0.1",
                    "--dt", "0.002", "--m", "64", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "t,idx,x,y,z,phi,kappa,nux,nuy,nuz"


_STREAMED_FLOWS = [
    ("parallel-normal", "ellipse:1.3,1", "1,0,0.1", "64", "0.05", "1e-3"),
    ("parallel-normal", "cap:0.6", "1,0,0.1", "64", "0.05", "1e-3"),
    ("weingarten", "ellipse:1.2,1", "1,0,0.1", "64", "0.01", "2e-4"),
]


def _library_flow(kind, body, coeffs, m, t_end, dt):
    from reilly_lab.flows import (latitude_circle, parallel_normal_flow,
                                  weingarten_wave)
    from reilly_lab.presets import body_from_spec
    from reilly_lab.trig import TrigPolynomial
    phi = TrigPolynomial.from_flat([float(c) for c in coeffs.split(",")])
    start = body_from_spec(body, m=int(m))
    if body.startswith("cap:"):
        start = latitude_circle(start.r_cap, m=int(m))
    integrate = (weingarten_wave if kind == "weingarten"
                 else parallel_normal_flow)
    return integrate(start, phi, float(t_end), float(dt), snapshot_every=10)


@pytest.mark.parametrize("flow", _STREAMED_FLOWS,
                         ids=["plane", "cap", "wave"])
def test_streamed_flow_file_equals_flow_csv(flow, tmp_path, capsys):
    from reilly_lab.reporting import flow_csv
    kind, body, coeffs, m, t_end, dt = flow
    out = tmp_path / "traj.csv"
    assert run_cli(["flow", "--kind", kind, "--body", body, "--phi-coeffs",
                    coeffs, "--m", m, "--t-end", t_end, "--dt", dt,
                    "--out", str(out)]) == 0
    states = _library_flow(*flow).states
    assert len(states) > 2
    expected = flow_csv(states).encode("utf-8")
    assert out.read_bytes() == expected
    header = expected.split(b"\n", 1)[0].split(b",")
    assert len(header) == (10 if body.startswith("cap:") else 8)


def test_flow_out_holds_less_than_its_file_in_memory(tmp_path, capsys):
    # the whole CSV as text would be about three times the file
    out = tmp_path / "traj.csv"
    argv = ["flow", "--kind", "parallel-normal", "--body", "ellipse:1.3,1",
            "--phi-coeffs", "1,0,0.1", "--m", "512", "--t-end", "0.19",
            "--dt", "1e-3", "--out", str(out)]
    tracemalloc.start()
    try:
        code = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    text = out.read_text()
    assert text.count("\n") == 1 + 20 * 512
    assert peak < len(text)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind,body,coeffs", [
    ("parallel-normal", "disk", "1e300"),
    ("parallel-normal", "disk", "1,1e300"),
    ("parallel-normal", "cap:0.5", "1e300"),
    ("weingarten", "disk", "1e300"),
    ("parallel-normal", "disk", "1e308,1e308"),
])
def test_flow_refuses_a_speed_whose_first_step_overflows(kind, body, coeffs,
                                                          capsys):
    # these once overflowed in the plane geometry's speed**3 (exit 1 with
    # RuntimeWarnings, or exit 3 under -W error)
    assert run_cli(["flow", "--kind", kind, "--body", body, "--phi-coeffs",
                    coeffs, "--t-end", "0.01", "--dt", "1e-3"]) == 2
    _config_error(capsys, "phi_coeffs")


@pytest.mark.filterwarnings("error")
def test_first_step_bound_admits_a_finite_fast_flow(capsys):
    # one step of 1e-3 at speed 1e102 moves markers by 1e99, whose cube
    # is finite: the flow runs, and dies by its curvature floor
    assert run_cli(["flow", "--body", "disk", "--phi-coeffs", "1e102",
                    "--t-end", "0.01", "--dt", "1e-3", "--m", "32"]) == 1
    doc = json.loads(capsys.readouterr().out)
    alive = next(c for c in doc["checks"] if c["name"] == "flow-alive")
    assert alive["params"]["death_reason"] == "curvature-floor"


@pytest.mark.filterwarnings("error")
def test_cap_flow_breakdown_is_reported_without_a_warning(capsys):
    # a_20 = 1e72 passes the first-step bound; a later RK4 stage's geometry
    # has a zero in speed * kappa, and the tangential term once divided by
    # it with a RuntimeWarning (exit 3 under -W error)
    coeffs = ",".join(["1"] + ["0"] * 19 + ["1e72"])
    assert run_cli(["flow", "--body", "cap:0.5", "--phi-coeffs", coeffs,
                    "--t-end", "0.01", "--dt", "1e-3", "--m", "64"]) == 1
    doc = json.loads(capsys.readouterr().out)
    alive = next(c for c in doc["checks"] if c["name"] == "flow-alive")
    assert alive["params"]["death_reason"] == "nonfinite"


def test_flow_weingarten_report(capsys):
    code = run_cli(["flow", "--kind", "weingarten", "--body", "ellipse:1.2,1",
                    "--phi-coeffs", "1", "--t-end", "0.02", "--dt", "2e-4",
                    "--m", "64"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["flow-concavity"]["pass"] is True


def test_flow_rejects_bad_body(capsys):
    assert run_cli(["flow", "--body", "dodecahedron"]) == 2


@pytest.mark.parametrize("dt", ["0", "-1e-3", "nan", "inf"])
def test_flow_rejects_bad_dt(dt, capsys):
    assert run_cli(["flow", f"--dt={dt}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "dt" in err


def test_flow_rejects_zero_snapshot_every(tmp_path, capsys):
    cfg = tmp_path / "snap.cfg"
    cfg.write_text("[flow]\nsnapshot_every = 0\n")
    assert run_cli(["flow", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "snapshot_every" in err


@pytest.mark.parametrize("values", ["0", "1e-3,-1e-3", "nan"])
def test_sweep_flow_oracle_rejects_bad_dt(values, capsys):
    code = run_cli(["sweep", "--check", "flow-oracle", "--param", "dt",
                    "--values", values])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "dt" in err


def test_verify_rejects_nan_tol_scale(capsys):
    assert run_cli(["verify", "--suite", "colesanti", "--tol-scale", "nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "tol_scale" in err


def test_flow_rejects_nan_phi_coeffs(capsys):
    assert run_cli(["flow", "--phi-coeffs", "1,nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "phi_coeffs" in err


def test_flow_rejects_nonconvex_body(capsys):
    assert run_cli(["flow", "--body", "ellipse:0,1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "body" in err


@pytest.mark.parametrize("param,values,key", [("N", "1", "N"),
                                              ("N", "5,1", "N"),
                                              ("n_pts", "5", "n_pts"),
                                              # once ran 2001 and 1000 points
                                              ("n_pts", "2001.5", "n_pts"),
                                              ("n_pts", "1e3", "n_pts")])
def test_sweep_lichnerowicz_rejects_bad_values(param, values, key, capsys):
    code = run_cli(["sweep", "--check", "lichnerowicz", "--param", param,
                    "--values", values])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err


def _flow_csv_per_cell(states):
    # reference: the per-cell formatting loop the CSV emitter replaced
    dim = states[0].points.shape[1]
    lines = ["t,idx,x,y,phi,kappa,nux,nuy" if dim == 2
             else "t,idx,x,y,z,phi,kappa,nux,nuy,nuz"]
    for state in states:
        for i in range(state.points.shape[0]):
            cells = [format(state.t, ".17g"), str(i)]
            cells.extend(format(c, ".17g") for c in state.points[i])
            cells.append(format(state.phi[i], ".17g"))
            cells.append(format(state.kappa[i], ".17g"))
            cells.extend(format(c, ".17g") for c in state.normals[i])
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_flow_csv_matches_per_cell_format():
    from reilly_lab.flows import (FlowState, latitude_circle,
                                  parallel_normal_flow)
    from reilly_lab.presets import ellipse_body
    from reilly_lab.reporting import flow_csv
    plane = parallel_normal_flow(ellipse_body(1.3, 1.0, m=64), 1.0, 0.05,
                                 1e-2, snapshot_every=2).states
    sphere = parallel_normal_flow(latitude_circle(1.0, 32), 1.0, 0.05,
                                  1e-2, snapshot_every=2).states
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324,
                        -1.0 / 3.0])
    for states in (plane, sphere):
        last = states[-1]
        m, dim = last.points.shape
        fill = np.resize(special, m * dim).reshape(m, dim)
        odd = FlowState(-0.0, fill, np.resize(special[::-1], m),
                        fill[:, ::-1].copy(), np.resize(special, m),
                        alive=False)
        states = states + [odd]
        assert flow_csv(states) == _flow_csv_per_cell(states)


def test_flow_csv_bakes_only_a_bitwise_repeated_speed():
    from reilly_lab.reporting import flow_csv
    plane, cap, wave = (_library_flow(*flow).states
                        for flow in _STREAMED_FLOWS)
    # a parallel normal flow repeats phi in every state; the wave never does
    for states, repeats in ((plane, True), (cap, True), (wave, False)):
        keys = {s.phi.tobytes() for s in states}
        assert len(keys) == (1 if repeats else len(states))
        assert flow_csv(states) == _flow_csv_per_cell(states)

    def with_phi(state, phi):
        return dataclasses.replace(state, phi=np.asarray(phi))

    phi = plane[0].phi
    neg_zero, pos_zero, nan = phi.copy(), phi.copy(), phi.copy()
    neg_zero[5], pos_zero[5], nan[7] = -0.0, 0.0, np.nan
    small = _library_flow("parallel-normal", "ellipse:1.3,1", "1,0,0.3",
                          "32", "0.02", "1e-3").states
    cases = {
        # equal under np.array_equal, not bit for bit: -0 must stay "-0"
        "zero-sign": [with_phi(s, p) for s, p in zip(
            plane, (neg_zero, neg_zero, pos_zero, pos_zero, neg_zero))],
        "nan": [with_phi(s, nan) for s in plane[:3]],
        "death": plane[:2] + [dataclasses.replace(plane[2], alive=False)]
        + plane[3:],
        "m-change": plane[:3] + small + plane[3:],
        # one m, another dimension, the same phi bytes
        "dim-change": plane[:2] + [with_phi(s, phi) for s in cap[:2]],
    }
    for name, states in cases.items():
        assert flow_csv(states) == _flow_csv_per_cell(states), name
    text = flow_csv(cases["zero-sign"]).split("\n")
    assert [row.split(",")[4] for row in text[6::64]] == [
        "-0", "-0", "0", "0", "-0"]


def test_emit_report_empty_and_number_format():
    text = emit_report([], {"suite": "all"})
    doc = json.loads(text)
    assert doc["checks"] == []
    assert format_number(1.0 / 3.0) == "0.33333333333333331"
    assert format_number(float("inf")) == '"inf"'
    assert format_number(float("nan")) == '"nan"'


def test_report_pass_null_for_diagnostics():
    rep = CheckReport(name="d", lhs=1.0, rhs=2.0, tolerance=0.0,
                      kind="diagnostic")
    text = emit_report([rep], {})
    doc = json.loads(text)
    assert doc["checks"][0]["pass"] is None


def test_checkreport_pass_rule_matches_slack():
    from hypothesis import given, strategies as st

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0, 1))
    def inner(lhs, rhs, tol):
        rep = CheckReport(name="x", lhs=lhs, rhs=rhs, tolerance=tol)
        assert rep.passed == (rep.slack >= -tol)

    inner()


@pytest.mark.parametrize("body", ["ellipse:-1,1", "disk:nan", "disk:inf",
                                  "ellipse:inf,1", "ellipse:1e200,1"])
def test_flow_rejects_nonpositive_or_nonfinite_body_size(body, capsys):
    assert run_cli(["flow", "--body", body, "--m", "64"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and body in err


@pytest.mark.parametrize("body", ["ellipse:1", "ellipse:1,2,3", "disk:1,2",
                                  "cap:0.5,1"])
def test_flow_refuses_a_wrong_number_of_body_sizes(body, capsys):
    # these once ran as ellipse(1, 1.2), ellipse(1, 2), disk(1) and
    # cap(0.5), filling in or dropping sizes without a word
    assert run_cli(["flow", "--kind", "parallel-normal", "--body", body,
                    "--m", "32", "--t-end", "0.01", "--dt", "1e-3"]) == 2
    _config_error(capsys, f"bad body spec {body!r}")


def test_bare_body_names_keep_their_default_sizes():
    from reilly_lab.presets import body_from_spec
    assert body_from_spec("disk", m=32).label == "disk(R=1)"
    assert body_from_spec("ellipse", m=32).label == "ellipse(a=1.2,b=1)"
    assert body_from_spec("cap").r_cap == math.pi / 3


def test_flow_sphere_measure_loss_is_a_reported_death(capsys):
    code = run_cli(["flow", "--body", "cap:0.5", "--phi-coeffs", "1,0,0.5",
                    "--m", "64", "--dt", "2e-3"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    alive = {c["name"]: c for c in doc["checks"]}["flow-alive"]
    assert alive["pass"] is False
    assert alive["params"]["death_reason"] == "measure-loss"


_HYPERBOLIC_SHARPNESS = ("[sweep]\ncheck = sharpness\nparam = {param}\n"
                         "values = {values}\nN = -2\n")


@pytest.mark.parametrize("param,values", [("n_pts", "2001,4001")])
def test_sweep_sharpness_honours_beta_trunc(param, values, tmp_path, capsys):
    cfg = tmp_path / "bt.cfg"
    cfg.write_text(_HYPERBOLIC_SHARPNESS.format(param=param, values=values)
                   + "beta_trunc = 12\n")
    assert run_cli(["sweep", "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == len(values.split(","))
    for row in rows:
        ratio = float(row.split(",")[1])
        # b = 12 truncation defect at N = -2 (see the README)
        assert abs(ratio - 1.0) <= 2e-3


@pytest.mark.parametrize("values", ["0.5", "0.5,0.9"])
def test_sweep_sharpness_refuses_beta_frac_on_hyperbolic_density(
        values, tmp_path, capsys):
    # the density truncates at beta_trunc whatever beta_frac is: such a
    # sweep once printed one identical row per value
    cfg = tmp_path / "bt.cfg"
    cfg.write_text(_HYPERBOLIC_SHARPNESS.format(param="beta_frac",
                                                values=values)
                   + "beta_trunc = 12\n")
    assert run_cli(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "beta_frac" in err, err
    assert "sweep beta_trunc" in err, err


@pytest.mark.parametrize("extra", ["", "beta_trunc = nan\n",
                                   "beta_trunc = -1\n"])
def test_sweep_sharpness_rejects_missing_or_bad_beta_trunc(extra, tmp_path,
                                                           capsys):
    cfg = tmp_path / "bt.cfg"
    cfg.write_text(_HYPERBOLIC_SHARPNESS.format(param="beta_frac",
                                                values="0.5") + extra)
    assert run_cli(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "beta_trunc" in err


def _config_error(capsys, key):
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err, err


_SHARPNESS = ("[sweep]\ncheck = sharpness\nparam = {param}\nvalues = {values}\n"
              "N = {N}\n")


def test_sweep_sharpness_rejects_n_equal_one(tmp_path, capsys):
    cfg = tmp_path / "n1.cfg"
    cfg.write_text(_SHARPNESS.format(param="beta_frac", values="0.9", N="1"))
    assert run_cli(["sweep", "--config", str(cfg)]) == 2
    _config_error(capsys, "N = 1.0")


@pytest.mark.parametrize("values", ["0.9,nan", "1.0", "0", "-0.5", "inf"])
def test_sweep_sharpness_rejects_beta_frac_outside_unit_interval(values,
                                                                 capsys):
    assert run_cli(["sweep", "--check", "sharpness", "--param", "beta_frac",
                    "--values", values]) == 2
    _config_error(capsys, "beta_frac")


@pytest.mark.parametrize("param,values,extra", [
    ("beta_trunc", "2,3,4", ""),
    ("beta_frac", "0.9", "beta_trunc = 12\n"),
    ("n_pts", "2001", "beta_trunc = 12\n"),
])
def test_sweep_sharpness_rejects_beta_trunc_on_elliptic_density(
        param, values, extra, tmp_path, capsys):
    cfg = tmp_path / "bt.cfg"
    cfg.write_text(_SHARPNESS.format(param=param, values=values, N="5")
                   + extra)
    assert run_cli(["sweep", "--config", str(cfg)]) == 2
    _config_error(capsys, "beta_trunc")


@pytest.mark.parametrize("N,param,values,extra,codes", [
    # truncations the density refuses: a config error naming the key
    ("200", "beta_frac", "0.999", "", {2}),
    ("-2", "beta_trunc", "5e-324", "", {2}),
    ("-2", "beta_trunc", "1e300", "", {2}),
    ("1e300", "beta_frac", "1e-9", "", {2}),
    # integrals that vanish in double precision: the identities fail
    ("5", "beta_frac", "1e-300", "", {1}),
    ("-1e149", "beta_trunc", "8", "", {1}),
])
def test_sweep_sharpness_degenerate_inputs_never_crash(N, param, values,
                                                       extra, codes,
                                                       tmp_path, capsys):
    cfg = tmp_path / "deg.cfg"
    cfg.write_text(_SHARPNESS.format(param=param, values=values, N=N) + extra)
    assert run_cli(["sweep", "--config", str(cfg)]) in codes
    err = capsys.readouterr().err
    assert "internal error" not in err
    if codes == {2}:
        assert param in err or "N =" in err


def test_verify_rejects_negative_seed(tmp_path, capsys):
    assert run_cli(["verify", "--suite", "all", "--seed", "-5"]) == 2
    _config_error(capsys, "seed")
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("[suite]\nseed = -1\n")
    assert run_cli(["verify", "--config", str(cfg)]) == 2
    _config_error(capsys, "seed")


@pytest.mark.parametrize("t_end", ["-1", "0", "nan", "inf"])
def test_flow_rejects_bad_t_end(t_end, capsys):
    assert run_cli(["flow", "--t-end", t_end, "--m", "32"]) == 2
    _config_error(capsys, "t_end")


@pytest.mark.parametrize("key,value", [("body", "disk"),
                                       ("phi_coeffs", "1,0,0.3")])
def test_sweep_section_rejects_dead_keys(key, value, tmp_path, capsys):
    cfg = tmp_path / "dead.cfg"
    cfg.write_text(_SHARPNESS.format(param="beta_frac", values="0.9", N="5")
                   + f"{key} = {value}\n")
    assert run_cli(["sweep", "--config", str(cfg)]) == 2
    _config_error(capsys, key)


@pytest.mark.parametrize("check,param,values", [
    ("sharpness", "beta_frac", "0.9"),
    ("lichnerowicz", "n_pts", "201"),
])
def test_sweep_rejects_unknown_case(check, param, values, tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(f"[sweep]\ncheck = {check}\nparam = {param}\n"
                   f"values = {values}\ncase = foo\n")
    assert run_cli(["sweep", "--config", str(cfg)]) == 2
    _config_error(capsys, "case")


@pytest.mark.parametrize("check,param,values", [
    ("sharpness", "n_pts", "201"),
    ("lichnerowicz", "N", "inf"),
])
def test_sweep_case_is_case_insensitive(check, param, values, tmp_path,
                                        capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(f"[sweep]\ncheck = {check}\nparam = {param}\n"
                   f"values = {values}\ncase = Dirichlet\n")
    assert run_cli(["sweep", "--config", str(cfg)]) in (0, 1)
    captured = capsys.readouterr()
    assert "error" not in captured.err
    if check == "lichnerowicz":
        assert "lichnerowicz-dirichlet:lhs" in captured.out


@pytest.mark.parametrize("param,values", [("N", "inf,5,-2"),
                                          ("n_pts", "201,2001")])
def test_sweep_lichnerowicz_dirichlet_passes(param, values, tmp_path):
    # Dirichlet runs on the half interval [0, b], whose wall is mean-convex
    # for the weight; on the full interval the gap collapses to ~0
    cfg = tmp_path / "dirichlet.cfg"
    out = tmp_path / "dirichlet.csv"
    cfg.write_text(f"[sweep]\ncheck = lichnerowicz\nparam = {param}\n"
                   f"values = {values}\ncase = dirichlet\n")
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith(f"{param},lichnerowicz-dirichlet:lhs")
    assert [line.split(",")[-1] for line in lines[1:]] == \
        ["true"] * len(values.split(","))


def test_sweep_sharpness_rejects_dirichlet_at_negative_n(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(_HYPERBOLIC_SHARPNESS.format(param="n_pts", values="201")
                   + "beta_trunc = 12\ncase = dirichlet\n")
    assert run_cli(["sweep", "--config", str(cfg)]) == 2
    _config_error(capsys, "case")


def test_flow_rejects_t_end_off_the_step_grid(capsys):
    assert run_cli(["flow", "--t-end", "0.0015", "--dt", "1e-3",
                    "--m", "32"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "t_end" in err, err
    assert "nearest reachable t_end is 0.002" in err


@pytest.mark.parametrize("t_end,dt", [("0.5", "1e-3"), ("0.4", "1e-3"),
                                      ("0.1", "2e-4"), ("3e-3", "1e-3")])
def test_flow_accepts_whole_steps_despite_rounding(t_end, dt):
    from reilly_lab.config import validate_flow
    cfg = load_config(None, overrides={"flow.t_end": t_end, "flow.dt": dt})
    run = validate_flow(cfg)
    # the flow integrators take (body, phi, t_end, dt)
    assert run.args[2] == float(t_end) and run.args[3] == float(dt)


def test_verify_failure_lines_show_slack_and_tolerance(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--suite", "reilly", "--tol-scale", "1e-9",
                    "--out", str(out)]) == 1
    lines = sorted(ln for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("# FAIL "))
    failed = [c for c in json.loads(out.read_text())["checks"]
              if c["pass"] is False]
    assert len(lines) == len(failed) == 4
    for line, check in zip(lines, failed):
        assert line == (f"# FAIL {check['name']} slack={check['slack']:.6g} "
                        f"tolerance={check['tolerance']:.6g}")


@pytest.mark.parametrize("values,bad", [
    # 0.5 / 3e-3 is 166.67 steps: the flow would stop at 0.501 and be
    # compared with the Minkowski sum at 0.5
    ("2e-3,3e-3", "dt = 0.003"),
    # 0.5 / 5e-324 overflows to infinitely many steps
    ("5e-324", "dt = 5e-324"),
])
def test_sweep_flow_oracle_rejects_dt_off_the_step_grid(values, bad, capsys):
    assert run_cli(["sweep", "--check", "flow-oracle", "--param", "dt",
                    "--values", values]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "t_end" in err, err
    assert bad in err


@pytest.mark.parametrize("case", ["neumann", "dirichlet"])
def test_sweep_lichnerowicz_gaussian_scales_with_rho(case, tmp_path, capsys):
    # at N = inf the Gaussian of variance 1/rho runs on six standard
    # deviations; on a fixed [-6, 6] exp(-V) underflows at rho = 100
    cfg = tmp_path / "rho.cfg"
    cfg.write_text("[sweep]\ncheck = lichnerowicz\nparam = n_pts\n"
                   f"values = 2001\nN = inf\nrho = 100\ncase = {case}\n")
    assert run_cli(["sweep", "--config", str(cfg)]) in (0, 1)
    captured = capsys.readouterr()
    assert "error" not in captured.err
    row = captured.out.strip().splitlines()[1].split(",")
    assert float(row[1]) == 100.0


@pytest.mark.parametrize("check,param,values", [
    ("sharpness", "n_pts", "201"),
    ("lichnerowicz", "n_pts", "201"),
    ("flow-oracle", "dt", "4e-3"),
])
@pytest.mark.parametrize("key", ["m", "t_end"])
def test_sweep_refuses_malformed_m_and_t_end_on_every_check(
        check, param, values, key, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[sweep]\ncheck = {check}\nparam = {param}\n"
                   f"values = {values}\n{key} = abc\n")
    assert run_cli(["sweep", "--config", str(cfg)]) == 2
    _config_error(capsys, f"{key} must be")


def test_suite_settings_precedence_env_file_flag(tmp_path, capsys,
                                                  monkeypatch):
    def echo(*flags, config=None):
        argv = ["flow", "--m", "32", "--t-end", "0.02", "--dt", "0.01",
                *flags]
        if config is not None:
            argv += ["--config", str(config)]
        assert run_cli(argv) == 0
        return json.loads(capsys.readouterr().out)["config_echo"]

    monkeypatch.setenv("REILLY_LAB_WORKERS", "2")
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("[suite]\nworkers = 3\nseed = 7\n")
    assert [echo()[k] for k in ("workers", "seed")] == [2, 1234]
    assert [echo(config=cfg)[k] for k in ("workers", "seed")] == [3, 7]
    assert [echo("--workers", "4", "--seed", "9", config=cfg)[k]
            for k in ("workers", "seed")] == [4, 9]


@pytest.mark.parametrize("text", ["rho = 0\n", "rho = 0\nN = inf\n",
                                  "rho = -1\n", "rho = inf\n", "rho = nan\n"])
def test_sweep_lichnerowicz_refuses_rho_not_finite_positive(text, tmp_path,
                                                            capsys):
    # rho = 0 exited 3: no beta_trunc at N = 5, a division by zero at inf
    cfg = tmp_path / "rho.cfg"
    cfg.write_text("[sweep]\ncheck = lichnerowicz\nparam = n_pts\n"
                   "values = 201\n" + text)
    assert run_cli(["sweep", "--config", str(cfg)]) == 2
    _config_error(capsys, "rho")


@pytest.mark.parametrize("values", ["0", "-0", "5,0"])
def test_sweep_lichnerowicz_refuses_n_zero(values, capsys):
    # theta = -inf has no model density (exited 3)
    assert run_cli(["sweep", "--check", "lichnerowicz", "--param", "N",
                    f"--values={values}"]) == 2
    _config_error(capsys, "N = 0")


@pytest.mark.parametrize("text", [
    "N = 1.25\n",                  # CD(1, N) misses by rounding at the end
    "N = -2\nrho = 1e4\n",         # exp(-V) underflows on [-8, 8]
    "N = 5\nrho = 1e300\n",        # the operator overflows
])
def test_sweep_lichnerowicz_unresolvable_rho_and_n_name_both(text, tmp_path,
                                                             capsys):
    cfg = tmp_path / "range.cfg"
    cfg.write_text("[sweep]\ncheck = lichnerowicz\nparam = n_pts\n"
                   "values = 201\n" + text)
    assert run_cli(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: rho = ") and " at N = " in err, err


@pytest.mark.parametrize("spec", ["sphere", "sphere:2", "spheroid:1,1.2",
                                  "wavy"])
def test_flow_refuses_revolution_body_specs(spec, capsys):
    # nor is wavy a body
    assert run_cli(["flow", "--body", spec]) == 2
    _config_error(capsys, "unknown body")


@pytest.mark.parametrize("flags,key", [
    (["--m", "0"], "m must be >= 8"),
    (["--m", "0", "--body", "cap:0.5"], "m must be >= 8"),
    (["--kind", "weingarten", "--phi-coeffs", "-1"], "phi_coeffs"),
    (["--kind", "weingarten", "--phi-coeffs", "0.1,1"], "phi_coeffs"),
])
def test_flow_refuses_a_tiny_m_and_a_speed_that_is_not_positive(
        flags, key, capsys):
    assert run_cli(["flow", "--t-end", "0.01", "--dt", "1e-3", *flags]) == 2
    _config_error(capsys, key)


def test_flow_runs_odd_m_on_a_cap(capsys):
    assert run_cli(["flow", "--body", "cap:0.5", "--m", "9", "--t-end",
                    "0.01", "--dt", "1e-3"]) == 0


@pytest.mark.parametrize("flag,section,value", [
    ("--m", "flow", "2.5"), ("--dt", "flow", "x"), ("--t-end", "flow", "x"),
    ("--workers", "suite", "x"), ("--seed", "suite", "1.5"),
    ("--tol-scale", "suite", "x"),
])
def test_bad_flag_value_is_the_config_error_of_its_file_key(
        flag, section, value, tmp_path, capsys):
    # argparse once typed these flags and exited with its usage text
    key = flag[2:].replace("-", "_")
    flags = {"--t-end": "0.01", "--dt": "1e-3", "--m": "32", flag: value}
    assert run_cli(["flow", *sum(flags.items(), ())]) == 2
    from_flag = capsys.readouterr().err
    assert from_flag.startswith(f"config error: {key} must be "), from_flag
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    del flags[flag]
    assert run_cli(["flow", *sum(flags.items(), ()),
                    "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == from_flag


@pytest.mark.parametrize("argv,flag,key", [
    (["flow", "--t-end", "-1e-3", "--m", "32"], "--t-end", "t_end"),
    (["flow", "--t-end", "0.01", "--dt", "-2E-4"], "--dt", "dt"),
    (["sweep", "--check", "lichnerowicz", "--param", "n_pts", "--values",
      "-2e0"], "--values", "n_pts"),
])
def test_negative_exponent_flag_value_reaches_the_config_parser(
        argv, flag, key, capsys):
    # argparse reads only -5 and -.5 shapes as negative numbers; it once
    # took -1e-3 for a flag and raised SystemExit(2) out of main
    assert run_cli(argv) == 2
    spaced = capsys.readouterr().err
    assert spaced.startswith(f"config error: {key} must be "), spaced
    at = argv.index(flag)
    glued = [*argv[:at], f"{flag}={argv[at + 1]}", *argv[at + 2:]]
    assert run_cli(glued) == 2
    assert capsys.readouterr().err == spaced


def test_flag_and_file_key_echo_the_same_text(tmp_path, capsys):
    base = ["flow", "--t-end", "0.01", "--m", "32"]
    assert run_cli([*base, "--dt", "2e-3"]) == 0
    from_flag = json.loads(capsys.readouterr().out)["config_echo"]
    cfg = tmp_path / "dt.cfg"
    cfg.write_text("[flow]\ndt = 2e-3\n")
    assert run_cli([*base, "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["config_echo"] == from_flag
    assert from_flag["flow"]["dt"] == "2e-3"


@pytest.mark.parametrize("command,flag,names", [
    ("verify", "--suite", suites.SUITE_NAMES),
    ("sweep", "--check", tuple(SWEEP_CHECKS)),
])
def test_help_names_every_suite_and_sweep_check(command, flag, names,
                                                monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        run_cli([command, "--help"])
    [line] = [ln for ln in capsys.readouterr().out.splitlines()
              if ln.lstrip().startswith(flag)]
    listed = re.findall(r"[\w-]+", line.split(flag[2:].upper(), 1)[1])
    assert set(listed) - {"one", "of"} == set(names)


@pytest.fixture
def nothing_is_built(monkeypatch):
    """Every sweep builder and the flow's body builder fail when called."""
    def built(*args, **kwargs):
        raise AssertionError("a grid past its bound was built")
    monkeypatch.setattr(config, "body_from_spec", built)
    for check, (_, swept) in list(SWEEP_CHECKS.items()):
        monkeypatch.setitem(SWEEP_CHECKS, check, (built, swept))


_ORACLE = ["sweep", "--check", "flow-oracle", "--param", "dt", "--values"]


@pytest.mark.parametrize("argv,text,message", [
    # exited 3 with ValueError: Maximum allowed size exceeded
    ([*_ORACLE, "1e-300"], "", "dt = 1e-300 locks the oracle's marker count "
     "m * (1e-3 / dt) above 4096 at m = 256; the smallest dt allowed is "
     "6.25e-05"),
    # exited 3 with MemoryError (1.86 TiB)
    ([*_ORACLE, "1e-12"], "", "dt = 1e-12 locks"),
    # did not finish in 20 s at the locked m = 2.56e6
    ([*_ORACLE, "1e-3,1e-7"], "", "dt = 1e-07 locks"),
    # these three exited 3 with MemoryError
    ([*_ORACLE, "1e-3"], "m = 100000000000\n",
     "m must be <= 4096, got 100000000000"),
    (["sweep", "--check", "lichnerowicz", "--param", "n_pts", "--values",
      "100000000000"], "", "n_pts must be at most 1000000, got 100000000000"),
    (["flow", "--m", "1000000000000", "--t-end", "0.01", "--dt", "1e-3"], "",
     "m must be <= 4096, got 1000000000000"),
    # just past each bound
    ([*_ORACLE, "5e-05"], "", "smallest dt allowed is 6.25e-05"),
    ([*_ORACLE, "4e-4"], "m = 2048\n", "smallest dt allowed is 0.0005"),
    (["sweep", "--check", "sharpness", "--param", "beta_frac", "--values",
      "0.9"], "n_pts = 1000001\n", "n_pts must be at most 1000000"),
])
def test_oversized_grids_are_refused_before_anything_is_built(
        argv, text, message, nothing_is_built, tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"[{argv[0]}]\n{text}")
    assert run_cli([*argv, "--config", str(cfg)]) == 2
    _config_error(capsys, message)


def test_grid_bounds_admit_every_grid_in_use():
    # the largest grids in use: the benchmark's n_pts = 32001 sweep and a
    # flow at m = 1024
    for n_pts in ("32001", str(config.MAX_N_PTS)):
        validate_sweep(load_config(None, overrides={
            "sweep.check": "lichnerowicz", "sweep.param": "n_pts",
            "sweep.values": n_pts}))
    for m in ("1024", str(config.MAX_M)):
        validate_flow(load_config(None, overrides={"flow.m": m,
                                                   "flow.t_end": "0.01"}))


@pytest.mark.parametrize("dt,locked", [("6.25e-05", 4096), ("1e-3", 256),
                                       ("4e-3", 64)])
def test_oracle_locks_at_most_the_bound(dt, locked, monkeypatch):
    monkeypatch.setattr(suites, "_pnf_minkowski_oracle",
                        lambda m, t_end, dt: 0.0)
    [row] = validate_sweep(load_config(None, overrides={
        "sweep.check": "flow-oracle", "sweep.param": "dt",
        "sweep.values": dt}))["rows"]
    assert row().params["m"] == locked
