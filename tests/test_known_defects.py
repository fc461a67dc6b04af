"""Open defects as strict-xfail probes.

Each test asserts the behaviour the lab should have and is marked
``xfail(strict=True)``: it fails today, and the change that mends the
defect makes it pass, which fails the suite until that change deletes the
marker and records the mend.  Each reason quotes the defect as recorded
in CHANGES.md and names the ROADMAP item that plans its repair.
"""

import pytest

import reilly_lab.cli as cli
from reilly_lab.bodies import build_sphere_body
from reilly_lab.dimension import InverseDimension
from reilly_lab.errors import CurvatureNotPositive
from reilly_lab.flows import weingarten_wave
from reilly_lab.inequalities import check_lichnerowicz
from reilly_lab.models import build_model_density
from reilly_lab.presets import body_from_spec, model_density_params
from reilly_lab.trig import TrigPolynomial


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 5(a): `sweep --check lichnerowicz --param n_pts --values "
    "200001` exits 2 with `config error: rho = 1.0 at N = 5.0 on 200001 "
    "points: CD(1, N) fails`; the cancellation in build_model_density's "
    "ddV grows past the 1e-10 margin between 100001 and 200001 points"))
def test_lichnerowicz_sweep_runs_at_200001_points(tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["sweep", "--check", "lichnerowicz", "--param", "n_pts",
                     "--values", "200001", "--out", out]) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: flows.weingarten_wave reports an unstable explicit "
    "step as `curvature-floor` or `positivity-loss`, never as instability; "
    "ellipse:1.5,1 at m = 128, phi = 1,0,0.2, dt = 3.3e-3 dies as "
    "`curvature-floor` at t = 0.073"))
def test_unstable_wave_step_is_named():
    body = body_from_spec("ellipse:1.5,1", m=128)
    phi = TrigPolynomial.from_flat([1.0, 0.0, 0.2])
    result = weingarten_wave(body, phi, 0.6, 3.3e-3)
    assert result.death_reason == "unstable-step"


@pytest.mark.xfail(strict=True, raises=CurvatureNotPositive, reason=(
    "ROADMAP item 5: inequalities.check_lichnerowicz refuses the model "
    "density at N = 1.25, rho = 1, which satisfies CD(rho, N) exactly: "
    "V'' - V'^2/(N-1) cancels terms of 4e5 at the truncation end, so min "
    "Ric - rho reads -1.75e-10 against the 1e-10 margin"))
def test_model_density_at_n_1_25_is_not_refused():
    model = build_model_density(model_density_params(1.0, 1.25), 201)
    report = check_lichnerowicz(model, 1.0, InverseDimension.from_n(1.25))
    assert report.passed


def _sweep_exit_and_err(tmp_path, capsys, text):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    code = cli.main(["sweep", "--config", str(cfg)])
    return code, capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 5(a): tier-1's 8 RuntimeWarnings; at N = -2 the "
    "profile's cosh and sinh overflow, and so does build_model_density's "
    "ddV = -(N-1)(R'' R - R'^2)/R^2, so under warnings as errors "
    "`[sweep] check = sharpness, N = -2, beta_trunc = 1e300` exits 3 "
    "with `internal error: RuntimeWarning: overflow encountered in cosh` "
    "instead of its config error"))
def test_sharpness_sweep_at_beta_trunc_1e300_refuses_without_a_warning(
        tmp_path, capsys):
    code, err = _sweep_exit_and_err(tmp_path, capsys, (
        "[sweep]\ncheck = sharpness\nparam = beta_trunc\nvalues = 1e300\n"
        "N = -2\n"))
    assert code == 2, err
    assert err.startswith("config error: beta_trunc = ")


@pytest.mark.filterwarnings("error")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 5(a): tier-1's 8 RuntimeWarnings; at N = -2, rho = 1e4 "
    "build_model_density's ddV = -(N-1)(R'' R - R'^2)/R^2 overflows, so "
    "under warnings as errors the Lichnerowicz sweep exits 3 with "
    "`internal error: RuntimeWarning: overflow encountered in multiply` "
    "instead of its config error"))
def test_lichnerowicz_sweep_at_n_minus_2_rho_1e4_refuses_without_a_warning(
        tmp_path, capsys):
    code, err = _sweep_exit_and_err(tmp_path, capsys, (
        "[sweep]\ncheck = lichnerowicz\nparam = n_pts\nvalues = 201\n"
        "N = -2\nrho = 1e4\n"))
    assert code == 2, err
    assert err.startswith("config error: rho = ")


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "ROADMAP item 10: build_sphere_body(1.0, n_cells=64) raises `profile "
    "is not arclength parametrized` for the exact arclength profile "
    "(R sin(s/R), R cos(s/R)): the 4th-order one-sided difference at the "
    "pole node reads |speed - 1| = 1.157e-6 against the fixed 1e-6 bound "
    "(2.3e-7 at 96 cells)"))
def test_exact_sphere_profile_builds_at_64_cells():
    body = build_sphere_body(1.0, n_cells=64)
    assert body.n_cells == 64
