"""Open defects as strict-xfail probes.

Each test asserts the behaviour the lab should have and is marked
``xfail(strict=True)``: it fails today, and the change that mends the
defect makes it pass, which fails the suite until that change deletes the
marker and records the mend; a mended probe stays as a plain test.  Each
reason quotes the defect as recorded in CHANGES.md and names the ROADMAP
item that plans its repair.
"""

import math

import numpy as np
import pytest

import reilly_lab.cli as cli
from reilly_lab import bodies
from reilly_lab.bodies import build_sphere_body
from reilly_lab.dimension import InverseDimension
from reilly_lab.errors import CurvatureNotPositive
from reilly_lab.flows import weingarten_wave
from reilly_lab.inequalities import boundary_cd_report, check_lichnerowicz
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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: the disk at m = 128, phi = 1,0,0.2, dt = 4.5e-3 dies "
    "as `curvature-floor` at t = 0.1665, never as an unstable step"))
def test_unstable_wave_step_on_the_disk_is_named():
    body = body_from_spec("disk", m=128)
    phi = TrigPolynomial.from_flat([1.0, 0.0, 0.2])
    result = weingarten_wave(body, phi, 0.3, 4.5e-3)
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


_LICHNEROWICZ_2001 = ("[sweep]\ncheck = lichnerowicz\nparam = n_pts\n"
                      "values = 2001\n")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 5(b): `[sweep] check = lichnerowicz, N = 5, rho = 100, "
    "n_pts = 2001` exits 1 on a true equality: the discrete Neumann gap "
    "keeps its relative error 1.68e-6 while the 10 h^2 lambda tolerance "
    "shrinks with the interval, so rhs reads 124.99979 against lhs 125"))
def test_lichnerowicz_equality_passes_at_rho_100(tmp_path, capsys):
    code, err = _sweep_exit_and_err(tmp_path, capsys,
                                    _LICHNEROWICZ_2001 + "N = 5\nrho = 100\n")
    assert code == 0, err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 5(c): suites.lichnerowicz truncates every hyperbolic "
    "density at beta_trunc = 8, so at N = -2, rho = 3000 exp(-V) "
    "underflows and the sweep exits 2 with `density exp(-V) must be "
    "positive and finite`"))
def test_lichnerowicz_sweep_runs_at_n_minus_2_rho_3000(tmp_path, capsys):
    code, err = _sweep_exit_and_err(tmp_path, capsys,
                                    _LICHNEROWICZ_2001 + "N = -2\nrho = 3000\n")
    assert code in (0, 1), err


# the speed at and next to each pole is read through the profile reflected
# about the pole: |speed - 1| = 1.9e-7 against the fixed 1e-6 bound
def test_exact_sphere_profile_builds_at_64_cells():
    body = build_sphere_body(1.0, n_cells=64)
    assert body.n_cells == 64


def _spheroid_ricci_discrepancy(scale):
    """max_discrepancy of the default spheroid's boundary-ricci-transfer
    record, built with build_spheroid_body's callables and the curve
    parameter at each node multiplied by `scale`."""
    a, c, n_cells = 1.0, 1.2, 1024
    s, r, z = bodies._arclength_reparametrize(
        lambda tau: a * np.sin(tau * scale),
        lambda tau: c * np.cos(tau * scale),
        0.0, math.pi, n_cells,
        speed_fn=lambda tau: np.sqrt(
            a * a * np.cos(tau) ** 2 + c * c * np.sin(tau) ** 2))
    body = bodies._closed(s, r, z, "spheroid(a=1,c=1.2)")
    return boundary_cd_report(body)[0].params["max_discrepancy"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 10: one-ulp moves (1 +- 2^-52, random signs, seed 0) of "
    "the curve parameter at the default spheroid's interior nodes move "
    "its boundary-ricci-transfer max_discrepancy from 2.01e-8 to 6.08e-8, "
    "against the 1e-10 target; -r''/r next to the poles divides a second "
    "difference by r = h"))
def test_spheroid_ricci_record_is_stable_under_one_ulp_node_moves():
    signs = np.random.default_rng(0).choice([-1.0, 1.0], 1025)
    scale = 1.0 + signs * 2.0**-52
    scale[0] = scale[-1] = 1.0
    moved = _spheroid_ricci_discrepancy(scale)
    assert abs(moved - _spheroid_ricci_discrepancy(1.0)) < 1e-10
