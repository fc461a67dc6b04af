"""Open defects as strict-xfail probes.

Each test asserts the behaviour the lab should have and is marked
``xfail(strict=True)``: it fails today, and the change that mends the
defect makes it pass, which fails the suite until that change deletes the
marker and records the mend.  Each reason quotes the defect as recorded
in CHANGES.md and names the ROADMAP item that plans its repair.
"""

import pytest

import reilly_lab.cli as cli
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
