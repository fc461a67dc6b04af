"""Property tests: random values of the validated keys never end in an
internal error (exit 3), and every configuration error names its key."""

import contextlib
import io
import os
import re
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reilly_lab.cli import main

EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e150, 1e300, float("nan"),
         float("inf"), float("-inf"), 0.999, 1.0000000000000002,
         -1.0000000000000002]
NUMBERS = st.one_of(st.floats(0.0, 1.0), st.floats(-10.0, 10.0),
                    st.sampled_from(EDGES), st.floats())
FRACTIONS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
LENGTHS = st.floats(0.01, 60.0)
N_VALUES = st.one_of(st.floats(1.0, 50.0, exclude_min=True),
                     st.floats(-50.0, -1.0, exclude_max=True),
                     st.sampled_from(EDGES), st.floats())
SEEDS = st.integers(-4, 2**70)
SETTINGS = settings(derandomize=True, max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, err.getvalue()


def _assert_handled(code, err, keys):
    assert code != 3, err
    if code == 2:
        assert err.startswith("config error"), err
        assert any(re.search(rf"\b{key}\b", err) for key in keys), err


@SETTINGS
@given(seed=SEEDS, n_value=N_VALUES,
       param=st.sampled_from(["beta_frac", "beta_trunc"]), data=st.data())
def test_sharpness_sweep_input_never_crashes(seed, n_value, param, data):
    valid = FRACTIONS if param == "beta_frac" else LENGTHS
    values = data.draw(st.lists(st.one_of(valid, NUMBERS), min_size=1,
                                max_size=3))
    # hyperbolic densities (N < -1) need beta_trunc, elliptic ones refuse it
    fitting = LENGTHS if n_value < 0.0 else st.none()
    beta_trunc = data.draw(st.one_of(fitting, st.none(), LENGTHS, NUMBERS))
    text = f"[sweep]\nN = {n_value!r}\n"
    if beta_trunc is not None:
        text += f"beta_trunc = {beta_trunc!r}\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, err = _run(["sweep", "--check", "sharpness", "--seed", str(seed),
                          "--param", param,
                          "--values=" + ",".join(map(repr, values)),
                          "--config", path])
    _assert_handled(code, err, ("seed", "N", param, "beta_frac", "beta_trunc"))


@SETTINGS
@given(seed=SEEDS, t_end=st.one_of(
    st.floats(max_value=0.0), st.sampled_from([float("nan"), float("inf")]),
    # a positive t_end runs t_end / dt steps: kept short for runtime
    st.floats(min_value=0.0, max_value=0.5, exclude_min=True)))
def test_flow_t_end_never_crashes(seed, t_end):
    code, err = _run(["flow", "--seed", str(seed), f"--t-end={t_end!r}",
                      "--dt", "0.01", "--m", "32"])
    _assert_handled(code, err, ("seed", "t_end"))


@SETTINGS
@given(rho=NUMBERS, n_value=N_VALUES, param=st.sampled_from(["N", "n_pts"]),
       case=st.sampled_from(["neumann", "dirichlet"]),
       n_pts=st.integers(16, 2001), data=st.data())
def test_lichnerowicz_sweep_rho_and_n_never_crash(rho, n_value, param, case,
                                                  n_pts, data):
    # N is swept or fixed in the file; n_pts stays small for runtime
    values = (data.draw(st.lists(N_VALUES, min_size=1, max_size=3))
              if param == "N" else [n_pts])
    text = (f"[sweep]\nrho = {rho!r}\nN = {n_value!r}\ncase = {case}\n"
            f"n_pts = {n_pts}\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, err = _run(["sweep", "--check", "lichnerowicz", "--param", param,
                          "--values=" + ",".join(map(repr, values)),
                          "--config", path])
    _assert_handled(code, err, ("rho", "N"))
