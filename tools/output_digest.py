"""Print SHA-256 digests of the lab's deterministic outputs, one per line.

Usage (from the repository root):

    PYTHONPATH=src python tools/output_digest.py [--suite all] [--seeds 1234,0]

The lines are:

* ``verify <suite> seed=<n> checks <sha>``: the ``checks`` array of the
  JSON document ``reilly-lab verify --suite <suite> --seed <n>`` writes,
  byte for byte;
* ``flow <run> <field> <sha>``: each ``FlowResult`` field of a fixed list
  of small library flow runs, including their known deaths, plus the
  trajectory CSV that ``reporting.flow_csv`` writes from the states.
  Arrays are digested through their raw bytes, scalars through ``repr``;
* with ``--suite all`` (the default) also ``lib <call> <sha>`` for
  library calls that no verify suite makes (the Gamma_2 residual field
  at N = 5 and N = 0, the Reilly residual, dimensional Brascamp-Lieb and CD
  margin on radial balls, the spheroid's boundary gap and spectrum):
  check reports as their JSON record, arrays through their raw bytes,
  anything else through ``repr``; and the command line's own bytes:
  ``sweep <run> exit=<code> <sha>`` for the stdout and stderr of small
  ``reilly-lab sweep`` runs (every check and swept parameter, both cases,
  N = inf, and two configuration errors), and ``cli-flow <run>
  exit=<code> <sha>`` plus ``cli-flow <run> csv <sha>`` for the report
  and trajectory CSV of one ``reilly-lab flow`` run of each kind (a run
  with a bad flag writes no trajectory and has no ``csv`` line); then
  ``verify all seed=<n> workers=2 checks <sha>`` per seed, the same
  digest as the ``verify`` line above it with two worker processes;
  last, more ``lib`` lines for the boundary layer: a periodic operator
  matrix and spectrum, a Dirichlet eigenvector, the boundary geometry of
  four bodies, a dual Colesanti check and the spheroid's boundary CD
  records.

A change meant to keep every output byte-identical runs this on the
parent tree and on the change and compares the two with ``diff``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings

import reilly_lab  # noqa: F401  (first: sets the BLAS thread default)
import numpy as np

from reilly_lab import cli, flows
from reilly_lab.bodies import build_spheroid_body
from reilly_lab.checks import CheckReport
from reilly_lab.dimension import InverseDimension
from reilly_lab.inequalities import (boundary_cd_report, check_bln,
                                     check_dual_colesanti)
from reilly_lab.models import build_model_density
from reilly_lab.operators import (assemble_laplacian, boundary_gap_revolution,
                                  boundary_geometry, eigenvalues, spectral_gap)
from reilly_lab.presets import (disk_body, ellipse_body, flat_ball,
                                gaussian_ball, gaussian_half_model,
                                gaussian_model, model_density_params)
from reilly_lab.reilly import cd_margin, gamma2_field, reilly_residual
from reilly_lab.reporting import check_to_json, flow_csv
from reilly_lab.trig import TrigPolynomial

_COS2 = lambda c: TrigPolynomial((1.0, 0.0, c))  # noqa: E731

# name -> zero-argument call returning a FlowResult
FLOW_RUNS = (
    ("pnf-disk-m64", lambda: flows.parallel_normal_flow(
        disk_body(m=64), _COS2(0.12), 0.2, 2e-3)),
    ("pnf-ellipse-m1024", lambda: flows.parallel_normal_flow(
        ellipse_body(1.3, 1.0, m=1024), _COS2(0.1), 0.05, 1e-3)),
    ("pnf-disk-curvature-floor", lambda: flows.parallel_normal_flow(
        disk_body(m=64), _COS2(0.6), 1.5, 2e-3, snapshot_every=100)),
    ("pnf-disk-intersect-every-1", lambda: flows.parallel_normal_flow(
        disk_body(m=64), _COS2(0.12), 0.1, 2e-3, intersect_every=1)),
    ("pnf-cap", lambda: flows.parallel_normal_flow(
        flows.latitude_circle(1.0, 64), _COS2(0.1), 0.2, 2e-3)),
    ("pnf-cap-measure-loss", lambda: flows.parallel_normal_flow(
        flows.latitude_circle(0.5, 64), _COS2(0.5), 0.5, 2e-3)),
    ("wave-disk", lambda: flows.weingarten_wave(
        disk_body(m=64), _COS2(0.2), 0.02, 2e-4, snapshot_every=20)),
    ("wave-ellipse-breakdown", lambda: flows.weingarten_wave(
        ellipse_body(1.5, 1.0, m=128), _COS2(0.2), 0.1, 4e-3,
        snapshot_every=5)),
)


# name -> (sweep arguments, [sweep] lines of its config file)
SWEEP_RUNS = (
    ("sharpness-beta_frac", ["sharpness", "beta_frac", "0.9,0.99"], ""),
    ("sharpness-beta_frac-dirichlet", ["sharpness", "beta_frac", "0.9,0.99"],
     "case = dirichlet\n"),
    ("sharpness-beta_trunc", ["sharpness", "beta_trunc", "8,12"], "N = -2\n"),
    ("sharpness-n_pts", ["sharpness", "n_pts", "201,401"], ""),
    ("sharpness-n_pts-dirichlet", ["sharpness", "n_pts", "201,401"],
     "case = dirichlet\nN = 3\nrho = 2\n"),
    ("lichnerowicz-N", ["lichnerowicz", "N", "-2,20,inf"], "n_pts = 401\n"),
    ("lichnerowicz-N-dirichlet", ["lichnerowicz", "N", "inf,5,-2"],
     "n_pts = 401\ncase = dirichlet\n"),
    ("lichnerowicz-n_pts", ["lichnerowicz", "n_pts", "201,401"], ""),
    ("lichnerowicz-n_pts-dirichlet", ["lichnerowicz", "n_pts", "201,401"],
     "case = dirichlet\n"),
    ("lichnerowicz-n_pts-inf", ["lichnerowicz", "n_pts", "201,401"],
     "N = inf\nrho = 1\n"),
    ("flow-oracle-dt", ["flow-oracle", "dt", "4e-3,2e-3"], "t_end = 0.2\n"),
    ("error-m", ["lichnerowicz", "n_pts", "201"], "m = abc\n"),
    ("error-dirichlet-hyperbolic", ["sharpness", "n_pts", "201"],
     "N = -2\nbeta_trunc = 12\ncase = dirichlet\n"),
)

# name -> flow arguments; the trajectory goes to trajectory.csv
CLI_FLOW_RUNS = (
    ("pnf-ellipse", ["--kind", "parallel-normal", "--body", "ellipse:1.2,1",
                     "--phi-coeffs", "1,0,0.1", "--t-end", "0.1",
                     "--dt", "2e-3", "--m", "64"]),
    ("wave-disk", ["--kind", "weingarten", "--body", "disk",
                   "--phi-coeffs", "1,0,0.2", "--t-end", "0.02",
                   "--dt", "2e-4", "--m", "64"]),
    ("error-m-flag", ["--m", "2.5"]),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def checks_digest(suite: str, seed: int, workers: int = 1) -> str:
    """SHA-256 of the ``checks`` array of one ``verify`` report."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(["verify", "--suite", suite, "--seed", str(seed),
                      "--workers", str(workers), "--out", path])
        with open(path, "rb") as handle:
            document = handle.read()
    # the document ends with "checks":[...]}\n
    start = document.index(b'"checks":[') + len(b'"checks":')
    return _sha(document[start:-2])


def flow_digests(result):
    """(field, SHA-256) for every field of a FlowResult and its CSV."""
    states = b"".join(
        repr((s.t, s.alive)).encode() + s.points.tobytes() + s.phi.tobytes()
        + s.normals.tobytes() + s.kappa.tobytes() for s in result.states)
    series = (b"none" if result.series is None else
              result.series.times.tobytes() + result.series.masses.tobytes()
              + repr(result.series.theta).encode())
    yield "states", _sha(states)
    yield "series", _sha(series)
    for name in ("alive", "death_reason", "normal_drift", "diagnostics"):
        yield name, _sha(repr(getattr(result, name)).encode())
    yield "csv", _sha(flow_csv(result.states).encode())


def library_results():
    """(call, result) of library calls that no verify suite makes, with
    signatures that every version of the library since the flow digests
    accepts."""
    model = build_model_density(model_density_params(1.0, 5.0), 801)
    yield "gamma2-field-n5", gamma2_field(
        model, np.sin(0.5 * model.t), 1.0, InverseDimension.from_n(5.0))
    gauss = gaussian_model(801)
    yield "gamma2-field-n0", gamma2_field(
        gauss, gauss.t.copy(), 1.0, InverseDimension.from_n(0.0))
    flat = flat_ball(2, 1.0, 401)
    yield "reilly-residual-ball", reilly_residual(flat, flat.r**2)
    ball = gaussian_ball(2, 0.8, 401)
    theta = InverseDimension(0.0, 1)
    yield "bln-ball-dirichlet", check_bln(ball, ball.r**2 - 0.64,
                                          "dirichlet", theta)
    yield "bln-ball-meanconvex-auto", check_bln(ball, ball.r**2, "meanconvex",
                                                theta, C="auto")
    yield "cd-margin-ball", cd_margin(ball, 0.5,
                                      InverseDimension.from_n(20.0, 2))
    spheroid = build_spheroid_body(1.0, 1.2, 256)
    yield "gap-revolution-spheroid", boundary_gap_revolution(spheroid)
    yield "eigenvalues-spheroid", eigenvalues(
        assemble_laplacian(spheroid, "neumann"), 5)


def boundary_results():
    """(call, result) of the operators, boundary geometry and boundary
    checks of plane bodies and revolution surfaces, arrays included."""
    spheroid = build_spheroid_body(1.0, 1.2, 256)
    yield "laplacian-ellipse-m64", assemble_laplacian(
        ellipse_body(m=64), "periodic").dense
    _, vector = spectral_gap(assemble_laplacian(gaussian_half_model(401),
                                                "dirichlet"))
    yield "gap-vector-gauss-half-dirichlet", vector
    yield "eigenvalues-disk-m64", eigenvalues(
        assemble_laplacian(disk_body(m=64), "periodic"), 7)
    for name, body in (("disk-m64", disk_body(m=64)),
                       ("ellipse-m64", ellipse_body(m=64)),
                       ("spheroid", spheroid),
                       ("gauss-ball", gaussian_ball(2, 0.8, 401))):
        geom = boundary_geometry(body)
        for field in ("II", "H_g", "H_mu", "kappa1", "kappa2"):
            if getattr(geom, field) is not None:
                yield f"geometry-{name}-{field}", getattr(geom, field)
    yield "dual-colesanti-ellipse-auto", check_dual_colesanti(
        ellipse_body(m=128), TrigPolynomial((0.0, 1.0, 0.3)), rho=1.0,
        C="auto")
    for report in boundary_cd_report(spheroid):
        yield f"cd-report-spheroid-{report.name}", report


def library_bytes(result) -> bytes:
    """The bytes a ``lib`` line hashes."""
    if isinstance(result, CheckReport):
        return check_to_json(result).encode()
    if isinstance(result, np.ndarray):
        return result.tobytes()
    return repr(result).encode()


def library_digests(results):
    for name, result in results:
        yield f"lib {name} {_sha(library_bytes(result))}"


def _run_cli(argv):
    """(exit code, SHA-256 of stdout and stderr) of one in-process run.
    A parser that exits instead of returning is recorded by its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # a warning's text carries the source path of the tree under test
        warnings.simplefilter("ignore")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, _sha(f"{out.getvalue()}\0{err.getvalue()}".encode())


def cli_digests():
    """Lines for the sweep and flow runs of the command line.  They run in
    a scratch directory so that the relative paths echoed in the reports
    are the same on every tree."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, (check, param, values), text in SWEEP_RUNS:
            with open("sweep.cfg", "w", encoding="utf-8") as handle:
                handle.write("[sweep]\n" + text)
            code, digest = _run_cli(["sweep", "--check", check, "--param",
                                     param, f"--values={values}",
                                     "--config", "sweep.cfg"])
            yield f"sweep {name} exit={code} {digest}"
        for name, argv in CLI_FLOW_RUNS:
            code, digest = _run_cli(["flow", *argv, "--out", "trajectory.csv"])
            yield f"cli-flow {name} exit={code} {digest}"
            if os.path.exists("trajectory.csv"):
                with open("trajectory.csv", "rb") as handle:
                    yield f"cli-flow {name} csv {_sha(handle.read())}"
                os.remove("trajectory.csv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="all",
                        help="verify suite whose checks are digested; "
                             "all also digests sweep and flow commands")
    parser.add_argument("--seeds", default="1234,0",
                        help="comma-separated verify seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    for seed in seeds:
        print(f"verify {args.suite} seed={seed} checks "
              f"{checks_digest(args.suite, seed)}")
    for run_name, run in FLOW_RUNS:
        for field, digest in flow_digests(run()):
            print(f"flow {run_name} {field} {digest}")
    if args.suite == "all":
        for line in (*library_digests(library_results()), *cli_digests()):
            print(line)
        for seed in seeds:
            print(f"verify all seed={seed} workers=2 checks "
                  f"{checks_digest('all', seed, workers=2)}")
        for line in library_digests(boundary_results()):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
