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
  Arrays are digested through their raw bytes, scalars through ``repr``.

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

from reilly_lab import cli, flows
from reilly_lab.presets import disk_body, ellipse_body
from reilly_lab.reporting import flow_csv
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def checks_digest(suite: str, seed: int) -> str:
    """SHA-256 of the ``checks`` array of one ``verify`` report."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(["verify", "--suite", suite, "--seed", str(seed),
                      "--out", path])
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="all",
                        help="verify suite whose checks are digested")
    parser.add_argument("--seeds", default="1234,0",
                        help="comma-separated verify seeds")
    args = parser.parse_args(argv)
    for seed in (int(s) for s in args.seeds.split(",")):
        print(f"verify {args.suite} seed={seed} checks "
              f"{checks_digest(args.suite, seed)}")
    for run_name, run in FLOW_RUNS:
        for field, digest in flow_digests(run()):
            print(f"flow {run_name} {field} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
