"""Seeded operation lists for the benchmark workloads.

Each workload is a closed loop with one client: the operations of a pass
run back to back in one process, each started when the previous one
returns.  An operation is plain JSON so that the inputs of any run can be
written into its result and replayed:

* ``{"id", "kind": "cli", "argv": [...]}`` calls ``reilly_lab.cli.main``;
  ``{out}`` in an argument is the run's output directory.
* ``{"id", "kind": "call", "fn": "module.function", "args", "kwargs"}``
  calls a library function.  ``{"ref": id}`` (optionally with ``"index"``)
  in an argument stands for the result of an earlier operation of the
  same pass, and ``"bind": true`` keeps the result for such references.

Only the seed chooses the inputs.  The generator ranges are fixed from
geometry so that every generated input is valid; no input is dropped or
changed because it fails.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("catalogue", "trajectory", "spectra", "catalogue-w2")

# catalogue-w2 must reproduce the catalogue's checks byte for byte, so the
# two share one golden.
GOLDEN_GROUP = {"catalogue": "catalogue", "catalogue-w2": "catalogue",
                "trajectory": "trajectory", "spectra": "spectra"}

# How a workload's passes are normalised for the machine's speed (see
# speed.py).  A pass on one thread carries the probe on that thread.  The
# passes of catalogue-w2 run on several threads and processors while the
# in-process probe would run on the main thread only, so they are scaled
# by probe processes on every processor instead.
PROBE = {"catalogue": "inline", "trajectory": "inline", "spectra": "inline",
         "catalogue-w2": "cpus"}

# Cosine speed phi = 1 + c2 cos 2t + c3 cos 3t.  Its speed body is strictly
# convex when phi + phi'' = 1 - 3 c2 cos 2t - 8 c3 cos 3t > 0, which
# |c2| <= 0.15 and |c3| <= 0.05 keep at 1 - 0.45 - 0.40 = 0.15 or more.
C2_MAX = 0.15
C3_MAX = 0.05
PHI_MAX = 1.0 + C2_MAX + C3_MAX

# The cap flow moves the cap boundary by at most PHI_MAX * CAP_T_END in
# geodesic distance and dies at the equator (pi / 2).  Caps up to 0.8 keep
# 0.8 + 1.2 * 0.4 = 1.28, about 0.29 below the equator.
CAP_R_RANGE = (0.4, 0.8)
CAP_T_END = 0.4
assert CAP_R_RANGE[1] + PHI_MAX * CAP_T_END < math.pi / 2 - 0.25

LICHNEROWICZ_N_PTS = "2001,4001,8001,16001,32001"


def _coeff(rng: random.Random, bound: float) -> float:
    return round(rng.uniform(-bound, bound), 4)


def _phi_coeffs(rng: random.Random) -> str:
    return f"1,0,{_coeff(rng, C2_MAX)},{_coeff(rng, C3_MAX)}"


def _catalogue(seed: int, workers: int):
    return [{"id": "verify-all", "kind": "cli",
             "argv": ["verify", "--suite", "all", "--seed", str(seed),
                      "--workers", str(workers),
                      "--out", "{out}/verify-all.json"]}]


def _trajectory(rng: random.Random):
    plane_a = round(rng.uniform(1.0, 1.5), 4)
    plane_phi = _phi_coeffs(rng)
    cap_r = round(rng.uniform(*CAP_R_RANGE), 4)
    cap_phi = _phi_coeffs(rng)
    wave_a = round(rng.uniform(1.0, 1.3), 4)
    wave_phi = _phi_coeffs(rng)
    return [
        {"id": "flow-plane", "kind": "cli",
         "argv": ["flow", "--kind", "parallel-normal",
                  "--body", f"ellipse:{plane_a},1", "--phi-coeffs", plane_phi,
                  "--m", "1024", "--t-end", "0.5", "--dt", "1e-3",
                  "--out", "{out}/flow-plane.csv"]},
        {"id": "flow-cap", "kind": "cli",
         "argv": ["flow", "--kind", "parallel-normal",
                  "--body", f"cap:{cap_r}", "--phi-coeffs", cap_phi,
                  "--m", "512", "--t-end", str(CAP_T_END), "--dt", "1e-3",
                  "--out", "{out}/flow-cap.csv"]},
        {"id": "flow-wave", "kind": "cli",
         "argv": ["flow", "--kind", "weingarten",
                  "--body", f"ellipse:{wave_a},1", "--phi-coeffs", wave_phi,
                  "--m", "128", "--t-end", "0.1", "--dt", "2e-4",
                  "--out", "{out}/flow-wave.csv"]},
    ]


def _spectra(seed: int, rng: random.Random):
    corpus_size = 6
    ops = [{"id": "corpus", "kind": "call",
            "fn": "presets.random_convex_bodies",
            "args": [corpus_size, seed], "kwargs": {"m": 512}, "bind": True}]
    for i in range(corpus_size):
        ops.append({"id": f"gaps-corpus-{i}", "kind": "call",
                    "fn": "inequalities.check_boundary_gaps",
                    "args": [{"ref": "corpus", "index": i}], "kwargs": {}})
    for j in range(4):
        a = round(rng.uniform(0.8, 1.2), 4)
        c = round(rng.uniform(0.8, 1.5), 4)
        body = f"spheroid-{j}"
        ops.append({"id": body, "kind": "call",
                    "fn": "bodies.build_spheroid_body",
                    "args": [a, c], "kwargs": {"n_cells": 1024}, "bind": True})
        ops.append({"id": f"gaps-{body}", "kind": "call",
                    "fn": "inequalities.check_boundary_gaps",
                    "args": [{"ref": body}], "kwargs": {}})
        ops.append({"id": f"cd-{body}", "kind": "call",
                    "fn": "inequalities.boundary_cd_report",
                    "args": [{"ref": body}], "kwargs": {}})
    ops.append({"id": "sweep-lichnerowicz", "kind": "cli",
                "argv": ["sweep", "--check", "lichnerowicz",
                         "--param", "n_pts", "--values", LICHNEROWICZ_N_PTS,
                         "--out", "{out}/sweep-lichnerowicz.csv"]})
    return ops


def out_path(op: dict, out_dir: str):
    """The file a CLI operation writes with ``--out``, or None."""
    argv = op.get("argv", [])
    if "--out" not in argv:
        return None
    return Path(argv[argv.index("--out") + 1].replace("{out}", str(out_dir)))


def generate(workload: str, seed: int):
    """The operation list of one pass of ``workload`` at ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalogue":
        return _catalogue(seed, workers=1)
    if workload == "catalogue-w2":
        return _catalogue(seed, workers=2)
    if workload == "trajectory":
        return _trajectory(rng)
    if workload == "spectra":
        return _spectra(seed, rng)
    raise ValueError(f"unknown workload {workload!r}")
