"""Report bytes do not depend on the host's BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


def _spectral_checks(tmp_path: Path, pin) -> bytes:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    if pin is not None:
        env["OPENBLAS_NUM_THREADS"] = pin
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = tmp_path / f"report-{pin}.json"
    subprocess.run(
        [sys.executable, "-c", "import sys\nfrom reilly_lab.cli import main\n"
         "sys.exit(main(['verify', '--suite', 'spectral', '--out', "
         f"{str(out)!r}]))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    document = out.read_bytes()
    return document[document.index(b'"checks":['):]


def test_verify_checks_match_with_blas_threads_unset_and_pinned(tmp_path):
    """The package sets a one-thread BLAS default before numpy loads, so a
    fresh interpreter gives the pinned bytes with the variable unset.

    Tests that run in this interpreter import numpy first and so keep the
    host's default thread count; only a fresh interpreter shows the rule.
    """
    unset = _spectral_checks(tmp_path, None)
    assert unset == _spectral_checks(tmp_path, "1")
    assert b'"spectral/circle-gap"' in unset
