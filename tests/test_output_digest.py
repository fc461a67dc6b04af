"""Smoke test of tools/output_digest.py, the byte-identity digest."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"


def test_output_digest_is_repeatable_on_the_flows_suite():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(TOOL), "--suite", "flows", "--seeds", "1234"]
    # two fresh interpreters side by side: the digests may depend on
    # nothing but the code and the inputs
    procs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    (first, _), (second, _) = outs
    assert first == second
    lines = first.splitlines()
    assert lines[0].startswith("verify flows seed=1234 checks ")
    flow_lines = [line.split() for line in lines[1:]]
    assert len(flow_lines) == 8 * 7           # 8 runs, 7 fields each
    assert all(kind == "flow" and len(sha) == 64
               for kind, _, _, sha in flow_lines)
