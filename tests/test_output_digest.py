"""Smoke test of tools/output_digest.py, the byte-identity digest."""

import importlib.util
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


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_lines_cover_every_sweep_check_and_flow_kind():
    from reilly_lab.config import SWEEP_CHECKS
    tool = _load_tool()
    lines = list(tool.cli_digests())
    assert list(tool.cli_digests()) == lines
    swept = {tuple(args[:2]) for _, args, _ in tool.SWEEP_RUNS}
    assert swept == {(check, param)
                     for check, (_, params) in SWEEP_CHECKS.items()
                     for param in params}
    exits = {name: field for kind, name, field, _ in map(str.split, lines)
             if field.startswith("exit=")}
    assert exits == {name: "exit=2" if name.startswith("error-") else "exit=0"
                     for name, *_ in tool.SWEEP_RUNS + tool.CLI_FLOW_RUNS}
    # a run refused as a configuration error writes no trajectory
    assert sum(line.startswith("cli-flow ") and " csv " in line
               for line in lines) == sum(
        not name.startswith("error-") for name, _ in tool.CLI_FLOW_RUNS)


def test_lib_lines_never_hash_a_summarized_array_repr():
    # repr of a long array elides its middle as "...", so a digest of it
    # would miss changes there; arrays must be hashed through their bytes
    tool = _load_tool()
    for name, result in (*tool.library_results(), *tool.boundary_results()):
        assert b"..." not in tool.library_bytes(result), name
