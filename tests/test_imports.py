"""The package and the flows load numpy only; scipy's LAPACK extension
loads on first use, and no scipy subpackage ever does.

Each probe runs in a fresh interpreter, so modules imported by other tests
cannot mask a module-level scipy import.  No module of the package imports
a name it never reads (a stdlib ``ast`` check: no linter is required).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

_SCIPY_MODULES = ("print(sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy'))")


def _scipy_modules_after(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{_SCIPY_MODULES}"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_import_cli_loads_no_scipy():
    assert _scipy_modules_after("import reilly_lab.cli") == "[]"


def test_flows_through_the_cli_load_no_scipy():
    flows = [["--kind", "parallel-normal", "--body", "ellipse:1.3,1"],
             ["--kind", "parallel-normal", "--body", "cap:0.5"],
             ["--kind", "weingarten", "--body", "disk",
              "--phi-coeffs", "1,0,0.2"]]
    calls = "\n".join(
        f"assert cli.main(['flow', *{args!r}, '--m', '32', '--t-end', "
        f"'0.01', '--dt', '1e-3']) == 0" for args in flows)
    assert _scipy_modules_after(f"import reilly_lab.cli as cli\n{calls}") \
        == "[]"


def test_verify_all_loads_no_scipy_linalg(tmp_path):
    # the eigensolves and tridiagonal solves reach LAPACK through
    # reilly_lab._lapack, which loads scipy's extension without importing
    # scipy.linalg; none of the subpackages that scipy.integrate and
    # scipy.interpolate pull in may load either, at either worker count
    for workers in ("1", "2"):
        out = str(tmp_path / f"report-{workers}.json")
        call = (f"assert cli.main(['verify', '--suite', 'all', '--workers', "
                f"{workers!r}, '--out', {out!r}]) == 0")
        loaded = _scipy_modules_after(f"import reilly_lab.cli as cli\n{call}")
        for name in ("scipy.linalg", "scipy.integrate", "scipy.interpolate",
                     "scipy.sparse", "scipy.optimize", "scipy.spatial"):
            assert f"'{name}'" not in loaded


def test_spectra_ops_load_no_scipy_linalg(tmp_path):
    # one pass of the benchmark's seed-0 spectra operations, run as its
    # child interpreter runs them
    code = (f"sys.path.insert(0, {PERFBENCH!r})\n"
            "import child, workloads\n"
            "ops = workloads.generate('spectra', 0)\n"
            f"records = child.run_pass(ops, {str(tmp_path)!r})[2]\n"
            "assert [r['exit'] for r in records] == [0] * len(ops)")
    assert "'scipy.linalg'" not in _scipy_modules_after(code)


def _unused_imports(source: str):
    """Names the module imports and never reads: not as a bare name, not as
    the base of an attribute and not as an entry of ``__all__``."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.partition(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_unused_import_check_finds_what_it_should():
    source = ("from __future__ import annotations\nimport os\n"
              "import numpy.linalg\nfrom a import b, c as d, e\n"
              "__all__ = ['e']\nprint(b, numpy.linalg.norm)\n")
    assert _unused_imports(source) == ["d", "os"]


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(Path(SRC, "reilly_lab").glob("*.py"))
    unused = {path.name: names for path in paths
              if (names := _unused_imports(path.read_text("utf-8")))}
    assert len(paths) > 10 and unused == {}
