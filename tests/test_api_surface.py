"""Smoke test of tools/api_surface.py, the public-surface counter."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "api_surface.py"


def test_api_surface_prints_one_line_of_four_counts():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    fields = dict(item.split("=") for item in out.split())
    assert out.count("\n") == 1
    assert list(fields) == ["src_lines", "public_functions", "public_params",
                            "with_defaults"]
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (ROOT / "src").rglob("*.py"))
    assert int(fields["src_lines"]) == lines
    assert 0 < int(fields["with_defaults"]) <= int(fields["public_params"])


def test_api_surface_counts_a_known_tree(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "def f(a, b=1, *args, c, d=2, **kw):\n    pass\n\n"
        "def _hidden(x):\n    pass\n\n"
        "class C:\n"
        "    def m(self, y=0):\n        pass\n"
        "    @classmethod\n    def k(cls):\n        pass\n"
        "    def _p(self, z):\n        pass\n", encoding="utf-8")
    spec = importlib.util.spec_from_file_location("api_surface", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.surface(tmp_path / "src") == {
        "src_lines": 14, "public_functions": 3, "public_params": 5,
        "with_defaults": 3}
