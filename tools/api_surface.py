"""Print the size of the package's public surface in one line.

    python tools/api_surface.py [--tree .]

prints ``src_lines=… public_functions=… public_params=… with_defaults=…``
for ``<tree>/src``: the lines of every ``.py`` file under it; the
module-level functions and class methods whose names do not start with
``_``; their parameters other than ``self`` and ``cls``; and how many of
those have a default.
"""

import argparse
import ast
from pathlib import Path


def surface(src: Path) -> dict:
    counts = dict.fromkeys(("src_lines", "public_functions", "public_params",
                            "with_defaults"), 0)
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts["src_lines"] += len(text.splitlines())
        tree = ast.parse(text)
        methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body]
        for fn in tree.body + methods:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            a = fn.args
            counts["public_functions"] += 1
            counts["public_params"] += sum(
                p.arg not in ("self", "cls")
                for p in a.posonlyargs + a.args + a.kwonlyargs)
            counts["with_defaults"] += len(a.defaults) + sum(
                d is not None for d in a.kw_defaults)
    return counts


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=Path,
                        default=Path(__file__).resolve().parents[1])
    tree = parser.parse_args().tree
    print(" ".join(f"{k}={v}" for k, v in surface(tree / "src").items()))
