"""Time ``import reilly_lab.cli`` in this fresh interpreter.

Usage: ``python3 perfbench/timed_import.py`` with ``src`` on PYTHONPATH.
The import runs under the interpreter-only speed probe of ``speed.py``;
the last line of standard output is the JSON of ``speed.normalise``.
"""

import json
from time import perf_counter

import speed


def main() -> None:
    with speed.import_probe() as probe:
        start = perf_counter()
        import reilly_lab.cli  # noqa: F401
        end = perf_counter()
    print(json.dumps(probe.normalise(start, end)))


if __name__ == "__main__":
    main()
