"""Golden outputs: normalising a pass's outputs and diffing them.

Every operation's output is reduced to the same two shapes:

* ``checks``: check records as ``emit_report`` writes them (name, params,
  lhs, rhs, slack, tolerance, pass, grids, order_estimate).  Verify and
  flow reports are parsed as they are; each library ``CheckReport`` goes
  through ``check_to_json``; each sweep CSV row becomes one record per
  check with its lhs, rhs, slack and pass.
* ``csv``: a trajectory CSV, kept as its SHA-256, header, row count and a
  fixed sample of about ``CSV_SAMPLE_ROWS`` rows plus the last row.

A deviation is scaled by max(|lhs|, |rhs|, 1) of the golden check it
belongs to, and by 1 for CSV cells.  Any mismatch that is not numeric (a
pass flag, a string, a missing check, an exit code) counts as infinite.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

from workloads import out_path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CSV_SAMPLE_ROWS = 48
# Deviations up to this scaled size are roundoff, not a change of result.
DEV_TOLERANCE = 1e-9

_SPECIAL = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def golden_path(group: str, seed: int) -> Path:
    return GOLDEN_DIR / group / f"seed-{seed}.json.gz"


def load(group: str, seed: int):
    path = golden_path(group, seed)
    if not path.is_file():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def save(group: str, seed: int, ops: dict) -> Path:
    path = golden_path(group, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps({"group": group, "seed": seed, "ops": ops},
                      sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file bytes a function of its content.
    with open(path, "wb") as raw, gzip.GzipFile(
            fileobj=raw, mode="wb", compresslevel=9, mtime=0) as handle:
        handle.write(text.encode("utf-8"))
    return path


# -- normalising -------------------------------------------------------------


def report_checks(text: str):
    return json.loads(text)["checks"]


def sweep_checks(text: str):
    lines = text.splitlines()
    header = lines[0].split(",")
    param = header[0]
    names = [h[: -len(":lhs")] for h in header if h.endswith(":lhs")]
    checks = []
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        for name in names:
            if cells[f"{name}:lhs"] == "":
                continue
            flag = cells[f"{name}:pass"]
            checks.append({
                "name": f"{param}={cells[param]}/{name}",
                "lhs": float(cells[f"{name}:lhs"]),
                "rhs": float(cells[f"{name}:rhs"]),
                "slack": float(cells[f"{name}:slack"]),
                "pass": None if flag == "" else flag == "true",
            })
    return checks


def csv_summary(data: bytes):
    lines = data.decode("utf-8").splitlines()
    body = lines[1:]
    stride = max(1, len(body) // CSV_SAMPLE_ROWS)
    keep = set(range(0, len(body), stride))
    if body:
        keep.add(len(body) - 1)
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "header": lines[0].split(",") if lines else [],
            "rows": len(body),
            "sample": {str(i): [float(c) for c in body[i].split(",")]
                       for i in sorted(keep)}}


def normalise(op: dict, record: dict, out_dir: Path) -> dict:
    """The golden form of one operation's first-pass output."""
    entry = {"exit": record["exit"], "checks": [], "csv": None}
    if op["kind"] == "call":
        entry["checks"] = [json.loads(t) for t in record.get("checks", [])]
        return entry
    out = out_path(op, out_dir)
    if record["exit"] != 0 or out is None or not out.is_file():
        return entry
    command = op["argv"][0]
    if command == "verify":
        entry["checks"] = report_checks(out.read_text(encoding="utf-8"))
    elif command == "sweep":
        entry["checks"] = sweep_checks(out.read_text(encoding="utf-8"))
    elif command == "flow":
        entry["checks"] = report_checks(record["stdout"])
        entry["csv"] = csv_summary(out.read_bytes())
    return entry


# -- diffing -----------------------------------------------------------------


def _number(value):
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return _SPECIAL.get(value)
    return None


def _deviation(a, b, scale: float) -> float:
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return 0.0 if a == b else math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / scale


def _fields(check: dict) -> dict:
    """Field name -> list of values; grids are flattened in order."""
    out = {}
    for key, value in check.items():
        if key == "name":
            continue
        if key == "params":
            for pkey, pvalue in value.items():
                out[f"params.{pkey}"] = [pvalue]
        elif key == "grids":
            out["grids"] = [x for pair in value for x in pair]
        else:
            out[key] = [value]
    return out


def _scale(check: dict) -> float:
    size = 1.0
    for key in ("lhs", "rhs"):
        x = _number(check.get(key))
        if x is not None and math.isfinite(x):
            size = max(size, abs(x))
    return size


class Diff:
    """Largest scaled deviation overall and per field."""

    def __init__(self):
        self.max = 0.0
        self.fields = {}
        self.problems = []
        self.notes = []

    def add(self, field: str, dev: float, where: str) -> None:
        if dev > self.fields.get(field, {"dev": -1.0})["dev"]:
            self.fields[field] = {"dev": dev, "where": where}
        self.max = max(self.max, dev)

    def problem(self, field: str, where: str, what: str) -> None:
        self.problems.append(f"{where}: {what}")
        self.add(field, math.inf, where)

    def as_dict(self) -> dict:
        return {"max": self.max, "fields": dict(sorted(self.fields.items())),
                "problems": self.problems, "notes": self.notes}


def _diff_checks(diff: Diff, op_id: str, golden, current) -> None:
    current_by_name = {}
    for check in current:
        current_by_name.setdefault(check["name"], []).append(check)
    seen = {}
    for check in golden:
        name = check["name"]
        index = seen.get(name, 0)
        seen[name] = index + 1
        where = f"{op_id}/{name}"
        candidates = current_by_name.get(name, [])
        if index >= len(candidates):
            diff.problem("checks", where, "check missing")
            continue
        mine = _fields(candidates[index])
        scale = _scale(check)
        for field, values in _fields(check).items():
            other = mine.get(field)
            if other is None or len(other) != len(values):
                diff.problem(field, where, f"field {field} differs in shape")
                continue
            for a, b in zip(values, other):
                diff.add(field, _deviation(a, b, scale), where)
    extra = sum(len(v) for v in current_by_name.values()) - len(golden)
    if extra > 0:
        diff.problem("checks", op_id, f"{extra} checks not in the golden")


def _diff_csv(diff: Diff, op_id: str, golden, current) -> None:
    if golden is None or current is None:
        if golden is not current:
            diff.problem("csv", op_id, "trajectory CSV missing")
        return
    if golden["header"] != current["header"] or golden["rows"] != current["rows"]:
        diff.problem("csv", op_id, "CSV header or row count differs")
        return
    for field in golden["header"]:
        diff.add(f"csv.{field}", 0.0, op_id)
    if golden["sha256"] == current["sha256"]:
        return
    worst = 0.0
    for row, cells in golden["sample"].items():
        for field, a, b in zip(golden["header"], cells, current["sample"][row]):
            dev = _deviation(a, b, 1.0)
            diff.add(f"csv.{field}", dev, f"{op_id}#{row}")
            worst = max(worst, dev)
    if worst == 0.0:
        diff.notes.append(f"{op_id}: CSV bytes differ outside the sampled rows")


def compare(golden_ops: dict, current_ops: dict) -> Diff:
    """Diff each operation's normalised output against its golden."""
    diff = Diff()
    for op_id, golden in golden_ops.items():
        current = current_ops.get(op_id)
        if current is None:
            diff.problem("ops", op_id, "operation missing")
            continue
        if current["exit"] != golden["exit"]:
            diff.problem("exit", op_id,
                         f"exit {current['exit']} != golden {golden['exit']}")
        _diff_checks(diff, op_id, golden["checks"], current["checks"])
        _diff_csv(diff, op_id, golden["csv"], current["csv"])
    return diff
