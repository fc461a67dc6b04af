import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from functools import partial

import pytest

from reilly_lab import cli, suites
from reilly_lab.checks import from_identity
from reilly_lab.config import SWEEP_CHECKS, load_config, validate_sweep
from reilly_lab.dimension import InverseDimension
from reilly_lab.errors import ConvexityViolation, ReillyLabError
from reilly_lab.reporting import check_to_json, emit_report
from reilly_lab.suites import SUITE_NAMES, run_suite_checks, suite_thunks

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="worker processes need os.fork")

SUITES = [name for name in SUITE_NAMES if name != "all"]


@pytest.mark.parametrize("suite", SUITES)
def test_suite_rows_are_the_prefixed_rows_of_the_catalogue(suite):
    every = [name for name, _ in suite_thunks("all", 3)]
    rows = [name for name, _ in suite_thunks(suite, 3)]
    assert rows
    assert rows == [name for name in every if name.startswith(suite + "/")]


def test_catalogue_names_are_unique_and_cover_every_suite():
    names = [name for name, _ in suite_thunks("all", 3)]
    assert len(names) == len(set(names))
    assert {name.partition("/")[0] for name in names} == set(SUITES)


def test_checks_run_serially_at_any_worker_count(monkeypatch):
    serial = run_suite_checks("flows", seed=3, workers=1)

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    reports = run_suite_checks("flows", seed=3, workers=2)
    assert reports == serial
    assert all(r.name.startswith("flows/") for r in reports)


def test_wave_rows_share_one_batch_per_catalogue(monkeypatch):
    # the three wave rows read one batched integration, built when the
    # first of them runs; every catalogue builds its own, so a later
    # verify run in the same process repeats the work
    from reilly_lab import suites
    calls = []

    def short_batch(members, t_end, dt):
        calls.append([body.label for body, _ in members])
        return real(members, 10 * dt, dt)

    real = suites.weingarten_waves
    monkeypatch.setattr(suites, "weingarten_waves", short_batch)
    for expected in (1, 2):
        rows = [(name, call) for name, call in suite_thunks("flows", 3)
                if name.startswith("flows/wave-")]
        assert len(calls) == expected - 1
        assert [len(call()) for _, call in rows] == [2, 2, 2]
        assert len(calls) == expected and len(calls[-1]) == len(rows)


_REVOLUTION_ROWS = {
    "build_spheroid_body": ("colesanti/hr-spheroid", "boundary/gaps-spheroid",
                            "boundary/cd-spheroid"),
    "build_sphere_body": ("colesanti/hr-ball", "boundary/gaps-sphere",
                          "boundary/cd-sphere"),
}


def test_revolution_rows_share_one_body_per_catalogue(monkeypatch):
    # the rows on the default spheroid, and those on the unit sphere, read
    # one body that the first of them builds; they stay separate items
    built = []

    def counted(builder, real):
        def build(*args):
            built.append(builder)
            return real(*args)
        return build

    for builder in _REVOLUTION_ROWS:
        monkeypatch.setattr(suites, builder,
                            counted(builder, getattr(suites, builder)))
    rows = dict(suite_thunks("all", 3))
    for builder, names in _REVOLUTION_ROWS.items():
        for name in names:
            rows[name]()
        assert built.count(builder) == 1
        assert all(not hasattr(rows[name], "batch") for name in names)
    dict(suite_thunks("all", 3))["boundary/cd-spheroid"]()
    assert built.count("build_spheroid_body") == 2


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the caller after ``seconds`` (POSIX only)."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("suite", ["flows", "spectral"])
def test_reports_do_not_depend_on_the_worker_count(suite):
    with _deadline(120):
        reports = {w: run_suite_checks(suite, seed=3, workers=w)
                   for w in (1, 2, 4)}
    assert reports[1] == reports[2] == reports[4]
    assert len({emit_report(r, {}) for r in reports.values()}) == 1


@needs_fork
def test_wave_rows_are_one_item_integrated_once_per_run(monkeypatch, tmp_path):
    # the workers are forked, so each batch leaves its mark in a file
    rows = suite_thunks("flows", 3)
    waves = [i for i, (name, _) in enumerate(rows)
             if name.startswith("flows/wave-")]
    items = suites._items(rows)
    assert len(waves) == 3 and items[0] == waves
    assert sorted(i for item in items for i in item) == list(range(len(rows)))
    log = tmp_path / "batches"
    real = suites.weingarten_waves

    def short_batch(members, t_end, dt):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return real(members, 10 * dt, dt)

    monkeypatch.setattr(suites, "weingarten_waves", short_batch)
    for runs in (1, 2):
        with _deadline(120):
            reports = run_suite_checks("flows", seed=3, workers=2)
        assert len(log.read_text().splitlines()) == runs
        assert sum(r.name.startswith("flows/wave-") for r in reports) == 6


def test_fork_preload_covers_the_lazy_scipy_imports():
    # a scipy module first imported by a check would be imported again by
    # every forked worker on every run
    code = ("import importlib, sys\n"
            "from reilly_lab import suites\n"
            "for name in suites.FORK_PRELOAD:\n"
            "    importlib.import_module(name)\n"
            "before = set(sys.modules)\n"
            "suites.run_suite_checks('all', workers=1)\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.startswith('scipy')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(suites.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=300, check=True)
    assert proc.stdout.strip() == "[]"


@needs_fork
def test_workers_beyond_the_item_count_fork_one_child_per_other_item(
        monkeypatch):
    items = len(suites._items(suite_thunks("spectral", 3)))
    forked = []
    real_fork = os.fork

    def counting_fork():
        if len(forked) >= items - 1:
            raise AssertionError(f"fork {len(forked) + 1} of {items} items")
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    with _deadline(120):
        reports = run_suite_checks("spectral", seed=3, workers=64)
    assert len(forked) == items - 1
    assert reports == run_suite_checks("spectral", seed=3, workers=1)


def _two_rows(monkeypatch, tmp_path, second):
    """Replace the catalogue by two rows.  The caller takes the first,
    which waits until a worker has taken the second; ``second`` writes
    its pid to the returned path and then fails its own way."""
    taken = tmp_path / "taken"

    def first():
        deadline = time.monotonic() + 30
        while not taken.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return from_identity("", residual=0.0, tolerance=1.0, params={})

    def failing():
        taken.write_text(str(os.getpid()))
        second()

    monkeypatch.setattr(suites, "suite_thunks", lambda suite, seed: [
        ("spectral/first", first), ("spectral/second", failing)])
    return taken


@needs_fork
def test_a_worker_exception_surfaces_in_the_caller(monkeypatch, tmp_path,
                                                    capsys):
    def violate():
        raise ConvexityViolation("II <= 0 at marker 7", where=7, value=-1.5)

    taken = _two_rows(monkeypatch, tmp_path, violate)
    with _deadline(60), pytest.raises(ConvexityViolation,
                                      match=r"^II <= 0 at marker 7$") as info:
        run_suite_checks("spectral", workers=2)
    assert int(taken.read_text()) != os.getpid()
    assert (info.value.where, info.value.value) == (7, -1.5)
    taken.unlink()
    with _deadline(60):
        code = cli.main(["verify", "--suite", "spectral", "--workers", "2",
                         "--out", str(tmp_path / "report.json")])
    assert code == cli.EXIT_INTERNAL
    assert "II <= 0 at marker 7" in capsys.readouterr().err


@needs_fork
def test_a_worker_that_dies_is_reaped_and_named(monkeypatch, tmp_path):
    taken = _two_rows(monkeypatch, tmp_path, lambda: os._exit(7))
    with _deadline(60), pytest.raises(ReillyLabError) as info:
        run_suite_checks("spectral", workers=2)
    assert "spectral/second" in str(info.value)
    assert "spectral/first" not in str(info.value)
    pid = int(taken.read_text())
    assert pid != os.getpid()
    with pytest.raises(ChildProcessError):      # already reaped
        os.waitpid(pid, os.WNOHANG)


_PNF_ROWS = ("flows/pnf-disk", "flows/pnf-oracle", "flows/measure-monotone")


def _short_pnfs(real, log=None):
    """parallel_normal_flows cut to 10 steps per member, noting each batch
    in the list or file ``log``."""
    def short_batch(members, t_end, dt, **kwargs):
        if isinstance(log, list):
            log.append(len(members))
        else:
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
        return real(members, 10 * dt, dt, **kwargs)
    return short_batch


def test_pnf_rows_share_one_batch_per_catalogue(monkeypatch):
    # the three plane PNF rows read one batched integration, built when
    # the first of them runs; every catalogue builds its own
    calls = []
    monkeypatch.setattr(suites, "parallel_normal_flows",
                        _short_pnfs(suites.parallel_normal_flows, calls))
    for expected in (1, 2):
        rows = [(name, call) for name, call in suite_thunks("flows", 3)
                if name in _PNF_ROWS]
        assert [name for name, _ in rows] == list(_PNF_ROWS)
        assert len(calls) == expected - 1
        for _, call in rows:
            call()
        assert len(calls) == expected and calls[-1] == len(rows)
    run_suite_checks("flows", seed=3, workers=1)
    assert len(calls) == 3


@needs_fork
def test_pnf_rows_are_one_item_integrated_once_per_run(monkeypatch, tmp_path):
    # the workers are forked, so each batch leaves its mark in a file
    rows = suite_thunks("flows", 3)
    pnfs = [i for i, (name, _) in enumerate(rows) if name in _PNF_ROWS]
    items = suites._items(rows)
    assert len(pnfs) == 3 and pnfs in items and items[0] != pnfs
    log = tmp_path / "batches"
    monkeypatch.setattr(suites, "parallel_normal_flows",
                        _short_pnfs(suites.parallel_normal_flows, log))
    for runs in (1, 2):
        with _deadline(120):
            reports = run_suite_checks("flows", seed=3, workers=2)
        assert len(log.read_text().splitlines()) == runs
        assert sum(r.name.startswith(_PNF_ROWS + ("flows/pnf-vs-",))
                   for r in reports) == 7



# sweep rows at the catalogue's parameters, which config.validate_sweep
# builds from the same suites builder as the catalogue row they reproduce
_LICH = {"check": "lichnerowicz", "param": "N", "n_pts": "2001", "rho": "1"}
_SHARP = {"check": "sharpness", "param": "n_pts", "values": "8001",
          "rho": "1"}
_SWEEP_TWINS = {
    "spectral/lichnerowicz-model-n5": {**_LICH, "values": "5"},
    "spectral/lichnerowicz-model-n20": {**_LICH, "values": "20"},
    "spectral/lichnerowicz-gauss": {**_LICH, "values": "inf"},
    "spectral/lichnerowicz-gauss-half-dirichlet": {
        **_LICH, "values": "inf", "case": "dirichlet"},
    "bln/sharpness-n5": {**_SHARP, "N": "5"},
    "bln/sharpness-n1.5": {**_SHARP, "N": "1.5"},
    "bln/sharpness-n-2": {**_SHARP, "N": "-2", "beta_trunc": "8"},
}


def test_sweep_rows_equal_the_catalogue_rows_they_duplicate():
    catalogue = dict(suite_thunks("all", 3))
    for name, sweep in _SWEEP_TWINS.items():
        cfg = load_config(None, overrides={f"sweep.{key}": value
                                           for key, value in sweep.items()})
        [row] = validate_sweep(cfg)["rows"]
        want = catalogue[name]()
        assert check_to_json(replace(row(), name=want.name)) == \
            check_to_json(want), name


def test_swept_catalogue_rows_are_partials_of_the_sweep_builders():
    catalogue = dict(suite_thunks("all", 3))
    for name, sweep in _SWEEP_TWINS.items():
        cfg = load_config(None, overrides={f"sweep.{key}": value
                                           for key, value in sweep.items()})
        [row] = validate_sweep(cfg)["rows"]
        builder = SWEEP_CHECKS[sweep["check"]][0]
        call = catalogue[name]
        assert isinstance(call, partial) and call.func is builder, name
        assert builder in row.args, name
        # the grid is data: a refined copy runs and records its grid
        n = call.keywords["n_pts"]
        assert partial(call, n_pts=2 * n - 1)().params["n"] == 2 * n - 1


@pytest.mark.parametrize("n", ["inf", "5"])
def test_lichnerowicz_reads_its_case_in_any_spelling(n):
    # at N = inf the case picks the model (the half interval for Dirichlet)
    theta = InverseDimension.from_n(float(n))
    want = check_to_json(suites.lichnerowicz(1.0, theta, 401, "dirichlet"))
    got = check_to_json(suites.lichnerowicz(1.0, theta, 401, "Dirichlet"))
    assert got == want and '"pass":true' in want


def test_lichnerowicz_refuses_an_unknown_case_before_any_model(monkeypatch):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    for name in ("gaussian_model", "gaussian_half_model",
                 "build_model_density"):
        monkeypatch.setattr(suites, name, no_model)
    for n in (0.0, 0.25):
        with pytest.raises(ValueError, match="unknown case 'bogus'"):
            suites.lichnerowicz(1.0, InverseDimension(n), 401, "Bogus")
