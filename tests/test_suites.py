import contextlib
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from reilly_lab import cli, suites
from reilly_lab.checks import from_identity
from reilly_lab.errors import ConvexityViolation, ReillyLabError
from reilly_lab.reporting import emit_report
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
