import threading

import pytest

from reilly_lab.suites import SUITE_NAMES, run_suite_checks, suite_thunks

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
