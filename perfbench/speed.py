"""Machine-speed probe that runs inside the timed code.

The benchmark's host is a shared machine whose speed drifts by up to
about 1.5x within minutes, and differs between its processors, with no
steal time to show it: the same pass takes 5 s in one minute and 7.5 s
in the next.  To keep ``pass_s`` and ``setup_s`` about the program rather
than the host, a fixed probe runs at a fixed wall-time interval on the
timed thread itself, from a SIGALRM handler, so between the program's
bytecodes: interpreter work and small dense eigensolves in the passes,
and interpreter work alone while ``import reilly_lab.cli`` is timed, since
numpy is not imported yet.  The probe's thread CPU time says how fast
the machine ran at that moment; thread CPU time, not wall time, so that
waiting for the GIL or for a processor does not read as a slow machine.
(Passes on several threads use the per-processor probes of
``cpu_probe.py`` instead.)

The host's speed changes within a pass, so a pass is not scaled by one
figure: the timed interval is cut at the probes into stretches of wall
time, and each stretch is scaled by the probe's reference time times the
mean speed (1 / probe time) of the probes at its two ends.  The
normalised time is the sum: the seconds the interval would take on a
machine where the probe takes its reference time.  The probes' own wall
time is left out.  The probe uses no code of the program, runs with the
garbage collector off and is timed on a warm rerun, so a change to the
program moves the normalised time and leaves the probe alone.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter, thread_time

# Reference probe times: about what the probes read on a 2-vCPU Xeon
# host, so that normalised seconds read near wall seconds there.  They set
# only the scale of the normalised times.
PASS_INTERVAL_S = 0.05
PASS_REFERENCE_S = 0.4e-3
IMPORT_INTERVAL_S = 0.01
IMPORT_REFERENCE_S = 0.1e-3
MIN_SAMPLES = 3
SMOOTH = 5


def interpreter_work(n: int = 1500) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def pass_probe() -> "SpeedProbe":
    """Interpreter work and small dense eigensolves, about 0.25 ms.

    Of the probes tried (interpreter loops, small-array numpy calls, small
    and mid-sized LAPACK eigensolves, a BLAS product), this mix tracked
    the passes of all three single-thread workloads best; one of
    small-array calls tracked the catalogue as well but not spectra,
    whose time goes to dense eigensolves.
    """
    import numpy as np
    a = np.cos(np.outer(np.arange(32.0), np.arange(32.0)))
    matrix = a @ a.T + 32.0 * np.eye(32)

    def work():
        interpreter_work(1200)
        for _ in range(2):
            np.linalg.eigh(matrix)

    return SpeedProbe(work, PASS_REFERENCE_S, PASS_INTERVAL_S)


def import_probe() -> "SpeedProbe":
    """Interpreter work alone, about 0.1 ms."""
    return SpeedProbe(interpreter_work, IMPORT_REFERENCE_S, IMPORT_INTERVAL_S)


class SpeedProbe:
    """Samples ``(start, wall_s, cpu_s)`` of ``work`` while installed.

    Each sample runs ``work`` twice and takes the thread CPU time of the
    second run only, so that what the program left in the caches does not
    change the reading: a cold first run is about 13% slower.  ``wall_s``
    covers both runs, the time the sample took from the timed code.
    """

    def __init__(self, work, reference_s: float, interval_s: float):
        self.work = work
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.samples = []
        self._busy = False

    def sample(self, *signal_args):
        """Run the probe once and record it; also the SIGALRM handler."""
        if self._busy:                  # a signal during the probe itself
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        self.work()                     # warm the caches: time the rerun
        cpu = thread_time()
        self.work()
        self.samples.append((start, perf_counter() - start,
                             thread_time() - cpu))
        if collecting:
            gc.enable()
        self._busy = False

    def install(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self) -> "SpeedProbe":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        # also on an exception, else the timer kills the interpreter once
        # it has dropped the handler
        self.uninstall()

    def normalise(self, start: float, end: float) -> dict:
        """``normalise`` over the samples taken between ``start`` and ``end``."""
        return normalise(start, end, window(self.samples, start, end),
                         self.reference_s)


def window(samples, start: float, end: float) -> list:
    """The samples whose probe started between ``start`` and ``end``."""
    return [s for s in samples if start <= s[0] < end]


def normalise(start: float, end: float, samples, reference_s: float) -> dict:
    """Wall, net wall and normalised seconds of a timed interval.

    ``samples`` are the interval's ``(start, wall_s, cpu_s)`` probes in
    time order.  Stretch ``j`` runs from the end of probe ``j - 1`` (or
    the interval's start) to the start of probe ``j`` (or its end).  Each
    probe's time is the median of the ``SMOOTH`` probes centred on it, so
    that a single probe hit by an interrupt, or read as zero CPU time by
    the guest's clock, does not set the speed of two stretches.
    """
    if len(samples) < MIN_SAMPLES:
        raise RuntimeError(f"speed probe took {len(samples)} samples in "
                           f"{end - start:.3f} s; need {MIN_SAMPLES}")
    cpus = [cpu for _, _, cpu in samples]
    half = SMOOTH // 2
    smoothed = [sorted(cpus[max(i - half, 0):i + half + 1])
                for i in range(len(cpus))]
    speeds = [reference_s / window[len(window) // 2] for window in smoothed]
    stretch_ends = [start] + [at + wall for at, wall, _ in samples]
    stretch_starts = [at for at, _, _ in samples] + [end]
    normalised = net = 0.0
    for j, (a, b) in enumerate(zip(stretch_ends, stretch_starts)):
        ends = speeds[max(j - 1, 0):j + 1]
        net += b - a
        normalised += (b - a) * sum(ends) / len(ends)
    cpus.sort()
    return {"wall": end - start, "net": net, "samples": len(samples),
            "probe": cpus[len(cpus) // 2], "normalised": normalised}
