"""Probes of each processor's speed, in processes of their own.

For passes that run on several threads: the in-process probe of
``speed.py`` runs on the main thread only, and the host's speed differs
between processors, so ``CpuProbes`` starts one probe process pinned to
each processor this process may use.  Each samples its processor every
``speed.PASS_INTERVAL_S``, about 1% of it, from outside the program.

Usage of one probe: ``python3 perfbench/cpu_probe.py CPU OUT.json``.  It
pins itself to processor CPU, prints one line once it samples, and on
SIGTERM or once its parent process is gone writes its
``(start, wall_s, cpu_s)`` samples to OUT.json and exits.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import speed


class CpuProbes:
    """One probe process pinned to each processor this process may use."""

    def __init__(self, out_dir: Path):
        script = Path(__file__).resolve()
        cpus = sorted(os.sched_getaffinity(0))
        self.paths = [Path(out_dir) / f"cpu-probe-{cpu}.json" for cpu in cpus]
        self.procs = []
        try:
            for cpu, path in zip(cpus, self.paths):
                self.procs.append(subprocess.Popen(
                    [sys.executable, str(script), str(cpu), str(path)],
                    stdout=subprocess.PIPE, text=True))
            for proc in self.procs:     # each prints a line once sampling
                if not proc.stdout.readline():
                    raise RuntimeError("a processor probe failed to start")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> list:
        """Stop every probe, wait for it, and return the merged samples.

        External probes take no time from the pass, so their wall time is
        read as zero: the stretches run from one probe start to the next.
        """
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        samples = []
        for path in self.paths:
            if path.is_file():
                samples += [(at, 0.0, cpu) for at, _, cpu in
                            json.loads(path.read_text(encoding="utf-8"))]
        return sorted(samples)


def main(cpu: int, out: Path) -> int:
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    probe = speed.pass_probe()
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    probe.sample()
    print("sampling", flush=True)
    due = time.perf_counter()
    while not stopped and os.getppid() == parent:
        probe.sample()
        due += speed.PASS_INTERVAL_S
        time.sleep(max(due - time.perf_counter(), 0.0))
    out.write_text(json.dumps(probe.samples), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), Path(sys.argv[2])))
