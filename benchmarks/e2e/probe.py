"""CPU speed probes: the host's speed while a workload runs.

On a shared host a CPU's speed drifts: on a 2-vCPU Intel Xeon KVM guest
each vCPU ran up to 2x slower for stretches of 2-20 s, the two
independently, and CPU time stretched with wall time.
One probe process per CPU, pinned to it, wakes every
:data:`PERIOD_S` and times a fixed spin loop in thread CPU time (about
1.5 % of the CPU).  :meth:`Probes.factor` turns the samples taken during
an interval into that interval's speed relative to :data:`REFERENCE_SPIN_S`,
so a duration times the factor is the duration at reference speed.

    python -m benchmarks.e2e.probe --cpu N --out FILE   # until SIGTERM
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Pause between spins.
PERIOD_S = 0.02
#: Iterations of the spin loop.
SPIN = 4000
#: CPU time of one spin at full speed on the reference host (a 2.1 GHz
#: Xeon vCPU); only ratios between runs on one host matter.
REFERENCE_SPIN_S = 2.8e-4


def spin() -> int:
    total = 0
    for i in range(SPIN):
        total += i * i % 7
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="speed probe for one CPU")
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    samples = []
    while not stopping:
        time.sleep(PERIOD_S)
        started = time.thread_time()
        spin()
        samples.append((time.perf_counter(), time.thread_time() - started))
    Path(args.out).write_text(json.dumps(samples))
    return 0


class Probes:
    """One running probe per CPU this process may use."""

    def __init__(self, work: Path, env: dict[str, str], root: Path) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: dict[int, list[tuple[float, float]]] = {}
        self._files = {cpu: work / f"probe-{cpu}.json" for cpu in self.cpus}
        self._procs = [
            subprocess.Popen(
                [sys.executable, "-m", "benchmarks.e2e.probe", "--cpu", str(cpu),
                 "--out", str(path)],
                cwd=root, env=env, stdin=subprocess.DEVNULL,
            )
            for cpu, path in self._files.items()
        ]

    def stop(self) -> None:
        """Stop every probe (once) and load its samples."""
        procs, self._procs = self._procs, []
        for proc in procs:
            proc.send_signal(signal.SIGTERM)
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for cpu, path in self._files.items():
            if path.exists():
                self.samples[cpu] = [tuple(s) for s in json.loads(path.read_text())]

    def factor(self, start: float, end: float, cpus: list[int] | None = None) -> float:
        """Mean speed over ``[start, end]`` on ``cpus`` (default: all),
        relative to the reference; 1.0 when no sample falls inside."""
        speeds = [
            REFERENCE_SPIN_S / cpu_s
            for cpu in (cpus or self.cpus)
            for t, cpu_s in self.samples.get(cpu, ())
            if start <= t <= end and cpu_s > 0
        ]
        return sum(speeds) / len(speeds) if speeds else 1.0


if __name__ == "__main__":
    raise SystemExit(main())
