"""A fixed CPU kernel, timed in a helper process, that tracks the host's speed.

On a shared virtual machine the CPU time of the same work drifts with the
other guests' load, by up to a quarter over minutes. The workloads time the
kernel just before and just after each step and scale the step by it (see
``workloads.Unit.pipeline_s``). The kernel mixes interpreter work, small
matrix products and passes over arrays too large for the core's own caches,
since the host's memory traffic is what slows the workloads most.

The kernel runs in a helper process pinned to the measured process's CPU,
so that its 64 MB of arrays stay out of the measured process's peak RSS.

    python3 perfbench/calibration.py CPU   # helper: one kernel time per input line
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

# Median CPU seconds of kernel_s() on a 2-vCPU KVM guest (Xeon, numpy 2.4,
# OpenBLAS 0.3.31 on one thread); scaled times are in seconds at that speed.
NOMINAL_S = 0.1


def kernel_s() -> float:
    """CPU seconds of one run of the fixed kernel."""
    start = time.process_time()
    counts: dict[int, int] = {}
    for i in range(60_000):
        key = (i * 7919) % 1000
        counts[key] = counts.get(key, 0) + i
    a = np.linspace(0.0, 1.0, 64 * 500).reshape(64, 500)
    w = np.linspace(0.0, 1.0, 500 * 20).reshape(500, 20)
    for _ in range(200):
        np.maximum(a @ w, 0.1)
    big = np.linspace(0.0, 1.0, 4_000_000)
    for _ in range(3):
        (big * 1.0001).sum()
    return time.process_time() - start


class Calibrator:
    """Calling it runs the kernel in the helper and returns its mean CPU seconds.

    Pins this process to one CPU and the helper to the same one; the two
    never run at once, because this process waits for each answer.
    """

    def __init__(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self._helper = subprocess.Popen(
            [sys.executable, __file__, str(cpu)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __call__(self) -> float:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        finally:
            if self._helper.poll() is None:
                self._helper.kill()
                self._helper.wait()


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    kernel_s()  # first run pays for page faults and lazy initialisation
    for _ in sys.stdin:
        print((kernel_s() + kernel_s()) / 2, flush=True)  # the mean of two damps its own noise


if __name__ == "__main__":
    main()
