"""Host speed: stolen CPU time, and a reference kernel in a helper process.

The benchmark runs on shared virtual machines, and their speed moves by
tens of percent within a minute, for two reasons that are measured
apart:

* **Stolen time.**  The hypervisor runs other guests on this machine's
  CPUs; ``/proc/stat`` counts the ticks it took (``steal``).  An interval
  in which a share ``s`` of the CPU time the machine wanted was stolen is
  restated as ``t × (1 − s)``.
* **CPU speed.**  Caches and cores shared with other guests make the same
  work take more CPU time.  :class:`ReferenceKernel`, a fixed mix of NumPy
  and interpreter work, gives the CPU seconds it takes.  It runs in a
  helper process that imports NumPy and nothing of the program, so
  nothing the program does inside its own processes (a profiling hook, a
  background thread, allocator or BLAS settings) can move it.  Readings
  are taken while the program is idle: after each set-up, after each
  timed op and after each read window.  A run uses the median ``r`` of
  all its readings.

So a duration ``t`` is reported as ``t × (1 − s) × REFERENCE_SECONDS / r``.

Run as a script, the helper answers each line on stdin with one reading
(CPU seconds) on stdout, until stdin closes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: The CPU seconds :class:`ReferenceKernel` takes on a host of the kind
#: the benchmark was tuned on.  Durations are reported at this CPU speed.
REFERENCE_SECONDS = 0.02


class ReferenceKernel:
    """A fixed mix of NumPy and interpreter work.  Its buffers are
    allocated once, so every reading does the same work."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._matrix = rng.normal(size=(160, 160))
        self._product = np.empty_like(self._matrix)
        self._vector = rng.normal(size=100_000)
        self._scratch = np.empty_like(self._vector)
        self.seconds()  # the first call pays one-off costs

    def seconds(self) -> float:
        """CPU time of six rounds, as three times the median of three
        timed pairs of rounds, so one short disturbance does not count."""

        np = self._np
        pairs = []
        for _ in range(3):
            start = time.process_time()
            for _ in range(2):
                np.matmul(self._matrix, self._matrix, out=self._product)
                self._scratch[:] = self._vector
                self._scratch.sort()
                np.cumsum(self._vector, out=self._scratch)
                sum(i * i for i in range(20_000))
            pairs.append(time.process_time() - start)
        return 3 * statistics.median(pairs)


def cpu_ticks() -> tuple:
    """``(busy, stolen)`` clock ticks of all CPUs since boot; zeros where
    ``/proc/stat`` is missing, so nothing is counted as stolen."""

    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def stolen_share(before: tuple, after: tuple) -> float:
    """Share of the CPU time wanted between two :func:`cpu_ticks` that
    the hypervisor gave to other guests."""

    busy, stolen = after[0] - before[0], after[1] - before[1]
    return stolen / (busy + stolen) if busy + stolen > 0 else 0.0


def restate(seconds: float, stolen: float, reference_s: float) -> float:
    """``seconds`` of which a share ``stolen`` was stolen, in a run whose
    kernel readings had the median ``reference_s``, restated at
    :data:`REFERENCE_SECONDS` and with nothing stolen."""

    return seconds * (1.0 - stolen) * REFERENCE_SECONDS / reference_s


class HostSpeed:
    """A connection to the helper: started here, or attached to the pipe
    ends a parent passed down (``fds``, as :meth:`fds` gave them)."""

    def __init__(self, fds=None) -> None:
        self.proc = None
        if fds is None:
            # One BLAS thread: a matmul handed to a second thread waits
            # (and spins) whenever the other CPU is busy.
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       MKL_NUM_THREADS="1")
            self.proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            )
            self._ask, self._answer = self.proc.stdin, self.proc.stdout
        else:
            ask, answer = fds
            self._ask = os.fdopen(ask, "w", closefd=False)
            self._answer = os.fdopen(answer, "r", closefd=False)

        self.readings: list = []

    def fds(self) -> tuple:
        return self._ask.fileno(), self._answer.fileno()

    def read(self) -> None:
        """Add one reading of the kernel to :attr:`readings`; this process
        waits while it runs."""

        self._ask.write("\n")
        self._ask.flush()
        line = self._answer.readline()
        if not line:
            raise RuntimeError("the host-speed helper has exited")
        self.readings.append(float(line))

    def close(self) -> None:
        if self.proc is not None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def no_reading() -> None:
    """Stands in for :meth:`HostSpeed.read` where no reading is wanted."""


def main() -> int:
    kernel = ReferenceKernel()
    for _ in sys.stdin:
        print(repr(kernel.seconds()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
