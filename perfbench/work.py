"""The work process of an in-process workload.

Started by ``run.py`` after it generated the inputs; this process did not
generate them, so its peak RSS (``VmHWM``) is the program's own.  It
loads the inputs, prints ``ready`` and waits for ``go`` on stdin
(anything else exits), then runs one untimed pass and the timed passes,
and writes a JSON tally to ``--result``.

Untraced, it runs passes until ``--seconds`` have elapsed (or exactly
``--passes``), and takes a host-speed reading after each timed op from
the helper ``run.py`` started (its pipe ends come in ``--host-fds``); the
readings go into the tally.  With ``--trace-dir`` it runs half the time untraced, then
installs the layer wrappers and repeats the same number of passes traced,
so the two walls give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import spans
import workloads
from hostspeed import HostSpeed, no_reading


def vmhwm_kib() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _timed_passes(workload, tally, read_host, op_scope, seconds: float, passes: int) -> tuple:
    """Run passes until ``passes`` are done or ``seconds`` have elapsed."""

    start = time.perf_counter()
    done = 0
    while True:
        workload.run_pass(tally, read_host, op_scope)
        done += 1
        elapsed = time.perf_counter() - start
        if (passes and done >= passes) or (not passes and elapsed >= seconds):
            return done, elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--host-fds", required=True,
                        help="ASK,ANSWER: pipe ends of the host-speed helper")
    args = parser.parse_args()

    workload = workloads.Workload(args.workload, args.inputs, args.scale)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    # One untimed pass first: lazy imports, shape-keyed set-up and the
    # allocator's first growth would otherwise land in the first timed pass.
    tally = workloads.Tally()
    warm = workloads.Tally()
    workload.run_pass(warm, no_reading, contextlib.nullcontext)
    tally.add_checks(warm)
    result = {}
    if args.trace_dir is None:
        host = HostSpeed(tuple(int(fd) for fd in args.host_fds.split(",")))
        passes, wall = _timed_passes(workload, tally, host.read, contextlib.nullcontext,
                                     args.seconds, args.passes)
        result["readings"] = host.readings
    else:
        # Traced times stay plain seconds: they split one run's wall.
        passes, result["untraced_wall_s"] = _timed_passes(
            workload, tally, no_reading, contextlib.nullcontext, args.seconds / 2, args.passes
        )
        recorder = spans.install(args.trace_dir)
        spans.wrap_module_function(recorder, workloads, "bound_ok", "bench.verify")
        lane_start = time.perf_counter()
        passes, wall = _timed_passes(workload, tally, no_reading, spans.op_scope, 0, passes)
        recorder.record("bench.lane", lane_start, lane_start + wall, "")
        recorder.flush()
    result.update(
        pass_count=passes,
        wall_s=wall,
        vmhwm_kib=vmhwm_kib(),
        **tally.as_dict(),
    )
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
