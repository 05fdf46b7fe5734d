"""The repo benchmark: one command, four seeded workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload with the layer wrappers of
``perfbench/spans.py`` installed and reports the per-layer metrics.  The
metric names, units and bounds are those of ``BENCHMARK.json``; see
``perfbench/README.md`` for what each means on each workload.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it print every
metric by name and unit, the error rate and the environment record.
The exit code is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import serve_load
import spans
import workloads
from hostspeed import REFERENCE_SECONDS, HostSpeed, cpu_ticks, restate, stolen_share

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("paper-sweep", "volume-halo", "volume-stream", "serve-mixed")
#: The seed used when none is given, and one kept back for validating a
#: claim on inputs no one tuned against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
#: Untraced set-ups per run; ``setup_s`` (and serve-mixed's ingest rate)
#: is their median.  A serve-mixed set-up includes the ingest, so it
#: makes fewer.
SETUPS = 5
SERVE_SETUPS = 3
#: Reads per client against each server of a traced serve-mixed run.
TRACE_READS_PER_CLIENT = 500
#: Untimed reads per client before the reads that count.
WARM_READS_PER_CLIENT = 200
MB = 1e6


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""

    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        revision = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip() or revision
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": "fork",
        "git_revision": revision,
    }


# ---------------------------------------------------------------------------
# in-process workloads: set-up here, timed work in a fresh work process
# ---------------------------------------------------------------------------
class WorkProcess:
    """``work.py`` for one workload, started and waited on until ``ready``."""

    def __init__(self, args, inputs_dir: str, result_path: str, host: HostSpeed,
                 trace_dir=None) -> None:
        fds = host.fds()
        command = [sys.executable, os.path.join(HERE, "work.py"),
                   "--workload", args.workload, "--inputs", inputs_dir,
                   "--result", result_path, "--seconds", str(args.seconds),
                   "--passes", str(args.passes), "--scale", args.scale,
                   "--host-fds", ",".join(map(str, fds))]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        # Pool workers must be forked so they inherit the layer wrappers.
        env = dict(os.environ, PYTHONPATH=SRC, MP_START_METHOD="fork")
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True, pass_fds=fds)
        line = self.proc.stdout.readline().strip()
        if line != "ready":
            self.finish("exit")
            raise RuntimeError(f"work process did not get ready (said {line!r})")

    def finish(self, command: str) -> None:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=170)
        finally:
            if self.proc.poll() is None:
                # SIGINT lets it shut its pool down and free shared memory.
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"work process exited with {self.proc.returncode}")


def run_in_process(args, work_dir: str, trace_dir, host: HostSpeed) -> tuple:
    inputs_dir = os.path.join(work_dir, "inputs")
    os.makedirs(inputs_dir)
    result_path = os.path.join(work_dir, "result.json")
    setups = []
    rounds = 1 if trace_dir else SETUPS
    for index in range(rounds):
        start, ticks = time.perf_counter(), cpu_ticks()
        workloads.make_inputs(args.workload, args.seed, inputs_dir, args.scale)
        process = WorkProcess(args, inputs_dir, result_path, host, trace_dir)
        setups.append((time.perf_counter() - start, stolen_share(ticks, cpu_ticks())))
        host.read()
        process.finish("go" if index == rounds - 1 else "exit")
    with open(result_path) as handle:
        tally = json.load(handle)
    reference = statistics.median(host.readings + tally.get("readings", []))
    extra = {"read_samples": sum(len(p["latencies"]) for p in tally["passes"]),
             "reference_s": reference,
             "stolen_share": statistics.median(p["stolen"] for p in tally["passes"]),
             "untraced_wall_s": tally.get("untraced_wall_s"),
             "traced_wall_s": tally["wall_s"],
             "bench.memo_hits": tally["memo_hits"]}
    metrics = {} if trace_dir else in_process_metrics(tally, setups, reference)
    return tally, metrics, extra


def in_process_metrics(tally: dict, setups: list, reference: float) -> dict:
    """Each rate and latency is taken per pass, restated at reference host
    speed with that pass's stolen share; the metric is the median over the
    passes."""

    passes = tally["passes"]

    def median_of(value) -> float:
        return statistics.median(value(p) for p in passes)

    def at(p: dict, seconds: float) -> float:
        return restate(seconds, p["stolen"], reference)

    write = median_of(lambda p: p["write_bytes"] / MB / at(p, p["write_s"]))
    read = median_of(lambda p: p["read_bytes"] / MB / at(p, p["read_s"]))
    return {
        "setup_s": statistics.median(restate(s, stolen, reference) for s, stolen in setups),
        "records_per_s": median_of(lambda p: p["records"] / at(p, p["op_s"])),
        "compress_mb_s": write,
        "decompress_mb_s": read,
        "compression_ratio": workloads.geomean(passes[0]["ratios"]),
        "ingest_mb_s": write,
        "read_p50_ms": 1e3 * median_of(lambda p: at(p, statistics.median(p["latencies"]))),
        "read_p99_ms": 1e3 * median_of(lambda p: at(p, _percentile(p["latencies"], 0.99))),
        "read_mb_s": read,
        "peak_rss_mb": tally["vmhwm_kib"] / 1024,
    }


# ---------------------------------------------------------------------------
# serve-mixed: this process is the load generator
# ---------------------------------------------------------------------------
def run_serve(args, work_dir: str, trace_dir, recorder, host: HostSpeed) -> tuple:
    tally = workloads.Tally()
    extra: dict = {}
    if trace_dir is None:
        return vars(tally), serve_metrics(args, work_dir, tally, extra, host), extra

    # Traced: the same ingest, untimed warm-up reads and read count against
    # an untraced, then a traced server.  The warm-up's server-side spans
    # carry request ids no client span recorded; layer_metrics drops them.
    walls = []
    volumes = serve_load.make_volumes(args.seed)
    for traced in (False, True):
        server = serve_load.Server(os.path.join(work_dir, f"server-{traced}"), SRC,
                                   trace_dir if traced else None)
        clients = serve_load.readers(server.url, volumes, args.seed)
        try:
            summary = serve_load.ingest(server.url, volumes, tally,
                                        recorder if traced else None)
            serve_load.read_count(clients, tally, WARM_READS_PER_CLIENT)
            windows = serve_load.read_count(clients, tally, TRACE_READS_PER_CLIENT,
                                            recorder=recorder if traced else None)
            walls.append(summary["seconds"] + sum(w["wall"] for w in windows))
            if traced:
                extra.update(serve_load.server_counters(server.url))
        finally:
            for client in clients:
                client.close()
            server.stop()
    extra.update(
        {f"store.{key}": summary[key] for key in
         ("chunks_written", "raw_fallback_chunks", "bytes_per_user_byte")},
        untraced_wall_s=walls[0],
        traced_wall_s=walls[1],
        read_samples=sum(len(w["latencies"]) for w in windows),
    )
    extra["store.chunks_decoded_per_read"] = statistics.fmean(
        x for w in windows for x in w["chunks_decoded"])
    extra["bench.memo_hits"] = tally.memo_hits
    return vars(tally), {}, extra


def serve_metrics(args, work_dir: str, tally, extra: dict, host: HostSpeed) -> dict:
    """Untraced serve-mixed: set-ups with ingest, then the timed reads.

    Each set-up and read window is restated with its own stolen share;
    kernel readings are taken after each, when the server is idle.  The
    read rates are medians over one-second windows; p50 and p99 are taken
    over the reads of all of them."""

    setups, ingests = [], []
    for index in range(SERVE_SETUPS):
        start, ticks = time.perf_counter(), cpu_ticks()
        volumes = serve_load.make_volumes(args.seed)
        server = serve_load.Server(os.path.join(work_dir, f"server{index}"), SRC)
        clients = []
        try:
            summary = serve_load.ingest(server.url, volumes, tally)
            stolen = stolen_share(ticks, cpu_ticks())
            setups.append((time.perf_counter() - start, stolen))
            ingests.append((summary["bytes"], summary["seconds"], stolen))
            host.read()
            if index == SERVE_SETUPS - 1:
                clients = serve_load.readers(server.url, volumes, args.seed)
                # Untimed reads against the server that serves the timed
                # ones, so first-call costs on both sides and an empty
                # hot-chunk cache stay out of the timed reads.
                serve_load.read_count(clients, tally, WARM_READS_PER_CLIENT, host.read)
                windows = []
                began = time.perf_counter()
                while (time.perf_counter() - began < args.seconds
                       or sum(len(w["latencies"]) for w in windows) < serve_load.MIN_READS):
                    windows.append(serve_load.read_window(clients, tally, host.read))
                rss = server.vmhwm_kib()
        finally:
            for client in clients:
                client.close()
            server.stop()

    reference = statistics.median(host.readings)

    def per_window(value) -> float:
        return statistics.median(
            value(w) / restate(w["wall"], w["stolen"], reference) for w in windows)

    latencies = [restate(x, w["stolen"], reference) for w in windows for x in w["latencies"]]
    read_rate = per_window(lambda w: w["nbytes"] / MB)
    ingest_rate = statistics.median(
        nbytes / MB / restate(seconds, stolen, reference) for nbytes, seconds, stolen in ingests)
    extra["read_samples"] = len(latencies)
    extra["reference_s"] = reference
    extra["stolen_share"] = statistics.median(w["stolen"] for w in windows)
    return {
        "setup_s": statistics.median(restate(s, stolen, reference) for s, stolen in setups),
        "records_per_s": per_window(lambda w: len(w["latencies"])),
        "compress_mb_s": ingest_rate,
        "decompress_mb_s": read_rate,
        "compression_ratio": summary["compression_ratio"],
        "ingest_mb_s": ingest_rate,
        "read_p50_ms": 1e3 * statistics.median(latencies),
        "read_p99_ms": 1e3 * _percentile(latencies, 0.99),
        "read_mb_s": read_rate,
        "peak_rss_mb": rss / 1024,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from a merged trace
# ---------------------------------------------------------------------------
def layer_metrics(trace_dir: str, names, extra: dict) -> dict:
    trace, counters, distinct = spans.load_trace(trace_dir)
    # Server spans of requests no client span recorded (serve-mixed's
    # untimed warm-up reads) are left out.
    recorded = {op for name, _, _, _, _, op, _ in trace if name == "serve.request"}
    trace = [span for span in trace
             if not (span[5].startswith("req-") and span[5] not in recorded)]
    selfs = spans.self_times(trace)
    self_by_name = defaultdict(float)
    duration_by_name = defaultdict(float)
    lanes = defaultdict(list)
    request_ops = set()
    for name, start, end, key, parent, op, lane in trace:
        if name == "bench.lane":
            lanes[lane].append((start, end))
            continue
        self_by_name[name] += selfs[key]
        duration_by_name[name] += end - start
        if name == "serve.request":
            request_ops.add(op)

    lane_pids = {lane[0] for lane in lanes}

    def in_lane(start, end, op, lane) -> bool:
        if op in request_ops and lane[0] not in lane_pids:
            return True  # server-side work a client request waited for
        return any(s <= start and end <= e for s, e in lanes.get(lane, ()))

    wall = sum(e - s for windows in lanes.values() for s, e in windows)
    attributed = sum(
        selfs[key] for name, start, end, key, parent, op, lane in trace
        if name != "bench.lane" and in_lane(start, end, op, lane)
    )
    builds = counters.get("encoding.huffman.builds", 0)
    derived = {
        "encoding.huffman.distinct_histograms": distinct,
        "encoding.huffman.distinct_build_ratio": distinct / builds if builds else 0.0,
        "parallel.map.wait_s": duration_by_name["parallel.map"],
        "parallel.worker.busy_s": duration_by_name["parallel.worker.task"],
        "parallel.worker.utilization": (
            duration_by_name["parallel.worker.task"] / counters["parallel.map.worker_seconds"]
            if counters.get("parallel.map.worker_seconds") else 0.0
        ),
        "obs.trace_overhead": extra["traced_wall_s"] / extra["untraced_wall_s"] - 1.0,
        "bench.wall_s": wall,
        "bench.unattributed_s": wall - attributed,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name in extra:
            out[name] = extra[name]
        elif name.endswith(".self_s"):
            out[name] = self_by_name.get(name[: -len(".self_s")], 0.0)
        else:
            out[name] = counters.get(name, 0)
    return out


# ---------------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many passes instead of --seconds "
                        "(in-process workloads; the exact-count self-test)")
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="input sizes; 'small' is the self-test's reduced size")
    args = parser.parse_args()
    # SIGINT is how the server subprocess is stopped.  A parent that
    # ignores SIGINT (a shell's background job) would pass that on through
    # exec; a handler here resets it to the default for every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if args.trace else "end_to_end"]}

    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    trace_dir = recorder = None
    try:
        if args.trace:
            trace_dir = os.path.join(work_dir, "trace")
            os.makedirs(trace_dir)
            recorder = spans.install(trace_dir)
            spans.wrap_module_function(recorder, workloads, "bound_ok", "bench.verify")
            serve_load.bound_ok = workloads.bound_ok
        host = HostSpeed()
        try:
            if args.workload == "serve-mixed":
                tally, metrics, extra = run_serve(args, work_dir, trace_dir, recorder, host)
            else:
                tally, metrics, extra = run_in_process(args, work_dir, trace_dir, host)
        finally:
            host.close()
        if recorder is not None:
            recorder.flush()
            metrics = layer_metrics(trace_dir, list(units), extra)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # A timed op served by a memo cache counts as a failed op.
    memo_hits = tally["memo_hits"]
    attempted = tally["attempted"]
    failed = tally["failed"] + memo_hits
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} failed/attempted "
          f"({failed}/{attempted})")
    print(f"  {'memo_hits':<44} {memo_hits:>14d} count")
    print(f"  {'read_samples':<44} {extra['read_samples']:>14d} count")
    if extra.get("reference_s"):
        print(f"  {'host reference kernel':<44} {extra['reference_s']:>14.6g} s CPU "
              f"(timings restated at {REFERENCE_SECONDS:g} s)")
        print(f"  {'stolen share of CPU time':<44} {extra['stolen_share']:>14.6g} "
              f"(median over passes or read windows; restated as not stolen)")
    for failure in tally["failures"]:
        print(f"  FAILED: {failure}")
    print("env " + json.dumps(env))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    results_dir = os.path.join(WORK_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                       env=env), handle, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
