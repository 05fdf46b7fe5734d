"""serve-mixed: a ``repro serve`` subprocess, ingest, and closed-loop reads.

The benchmark process is the single load process: it generates the
volumes, ingests them through :class:`repro.serve.client.StoreClient`
(one PUT, then appends), and runs two client threads, each with its own
connection, that issue a seeded sequence of region reads and wait for
each reply before sending the next (a closed loop).  Reads run in
windows; after each one the host-speed reading is taken and every served
region is checked, so neither is part of the timed loop.

Most reads hit ``hot``, a dataset whose decoded chunks fit the server's
``--cache-mb``; every twentieth read hits ``cold``, three times larger than
the cache, so the median measures cache, assembly and HTTP while
the 99th percentile falls inside the cold reads and measures chunk decode.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from hostspeed import cpu_ticks, no_reading, stolen_share
from workloads import ERROR_BOUND, bound_ok

CHUNK = 32
CACHE_MB = 4
HOT_SHAPE = (64, 64, 64)
COLD_SHAPE = (96, 128, 128)
COLD_PUT_ROWS = 32
COLD_APPEND_ROWS = 32
HOT_EDGES = (8, 16, 32, 48)
COLD_EDGES = (8, 16, 32)
COLD_EVERY = 20
CLIENTS = 2
MIN_READS = 1000
#: A read window ends after this many seconds, or reads per client.
WINDOW_S = 1.0
WINDOW_READS = 100
_STORE_HITS = re.compile(r'^repro_cache_hits_total\{cache="store-chunk"\} (\S+)$', re.M)


def make_volumes(seed: int) -> dict:
    from repro.datasets.miranda import generate_miranda_like_volume

    rng = np.random.default_rng([seed, 17])
    return {
        "hot": generate_miranda_like_volume(HOT_SHAPE, seed=int(rng.integers(2**31))),
        "cold": generate_miranda_like_volume(COLD_SHAPE, seed=int(rng.integers(2**31))),
    }


class Server:
    """One ``repro serve`` process on a fresh root; ``trace_dir`` starts it
    through the benchmark's launcher with the layer wrappers installed."""

    def __init__(self, root_dir: str, src_dir: str, trace_dir=None) -> None:
        os.makedirs(os.path.join(root_dir, "stores"))
        here = os.path.dirname(os.path.abspath(__file__))
        if trace_dir is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [sys.executable, os.path.join(here, "serve_launcher.py"), trace_dir]
        command += ["serve", os.path.join(root_dir, "stores"), "--port", "0",
                    "--cache-mb", str(CACHE_MB)]
        env = dict(os.environ, PYTHONPATH=src_dir)
        self._log = open(os.path.join(root_dir, "server.log"), "w")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r" at (http://\S+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = match.group(1)

    def vmhwm_kib(self) -> int:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown); kill after 10 s, with a warning."""

        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                print("warning: server did not stop within 10 s of SIGINT; killed",
                      file=sys.stderr)
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _request_span(recorder, start: float, client) -> None:
    if recorder is not None:
        recorder.record("serve.request", start, time.perf_counter(),
                        client.last_headers.get("x-request-id", ""))


def ingest(url: str, volumes: dict, tally, recorder=None) -> dict:
    """PUT ``hot``, PUT the first rows of ``cold`` and append the rest."""

    from repro.serve.client import ServeError, StoreClient

    hot, cold = volumes["hot"], volumes["cold"]
    steps = [("put", "hot", hot), ("put", "cold", cold[:COLD_PUT_ROWS])]
    for row in range(COLD_PUT_ROWS, cold.shape[0], COLD_APPEND_ROWS):
        steps.append(("append", "cold", cold[row:row + COLD_APPEND_ROWS]))
    chunks = {}
    with StoreClient(url) as client:
        began = time.perf_counter()
        for kind, name, array in steps:
            start = time.perf_counter()
            try:
                if kind == "put":
                    summary = client.put(name, array, codec="sz", error_bound=ERROR_BOUND,
                                         chunk=CHUNK)
                else:
                    summary = client.append(name, array)
            except (ServeError, OSError) as exc:
                tally.check(False, f"{kind} {name}: {exc}")
                continue
            finally:
                _request_span(recorder, start, client)
            tally.check(True, "")
            chunks[name] = summary["n_chunks"]
        seconds = time.perf_counter() - began
        if recorder is not None:
            recorder.record("bench.lane", began, began + seconds, "")
        infos = {name: client.info(name) for name in volumes}
        hits = _STORE_HITS.search(client.metrics_text())
    for name, array in volumes.items():
        tally.check(infos[name]["shape"] == list(array.shape), f"{name}: stored shape")
    tally.memo_hits += int(float(hits.group(1))) if hits else 0
    original = sum(info["original_nbytes"] for info in infos.values())
    return {
        "seconds": seconds,
        "bytes": sum(array.nbytes for _, _, array in steps),
        "compression_ratio": original / sum(i["compressed_nbytes"] for i in infos.values()),
        "chunks_written": sum(chunks.values()),
        "raw_fallback_chunks": sum(i["codec_histogram"].get("raw", 0)
                                   for i in infos.values()),
        "bytes_per_user_byte": sum(i["data_file_nbytes"] for i in infos.values()) / original,
    }


def _region(rng, shape, edges):
    region = []
    for extent in shape:
        edge = int(rng.choice(edges))
        start = int(rng.integers(0, extent - edge + 1))
        region.append(slice(start, start + edge))
    return tuple(region)


class Reader:
    """One closed-loop connection and its seeded region sequence; both
    continue across the windows it is run in."""

    def __init__(self, index: int, url: str, volumes: dict, seed: int) -> None:
        self.name = f"client-{index}"
        self.url, self.volumes = url, volumes
        self.rng = np.random.default_rng([seed, 23, index])
        self.sent = 0
        self.client = None

    def run(self, until, window: dict, recorder=None) -> None:
        """Read until ``until(reads_this_window, began)``; record into
        ``window``.  Served regions are kept for the check after the
        window, so the check is not part of the timed loop."""

        from repro.serve.client import ServeError, StoreClient

        if self.client is None:
            self.client = StoreClient(self.url)
        began = time.perf_counter()
        while not until(window["attempted"], began):
            name = "cold" if self.sent % COLD_EVERY == 7 else "hot"
            region = _region(self.rng, self.volumes[name].shape,
                             COLD_EDGES if name == "cold" else HOT_EDGES)
            self.sent += 1
            window["attempted"] += 1
            start = time.perf_counter()
            try:
                values = self.client.get(name, region)
            except (ServeError, OSError) as exc:
                window["failures"].append(f"read {name}: {exc}")
                continue
            finally:
                _request_span(recorder, start, self.client)
            window["latencies"].append(time.perf_counter() - start)
            window["chunks_decoded"].append(int(self.client.last_headers["x-chunks-decoded"]))
            window["nbytes"] += values.nbytes
            window["served"].append((name, region, values))
        window["wall"] = time.perf_counter() - began
        if recorder is not None:
            recorder.record("bench.lane", began, began + window["wall"], "")

    def close(self) -> None:
        if self.client is not None:
            self.client.close()


def readers(url: str, volumes: dict, seed: int) -> list:
    return [Reader(i, url, volumes, seed) for i in range(CLIENTS)]


def read_window(clients: list, tally, read_host=no_reading, seconds: float = WINDOW_S,
                per_client=None, recorder=None) -> dict:
    """Run every reader on its own thread for ``seconds`` (or ``per_client``
    reads each).  Then call ``read_host()`` (the server is idle by then)
    and check every served region.  Returns the window's pooled results,
    with the share of CPU time stolen from the machine during it."""

    def until(attempted: int, began: float) -> bool:
        if per_client is not None:
            return attempted >= per_client
        return time.perf_counter() - began >= seconds

    windows = [{"attempted": 0, "latencies": [], "chunks_decoded": [], "nbytes": 0,
                "served": [], "failures": [], "wall": 0.0} for _ in clients]
    errors: list = []

    def run(reader, window) -> None:
        try:
            reader.run(until, window, recorder)
        except Exception as exc:  # noqa: BLE001 - reported as a failed read
            errors.append(f"{reader.name}: {exc!r}")

    threads = [threading.Thread(target=run, args=pair, name=pair[0].name)
               for pair in zip(clients, windows)]
    before = cpu_ticks()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stolen = stolen_share(before, cpu_ticks())
    read_host()
    pooled = {
        "stolen": stolen,
        "latencies": [x for w in windows for x in w["latencies"]],
        "chunks_decoded": [x for w in windows for x in w["chunks_decoded"]],
        "nbytes": sum(w["nbytes"] for w in windows),
        "wall": max(w["wall"] for w in windows),
    }
    tally.attempted += sum(w["attempted"] for w in windows)
    for what in (f for w in windows for f in w["failures"]):
        tally.fail(what)
    for what in errors:
        tally.check(False, what)
    for name, region, values in (entry for w in windows for entry in w["served"]):
        if not bound_ok(values, clients[0].volumes[name][region], ERROR_BOUND):
            tally.fail(f"read {name} {region}: outside the bound")
    return pooled


def read_count(clients: list, tally, per_client: int, read_host=no_reading,
               recorder=None) -> list:
    """``per_client`` reads from each reader, in windows of at most
    :data:`WINDOW_READS` each (so few served regions wait for the check)."""

    windows = []
    while per_client > 0:
        count = min(per_client, WINDOW_READS)
        windows.append(read_window(clients, tally, read_host, per_client=count,
                                   recorder=recorder))
        per_client -= count
    return windows


def server_counters(url: str) -> dict:
    from repro.serve.client import StoreClient

    with StoreClient(url) as client:
        stats = client.stats()
    cache = stats["hot_chunk_cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "serve.hot_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.hot_cache.evictions": cache["evictions"],
        "serve.coalesced_reads": stats["coalesced_reads"],
        "serve.responses_error": sum(
            count for status, count in stats["responses_by_status"].items()
            if int(status) >= 400
        ),
    }
