"""Seeded inputs and the timed passes of the in-process workloads.

Inputs are generated only from ``--seed`` by the benchmark process and
saved under the work directory; the work process loads the arrays and
hands them to the program.  Every workload keeps the statistical shape of
its inputs fixed (sizes, correlation ranges) and lets the seed pick the
realisation, so seeds move the figures only a little.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

from hostspeed import cpu_ticks, stolen_share

ERROR_BOUND = 1e-3
CODECS = ("sz", "zfp", "mgard")
SWEEP_BOUNDS = (1e-5, 1e-4, 1e-3, 1e-2)
STATISTICS = ("global_variogram_range", "std_local_variogram_range",
              "std_local_svd_truncation")

#: Sizes per scale; ``small`` is the exact-count self-test's reduced size.
SCALES = {
    "full": {
        "sweep_field": 128,
        # Ranges stop at half the window: the local variogram fits of
        # longer-range fields cost an amount that swings with the
        # realisation, which would make the tail latency a seed property.
        "sweep_ranges": (2.0, 4.0, 8.0, 12.0, 16.0),
        "sweep_slices": (2, 5),
        "halo_volume": (128, 128, 128),
        "stream_volume": (128, 256, 256),
        "tile": 32,
    },
    "small": {
        "sweep_field": 64,
        "sweep_ranges": (4.0, 16.0),
        "sweep_slices": (3,),
        "halo_volume": (64, 64, 64),
        "stream_volume": (64, 64, 64),
        "tile": 32,
    },
}
HALO_WORKERS = 2


def bound_ok(reconstruction: np.ndarray, source: np.ndarray, bound: float) -> bool:
    """Shape matches and every point is within the absolute error bound."""

    return (
        reconstruction.shape == source.shape
        and float(np.max(np.abs(reconstruction - source))) <= bound * (1.0 + 1e-9)
    )


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


# ---------------------------------------------------------------------------
# inputs (benchmark process)
# ---------------------------------------------------------------------------
def make_inputs(workload: str, seed: int, work_dir: str, scale: str = "full") -> None:
    """Generate the workload's inputs from ``seed`` into ``work_dir``."""

    from repro.datasets.gaussian import generate_gaussian_field
    from repro.datasets.miranda import generate_miranda_like_volume

    sizes = SCALES[scale]
    rng = np.random.default_rng([seed, 11])
    if workload == "paper-sweep":
        n = sizes["sweep_field"]
        fields = {}
        for i, correlation_range in enumerate(sizes["sweep_ranges"]):
            fields[f"gauss-r{correlation_range:g}"] = generate_gaussian_field(
                (n, n), correlation_range, seed=int(rng.integers(2**31))
            )
        volume = generate_miranda_like_volume(
            (8, n, n), seed=int(rng.integers(2**31))
        )
        for index in sizes["sweep_slices"]:
            fields[f"miranda-z{index}"] = volume[index]
        np.savez(os.path.join(work_dir, "fields.npz"), **fields)
    elif workload == "volume-halo":
        volume = generate_miranda_like_volume(
            sizes["halo_volume"], seed=int(rng.integers(2**31))
        )
        np.save(os.path.join(work_dir, "volume.npy"), volume)
    elif workload == "volume-stream":
        volume = generate_miranda_like_volume(
            sizes["stream_volume"], seed=int(rng.integers(2**31))
        )
        np.save(os.path.join(work_dir, "volume.npy"), volume)
    else:
        raise ValueError(f"no in-process inputs for workload {workload!r}")


def _read_rows(path: str, row_start: int, rows: int) -> np.ndarray:
    """Rows of a C-order ``.npy`` volume, read without a memory map."""

    with open(path, "rb") as handle:
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, _, dtype = np.lib.format.read_array_header_1_0(handle)
        else:
            shape, _, dtype = np.lib.format.read_array_header_2_0(handle)
        row = int(np.prod(shape[1:]))
        handle.seek(handle.tell() + row_start * row * dtype.itemsize)
        flat = np.fromfile(handle, dtype=dtype, count=rows * row)
    return flat.reshape((rows,) + tuple(shape[1:]))


# ---------------------------------------------------------------------------
# passes (work process)
# ---------------------------------------------------------------------------
class Pass:
    """What one timed pass did: work, bytes, seconds and op latencies, and
    the share of CPU time stolen from the machine while it ran."""

    def __init__(self) -> None:
        self.stolen = 0.0
        self.records = 0
        self.op_s = 0.0
        self.write_bytes = 0
        self.write_s = 0.0
        self.read_bytes = 0
        self.read_s = 0.0
        self.latencies: list = []
        self.ratios: list = []


class Tally:
    """The passes of a run, and the checks their outputs went through."""

    def __init__(self) -> None:
        self.passes: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.memo_hits = 0

    def add_checks(self, other: "Tally") -> None:
        """Count ``other``'s checks and memo hits as this tally's."""

        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: 10 - len(self.failures)])
        self.memo_hits += other.memo_hits

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        """Count a failure of an op already counted as attempted."""

        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def as_dict(self) -> dict:
        return dict(vars(self), passes=[vars(p) for p in self.passes])


class Workload:
    """One in-process workload: loaded inputs plus a timed ``run_pass``."""

    def __init__(self, name: str, work_dir: str, scale: str = "full") -> None:
        self.name = name
        self.sizes = SCALES[scale]
        self.path = os.path.join(work_dir, "volume.npy")
        if name == "paper-sweep":
            with np.load(os.path.join(work_dir, "fields.npz")) as archive:
                self.fields = [(label, archive[label]) for label in archive.files]
        elif name == "volume-halo":
            self.volume = np.load(self.path)
        elif name != "volume-stream":
            raise ValueError(f"unknown in-process workload {name!r}")

    def run_pass(self, tally: Tally, read_host, op_scope) -> None:
        """Run one pass; ``read_host()`` is called after each timed op,
        while the program is idle (a host-speed reading)."""

        this = Pass()
        tally.passes.append(this)
        run = getattr(self, "_" + self.name.replace("-", "_"))
        before = cpu_ticks()
        run(tally, this, read_host, op_scope)
        this.stolen = stolen_share(before, cpu_ticks())

    # -- paper-sweep ----------------------------------------------------
    def _paper_sweep(self, tally: Tally, this: Pass, read_host, op_scope) -> None:
        from repro.core.experiment import ExperimentConfig
        from repro.core.pipeline import default_cache, run_experiment_on_fields
        from repro.core.regression import fit_log_regression

        config = ExperimentConfig(compressors=CODECS, error_bounds=SWEEP_BOUNDS, window=32)
        hits_before = default_cache().counters()["hits"]
        records = []
        for label, field in self.fields:
            with op_scope(f"sweep:{label}"):
                start = time.perf_counter()
                result = run_experiment_on_fields(
                    [(label, field)], dataset="paper-sweep", config=config, cache=False
                )
                elapsed = time.perf_counter() - start
                read_host()
            this.latencies.append(elapsed)
            this.write_s += elapsed
            this.op_s += elapsed
            cells = len(CODECS) * len(SWEEP_BOUNDS)
            tally.check(len(result.records) == cells, f"{label}: record count")
            for record in result.records:
                tally.check(
                    record.metrics.bound_satisfied and record.compression_ratio > 0,
                    f"{label} {record.compressor} {record.error_bound:g}: bound",
                )
                this.ratios.append(record.compression_ratio)
            this.records += len(result.records)
            this.write_bytes += field.nbytes * len(result.records)
            records.extend(result.records)

        with op_scope("sweep:fits"):
            start = time.perf_counter()
            fits = []
            for codec in CODECS:
                for bound in SWEEP_BOUNDS:
                    series = [r for r in records
                              if r.compressor == codec and r.error_bound == bound]
                    ratios = [r.compression_ratio for r in series]
                    for stat in STATISTICS:
                        x = [getattr(r.statistics, stat) for r in series]
                        fits.append(fit_log_regression(x, ratios))
            elapsed = time.perf_counter() - start
            read_host()
            this.write_s += elapsed
            this.op_s += elapsed
        for fit in fits:
            tally.check(math.isfinite(fit.alpha) and math.isfinite(fit.beta)
                        and fit.n_points >= 2, "regression fit not finite")
        # The 2D codecs reconstruct inside the compress call; the records'
        # bound check is made on that reconstruction.
        this.read_bytes = this.write_bytes
        this.read_s = this.write_s
        tally.memo_hits += default_cache().counters()["hits"] - hits_before

    # -- volume-halo ----------------------------------------------------
    def _volume_halo(self, tally: Tally, this: Pass, read_host, op_scope) -> None:
        from repro.utils.parallel import ParallelConfig
        from repro.volumes import compress_volume, decompress_volume, default_volume_cache

        parallel = ParallelConfig(workers=HALO_WORKERS)
        tile = (self.sizes["tile"],) * 3
        hits_before = default_volume_cache().counters()["hits"]
        for codec in CODECS:
            with op_scope(f"halo:{codec}"):
                start = time.perf_counter()
                compressed = compress_volume(
                    self.volume, codec, ERROR_BOUND, tile_shape=tile,
                    parallel=parallel, cache=False, halo=True,
                )
                encode_s = time.perf_counter() - start
                read_host()
                start = time.perf_counter()
                decoded = decompress_volume(compressed, parallel=parallel)
                decode_s = time.perf_counter() - start
                read_host()
            this.write_s += encode_s
            this.read_s += decode_s
            this.op_s += encode_s + decode_s
            this.latencies.append(decode_s)
            this.write_bytes += self.volume.nbytes
            this.read_bytes += decoded.nbytes
            this.records += compressed.n_tiles
            this.ratios.append(compressed.compression_ratio)
            counters = compressed.cache_counters or {}
            tally.memo_hits += counters.get("hits", 0)
            tally.check(bound_ok(decoded, self.volume, ERROR_BOUND),
                        f"{codec}: volume round trip outside the bound")
        tally.memo_hits += default_volume_cache().counters()["hits"] - hits_before

    # -- volume-stream --------------------------------------------------
    def _volume_stream(self, tally: Tally, this: Pass, read_host, op_scope) -> None:
        from repro.volumes import (
            compress_volume_stream,
            decompress_volume_stream,
            default_volume_cache,
        )

        tile = (self.sizes["tile"],) * 3
        hits_before = default_volume_cache().counters()["hits"]
        with op_scope("stream:compress"):
            start = time.perf_counter()
            compressed = compress_volume_stream(
                self.path, "sz", ERROR_BOUND, tile_shape=tile, cache=False, halo=True
            )
            elapsed = time.perf_counter() - start
            read_host()
        this.write_s += elapsed
        this.op_s += elapsed
        raw = int(np.prod(compressed.shape)) * 8
        this.write_bytes += raw
        this.ratios.append(compressed.compression_ratio)
        tally.memo_hits += (compressed.cache_counters or {}).get("hits", 0)
        rows_seen = 0
        with op_scope("stream:decompress"):
            slabs = decompress_volume_stream(compressed)
            while True:
                start = time.perf_counter()
                try:
                    row_start, slab = next(slabs)
                except StopIteration:
                    break
                elapsed = time.perf_counter() - start
                read_host()
                this.read_s += elapsed
                this.op_s += elapsed
                this.latencies.append(elapsed)
                this.read_bytes += slab.nbytes
                source = _read_rows(self.path, row_start, slab.shape[0])
                tally.check(row_start == rows_seen and bound_ok(slab, source, ERROR_BOUND),
                            f"slab at row {row_start} outside the bound")
                rows_seen += slab.shape[0]
                del source, slab
        tally.check(rows_seen == compressed.shape[0], "stream decode lost rows")
        this.records += compressed.n_tiles
        tally.memo_hits += default_volume_cache().counters()["hits"] - hits_before
