"""Two-wave parallel store decode: identical to the serial reader.

The shared-memory read path decodes anchors in wave 0 and halo chunks
(planes + contexts read back out of the scratch segment) in wave 1; the
results, the halo dependency closure and the payload-dedup accounting
must match the serial ``decode_at`` recursion exactly."""

from __future__ import annotations

import pathlib
import zlib

import numpy as np
import pytest

from repro.datasets.gaussian import generate_gaussian_field
from repro.datasets.miranda import generate_miranda_like_volume
from repro.obs.trace import Tracer, install_tracer
from repro.serve.cache import HotChunkCache
from repro.store import ArrayStore
from repro.store.format import IndexRecord, StoreCorruptionError
from repro.store.snapshot import RAW_CODEC, StoreSnapshot
from repro.utils.parallel import (
    ParallelConfig,
    SEGMENT_PREFIX,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no usable shared memory"
)

BOUND = 1e-3
PARALLEL = ParallelConfig(workers=2)


def _no_leaks() -> bool:
    shm = pathlib.Path("/dev/shm")
    return not shm.is_dir() or not list(shm.glob(f"{SEGMENT_PREFIX}-*"))


@pytest.fixture(scope="module", params=[False, True], ids=["grid", "halo"])
def store(request, tmp_path_factory):
    volume = generate_miranda_like_volume((40, 40, 24), seed=5)
    store = ArrayStore.create(
        tmp_path_factory.mktemp("pstore") / "s",
        chunk_shape=16,
        codec="sz",
        error_bound=BOUND,
        halo=request.param,
    )
    store.write(volume, cache=False)
    return store


class TestParity:
    def test_full_read(self, store):
        serial = store.read()
        parallel = store.read(parallel=PARALLEL)
        np.testing.assert_array_equal(parallel, serial)
        assert _no_leaks()

    def test_region_read_with_dropped_axis(self, store):
        region = (slice(5, 30), slice(10, 40), 7)
        serial = store.read(region)
        serial_report = store.last_read
        parallel = store.read(region, parallel=PARALLEL)
        parallel_report = store.last_read
        np.testing.assert_array_equal(parallel, serial)
        assert parallel_report.chunks_total == serial_report.chunks_total
        assert (
            parallel_report.chunks_intersecting
            == serial_report.chunks_intersecting
        )
        assert parallel_report.chunks_decoded == serial_report.chunks_decoded
        assert _no_leaks()

    def test_serial_config_is_the_serial_path(self, store):
        np.testing.assert_array_equal(
            store.read(parallel=ParallelConfig(workers=1)), store.read()
        )


class TestPayloadDedup:
    def test_identical_chunks_decode_once(self, tmp_path):
        # A constant array dedups to one stored payload per chunk shape;
        # the parallel reader must decode one slot, not one per chunk.
        store = ArrayStore.create(
            tmp_path / "flat", chunk_shape=16, codec="sz", error_bound=BOUND
        )
        store.write(np.ones((32, 32, 32)), cache=False)
        serial = store.read()
        serial_decodes = store.last_read.chunks_decoded
        parallel = store.read(parallel=PARALLEL)
        parallel_report = store.last_read
        np.testing.assert_array_equal(parallel, serial)
        assert parallel_report.chunks_decoded == serial_decodes
        assert parallel_report.chunks_decoded < parallel_report.chunks_intersecting


class TestCacheInteraction:
    def test_hot_cache_keeps_serial_decoder(self, tmp_path):
        # The serve hot path owns its cache accounting; a parallel config
        # combined with a chunk cache falls back to the serial decoder.
        field = generate_gaussian_field((64, 64), correlation_range=9.0, seed=3)
        store = ArrayStore.create(
            tmp_path / "hot", chunk_shape=16, codec="sz", error_bound=BOUND
        )
        store.write(field, cache=False)
        cache = HotChunkCache(max_nbytes=1 << 20)
        first = store.read(chunk_cache=cache, parallel=PARALLEL)
        second = store.read(chunk_cache=cache, parallel=PARALLEL)
        np.testing.assert_array_equal(first, second)
        assert store.last_read.cache_hits > 0


class TestAppendedStore:
    def test_partial_trailing_chunks(self, tmp_path):
        store = ArrayStore.create(
            tmp_path / "grown", chunk_shape=16, codec="sz", error_bound=BOUND
        )
        store.write(
            generate_miranda_like_volume((32, 24, 24), seed=9), cache=False
        )
        store.append(
            generate_miranda_like_volume((9, 24, 24), seed=10), cache=False
        )
        np.testing.assert_array_equal(
            store.read(parallel=PARALLEL), store.read()
        )
        assert _no_leaks()


class TestMalformedChunks:
    def test_short_raw_chunk_raises_corruption_in_both_readers(self):
        # A raw record 8 bytes short whose CRC matches its payload: only
        # the length check can catch it, and both readers must make it.
        payload = np.arange(16 * 16, dtype="<f8").tobytes()[:-8]
        meta = {
            "shape": [16, 16],
            "chunk_shape": [16, 16],
            "dtype": "float64",
            "error_bound": BOUND,
            "codec": RAW_CODEC,
        }
        record = IndexRecord(
            offset=0,
            length=len(payload),
            codec=RAW_CODEC,
            checksum=zlib.crc32(payload),
        )
        snapshot = StoreSnapshot(meta, [record], data=payload)
        with pytest.raises(StoreCorruptionError, match="raw chunk payload"):
            snapshot.read()
        with pytest.raises(StoreCorruptionError, match="raw chunk payload"):
            snapshot.read(parallel=PARALLEL)
        assert _no_leaks()


class TestTracing:
    def test_worker_decode_spans_parent_under_their_wave(self, tmp_path):
        store = ArrayStore.create(
            tmp_path / "traced", chunk_shape=16, codec="sz", error_bound=BOUND,
            halo=True,
        )
        store.write(generate_miranda_like_volume((32, 32, 16), seed=4), cache=False)
        tracer = Tracer()
        with install_tracer(tracer):
            store.read(parallel=PARALLEL)
        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}
        waves = [s for s in spans if s.name == "store.decode_wave"]
        decodes = [s for s in spans if s.name == "store.decode_chunk"]
        assert sorted(w.args["wave"] for w in waves) == [0, 1]
        assert len(decodes) == store.last_read.chunks_decoded
        assert all(by_id[d.parent_id].name == "store.decode_wave" for d in decodes)
        assert all(d.lane.startswith("wave") for d in decodes)
