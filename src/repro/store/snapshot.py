"""Immutable store snapshots: the concurrent-reader-safe read path.

An :class:`ArrayStore` directory is replaced in place by writers (append,
write, compact), so a reader that touches ``meta.json`` and ``index.bin``
at different times can observe a torn state — new index with old meta, or
vice versa.  This module makes reads safe without any locking:

* :func:`load_store_state` reads ``meta.json`` and ``index.bin`` into
  memory **once**, and validates that they belong to the same write
  generation: every flush records the SHA-1 of the index bytes inside
  ``meta.json``, and the writer replaces ``index.bin`` *before*
  ``meta.json`` (each atomically via ``os.replace``).  Reading meta first
  therefore detects every torn interleaving as a digest mismatch, which
  is transient and simply retried.
* :class:`StoreSnapshot` is an immutable view over one such consistent
  ``(meta, index)`` pair.  All region decoding lives here;
  :meth:`ArrayStore.read` is a thin delegate that snapshots its own
  in-memory state.  A snapshot taken while another process appends keeps
  decoding the pre-append state — appended payload bytes are strictly
  new ranges of ``chunks.bin``, so old byte ranges stay valid.  (Full
  rewrites — :meth:`ArrayStore.write` / :meth:`ArrayStore.compact` —
  replace payload bytes and need exclusive access; a stale snapshot then
  fails its CRC checks loudly instead of returning garbage.)

Snapshots can also be built over an in-memory payload buffer instead of a
directory (``data=``): the serve layer's client-side-decode mode ships
index records plus the needed payload byte ranges over HTTP, and the
client decodes them through the exact same code path — bit-identical to
a server-side read by construction.

Reads optionally consult a shared decoded-chunk cache (``chunk_cache=``,
see :class:`repro.serve.cache.HotChunkCache`): chunks are keyed by
payload content hash plus every decode parameter, so any byte-identical
chunk decoded under the same bound/codec/halo is served from memory
without touching ``chunks.bin``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
import zlib
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compressors.base import CompressedField
from repro.compressors.halo import TileHalo
from repro.obs.trace import span as obs_span, traced_map
from repro.pressio.api import PressioCompressor
from repro.pressio.options import CompressorOptions
from repro.utils.parallel import (
    ParallelConfig,
    SharedArraySession,
    WorkerPool,
    read_shared,
    use_shared_arrays,
    write_shared,
)
from repro.store.format import (
    IndexRecord,
    StoreCorruptionError,
    StoreFormatError,
    parse_halo_flags,
    unpack_index,
)

__all__ = [
    "META_NAME",
    "INDEX_NAME",
    "DATA_NAME",
    "META_FORMAT",
    "META_VERSION",
    "RAW_CODEC",
    "ReadReport",
    "StoreSnapshot",
    "load_store_state",
    "live_payload_nbytes",
    "meta_float",
]

META_NAME = "meta.json"
INDEX_NAME = "index.bin"
DATA_NAME = "chunks.bin"
META_FORMAT = "repro-store"
META_VERSION = 1

#: Codec tag of chunks stored as exact little-endian float64 bytes.
RAW_CODEC = "raw"


@dataclass(frozen=True)
class ReadReport:
    """What one snapshot/store read actually did.

    ``chunks_decoded`` counts real payload decodes; ``cache_hits`` counts
    chunks served from a shared decoded-chunk cache instead (a fully hot
    read decodes nothing).
    """

    region: Tuple[Tuple[int, int], ...]
    chunks_total: int
    chunks_intersecting: int
    chunks_decoded: int
    cache_hits: int = 0


def meta_float(value) -> float:
    """Read back a JSON-sanitized float (``null`` round-trips to NaN)."""

    return float("nan") if value is None else float(value)


def live_payload_nbytes(index: List[IndexRecord]) -> int:
    """Bytes of ``chunks.bin`` covered by live index ranges (interval
    union — dedup-shared and overlapping ranges count once)."""

    ranges = sorted({(r.offset, r.length) for r in index})
    total = 0
    covered_until = 0
    for offset, length in ranges:
        end = offset + length
        if end <= covered_until:
            continue
        total += end - max(offset, covered_until)
        covered_until = end
    return total


def _state_inconsistency(meta: Dict, index: List[IndexRecord]) -> Optional[str]:
    """Reason string when ``meta`` and ``index`` disagree, else None."""

    n_meta = len(meta.get("chunks", []))
    if len(index) != n_meta:
        return f"index has {len(index)} records but meta lists {n_meta} chunks"
    if meta.get("shape") is not None:
        from repro.utils.blocking import grid_offsets

        expected = len(grid_offsets(tuple(meta["shape"]), tuple(meta["chunk_shape"])))
        if len(index) != expected:
            return (
                f"index has {len(index)} records but the chunk grid of shape "
                f"{tuple(meta['shape'])} needs {expected}"
            )
    return None


def load_store_state(
    path: str, *, retries: int = 6, retry_wait_s: float = 0.015
) -> Tuple[Dict, List[IndexRecord]]:
    """Atomically read a store's ``meta.json`` + ``index.bin`` into memory.

    Both files are read exactly once per attempt and cross-validated:
    ``meta.json`` records the SHA-1 of the index bytes it was flushed
    with, so a replacement racing this read shows up as a digest (or
    chunk-count) mismatch.  Mismatches are transient while a writer is
    mid-flush and are retried with a short sleep; a store that never
    converges raises :class:`StoreCorruptionError`.

    Stores written before the digest was recorded (no ``index_sha1`` key)
    fall back to the structural consistency checks alone.
    """

    meta_path = os.path.join(path, META_NAME)
    if not os.path.isfile(meta_path):
        raise StoreFormatError(f"{path!r} is not a store (missing {META_NAME})")
    reason = "unreadable state"
    for attempt in range(max(1, retries)):
        if attempt:
            time.sleep(retry_wait_s)
        with open(meta_path, "r", encoding="utf-8") as handle:
            try:
                meta = json.load(handle)
            except json.JSONDecodeError as exc:
                raise StoreFormatError(f"corrupt {META_NAME}: {exc}") from exc
        if meta.get("format") != META_FORMAT:
            raise StoreFormatError(f"not a {META_FORMAT} store: {meta.get('format')!r}")
        if meta.get("format_version") != META_VERSION:
            raise StoreFormatError(
                f"unsupported store version {meta.get('format_version')!r}"
            )
        with open(os.path.join(path, INDEX_NAME), "rb") as handle:
            blob = handle.read()
        recorded = meta.get("index_sha1")
        if recorded is not None and hashlib.sha1(blob).hexdigest() != recorded:
            reason = "index.bin does not match the digest recorded in meta.json"
            continue
        try:
            index = unpack_index(blob)
        except StoreFormatError:
            if recorded is not None:
                # The digest matched, so these are exactly the bytes the
                # writer flushed: the index is corrupt, not torn.
                raise
            reason = "index.bin failed to parse"
            continue
        inconsistency = _state_inconsistency(meta, index)
        if inconsistency is None:
            return meta, index
        reason = inconsistency
    raise StoreCorruptionError(
        f"store at {path!r} failed consistency checks {retries} times ({reason}); "
        f"either a writer is replacing it continuously or the store is corrupt"
    )


def _step_back(grid_index: Tuple[int, ...], axis: int) -> Tuple[int, ...]:
    """The grid neighbour one chunk lower along ``axis``."""

    return tuple(g - 1 if a == axis else g for a, g in enumerate(grid_index))


def _decode_payload(
    payload: bytes,
    codec_name: str,
    extent: Tuple[int, ...],
    error_bound: float,
    dtype: np.dtype,
    options: Dict,
    halo: Optional[TileHalo] = None,
    want_context: bool = False,
):
    """Decode one CRC-checked chunk payload.

    The one payload decoder of both readers — the serial reader runs it
    in-process, the parallel reader's worker in the pool — so both make
    the same raw-length and decoded-shape checks.  Returns ``(values,
    entropy_context_or_None)``.
    """

    with obs_span("store.decode_chunk", "store", codec=codec_name, nbytes=len(payload)):
        if codec_name == RAW_CODEC:
            expected = int(np.prod(extent)) * 8
            if len(payload) != expected:
                raise StoreCorruptionError(
                    f"raw chunk payload of {len(payload)} bytes, expected {expected}"
                )
            values = np.frombuffer(payload, dtype="<f8").reshape(extent)
            return np.asarray(values, dtype=dtype), None
        codec = PressioCompressor(
            codec_name, CompressorOptions(error_bound=error_bound, extra=dict(options))
        )
        compressed = CompressedField(
            data=payload,
            original_shape=extent,
            original_dtype=dtype,
            compressor=codec_name,
            error_bound=error_bound,
        )
        if want_context:
            values, context = codec.decompress_with_context(compressed, halo=halo)
        else:
            values, context = codec.decompress(compressed, halo=halo), None
        if tuple(values.shape) != tuple(extent):
            raise StoreCorruptionError(
                f"chunk decoded to shape {values.shape}, expected {extent}"
            )
        return np.asarray(values, dtype=dtype), context


def _decode_chunk_task(task):
    """The parallel reader's worker (top-level, picklable).

    Decodes one payload into its ``slot`` of the shared scratch array
    (a :class:`~repro.utils.parallel.SharedArraySpec`).  Halo chunks read
    their anchor neighbours' high faces (``planes``, scratch regions)
    straight out of it — the anchor level completes first.  The
    documented return payload is ``(slot, entropy_context_or_None)``.
    """

    (
        payload,
        codec_name,
        extent,
        error_bound,
        dtype,
        options,
        scratch,
        slot,
        planes,
        context,
        want_context,
    ) = task
    halo = None
    if planes is not None:
        halo = TileHalo.build(
            [None if plane is None else read_shared(scratch, plane) for plane in planes],
            context,
        )
    values, own_context = _decode_payload(
        payload, codec_name, extent, error_bound, np.dtype(dtype), options, halo,
        want_context,
    )
    write_shared(scratch, (slot,) + tuple(slice(0, e) for e in extent), values)
    return slot, own_context


class StoreSnapshot:
    """Read-only view of one consistent store state.

    Construct with :meth:`open` (atomic on-disk load), from an
    :class:`~repro.store.array_store.ArrayStore` via its ``snapshot()``
    method, or directly from ``(meta, index)`` plus an in-memory payload
    buffer (the serve layer's client-side decode).
    """

    def __init__(
        self,
        meta: Dict,
        index: List[IndexRecord],
        *,
        path: Optional[str] = None,
        data: Optional[bytes] = None,
    ) -> None:
        if path is None and data is None:
            raise ValueError("snapshot needs a store path or payload bytes")
        self._meta = meta
        self._index = list(index)
        self.path = str(path) if path is not None else None
        self._data = data

    @classmethod
    def open(cls, path: str, **load_kwargs) -> "StoreSnapshot":
        """Atomically load a consistent snapshot from a store directory."""

        meta, index = load_store_state(path, **load_kwargs)
        return cls(meta, index, path=path)

    # -- properties ------------------------------------------------------
    @property
    def meta(self) -> Dict:
        return self._meta

    @property
    def index(self) -> List[IndexRecord]:
        return list(self._index)

    @property
    def shape(self) -> Optional[Tuple[int, ...]]:
        return tuple(self._meta["shape"]) if self._meta["shape"] is not None else None

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self._meta["dtype"])

    @property
    def chunk_shape(self) -> Optional[Tuple[int, ...]]:
        chunk = self._meta["chunk_shape"]
        if chunk is None or np.isscalar(chunk):
            return None
        return tuple(chunk)

    @property
    def error_bound(self) -> float:
        return float(self._meta["error_bound"])

    @property
    def halo(self) -> bool:
        return bool(self._meta.get("halo", False))

    @property
    def codec_policy(self) -> str:
        return str(self._meta["codec"])

    @property
    def generation(self) -> int:
        """Write generation this snapshot observed (0 for legacy stores)."""

        return int(self._meta.get("generation", 0))

    @property
    def n_chunks(self) -> int:
        return len(self._index)

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        shape, chunk_shape = self.shape, self.chunk_shape
        return tuple(-(-s // e) for s, e in zip(shape, chunk_shape))

    @property
    def data_nbytes(self) -> int:
        """Size of the payload source (``chunks.bin`` or the buffer)."""

        if self._data is not None:
            return len(self._data)
        data_path = os.path.join(self.path, DATA_NAME)
        return os.path.getsize(data_path) if os.path.exists(data_path) else 0

    def payload_sha1(self, linear: int) -> Optional[str]:
        """Recorded content hash of chunk ``linear``'s payload, if any."""

        entries = self._meta.get("chunks") or []
        if 0 <= linear < len(entries):
            sha1 = entries[linear].get("payload_sha1")
            return str(sha1) if sha1 is not None else None
        return None

    def _open_data(self):
        if self._data is not None:
            return io.BytesIO(self._data)
        return open(os.path.join(self.path, DATA_NAME), "rb")

    # -- geometry --------------------------------------------------------
    def _grid_strides(self) -> List[int]:
        strides: List[int] = []
        stride = 1
        for count in reversed(self.grid_shape):
            strides.append(stride)
            stride *= count
        return list(reversed(strides))

    def linear_index(self, grid_index: Tuple[int, ...]) -> int:
        return sum(i * s for i, s in zip(grid_index, self._grid_strides()))

    def chunk_box(
        self, grid_index: Tuple[int, ...]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Array-space ``(offset, extent)`` of the chunk at ``grid_index``."""

        shape, chunk_shape = self.shape, self.chunk_shape
        offset = tuple(i * e for i, e in zip(grid_index, chunk_shape))
        extent = tuple(
            min(e, s - o) for e, s, o in zip(chunk_shape, shape, offset)
        )
        return offset, extent

    def normalize_region(self, region) -> Tuple[List[Tuple[int, int]], List[int]]:
        """Region → per-axis (start, stop) plus the axes to drop (ints)."""

        shape = self.shape
        if shape is None:
            raise StoreFormatError("store holds no data yet (write an array first)")
        if region is None:
            region = ()
        if not isinstance(region, tuple):
            region = (region,)
        if len(region) > len(shape):
            raise ValueError(
                f"region has {len(region)} axes but the array is {len(shape)}D"
            )
        bounds: List[Tuple[int, int]] = []
        drop_axes: List[int] = []
        for axis, length in enumerate(shape):
            if axis >= len(region):
                bounds.append((0, length))
                continue
            spec = region[axis]
            if isinstance(spec, (int, np.integer)):
                idx = int(spec)
                if idx < 0:
                    idx += length
                if not 0 <= idx < length:
                    raise IndexError(
                        f"index {spec} out of bounds for axis {axis} of length {length}"
                    )
                bounds.append((idx, idx + 1))
                drop_axes.append(axis)
            elif isinstance(spec, slice):
                if spec.step not in (None, 1):
                    raise ValueError("store reads support step-1 slices only")
                start, stop, _ = spec.indices(length)
                if stop <= start:
                    raise ValueError(
                        f"empty region on axis {axis}: {spec!r} over length {length}"
                    )
                bounds.append((start, stop))
            else:
                raise TypeError(
                    f"region entries must be int or slice, got {type(spec).__name__}"
                )
        return bounds, drop_axes

    def intersecting_chunks(
        self, bounds: List[Tuple[int, int]]
    ) -> List[Tuple[int, ...]]:
        """Grid indices of chunks intersecting ``bounds``, in C scan order."""

        chunk_ranges = [
            range(start // edge, -(-stop // edge))
            for (start, stop), edge in zip(bounds, self.chunk_shape)
        ]
        return list(product(*chunk_ranges))

    def halo_dependencies(self, grid_index: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        """Anchor neighbours the chunk at ``grid_index`` decodes against."""

        record = self._index[self.linear_index(grid_index)]
        is_halo, axes_mask, ref_axis = parse_halo_flags(record.flags)
        if not is_halo:
            return []
        deps: List[Tuple[int, ...]] = []
        axes = {axis for axis in range(len(self.shape)) if axes_mask & (1 << axis)}
        if ref_axis is not None:
            axes.add(ref_axis)
        for axis in sorted(axes):
            if grid_index[axis] == 0:
                continue
            deps.append(_step_back(grid_index, axis))
        return deps

    def _plane_sources(
        self, grid_index: Tuple[int, ...], axes_mask: int
    ) -> List[Tuple[int, Tuple[int, ...]]]:
        """``(axis, anchor)`` for every plane a halo chunk decodes against.

        The one halo-reference check of both readers: a referenced
        neighbour must lie inside the grid and be an anchor (a chunk that
        decodes standalone); anything else is a corrupt index.
        """

        sources = []
        for axis in range(len(grid_index)):
            if not axes_mask & (1 << axis):
                continue
            if grid_index[axis] == 0:
                raise StoreCorruptionError(
                    f"halo chunk at grid {grid_index} references a "
                    f"neighbour beyond the array edge (axis {axis})"
                )
            neighbour = _step_back(grid_index, axis)
            if self._index[self.linear_index(neighbour)].flags:
                raise StoreCorruptionError(
                    f"halo chunk at grid {grid_index} references the "
                    f"non-anchor chunk at grid {neighbour}"
                )
            sources.append((axis, neighbour))
        return sources

    # -- read ------------------------------------------------------------
    def read(
        self, region=None, *, chunk_cache=None, parallel: Optional[ParallelConfig] = None
    ) -> Tuple[np.ndarray, ReadReport]:
        """Read a subarray, decoding only the chunks the region intersects.

        ``region`` follows NumPy basic indexing restricted to step-1
        slices and integers (integers drop their axis); ``None`` reads the
        full array.  Halo-flagged chunks pull in their anchor neighbours
        (at most one extra standalone decode per axis — reads stay
        partial, never cascading further).

        ``chunk_cache`` optionally supplies a shared decoded-chunk cache
        (:class:`repro.serve.cache.HotChunkCache`); hits skip both the
        payload read and the decode.  Returns ``(values, report)``.

        ``parallel`` opts into the two-wave parallel decode (see
        :meth:`_read_parallel`); it requires a process pool with working
        shared memory and is mutually exclusive with ``chunk_cache``
        (the serve layer's hot path keeps the serial decoder) — either
        condition failing falls back to the serial path, whose output is
        bit-identical anyway.
        """

        if use_shared_arrays(parallel) and chunk_cache is None:
            return self._read_parallel(region, parallel)

        bounds, drop_axes = self.normalize_region(region)
        shape = self.shape
        grid_strides = self._grid_strides()

        out = np.empty(
            tuple(stop - start for start, stop in bounds), dtype=self.dtype
        )

        # Decode caches: payloads of standalone chunks are shared by byte
        # range (dedup — identical payload bytes determine both the values
        # and the derived entropy context), halo chunks are keyed by grid
        # position (identical payloads under different halos decode
        # differently).
        payload_cache: Dict[Tuple[int, int, str, Tuple[int, ...]], tuple] = {}
        values_cache: Dict[int, np.ndarray] = {}
        context_cache: Dict[int, object] = {}
        decodes = 0
        cache_hits = 0
        # Everything the decode depends on besides the payload bytes; part
        # of the shared-cache key so two stores serving byte-identical
        # chunks under different bounds/options never alias.
        decode_config = (
            float(self.error_bound),
            str(self.dtype),
            repr(
                sorted(
                    (k, sorted(v.items()))
                    for k, v in self._meta.get("compressor_options", {}).items()
                )
            ),
        )

        def decode_at(handle, grid_index, want_context=False):
            nonlocal decodes, cache_hits
            linear = sum(i * s for i, s in zip(grid_index, grid_strides))
            record = self._index[linear]
            is_halo, axes_mask, ref_axis = parse_halo_flags(record.flags)
            # In a halo store, anchors double as entropy-context references;
            # deriving the context during the first decode (one histogram
            # pass) avoids a second payload decode if a neighbour needs it.
            if self.halo and not is_halo:
                want_context = True
            if linear in values_cache and (
                not want_context or linear in context_cache
            ):
                return values_cache[linear]
            _, chunk_extent = self.chunk_box(grid_index)
            halo = None
            if is_halo:
                planes: List[Optional[np.ndarray]] = [None] * len(shape)
                for axis, neighbour in self._plane_sources(grid_index, axes_mask):
                    n_values = decode_at(
                        handle, neighbour, want_context=(axis == ref_axis)
                    )
                    planes[axis] = np.ascontiguousarray(
                        np.take(n_values, -1, axis=axis)
                    )
                context = None
                if ref_axis is not None:
                    neighbour = _step_back(grid_index, ref_axis)
                    n_linear = sum(
                        i * s for i, s in zip(neighbour, grid_strides)
                    )
                    if n_linear not in context_cache:
                        decode_at(handle, neighbour, want_context=True)
                    context = context_cache.get(n_linear)
                halo = TileHalo.build(planes, context)
            else:
                # Standalone payloads dedup by byte range; a cached entry
                # is reusable for a context-needing caller only when its
                # context was derived too.
                key = (record.offset, record.length, record.codec, chunk_extent)
                cached = payload_cache.get(key)
                if cached is not None and (not want_context or cached[1] is not None):
                    values_cache[linear] = cached[0]
                    if want_context:
                        context_cache[linear] = cached[1]
                    return cached[0]

            hot_key = None
            if chunk_cache is not None:
                sha1 = self.payload_sha1(linear)
                if sha1 is not None:
                    hot_key = (
                        sha1,
                        record.codec,
                        chunk_extent,
                        halo.digest() if halo is not None else None,
                        decode_config,
                    )
                    hot = chunk_cache.get(hot_key, want_context=want_context)
                    if hot is not None:
                        values, context = hot
                        cache_hits += 1
                        values_cache[linear] = values
                        if want_context:
                            context_cache[linear] = context
                        if not is_halo:
                            key = (
                                record.offset,
                                record.length,
                                record.codec,
                                chunk_extent,
                            )
                            payload_cache[key] = (values, context)
                        return values

            values, context = self._decode_chunk(
                handle, record, chunk_extent, halo=halo, want_context=want_context
            )
            decodes += 1
            values_cache[linear] = values
            if want_context:
                context_cache[linear] = context
            if not is_halo:
                key = (record.offset, record.length, record.codec, chunk_extent)
                payload_cache[key] = (values, context)
            if hot_key is not None:
                chunk_cache.put(hot_key, values, context)
            return values

        with self._open_data() as handle:
            # Same C scan order as grid_offsets — the linear index into
            # the record list depends on it.
            grid_indices = self.intersecting_chunks(bounds)
            for grid_index in grid_indices:
                chunk_offset, chunk_extent = self.chunk_box(grid_index)
                values = decode_at(handle, grid_index)
                # Intersection of the chunk box with the requested region,
                # in chunk-local and output coordinates.
                src = []
                dst = []
                for (start, stop), o, extent in zip(bounds, chunk_offset, chunk_extent):
                    lo = max(start, o)
                    hi = min(stop, o + extent)
                    src.append(slice(lo - o, hi - o))
                    dst.append(slice(lo - start, hi - start))
                out[tuple(dst)] = values[tuple(src)]

        report = ReadReport(
            region=tuple(bounds),
            chunks_total=len(self._index),
            chunks_intersecting=len(grid_indices),
            chunks_decoded=decodes,
            cache_hits=cache_hits,
        )
        if drop_axes:
            out = out.reshape(
                tuple(
                    s
                    for axis, s in enumerate(out.shape)
                    if axis not in drop_axes
                )
            )
        return out, report

    def _read_parallel(
        self, region, parallel: ParallelConfig
    ) -> Tuple[np.ndarray, ReadReport]:
        """Two-wave parallel region decode over a shared scratch array.

        The grid-parity layout makes the halo dependency graph exactly two
        levels deep: anchors (flags == 0) depend on nothing, halo chunks
        depend only on anchors.  So the schedule degenerates to two waves
        — all needed anchors decode concurrently, then all halo chunks —
        with workers writing into one shared scratch array (a slot per
        unique chunk) and halo workers reading their neighbours' high
        faces straight back out of it.  Standalone chunks with dedup-shared
        payload bytes share a slot and decode once, mirroring the serial
        payload cache.  Output is bit-identical to the serial path: halo
        planes and entropy contexts are schedule-independent.
        """

        bounds, drop_axes = self.normalize_region(region)
        chunk_shape = self.chunk_shape
        grid_indices = self.intersecting_chunks(bounds)

        # Needed set = intersecting chunks plus their anchor dependencies;
        # unique standalone payloads share a slot.
        slot_of: Dict[Tuple[int, ...], int] = {}
        payload_slot: Dict[tuple, int] = {}
        slot_grids: List[Tuple[int, ...]] = []
        # Two levels: anchors (flags == 0) depend on nothing, halo chunks
        # only on anchors.
        levels: Tuple[List, List] = ([], [])
        ordered: List[Tuple[int, ...]] = []
        seen = set()
        for grid_index in grid_indices:
            for dep in self.halo_dependencies(grid_index) + [grid_index]:
                if dep not in seen:
                    seen.add(dep)
                    ordered.append(dep)
        for grid_index in ordered:
            record = self._index[self.linear_index(grid_index)]
            is_halo, _, _ = parse_halo_flags(record.flags)
            _, extent = self.chunk_box(grid_index)
            if not is_halo:
                key = (record.offset, record.length, record.codec, extent)
                if key in payload_slot:
                    slot_of[grid_index] = payload_slot[key]
                    continue
                payload_slot[key] = len(slot_grids)
            slot_of[grid_index] = len(slot_grids)
            slot_grids.append(grid_index)
            levels[is_halo].append(grid_index)

        options_of = self._meta.get("compressor_options", {})
        out = np.empty(
            tuple(stop - start for start, stop in bounds), dtype=self.dtype
        )
        contexts: Dict[int, object] = {}
        with SharedArraySession() as session, WorkerPool(parallel) as pool:
            scratch_spec, scratch = session.allocate(
                (len(slot_grids),) + tuple(chunk_shape), self.dtype
            )
            with self._open_data() as handle, obs_span(
                "store.read.parallel",
                "store",
                chunks=len(slot_grids),
                anchors=len(levels[0]),
                halo=len(levels[1]),
            ):
                for wave, level in enumerate(levels):
                    tasks = []
                    for grid_index in level:
                        record = self._index[self.linear_index(grid_index)]
                        _, extent = self.chunk_box(grid_index)
                        planes = context = None
                        if wave:
                            _, axes_mask, ref_axis = parse_halo_flags(record.flags)
                            planes = [None] * len(extent)
                            for axis, neighbour in self._plane_sources(
                                grid_index, axes_mask
                            ):
                                _, n_extent = self.chunk_box(neighbour)
                                planes[axis] = (slot_of[neighbour],) + tuple(
                                    n - 1 if a == axis else slice(0, n)
                                    for a, n in enumerate(n_extent)
                                )
                            if ref_axis is not None:
                                reference = _step_back(grid_index, ref_axis)
                                context = contexts.get(slot_of[reference])
                        # Anchors double as entropy-context references in
                        # a halo store; deriving the context in the same
                        # decode avoids a second pass (as the serial path
                        # does).
                        tasks.append(
                            (
                                self._read_payload(handle, record),
                                record.codec,
                                extent,
                                self.error_bound,
                                str(self.dtype),
                                dict(options_of.get(record.codec, {})),
                                scratch_spec,
                                slot_of[grid_index],
                                planes,
                                context,
                                self.halo and not wave,
                            )
                        )
                    with obs_span(
                        "store.decode_wave", "store", wave=wave, chunks=len(tasks)
                    ):
                        for slot, own_context in traced_map(
                            pool, _decode_chunk_task, tasks, f"wave{wave}.chunk"
                        ):
                            contexts[slot] = own_context

            for grid_index in grid_indices:
                chunk_offset, chunk_extent = self.chunk_box(grid_index)
                slot = slot_of[grid_index]
                src = [slot]
                dst = []
                for (start, stop), o, extent in zip(bounds, chunk_offset, chunk_extent):
                    lo = max(start, o)
                    hi = min(stop, o + extent)
                    src.append(slice(lo - o, hi - o))
                    dst.append(slice(lo - start, hi - start))
                out[tuple(dst)] = scratch[tuple(src)]
            del scratch

        report = ReadReport(
            region=tuple(bounds),
            chunks_total=len(self._index),
            chunks_intersecting=len(grid_indices),
            chunks_decoded=len(slot_grids),
        )
        if drop_axes:
            out = out.reshape(
                tuple(
                    s
                    for axis, s in enumerate(out.shape)
                    if axis not in drop_axes
                )
            )
        return out, report

    def _read_payload(self, handle, record: IndexRecord) -> bytes:
        """Read and CRC-check one chunk's payload bytes."""

        handle.seek(record.offset)
        payload = handle.read(record.length)
        if len(payload) != record.length:
            raise StoreCorruptionError(
                f"truncated chunk payload: wanted {record.length} bytes at "
                f"offset {record.offset}, got {len(payload)}"
            )
        if zlib.crc32(payload) != record.checksum:
            raise StoreCorruptionError(
                f"chunk checksum mismatch at offset {record.offset} "
                f"(codec {record.codec})"
            )
        return payload

    def _decode_chunk(
        self,
        handle,
        record: IndexRecord,
        chunk_extent: Tuple[int, ...],
        halo: Optional[TileHalo] = None,
        want_context: bool = False,
    ):
        """Read and decode one payload; ``(values, entropy_context_or_None)``."""

        options = self._meta.get("compressor_options", {}).get(record.codec, {})
        return _decode_payload(
            self._read_payload(handle, record),
            record.codec,
            chunk_extent,
            self.error_bound,
            self.dtype,
            options,
            halo,
            want_context,
        )

    # -- inspection ------------------------------------------------------
    def info(self) -> Dict:
        """JSON-friendly summary of this snapshot (the serve ``info``)."""

        shape = self.shape
        codec_histogram: Dict[str, int] = {}
        for record in self._index:
            codec_histogram[record.codec] = codec_histogram.get(record.codec, 0) + 1
        original = (
            int(np.prod(shape)) * self.dtype.itemsize if shape is not None else 0
        )
        compressed = sum(record.length for record in self._index)
        stored = sum(
            length
            for (_, length) in {(r.offset, r.length) for r in self._index}
        )
        live = live_payload_nbytes(self._index)
        data_file = self.data_nbytes
        return {
            "shape": list(shape) if shape is not None else None,
            "dtype": str(self.dtype),
            "chunk_shape": list(self.chunk_shape) if self.chunk_shape else None,
            "n_chunks": self.n_chunks,
            "codec_policy": self.codec_policy,
            "error_bound": self.error_bound,
            "halo": self.halo,
            "halo_chunks": sum(1 for record in self._index if record.flags),
            "generation": self.generation,
            "original_nbytes": original,
            "compressed_nbytes": compressed,
            "stored_nbytes": stored,
            "data_file_nbytes": data_file,
            "orphaned_nbytes": max(0, data_file - live),
            "compression_ratio": (
                original / compressed if compressed else float("inf")
            ),
            "codec_histogram": codec_histogram,
        }
