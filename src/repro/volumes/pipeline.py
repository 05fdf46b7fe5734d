"""Tiled compression pipeline for 3D volumes.

The paper's application data is volumetric (Miranda hydrodynamics
snapshots); with the dimension-general block-codec engine the compressors
accept 3D arrays natively, and this module supplies the scale-out layer
around them:

* :func:`shard_volume` cuts a large volume into axis-aligned tiles (edge
  tiles may be smaller — the compressors pad internally), so a volume far
  larger than memory-friendly working sets streams through the codec one
  tile at a time;
* :func:`compress_volume` runs the tiles through a compressor — optionally
  over a :class:`repro.utils.parallel.ParallelConfig` process pool — and
  memoizes per-tile results in the shared
  :class:`repro.core.pipeline.ExperimentCache` (content-hash keyed, so
  repeated tiles such as quiescent far-field regions are compressed once);
* :func:`decompress_volume` reassembles the tiles back into the volume;
* both run on one wavefront scheduler per direction (``_compress_slabs`` /
  ``_decode_slabs``), shared with :mod:`repro.volumes.streaming`: slabs
  of whole tile rows, and within a slab barrier-synchronised levels of
  tiles, serially or over a worker pool;
* :func:`measure_volume_field` produces the same
  :class:`~repro.core.experiment.CompressionRecord` rows the 2D pipeline
  emits, with the 3D variogram range as the correlation statistic, which
  is what lets :func:`repro.core.pipeline.run_experiment` sweep volume
  datasets transparently;
* :func:`slice_baseline` is the paper's original slice-by-slice procedure,
  kept as the comparison baseline for the native volume path.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compressors.base import CompressedField
from repro.compressors.halo import TileHalo, reconstruction_faces
from repro.compressors.registry import make_compressor
from repro.core.pipeline import ExperimentCache, memoized_map
from repro.obs.metrics import REGISTRY, publish_cache_counters
from repro.obs.trace import span as obs_span, traced_map
from repro.pressio.metrics import CompressionMetrics, error_statistics
from repro.utils.blocking import grid_offsets
from repro.utils.parallel import (
    ParallelConfig,
    SharedArraySession,
    SharedArraySpec,
    WorkerPool,
    read_shared,
    use_shared_arrays,
    write_shared,
)
from repro.utils.validation import ensure_ndim, ensure_positive

__all__ = [
    "VolumeTile",
    "CompressedVolume",
    "tile_offsets",
    "shard_volume",
    "compress_volume",
    "decompress_volume",
    "volume_metrics",
    "slice_baseline",
    "measure_volume_field",
    "default_volume_cache",
]

#: Default tile edge; 64^3 float64 tiles are 2 MB — large enough that the
#: per-tile container overhead vanishes, small enough to parallelise.
DEFAULT_TILE_SHAPE = (64, 64, 64)

_VOLUME_CACHE = ExperimentCache(max_entries=128)


def default_volume_cache() -> ExperimentCache:
    """The process-wide tile cache used when no cache is passed."""

    return _VOLUME_CACHE


def _publish_volume_cache(registry) -> None:
    publish_cache_counters(registry, "volume-tile", _VOLUME_CACHE.counters())


REGISTRY.register_collector(_publish_volume_cache)


def _record_compress(result: "CompressedVolume", began: float) -> "CompressedVolume":
    """Publish one compress_volume call into the process-wide registry.

    Tile throughput and end-to-end latency of the wave/tile path, by
    compressor — the numbers the serve layer's metrics history and
    ``/debug`` dashboard chart for ingest-heavy workloads.
    """

    labels = {"compressor": result.compressor}
    REGISTRY.counter(
        "repro_volume_tiles_compressed_total",
        len(result.tiles),
        labels,
        help="Tiles processed by compress_volume, by compressor.",
    )
    REGISTRY.observe(
        "repro_volume_compress_seconds",
        time.perf_counter() - began,
        labels,
        help="compress_volume wall time by compressor.",
    )
    return result


@dataclass(frozen=True)
class VolumeTile:
    """One compressed tile and its position in the volume."""

    offset: Tuple[int, int, int]
    compressed: CompressedField


@dataclass(frozen=True)
class CompressedVolume:
    """A tiled compressed volume: the tiles plus bookkeeping.

    ``cache_counters`` reports the tile-memo effectiveness of the
    producing :func:`compress_volume` call (hits / misses / evictions of
    the :class:`~repro.core.pipeline.ExperimentCache` during that call,
    plus the number of in-call duplicate tiles resolved without a cache
    lookup); ``None`` when memoization was disabled.

    ``halo`` marks a halo-aware volume: tiles were compressed against
    their low-face neighbours' reconstructed planes and entropy contexts
    (wavefront order), and :func:`decompress_volume` must replay the same
    chain — tiles of a halo volume are not independently decodable.
    """

    shape: Tuple[int, int, int]
    tile_shape: Tuple[int, int, int]
    compressor: str
    error_bound: float
    tiles: Tuple[VolumeTile, ...]
    cache_counters: Optional[Dict[str, int]] = None
    halo: bool = False

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def original_nbytes(self) -> int:
        return sum(tile.compressed.original_nbytes for tile in self.tiles)

    @property
    def compressed_nbytes(self) -> int:
        return sum(tile.compressed.compressed_nbytes for tile in self.tiles)

    @property
    def compression_ratio(self) -> float:
        compressed = self.compressed_nbytes
        if compressed == 0:
            return float("inf")
        return self.original_nbytes / compressed

    @property
    def metrics(self) -> Dict[str, int]:
        """``cache_counters`` under the unified registry names.

        The canonical observability names for the tile memo (the legacy
        ``cache_counters`` keys stay available as aliases for one
        release); empty when memoization was disabled.
        """

        counters = self.cache_counters or {}
        names = {
            "hits": 'repro_cache_hits_total{cache="volume-tile"}',
            "misses": 'repro_cache_misses_total{cache="volume-tile"}',
            "evictions": 'repro_cache_evictions_total{cache="volume-tile"}',
            "in_call_duplicates": (
                'repro_cache_in_call_duplicates_total{cache="volume-tile"}'
            ),
        }
        return {
            names[key]: value for key, value in counters.items() if key in names
        }


def _check_volume(volume: np.ndarray) -> np.ndarray:
    return ensure_ndim(volume, (3,), "volume")


def _check_tile_shape(tile_shape: Sequence[int]) -> Tuple[int, int, int]:
    tile = tuple(int(t) for t in tile_shape)
    if len(tile) != 3:
        raise ValueError(f"tile_shape must have 3 entries, got {tile_shape}")
    for edge in tile:
        ensure_positive(edge, "tile edge")
    return tile


def tile_offsets(
    shape: Sequence[int], tile_shape: Sequence[int]
) -> List[Tuple[int, int, int]]:
    """Scan-order offsets of the tiles covering ``shape``."""

    tile = _check_tile_shape(tile_shape)
    return grid_offsets(tuple(int(s) for s in shape), tile)


def shard_volume(
    volume: np.ndarray, tile_shape: Sequence[int] = DEFAULT_TILE_SHAPE
) -> List[Tuple[Tuple[int, int, int], np.ndarray]]:
    """Cut a volume into C-contiguous tiles; edge tiles may be smaller."""

    vol = _check_volume(volume)
    tile = _check_tile_shape(tile_shape)
    out: List[Tuple[Tuple[int, int, int], np.ndarray]] = []
    for offset in tile_offsets(vol.shape, tile):
        region = tuple(
            slice(start, start + edge) for start, edge in zip(offset, tile)
        )
        out.append((offset, np.ascontiguousarray(vol[region])))
    return out


class _ArraySlabSource:
    """Slab reader over an in-memory (or memory-mapped) 3D array."""

    def __init__(self, volume: np.ndarray) -> None:
        if volume.ndim != 3:
            raise ValueError(f"streaming expects a 3D volume, got {volume.ndim}D")
        self._volume = volume
        self.shape = tuple(int(s) for s in volume.shape)
        self.dtype = volume.dtype

    def read(self, row_start: int, rows: int) -> np.ndarray:
        return np.ascontiguousarray(self._volume[row_start : row_start + rows])


# ---------------------------------------------------------------------------
# The wavefront scheduler
#
# Both directions walk the volume in slabs of whole tile rows and, within a
# slab, in barrier-synchronised levels: the anti-diagonals of the tile grid
# for halo volumes (every tile's low-face neighbours sit in an earlier level
# of this slab or in an earlier slab), one level of independent tiles
# otherwise.  The one-shot calls are the single-slab case (slab = all rows),
# the streaming calls use one tile row per slab; halo inputs are
# schedule-independent, so both produce the same bytes.
# ---------------------------------------------------------------------------


def _tile_region(offset: Sequence[int], extent: Sequence[int], row_base: int = 0):
    """Region of a tile at volume ``offset`` in a buffer starting at row ``row_base``."""

    start = (offset[0] - row_base,) + tuple(offset[1:])
    return tuple(slice(s, s + length) for s, length in zip(start, extent))


def _tile_extent(offset, tile, shape) -> Tuple[int, int, int]:
    return tuple(min(t, s - o) for t, s, o in zip(tile, shape, offset))


def _waves(offsets, tile, halo: bool):
    """One slab's tiles as ``[(wave, offsets)]`` levels, scan order within.

    ``wave`` labels the level in traces: the tile-grid anti-diagonal
    ``sum(offset // tile)`` for halo tiles, the slab's first grid row
    otherwise.
    """

    if not halo:
        return [(offsets[0][0] // tile[0], list(offsets))]
    levels: Dict[int, List[Tuple[int, int, int]]] = {}
    for offset in offsets:
        wave = sum(o // t for o, t in zip(offset, tile))
        levels.setdefault(wave, []).append(offset)
    return sorted(levels.items())


def _halo_inputs(offset, tile, extent, row_base: int = 0):
    """What the tile at ``offset`` borrows from its low-face neighbours.

    Returns ``(faces, reference)``.  ``faces[axis]`` is ``None`` on the
    volume's low boundary, else ``(neighbour, plane)``: the offset of the
    neighbour whose high face the tile predicts from, and that face's
    region in a buffer starting at row ``row_base``.  ``reference`` is the
    offset of the neighbour whose entropy context the tile borrows — the
    one along the highest axis with a low neighbour (the most recently
    coded in scan order) — or ``None`` for the origin tile.  Encoder and
    decoder derive both from the offset, so neither is serialised.
    """

    local = (offset[0] - row_base,) + tuple(offset[1:])
    faces = []
    for axis in range(3):
        if offset[axis] == 0:
            faces.append(None)
            continue
        neighbour = tuple(
            o - t if a == axis else o for a, (o, t) in enumerate(zip(offset, tile))
        )
        plane = tuple(
            local[a] - 1 if a == axis else slice(local[a], local[a] + extent[a])
            for a in range(3)
        )
        faces.append((neighbour, plane))
    reference = next((face[0] for face in reversed(faces) if face is not None), None)
    return faces, reference


class _HaloChain:
    """Halo state in flight: what finished tiles hand their dependants.

    ``faces`` maps ``(offset, axis)`` to a finished tile's high face along
    ``axis`` (compress side; the decoder reads planes from its output).
    Each face has one reader and is popped by it; a context is dropped
    after its last reader takes it, so the chain holds only what tiles
    not yet dispatched still need.
    """

    def __init__(self, shape, tile) -> None:
        self.shape, self.tile = shape, tile
        self.faces: Dict[Tuple[Tuple[int, int, int], int], np.ndarray] = {}
        self._contexts: Dict[Tuple[int, int, int], list] = {}

    def finish(self, offset, context, faces=None) -> None:
        has_high = [o + t < s for o, t, s in zip(offset, self.tile, self.shape)]
        for axis, plane in (faces or {}).items():
            if has_high[axis]:
                self.faces[(offset, axis)] = plane
        # The high neighbour along ``axis`` borrows this context when it
        # has no low neighbour on a higher axis, i.e. this tile sits on
        # the low boundary of every axis above ``axis``.
        readers = sum(
            1 for axis in range(3) if has_high[axis] and not any(offset[axis + 1 :])
        )
        if readers:
            self._contexts[offset] = [context, readers]

    def context(self, reference):
        if reference is None:
            return None
        entry = self._contexts[reference]
        entry[1] -= 1
        if not entry[1]:
            del self._contexts[reference]
        return entry[0]


def _encode_tile(task):
    """The compress worker (top-level, picklable).

    ``source`` is the tile itself, or a
    :class:`~repro.utils.parallel.SharedArraySpec` of the slab that the
    tile's ``region`` is read from in place.  Returns the documented
    ``(compressed, faces, context)`` triple without the reconstruction
    (it would double the IPC payload): in halo mode ``faces`` holds the
    three high faces its neighbours predict from and ``context`` the
    tile's entropy context; both are ``None`` otherwise.
    """

    name, error_bound, options, halo_mode, halo, source, region = task
    tile = read_shared(source, region) if isinstance(source, SharedArraySpec) else source
    with obs_span("volume.tile", "volume", shape=repr(tile.shape)):
        compressor = make_compressor(name, error_bound, **options)
        if not halo_mode:
            return replace(compressor.compress(tile), reconstruction=None), None, None
        if getattr(compressor, "supports_halo", False):
            compressed = compressor.compress(tile, halo=halo, collect_context=True)
        else:
            compressed = compressor.compress(tile)
        faces = reconstruction_faces(compressed.reconstruction)
    stripped = replace(compressed, reconstruction=None, entropy_context=None)
    return stripped, faces, compressed.entropy_context


def _decode_tile(task):
    """The decode worker (top-level, picklable).

    ``target`` is the output slab: an in-process array (serial and
    thread-pool runs) or a :class:`~repro.utils.parallel.SharedArraySpec`
    of it (process workers).  ``planes`` (``None`` without halo) are the
    regions of the low-face neighbours' planes in it — their levels are
    complete — and the reconstruction is written to ``region``.  Returns
    ``(shape, entropy_context)``.
    """

    name, error_bound, compressed, target, region, planes, context = task
    shared = isinstance(target, SharedArraySpec)
    codec = make_compressor(name, error_bound)
    with obs_span("volume.tile.decode", "volume", shape=repr(compressed.original_shape)):
        if planes is None or not getattr(codec, "supports_halo", False):
            values, own_context = codec.decompress(compressed), None
        else:
            read = partial(read_shared, target) if shared else target.__getitem__
            halo = TileHalo.build(
                [None if plane is None else read(plane) for plane in planes], context
            )
            values, own_context = codec.decompress_with_context(compressed, halo=halo)
        if shared:
            write_shared(target, region, values)
        else:
            target[region] = values
    return tuple(values.shape), own_context


def _compress_slabs(
    reader,
    slab_rows: int,
    compressor: str,
    error_bound: float,
    tile: Tuple[int, int, int],
    compressor_options: Optional[Dict],
    parallel: Optional[ParallelConfig],
    cache: Union[ExperimentCache, bool, None],
    halo: bool,
) -> CompressedVolume:
    """The compress scheduler: ``reader.read`` one slab at a time, in levels.

    Each slab is shared once when process workers with shared memory run
    its tiles, and released before the next read, so at most one slab is
    resident.  Every level is one :func:`memoized_map` batch; its counters
    are summed into ``cache_counters``.
    """

    ensure_positive(error_bound, "error_bound")
    options = dict(compressor_options or {})
    if cache is None or cache is True:
        cache = _VOLUME_CACHE
    elif cache is False:
        cache = None
    config_key = f"{compressor}:{error_bound!r}:{sorted(options.items())!r}"
    shape = tuple(reader.shape)
    began = time.perf_counter()
    chain = _HaloChain(shape, tile)
    results: Dict[Tuple[int, int, int], CompressedField] = {}
    counters: Counter = Counter()

    def run_level(slab, spec, row_start, wave, offsets) -> None:
        items = []
        for offset in offsets:
            extent = _tile_extent(offset, tile, shape)
            tile_halo = None
            if halo:
                faces, reference = _halo_inputs(offset, tile, extent)
                planes = [
                    None if face is None else chain.faces.pop((face[0], axis), None)
                    for axis, face in enumerate(faces)
                ]
                tile_halo = TileHalo.build(planes, chain.context(reference))
            items.append((offset, _tile_region(offset, extent, row_start), tile_halo))

        def key_fn(item) -> str:
            _, region, tile_halo = item
            if not halo:
                return ExperimentCache.key("volume-tile", config_key, slab[region], "")
            halo_key = tile_halo.digest() if tile_halo is not None else "-"
            return ExperimentCache.key(
                "volume-tile-halo", f"{config_key}:{halo_key}", slab[region], ""
            )

        def compute_many(pending):
            tasks = [
                (
                    compressor,
                    error_bound,
                    options,
                    halo,
                    tile_halo,
                    spec if spec is not None else np.ascontiguousarray(slab[region]),
                    region,
                )
                for _, region, tile_halo in pending
            ]
            return traced_map(pool, _encode_tile, tasks, f"wave{wave}.tile")

        with obs_span("volume.wave", "volume", wave=wave, tiles=len(items)):
            triples, level_counters = memoized_map(items, key_fn, compute_many, cache)
        counters.update(level_counters or {})
        for (offset, _, _), (compressed, faces, context) in zip(items, triples):
            results[offset] = compressed
            if halo:
                chain.finish(offset, context, faces)

    with WorkerPool(parallel) as pool:
        for row_start in range(0, shape[0], slab_rows):
            slab = reader.read(row_start, min(slab_rows, shape[0] - row_start))
            offsets = [
                (row_start + o[0], o[1], o[2]) for o in tile_offsets(slab.shape, tile)
            ]
            with SharedArraySession() as session:
                spec = session.share(slab) if use_shared_arrays(parallel) else None
                for wave, level in _waves(offsets, tile, halo):
                    run_level(slab, spec, row_start, wave, level)
            # Release the slab before the next read so the peak holds one
            # slab, not two.
            del slab

    return _record_compress(
        CompressedVolume(
            shape=shape,
            tile_shape=tile,
            compressor=compressor,
            error_bound=float(error_bound),
            tiles=tuple(
                VolumeTile(offset=offset, compressed=results[offset])
                for offset in tile_offsets(shape, tile)
            ),
            cache_counters=dict(counters) if cache is not None else None,
            halo=halo,
        ),
        began,
    )


def _decode_slabs(
    compressed: CompressedVolume,
    slab_rows: int,
    parallel: Optional[ParallelConfig] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """The decode scheduler: yields ``(row_start, slab)`` in slab order.

    Workers write into the slab buffer and read halo planes back out of
    it, so a pool runs only when they share it: threads, or process
    workers over shared memory.  Halo slabs after the first carry one
    extra leading row, the previous slab's last row, which the axis-0
    planes of their tiles read; the entropy contexts the chain still
    needs are the only other carry.
    """

    shape, tile, halo = compressed.shape, compressed.tile_shape, compressed.halo
    shared = use_shared_arrays(parallel)
    if not shared and parallel is not None and parallel.use_processes:
        parallel = None
    by_slab: Dict[int, Dict[Tuple[int, int, int], CompressedField]] = {}
    for vtile in compressed.tiles:
        by_slab.setdefault(vtile.offset[0] // slab_rows, {})[vtile.offset] = (
            vtile.compressed
        )
    chain = _HaloChain(shape, tile)
    previous_row: Optional[np.ndarray] = None

    with WorkerPool(parallel) as pool:
        for row_start in range(0, shape[0], slab_rows):
            row_base = row_start if previous_row is None else row_start - 1
            rows = min(row_start + slab_rows, shape[0]) - row_base
            slab_tiles = by_slab[row_start // slab_rows]
            with SharedArraySession() as session:
                if shared:
                    target, buffer = session.allocate((rows,) + shape[1:], np.float64)
                else:
                    buffer = target = np.empty((rows,) + shape[1:], dtype=np.float64)
                if previous_row is not None:
                    buffer[0] = previous_row
                for wave, offsets in _waves(list(slab_tiles), tile, halo):
                    tasks = []
                    for offset in offsets:
                        extent = _tile_extent(offset, tile, shape)
                        planes = context = None
                        if halo:
                            faces, reference = _halo_inputs(offset, tile, extent, row_base)
                            planes = [None if face is None else face[1] for face in faces]
                            context = chain.context(reference)
                        tasks.append(
                            (
                                compressed.compressor,
                                compressed.error_bound,
                                slab_tiles[offset],
                                target,
                                _tile_region(offset, extent, row_base),
                                planes,
                                context,
                            )
                        )
                    with obs_span("volume.wave", "volume", wave=wave, tiles=len(tasks)):
                        decoded = traced_map(pool, _decode_tile, tasks, f"wave{wave}.tile")
                    if halo:
                        for offset, (_, own_context) in zip(offsets, decoded):
                            chain.finish(offset, own_context)
                slab = buffer[row_start - row_base :]
                if shared:
                    slab = slab.copy()
                del buffer
            if halo:
                previous_row = slab[-1].copy()
            yield row_start, slab


def compress_volume(
    volume: np.ndarray,
    compressor: str = "sz",
    error_bound: float = 1e-3,
    *,
    tile_shape: Sequence[int] = DEFAULT_TILE_SHAPE,
    compressor_options: Optional[Dict] = None,
    parallel: Optional[ParallelConfig] = None,
    cache: Union[ExperimentCache, bool, None] = None,
    halo: bool = False,
) -> CompressedVolume:
    """Compress a 3D volume tile by tile.

    ``cache`` selects the per-tile memo: ``None`` (default) uses the
    process-wide volume cache, an :class:`ExperimentCache` instance uses
    that cache, and ``False`` disables memoization.  Tiles are keyed by
    their content hash plus the (compressor, bound, options) configuration,
    so byte-identical tiles — constant or repeated regions — compress once.

    ``parallel`` runs each level's tiles over a worker pool; process
    workers read their tiles out of one shared-memory copy of the volume.

    ``halo=True`` turns on halo-aware tiling: tiles are scheduled in
    wavefront order (anti-diagonals of the tile grid — every tile's
    low-face neighbours belong to an earlier wave, tiles within a wave
    stay independent and parallelise as before), and each tile compresses
    against a :class:`~repro.compressors.halo.TileHalo` of its neighbours'
    reconstructed faces and entropy context.  This recovers the cross-tile
    correlation and entropy-coder amortisation that independent tiles
    lose; the tiles are then only decodable through
    :func:`decompress_volume`'s matching wavefront replay.  Memo keys
    include the halo digest, so halo tiles never alias halo-off results.

    This is the single-slab case of
    :func:`repro.volumes.streaming.compress_volume_stream`: the same
    scheduler with every row in one slab, so the bytes are identical.
    """

    vol = _check_volume(volume)
    tile = _check_tile_shape(tile_shape)
    with obs_span(
        "volume.compress",
        "volume",
        compressor=compressor,
        tiles=len(tile_offsets(vol.shape, tile)),
        halo=halo,
        zero_copy=use_shared_arrays(parallel),
    ):
        return _compress_slabs(
            _ArraySlabSource(vol),
            vol.shape[0],
            compressor,
            error_bound,
            tile,
            compressor_options,
            parallel,
            cache,
            halo,
        )


def decompress_volume(
    compressed: CompressedVolume,
    *,
    parallel: Optional[ParallelConfig] = None,
) -> np.ndarray:
    """Reassemble the volume from its compressed tiles.

    Tiles decode level by level — the anti-diagonals of the tile grid for
    a halo volume, one level otherwise — each tile against halo planes
    read straight from the already-reconstructed output and the entropy
    context its reference neighbour's decode regenerated: bit-identical
    to what the encoder saw, by construction.

    ``parallel`` decodes each level's tiles concurrently, with workers
    writing into one output array.  A thread pool shares it directly; a
    process pool needs working shared memory and otherwise falls back to
    the serial decode, as does ``workers == 1``.  Every schedule's output
    is bit-identical.
    """

    with obs_span(
        "volume.decompress",
        "volume",
        compressor=compressed.compressor,
        tiles=compressed.n_tiles,
        halo=compressed.halo,
        zero_copy=use_shared_arrays(parallel),
    ):
        # The single slab; unpacking runs the scheduler to its end, which
        # closes its pool and shared-memory session.
        ((_, out),) = _decode_slabs(compressed, compressed.shape[0], parallel)
    return out


def volume_metrics(
    volume: np.ndarray,
    compressed: CompressedVolume,
    reconstruction: Optional[np.ndarray] = None,
) -> CompressionMetrics:
    """Volume-level :class:`CompressionMetrics` (the tiled analogue of
    :func:`repro.pressio.metrics.evaluate_metrics`)."""

    vol = np.asarray(_check_volume(volume), dtype=np.float64)
    if reconstruction is None:
        reconstruction = decompress_volume(compressed)
    max_abs_error, rmse, value_range, psnr = error_statistics(vol, reconstruction)
    return CompressionMetrics(
        compression_ratio=compressed.compression_ratio,
        bit_rate=8.0 * compressed.compressed_nbytes / vol.size,
        max_abs_error=max_abs_error,
        rmse=rmse,
        psnr=psnr,
        value_range=value_range,
        error_bound=compressed.error_bound,
        bound_satisfied=max_abs_error <= compressed.error_bound * (1.0 + 1e-9),
    )


def slice_baseline(
    volume: np.ndarray,
    compressor: str = "sz",
    error_bound: float = 1e-3,
    *,
    axis: int = 0,
    compressor_options: Optional[Dict] = None,
) -> float:
    """Compression ratio of the paper's slice-by-slice procedure.

    Every plane along ``axis`` is compressed independently as a 2D field;
    the aggregate CR is the comparison baseline for the native volume
    pipeline (which sees cross-slice correlation the baseline cannot).
    """

    vol = _check_volume(volume)
    codec = make_compressor(
        compressor, error_bound, **(compressor_options or {})
    )
    original = 0
    compressed = 0
    for index in range(vol.shape[axis]):
        plane = np.ascontiguousarray(np.take(vol, index, axis=axis))
        result = codec.compress(plane)
        original += result.original_nbytes
        compressed += result.compressed_nbytes
    return original / compressed if compressed else float("inf")


def measure_volume_field(
    volume: np.ndarray,
    *,
    dataset: str,
    field_label: str,
    config=None,
) -> list:
    """Measure one 3D field under every (compressor, bound) of ``config``.

    Returns the same :class:`~repro.core.experiment.CompressionRecord`
    rows :func:`repro.core.experiment.measure_field` produces for 2D
    fields, so volume datasets flow through
    :func:`repro.core.pipeline.run_experiment` and the CSV/reporting layer
    unchanged.  The correlation statistics are the *3D* analogues: the
    global 3D variogram range
    (:func:`repro.stats.variogram3d.estimate_variogram_range_3d`) and —
    when the volume admits complete ``window^3`` cubes — the std of the
    windowed local 3D variogram ranges
    (:func:`repro.stats.variogram3d.std_local_variogram_range_3d`), the
    Fig. 7 statistic for volumes.  The local SVD statistic has no 3D
    analogue here and stays NaN.
    """

    from repro.core.experiment import (
        CompressionRecord,
        CorrelationStatistics,
        ExperimentConfig,
    )
    from repro.stats.variogram3d import (
        estimate_variogram_range_3d,
        std_local_variogram_range_3d,
    )

    vol = np.asarray(_check_volume(volume), dtype=np.float64)
    config = config or ExperimentConfig()

    global_range = float("nan")
    if config.compute_global_range:
        try:
            global_range = float(estimate_variogram_range_3d(vol))
        except (ValueError, RuntimeError):
            global_range = float("nan")
    std_local_range = float("nan")
    if config.compute_local_variogram and min(vol.shape) >= config.window:
        try:
            std_local_range = float(
                std_local_variogram_range_3d(vol, config.window)
            )
        except (ValueError, RuntimeError):
            std_local_range = float("nan")
    statistics = CorrelationStatistics(
        global_variogram_range=global_range,
        std_local_variogram_range=std_local_range,
        field_variance=float(vol.var()),
        field_mean=float(vol.mean()),
    )

    records = []
    for name in config.compressors:
        options = dict(config.compressor_options.get(name, {}))
        for bound in config.error_bounds:
            compressed = compress_volume(
                vol, name, bound, compressor_options=options
            )
            metrics = volume_metrics(vol, compressed)
            records.append(
                CompressionRecord(
                    dataset=dataset,
                    field_label=field_label,
                    compressor=name,
                    error_bound=float(bound),
                    compression_ratio=metrics.compression_ratio,
                    metrics=metrics,
                    statistics=statistics,
                )
            )
    return records
