"""Out-of-program span recorder for the benchmark's traced runs.

The benchmark measures the program's layers from outside: :func:`install`
replaces public functions and methods of the ``repro`` modules with
wrappers that record a span (name, start, end, parent, op id, thread)
around each call and bump counters.  Nothing under ``src/`` changes.

* Spans stay in memory and each process writes its own
  ``spans-<pid>-<n>.json`` into the trace directory when it finishes:
  the work process explicitly, forked pool workers through a
  ``multiprocessing`` exit finalizer, the traced server from its launcher.
  :func:`load_trace` merges the files.
* ``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared by every
  process, so spans of different processes share one time axis.
* A layer's self time is its span minus the part of that interval its
  child spans cover.  A server span whose op id is a client request's id
  is a child of that request's client-side span.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import defaultdict

_STACK: "contextvars.ContextVar[tuple]" = contextvars.ContextVar(
    "perfbench_span_stack", default=()
)
_OP: "contextvars.ContextVar[str]" = contextvars.ContextVar("perfbench_op", default="")

#: The recorder the wrappers report to.  Module-level because forked pool
#: workers reach it through :class:`_PoolTask`, which pickles by reference.
_ACTIVE = None

#: Client-side span names whose op id adopts server-side root spans.
_REQUEST_SPAN = "serve.request"


class Recorder:
    """Spans and counters of one process (reset in forked children)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.op_source = None
        self._lock = threading.Lock()
        self._files = itertools.count()
        self._reset(child=False)
        os.register_at_fork(after_in_child=lambda: self._reset(child=True))

    def _reset(self, child: bool) -> None:
        self.pid = os.getpid()
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.histograms: set = set()
        self._ids = itertools.count(1)
        # A forked pool worker flushes when it exits; the finalizer can
        # only be registered once the worker's bootstrap has run.
        self._needs_finalizer = child

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""

        if self._needs_finalizer:
            self._needs_finalizer = False
            multiprocessing.util.Finalize(None, self.flush, exitpriority=100)
        parents = _STACK.get()
        span_id = next(self._ids)
        token = _STACK.set(parents + (span_id,))
        op = _OP.get()
        if not op and self.op_source is not None:
            op = self.op_source()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _STACK.reset(token)
            self.spans.append(
                (name, start, end, span_id, parents[-1] if parents else 0, op,
                 threading.get_ident())
            )

    def record(self, name: str, start: float, end: float, op: str) -> None:
        """Add a root span the calling thread measured itself."""

        self.spans.append(
            (name, start, end, next(self._ids), 0, op, threading.get_ident())
        )

    def flush(self) -> None:
        if not self.spans and not self.counters:
            return
        path = os.path.join(
            self.out_dir, f"spans-{self.pid}-{next(self._files)}.json"
        )
        with open(path, "w") as handle:
            json.dump(
                {
                    "pid": self.pid,
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "histograms": sorted(self.histograms),
                },
                handle,
            )
        self.spans = []
        self.counters = defaultdict(float)
        self.histograms = set()


class op_scope:
    """Tag every span recorded inside the block with op id ``op``."""

    def __init__(self, op: str) -> None:
        self._op = op

    def __enter__(self):
        self._token = _OP.set(self._op)

    def __exit__(self, *exc_info) -> bool:
        _OP.reset(self._token)
        return False


class _PoolTask:
    """Pool task wrapper: a worker-side ``parallel.worker.task`` span.

    Carries the submitting op id into the worker, where the task span
    becomes the root of every span the worker records for it.
    """

    def __init__(self, func, op: str) -> None:
        self.func = func
        self.op = op

    def __call__(self, item):
        _STACK.set(())
        _OP.set(self.op)
        return _ACTIVE.call("parallel.worker.task", self.func, (item,), {})


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------
def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute that is ``original`` at
    ``replacement``, so ``from x import f`` call sites are wrapped too."""

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _wrapper(recorder: Recorder, name: str, original, after=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = recorder.call(name, original, args, kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _wrap_function(recorder, module_name, attr, name, after=None) -> None:
    module = sys.modules[module_name]
    original = getattr(module, attr)
    _rebind(original, _wrapper(recorder, name, original, after))


def _wrap_method(recorder, cls, attr, name, after=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrapper(recorder, name, raw.__func__, after)))
    else:
        setattr(cls, attr, _wrapper(recorder, name, raw, after))


def wrap_module_function(recorder: Recorder, module, attr: str, name: str) -> None:
    """Wrap one function of a benchmark module (its own verification)."""

    setattr(module, attr, _wrapper(recorder, name, getattr(module, attr)))


def install(out_dir: str) -> Recorder:
    """Wrap the layer boundaries of every ``repro`` layer; returns the
    recorder.  Call before any pool forks so workers inherit the wrappers."""

    global _ACTIVE
    import repro.compressors.blocks as blocks
    import repro.core.pipeline  # noqa: F401  (imports core.experiment, pressio, stats)
    import repro.core.regression  # noqa: F401
    import repro.datasets.gaussian  # noqa: F401
    import repro.datasets.miranda  # noqa: F401
    import repro.stats.variogram3d  # noqa: F401
    import repro.store.array_store  # noqa: F401
    import repro.volumes.streaming  # noqa: F401
    from repro.compressors.base import LosslessBackend
    from repro.compressors.mgard import MGARDCompressor
    from repro.compressors.sz import SZCompressor
    from repro.compressors.zfp import ZFPCompressor
    from repro.encoding.context import EntropyContext
    from repro.pressio.api import PressioCompressor
    from repro.serve.cache import HotChunkCache
    from repro.store.array_store import ArrayStore
    from repro.store.snapshot import StoreSnapshot
    from repro.utils.parallel import SharedArraySession, WorkerPool

    rec = Recorder(out_dir)
    _ACTIVE = rec

    def counted(counter):
        return lambda result, args, kwargs: rec.count(counter)

    for module, attr in (
        ("repro.stats.variogram_models", "estimate_variogram_range"),
        ("repro.stats.local", "std_local_variogram_range"),
        ("repro.stats.svd", "std_local_svd_truncation"),
        ("repro.stats.variogram3d", "estimate_variogram_range_3d"),
    ):
        _wrap_function(rec, module, attr, f"stats.{attr}", counted("stats.calls"))

    _wrap_function(rec, "repro.pressio.api", "compress_and_measure",
                   "pressio.compress_and_measure")
    _wrap_method(rec, PressioCompressor, "compress", "pressio.compress")
    _wrap_method(rec, PressioCompressor, "decompress", "pressio.decompress")
    _wrap_function(rec, "repro.core.pipeline", "run_experiment_on_fields",
                   "core.run_experiment_on_fields")
    _wrap_function(rec, "repro.core.regression", "fit_log_regression",
                   "core.fit_log_regression")

    for cls, codec in ((SZCompressor, "sz"), (ZFPCompressor, "zfp"),
                       (MGARDCompressor, "mgard")):
        _wrap_method(rec, cls, "compress", f"compressors.{codec}.compress",
                     counted("compressors.calls"))
        for attr in ("decompress", "decompress_with_context"):
            _wrap_method(rec, cls, attr, f"compressors.{codec}.decompress",
                         counted("compressors.calls"))
    _wrap_method(rec, blocks.BlockCodec, "encode", "compressors.block_codec.encode")
    _wrap_method(rec, blocks.BlockCodec, "decode", "compressors.block_codec.decode")
    for attr in ("forward_block_transform", "inverse_block_transform",
                 "block_exponents", "quantize_block_coefficients"):
        _wrap_function(rec, "repro.compressors.transform", attr, "compressors.transform")
    for attr in ("decompose", "prolong"):
        _wrap_function(rec, "repro.compressors.multigrid", attr, "compressors.multigrid")

    def encoded(result, args, kwargs):
        rec.count("encoding.encode_symbols.calls")
        rec.count("encoding.bytes_out", len(result))

    def huffman_built(result, args, kwargs):
        counts = args[0]
        rec.count("encoding.huffman.builds")
        rec.histograms.add(hashlib.sha1(counts.tobytes()).hexdigest())

    _wrap_method(rec, LosslessBackend, "encode_symbols", "encoding.encode_symbols", encoded)
    _wrap_method(rec, LosslessBackend, "decode_symbols", "encoding.decode_symbols",
                 counted("encoding.decode_symbols.calls"))
    # The tree build from a symbol histogram: every Huffman code (stored
    # or context-derived) is built here.
    _wrap_function(rec, "repro.encoding.huffman", "_code_lengths_array",
                   "encoding.huffman.build", huffman_built)
    _wrap_method(rec, EntropyContext, "from_streams", "encoding.context.build")

    def tiles_of_result(result, args, kwargs):
        rec.count("volumes.tiles", result.n_tiles)

    def tiles_of_input(result, args, kwargs):
        rec.count("volumes.tiles", args[0].n_tiles)

    _wrap_function(rec, "repro.volumes.pipeline", "compress_volume",
                   "volumes.compress_volume", tiles_of_result)
    _wrap_function(rec, "repro.volumes.pipeline", "decompress_volume",
                   "volumes.decompress_volume", tiles_of_input)
    _wrap_function(rec, "repro.volumes.streaming", "compress_volume_stream",
                   "volumes.stream.compress", tiles_of_result)
    _wrap_stream_decode(rec)
    _wrap_slab_source(rec)

    _wrap_pool(rec, WorkerPool)
    _wrap_method(rec, SharedArraySession, "allocate", "parallel.shm",
                 lambda result, args, kwargs: rec.count(
                     "parallel.shm.bytes", result[1].nbytes))
    _wrap_function(rec, "repro.utils.parallel", "read_shared", "parallel.shm",
                   lambda result, args, kwargs: rec.count(
                       "parallel.shm.bytes", result.nbytes))
    _wrap_function(rec, "repro.utils.parallel", "write_shared", "parallel.shm",
                   lambda result, args, kwargs: rec.count(
                       "parallel.shm.bytes", args[2].nbytes))

    _wrap_method(rec, ArrayStore, "write", "store.write")
    _wrap_method(rec, ArrayStore, "append", "store.write")
    _wrap_method(rec, StoreSnapshot, "open", "store.snapshot_open")
    _wrap_method(rec, StoreSnapshot, "read", "store.read")
    _wrap_method(rec, HotChunkCache, "get", "serve.hot_cache")
    _wrap_method(rec, HotChunkCache, "put", "serve.hot_cache")

    _wrap_function(rec, "repro.datasets.gaussian", "generate_gaussian_field",
                   "datasets.generate")
    _wrap_function(rec, "repro.datasets.miranda", "generate_miranda_like_volume",
                   "datasets.generate")
    return rec


def _wrap_stream_decode(rec: Recorder) -> None:
    """``decompress_volume_stream`` is a generator: one span per slab."""

    module = sys.modules["repro.volumes.streaming"]
    original = module.decompress_volume_stream

    @functools.wraps(original)
    def wrapper(compressed):
        rec.count("volumes.tiles", compressed.n_tiles)
        slabs = original(compressed)
        while True:
            try:
                item = rec.call("volumes.stream.decompress", next, (slabs,), {})
            except StopIteration:
                return
            rec.count("volumes.stream.slabs")
            yield item

    _rebind(original, wrapper)


def _wrap_slab_source(rec: Recorder) -> None:
    """Count the slabs ``compress_volume_stream`` reads from its source."""

    module = sys.modules["repro.volumes.streaming"]
    original = module.open_slab_source

    @functools.wraps(original)
    def wrapper(source):
        reader = original(source)
        read = reader.read

        def counted_read(row_start, rows):
            rec.count("volumes.stream.slabs")
            return read(row_start, rows)

        reader.read = counted_read
        return reader

    _rebind(original, wrapper)


def _wrap_pool(rec: Recorder, pool_cls) -> None:
    """A ``parallel.map`` span around every map over real workers."""

    original = pool_cls.map

    @functools.wraps(original)
    def map_(self, func, items):
        workers = self.config.workers
        if workers <= 1:
            return original(self, func, items)
        start = time.perf_counter()
        result = rec.call("parallel.map", original,
                          (self, _PoolTask(func, _OP.get()), items), {})
        rec.count("parallel.map.calls")
        rec.count("parallel.map.worker_seconds", workers * (time.perf_counter() - start))
        return result

    pool_cls.map = map_


# ---------------------------------------------------------------------------
# merging and self times
# ---------------------------------------------------------------------------
def load_trace(trace_dir: str):
    """Merge every process file: ``(spans, counters, distinct_histograms)``.

    Each span is ``(name, start, end, key, parent_key, op, lane)`` where
    keys are ``(pid, span_id)`` and lanes ``(pid, thread)``.
    """

    spans, counters, histograms = [], defaultdict(float), set()
    for entry in sorted(os.listdir(trace_dir)):
        if not (entry.startswith("spans-") and entry.endswith(".json")):
            continue
        with open(os.path.join(trace_dir, entry)) as handle:
            payload = json.load(handle)
        pid = payload["pid"]
        for name, start, end, span_id, parent, op, thread in payload["spans"]:
            spans.append((name, start, end, (pid, span_id),
                          (pid, parent) if parent else None, op, (pid, thread)))
        for key, value in payload["counters"].items():
            counters[key] += value
        histograms.update(payload["histograms"])
    return spans, counters, len(histograms)


def self_times(spans):
    """Self time per span key: duration minus the union of its children.

    Children are same-process spans naming it as parent, plus root spans
    of other processes whose op id is that of a client ``serve.request``
    span they fall inside.
    """

    children = defaultdict(list)
    requests = {}
    for name, start, end, key, parent, op, lane in spans:
        if name == _REQUEST_SPAN and parent is None:
            requests[op] = (key, start, end, key[0])
    for name, start, end, key, parent, op, lane in spans:
        if parent is not None:
            children[parent].append((start, end))
        elif op in requests and key[0] != requests[op][3]:
            request_key, r_start, r_end, _ = requests[op]
            children[request_key].append((max(start, r_start), min(end, r_end)))
    out = {}
    for name, start, end, key, parent, op, lane in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(key, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[key] = (end - start) - covered
    return out
