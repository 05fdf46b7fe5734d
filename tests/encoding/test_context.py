"""Tests for the entropy-context layer (repro.encoding.context + the
lossless backend's context-coded ``C`` streams)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.encoding.context as context_module
from repro.compressors.base import LosslessBackend
from repro.compressors.mgard import MGARDCompressor
from repro.compressors.sz import SZCompressor
from repro.compressors.zfp import ZFPCompressor
from repro.datasets.miranda import generate_miranda_like_volume
from repro.encoding.context import DENSE_SLOT_LIMIT, EntropyContext, stream_width
from repro.encoding.huffman import (
    canonical_code_from_counts,
    huffman_decode_with_code,
    huffman_encode_with_code,
)
from repro.volumes.pipeline import compress_volume, decompress_volume


def _peaked(rng, n, scale=3, outlier_rate=0.01, outlier_span=(500, 4000)):
    """Peaked stream with rare large outliers — the shape where a
    table-free context code beats both packing and self-coded Huffman."""

    base = np.abs(rng.normal(0, scale, n)).astype(np.int64)
    outliers = rng.random(n) < outlier_rate
    base[outliers] += rng.integers(*outlier_span, int(outliers.sum()))
    return base


class TestEntropyContext:
    def test_pools_by_width(self):
        context = EntropyContext.from_streams(
            [np.array([1, 2, 3]), np.array([100, 200]), np.array([2, 2])]
        )
        assert context.widths == (2, 8)
        pool = context.pool(2)
        assert pool is not None
        assert pool.symbols.tolist() == [1, 2, 3]
        assert pool.counts.tolist() == [1, 3, 1]
        assert context.pool(5) is None

    def test_empty_streams_ignored(self):
        context = EntropyContext.from_streams([np.empty(0, dtype=np.int64)])
        assert not context
        assert context.widths == ()

    def test_stream_width(self):
        assert stream_width(np.empty(0, dtype=np.int64)) == 0
        assert stream_width(np.array([0])) == 1
        assert stream_width(np.array([255])) == 8
        assert stream_width(np.array([256])) == 9

    def test_digest_distinguishes_contents(self):
        a = EntropyContext.from_streams([np.array([1, 2, 3])])
        b = EntropyContext.from_streams([np.array([1, 2, 4])])
        c = EntropyContext.from_streams([np.array([1, 2, 3])])
        assert a.digest() == c.digest()
        assert a.digest() != b.digest()

    def test_escape_parameters(self):
        pool = EntropyContext.from_streams([np.full(1000, 7)]).pool(3)
        assert pool.escape_symbol == 8
        assert pool.escape_count == 1000 // 64


class TestHuffmanWithCode:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        symbols = np.arange(20, dtype=np.int64)
        counts = rng.integers(1, 100, 20).astype(np.int64)
        syms_c, lens_c, codes_c = canonical_code_from_counts(symbols, counts)
        stream = rng.integers(0, 20, 500).astype(np.int64)
        payload = huffman_encode_with_code(stream, syms_c, lens_c, codes_c)
        decoded = huffman_decode_with_code(payload, stream.size, syms_c, lens_c)
        assert np.array_equal(decoded, stream)

    def test_single_symbol_code(self):
        syms_c, lens_c, codes_c = canonical_code_from_counts(
            np.array([5]), np.array([10])
        )
        stream = np.full(17, 5, dtype=np.int64)
        payload = huffman_encode_with_code(stream, syms_c, lens_c, codes_c)
        decoded = huffman_decode_with_code(payload, 17, syms_c, lens_c)
        assert np.array_equal(decoded, stream)

    def test_out_of_alphabet_symbol_rejected(self):
        syms_c, lens_c, codes_c = canonical_code_from_counts(
            np.array([1, 2]), np.array([3, 4])
        )
        with pytest.raises(ValueError, match="outside the agreed code"):
            huffman_encode_with_code(np.array([1, 7]), syms_c, lens_c, codes_c)

    def test_empty_frequency_table_rejected(self):
        with pytest.raises(ValueError):
            canonical_code_from_counts(np.empty(0), np.empty(0))


class TestContextStreams:
    def test_context_candidate_wins_and_round_trips(self):
        rng = np.random.default_rng(1)
        backend = LosslessBackend("huffman")
        context = EntropyContext.from_streams([_peaked(rng, 50000)])
        stream = _peaked(rng, 1500)
        plain = backend.encode_symbols(stream)
        coded = backend.encode_symbols(stream, context=context)
        assert coded[:1] == b"C"
        assert len(coded) < len(plain)
        assert np.array_equal(
            backend.decode_symbols(coded, context=context), stream
        )

    def test_context_never_hurts(self):
        rng = np.random.default_rng(2)
        backend = LosslessBackend("huffman")
        context = EntropyContext.from_streams([rng.integers(0, 4, 100)])
        for stream in (
            rng.integers(0, 1 << 14, 4000),  # mismatched stats
            np.zeros(100, dtype=np.int64),
            rng.poisson(2, 500).astype(np.int64),
        ):
            plain = backend.encode_symbols(stream)
            coded = backend.encode_symbols(stream, context=context)
            assert len(coded) <= len(plain)
            assert np.array_equal(
                backend.decode_symbols(coded, context=context), stream
            )

    def test_context_none_is_bit_identical(self):
        rng = np.random.default_rng(3)
        backend = LosslessBackend("huffman")
        for stream in (
            rng.poisson(8, 3000).astype(np.int64),
            _peaked(rng, 2000),
            np.empty(0, dtype=np.int64),
        ):
            assert backend.encode_symbols(stream) == backend.encode_symbols(
                stream, context=None
            )

    def test_escapes_round_trip(self):
        rng = np.random.default_rng(4)
        backend = LosslessBackend("huffman")
        context = EntropyContext.from_streams([_peaked(rng, 40000)])
        stream = _peaked(rng, 1000)
        stream[::37] += 1  # force symbols the reference never saw
        coded = backend.encode_symbols(stream, context=context)
        assert np.array_equal(
            backend.decode_symbols(coded, context=context), stream
        )

    def test_wide_alphabet_context_round_trips(self):
        # Outliers spread the pool past the dense slot table.
        rng = np.random.default_rng(12)
        backend = LosslessBackend("huffman")
        wide = (DENSE_SLOT_LIMIT, 8 * DENSE_SLOT_LIMIT)
        context = EntropyContext.from_streams([_peaked(rng, 40000, outlier_span=wide)])
        stream = _peaked(rng, 2000, outlier_span=wide)
        assert not context.pool(stream_width(stream))._dense
        coded = backend.encode_symbols(stream, context=context)
        assert coded[:1] == b"C"
        assert np.array_equal(
            backend.decode_symbols(coded, context=context), stream
        )

    def test_decode_without_context_raises(self):
        rng = np.random.default_rng(5)
        backend = LosslessBackend("huffman")
        context = EntropyContext.from_streams([_peaked(rng, 50000)])
        coded = backend.encode_symbols(_peaked(rng, 1500), context=context)
        assert coded[:1] == b"C"
        with pytest.raises(ValueError, match="entropy context"):
            backend.decode_symbols(coded)

    def test_decode_with_wrong_width_pool_raises(self):
        rng = np.random.default_rng(6)
        backend = LosslessBackend("huffman")
        context = EntropyContext.from_streams([_peaked(rng, 50000)])
        coded = backend.encode_symbols(_peaked(rng, 1500), context=context)
        assert coded[:1] == b"C"
        narrow = EntropyContext.from_streams([np.array([0, 1, 1])])
        with pytest.raises(ValueError, match="no pool"):
            backend.decode_symbols(coded, context=narrow)

    def test_zstd_backend_supports_context(self):
        rng = np.random.default_rng(7)
        backend = LosslessBackend("zstd")
        context = EntropyContext.from_streams([_peaked(rng, 50000)])
        stream = _peaked(rng, 1500)
        coded = backend.encode_symbols(stream, context=context)
        assert np.array_equal(
            backend.decode_symbols(coded, context=context), stream
        )

    def test_raw_backend_ignores_context(self):
        rng = np.random.default_rng(8)
        backend = LosslessBackend("raw")
        context = EntropyContext.from_streams([_peaked(rng, 10000)])
        stream = _peaked(rng, 200)
        assert backend.encode_symbols(stream, context=context) == (
            backend.encode_symbols(stream)
        )


def _count_code_builds(monkeypatch):
    """Record the histogram of every context code build."""

    built = []
    original = context_module.canonical_code_from_counts

    def counting(symbols, counts, **kwargs):
        built.append((symbols.tobytes(), counts.tobytes()))
        return original(symbols, counts, **kwargs)

    monkeypatch.setattr(context_module, "canonical_code_from_counts", counting)
    return built


class TestPoolCode:
    def test_code_is_built_once_per_pool(self, monkeypatch):
        built = _count_code_builds(monkeypatch)
        rng = np.random.default_rng(9)
        backend = LosslessBackend("huffman")
        context = EntropyContext.from_streams([_peaked(rng, 50000)])
        for _ in range(3):
            stream = _peaked(rng, 1500)
            coded = backend.encode_symbols(stream, context=context)
            assert coded[:1] == b"C"
            assert np.array_equal(
                backend.decode_symbols(coded, context=context), stream
            )
        assert len(built) == 1

    def test_code_matches_escape_extended_histogram(self):
        pool = EntropyContext.from_streams([np.array([3, 3, 5, 6, 6, 6])]).pool(3)
        expected = canonical_code_from_counts(
            np.append(pool.symbols, pool.escape_symbol),
            np.append(pool.counts, pool.escape_count),
        )
        for got, want in zip(pool.code, expected):
            assert np.array_equal(got, want)

    def test_pickle_round_trip_after_code_is_built(self):
        rng = np.random.default_rng(10)
        context = EntropyContext.from_streams([_peaked(rng, 20000)])
        digest = context.digest()
        for width in context.widths:
            context.pool(width).slots(np.arange(4))  # build code + lookup
        clone = pickle.loads(pickle.dumps(context))
        assert clone.digest() == digest == context.digest()
        assert clone.widths == context.widths
        for width in context.widths:
            pool, copy = context.pool(width), clone.pool(width)
            assert "code" not in vars(copy)  # derived state is not shipped
            assert np.array_equal(copy.symbols, pool.symbols)
            assert np.array_equal(copy.counts, pool.counts)
            for got, want in zip(copy.code, pool.code):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "offset, outliers, dense",
        [(0, (500, 4000), True), (100, (500, 4000), True),
         (100, (DENSE_SLOT_LIMIT, 4 * DENSE_SLOT_LIMIT), False)],
    )
    def test_slots_map_alphabet_and_escapes(self, offset, outliers, dense):
        rng = np.random.default_rng(11)
        reference = offset + _peaked(rng, 5000, outlier_span=outliers)
        pool = EntropyContext.from_streams([reference]).pool(stream_width(reference))
        assert pool._dense is dense
        syms = pool.code[0]
        stream = offset + _peaked(rng, 3000, outlier_span=outliers)
        stream[1::97] = pool.escape_symbol + 5  # above the alphabet
        stream[2::89] = pool.escape_symbol  # the escape value itself
        if offset:
            stream[::50] = offset - 1  # below the alphabet
        slots = pool.slots(stream)
        known = np.isin(stream, pool.symbols)
        assert (~known).any()
        assert np.array_equal(syms[slots[known]], stream[known])
        assert (slots[~known] == pool.escape_slot).all()
        assert syms[pool.escape_slot] == pool.escape_symbol


class TestCodeBuildsPerTile:
    @pytest.mark.parametrize(
        "codec_cls, name",
        [(SZCompressor, "sz"), (ZFPCompressor, "zfp"), (MGARDCompressor, "mgard")],
    )
    def test_halo_round_trip_builds_each_code_once_per_tile(
        self, monkeypatch, codec_cls, name
    ):
        built = _count_code_builds(monkeypatch)
        tasks = []

        def per_tile(attr):
            original = getattr(codec_cls, attr)

            def wrapper(self, *args, halo=None, **kwargs):
                before = len(built)
                result = original(self, *args, halo=halo, **kwargs)
                keys = built[before:]
                context = None if halo is None else halo.context
                widths = () if context is None else context.widths
                tasks.append((len(keys), len(set(keys)), len(widths)))
                return result

            monkeypatch.setattr(codec_cls, attr, wrapper)

        per_tile("compress")
        per_tile("decompress_with_context")
        volume = generate_miranda_like_volume((64, 64, 32), seed=3)
        compressed = compress_volume(
            volume, name, 1e-3, tile_shape=(32, 32, 32), cache=False, halo=True
        )
        decoded = decompress_volume(compressed)
        assert np.abs(decoded - volume).max() <= 1e-3 * (1 + 1e-9)
        assert len(tasks) == 8  # 4 tiles encoded, 4 decoded
        assert sum(n for n, _, _ in tasks) > 0  # context coding was exercised
        for n_builds, n_distinct, n_widths in tasks:
            assert n_builds == n_distinct <= n_widths
