"""The table-driven Huffman decoder against the scalar reference decoder.

``_decode_vectorized`` (word windows, pointer-doubling chain) and
``_decode_scalar`` (one codeword at a time) must agree on every canonical
code the table decoder accepts (``max_len`` up to ``_MAX_TABLE_BITS``), on
every stream, and must reject truncated streams (``EOFError``) and
invalid prefixes (``ValueError``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.encoding.huffman import (
    _MAX_TABLE_BITS,
    HuffmanCode,
    _decode_scalar,
    _decode_vectorized,
    pack_codewords,
)


@st.composite
def codes_and_streams(draw):
    """A random canonical code with longest codeword exactly ``max_len``
    (complete, or incomplete so invalid prefixes exist), a random stream
    over it, and trailing padding so payload lengths hit every residue
    mod 4 (the 32-bit word-window edge)."""

    max_len = draw(st.integers(1, _MAX_TABLE_BITS))
    depths = [1, 1]
    for pick in draw(st.lists(st.integers(0, 1 << 16), max_size=40)):
        i = pick % len(depths)
        if depths[i] < max_len:
            depths[i : i + 1] = [depths[i] + 1] * 2
    while max(depths) < max_len:
        i = depths.index(max(depths))
        depths[i : i + 1] = [depths[i] + 1] * 2
    if draw(st.booleans()):
        # Drop one leaf that is not the deepest: the code becomes
        # incomplete, and the top of the prefix space decodes to nothing.
        shallow = [i for i, d in enumerate(depths) if d < max_len] or [0]
        del depths[shallow[draw(st.integers(0, len(shallow) - 1))]]

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    symbols = rng.choice(1 << 20, size=len(depths), replace=False)
    code = HuffmanCode.from_lengths(dict(zip(symbols.tolist(), depths)))
    n_symbols = draw(st.integers(1, 300))
    slots = rng.integers(0, len(depths), n_symbols)
    padding = draw(st.integers(0, 7))
    return code, slots, padding, rng


def _arrays(code: HuffmanCode):
    return (
        np.array(code.symbols, dtype=np.int64),
        np.array(code.lengths, dtype=np.int64),
        np.array(code.codes, dtype=np.uint64),
    )


def _complete(code: HuffmanCode) -> bool:
    return sum(2.0 ** -length for length in code.lengths) == 1.0


@given(codes_and_streams())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_vectorized_matches_scalar(case):
    code, slots, padding, rng = case
    syms, lens, codes = _arrays(code)
    payload = pack_codewords(codes[slots], lens[slots])
    payload += rng.integers(0, 256, padding, dtype=np.uint8).tobytes()
    np.testing.assert_array_equal(
        _decode_vectorized(syms, lens, payload, slots.size), syms[slots]
    )
    np.testing.assert_array_equal(_decode_scalar(code, payload, slots.size), syms[slots])


@given(codes_and_streams())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_truncated_stream_raises_eof_in_both(case):
    code, slots, _, _ = case
    syms, lens, codes = _arrays(code)
    payload = pack_codewords(codes[slots], lens[slots])
    cut = payload[:-1]  # at least one codeword bit is now missing
    # The table decoder reads zeros past the end; under an incomplete code
    # the zero-padded window of a cut codeword may be an invalid prefix,
    # which is reported before running out of bits.
    expected = EOFError if _complete(code) else (EOFError, ValueError)
    with pytest.raises(expected):
        _decode_vectorized(syms, lens, cut, slots.size)
    with pytest.raises(EOFError):
        _decode_scalar(code, cut, slots.size)


@given(codes_and_streams(), st.integers(0, 1 << 16))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_invalid_prefix_raises_value_error_in_both(case, where):
    code, slots, _, _ = case
    assume(not _complete(code))  # a complete code has no invalid prefix
    syms, lens, codes = _arrays(code)
    max_len = int(lens[-1])
    # All-ones of max_len bits lies in the unassigned top of an incomplete
    # code's prefix space; splice it in place of one codeword.
    stream_lens = lens[slots]
    stream_codes = codes[slots]
    i = where % slots.size
    stream_lens[i] = max_len
    stream_codes[i] = (1 << max_len) - 1
    payload = pack_codewords(stream_codes, stream_lens)
    with pytest.raises(ValueError, match="invalid Huffman bit stream"):
        _decode_vectorized(syms, lens, payload, slots.size)
    with pytest.raises(ValueError, match="invalid Huffman bit stream"):
        _decode_scalar(code, payload, slots.size)


def test_kraft_violation_rejected():
    syms = np.array([0, 1, 2], dtype=np.int64)
    lens = np.array([1, 1, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="Kraft"):
        _decode_vectorized(syms, lens, b"\x00", 3)
