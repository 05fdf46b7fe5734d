"""Exact-count self-test of the benchmark's traced run.

Runs paper-sweep, volume-halo and volume-stream traced at reduced size,
exactly one timed pass each, twice with one seed, and asserts that the
work counts repeat exactly: codec calls, Huffman builds and distinct
histograms, tiles, slabs and entropy-coded bytes.  Times vary from run to
run; these counts must not, or a later change could not rest a claim on
them.

serve-mixed is left out on purpose: its hot-cache hits and evictions and
its coalesced reads depend on how the two client threads interleave, so
they vary with concurrency from run to run.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 3
EXACT = (
    "compressors.calls",
    "encoding.huffman.builds",
    "encoding.huffman.distinct_histograms",
    "encoding.encode_symbols.calls",
    "encoding.decode_symbols.calls",
    "encoding.bytes_out",
    "volumes.tiles",
    "volumes.stream.slabs",
    "stats.calls",
    "parallel.map.calls",
    "parallel.shm.bytes",
)
#: Counts that must be non-zero on each workload, so equal zeros prove nothing.
EXERCISED = {
    "paper-sweep": ("compressors.calls", "encoding.huffman.builds", "stats.calls"),
    "volume-halo": ("volumes.tiles", "encoding.huffman.distinct_histograms",
                    "parallel.map.calls", "parallel.shm.bytes"),
    "volume-stream": ("volumes.tiles", "volumes.stream.slabs", "encoding.bytes_out"),
}


def traced_run(workload: str) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--trace", "1",
         "--scale", "small", "--passes", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload)
    for name in EXACT:
        assert first[name] == second[name], name
    for name in EXERCISED[workload]:
        assert first[name] > 0, name
    assert first["bench.memo_hits"] == 0
    # The work lane's layer self times account for its wall time.
    assert 0 <= first["bench.unattributed_s"] < 0.05 * first["bench.wall_s"]
