"""Streaming DIMACS writer: same bytes as the document path, flat memory."""

from __future__ import annotations

import hashlib
import io
import tracemalloc

import pytest

from gskit.core import Kind
from gskit.satgen import clause_count, decode, encode, to_dimacs, write_dimacs
from oracle import naive_dimacs


class _Sink:
    """A text writer that keeps only the sha256 and length of what it gets."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.size = 0

    def write(self, text: str):
        data = text.encode()
        self.digest.update(data)
        self.size += len(data)


def test_stream_equals_document_text():
    for n in range(1, 16):
        for r in range(1, 6):
            for kind in (Kind.STRONG, Kind.WEAK):
                for symmetry in (False, True):
                    out = io.StringIO()
                    write_dimacs(out, n, r, kind, symmetry)
                    doc = encode(n, r, kind, symmetry=symmetry)
                    assert out.getvalue() == to_dimacs(doc), (n, r, kind, symmetry)


def test_stream_equals_naive_oracle():
    # Covers r = 1 and 2 (no rainbow shape) and n = 1 and 2 (no sum pair).
    for n in range(1, 31):
        for r in range(1, 8):
            for kind in (Kind.STRONG, Kind.WEAK):
                for symmetry in (False, True):
                    out = io.StringIO()
                    write_dimacs(out, n, r, kind, symmetry)
                    assert out.getvalue() == naive_dimacs(n, r, kind.value, symmetry), (
                        n, r, kind, symmetry)


def test_stream_at_bench_size_is_pinned():
    sink = _Sink()
    write_dimacs(sink, 124, 6, Kind.STRONG, symmetry=True)
    assert sink.size == 8_011_396
    assert sink.digest.hexdigest() == (
        "b06ad7e2572a048391cb8bd92b895b304014659edfe24bca7adb0d6122b6ab5b"
    )


class _Null:
    def write(self, text: str):
        pass


def test_stream_memory_stays_flat():
    # The document path (encode then to_dimacs) peaks near 150 MB here.
    tracemalloc.start()
    try:
        write_dimacs(_Null(), 124, 6, Kind.STRONG, symmetry=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n", [1, 2])
def test_no_rainbow_table_without_a_sum_pair(n):
    # r = 120 has 1,685,040 rainbow triples, but n < 3 has no pair a < b.
    tracemalloc.start()
    try:
        write_dimacs(_Null(), n, 120, Kind.STRONG, symmetry=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.slow
def test_rainbow_shape_shares_its_indices():
    # n = 3, r = 100: one rainbow block of 970,200 clauses, whose 2.9 M gather
    # indices reach 299, past the small-int cache.  With a fresh int per
    # index the peak was 72 MB; shared, it is 59 MB.
    tracemalloc.start()
    try:
        write_dimacs(_Null(), 3, 100, Kind.STRONG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    out = io.StringIO()
    write_dimacs(out, 3, 100, Kind.STRONG)
    assert out.getvalue() == naive_dimacs(3, 100, "strong", False)


def test_stream_raises_when_header_count_is_wrong(monkeypatch):
    count = clause_count(9, 2, Kind.STRONG)
    monkeypatch.setattr("gskit.satgen.clause_count", lambda *args: count + 1)
    with pytest.raises(RuntimeError, match=f"emitted {count} clauses, header declares {count + 1}"):
        write_dimacs(io.StringIO(), 9, 2, Kind.STRONG)


def test_decode_refuses_r_above_n_before_decoding():
    with pytest.raises(ValueError, match="r=3000000 exceeds n=1"):
        decode([1], 1, 3_000_000)
    with pytest.raises(ValueError, match="r=3 exceeds n=2"):
        decode([1, -2, -3, -4, 5, -6], 2, 3)
    assert str(decode([1, -2, -3, 4], 2, 2)) == "12"
