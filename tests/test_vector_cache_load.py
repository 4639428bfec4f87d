"""Loading the vector cache: one block, exactly as many rows as the file has terms, the
same vectors bit for bit as the file's last record for each term, and a peak not far
above what the loaded cache keeps. A record of another dimension than the file's first
stops the open, naming the path and the line."""

import gc
import re
import struct
import tracemalloc

import numpy as np
import pytest
from oracles import values_record

from ragmark.embeddings import VectorCache
from ragmark.errors import DimensionMismatch

from test_vector_cache_format import bits, f64_record

A1, A2 = (1.0, -0.0, 5e-324, 2.5), (0.1, 0.2, 0.3, 0.4)
E4 = (7.0, 8.0, 9.0, float("inf"))
EXPECTED = {
    "a": A2,  # repeated
    "b": (0.5, 0.25, -1.0, 1e300),  # a legacy decimal record
    "c": (3.0, 4.0, 5.0, 6.0),  # repeated after a corrupt line
    "e": E4,
    "f": (struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\xff")[0],) * 4,  # a nan payload
}
LINES = [
    f64_record("a", A1),
    values_record("b", EXPECTED["b"]),
    f64_record("c", (1.0, 1.0, 1.0, 1.0)),
    f64_record("e", (1.0, 2.0, 3.0, 4.0)),
    f64_record("a", A2),
    "{corrupt",
    f64_record("c", EXPECTED["c"]),
    f64_record("f", EXPECTED["f"]),
    f64_record("e", E4),
]


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines) + f64_record("z", (1.0,) * 4)[:30], encoding="utf-8")


def test_the_last_record_of_a_term_wins_in_one_block(tmp_path):
    path = tmp_path / "vectors.jsonl"
    write(path, LINES)
    cache = VectorCache(path)
    assert sorted(cache._at) == sorted(EXPECTED)  # the torn "z" is cut
    for term, values in EXPECTED.items():
        assert bits(cache.get(term).values) == bits(values), term
    assert cache.dim == 4 and cache._n == len(EXPECTED)
    data, norms = cache.arrays
    assert len(data) == len(norms) == 16  # one block: the first allocation holds it
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(norms[: cache._n], np.linalg.norm(data[: cache._n], axis=1), equal_nan=True)


@pytest.mark.parametrize(
    "line, record",
    [
        (7, f64_record("c", (3.0, 4.0))),  # a term moved to dimension 2
        (7, f64_record("d", (-2.0, 6.0))),  # a new term of dimension 2
        (2, values_record("b", (0.5, 0.25))),  # a legacy record of dimension 2
        (10, f64_record("e", (5.0, 6.0, 7.0, 8.0, 9.0))),  # after the last good line
    ],
    ids=["moved", "new", "legacy", "last"],
)
def test_a_record_of_another_dimension_stops_the_open_at_its_line(tmp_path, line, record):
    path = tmp_path / "vectors.jsonl"
    write(path, [*LINES[: line - 1], record, *LINES[line - 1 :]])
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path} line {line}: a vector of dimension")):
        VectorCache(path)


def test_loading_peaks_well_below_a_copy_per_record(tmp_path):
    n, dim = 20_000, 16
    path = tmp_path / "vectors.jsonl"
    VectorCache(path).put_rows([f"term{i}" for i in range(n)], np.random.default_rng(0).standard_normal((n, dim)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = VectorCache(path)
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    data, norms = cache.arrays
    assert data.shape == (n, dim) and norms.shape == (n,)  # the table holds no spare rows
    payload = n * dim * 8
    # Reading into one buffer needs about the payload again, plus each
    # term's row index; a decoded array per record needed close to four times it.
    assert peak - after < 3 * payload, f"peak {(peak - before) / 1e6:.2f} MB, kept {(after - before) / 1e6:.2f} MB"
