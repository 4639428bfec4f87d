"""Loading the vector cache: one block per dimension, each exactly as many rows as
the dimension has terms, the same vectors bit for bit as the file's last record
for each term, and a peak not far above what the loaded cache keeps."""

import gc
import struct
import tracemalloc

import numpy as np
from oracles import values_record

from ragmark.embeddings import VectorCache

from test_vector_cache_format import bits, f64_record


def row_counts(cache: VectorCache) -> dict[int, int]:
    return {dim: rows._n for dim, rows in cache._by_dim.items()}


def test_the_last_record_of_a_term_wins_with_one_block_per_dimension(tmp_path):
    a1, a2 = (1.0, -0.0, 5e-324, 2.5), (0.1, 0.2, 0.3, 0.4)
    e4 = (7.0, 8.0, 9.0, float("inf"))
    expected = {
        "a": a2,  # repeated in its dimension
        "b": (0.5, 0.25, -1.0, 1e300),  # a legacy decimal record
        "c": (3.0, 4.0),  # moved to dimension 2
        "d": (-2.0, 6.0),
        "e": e4,  # moved to dimension 2 and back
        "f": (struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\xff")[0],) * 4,  # a nan payload
    }
    lines = [
        f64_record("a", a1),
        values_record("b", expected["b"]),
        f64_record("c", (1.0, 1.0, 1.0, 1.0)),
        f64_record("e", (1.0, 2.0, 3.0, 4.0)),
        f64_record("a", a2),
        "{corrupt",
        f64_record("c", expected["c"]),
        f64_record("d", expected["d"]),
        f64_record("e", (5.0, 6.0)),
        f64_record("f", expected["f"]),
        f64_record("e", e4),
    ]
    path = tmp_path / "vectors.jsonl"
    path.write_text("".join(line + "\n" for line in lines) + f64_record("z", (1.0,) * 4)[:30], encoding="utf-8")
    cache = VectorCache(path)
    assert sorted(cache._at) == sorted(expected)  # the torn "z" is cut
    for term, values in expected.items():
        assert bits(cache.get(term).values) == bits(values), term
    assert row_counts(cache) == {4: 4, 2: 2}
    for rows in cache._by_dim.values():
        data, norms = rows.arrays
        assert len(data) == len(norms) == 16  # one block each: the first allocation holds it
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(norms[: rows._n], np.linalg.norm(data[: rows._n], axis=1), equal_nan=True)


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
    data, norms = cache._by_dim[dim].arrays
    assert data.shape == (n, dim) and norms.shape == (n,)  # the table holds no spare rows
    payload = n * dim * 8
    # Reading into one buffer per dimension needs about the payload again, plus each
    # term's row index; a decoded array per record needed close to four times it.
    assert peak - after < 3 * payload, f"peak {(peak - before) / 1e6:.2f} MB, kept {(after - before) / 1e6:.2f} MB"
