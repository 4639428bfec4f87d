"""`jsonl.repair_tail` reads back from the end only as far as the last line break.

It keeps or cuts the tail exactly as reading the whole file would decide, for any
block size, and repairing a large cache holds no copy of the file.
"""

import gc
import json
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ragmark import jsonl
from ragmark.embeddings import VectorCache
from ragmark.jsonl import repair_tail


def repaired(data: bytes) -> bytes:
    """The file `repair_tail` leaves, decided on the whole file at once."""
    if not data or data.endswith(b"\n"):
        return data
    cut = data.rfind(b"\n") + 1
    try:
        json.loads(data[cut:])
    except ValueError:
        return data[:cut]
    return data + b"\n"


LINE_PARTS = st.sampled_from([b'{"a": 1}', b"[1, 2", b"7", b" ", b"\n", b'"x"', b"\xc3\xa9", b"\xc3", b"}"])


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(LINE_PARTS, max_size=12), block=st.integers(1, 9))
def test_any_block_size_keeps_or_cuts_what_the_whole_file_would(parts, block, tmp_path_factory):
    data = b"".join(parts)
    path = tmp_path_factory.mktemp("tail") / "log.jsonl"
    path.write_bytes(data)
    with mock.patch.object(jsonl, "_TAIL_BLOCK", block):
        repair_tail(path)
    assert path.read_bytes() == repaired(data)


def test_a_torn_line_at_the_end_of_a_large_cache_is_cut_without_reading_the_file(tmp_path):
    path = tmp_path / "vectors.jsonl"
    n, dim = 20_000, 16
    VectorCache(path).put_rows([f"term{i}" for i in range(n)], np.random.default_rng(0).standard_normal((n, dim)))
    whole = path.read_bytes()
    assert len(whole) > 4_000_000
    with path.open("ab") as fh:
        fh.write(whole[:40])  # a record cut after 40 bytes
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        repair_tail(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == whole
    assert peak < 256 * 1024, f"peak {peak / 1e6:.2f} MB"
