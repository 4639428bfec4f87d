"""A `VectorCache` attaches its file only after loading it: reopening appends nothing, and a
provider over the cache appends one line per term it fetches. A block of another dimension
than the cache's is refused before it reaches the file."""

import json

import numpy as np
import pytest

from ragmark.embeddings import OfflineEmbeddingProvider, VectorCache
from ragmark.errors import DimensionMismatch

# "desert" stored twice: the later record wins. The block of dimension 3 is refused.
BLOCKS = [
    (["desert", "heat"], [(0.6, 0.8), (0.0, 1.0)]),
    (["night"], [(1.0, 0.0, 0.0)]),
    (["desert"], [(0.8, -0.6)]),
]


def test_reopening_leaves_the_file_byte_identical_and_new_terms_append_once(tmp_path):
    path = tmp_path / "vectors.jsonl"
    writer = VectorCache(path)
    for terms, rows in BLOCKS:
        if len(rows[0]) == 2:
            writer.put_rows(terms, np.array(rows))
            continue
        before = path.read_bytes()
        with pytest.raises(DimensionMismatch, match="a block of dimension 3 for a table of dimension 2"):
            writer.put_rows(terms, np.array(rows))
        assert path.read_bytes() == before and "night" not in writer
    written = path.read_bytes()
    assert written.count(b"\n") == 3

    cache = VectorCache(path)
    assert len(cache) == 2
    assert cache.get("desert").values == (0.8, -0.6)
    terms = ["desert", "heat"]
    data, _, at = cache.view(terms).gather(terms)
    assert [tuple(data[i]) for i in at] == [cache.get(t).values for t in terms]
    assert path.read_bytes() == written

    provider = OfflineEmbeddingProvider(dimension=2, cache=cache)
    assert provider.table is cache
    provider.embed_terms({"desert", "heat", "night", "rain", "dune"})
    provider.embed_terms({"rain", "dune", "heat"})
    grown = path.read_bytes()
    assert grown.startswith(written) and provider.fetch_count == 3
    appended = [json.loads(line) for line in grown[len(written) :].decode("utf-8").splitlines()]
    assert sorted(r["term"] for r in appended) == ["dune", "night", "rain"]
    assert all(r["dim"] == 2 for r in appended)
