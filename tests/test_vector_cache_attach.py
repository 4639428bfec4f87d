"""A `VectorCache` attaches its file only after loading it: reopening appends nothing, and a
provider over the cache appends one line per term it fetches."""

import json

import numpy as np

from ragmark.embeddings import OfflineEmbeddingProvider, VectorCache

# Two dimensions, and "desert" stored twice: the later record wins.
BLOCKS = [
    (["desert", "heat"], [(0.6, 0.8), (0.0, 1.0)]),
    (["night"], [(1.0, 0.0, 0.0)]),
    (["desert"], [(0.8, -0.6)]),
]


def test_reopening_leaves_the_file_byte_identical_and_new_terms_append_once(tmp_path):
    path = tmp_path / "vectors.jsonl"
    writer = VectorCache(path)
    for terms, rows in BLOCKS:
        writer.put_rows(terms, np.array(rows))
    written = path.read_bytes()
    assert written.count(b"\n") == 4

    cache = VectorCache(path)
    assert len(cache) == 3
    assert cache.get("desert").values == (0.8, -0.6)
    for terms in (["desert", "heat"], ["night"]):  # one gather per dimension
        data, _, at = cache.view(terms).gather(terms)
        assert [tuple(data[i]) for i in at] == [cache.get(t).values for t in terms]
    assert path.read_bytes() == written

    provider = OfflineEmbeddingProvider(dimension=2, cache=cache)
    assert provider.table is cache
    provider.embed_terms({"desert", "heat", "night", "rain", "dune"})
    provider.embed_terms({"rain", "dune", "heat"})
    grown = path.read_bytes()
    assert grown.startswith(written) and provider.fetch_count == 2
    appended = [json.loads(line) for line in grown[len(written) :].decode("utf-8").splitlines()]
    assert sorted(r["term"] for r in appended) == ["dune", "rain"]
    assert all(r["dim"] == 2 for r in appended)
