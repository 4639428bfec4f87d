"""A fetched batch goes from `_fetch` to the table rows and the cache file as one float64 block.

The offline provider's rows are bit for bit the vectors `oracles.reference_offline_vector`
builds one term at a time, and the cache lines written from a block are byte for byte
`json.dumps({"term", "dim", "f64"})`, one per fetched term in fetch order: for batches of
up to 12 drawn terms, and for a whole default batch of 64 terms and a 1-term batch.
"""

import base64
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_offline_vector

from ragmark.embeddings import OfflineEmbeddingProvider, VectorCache
from ragmark.errors import DimensionMismatch

TERMS = st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=12, unique=True)
DIMS = st.sampled_from([1, 3, 8, 64, 130])
NAN_WITH_PAYLOAD = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\xff")[0]


def bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def json_line(term: str, values) -> str:
    """A cache line as `json.dumps` renders the record dict."""
    f64 = base64.b64encode(bits(values)).decode("ascii")
    return json.dumps({"term": term, "dim": len(values), "f64": f64}) + "\n"


class Recording(OfflineEmbeddingProvider):
    """The offline provider, keeping each batch it fetches."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.batches: list[list[str]] = []

    def _fetch(self, batch):
        self.batches.append(list(batch))
        return super()._fetch(batch)


@settings(max_examples=60, deadline=None)
@given(terms=TERMS, seed=st.integers(0, 2**63 - 1), dim=DIMS, batch_size=st.integers(1, 5))
def test_offline_rows_are_the_per_term_vectors_bit_for_bit(terms, seed, dim, batch_size):
    provider = OfflineEmbeddingProvider(dimension=dim, seed=seed, batch_size=batch_size)
    block = provider._fetch(terms)
    assert block.dtype == np.float64 and block.shape == (len(terms), dim)
    vectors = provider.embed_terms(terms)
    for term, row in zip(terms, block):
        want = bits(reference_offline_vector(seed, term, dim))
        assert row.astype("<f8").tobytes() == want
        assert bits(vectors[term].values) == want


WHOLE_BATCH_TERMS = [f"term {i}" for i in range(60)] + ['say "hi"', "café", "日本語", "emoji 🦇", "x" * 300]


@pytest.mark.parametrize("seed", [0, 2**63 + 5])
@pytest.mark.parametrize("dim", [1, 3, 8, 64, 130])
def test_a_whole_default_batch_and_a_one_term_batch_are_the_per_term_vectors(tmp_path, dim, seed):
    path = tmp_path / "vectors.jsonl"
    provider = Recording(dimension=dim, seed=seed, cache=VectorCache(path))
    vectors = provider.embed_terms(WHOLE_BATCH_TERMS)
    assert [len(batch) for batch in provider.batches] == [64, 1]
    want = {t: reference_offline_vector(seed, t, dim) for t in WHOLE_BATCH_TERMS}
    for batch in provider.batches:
        block = OfflineEmbeddingProvider(dimension=dim, seed=seed)._fetch(batch)
        assert block.astype("<f8").tobytes() == b"".join(bits(want[t]) for t in batch)
    fetched = [t for batch in provider.batches for t in batch]
    assert path.read_text(encoding="utf-8") == "".join(json_line(t, want[t]) for t in fetched)
    assert all(bits(vectors[t].values) == bits(want[t]) for t in WHOLE_BATCH_TERMS)


ODD_TERMS = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "café", "日本語", "emoji 🦇", "lone \ud800"]
ODD_ROWS = [
    (-0.0, 1.0, 0.0),
    (5e-324, -2.225073858507201e-308, 2.2250738585072014e-308),
    (float("inf"), float("-inf"), 1.0),
    (NAN_WITH_PAYLOAD, float("nan"), -1.5),
    (1 / 3, -1e308, 1e-300),
    (0.0, 0.0, 0.0),
    (2.0**-1074, -(2.0**-1074), 0.1),
]


def test_block_lines_equal_json_dumps_for_odd_terms_and_values(tmp_path):
    path = tmp_path / "vectors.jsonl"
    cache = VectorCache(path)
    block = np.array(ODD_ROWS)
    cache.put_rows(ODD_TERMS, block)
    assert path.read_text(encoding="utf-8") == "".join(json_line(t, v) for t, v in zip(ODD_TERMS, ODD_ROWS))
    reloaded = VectorCache(path)
    for term, values in zip(ODD_TERMS, ODD_ROWS):
        assert bits(cache.get(term).values) == bits(values)
        assert bits(reloaded.get(term).values) == bits(values)


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=6, unique=True),
    values=st.lists(st.floats(width=64), min_size=1, max_size=9),
)
def test_block_lines_equal_json_dumps(terms, values):
    rows = [tuple(values[i:] + values[:i]) for i in range(len(terms))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.jsonl"
        VectorCache(path).put_rows(terms, np.array(rows))
        assert path.read_bytes() == "".join(json_line(t, v) for t, v in zip(terms, rows)).encode("ascii")


@settings(max_examples=40, deadline=None)
@given(calls=st.lists(st.lists(st.sampled_from([f"w{i}" for i in range(20)]), max_size=12), min_size=1, max_size=4),
       batch_size=st.integers(1, 5))
def test_one_line_per_fetched_term_in_fetch_order(calls, batch_size):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.jsonl"
        provider = Recording(dimension=8, cache=VectorCache(path), batch_size=batch_size)
        for terms in calls:
            provider.embed_terms(terms)
        fetched = [t for batch in provider.batches for t in batch]
        assert all(1 <= len(batch) <= batch_size for batch in provider.batches)
        assert len(fetched) == provider.fetch_count == len(set().union(*calls))
        lines = path.read_text(encoding="utf-8").splitlines() if fetched else []
        assert [json.loads(line)["term"] for line in lines] == fetched
        assert [line + "\n" for line in lines] == [json_line(t, reference_offline_vector(0, t, 8)) for t in fetched]


@pytest.mark.parametrize("cut", [lambda b: b[1:], lambda b: b[:, 1:], lambda b: b[0]], ids=["rows", "width", "1-d"])
def test_a_block_of_the_wrong_shape_is_rejected_before_it_is_stored(tmp_path, cut):
    class Misshapen(OfflineEmbeddingProvider):
        def _fetch(self, batch):
            return cut(super()._fetch(batch))

    provider = Misshapen(dimension=8, cache=VectorCache(tmp_path / "v.jsonl"))
    with pytest.raises(DimensionMismatch):
        provider.embed_terms(["a", "b"])
    assert len(provider.table) == 0 and not (tmp_path / "v.jsonl").exists()
