"""The vector cache stores each vector's exact float64 bits and still reads the decimal records
written before them."""

import base64
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import decode_values_record, values_record

from ragmark.embeddings import OfflineEmbeddingProvider, VectorCache
from ragmark.errors import DimensionMismatch

TERMS = st.text(min_size=1, max_size=8)
VECTORS = st.lists(st.floats(width=64), min_size=1, max_size=12).map(tuple)
# A file's vectors share one dimension, or, drawn with lengths of their own, often do not.
ONE_DIMENSION = st.integers(1, 12).flatmap(
    lambda dim: st.dictionaries(TERMS, st.tuples(*[st.floats(width=64)] * dim), min_size=1, max_size=5)
)
FILES = ONE_DIMENSION | st.dictionaries(TERMS, VECTORS, min_size=1, max_size=5)
NAN_WITH_PAYLOAD = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\xff")[0]
SPECIAL = (0.0, -0.0, 5e-324, -2.225073858507201e-308, float("inf"), float("-inf"), float("nan"), NAN_WITH_PAYLOAD)


def bits(values: tuple[float, ...]) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def f64_record(term: str, values: tuple[float, ...], dim: int | None = None) -> str:
    f64 = base64.b64encode(bits(values)).decode("ascii")
    return json.dumps({"term": term, "dim": len(values) if dim is None else dim, "f64": f64})


def round_trip(vectors: dict[str, tuple[float, ...]]) -> VectorCache:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.jsonl"
        cache = VectorCache(path)
        for t, v in vectors.items():  # one block per vector
            cache.put_rows([t], np.array([v]))
        return VectorCache(path)


def another_dimension(vectors: dict[str, tuple[float, ...]]) -> int | None:
    """The 1-based position of the first vector whose length differs from the first's, if any."""
    dims = [len(v) for v in vectors.values()]
    return next((i for i, d in enumerate(dims, 1) if d != dims[0]), None)


@given(FILES)
def test_round_trip_keeps_every_bit(vectors):
    if another_dimension(vectors):  # the first block of another dimension is refused
        with pytest.raises(DimensionMismatch, match="a block of dimension"):
            round_trip(vectors)
        return
    reloaded = round_trip(vectors)
    assert len(reloaded) == len(vectors)
    for term, values in vectors.items():
        got = reloaded.get(term).values
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert bits(got) == bits(values)


def test_signed_zeros_subnormals_infinities_and_nan_payloads_survive():
    got = round_trip({"edge": SPECIAL}).get("edge").values
    assert bits(got) == bits(SPECIAL)


def test_new_record_keys_are_term_dim_f64(tmp_path):
    path = tmp_path / "vectors.jsonl"
    VectorCache(path).put_rows(["desert"], np.array([(0.5, -0.25)]))
    [line] = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(line)
    assert list(record) == ["term", "dim", "f64"]
    assert record == {"term": "desert", "dim": 2, "f64": base64.b64encode(bits((0.5, -0.25))).decode("ascii")}


@given(FILES)
def test_values_records_load_as_the_old_decoder_read_them(vectors):
    lines = [values_record(t, v) for t, v in vectors.items()]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        line = another_dimension(vectors)
        if line:  # the first record of another dimension stops the open
            with pytest.raises(DimensionMismatch, match=f" line {line}: "):
                VectorCache(path)
            return
        cache = VectorCache(path)
    assert len(cache) == len(vectors)
    for line in lines:
        term, values = decode_values_record(line)
        assert bits(cache.get(term).values) == bits(values)


def test_mixed_old_and_new_lines_later_line_wins(tmp_path):
    path = tmp_path / "vectors.jsonl"
    lines = [
        values_record("desert", (1.0, 0.0)),
        f64_record("desert", (0.0, 1.0)),
        f64_record("night", (0.5, 0.5)),
        values_record("night", (0.25, 0.75)),
    ]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    cache = VectorCache(path)
    assert len(cache) == 2
    assert cache.get("desert").values == (0.0, 1.0)
    assert cache.get("night").values == (0.25, 0.75)


def test_a_values_cache_is_read_without_refetch_and_appended_in_the_new_format(tmp_path):
    path = tmp_path / "vectors.jsonl"
    terms = ["desert", "night", "water"]
    expected = OfflineEmbeddingProvider(dimension=16).embed_terms(terms + ["heat"])
    path.write_text("".join(values_record(t, expected[t].values) + "\n" for t in terms), encoding="utf-8")

    provider = OfflineEmbeddingProvider(dimension=16, cache=VectorCache(path))
    assert provider.embed_terms(terms) == {t: expected[t] for t in terms}
    assert provider.fetch_count == 0
    provider.embed_terms(["heat", "night"])
    assert provider.fetch_count == 1

    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [list(rec) for rec in lines] == [["term", "dim", "values"]] * 3 + [["term", "dim", "f64"]]
    reloaded = OfflineEmbeddingProvider(dimension=16, cache=VectorCache(path))
    assert reloaded.embed_terms(terms + ["heat"]) == expected
    assert reloaded.fetch_count == 0


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(json.dumps({"term": "bad", "dim": 1, "f64": "!!!!AAAAAAA="}), id="alphabet"),
        pytest.param(json.dumps({"term": "bad", "dim": 1, "f64": "AAAAAAAA AAA="}), id="whitespace"),
        pytest.param(json.dumps({"term": "bad", "dim": 1, "f64": "AAAAAAAAAA"}), id="padding"),
        pytest.param(json.dumps({"term": "bad", "dim": 1, "f64": "é"}), id="non-ascii"),
        pytest.param(json.dumps({"term": "bad", "dim": 1, "f64": base64.b64encode(b"\0" * 12).decode()}), id="12-bytes"),
        pytest.param(json.dumps({"term": "bad", "dim": 1, "f64": ""}), id="no-values"),
        pytest.param(f64_record("bad", (1.0, 2.0), dim=3), id="dim-mismatch"),
        pytest.param(f64_record("bad", (1.0, 2.0), dim="2"), id="dim-string"),
        pytest.param(json.dumps({"term": "bad", "f64": base64.b64encode(bits((1.0,))).decode()}), id="no-dim"),
        pytest.param(json.dumps({"term": "bad", "dim": 1, "f64": 4607182418800017408}), id="integer"),
        pytest.param(json.dumps({"term": "bad", "dim": 1, "f64": None}), id="null"),
        pytest.param(json.dumps({"term": "bad", "dim": 1, "f64": [0, 0, 0, 0, 0, 0, 240, 63]}), id="list"),
    ],
)
def test_malformed_f64_record_is_skipped(bad, tmp_path):
    path = tmp_path / "vectors.jsonl"
    lines = [f64_record("desert", (1.0,)), f64_record("bad", (3.0,)), bad, f64_record("night", (2.0,))]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    cache = VectorCache(path)
    assert len(cache) == 3
    assert cache.get("bad").values == (3.0,)  # the earlier good line stands
    assert cache.get("night").values == (2.0,)
