"""Term vectors held as rows of one float64 table of one dimension.

The cosine matrix gathered from a provider's table is, bit for bit, the one
`oracles.reference_cosine_matrix` builds from `TermVector` tuples, for vectors
fetched fresh, stored in blocks, and loaded from `f64` cache records. A cache
record of another dimension stops the cache's open, a provider of another
dimension than its cache is refused when it is made, and a fetched block of
another dimension never reaches the file: the provider stays at its table's
dimension, so a refused reply fails only its own record. A cached zero vector
fails only the requests that pair it, with `ZeroVector`. Views taken before a
writer grows the rows gather the same matrix while it does.
"""

import json
import re
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragmark.alignment import _cosine_matrix, align_score
from ragmark.embeddings import (
    EmbeddingProvider,
    OfflineEmbeddingProvider,
    RemoteEmbeddingProvider,
    TermVector,
    VectorCache,
)
from ragmark.errors import DimensionMismatch, RagmarkError, ZeroVector
from ragmark.evaluation import EvalRecord, PipelineHandles, RunSetting, run_setting
from ragmark.pipeline import select_evidence
from ragmark.stepback import StubChatClient
from ragmark.store import Passage
from ragmark.text import Term, split_sentences

from oracles import reference_cosine_matrix
from test_embeddings import FakeResponse

# Dimensions on both sides of numpy's pairwise-summation block sizes (8, 128).
DIMS = st.sampled_from([1, 3, 8, 9, 64, 130])


class GivenProvider(EmbeddingProvider):
    """Serves fixed vectors, as a remote endpoint would."""

    def __init__(self, vectors: dict[str, TermVector], **kwargs):
        super().__init__(**kwargs)
        self.vectors = vectors

    def _fetch(self, batch):
        return np.array([self.vectors[t].values for t in batch])


def random_vectors(rng, n: int, dim: int, zeros: bool = False) -> dict[str, TermVector]:
    """`n` vectors over a spread of magnitudes; with `zeros`, some are all zero."""
    out = {}
    for i in range(n):
        values = rng.standard_normal(dim) * 10.0 ** int(rng.integers(-3, 4))
        if zeros and rng.random() < 0.15:
            values[:] = 0.0
        out[f"t{i}"] = TermVector(f"t{i}", tuple(values.tolist()))
    return out


def draw(rng, surfaces: list[str], most: int) -> list[str]:
    return [str(s) for s in rng.choice(surfaces, size=int(rng.integers(0, most + 1)))]


def outcome(rows, cols, vectors, build):
    try:
        return build(rows, cols, vectors)
    except RagmarkError as exc:
        return type(exc)


def assert_same(rows, cols, view, vectors):
    got = outcome(rows, cols, view, _cosine_matrix)
    want = outcome(rows, cols, vectors, reference_cosine_matrix)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


def requests(rng, surfaces: list[str]):
    """Row and column lists with repeats, where many surfaces are both a row and a column,
    and one request with the rows a scorer has: every column plus more."""
    for _ in range(4):
        yield draw(rng, surfaces, 12), draw(rng, surfaces, 12)
    cols = draw(rng, surfaces, 8)
    yield sorted(set(cols) | set(draw(rng, surfaces, 4))), sorted(set(cols))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=DIMS, n=st.integers(1, 14), batch_size=st.integers(1, 5))
def test_rows_fetched_in_blocks_give_the_tuple_matrix(seed, dim, n, batch_size):
    rng = np.random.default_rng(seed)
    vectors = random_vectors(rng, n, dim)
    surfaces = sorted(vectors)
    with tempfile.TemporaryDirectory() as tmp:
        provider = GivenProvider(vectors, cache=VectorCache(Path(tmp) / "v.jsonl"), batch_size=batch_size)
        # Grow the table between gathers, so the norms are computed over several blocks.
        for known in (surfaces[: (n + 1) // 2], surfaces):
            view = provider.embed_terms(known)
            for rows, cols in requests(rng, known):
                assert_same(rows, cols, view, {s: vectors[s] for s in known})
        uncached = GivenProvider(vectors, batch_size=batch_size).embed_terms(surfaces)
        for rows, cols in requests(rng, surfaces):
            assert_same(rows, cols, uncached, vectors)
            assert_same(rows, cols, vectors, vectors)  # a plain mapping is copied into a table


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=DIMS, n=st.integers(1, 14))
def test_rows_loaded_from_f64_records_give_the_tuple_matrix(seed, dim, n):
    rng = np.random.default_rng(seed)
    vectors = random_vectors(rng, n, dim, zeros=True)
    surfaces = sorted(vectors)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.jsonl"
        VectorCache(path).put_rows(list(vectors), np.array([v.values for v in vectors.values()]))
        provider = GivenProvider({}, cache=VectorCache(path))
        view = provider.embed_terms(surfaces)
        assert provider.fetch_count == 0
        for rows, cols in requests(rng, surfaces):
            assert_same(rows, cols, view, vectors)


# --- a cache holds one dimension; a cached zero vector fails only the requests that pair it

PASSAGES = [
    Passage("p1", "Bats", "Bats hunt insects at night. Echolocation guides the hunt."),
    Passage("p2", "Deserts", "Deserts hold little water. Rain is rare there."),
]
BATS = "Why do bats hunt at night?"
DESERTS = "Why is desert water rare?"


def cache_with(tmp_path, term: str, values: tuple[float, ...]) -> Path:
    """A cache of every term both requests embed, then one more record for `term`."""
    path = tmp_path / "vectors.jsonl"
    provider = OfflineEmbeddingProvider(dimension=16, cache=VectorCache(path))
    for question, passage in ((BATS, PASSAGES[0]), (DESERTS, PASSAGES[1])):
        select_evidence(question, [passage], provider)
    with path.open("a", encoding="utf-8") as fh:  # a later line wins on load
        fh.write(json.dumps({"term": term, "dim": len(values), "values": list(values)}) + "\n")
    return path


def test_a_record_of_another_dimension_stops_the_open(tmp_path):
    path = cache_with(tmp_path, "echolocation", (1.0,) * 8)
    written = path.read_bytes()
    line = written.count(b"\n")
    message = f"{path} line {line}: a vector of dimension 8 in a cache of dimension 16"
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        VectorCache(path)
    assert path.read_bytes() == written


@pytest.mark.parametrize("dimension", [8, 32])
def test_a_provider_of_another_dimension_than_its_cache_is_refused(tmp_path, dimension):
    path = cache_with(tmp_path, "echolocation", (1.0,) * 16)
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: vectors of dimension 16, not {dimension}")):
        OfflineEmbeddingProvider(dimension=dimension, cache=VectorCache(path))
    provider = OfflineEmbeddingProvider(dimension=16, cache=VectorCache(path))
    clean = OfflineEmbeddingProvider(dimension=16)
    assert select_evidence(DESERTS, [PASSAGES[1]], provider) == select_evidence(DESERTS, [PASSAGES[1]], clean)
    assert provider.fetch_count == 0


def remote_over(path: Path) -> tuple[RemoteEmbeddingProvider, list[list[str]]]:
    """A remote provider over the cache at `path` whose first reply is 32-d and every later one the
    offline provider's 16-d vectors, and the list of the terms it posts."""
    offline, posts = OfflineEmbeddingProvider(dimension=16), []

    def post(url, json=None, **kwargs):
        posts.append(json["input"])
        rows = offline._fetch(json["input"]).tolist() if len(posts) > 1 else [[0.5] * 32 for _ in json["input"]]
        return FakeResponse({"data": [{"embedding": row} for row in rows]})

    return RemoteEmbeddingProvider("http://x", retries=0, post=post, cache=VectorCache(path)), posts


def test_a_remote_reply_of_another_dimension_than_its_cache_appends_nothing(tmp_path):
    path = tmp_path / "vectors.jsonl"
    OfflineEmbeddingProvider(dimension=16, cache=VectorCache(path)).embed_terms({"desert", "water"})
    written = path.read_bytes()
    provider, posts = remote_over(path)
    assert provider.dimension == 16
    with pytest.raises(DimensionMismatch, match="a block of dimension 32 for a table of dimension 16"):
        provider.embed_terms({"desert", "rain", "sand"})
    assert path.read_bytes() == written
    assert "rain" not in provider.table and len(VectorCache(path)) == 2 and provider.dimension == 16
    # The refusal leaves the provider at its table's dimension, so a later reply of that width is stored.
    view = provider.embed_terms({"desert", "rain", "sand"})
    assert posts == [["rain", "sand"]] * 2 and provider.dimension == 16
    assert view["rain"] == OfflineEmbeddingProvider(dimension=16).embed_terms({"rain"})["rain"]
    assert VectorCache(path).get("rain") == view["rain"] and len(VectorCache(path)) == 4


def test_one_refused_reply_scores_only_its_own_record_wrong(tmp_path):
    path = tmp_path / "vectors.jsonl"
    OfflineEmbeddingProvider(dimension=16, cache=VectorCache(path)).embed_terms({"known", "flying"})
    provider, posts = remote_over(path)
    records = [EvalRecord(f"q{i}", "factoid", f"What is zorblex{i} known for?", frozenset({"flying"})) for i in range(4)]
    precomputed = {r.query_id: [Passage(f"p{i}", "facts", f"zorblex{i} is known for flying.", rank=1)]
                   for i, r in enumerate(records)}
    handles = PipelineHandles(
        qa_client=StubChatClient(lambda prompt: "flying"), embedding_provider=provider,
        precomputed=precomputed, max_workers=1,
    )
    report = run_setting(records, RunSetting(stepback=False), handles)
    assert [o.error for o in report.outcomes] == [
        "DimensionMismatch: a block of dimension 32 for a table of dimension 16", None, None, None
    ]
    assert report.accuracy == 75.0 and posts == [[f"zorblex{i}"] for i in range(4)]


def test_a_view_holds_exactly_the_terms_it_was_asked_for():
    view = OfflineEmbeddingProvider(dimension=4).embed_terms({"rain", "water"})
    assert "rain" in view and "water" in view and "sand" not in view and 7 not in view


def test_a_cached_zero_vector_raises_once_it_forms_a_pair(tmp_path):
    provider = OfflineEmbeddingProvider(dimension=16, cache=VectorCache(cache_with(tmp_path, "rain", (0.0,) * 16)))
    vectors = provider.embed_terms({"rain", "rare", "water"})
    assert vectors["rain"].values == (0.0,) * 16  # held and handed out: no pair yet
    assert _cosine_matrix(["rain"], [], vectors).shape == (1, 0)
    stopwords_only = split_sentences("s", "It is there.")[0]
    assert align_score([Term("rain", False)], stopwords_only, vectors).score == 0.0
    rain_sentence = split_sentences("p2", PASSAGES[1].text)[1]
    with pytest.raises(ZeroVector):
        align_score([Term("water", False)], rain_sentence, vectors)
    with pytest.raises(ZeroVector):
        select_evidence(DESERTS, [PASSAGES[1]], provider)
    clean = OfflineEmbeddingProvider(dimension=16)
    assert select_evidence(BATS, [PASSAGES[0]], provider) == select_evidence(BATS, [PASSAGES[0]], clean)


# --- readers take no lock while a writer grows the rows ------------------------


def test_held_views_gather_the_reference_matrix_while_a_writer_grows_the_rows():
    # Batches of 7 grow the rows from 16 to 1024, reallocating them six times, while the
    # readers gather from views they took earlier and take no lock to do it.
    words = [f"w{i}" for i in range(600)]
    chunks = [words[i : i + 20] for i in range(0, len(words), 20)]
    reference = OfflineEmbeddingProvider(dimension=16).embed_terms(words)
    want = [reference_cosine_matrix(chunk, chunk, reference) for chunk in chunks]
    provider = OfflineEmbeddingProvider(dimension=16, batch_size=7)
    stored = [provider.embed_terms(chunks[0])]  # a view per chunk, in the writer's order
    start = threading.Barrier(4)
    writing = threading.Event()
    writing.set()
    gathered: dict[int, list] = {i: [] for i in range(3)}  # per reader: True per equal matrix

    def write() -> None:
        start.wait(timeout=30)
        for chunk in chunks[1:]:
            stored.append(provider.embed_terms(chunk))
        writing.clear()

    def read(r: int) -> None:
        start.wait(timeout=30)
        while writing.is_set():
            held = list(stored)
            for i in (0, len(held) - 1):
                try:
                    gathered[r].append(np.array_equal(_cosine_matrix(chunks[i], chunks[i], held[i]), want[i]))
                except Exception as exc:  # reported by the assert below
                    gathered[r].append(exc)

    threads = [threading.Thread(target=write)] + [threading.Thread(target=read, args=(r,)) for r in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the writer's growth steps
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(provider.table) == len(words) and provider.fetch_count == len(words)
    assert provider.table.view(words[:1]).gather(words[:1])[0].shape == (1024, 16)
    assert all(len(results) >= 10 for results in gathered.values()), {r: len(v) for r, v in gathered.items()}
    assert [ok for results in gathered.values() for ok in results if ok is not True] == []
