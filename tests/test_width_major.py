"""The scorer's width-major columns give the MaxSim of one sorted-unique product.

`MaxSimScorer` lays out its product's columns by sentence width: the n
sentences holding w content terms take w runs of n columns, and a group's
MaxSim is the max of those runs. A term held by two sentences is two columns,
and a column's place changes the last bits of its cosines, so the matrix is
checked against `oracles.reference_maxsim` to 1e-12, and chains against
chains run on the reference matrix. A term a sentence holds verbatim stays
exactly 1.0. The layout follows sorted terms, not a set's hash order, so a
run in another process gives the same bits.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ragmark.alignment import MaxSimScorer
from ragmark.embeddings import OfflineEmbeddingProvider, TermVector
from ragmark.retriever import RetrieverParams, retrieve_parallel_chains
from ragmark.text import Term, split_sentences

from oracles import reference_maxsim
from test_verbatim_ties import chain_picks

VOCAB = [f"w{i}z" for i in range(48)]
WIDTHS = [0, 1, 2, 3, 7, 30]


def random_pool(rng, widths=WIDTHS):
    """One sentence per passage, of widths drawn from `widths`; width 0 is stopwords only.
    Terms repeat across sentences, since each sentence draws from one small vocabulary."""
    pool = []
    for i in range(int(rng.integers(1, 16))):
        width = int(rng.choice(widths))
        words = [str(w) for w in rng.choice(VOCAB, size=width, replace=False)] if width else ["the", "of"]
        pool.append(split_sentences(f"p{i}", " ".join(words) + " and.")[0])
        assert len(pool[-1].content) == width
    return tuple(pool)


def assert_matches_reference(scorer, pool, vectors):
    rows = sorted(scorer._row)
    want = reference_maxsim(pool, vectors, rows)
    assert scorer._best.shape == want.shape
    assert np.abs(scorer._best - want).max(initial=0.0) <= 1e-12
    for r, surface in enumerate(rows):
        for p, span in enumerate(pool):
            if surface in span.content:
                assert scorer._best[r, p] == 1.0


@pytest.mark.parametrize("seed", range(8))
def test_mixed_width_pools_match_the_reference(seed):
    rng = np.random.default_rng(seed)
    vectors = OfflineEmbeddingProvider(dimension=16, seed=seed).embed_terms([*VOCAB, "outside"])
    for trial in range(25):
        # Now and then every sentence has one width, so one group covers the pool.
        pool = random_pool(rng, [int(rng.choice(WIDTHS))] if trial % 5 == 0 else WIDTHS)
        query = [Term(str(q), False) for q in rng.choice([*VOCAB, "outside"], size=int(rng.integers(1, 8)))]
        assert_matches_reference(MaxSimScorer.for_queries(pool, vectors, [query]), pool, vectors)
        # Rows that do not cover the columns, as `align_score` and `coverage` build them.
        assert_matches_reference(MaxSimScorer(pool, vectors, [t.surface for t in query]), pool, vectors)
        assert_matches_reference(MaxSimScorer(pool, vectors, []), pool, vectors)


def test_a_nan_cosine_and_a_negative_one_score_zero():
    vectors = {s: TermVector(s, v) for s, v in (("w0z", (1.0, 0.0)), ("w1z", (-1.0, 0.0)), ("w2z", (np.nan, 1.0)))}
    pool = tuple(split_sentences(f"p{i}", text)[0] for i, text in enumerate(["w1z w2z.", "w2z.", "w0z w1z."]))
    scorer = MaxSimScorer(pool, vectors, ["w0z"])
    assert scorer._best.tolist() == [[0.0, 0.0, 1.0]] == reference_maxsim(pool, vectors, ["w0z"]).tolist()
    assert not np.signbit(scorer._best).any()


def test_random_fixtures_give_the_same_chains_as_the_reference_matrix():
    vectors = OfflineEmbeddingProvider(dimension=16, seed=11).embed_terms(VOCAB)
    rng = np.random.default_rng(23)
    params = RetrieverParams()
    for _ in range(160):
        pool = random_pool(rng)
        if not any(span.content for span in pool):
            continue
        query = [Term(str(q), False) for q in rng.choice(VOCAB, size=int(rng.integers(1, 10)))]
        today = retrieve_parallel_chains(query, pool, vectors, params)
        reference = MaxSimScorer.for_queries(pool, vectors, [query])
        reference._best = reference_maxsim(pool, vectors, list(reference._row))
        want = retrieve_parallel_chains(query, pool, vectors, params, scorer=reference)
        assert chain_picks(today, pool) == chain_picks(want, pool)


BEST_DIGEST = """
import hashlib, sys
import numpy as np
from ragmark.alignment import MaxSimScorer
from ragmark.embeddings import OfflineEmbeddingProvider
from ragmark.text import Term
sys.path.insert(0, sys.argv[1])
from test_width_major import VOCAB, random_pool
rng = np.random.default_rng(5)
vectors = OfflineEmbeddingProvider(dimension=64, seed=5).embed_terms(VOCAB)
h = hashlib.sha256()
for _ in range(20):
    pool = random_pool(rng, [2, 3, 7])
    h.update(MaxSimScorer.for_queries(pool, vectors, [[Term("w1z", False)]])._best.tobytes())
print(h.hexdigest())
"""


def test_the_matrix_bits_do_not_depend_on_the_hash_seed():
    here = Path(__file__).parent
    src = str(here.parent / "src")
    digests = set()
    for hash_seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", BEST_DIGEST, str(here)], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
