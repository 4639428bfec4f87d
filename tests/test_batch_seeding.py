"""The offline provider seeds a whole batch in one pass, and it is NumPy's seeding bit for bit.

`_pcg64_states` must give the `(state, inc)` that `np.random.PCG64(seed)` sets
up through `SeedSequence`, and the provider's rows must stay the vectors
`oracles.reference_offline_vector` draws from `np.random.default_rng`.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_offline_vector

from ragmark.embeddings import OfflineEmbeddingProvider, _pcg64_states

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def numpy_state(seed: int) -> tuple[int, int]:
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_seeds_alone(seed):
    assert _pcg64_states(np.array([seed], dtype=np.uint64)) == [numpy_state(seed)]


def test_edge_seeds_in_one_batch():
    assert _pcg64_states(np.array(EDGE_SEEDS, dtype=np.uint64)) == [numpy_state(s) for s in EDGE_SEEDS]


def test_big_endian_seeds_as_the_provider_reads_them():
    seeds = np.frombuffer(b"".join(s.to_bytes(8, "big") for s in EDGE_SEEDS), dtype=">u8")
    assert _pcg64_states(seeds) == [numpy_state(s) for s in EDGE_SEEDS]


def test_an_empty_batch_has_no_states():
    assert _pcg64_states(np.array([], dtype=np.uint64)) == []


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=9))
def test_hypothesis_uint64_seeds(seeds):
    assert _pcg64_states(np.array(seeds, dtype=np.uint64)) == [numpy_state(s) for s in seeds]


class Recording(OfflineEmbeddingProvider):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.batch_sizes: list[int] = []

    def _fetch(self, batch):
        self.batch_sizes.append(len(batch))
        return super()._fetch(batch)


TERMS = [f"term {i}" for i in range(120)] + ["café", "日本語", "🦇", "a", "A", "a b", "\t", "x" * 200, "0", "-1"]


@pytest.mark.parametrize("order", range(3))
def test_two_full_batches_and_a_partial_one_give_the_oracle_rows(order):
    terms = list(TERMS)
    random.Random(order).shuffle(terms)
    provider = Recording(dimension=64, seed=7, batch_size=64)
    vectors = provider.embed_terms(terms)
    assert provider.batch_sizes == [64, 64, 2]
    for term in terms:
        assert np.array(vectors[term].values).tobytes() == np.array(reference_offline_vector(7, term, 64)).tobytes()
