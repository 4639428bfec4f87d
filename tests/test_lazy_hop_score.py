"""A hop's `AlignmentScore` is built when `score` is first read, not on every hop.

`select_evidence` makes no `MaxSimScorer.alignment` call; reading a hop's
score makes one, and reading it again makes none. The score read later is
bit for bit the one the chain would have built at that hop, and hops keep
the dataclass's equality, repr and unhashability.
"""

import struct

import pytest

import ragmark.retriever as retriever
from ragmark.alignment import AlignmentScore, MaxSimScorer
from ragmark.embeddings import OfflineEmbeddingProvider
from ragmark.pipeline import select_evidence
from ragmark.stepback import StubChatClient

QUESTION = "Why do lions hunt at night in arid deserts?"
CHOICES = {"A": "They avoid the heat.", "B": "They see better.", "C": "They sleep less."}


def stepback_reply(prompt):
    return "Why are desert animals nocturnal?" if "step back and paraphrase" in prompt else "water, heat"


def select(passage):
    return select_evidence(
        QUESTION, [passage], OfflineEmbeddingProvider(), stepback_client=StubChatClient(stepback_reply), choices=CHOICES
    )


@pytest.fixture
def alignment_calls(monkeypatch):
    calls = []
    real = MaxSimScorer.alignment

    def counted(self, surfaces, rows, pos):
        calls.append(pos)
        return real(self, surfaces, rows, pos)

    monkeypatch.setattr(MaxSimScorer, "alignment", counted)
    return calls


def hops_of(result):
    return [hop for chain in result.chains for hop in chain.hops]


def test_selection_builds_no_score_and_each_read_builds_one(arid_passage, alignment_calls):
    result = select(arid_passage)
    hops = hops_of(result)
    assert len(result.queries) == len(CHOICES)
    assert len(hops) > len(result.chains)  # some chain has a later hop
    assert alignment_calls == []
    scores = [hop.score for hop in hops]
    assert len(alignment_calls) == len(hops)
    assert [hop.score for hop in hops] == scores
    assert all(again is first for again, first in zip((hop.score for hop in hops), scores))
    assert len(alignment_calls) == len(hops)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_a_late_read_is_bit_for_bit_the_score_the_chain_held(arid_passage, monkeypatch):
    eager: list[AlignmentScore] = []
    lazy_hop = retriever.Hop

    def eager_hop(sentence, score_of, remainder_after):
        scorer, surfaces, rows, pos = score_of
        eager.append(scorer.alignment(list(surfaces), list(rows), pos))
        return lazy_hop(sentence, score_of, remainder_after)

    monkeypatch.setattr(retriever, "Hop", eager_hop)
    result = select(arid_passage)
    hops = hops_of(result)
    assert len(hops) == len(eager)
    for hop, built in zip(hops, eager):
        score = hop.score
        assert score is not built
        assert score.sentence == built.sentence == hop.sentence
        assert bits(score.score) == bits(built.score)
        assert list(score.per_term) == list(built.per_term)
        assert [bits(v) for v in score.per_term.values()] == [bits(v) for v in built.per_term.values()]
    first = result.chains[0].hops[0].score
    assert list(first.per_term) == [t.surface for t in result.queries[0].terms]


def test_hops_built_twice_compare_equal_and_stay_unhashable(arid_passage, alignment_calls):
    once, twice = select(arid_passage), select(arid_passage)
    n = len(hops_of(once))
    assert alignment_calls == []
    assert once.chains == twice.chains
    assert len(alignment_calls) == 2 * n  # each side's hops build their scores once
    assert once.chains == twice.chains
    assert len(alignment_calls) == 2 * n
    hop = once.chains[0].hops[0]
    with pytest.raises(TypeError):
        hash(hop)
    assert hop != (hop.sentence, hop.score, hop.remainder_after)
    assert repr(hop) == (
        f"Hop(sentence={hop.sentence!r}, score={hop.score!r}, remainder_after={hop.remainder_after!r})"
    )
