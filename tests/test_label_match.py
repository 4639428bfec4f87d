"""A one-character gold (an MCQ label) is scored as a label, not as a word.

It must equal a standalone token of the generation in its original case,
with punctuation stripped as `normalize_answer` strips it. So gold "A" does
not match the article "a", and a lowercase "b" is not the label "B". Claim
and factoid golds keep the case-blind substring match.
"""

import pytest

from ragmark.evaluation import EvalRecord, PipelineHandles, RunSetting, inclusion_match, run_setting
from ragmark.stepback import StubChatClient


@pytest.mark.parametrize(
    "generation, gold, correct",
    [
        ("B. a cat", {"A"}, False),
        ("I think it is a B", {"A"}, False),
        ("A", {"A"}, True),
        ("A. a cat", {"A"}, True),
        ("(A) a cat", {"A"}, True),
        ("The answer is A.", {"A"}, True),
        ("b", {"B"}, False),
        ("the answer is b", {"B"}, False),
        ("Because deserts are hot.", {"B"}, False),
        ("7 apples", {"7"}, True),
    ],
)
def test_a_label_matches_a_standalone_token_in_its_case(generation, gold, correct):
    assert inclusion_match(generation, gold) is correct


@pytest.mark.parametrize(
    "generation, gold, correct",
    [
        ("TRUE", {"true"}, True),
        ("The statement is False.", {"false"}, True),
        ("It is PARIS", {"paris"}, True),
        ("It is Paris", {"rome"}, False),
    ],
)
def test_claim_and_factoid_golds_stay_case_blind(generation, gold, correct):
    assert inclusion_match(generation, gold) is correct


def test_an_answer_in_words_is_scored_by_its_label():
    records = [
        EvalRecord(
            query_id=f"q{i}",
            task="mcq",
            question="Which animal hunts at night?",
            gold=frozenset({"A"}),
            choices={"A": "an owl", "B": "a hawk"},
        )
        for i in range(2)
    ]
    answers = iter(["B. a hawk", "A. an owl"])
    handles = PipelineHandles(qa_client=StubChatClient(lambda prompt: next(answers)), max_workers=1)
    report = run_setting(records, RunSetting(retrieval="none", highlighting=False, stepback=False), handles)
    assert report.accuracy == 50.0
