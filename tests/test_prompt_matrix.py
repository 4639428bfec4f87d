"""Every prompt `build_prompt` renders is byte-identical to the per-family builders'.

The reference is `oracles.reference_prompt`: one builder per model family with
a branch per task, instruction texts included. Each family x task pair is
checked with no context, an empty one, an evidence-only string and a
`HighlightedDocument`. The question, choice and passage text hold braces,
`{0}` and field names, which a template must pass through as text.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragmark.evaluation import TASKS, EvalRecord, build_prompt
from ragmark.highlight import highlight
from ragmark.store import Passage
from ragmark.text import split_sentences

from oracles import reference_prompt

FAMILIES = ("mistral", "alpaca", "llama2")
CONTEXTS = ("none", "empty", "string", "highlighted")

texts = st.lists(
    st.sampled_from(["{", "}", "{0}", "{question}", "{documents}", "{choices}", "{}", ". ", "\n"])
    | st.text(max_size=6),
    max_size=8,
).map("".join)


@st.composite
def contexts(draw, kind):
    if kind == "none":
        return None
    if kind == "empty":
        return ""
    if kind == "string":
        return draw(texts)
    passages = [Passage(f"p{i}", draw(texts), draw(texts.filter(bool))) for i in range(draw(st.integers(1, 3)))]
    evidence = [s for p in passages for s in split_sentences(p.id, p.text) if draw(st.booleans())]
    return highlight(passages, evidence)


@st.composite
def records(draw, task):
    choices = None
    if task == "mcq":
        labels = draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5, unique=True))
        choices = {label: draw(texts) for label in labels}
    return EvalRecord("q", task, draw(texts), frozenset({"A"}), choices)


@pytest.mark.parametrize("kind", CONTEXTS)
@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_prompt_matches_the_per_family_builders(family, task, kind, data):
    record = data.draw(records(task))
    context = data.draw(contexts(kind))
    assert build_prompt(record, context, family) == reference_prompt(record, context, family)


@pytest.mark.parametrize("kind", CONTEXTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_an_mcq_record_without_choices_raises_type_error(family, kind):
    record = EvalRecord("q", "mcq", "Which?", frozenset({"A"}))
    context = {"none": None, "empty": "", "string": "text", "highlighted": highlight([Passage("p", "t", "x.")], [])}[kind]
    with pytest.raises(TypeError):
        reference_prompt(record, context, family)
    with pytest.raises(TypeError):
        build_prompt(record, context, family)

