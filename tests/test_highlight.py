import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ragmark.errors import AlreadyTagged, SpanOutOfBounds, UnknownPassage
from ragmark.highlight import (
    CLOSE_TAG,
    OPEN_TAG,
    evidence_only,
    highlight,
    strip_tags,
)
from ragmark.store import Passage
from ragmark.text import SentenceSpan, split_sentences

from conftest import ARID_SENTENCE


def spans_of(passage):
    return list(split_sentences(passage.id, passage.text))


class TestHighlight:
    def test_empty_evidence_is_identity(self, arid_passage):
        doc = highlight([arid_passage], [])
        assert doc.passages[0][1] == arid_passage.text
        assert doc.evidence_count == 0

    def test_arid_sentence_gets_one_tag_pair(self, arid_passage):
        target = next(
            s for s in spans_of(arid_passage)
            if arid_passage.text[s.start : s.end] == ARID_SENTENCE
        )
        doc = highlight([arid_passage], [target])
        text = doc.passages[0][1]
        assert f"{OPEN_TAG}{ARID_SENTENCE}{CLOSE_TAG}" in text
        assert text.count(OPEN_TAG) == 1
        assert text.count(CLOSE_TAG) == 1
        assert strip_tags(text) == arid_passage.text
        assert doc.evidence_count == 1

    def test_adjacent_sentences_get_separate_tags(self):
        passage = Passage("p", "t", "First fact. Second fact.")
        spans = spans_of(passage)
        doc = highlight([passage], spans)
        text = doc.passages[0][1]
        assert text.count(OPEN_TAG) == 2
        assert f"{OPEN_TAG}First fact.{CLOSE_TAG}" in text
        assert f"{OPEN_TAG}Second fact.{CLOSE_TAG}" in text
        assert strip_tags(text) == passage.text

    def test_passage_order_preserved(self):
        ps = [Passage("a", "", "One."), Passage("b", "", "Two."), Passage("c", "", "Three.")]
        doc = highlight(ps, spans_of(ps[2]))
        assert [p.id for p, _ in doc.passages] == ["a", "b", "c"]

    def test_unknown_passage(self, arid_passage):
        stray = spans_of(Passage("ghost", "", "Nope."))[0]
        with pytest.raises(UnknownPassage):
            highlight([arid_passage], [stray])

    def test_out_of_bounds_span(self):
        passage = Passage("p", "", "Short.")
        bad = spans_of(Passage("p", "", "A much longer passage text."))[0]
        with pytest.raises(SpanOutOfBounds):
            highlight([passage], [bad])

    def test_refuses_already_tagged_input(self):
        for passage in [
            Passage("p", "", f"Contains {OPEN_TAG}tags{CLOSE_TAG} already."),
            Passage("p", f"A {OPEN_TAG}x{CLOSE_TAG}", "Untagged text."),
        ]:
            with pytest.raises(AlreadyTagged):
                highlight([passage], [])

    @given(st.data())
    def test_strip_round_trip_random(self, data):
        n_passages = data.draw(st.integers(1, 3))
        ps = []
        all_spans = []
        for i in range(n_passages):
            n_sent = data.draw(st.integers(1, 5))
            sentences = [
                data.draw(
                    st.text(alphabet=string.ascii_lowercase + " ", min_size=1, max_size=20)
                ).strip() or "x"
                for _ in range(n_sent)
            ]
            text = " ".join(s + "." for s in sentences)
            p = Passage(f"p{i}", "", text)
            ps.append(p)
            all_spans.extend(spans_of(p))
        subset = [s for s in all_spans if data.draw(st.booleans())]
        doc = highlight(ps, subset)
        for p, tagged in doc.passages:
            assert strip_tags(tagged) == p.text
        assert doc.evidence_count == len(subset)


class TestEvidenceOnly:
    def test_single_sentence(self, arid_passage):
        target = next(
            s for s in spans_of(arid_passage)
            if arid_passage.text[s.start : s.end] == ARID_SENTENCE
        )
        assert evidence_only([arid_passage], [target]) == ARID_SENTENCE

    def test_empty_set(self, arid_passage):
        assert evidence_only([arid_passage], []) == ""

    def test_document_order_newline_separated(self):
        ps = [Passage("a", "", "One here. Two here."), Passage("b", "", "Three here.")]
        spans = spans_of(ps[0]) + spans_of(ps[1])
        out = evidence_only(ps, [spans[2], spans[0]])
        assert out == "One here.\nThree here."

    @pytest.mark.parametrize("second", ["repeated", "overlapping"])
    def test_spans_are_checked_as_highlight_checks_them(self, second):
        passage = Passage("p", "", "Bats hunt at night. Owls do too.")
        first = spans_of(passage)[0]
        other = first if second == "repeated" else SentenceSpan("p", 5, 25, frozenset())
        for render in (highlight, evidence_only):
            with pytest.raises(SpanOutOfBounds, match="overlapping spans in passage 'p'"):
                render([passage], [first, other])


class TestSerialization:
    def test_jsonl_record_shape(self, arid_passage):
        doc = highlight([arid_passage], [])
        record = doc.to_record("q1")
        assert record == {
            "query_id": "q1",
            "passages": [{"id": "arc-arid", "highlighted_text": arid_passage.text}],
            "evidence_count": 0,
        }
