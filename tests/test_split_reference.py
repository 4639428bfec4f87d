import string

from hypothesis import given
from hypothesis import strategies as st

from ragmark.stepback import ConjoinedQuery
from ragmark.text import ABBREVIATIONS, content_surfaces, extract_terms, split_sentences

from oracles import reference_sentence_bounds

# Letters, digits, terminators and mixed whitespace, plus abbreviations and
# decimals, so guards and "7.4"-style dots come up often.
PIECES = st.sampled_from(
    ["Dr.", "U.S.", "e.g.", "J.", "7.4", "3.", "x", "ab", "no.", "etc.", "?!", "...", " ", "\n", "\t", "\u00a0", "\x1c"]
)
TEXT = st.one_of(
    st.text(alphabet=string.ascii_letters + string.digits + " .!?\n\t,", max_size=200),
    st.lists(PIECES, max_size=40).map("".join),
)


@given(TEXT)
def test_split_matches_per_character_reference(text):
    spans = split_sentences("p", text)
    assert [(s.start, s.end) for s in spans] == reference_sentence_bounds(text, ABBREVIATIONS)


def test_query_terms_are_cached_and_equality_stays_field_based():
    a = ConjoinedQuery("Why do bats hunt at night?", stepback="What do bats eat?")
    b = ConjoinedQuery("Why do bats hunt at night?", stepback="What do bats eat?")
    assert a.terms is a.terms
    assert a == b and hash(a) == hash(b)
    assert a.terms == b.terms


# Words with stopwords, capitals and punctuation, so spans hold both kinds of term.
WORDS = st.lists(
    st.sampled_from(["The", "the", "of", "bats", "Bats,", "hunt.", "night!", "(Why)", "is", "7.4", "Dr.", "x?"]),
    max_size=30,
).map(" ".join)


@given(st.one_of(TEXT, WORDS))
def test_spans_hold_what_extract_terms_gives(text):
    spans = split_sentences("p", text)
    for span in spans:
        terms = extract_terms(span.slice(text), drop_stopwords=False)
        assert content_surfaces(span) == {t.surface for t in terms if not t.is_stopword}
    again = split_sentences("p", text)
    assert again == spans
    assert [hash(s) for s in again] == [hash(s) for s in spans]
