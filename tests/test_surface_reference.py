import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ragmark.text import extract_terms, normalize_term, word_surfaces

from oracles import reference_normalize, reference_surfaces

# Spaces the ASCII set lacks (NBSP, "\x1c"), an underscore (a `\w` that is
# not alphanumeric), case changes that alter length ("\u0130", capital I with
# dot, lowers to "i" plus a combining dot) or depend on context (final sigma
# in "\u039f\u0394\u039f\u03a3."), a numeric that is not a digit ("\u00bd")
# and combining marks at word edges.
PIECES = st.sampled_from(
    ["a", "Z", "7", "-", ".", ",", "_", "'s", "(", " ", "\n", "\xa0", "\x1c",
     "\u0130", "\u00bd", "\u039f\u0394\u039f\u03a3.", "e\u0301", "\u0301"]
)
TEXT = st.one_of(st.text(max_size=60), st.lists(PIECES, max_size=30).map("".join))


@given(TEXT)
def test_extract_terms_matches_per_character_reference(text):
    surfaces = [t.surface for t in extract_terms(text, drop_stopwords=False)]
    assert surfaces == reference_surfaces(text)


@given(TEXT)
def test_normalize_term_matches_per_character_reference(raw):
    term = normalize_term(raw)
    assert (term and term.surface) == reference_normalize(raw)


def test_named_edge_cases():
    text = "\xa0_x_\x1c\u0130 \u00bd. \u039f\u0394\u039f\u03a3. \u0301e\u0301\u0301 __ a_b"
    surfaces = [t.surface for t in extract_terms(text, drop_stopwords=False)]
    assert surfaces == reference_surfaces(text)
    assert surfaces == ["x", "i", "\u00bd", "\u03bf\u03b4\u03bf\u03c2", "e", "a_b"]


def test_regex_classes_are_exactly_the_str_predicates():
    # `[^\W_]` is `str.isalnum` and `\S` is not `str.isspace`; lowercasing
    # never turns a space into a non-space or back, so words can be found
    # after lowercasing the whole text.
    alnum, non_space = re.compile(r"[^\W_]"), re.compile(r"\S")
    mismatches = []
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        if bool(alnum.fullmatch(c)) != c.isalnum() or bool(non_space.fullmatch(c)) == c.isspace():
            mismatches.append(cp)
        elif any(x.isspace() != c.isspace() for x in c.lower()):
            mismatches.append(cp)
    assert mismatches == []


@pytest.mark.parametrize(
    "text, surfaces",
    [
        ("one\x85two", ["one", "two"]),  # NEL
        ("one\u2028two\u2029", ["one", "two"]),  # line and paragraph separators
        ("\u3000one\u3000two", ["one", "two"]),  # ideographic space
        ("one\x1ftwo\x1c", ["one", "two"]),  # unit and file separators
        ("one\ttwo\t", ["one", "two"]),
        ("one\rtwo\r\n", ["one", "two"]),
        ("-- ... (!) _ __ \u0301", []),  # words with no alphanumeric character
        ("(one) -- 'two'_ ?!", ["one", "two"]),
    ],
)
def test_word_surfaces_whitespace_and_words_without_alphanumerics(text, surfaces):
    assert word_surfaces(text) == reference_surfaces(text) == surfaces


def test_str_split_splits_on_exactly_isspace():
    # `word_surfaces` splits with `str.split()`, which must cut at exactly the
    # characters `str.isspace` accepts, and at nothing else.
    mismatches = [
        cp for cp in range(sys.maxunicode + 1)
        if len(f"a{chr(cp)}b".split()) != (2 if chr(cp).isspace() else 1)
    ]
    assert mismatches == []
