"""The index build's one-word rule against `word_surfaces`.

`_WordIds` takes a new word's surface from `text.word_surface` alone, where
`word_surfaces(word)` would lowercase the word again and split it. The two
agree on a lowercased word with no whitespace as long as lowering twice is
lowering once, which `test_index_bytes.py::test_lowering_twice_is_lowering_once`
checks for every code point.
"""

from hypothesis import given
from hypothesis import strategies as st

from ragmark.store import _WordIds
from ragmark.text import STOPWORDS, word_surfaces

from test_index_bytes import INDEX_PIECES
from test_surface_reference import PIECES

TEXTS = st.lists(st.lists(st.one_of(INDEX_PIECES, PIECES), max_size=12).map("".join), max_size=6)


@given(TEXTS)
def test_each_word_takes_the_term_its_surfaces_imply(texts):
    term_ids: dict[str, int] = {}
    word_ids = _WordIds(term_ids)
    for word in " ".join(texts).lower().split():
        surfaces = word_surfaces(word)
        t = word_ids[word]
        if not surfaces or surfaces[0] in STOPWORDS:
            assert t == -1
        else:
            assert [list(term_ids)[t]] == surfaces
