"""Text normalization, term extraction, and sentence segmentation.

Everything here is deterministic and rule-based: whitespace tokenization,
Unicode-aware lowercasing with surrounding punctuation stripped, and a
terminator-based sentence splitter with an abbreviation guard. No stemming,
no lemmatization, no model calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

# The bundled stopword list, one word per line.
STOPWORDS = frozenset(resources.files("ragmark.data").joinpath("stopwords.txt").read_text("utf-8").split())


@dataclass(frozen=True)
class Term:
    surface: str
    is_stopword: bool


@dataclass(frozen=True)
class SentenceSpan:
    """One sentence inside a passage; slicing text[start:end] is the sentence verbatim.

    `content` is the set of its word surfaces that are not stopwords, computed
    once, when the passage is split.
    """

    passage_id: str
    start: int
    end: int
    content: frozenset[str]

    def slice(self, passage_text: str) -> str:
        return passage_text[self.start : self.end]


def _trimmed(s: str) -> str:
    """`s` from its first alphanumeric character to its last; empty if it has none."""
    i, j = 0, len(s)
    while i < j and not s[i].isalnum():
        i += 1
    while j > i and not s[j - 1].isalnum():
        j -= 1
    return s[i:j]


def normalize_term(raw: str) -> Term | None:
    """Lowercase `raw` and strip surrounding non-alphanumeric characters.

    Returns None when stripping leaves nothing (e.g. punctuation-only input).
    Interior punctuation, including hyphens, is kept intact.
    """
    surface = _trimmed(raw.lower())
    if not surface:
        return None
    return Term(surface=surface, is_stopword=surface in STOPWORDS)


def word_surfaces(text: str) -> list[str]:
    """`normalize_term` surfaces of `text`'s whitespace-delimited words, in
    order and with duplicates; words without an alphanumeric character are
    skipped. Lowercasing never turns a space into a non-space or back, and no
    case rule looks across a space (final sigma stops at one), so the whole
    text is lowercased first and then split at `str.isspace` runs."""
    out = []
    for word in text.lower().split():
        surface = word if word.isalnum() else _trimmed(word)
        if surface:
            out.append(surface)
    return out


def extract_terms(text: str, drop_stopwords: bool = True) -> tuple[Term, ...]:
    """Whitespace-split and normalize `text`, preserving order and duplicates."""
    out = []
    stopwords = STOPWORDS
    for surface in word_surfaces(text):
        is_stopword = surface in stopwords
        if drop_stopwords and is_stopword:
            continue
        out.append(Term(surface=surface, is_stopword=is_stopword))
    return tuple(out)


# Trailing strings that look like sentence ends but are not.
ABBREVIATIONS = frozenset(
    {
        "dr.",
        "mr.",
        "mrs.",
        "ms.",
        "prof.",
        "st.",
        "jr.",
        "sr.",
        "vs.",
        "etc.",
        "e.g.",
        "i.e.",
        "u.s.",
        "u.k.",
        "no.",
        "fig.",
        "eq.",
        "inc.",
        "ltd.",
        "co.",
        "al.",
        "approx.",
        "dept.",
    }
)

# A whitespace-delimited word ending in a terminator that is followed by
# whitespace or the end of the text, so never the dot inside "7.4".
# `\s`/`\S` are exactly `str.isspace` and its negation.
_ENDING_WORD = re.compile(r"(?<!\S)\S*[.!?](?=\s|\Z)")


def _is_abbreviation(word: str) -> bool:
    """True for a listed abbreviation or an initial such as "J." (or a dotted
    acronym not in the list); `word` ends in its terminator."""
    word = word.lower()
    return word[-1] == "." and (word in ABBREVIATIONS or (len(word) == 2 and word[0].isalpha()))


def split_sentences(passage_id: str, passage_text: str) -> tuple[SentenceSpan, ...]:
    """Segment `passage_text` into non-overlapping sentence spans.

    Splits on '.', '!', '?' followed by whitespace or end of text (so never
    inside "7.4"), with an abbreviation guard. A passage without any
    terminator yields a single span. Spans never include surrounding
    whitespace, so reslicing is verbatim.
    """
    ends = [m.end() for m in _ENDING_WORD.finditer(passage_text) if not _is_abbreviation(m.group())]
    content_end = len(passage_text.rstrip())
    if content_end > (ends[-1] if ends else 0):
        ends.append(content_end)  # text after the last terminator is one more sentence
    spans: list[SentenceSpan] = []
    pos = 0
    for end in ends:
        while passage_text[pos].isspace():  # stops before `end`: text[end - 1] is not space
            pos += 1
        content = frozenset(word_surfaces(passage_text[pos:end])) - STOPWORDS
        spans.append(SentenceSpan(passage_id, pos, end, content))
        pos = end
    return tuple(spans)


def content_surfaces(span: SentenceSpan) -> frozenset[str]:
    """Unique non-stopword surfaces of a sentence span."""
    return span.content
