"""In-place evidence tagging.

Selected sentences are wrapped in <evidence>...</evidence> at their exact
spans; every other byte of the passage is left untouched, so stripping the
tags reproduces the original text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import AlreadyTagged, SpanOutOfBounds, UnknownPassage
from .store import Passage
from .text import SentenceSpan

OPEN_TAG = "<evidence>"
CLOSE_TAG = "</evidence>"


@dataclass(frozen=True)
class HighlightedDocument:
    passages: tuple[tuple[Passage, str], ...]  # (passage, highlighted_text)
    evidence_count: int

    def rendered(self) -> str:
        """Title + highlighted text per passage, blank-line separated."""
        return "\n\n".join(f"{p.title}\n{text}" for p, text in self.passages)

    def to_record(self, query_id: str) -> dict:
        return {
            "query_id": query_id,
            "passages": [{"id": p.id, "highlighted_text": text} for p, text in self.passages],
            "evidence_count": self.evidence_count,
        }


def strip_tags(text: str) -> str:
    return text.replace(OPEN_TAG, "").replace(CLOSE_TAG, "")


def _spans_by_passage(
    passages: list[Passage], evidence: list[SentenceSpan]
) -> Iterator[tuple[Passage, list[SentenceSpan]]]:
    """Each passage in input order with its spans in text order; UnknownPassage first, then SpanOutOfBounds."""
    per_passage: dict[str, list[SentenceSpan]] = {p.id: [] for p in passages}
    for span in evidence:
        if span.passage_id not in per_passage:
            raise UnknownPassage(f"evidence references unknown passage {span.passage_id!r}")
        per_passage[span.passage_id].append(span)
    for passage in passages:
        spans = sorted(per_passage[passage.id], key=lambda s: s.start)
        prev_end = 0
        for span in spans:
            if not 0 <= span.start < span.end <= len(passage.text):
                raise SpanOutOfBounds(
                    f"span [{span.start}, {span.end}) outside passage {passage.id!r} "
                    f"of length {len(passage.text)}"
                )
            if span.start < prev_end:
                raise SpanOutOfBounds(f"overlapping spans in passage {passage.id!r}")
            prev_end = span.end
        yield passage, spans


def highlight(passages: list[Passage], evidence: list[SentenceSpan]) -> HighlightedDocument:
    """Wrap each evidence sentence in tags inside its original passage.

    Passages come out in input order; adjacent evidence sentences get
    separate tag pairs. Refuses input that already contains the tag literals.
    """
    out = []
    for passage, spans in _spans_by_passage(passages, evidence):
        if OPEN_TAG in passage.text or CLOSE_TAG in passage.text:
            raise AlreadyTagged(f"passage {passage.id!r} already contains evidence tags")
        pieces = []
        cursor = 0
        for span in spans:
            pieces.append(passage.text[cursor : span.start])
            pieces.append(OPEN_TAG + passage.text[span.start : span.end] + CLOSE_TAG)
            cursor = span.end
        pieces.append(passage.text[cursor:])
        out.append((passage, "".join(pieces)))
    return HighlightedDocument(passages=tuple(out), evidence_count=len(evidence))


def evidence_only(passages: list[Passage], evidence: list[SentenceSpan]) -> str:
    """Evidence sentence texts alone, newline-separated, in document order; spans checked as `highlight` checks them."""
    return "\n".join(p.text[s.start : s.end] for p, spans in _spans_by_passage(passages, evidence) for s in spans)
