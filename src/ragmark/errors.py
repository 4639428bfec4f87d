"""Exception hierarchy shared across the package."""


class RagmarkError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(RagmarkError):
    """Vectors of unequal length, or a provider returned the wrong length."""


class ZeroVector(RagmarkError):
    """A provider emitted (or an operation received) an all-zero vector."""


class RemoteUnavailable(RagmarkError):
    """Remote embedding service unreachable after bounded retries."""


class MissingVector(RagmarkError):
    """A term required for scoring has no embedding in the vector map."""


class EmptyCandidatePool(RagmarkError):
    """Evidence retrieval invoked with no candidate sentences."""


class MissingResults(RagmarkError):
    """A record's query id has no entry in the precomputed retrieval results."""


class MissingSource(RagmarkError):
    """A setting's retrieval mode needs a source the run was not given; raised before any record runs."""


class MissingBm25Index(MissingSource):
    """bm25 retrieval was requested with no BM25 index (no `kb_path`)."""


class MissingPrecomputedResults(MissingSource):
    """precomputed-dense retrieval was requested with no precomputed results (no `results_path`)."""


class MissingEmbeddingProvider(MissingSource):
    """A highlighting setting with retrieval was given no embedding provider to score evidence with."""


class DuplicateId(RagmarkError):
    """Two passages or records share an identifier."""


class EmptyIndex(RagmarkError):
    """A query was issued against an index with zero documents."""


class MalformedRecord(RagmarkError):
    """A JSONL line failed to parse or validate; carries the line number."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class MissingField(MalformedRecord):
    """A required field is absent from a record."""


class MissingChoices(MalformedRecord):
    """An MCQ record has no answer choices."""


class UnknownPassage(RagmarkError):
    """An evidence span references a passage id not present in the input."""


class SpanOutOfBounds(RagmarkError):
    """An evidence span does not fit inside its passage text."""


class AlreadyTagged(RagmarkError):
    """Input text already contains evidence tag literals; refusing to double-tag."""


class UnknownTemplate(RagmarkError):
    """No prompt template registered for the (task, model family) pair."""


class LlmUnavailable(RagmarkError):
    """Chat LLM endpoint unreachable after bounded retries."""


class EmptyReply(RagmarkError):
    """The LLM returned a blank reply."""
