"""Independent reference implementations the main code is checked against.

These deliberately avoid the package's scoring and ranking code paths: plain
double loops and the textbook BM25 formula, written once and never optimized.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from bisect import bisect_left
from collections import Counter
from itertools import chain, repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ragmark.embeddings import TermVector, VectorView, lookup
from ragmark.errors import DimensionMismatch, MissingVector, ZeroVector
from ragmark.highlight import HighlightedDocument
from ragmark.text import STOPWORDS, SentenceSpan, extract_terms, word_surfaces


def brute_force_align(query_vecs: list[np.ndarray], sentence_vecs: list[np.ndarray]) -> float:
    """Sum over query vectors of the best cosine against the sentence vectors."""
    total = 0.0
    for q in query_vecs:
        best = 0.0
        for p in sentence_vecs:
            num = float(np.dot(q, p))
            den = float(np.linalg.norm(q) * np.linalg.norm(p))
            best = max(best, num / den)
        total += best
    return total


def brute_force_argmax(
    query_vecs: list[np.ndarray], sentences: list[list[np.ndarray]]
) -> tuple[int, float]:
    """Index and score of the best sentence; ties broken by lowest index."""
    best_idx, best_score = 0, -math.inf
    for i, sent in enumerate(sentences):
        score = brute_force_align(query_vecs, sent)
        if score > best_score:
            best_idx, best_score = i, score
    return best_idx, best_score


def bm25_reference(
    query_terms: list[str], docs: list[list[str]], k1: float = 1.2, b: float = 0.75
) -> list[float]:
    """Textbook Okapi BM25 with +1 idf smoothing, one score per document."""
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n if n else 0.0
    scores = []
    for doc in docs:
        dl = len(doc)
        score = 0.0
        for term in query_terms:
            tf = doc.count(term)
            if tf == 0:
                continue
            df = sum(1 for d in docs if term in d)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        scores.append(score)
    return scores


def reference_postings(passages: Sequence) -> tuple[dict[str, dict[int, int]], list[int]]:
    """term -> {passage index: tf} and each passage's length in content terms,
    from one `Counter` per passage of `extract_terms(title + " " + text)`."""
    postings: dict[str, dict[int, int]] = {}
    lengths = []
    for i, p in enumerate(passages):
        terms = [t.surface for t in extract_terms(p.title + " " + p.text)]
        lengths.append(len(terms))
        for term, tf in Counter(terms).items():
            postings.setdefault(term, {})[i] = tf
    return postings, lengths


def reference_index_arrays(passages: Sequence) -> dict:
    """The BM25 index's fields built term by term: ids by first occurrence over
    the non-stopword `word_surfaces(title + " " + text)`, then each (term id,
    passage) pair once, sorted, with its count as the tf. `docs` and `tfs` are
    int32, `offsets` int64, as the index stores them."""
    term_ids: dict[str, int] = {}
    counts: Counter[tuple[int, int]] = Counter()
    lengths = []
    for i, p in enumerate(passages):
        run = [term_ids.setdefault(s, len(term_ids)) for s in word_surfaces(p.title + " " + p.text) if s not in STOPWORDS]
        lengths.append(len(run))
        counts.update((t, i) for t in run)
    keys = sorted(counts)
    key_terms = [t for t, _ in keys]
    offsets = [bisect_left(key_terms, t) for t in range(len(term_ids) + 1)]
    return {
        "terms": list(term_ids),
        "docs": np.array([i for _, i in keys], dtype=np.int32).tobytes(),
        "tfs": np.array([counts[k] for k in keys], dtype=np.int32).tobytes(),
        "offsets": np.array(offsets, dtype=np.int64).tobytes(),
        "doc_lengths": lengths,
        "doc_freq": [(term, offsets[t + 1] - offsets[t]) for term, t in term_ids.items()],
    }


def reference_sentence_bounds(text: str, abbreviations: frozenset[str]) -> list[tuple[int, int]]:
    """(start, end) of each sentence, by testing every character in turn.

    A '.', '!' or '?' ends a sentence when followed by whitespace or the end
    of the text, unless it is a '.' between digits, closes a listed
    abbreviation or closes a one-letter initial.
    """
    n = len(text)

    def ends(i: int) -> bool:
        if i + 1 < n and not text[i + 1].isspace():
            return False
        if text[i] == ".":
            if 0 < i < n - 1 and text[i - 1].isdigit() and text[i + 1].isdigit():
                return False
            j = i
            while j > 0 and not text[j - 1].isspace():
                j -= 1
            word = text[j : i + 1].lower()
            if word in abbreviations or (len(word) == 2 and word[0].isalpha()):
                return False
        return True

    bounds = []
    pos = 0
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        end = next((i + 1 for i in range(pos, n) if text[i] in ".!?" and ends(i)), None)
        if end is None:
            end = n
            while end > pos and text[end - 1].isspace():
                end -= 1
        bounds.append((pos, end))
        pos = end
    return bounds


def reference_normalize(raw: str) -> str | None:
    """`raw` lowercased and trimmed, one character at a time from each end,
    to its first and last `str.isalnum` character; None when nothing is left."""
    surface = raw.lower()
    lo, hi = 0, len(surface)
    while lo < hi and not surface[lo].isalnum():
        lo += 1
    while hi > lo and not surface[hi - 1].isalnum():
        hi -= 1
    return surface[lo:hi] or None


def reference_surfaces(text: str) -> list[str]:
    """`reference_normalize` of each whitespace-split word, empty ones dropped."""
    return [s for s in map(reference_normalize, text.split()) if s is not None]


def reference_offline_vector(seed: int, term: str, dim: int) -> tuple[float, ...]:
    """The offline provider's vector for `term`, built one term at a time as a fresh array:
    a generator seeded from sha256 of "seed:term", `dim` normal draws, divided by their norm."""
    digest = hashlib.sha256(f"{seed}:{term}".encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    values = rng.standard_normal(dim)
    values /= np.linalg.norm(values)
    return tuple(values.tolist())


def values_record(term: str, values: tuple[float, ...]) -> str:
    """A vector cache line in the first format, the floats as a decimal `values` list."""
    return json.dumps({"term": term, "dim": len(values), "values": list(values)})


def decode_values_record(line: str) -> tuple[str, tuple[float, ...]]:
    """(term, values) of a `values_record` line, read as the cache read it before `f64`."""
    rec = json.loads(line)
    values = tuple(float(v) for v in rec["values"])
    if len(values) != rec["dim"]:
        raise ValueError("dim does not match the values")
    return rec["term"], values


def reference_vector_cache(path: Path) -> dict[int, list[tuple[str, bytes]]]:
    """The rows a vector cache file loads into: per dimension, (term, little-endian float64
    bytes) in row order, as the loader read the file before `jsonl.decode_line`.

    The file's last line, when it lacks its newline, counts only if it is a whole JSON
    value, as `jsonl.repair_tail` leaves it. Each line goes through `json.loads` and
    `base64.b64decode(..., validate=True)` (or the decimal `values` list), and a line
    either rejects with KeyError, TypeError or ValueError is skipped. A term's row in a
    dimension is where its first record of that dimension put it; its bytes are its
    last record's, and it keeps a row only in the dimension of that last record.
    """
    data = path.read_bytes()
    cut = data.rfind(b"\n") + 1
    if cut < len(data):
        try:
            json.loads(data[cut:])
        except ValueError:
            data = data[:cut]
    order: dict[int, list[str]] = {}
    latest: dict[str, bytes] = {}
    for line in data.decode("utf-8").split("\n"):
        try:
            rec = json.loads(line)
            if "f64" in rec:
                raw = base64.b64decode(rec["f64"], validate=True)
            else:
                raw = np.array([float(v) for v in rec["values"]], dtype="<f8").tobytes()
            if len(raw) % 8 or len(raw) // 8 != rec["dim"]:
                raise ValueError("dim does not match the values")
            term = rec["term"]
        except (KeyError, TypeError, ValueError):
            continue
        terms = order.setdefault(len(raw) // 8, [])
        if term not in terms:
            terms.append(term)
        latest[term] = raw
    return {dim: [(t, latest[t]) for t in terms if len(latest[t]) == 8 * dim] for dim, terms in order.items()}


def _vector(surface: str, vectors: Mapping[str, TermVector]) -> TermVector:
    try:
        return vectors[surface]
    except KeyError:
        raise MissingVector(f"no embedding for term {surface!r}") from None


def reference_cosine_matrix(
    rows: Sequence[str], cols: Sequence[str], vectors: Mapping[str, TermVector]
) -> np.ndarray:
    """The cosine matrix as `alignment._cosine_matrix` built it from `TermVector` tuples,
    one matrix of the request's unique surfaces at a time, before the vector table.

    Cosines of every row surface against every column surface, clipped to [-1, 1].

    Raises what the pairwise `cosine` calls would: MissingVector for any row
    surface, and, when there is at least one pair, MissingVector for a column
    surface, DimensionMismatch for unequal dimensions and ZeroVector for a
    zero vector.
    """
    for s in rows:
        _vector(s, vectors)
    if not rows or not cols:
        return np.zeros((len(rows), len(cols)))
    surfaces = list(dict.fromkeys([*rows, *cols]))
    vecs = [_vector(s, vectors) for s in surfaces]
    dims = {v.dimension for v in vecs}
    if len(dims) > 1:
        raise DimensionMismatch(f"term vectors of dimensions {sorted(dims)}")
    (dim,) = dims
    values = chain.from_iterable(v.values for v in vecs)
    m = np.fromiter(values, dtype=np.float64, count=len(vecs) * dim).reshape(len(vecs), dim)
    norms = np.linalg.norm(m, axis=1)
    if not norms.all():
        raise ZeroVector("cosine undefined for the zero vector")
    at = {s: i for i, s in enumerate(surfaces)}
    r, c = [at[s] for s in rows], [at[s] for s in cols]
    return np.clip((m[r] @ m[c].T) / np.outer(norms[r], norms[c]), -1.0, 1.0)


def reference_maxsim(
    pool: Sequence[SentenceSpan], vectors: Mapping[str, TermVector], row_surfaces: Sequence[str]
) -> np.ndarray:
    """The MaxSim matrix as `alignment.MaxSimScorer` built it before its width-major columns:
    one `reference_cosine_matrix` of the sorted unique row surfaces against the sorted unique
    content surfaces of the pool, then a per-sentence max, one entry at a time.

    `best[r, s]` is max(0, the best cosine of row r against sentence s's content terms),
    with a row's term against itself taken as exactly 1.0, and 0 for a sentence without
    content terms.
    """
    rows = sorted(set(row_surfaces))
    cols = sorted(set().union(*(span.content for span in pool)))
    sim = reference_cosine_matrix(rows, cols, vectors)
    at = {s: j for j, s in enumerate(cols)}
    best = np.zeros((len(rows), len(pool)))
    for i, row in enumerate(rows):
        for p, span in enumerate(pool):
            for s in span.content:
                best[i, p] = max(best[i, p], 1.0 if s == row else float(sim[i, at[s]]))
    return best


def reference_scorer_best(
    pool: Sequence[SentenceSpan], vectors: Mapping[str, TermVector], row_surfaces: Sequence[str]
) -> np.ndarray:
    """`best` as `alignment.MaxSimScorer` built it before one vocabulary pass gave its ids.

    The sorted unique rows; width-major columns of each sentence's sorted terms, as surfaces;
    `at`, a second row index grown by the column surfaces that are not rows (`extra`), to
    gather the vectors and look each column up; the product `rows @ cols.T` divided by the
    outer product of the norms and clipped; a verbatim pin that maps every column through the
    row index again; then the max over each width group's runs and `max(0, .)`.
    """
    pool = tuple(pool)
    rows = sorted(set(row_surfaces))
    row_of = {s: i for i, s in enumerate(rows)}
    by_width: dict[int, list[int]] = {}
    for pos, span in enumerate(pool):
        if span.content:
            by_width.setdefault(len(span.content), []).append(pos)
    cols: list[str] = []
    for positions in by_width.values():
        cols.extend(chain.from_iterable(zip(*map(sorted, [pool[p].content for p in positions]))))
    if not rows or not cols:
        lookup(vectors, rows)
        sim = np.zeros((len(rows), len(cols)))
    else:
        at = {s: i for i, s in enumerate(rows)}
        extra = [s for s in dict.fromkeys(cols) if s not in at]
        at.update(zip(extra, range(len(rows), len(rows) + len(extra))))
        surfaces = [*rows, *extra]
        data, norms, idx = VectorView.of(vectors, surfaces).gather(surfaces)
        lengths = norms[idx]
        if not lengths.all():
            raise ZeroVector("cosine undefined for the zero vector")
        vecs = data[idx]
        c = np.fromiter(map(at.__getitem__, cols), dtype=np.intp, count=len(cols))
        sim = vecs[: len(rows)] @ vecs[c].T
        sim /= np.outer(lengths[: len(rows)], lengths[c])
        np.clip(sim, -1.0, 1.0, out=sim)
    row_of_col = np.fromiter(map(row_of.get, cols, repeat(-1)), dtype=np.intp, count=len(cols))
    verbatim = row_of_col >= 0
    sim[row_of_col[verbatim], verbatim.nonzero()[0]] = 1.0
    best = np.zeros((len(rows), len(pool)))
    start = 0
    for width, positions in by_width.items():
        n = len(positions)
        group = sim[:, start : start + n]
        for k in range(1, width):
            np.maximum(group, sim[:, start + k * n : start + (k + 1) * n], out=group)
        if n == len(pool):
            best = group
        else:
            best[:, positions] = group
        start += width * n
    return np.fmax(best, 0.0) + 0.0


# --- prompts: the per-family builders, instruction texts included, kept verbatim as the reference.

_MCQ_INSTRUCTION = (
    "Given four answer candidates, A, B, C and D, choose the best answer choice.\n"
    "Please answer with the capitalized alphabet only, without adding any extra phrase or period."
)

_CLAIM_INSTRUCTION = (
    "Read the documents and answer the question: Is the following statement correct or not? "
    "Only say true if the statement is true; otherwise say false. Don't capitalize or add "
    "periods, just say \"true\" or \"false\"."
)

_ALPACA_PREAMBLE = (
    "Below is an instruction that describes a task. "
    "Write a response that appropriately completes the request."
)

_LLAMA_SYS = """<s>[INST] <<SYS>>
You are a helpful, respectful and honest assistant. Always answer as helpfully as possible, while being safe. Your answers should not include any harmful, unethical, racist, sexist, toxic, dangerous, or illegal content. Please ensure that your responses are socially unbiased and positive in nature.

If a question does not make any sense, or is not factually coherent, explain why instead of answering something not correct. If you don't know the answer to a question, please don't share false information.
<</SYS>>"""


def format_choices(choices: dict[str, str]) -> str:
    return "\n".join(f"{label}. {choices[label]}" for label in sorted(choices))


def _mistral_prompt(record, documents: str | None) -> str:
    docs_block = f"Documents: {documents}\n\n" if documents is not None else ""
    if record.task == "mcq":
        lead = "Refer to the following documents, follow the instruction and answer the question.\n\n" if documents is not None else ""
        return (
            f"{lead}{docs_block}"
            f"Question: {record.question}\n\n"
            f"Choices:\n{format_choices(record.choices)}\n\n"
            f"Instruction: {_MCQ_INSTRUCTION}"
        )
    if record.task == "claim-verification":
        return (
            f"{_CLAIM_INSTRUCTION}\n\n"
            f"{docs_block}"
            f"Statement: {record.question}\n"
            f"### Response:"
        )
    lead = "Refer to the following documents, follow the instruction and answer the question.\n\n### Input:\n" if documents is not None else ""
    return (
        f"{lead}{docs_block}"
        f"### Instruction: Answer the question: {record.question}\n"
        f"### Response:"
    )


def _alpaca_body(record, documents: str | None) -> str:
    docs_block = f"Documents: {documents}\n\n" if documents is not None else ""
    if record.task == "mcq":
        return (
            f"### Instruction: {_MCQ_INSTRUCTION}\n\n"
            f"### Input:\n{docs_block}"
            f"Question: {record.question}\n"
            f"Choices:\n{format_choices(record.choices)}\n\n"
            f"### Response:"
        )
    if record.task == "claim-verification":
        return (
            f"### Instruction: {_CLAIM_INSTRUCTION}\n\n"
            f"### Input:\n{docs_block}"
            f"Statement: {record.question}\n"
            f"### Response:"
        )
    return (
        f"### Instruction: Refer to the following documents and answer the question.\n"
        f"### Input:\n{docs_block}"
        f"Question: {record.question}\n"
        f"### Response:"
    )


def _alpaca_prompt(record, documents: str | None) -> str:
    return f"{_ALPACA_PREAMBLE}\n\n{_alpaca_body(record, documents)}"


def _llama2_prompt(record, documents: str | None) -> str:
    if record.task == "mcq":
        return _alpaca_prompt(record, documents)
    return f"{_LLAMA_SYS}\n\n{_ALPACA_PREAMBLE}\n\n{_alpaca_body(record, documents)} [/INST]"


_BUILDERS = {
    "mistral": _mistral_prompt,
    "alpaca": _alpaca_prompt,
    "llama2": _llama2_prompt,
}


def reference_prompt(record, context: HighlightedDocument | str | None, model_family: str) -> str:
    """The prompt as `evaluation.build_prompt` rendered it with one builder per model family and
    a branch per task, before its template table: the Documents block only when `context` is not
    None, and a `HighlightedDocument` as its `rendered()` text."""
    documents = context.rendered() if isinstance(context, HighlightedDocument) else context
    return _BUILDERS[model_family](record, documents)
