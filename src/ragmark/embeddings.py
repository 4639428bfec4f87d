"""Term embedding providers with a persistent read-through vector cache.

Two providers share one interface:

* `RemoteEmbeddingProvider` POSTs batches to an OpenAI-style embeddings
  endpoint ({"model":..., "input":[...]} -> {"data":[{"embedding":[...]}]}).
* `OfflineEmbeddingProvider` derives a unit vector from a seeded hash of the
  term surface, so the whole test suite runs with no network and identical
  vectors on every machine.

Vectors are cached in an append-only JSONL file. A torn last line (crash
mid-write) is repaired on open, so later appends start on a fresh line, and
any other corrupt record is skipped on load.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np
import requests

from .errors import DimensionMismatch, RemoteUnavailable, ZeroVector
from .jsonl import KeyedJsonl
from .remote import post_with_retries


@dataclass(frozen=True)
class TermVector:
    term_surface: str
    values: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def cosine(a: TermVector, b: TermVector) -> float:
    """Cosine similarity in [-1, 1]; rejects mismatched dimensions and zero vectors."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"{a.dimension} vs {b.dimension}")
    va, vb = a.as_array(), b.as_array()
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for the zero vector")
    return float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0))


@dataclass(frozen=True)
class ProviderConfig:
    """Declarative provider selection; `build()` yields a ready provider."""

    kind: str = "deterministic-offline"  # or "remote"
    endpoint: str | None = None
    model_name: str = "jina-embeddings-v2-base-en"
    cache_path: str | None = None
    batch_size: int = 64
    dimension: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("remote", "deterministic-offline"):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if (self.kind == "remote") != (self.endpoint is not None):
            raise ValueError("endpoint must be present iff kind is remote")

    def build(self) -> "EmbeddingProvider":
        cache = VectorCache(self.cache_path) if self.cache_path else None
        if self.kind == "remote":
            return RemoteEmbeddingProvider(
                endpoint=self.endpoint,
                model_name=self.model_name,
                cache=cache,
                batch_size=self.batch_size,
            )
        return OfflineEmbeddingProvider(
            dimension=self.dimension, seed=self.seed, cache=cache, batch_size=self.batch_size
        )


def _decode_vector(rec: dict) -> tuple[str, TermVector]:
    vec = TermVector(rec["term"], tuple(float(v) for v in rec["values"]))
    if vec.dimension != rec["dim"]:
        raise ValueError("dim does not match the values")
    return vec.term_surface, vec


class VectorCache:
    """Append-only JSONL store of (term, dim, values) records, term-keyed in memory."""

    def __init__(self, path: str | Path):
        self._store = KeyedJsonl(path, _decode_vector)

    def get(self, term: str) -> TermVector | None:
        return self._store.get(term)

    def put_many(self, vectors: Iterable[TermVector]) -> None:
        self._store.put_many(
            (v.term_surface, v, {"term": v.term_surface, "dim": v.dimension, "values": list(v.values)})
            for v in vectors
        )

    def __len__(self) -> int:
        return len(self._store)


class EmbeddingProvider:
    """Base provider: read-through cache in front of `_fetch`."""

    def __init__(self, cache: VectorCache | None = None, batch_size: int = 64):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.cache = cache
        self.batch_size = batch_size
        self._lock = threading.Lock()
        self.fetch_count = 0  # terms actually fetched, for cache tests

    def embed_terms(self, terms: Iterable[str]) -> dict[str, TermVector]:
        unique = sorted({t for t in terms})
        for t in unique:
            if not t:
                raise ValueError("cannot embed an empty term")
        out: dict[str, TermVector] = {}
        missing: list[str] = []
        for t in unique:
            cached = self.cache.get(t) if self.cache is not None else None
            if cached is not None:
                out[t] = cached
            else:
                missing.append(t)
        with self._lock:
            for i in range(0, len(missing), self.batch_size):
                batch = missing[i : i + self.batch_size]
                fetched = self._fetch(batch)
                self.fetch_count += len(batch)
                self._validate(batch, fetched)
                if self.cache is not None:
                    self.cache.put_many(fetched[t] for t in batch)
                out.update(fetched)
        return out

    def _validate(self, batch: list[str], fetched: Mapping[str, TermVector]) -> None:
        dim = self.dimension
        for t in batch:
            vec = fetched[t]
            if vec.dimension != dim:
                raise DimensionMismatch(f"provider returned dim {vec.dimension}, expected {dim}")
            if not any(vec.values):
                raise ZeroVector(f"provider returned the zero vector for {t!r}")

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    def _fetch(self, batch: list[str]) -> dict[str, TermVector]:
        raise NotImplementedError


class OfflineEmbeddingProvider(EmbeddingProvider):
    """Deterministic provider: unit vector from sha256(seed, surface).

    A pure function of (seed, term surface, dimension); distinct surfaces get
    near-orthogonal vectors at moderate dimension, so only identical surfaces
    exceed a 0.98 soft-match threshold.
    """

    def __init__(
        self,
        dimension: int = 64,
        seed: int = 0,
        cache: VectorCache | None = None,
        batch_size: int = 64,
    ):
        super().__init__(cache=cache, batch_size=batch_size)
        self._dimension = dimension
        self.seed = seed

    @property
    def dimension(self) -> int:
        return self._dimension

    def _vector_for(self, term: str) -> TermVector:
        digest = hashlib.sha256(f"{self.seed}:{term}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        values = rng.standard_normal(self._dimension)
        values /= np.linalg.norm(values)
        return TermVector(term, tuple(float(v) for v in values))

    def _fetch(self, batch: list[str]) -> dict[str, TermVector]:
        return {t: self._vector_for(t) for t in batch}


class RemoteEmbeddingProvider(EmbeddingProvider):
    """HTTP client for an embeddings endpoint, with bounded retries."""

    def __init__(
        self,
        endpoint: str,
        model_name: str = "jina-embeddings-v2-base-en",
        cache: VectorCache | None = None,
        batch_size: int = 64,
        retries: int = 3,
        timeout: float = 30.0,
        api_key: str | None = None,
        post: Callable[..., requests.Response] | None = None,
    ):
        super().__init__(cache=cache, batch_size=batch_size)
        self.endpoint = endpoint
        self.model_name = model_name
        self.retries = retries
        self.timeout = timeout
        self.api_key = api_key if api_key is not None else os.environ.get("EMBED_API_KEY")
        self._post = post or requests.post
        self._dimension: int | None = None

    @property
    def dimension(self) -> int:
        if self._dimension is None:
            raise RuntimeError("dimension unknown before the first fetch")
        return self._dimension

    def _validate(self, batch: list[str], fetched: Mapping[str, TermVector]) -> None:
        if self._dimension is None and batch:
            self._dimension = fetched[batch[0]].dimension
        super()._validate(batch, fetched)

    def _fetch(self, batch: list[str]) -> dict[str, TermVector]:
        def parse(reply) -> dict[str, TermVector]:
            return {
                term: TermVector(term, tuple(float(v) for v in item["embedding"]))
                for term, item in zip(batch, reply["data"], strict=True)
            }

        body = {"model": self.model_name, "input": batch}
        return post_with_retries(
            self._post, self.endpoint, body, parse, api_key=self.api_key, timeout=self.timeout,
            retries=self.retries, unavailable=RemoteUnavailable, what="embedding endpoint",
        )
