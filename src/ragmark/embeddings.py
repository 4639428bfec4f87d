"""Term embedding providers with a persistent read-through vector cache.

Two providers share one interface:

* `RemoteEmbeddingProvider` POSTs batches to an OpenAI-style embeddings
  endpoint ({"model":..., "input":[...]} -> {"data":[{"embedding":[...]}]}).
* `OfflineEmbeddingProvider` derives a unit vector from a seeded hash of the
  term surface, so the whole test suite runs with no network and identical
  vectors on every machine.

In memory each vector is held once, as a float64 row of a `VectorTable`;
`embed_terms` returns a `VectorView` over those rows, and a `TermVector` is
built only when one is looked up. A provider's `_fetch` returns a batch as one
`(len(batch), dim)` float64 block, which goes into the rows in one copy and
into the cache file in one write. Vectors are cached in an append-only JSONL
file, one record per term with the exact float64 bits in base64, which load
into rows as one block per dimension. A torn last line (crash mid-write) is
repaired on open, so later appends start on a fresh line, and any other
corrupt record is skipped on load.
"""

from __future__ import annotations

import base64
import hashlib
import math
import os
import threading
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
import requests

from .errors import DimensionMismatch, MissingVector, RemoteUnavailable, ZeroVector
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


class _Rows:
    """The vectors of one dimension as the rows of a growing float64 array, with the rows' norms.

    Rows arrive only as blocks, through `extend`, which computes the new rows'
    norms as it stores them: one `np.linalg.norm(rows, axis=1)`, the same floats
    a matrix of any other rows holding them gives. Growing copies the rows into
    new arrays, and `arrays` is replaced as one `(data, norms)` tuple once the
    rows and their norms are written, so readers take no lock: the arrays they
    hold stay valid for the rows they held.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._lock = threading.Lock()
        self.arrays = (np.empty((16, dim)), np.empty(16))
        self._n = 0

    def extend(self, block: np.ndarray) -> int:
        """Append the rows of the 2-D `block` in one copy; the index of the first."""
        with self._lock:
            data, norms = self.arrays
            n, end = self._n, self._n + len(block)
            if end > len(data):
                size = max(2 * len(data), end)
                data, norms = np.empty((size, self.dim)), np.empty(size)
                data[:n], norms[:n] = self.arrays[0][:n], self.arrays[1][:n]
            data[n:end] = block
            with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan row fails only once paired
                norms[n:end] = np.linalg.norm(data[n:end], axis=1)
            self.arrays = (data, norms)
            self._n = end
            return n


def _term_vector(surface: str, at: tuple[_Rows, int]) -> TermVector:
    rows, i = at
    return TermVector(surface, tuple(rows.arrays[0][i].tolist()))


class VectorTable:
    """Term vectors held once each, as float64 rows: surface -> (rows of its dimension, row).

    Storing a surface again points it at its new row. Vectors of a dimension
    other than the rest's (a cache written with another model) get rows of
    their own, so only a request that pairs them with the rest fails. Rows are
    only appended, a block at a time, so readers take no lock; `lock` is held
    by a provider from its check for missing surfaces until it has stored what
    it fetched.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self._at: dict[str, tuple[_Rows, int]] = {}
        self._by_dim: dict[int, _Rows] = {}

    def _rows(self, dim: int) -> _Rows:
        rows = self._by_dim.get(dim)
        if rows is None:
            rows = self._by_dim[dim] = _Rows(dim)
        return rows

    def put_rows(self, surfaces: Sequence[str], block: np.ndarray) -> None:
        """Store row i of the `(len(surfaces), dim)` `block` as the vector of `surfaces[i]`."""
        rows = self._rows(block.shape[1])
        self._at.update((s, (rows, i)) for i, s in enumerate(surfaces, rows.extend(block)))

    def put_all(self, vectors: Mapping[str, Sequence[float]]) -> None:
        """Store each surface's vector, with one block per dimension."""
        by_dim: dict[int, dict[str, Sequence[float]]] = {}
        for surface, values in vectors.items():
            by_dim.setdefault(len(values), {})[surface] = values
        for held in by_dim.values():
            self.put_rows(list(held), np.array(list(held.values()), dtype=np.float64))

    def __contains__(self, surface: object) -> bool:
        return surface in self._at

    def __len__(self) -> int:
        return len(self._at)

    def get(self, surface: str) -> TermVector | None:
        at = self._at.get(surface)
        return None if at is None else _term_vector(surface, at)

    def view(self, surfaces: Iterable[str]) -> VectorView:
        return VectorView({s: self._at[s] for s in surfaces})


class VectorView(Mapping[str, TermVector]):
    """Read-only `Mapping[str, TermVector]` over some surfaces' rows of a `VectorTable`.

    `gather` hands out the rows themselves; a `TermVector` is built only by
    `__getitem__`.
    """

    def __init__(self, at: dict[str, tuple[_Rows, int]]):
        self._at = at

    @classmethod
    def of(cls, vectors: Mapping[str, TermVector], surfaces: Iterable[str]) -> VectorView:
        """`vectors` itself if it is a view, else the vectors it has for `surfaces` copied into a table."""
        if isinstance(vectors, VectorView):
            return vectors
        held = {s: vectors[s].values for s in surfaces if s in vectors}
        table = VectorTable()
        table.put_all(held)
        return table.view(held)

    def __getitem__(self, surface: str) -> TermVector:
        return _term_vector(surface, self._at[surface])

    def __contains__(self, surface: object) -> bool:
        return surface in self._at

    def __iter__(self) -> Iterator[str]:
        return iter(self._at)

    def __len__(self) -> int:
        return len(self._at)

    def locate(self, surfaces: Iterable[str]) -> list[tuple[_Rows, int]]:
        """Where each surface's row is; MissingVector for the first surface without one."""
        try:
            return [self._at[s] for s in surfaces]
        except KeyError as exc:
            raise MissingVector(f"no embedding for term {exc.args[0]!r}") from None

    def gather(self, surfaces: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row array, norm array, index of each surface's row in them) for a non-empty `surfaces`.

        MissingVector as `locate`; DimensionMismatch when the vectors do not all
        have one dimension.
        """
        at = self.locate(surfaces)
        blocks = {rows for rows, _ in at}
        if len(blocks) > 1:
            raise DimensionMismatch(f"term vectors of dimensions {sorted(b.dim for b in blocks)}")
        data, norms = blocks.pop().arrays
        return data, norms, np.array([i for _, i in at], dtype=np.intp)


def _encode_rows(terms: Sequence[str], block: np.ndarray) -> str:
    """One line per term, in order: `json.dumps({"term", "dim", "f64"})` of its row and a newline.

    Rendered without the dict: `encode_basestring_ascii` is the string encoder
    `json.dumps` uses, and the base64 alphabet needs no escapes.
    """
    tail = f', "dim": {block.shape[1]}, "f64": "'
    rows = np.ascontiguousarray(block, dtype="<f8")
    return "".join(
        f'{{"term": {encode_basestring_ascii(t)}{tail}{base64.b64encode(row).decode("ascii")}"}}\n'
        for t, row in zip(terms, rows)
    )


def _decode_vector(rec: dict) -> tuple[str, np.ndarray]:
    """Read an `f64` record, or one written before it with a decimal `values` list."""
    if "f64" in rec:
        raw = base64.b64decode(rec["f64"], validate=True)
        if len(raw) % 8:
            raise ValueError("f64 is not a whole number of float64 values")
        values = np.frombuffer(raw, dtype="<f8")
    else:
        values = np.array([float(v) for v in rec["values"]], dtype=np.float64)
    if len(values) != rec["dim"]:
        raise ValueError("dim does not match the values")
    return rec["term"], values


class VectorCache:
    """Append-only JSONL store of {"term", "dim", "f64"} records, held in memory as a `VectorTable`.

    `f64` is the base64 of `dim` little-endian float64 values, so a reload gives
    back every vector bit for bit. Each record is read with `np.frombuffer`, and
    the file's records go into `table` as one block per dimension; a later
    record for a term wins, also one of another dimension. The file is read
    only here and is otherwise only appended to.
    """

    def __init__(self, path: str | Path):
        self.table = VectorTable()
        self._file = KeyedJsonl(path, _decode_vector)
        self.table.put_all(dict(self._file.load()))

    def get(self, term: str) -> TermVector | None:
        return self.table.get(term)

    def put_rows(self, terms: Sequence[str], block: np.ndarray) -> None:
        """Hold row i of `block` as the vector of `terms[i]` and append the rows' records in one write."""
        self.table.put_rows(terms, block)
        self._file.append(_encode_rows(terms, block))

    def __len__(self) -> int:
        return len(self.table)


class EmbeddingProvider:
    """Base provider: read-through cache in front of `_fetch`."""

    def __init__(self, cache: VectorCache | None = None, batch_size: int = 64):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.cache = cache
        self.batch_size = batch_size
        self.table = cache.table if cache is not None else VectorTable()
        self.fetch_count = 0  # terms actually fetched, for cache tests

    def embed_terms(self, terms: Iterable[str]) -> Mapping[str, TermVector]:
        """The vectors of the unique `terms`: a read-only view over the rows of the provider's table.

        The check for terms the table lacks, their fetches and their stores
        hold the table's lock throughout, so concurrent calls fetch each term
        once.
        """
        wanted = set(terms)
        if "" in wanted:
            raise ValueError("cannot embed an empty term")
        unique = sorted(wanted)
        with self.table.lock:
            missing = [t for t in unique if t not in self.table]
            for i in range(0, len(missing), self.batch_size):
                batch = missing[i : i + self.batch_size]
                block = self._fetch(batch)
                self.fetch_count += len(batch)
                self._validate(batch, block)
                if self.cache is not None:
                    self.cache.put_rows(batch, block)
                else:
                    self.table.put_rows(batch, block)
        return self.table.view(unique)

    def _validate(self, batch: list[str], block: np.ndarray) -> None:
        want = (len(batch), self.dimension)
        if block.shape != want:
            raise DimensionMismatch(f"provider returned a block of shape {block.shape}, expected {want}")
        zero = ~block.any(axis=1)
        if zero.any():
            raise ZeroVector(f"provider returned the zero vector for {batch[int(zero.argmax())]!r}")

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    def _fetch(self, batch: list[str]) -> np.ndarray:
        """The batch's vectors as one `(len(batch), dim)` float64 array, row i for `batch[i]`."""
        raise NotImplementedError


def _hash_constants(init: int, mult: int, n: int) -> list[int]:
    """The first `n` values of a SeedSequence hash constant: `init`, then times `mult` mod 2**32."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return out


def _column(values: Sequence[int]) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


# NumPy's SeedSequence (pool size 4) hashes every word with the next value of a
# running constant that does not depend on the data: INIT_A/MULT_A while it
# fills and mixes the pool (4 + 12 words), INIT_B/MULT_B while it draws from it.
_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_FILL_XOR, _FILL_MUL = _column(_A[0:4]), _column(_A[1:5])
_MIX_XOR = [_column(_A[4 + 3 * s : 7 + 3 * s]) for s in range(4)]
_MIX_MUL = [_column(_A[5 + 3 * s : 8 + 3 * s]) for s in range(4)]
_DRAW_XOR, _DRAW_MUL = _column(_B[0:8]), _column(_B[1:9])
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _xorshift(v: np.ndarray) -> np.ndarray:
    v ^= v >> np.uint32(16)
    return v


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """`(state, inc)` of `np.random.PCG64(seed)` for each seed of the `uint64` array `seeds`.

    NumPy's `SeedSequence(seed).generate_state(4, np.uint64)` run on the whole
    batch at once as `uint32` array arithmetic, one array per pool word, then
    `pcg_setseq_128_srandom_r` on those words in Python ints. A seed is two
    32-bit words, low first; a seed below 2**32 is one, and pads the pool with
    `hashmix(0)`, which is what its zero high word gives.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool ^= _FILL_XOR
    pool *= _FILL_MUL
    _xorshift(pool)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _xorshift((pool[src] ^ _MIX_XOR[src]) * _MIX_MUL[src])
        pool[dst] = _xorshift(_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed)
    words = np.concatenate([pool, pool]) ^ _DRAW_XOR
    words *= _DRAW_MUL
    words = _xorshift(words).astype(np.uint64)
    state_hi, state_lo, seq_hi, seq_lo = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(state_hi, state_lo, seq_hi, seq_lo):
        inc = (q_hi << 65 | q_lo << 1 | 1) & _M128
        states.append(((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc & _M128, inc))
    return states


class OfflineEmbeddingProvider(EmbeddingProvider):
    """Deterministic provider: unit vector from sha256(seed, surface).

    A pure function of (seed, term surface, dimension); distinct surfaces get
    near-orthogonal vectors at moderate dimension, so only identical surfaces
    exceed a 0.98 soft-match threshold.

    The vector of a term is `np.random.default_rng(s).standard_normal(dim)`
    divided by its norm, where `s` is the first 8 bytes of
    `sha256(f"{seed}:{term}")` read big-endian. A batch is seeded in one pass:
    `_pcg64_states` gives every term's generator state at once, and each row is
    drawn from one generator set to it.
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

    def _fetch(self, batch: list[str]) -> np.ndarray:
        prefixes = (hashlib.sha256(f"{self.seed}:{t}".encode("utf-8")).digest()[:8] for t in batch)
        seeds = np.frombuffer(b"".join(prefixes), dtype=">u8")
        bits = np.random.PCG64(0)
        rng = np.random.Generator(bits)
        block = np.empty((len(batch), self._dimension))
        for (state, inc), row in zip(_pcg64_states(seeds), block):
            pcg = {"state": state, "inc": inc}
            bits.state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
            rng.standard_normal(out=row)
            row /= math.sqrt(row.dot(row))  # the float np.linalg.norm(row) gives
        return block


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

    def _validate(self, batch: list[str], block: np.ndarray) -> None:
        if self._dimension is None:
            self._dimension = block.shape[1]
        super()._validate(batch, block)

    def _fetch(self, batch: list[str]) -> np.ndarray:
        def parse(reply) -> np.ndarray:
            embeddings = [item["embedding"] for item in reply["data"]]
            if len(embeddings) != len(batch):
                raise ValueError(f"{len(embeddings)} embeddings for {len(batch)} terms")
            dims = sorted({len(e) for e in embeddings})
            if len(dims) > 1:  # an answer, so no retry
                raise DimensionMismatch(f"provider returned dims {dims} in one reply")
            block = np.array(embeddings)
            if block.ndim != 2 or block.dtype.kind not in "biuf":  # e.g. a null, which float64 reads as nan
                raise TypeError(f"embeddings hold {block.dtype} values, not numbers")
            return block.astype(np.float64)

        body = {"model": self.model_name, "input": batch}
        return post_with_retries(
            self._post, self.endpoint, body, parse, api_key=self.api_key, timeout=self.timeout,
            retries=self.retries, unavailable=RemoteUnavailable, what="embedding endpoint",
        )
