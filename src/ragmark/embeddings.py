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
into the cache file in one write; a table holds one dimension. Vectors are
cached in an append-only JSONL file, one record per term with the exact
float64 bits in base64, which load into rows as one block. A torn last line
(crash mid-write) is repaired on open, so later appends start on a fresh line,
and any other corrupt record is skipped on load.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import math
import os
import sys
import threading
from dataclasses import dataclass
from itertools import count
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, MissingVector, RemoteUnavailable, ZeroVector
from .jsonl import KeyedJsonl, decode_line
from .remote import post_with_retries

if TYPE_CHECKING:
    import requests


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
        if any(type(v) is not int for v in (self.dimension, self.batch_size, self.seed)):
            raise ValueError("dimension, batch_size and seed must be integers")
        if not isinstance(self.model_name, str) or {type(self.endpoint), type(self.cache_path)} - {str, type(None)}:
            raise ValueError("model_name must be a string, and endpoint and cache_path strings or null")
        if self.dimension < 1 or self.batch_size < 1:
            raise ValueError(f"dimension and batch_size must be at least 1, not {self.dimension} and {self.batch_size}")

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


class VectorTable:
    """Term vectors of one dimension, each held once as a float64 row: surface -> row.

    `dim`, set by a provider or else by the first block, is the only width: `put_rows`
    refuses a block of another before it stores or appends any of it. Rows arrive
    only as blocks, their norms computed as they are stored: the floats
    `np.linalg.norm(rows, axis=1)` gives in any matrix holding them. `arrays` is
    replaced as one `(data, norms)` tuple once a block is written, so readers
    take no lock. Storing a surface again points it at its new row. `lock` is
    held by a provider from its check for missing surfaces until it has stored
    what it fetched; `put_rows` takes a lock of its own.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self._write_lock = threading.Lock()
        self.dim: int | None = None
        self.arrays = (np.empty((0, 0)), np.empty(0))
        self._n = 0
        self._at: dict[str, int] = {}
        self._file: KeyedJsonl | None = None

    def put_rows(self, surfaces: Sequence[str], block: np.ndarray) -> None:
        """Store row i of the `(len(surfaces), dim)` `block` as the vector of `surfaces[i]`;
        a table with a file (a `VectorCache`) also appends the rows' records to it in one write."""
        with self._write_lock:
            dim = block.shape[1]
            if self.dim not in (None, dim):
                raise DimensionMismatch(f"a block of dimension {dim} for a table of dimension {self.dim}")
            if not len(self.arrays[1]):  # the first block, whether or not the dimension was set before it
                self.dim, self.arrays = dim, (np.empty((16, dim)), np.empty(16))
            data, norms = self.arrays
            n, end = self._n, self._n + len(block)
            if end > len(data):
                size = max(2 * len(data), end)
                data, norms = np.empty((size, dim)), np.empty(size)
                data[:n], norms[:n] = self.arrays[0][:n], self.arrays[1][:n]
            data[n:end] = block
            with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan row fails only once paired
                norms[n:end] = np.linalg.norm(data[n:end], axis=1)
            self.arrays = (data, norms)
            self._n = end
            self._at.update(zip(surfaces, count(n)))
        if self._file is not None:
            self._file.append(_encode_rows(surfaces, block))

    def __contains__(self, surface: object) -> bool:
        return surface in self._at

    def missing(self, surfaces: Iterable[str]) -> list[str]:
        return sorted(set(surfaces).difference(self._at))

    def __len__(self) -> int:
        return len(self._at)

    def get(self, surface: str) -> TermVector | None:
        return self.view([surface])[surface] if surface in self._at else None

    def view(self, surfaces: Iterable[str]) -> VectorView:
        return VectorView(self, {s: self._at[s] for s in surfaces})


def lookup(vectors: Mapping[str, object], surfaces: Iterable[str]) -> list:
    """`vectors[s]` for each of `surfaces`; MissingVector for the first one `vectors` lacks."""
    try:
        return [vectors[s] for s in surfaces]
    except KeyError as exc:
        raise MissingVector(f"no embedding for term {exc.args[0]!r}") from None


class VectorView(Mapping[str, TermVector]):
    """Read-only `Mapping[str, TermVector]` over some surfaces' rows of a `VectorTable`.

    `gather` hands out the rows themselves; a `TermVector` is built only by
    `__getitem__`.
    """

    def __init__(self, table: VectorTable, at: dict[str, int]):
        self._table = table
        self._at = at

    @classmethod
    def of(cls, vectors: Mapping[str, TermVector], surfaces: Sequence[str]) -> VectorView:
        """`vectors` itself if it is a view, else its vectors of `surfaces` copied into one block of a new
        table: MissingVector for the first surface it lacks, then DimensionMismatch unless they share a dimension."""
        if isinstance(vectors, VectorView):
            return vectors
        values = [v.values for v in lookup(vectors, surfaces)]
        dims = sorted(set(map(len, values)))
        if len(dims) > 1:
            raise DimensionMismatch(f"term vectors of dimensions {dims}")
        table = VectorTable()
        if values:
            table.put_rows(surfaces, np.array(values, dtype=np.float64))
        return table.view(surfaces)

    def __getitem__(self, surface: str) -> TermVector:
        return TermVector(surface, tuple(self._table.arrays[0][self._at[surface]].tolist()))

    def __contains__(self, surface: object) -> bool:
        return surface in self._at

    def __iter__(self) -> Iterator[str]:
        return iter(self._at)

    def __len__(self) -> int:
        return len(self._at)

    def locate(self, surfaces: Iterable[str]) -> list[int]:
        """The row of each surface; MissingVector for the first surface without one."""
        return lookup(self._at, surfaces)

    def gather(self, surfaces: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row array, norm array, index of each surface's row in them); MissingVector as `locate`."""
        return (*self._table.arrays, np.array(self.locate(surfaces), dtype=np.intp))


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


# `base64.b64decode(s, validate=True)` is `binascii.a2b_base64(s, strict_mode=True)` from
# Python 3.11 on, less a copy of `s` as bytes; 3.10 has no strict mode, so it keeps the wrapper.
_STRICT_A2B = sys.version_info >= (3, 11)


class VectorCache(VectorTable):
    """A `VectorTable` backed by an append-only JSONL file of {"term", "dim", "f64"} records.

    `f64` is the base64 of `dim` little-endian float64 values, so a reload gives
    back every vector bit for bit; a record written before it holds the decimal
    `values` list instead. The file is read a line at a time, in one loop: each
    line is decoded by `jsonl.decode_line`, and each record's bytes go straight
    into one growing buffer, or over the term's earlier row there; the buffer
    is then stored as one block. A later record for a term wins, a corrupt
    record is skipped, and a record of another dimension than the first valid
    one stops the open with `DimensionMismatch`, naming the path and line. The
    file is read only here, and is attached once it is loaded, so loading
    appends nothing and every later stored block is appended.
    """

    def __init__(self, path: str | Path):
        super().__init__()
        file = KeyedJsonl(path)
        buf, row_of, size = bytearray(), {}, None  # the rows' bytes, term -> row, bytes per row
        strict, a2b_base64, b64decode = _STRICT_A2B, binascii.a2b_base64, base64.b64decode
        with file.lines() as fh:
            for line_no, line in enumerate(fh, 1):
                try:
                    rec = decode_line(line)
                    if "f64" in rec:
                        payload = rec["f64"]
                        raw = a2b_base64(payload, strict_mode=True) if strict else b64decode(payload, validate=True)
                    else:
                        raw = np.array([float(v) for v in rec["values"]], dtype="<f8").tobytes()
                    term = rec["term"]
                    if len(raw) % 8 or len(raw) // 8 != rec["dim"] or not isinstance(term, str):
                        continue  # dim does not match the values, or the key is not text
                except (KeyError, TypeError, ValueError):
                    continue
                if len(raw) != size:
                    if size is not None:
                        raise DimensionMismatch(
                            f"{file.path} line {line_no}: a vector of dimension {len(raw) // 8}"
                            f" in a cache of dimension {size // 8}"
                        )
                    size = len(raw)
                i = row_of.get(term)
                if i is None:
                    row_of[term] = len(row_of)
                    buf += raw
                else:
                    buf[i * size : (i + 1) * size] = raw
        if row_of:
            self.put_rows(list(row_of), np.frombuffer(buf, dtype="<f8").reshape(len(row_of), size // 8))
        self._file = file


class EmbeddingProvider:
    """Base provider: read-through cache in front of `_fetch`, the one method a provider implements."""

    def __init__(self, cache: VectorCache | None = None, batch_size: int = 64):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.cache = cache
        self.batch_size = batch_size
        self.table = cache if cache is not None else VectorTable()
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
        with self.table.lock:
            missing = self.table.missing(wanted)
            for i in range(0, len(missing), self.batch_size):
                batch = missing[i : i + self.batch_size]
                block = self._fetch(batch)
                self.fetch_count += len(batch)
                self._validate(batch, block)
                self.table.put_rows(batch, block)
        return self.table.view(sorted(wanted))

    @property
    def dimension(self) -> int | None:
        """Of every vector the provider serves: its table's, None until the table has one."""
        return self.table.dim

    def _validate(self, batch: list[str], block: np.ndarray) -> None:
        if block.ndim != 2 or len(block) != len(batch):
            raise DimensionMismatch(f"provider returned a block of shape {block.shape} for {len(batch)} terms")
        zero = ~block.any(axis=1)
        if zero.any():
            raise ZeroVector(f"provider returned the zero vector for {batch[int(zero.argmax())]!r}")

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
        if self.table.dim not in (None, dimension):
            raise DimensionMismatch(f"{cache._file.path}: vectors of dimension {cache.dim}, not {dimension}")
        self.table.dim = dimension
        self.seed = seed

    def _fetch(self, batch: list[str]) -> np.ndarray:
        prefixes = (hashlib.sha256(f"{self.seed}:{t}".encode("utf-8")).digest()[:8] for t in batch)
        seeds = np.frombuffer(b"".join(prefixes), dtype=">u8")
        bits = np.random.PCG64(0)
        rng = np.random.Generator(bits)
        block = np.empty((len(batch), self.dimension))
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
        api_key: str | None = None,
        post: Callable[..., requests.Response] | None = None,
    ):
        super().__init__(cache=cache, batch_size=batch_size)
        self.endpoint = endpoint
        self.model_name = model_name
        self.retries = retries
        self.api_key = api_key if api_key is not None else os.environ.get("EMBED_API_KEY")
        self._post = post  # None: `requests.post`, looked up when posting

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
            self._post, self.endpoint, body, parse, api_key=self.api_key, timeout=30.0,
            retries=self.retries, unavailable=RemoteUnavailable, what="embedding endpoint",
        )
