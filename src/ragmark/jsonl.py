"""The JSONL plumbing: a line-numbered reader for input files and an
append-only keyed store for the caches."""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import MalformedRecord, MissingField


def repair_tail(path: Path) -> None:
    """Make the file at `path` end at a line break before anything appends to it.

    A crash in the middle of an append leaves a last line without its
    newline; the next append would be glued onto it and both records lost on
    reload. A tail that is a whole JSON value only lacks the newline and gets
    one; anything else is cut. Only the last byte is read when the file is
    intact. A missing file is left missing.
    """
    try:
        fh = path.open("r+b")
    except FileNotFoundError:
        return
    with fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        data = fh.read()
        cut = data.rfind(b"\n") + 1
        try:
            json.loads(data[cut:])
        except ValueError:  # includes JSONDecodeError and UnicodeDecodeError
            fh.truncate(cut)
        else:
            fh.write(b"\n")


def read_records(path: str | Path) -> Iterator[tuple[int, Any]]:
    """(line number, JSON value) per non-blank line; `MalformedRecord` for a line that is not JSON.

    Read a record's fields with `require`, which rejects a value that is not an object.
    """
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if line.strip():
            try:
                yield line_no, json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"line {line_no}: {exc}", line_no) from exc


def require(obj: Any, field: str, line_no: int, kind: type = object) -> Any:
    """`obj[field]`: `MissingField` if absent, `MalformedRecord` if `obj` or the value is mistyped."""
    if not isinstance(obj, dict):
        raise MalformedRecord(f"line {line_no}: expected a JSON object, got {type(obj).__name__}", line_no)
    if field not in obj:
        raise MissingField(f"line {line_no}: missing field {field!r}", line_no)
    value = obj[field]
    if not isinstance(value, kind):
        raise MalformedRecord(f"line {line_no}: field {field!r} must be a {kind.__name__}", line_no)
    return value


class KeyedJsonl:
    """An append-only JSONL file of records, held in memory as key -> value.

    Opening repairs a torn tail, then loads each line `decode` maps to (key, value), later
    lines winning; a line it rejects with KeyError, TypeError or ValueError is skipped.
    """

    def __init__(self, path: str | Path, decode: Callable[[Any], tuple[Any, Any]]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._items: dict = {}
        repair_tail(self.path)
        if self.path.exists():
            for line in self.path.read_text(encoding="utf-8").splitlines():
                try:
                    key, value = decode(json.loads(line))
                    self._items[key] = value
                except (KeyError, TypeError, ValueError):
                    continue

    def get(self, key: Any) -> Any:
        with self._lock:
            return self._items.get(key)

    def put_many(self, entries: Iterable[tuple[Any, Any, dict]]) -> None:
        """Hold each (key, value) whose key is new and append its record; one open per call."""
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                for key, value, record in entries:
                    if key not in self._items:
                        self._items[key] = value
                        fh.write(json.dumps(record) + "\n")

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
