"""The JSONL plumbing: a line-numbered reader for input files and an
append-only keyed store for the caches."""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Iterator

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


def require(obj: Any, field: str, line_no: int, kind: type | tuple[type, ...] = object) -> Any:
    """`obj[field]`: `MissingField` if absent, `MalformedRecord` if `obj` or the value is mistyped."""
    if not isinstance(obj, dict):
        raise MalformedRecord(f"line {line_no}: expected a JSON object, got {type(obj).__name__}", line_no)
    if field not in obj:
        raise MissingField(f"line {line_no}: missing field {field!r}", line_no)
    value = obj[field]
    if not isinstance(value, kind):
        raise _mistyped(field, value, line_no, kind)
    return value


# The kind of a text field: a string, or a number read as its text. A null, a list or an
# object is rejected, where `str()` would load it as its Python repr ("None").
TEXT = (str, int, float)


def as_text(value: Any, field: str, line_no: int) -> str:
    """`value`, a gold entry, a choice or another text value not checked by `require`, as text."""
    if not isinstance(value, TEXT):
        raise _mistyped(field, value, line_no, TEXT)
    return str(value)


def _mistyped(field: str, value: Any, line_no: int, kind: type | tuple[type, ...]) -> MalformedRecord:
    what = f"text, not {json.dumps(value)[:40]}" if kind is TEXT else f"a {kind.__name__}"
    return MalformedRecord(f"line {line_no}: field {field!r} must be {what}", line_no)


class KeyedJsonl:
    """An append-only JSONL file of keyed records; its caller holds the values.

    Opening repairs a torn tail. `load` yields each line's (key, value) as `decode` maps
    it, in file order, skipping a line it rejects with KeyError, TypeError or ValueError;
    `append` writes whole record lines.
    """

    def __init__(self, path: str | Path, decode: Callable[[Any], tuple[Any, Any]]):
        self.path = Path(path)
        self._decode = decode
        self._lock = threading.Lock()
        self._dir_made = False
        repair_tail(self.path)

    def load(self) -> Iterator[tuple[Any, Any]]:
        if not self.path.exists():
            return
        for line in self.path.read_text(encoding="utf-8").splitlines():
            try:
                key, value = self._decode(json.loads(line))
            except (KeyError, TypeError, ValueError):
                continue
            yield key, value

    def append(self, lines: str) -> None:
        with self._lock:
            if not self._dir_made:  # once per store, before its first append
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._dir_made = True
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(lines)
