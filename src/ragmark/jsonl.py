"""The JSONL plumbing: a line-numbered reader for input files and an
append-only keyed store for the caches."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

from .errors import MalformedRecord, MissingField

_TAIL_BLOCK = 1 << 16  # bytes `repair_tail` reads at a time


def repair_tail(path: Path) -> None:
    """Make the file at `path` end at a line break before anything appends to it.

    A crash in the middle of an append leaves a last line without its
    newline; the next append would be glued onto it and both records lost on
    reload. A tail that is a whole JSON value only lacks the newline and gets
    one; anything else is cut. Only the last byte is read when the file is
    intact, and only the torn tail, found by reading back in blocks, when it is
    not. A missing file is left missing.
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
        cut = 0  # with no "\n" at all, the whole file is the tail
        start = size
        while start:  # back from the end, a block at a time, to the last "\n"
            step = min(start, _TAIL_BLOCK)
            start -= step
            fh.seek(start)
            nl = fh.read(step).rfind(b"\n")
            if nl >= 0:
                cut = start + nl + 1
                break
        fh.seek(cut)
        try:
            json.loads(fh.read())
        except ValueError:  # includes JSONDecodeError and UnicodeDecodeError
            fh.truncate(cut)
        else:
            fh.write(b"\n")


def open_lines(path: Path) -> TextIO:
    """The UTF-8 file at `path`, opened to be read one line at a time and split at "\n" only.

    JSON escapes every line break it knows of except the raw U+2028, U+2029 and U+0085
    that a writer may leave in a string, so those do not end a line.
    """
    return path.open(encoding="utf-8", newline="\n")


# The scanner `json.loads` runs: (value, end) of the JSON value at an index,
# StopIteration when none starts there.
_scan_once = json.JSONDecoder().scan_once


def decode_line(line: str) -> Any:
    """`json.loads(line)`, for a line as `open_lines` reads it: the same value, or the same error.

    A value that starts the line and runs to its "\n" or its end is taken from the
    scanner as it is, without `json.loads`'s two wrappers and two whitespace matches; any
    other line (leading or trailing whitespace, "\r\n", extra data, a BOM, no JSON at all)
    goes to `json.loads` itself.
    """
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError):
        return json.loads(line)
    if end == len(line) or line[end:] == "\n":
        return value
    return json.loads(line)


def read_records(path: str | Path) -> Iterator[tuple[int, Any]]:
    """(line number, JSON value) per non-blank line; `MalformedRecord` for a line that is not JSON.

    Read a record's fields with `require`, which rejects a value that is not an object.
    The file is closed when the loop over the records ends or is abandoned.
    """
    with open_lines(Path(path)) as fh:
        for line_no, line in enumerate(fh, 1):
            if line.isspace():  # a line read from a file is never empty
                continue
            try:
                value = decode_line(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"line {line_no}: {exc}", line_no) from exc
            yield line_no, value


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


# A config field's declared type -> (the types its value may have, their name in a message).
_FIELD_TYPES = {"str": ((str,), "a string"), "bool": ((bool,), "true or false"),
                "int": ((int,), "an integer"), "float": ((int, float), "a number")}


def check_field_types(obj: Any) -> None:
    """`ValueError` naming the first field of the dataclass `obj` whose value is not its declared
    `str`, `bool`, `int` or `float`: an int is a float, a bool is neither, None is only an `X | None`.
    A field whose default factory is a class (a nested section) must hold an instance of it, which
    checked its own fields when it was made; a field of any other type is not checked."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        section = f.default_factory
        if isinstance(section, type):
            if not isinstance(value, section):
                raise ValueError(f"{f.name} must be a {section.__name__}, not {value!r}")
            continue
        declared, _, optional = f.type.partition(" | ")
        kinds, what = _FIELD_TYPES.get(declared, (None, ""))
        if kinds and type(value) not in kinds and not (value is None and optional):
            raise ValueError(f"{f.name} must be {what}{' or null' if optional else ''}, not {value!r}")


class KeyedJsonl:
    """An append-only JSONL file of keyed records; its caller holds the values.

    Opening repairs a torn tail. `load(decode)` yields each line's (key, value) as `decode`
    maps it, in file order, skipping a line it rejects with KeyError, TypeError or ValueError;
    a caller that decodes the lines itself reads `lines`. `append` writes whole record lines.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._dir_made = False
        repair_tail(self.path)

    def lines(self) -> TextIO:
        """The file as `open_lines` opens it; an empty one while there is no file yet."""
        try:
            return open_lines(self.path)
        except FileNotFoundError:
            return io.StringIO()

    def load(self, decode: Callable[[Any], tuple[Any, Any]]) -> Iterator[tuple[Any, Any]]:
        with self.lines() as fh:
            for line in fh:
                try:
                    key, value = decode(decode_line(line))
                except (KeyError, TypeError, ValueError):
                    continue
                yield key, value

    def append(self, lines: str) -> None:
        data = memoryview(lines.encode("utf-8"))
        with self._lock:
            if not self._dir_made:  # once per store, before its first append
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._dir_made = True
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                while data:  # a write may take fewer bytes than it was given
                    data = data[os.write(fd, data) :]
            finally:
                os.close(fd)
