"""Helpers for the append-only JSONL files the caches keep."""

from __future__ import annotations

import json
import os
from pathlib import Path


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
