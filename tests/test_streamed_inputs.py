"""The JSONL readers read a file one line at a time, split only at "\\n", and
close it when their loop ends or is abandoned; importing and running ragmark
offline never imports `requests`."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import ragmark
from ragmark.errors import DuplicateId, MalformedRecord
from ragmark.evaluation import load_dataset
from ragmark.jsonl import KeyedJsonl, read_records
from ragmark.store import load_passages

# Line breaks to `str.splitlines` that JSON leaves raw inside a string.
RAW_BREAKS = pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85"], ids=["u2028", "u2029", "u0085"])


def write_lines(path: Path, records) -> Path:
    lines = (r if isinstance(r, str) else json.dumps(r, ensure_ascii=False) for r in records)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@RAW_BREAKS
def test_a_raw_unicode_line_break_stays_inside_its_record(brk, tmp_path):
    path = write_lines(tmp_path / "kb.jsonl", [
        {"id": "p1", "title": f"Deserts{brk}and dunes", "text": f"Deserts are dry.{brk}Dunes move."},
        {"id": "p2", "title": "Rivers", "text": "Rivers flow."},
    ])
    assert brk in path.read_text(encoding="utf-8")  # written raw, not escaped
    [p1, p2] = load_passages(path)
    assert (p1.title, p1.text) == (f"Deserts{brk}and dunes", f"Deserts are dry.{brk}Dunes move.")
    assert p2.id == "p2"


@RAW_BREAKS
def test_lines_after_a_raw_unicode_line_break_keep_their_numbers(brk, tmp_path):
    kb = write_lines(tmp_path / "kb.jsonl", [
        {"id": "p1", "title": "Deserts", "text": f"Dry{brk}sand."},
        {"id": "p2", "title": "Rivers", "text": "Rivers flow."},
        {"id": "p1", "title": "Again", "text": "A repeated id."},
    ])
    with pytest.raises(DuplicateId, match="^line 3: duplicate passage id 'p1'"):
        load_passages(kb)
    dataset = write_lines(tmp_path / "dataset.jsonl", [
        {"query_id": "q1", "task": "factoid", "question": f"Why{brk}dry?", "gold": ["water"]},
        "{not json",
    ])
    with pytest.raises(MalformedRecord) as exc_info:
        load_dataset(dataset)
    assert exc_info.value.line_number == 2


@RAW_BREAKS
def test_a_keyed_store_loads_a_record_holding_a_raw_unicode_line_break(brk, tmp_path):
    path = write_lines(tmp_path / "replies.jsonl", [{"k": "a", "v": f"one{brk}two"}, {"k": "b", "v": "three"}])
    store = KeyedJsonl(path)
    assert list(store.load(lambda rec: (rec["k"], rec["v"]))) == [("a", f"one{brk}two"), ("b", "three")]


def test_crlf_line_ends_and_blank_lines_still_read(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_bytes(b'{"id": "p1", "title": "T", "text": "One."}\r\n\r\n  \n{"id": "p2", "title": "T", "text": "Two."}')
    assert [n for n, _ in read_records(path)] == [1, 4]
    assert [p.id for p in load_passages(path)] == ["p1", "p2"]


def test_reading_holds_one_line_at_a_time(tmp_path):
    path = write_lines(tmp_path / "big.jsonl", ({"id": f"p{i}", "title": "T", "text": "sand " * 400} for i in range(2000)))
    size = path.stat().st_size  # ≈4 MB
    store = KeyedJsonl(path)
    tracemalloc.start()
    try:
        assert sum(1 for _ in read_records(path)) == 2000
        assert sum(1 for _ in store.load(lambda rec: (rec["id"], None))) == 2000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 8, f"peak {peak} bytes while reading a {size}-byte file"


def spy_on_opens(monkeypatch) -> list:
    """Every file opened through `Path.open` from now on."""
    handles = []
    real_open = Path.open

    def spy(self, *args, **kwargs):
        fh = real_open(self, *args, **kwargs)
        handles.append(fh)
        return fh

    monkeypatch.setattr(Path, "open", spy)
    return handles


def test_the_file_closes_when_the_loop_ends_or_is_abandoned(tmp_path, monkeypatch):
    path = write_lines(tmp_path / "in.jsonl", [{"k": str(i), "v": i} for i in range(3)])
    kb = write_lines(tmp_path / "kb.jsonl", [
        {"id": "p1", "title": "T", "text": "One."},
        {"id": "p1", "title": "T", "text": "Two."},
        {"id": "p2", "title": "T", "text": "Three."},
    ])
    opened = spy_on_opens(monkeypatch)
    records = read_records(path)
    assert next(records) == (1, {"k": "0", "v": 0})
    [fh] = opened
    assert not fh.closed
    records.close()  # what dropping an unfinished loop does
    assert fh.closed

    assert len(list(read_records(path))) == 3
    store = KeyedJsonl(path)  # its tail repair opens the file too
    assert dict(store.load(lambda rec: (rec["k"], rec["v"]))) == {"0": 0, "1": 1, "2": 2}
    with pytest.raises(DuplicateId):  # raised by the caller, between two lines
        load_passages(kb)
    assert len(opened) == 5
    assert all(fh.closed for fh in opened)


OFFLINE_RUN = """
import sys
import ragmark, ragmark.cli
from ragmark.embeddings import OfflineEmbeddingProvider
from ragmark.pipeline import select_evidence
from ragmark.store import Passage

passages = [Passage("p1", "Lions", "Lions hunt at night. They conserve water in the heat of the day.")]
result = select_evidence("Why do lions hunt at night?", passages, OfflineEmbeddingProvider(dimension=16))
assert result.evidence, result
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("requests", "urllib3"))
assert not loaded, loaded
"""


def test_an_offline_run_never_imports_requests():
    # A fresh interpreter: the test modules import `requests` themselves.
    src = str(Path(ragmark.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", OFFLINE_RUN], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
