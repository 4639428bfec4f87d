"""A crash mid-append must not cost the records appended after it."""

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ragmark.embeddings import OfflineEmbeddingProvider, VectorCache
from ragmark.jsonl import KeyedJsonl, repair_tail
from ragmark.stepback import ReplyCache, _prompt_hash


def test_vector_cache_keeps_records_appended_after_a_torn_tail(tmp_path):
    path = tmp_path / "vectors.jsonl"
    OfflineEmbeddingProvider(dimension=16, cache=VectorCache(path)).embed_terms({"desert"})
    with path.open("a") as fh:
        fh.write('{"term": "wat')  # crash mid-append
    OfflineEmbeddingProvider(dimension=16, cache=VectorCache(path)).embed_terms({"night"})
    reloaded = VectorCache(path)
    assert reloaded.get("desert") is not None
    assert reloaded.get("night") is not None
    assert len(reloaded) == 2


def test_reply_cache_keeps_records_appended_after_a_torn_tail(tmp_path):
    path = tmp_path / "replies.jsonl"
    ReplyCache(path).put("m", "first prompt", "first reply")
    with path.open("a") as fh:
        fh.write('{"model": "m", "prompt_h')  # crash mid-append
    ReplyCache(path).put("m", "second prompt", "second reply")
    reloaded = ReplyCache(path)
    assert reloaded.get("m", "first prompt") == "first reply"
    assert reloaded.get("m", "second prompt") == "second reply"


def test_repair_tail_cuts_a_partial_line_and_keeps_a_whole_one(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": ')
    repair_tail(path)
    assert path.read_bytes() == b'{"a": 1}\n'
    repair_tail(path)  # intact: untouched
    assert path.read_bytes() == b'{"a": 1}\n'

    path.write_bytes(b'{"a": 1}\n{"b": 2}')  # whole record, newline lost
    repair_tail(path)
    assert path.read_bytes() == b'{"a": 1}\n{"b": 2}\n'

    path.write_bytes(b'{"a": \xff')  # no complete line at all
    repair_tail(path)
    assert path.read_bytes() == b""

    missing = tmp_path / "missing.jsonl"
    repair_tail(missing)
    assert not missing.exists()


def test_both_caches_skip_lines_that_are_not_their_records(tmp_path):
    foreign = ["[1]", '"x"']
    vectors = tmp_path / "vectors.jsonl"
    good = [json.dumps({"term": t, "dim": 2, "values": [1.0, 0.0]}) for t in ("desert", "night")]
    stray_reply = json.dumps({"prompt_hash": "h", "reply": None})
    vectors.write_text("\n".join([good[0], *foreign, stray_reply, good[1]]) + "\n")
    cache = VectorCache(vectors)
    assert len(cache) == 2
    assert cache.get("desert").values == (1.0, 0.0)
    assert cache.get("night") is not None

    replies = tmp_path / "replies.jsonl"
    null_reply = json.dumps({"prompt_hash": _prompt_hash("m", "p"), "reply": None})
    kept = json.dumps({"model": "m", "prompt_hash": _prompt_hash("m", "q"), "prompt": "q", "reply": "kept"})
    replies.write_text("\n".join([*foreign, stray_reply, null_reply, kept]) + "\n")
    cache = ReplyCache(replies)
    assert cache.get("m", "q") == "kept"
    assert cache.get("m", "p") is None
    cache.put("m", "p", "late")  # the null line held no reply, so this one is stored
    assert ReplyCache(replies).get("m", "p") == "late"


@pytest.mark.parametrize("key", [["h"], 5], ids=["list", "number"])
def test_both_caches_skip_a_record_whose_key_is_not_a_string(tmp_path, key):
    vectors = tmp_path / "vectors.jsonl"
    records = [{"term": key, "dim": 2, "values": [1.0, 0.0]}, {"term": "night", "dim": 2, "values": [0.0, 1.0]}]
    vectors.write_text("".join(json.dumps(r) + "\n" for r in records))
    cache = VectorCache(vectors)
    assert len(cache) == 1
    assert cache.get("night").values == (0.0, 1.0)

    replies = tmp_path / "replies.jsonl"
    q = _prompt_hash("m", "q")
    records = [{"model": "m", "prompt_hash": key, "prompt": "p", "reply": "lost"},
               {"model": "m", "prompt_hash": q, "prompt": "q", "reply": "kept"}]
    replies.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert ReplyCache(replies)._replies == {q: "kept"}


@settings(max_examples=12, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=6), min_size=2, max_size=4, unique=True), st.text(min_size=1, max_size=6))
def test_vector_cache_cut_anywhere_in_its_last_record_keeps_the_earlier_ones(terms, later):
    assume(later not in terms)
    expected = OfflineEmbeddingProvider(dimension=4).embed_terms([*terms, later])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.jsonl"
        OfflineEmbeddingProvider(dimension=4, cache=VectorCache(path)).embed_terms(terms)
        data = path.read_bytes()
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        last = json.loads(data[start:])["term"]
        earlier = [t for t in terms if t != last]
        for cut in range(start, len(data)):
            path.write_bytes(data[:cut])
            cache = VectorCache(path)
            assert {t: cache.get(t) for t in earlier} == {t: expected[t] for t in earlier}
            # Only a cut of the newline alone leaves the last record whole.
            assert (cache.get(last) is not None) == (cut == len(data) - 1)
            OfflineEmbeddingProvider(dimension=4, cache=cache).embed_terms([last, later])
            reloaded = VectorCache(path)
            assert len(reloaded) == len(terms) + 1
            assert {t: reloaded.get(t) for t in [*terms, later]} == expected


def test_an_append_written_in_pieces_keeps_every_byte_once(tmp_path, monkeypatch):
    # os.write may take fewer bytes than it is given; the rest must follow, in order.
    real_write = os.write
    store = KeyedJsonl(tmp_path / "new" / "log.jsonl")
    lines = '{"k": "a", "v": "café ☃"}\n{"k": "b", "v": 2}\n'
    with monkeypatch.context() as m:
        m.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:5])))
        store.append(lines)
    store.append('{"k": "c", "v": 3}\n')
    assert store.path.read_bytes() == (lines + '{"k": "c", "v": 3}\n').encode("utf-8")
    assert list(store.load(lambda rec: (rec["k"], rec["v"]))) == [("a", "café ☃"), ("b", 2), ("c", 3)]
