"""A crash mid-append must not cost the records appended after it."""

from ragmark.embeddings import OfflineEmbeddingProvider, VectorCache
from ragmark.jsonl import repair_tail
from ragmark.stepback import ReplyCache


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
