"""`run_setting` with one worker evaluates the records in the calling thread.

With `max_workers=1` every record runs on the caller's thread, one after
another in record order, so a bug (any exception that is not a
`RagmarkError`) stops the run at its record. Every worker count gives the
same report, and each record goes through the module's `_evaluate_record`,
the hook the benchmark's record timer patches.
"""

import threading

import pytest

import ragmark.evaluation as evaluation
from ragmark.embeddings import OfflineEmbeddingProvider
from ragmark.evaluation import EvalRecord, PipelineHandles, RunSetting, run_setting
from ragmark.highlight import OPEN_TAG
from ragmark.stepback import StubChatClient
from ragmark.store import Passage


def records_and_passages(n):
    """`n` factoid records, in descending query id order, each with two precomputed passages."""
    records, precomputed = [], {}
    for i in reversed(range(n)):
        qid = f"q{i:02d}"
        records.append(EvalRecord(query_id=qid, task="factoid", question=f"What is creature{i} known for?",
                                  gold=frozenset({f"skill{i}"})))
        precomputed[qid] = [
            Passage(id=f"{qid}-p0", title="facts", text=f"Unrelated filler text. creature{i} is known for skill{i}.", rank=1),
            Passage(id=f"{qid}-p1", title="more", text=f"Rivers run to the sea. creature{i} rests by day.", rank=2),
        ]
    return records, precomputed


def handles(precomputed, qa, max_workers, highlighting=False):
    provider = OfflineEmbeddingProvider(dimension=32, seed=0) if highlighting else None
    return PipelineHandles(qa_client=StubChatClient(qa), embedding_provider=provider,
                           stepback_client=StubChatClient("What do animals do?"), precomputed=precomputed,
                           max_workers=max_workers)


PLAIN = RunSetting(retrieval="precomputed-dense", highlighting=False, stepback=False)
HIGHLIGHTED = RunSetting(retrieval="precomputed-dense", highlighting=True, stepback=True)


def test_one_worker_asks_every_question_on_the_callers_thread_in_record_order():
    records, precomputed = records_and_passages(6)
    calls = []

    def qa(prompt):
        calls.append((threading.get_ident(), prompt))
        return "nothing"

    run_setting(records, PLAIN, handles(precomputed, qa, 1))
    assert [ident for ident, _ in calls] == [threading.get_ident()] * len(records)
    assert [next(r.query_id for r in records if r.question in p) for _, p in calls] == [r.query_id for r in records]


def test_every_worker_count_gives_the_same_report():
    records, precomputed = records_and_passages(8)

    def qa(prompt):
        return " ".join(f"skill{i}" for i in range(0, 8, 2)) if OPEN_TAG in prompt else "nothing"

    reports, prompts = [], []
    for workers in (1, 2, 4):
        h = handles(precomputed, qa, workers, highlighting=True)
        reports.append(run_setting(records, HIGHLIGHTED, h))
        prompts.append(sorted(h.qa_client.calls))
    assert reports[0].accuracy == 50.0
    assert all(OPEN_TAG in p for p in prompts[0])
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert prompts[1] == prompts[0] and prompts[2] == prompts[0]


def test_with_one_worker_a_bug_stops_the_run_at_its_record():
    records, precomputed = records_and_passages(20)
    second = records[1].question

    def qa(prompt):
        if second in prompt:
            raise AttributeError("a bug, not a wrong answer")
        return "nothing"

    h = handles(precomputed, qa, 1)
    with pytest.raises(AttributeError, match="a bug, not a wrong answer"):
        run_setting(records, PLAIN, h)
    assert len(h.qa_client.calls) == 2  # the failing record's prompt is the last one asked
    assert all(r.question in p for r, p in zip(records, h.qa_client.calls))


@pytest.mark.parametrize("workers", [1, 2])
def test_each_record_goes_through_the_module_hook(workers, monkeypatch):
    records, precomputed = records_and_passages(10)
    inner, seen = evaluation._evaluate_record, []

    def hook(record, setting, h):
        seen.append(record.query_id)
        return inner(record, setting, h)

    monkeypatch.setattr(evaluation, "_evaluate_record", hook)
    report = run_setting(records, PLAIN, handles(precomputed, lambda prompt: "nothing", workers))
    assert sorted(seen) == [o.query_id for o in report.outcomes] == sorted(r.query_id for r in records)
    if workers == 1:
        assert seen == [r.query_id for r in records]
