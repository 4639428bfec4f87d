import json

import pytest

from ragmark.embeddings import OfflineEmbeddingProvider
from ragmark.errors import DuplicateId, MalformedRecord, MissingChoices, UnknownTemplate
from ragmark.evaluation import (
    EvalRecord,
    PipelineHandles,
    RunSetting,
    build_prompt,
    inclusion_match,
    load_dataset,
    normalize_answer,
    relative_change,
    run_setting,
    sweep_csv,
    topk_sweep,
)
from ragmark.highlight import OPEN_TAG, highlight
from ragmark.stepback import StubChatClient
from ragmark.store import Passage


def mcq_record(qid="q1", gold="B"):
    return EvalRecord(
        query_id=qid,
        task="mcq",
        question="How does being active only at night help desert animals?",
        gold=frozenset({gold}),
        choices={
            "A": "They can see insects that light up at night.",
            "B": "Their bodies lose less water in the cool night air.",
            "C": "They find more plant food by moonlight.",
            "D": "Their bodies absorb sunlight while they sleep.",
        },
    )


class TestLoadDataset:
    def test_valid_mcq_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [
            {
                "query_id": f"q{i}",
                "task": "mcq",
                "question": "Q?",
                "choices": {"A": "x", "B": "y"},
                "gold": ["A"],
            }
            for i in range(2)
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        records = load_dataset(path)
        assert len(records) == 2

    def test_claim_gold_normalized(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps(
                {"query_id": "q", "task": "claim-verification", "question": "C.", "gold": ["True"]}
            )
            + "\n"
        )
        (record,) = load_dataset(path)
        assert record.gold == frozenset({"true"})

    def test_mcq_without_choices(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps({"query_id": "q", "task": "mcq", "question": "Q?", "gold": ["A"]}) + "\n"
        )
        with pytest.raises(MissingChoices):
            load_dataset(path)

    def test_duplicate_query_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        row = {"query_id": "q", "task": "factoid", "question": "Q?", "gold": ["x"]}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(DuplicateId):
            load_dataset(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"query_id": oops\n')
        with pytest.raises(MalformedRecord) as exc_info:
            load_dataset(path)
        assert exc_info.value.line_number == 1


class TestBuildPrompt:
    def test_mcq_no_retrieval_has_choices_no_documents(self):
        prompt = build_prompt(mcq_record(), None, "mistral")
        assert "A. They can see insects" in prompt
        assert "D. Their bodies absorb sunlight" in prompt
        assert "Documents:" not in prompt
        assert "choose the best answer choice" in prompt

    def test_alpaca_claim_preamble(self):
        record = EvalRecord("q", "claim-verification", "The sky is green.", frozenset({"false"}))
        passage = Passage("p", "t", "The sky is blue.")
        doc = highlight([passage], [])
        prompt = build_prompt(record, doc, "alpaca")
        assert prompt.startswith("Below is an instruction that describes a task.")
        assert "Statement: The sky is green." in prompt
        assert 'just say "true" or "false"' in prompt

    def test_llama2_factoid_has_system_block(self):
        record = EvalRecord("q", "factoid", "Who is X?", frozenset({"y"}))
        prompt = build_prompt(record, "some evidence", "llama2")
        assert prompt.startswith("<s>[INST] <<SYS>>")
        assert prompt.rstrip().endswith("[/INST]")

    def test_deterministic(self):
        record = mcq_record()
        passage = Passage("p", "t", "Some text.")
        doc = highlight([passage], [])
        assert build_prompt(record, doc, "mistral") == build_prompt(record, doc, "mistral")

    def test_evidence_only_context_is_injected_verbatim(self):
        record = EvalRecord("q", "factoid", "Who?", frozenset({"x"}))
        prompt = build_prompt(record, "Evidence sentence one.\nEvidence two.", "mistral")
        assert "Documents: Evidence sentence one.\nEvidence two." in prompt

    def test_unknown_family(self):
        with pytest.raises(UnknownTemplate):
            build_prompt(mcq_record(), None, "gpt-j")

    def test_unknown_task(self):
        with pytest.raises(UnknownTemplate, match="task 'essay'"):
            build_prompt(EvalRecord("q", "essay", "Who?", frozenset({"x"})), None, "mistral")


class TestInclusionMatch:
    def test_normalization_forces_match(self):
        assert inclusion_match("The answer is Paris.", {"paris"})

    def test_claim_mismatch(self):
        assert not inclusion_match("false", {"true"})

    def test_mcq_label_standalone_token(self):
        assert inclusion_match("B. Their bodies lose less water in the night.", {"B"})
        assert not inclusion_match("Because deserts are hot.", {"B"})

    def test_multi_gold_any_match(self):
        assert inclusion_match("He was a composer and pianist", {"pianist", "footballer"})

    def test_gold_without_letters_or_digits_never_matches(self):
        assert not inclusion_match("!! anything at all", {"!!"})
        assert inclusion_match("water", {"...", "water"})

    def test_normalizer(self):
        assert normalize_answer("  The: Answer, is PARIS!  ") == "the answer is paris"


class TestRelativeChange:
    def test_alpaca_pubhealth_pair(self):
        assert relative_change(46.90, 56.14) == 19.70

    def test_llama_arc_bm25_pair(self):
        assert relative_change(40.85, 47.69) == 16.74

    def test_sign_convention(self):
        assert relative_change(50.0, 45.0) == -10.0


def answer_if_tagged(gold: str):
    """Stub QA client policy: answer `gold` iff a tagged sentence is present."""

    def reply(prompt: str) -> str:
        return gold if OPEN_TAG in prompt else "no answer"

    return reply


class TestRunSetting:
    def records_and_passages(self, n=4):
        records = []
        precomputed = {}
        for i in range(n):
            qid = f"q{i}"
            records.append(
                EvalRecord(
                    query_id=qid,
                    task="factoid",
                    question=f"What is creature{i} known for?",
                    gold=frozenset({f"skill{i}"}),
                )
            )
            precomputed[qid] = [
                Passage(
                    id=f"{qid}-p0",
                    title="facts",
                    text=f"Unrelated filler text. creature{i} is known for skill{i}.",
                    rank=1,
                )
            ]
        return records, precomputed

    def handles(self, precomputed, qa_client):
        return PipelineHandles(
            qa_client=qa_client,
            embedding_provider=OfflineEmbeddingProvider(dimension=32, seed=0),
            precomputed=precomputed,
            max_workers=2,
        )

    def test_highlighting_delivers_tags_to_prompt(self):
        records, precomputed = self.records_and_passages()
        prompts = []

        def qa(prompt):
            prompts.append(prompt)
            return "skill0 skill1 skill2 skill3" if OPEN_TAG in prompt else "nothing"

        setting = RunSetting(retrieval="precomputed-dense", highlighting=True, stepback=False)
        report = run_setting(records, setting, self.handles(precomputed, StubChatClient(qa)))
        assert report.accuracy == 100.0
        assert all(OPEN_TAG in p for p in prompts)

    def test_no_highlighting_setting_has_no_tags(self):
        records, precomputed = self.records_and_passages()
        prompts = []

        def qa(prompt):
            prompts.append(prompt)
            return "nothing"

        setting = RunSetting(retrieval="precomputed-dense", highlighting=False, stepback=False)
        report = run_setting(records, setting, self.handles(precomputed, StubChatClient(qa)))
        assert report.accuracy == 0.0
        assert all(OPEN_TAG not in p for p in prompts)

    def test_relative_change_against_baseline(self):
        records, precomputed = self.records_and_passages()
        qa = StubChatClient("skill0 skill1 skill2 skill3")
        setting = RunSetting(highlighting=False, stepback=False)
        baseline = run_setting(records[:2], setting, self.handles(precomputed, StubChatClient("no")))
        report = run_setting(records, setting, self.handles(precomputed, qa), baseline_accuracy=baseline.accuracy)
        assert report.baseline_accuracy == baseline.accuracy

    def test_per_record_failure_counts_incorrect(self):
        records, precomputed = self.records_and_passages(2)
        del precomputed["q1"]  # triggers a KeyError for one record

        setting = RunSetting(highlighting=False, stepback=False)
        report = run_setting(
            records, setting, self.handles(precomputed, StubChatClient("skill0 skill1"))
        )
        outcomes = {o.query_id: o for o in report.outcomes}
        assert outcomes["q0"].correct
        assert not outcomes["q1"].correct
        assert outcomes["q1"].error

    def test_a_query_id_missing_from_the_results_is_named(self):
        records, precomputed = self.records_and_passages(2)
        del precomputed["q1"]
        setting = RunSetting(highlighting=False, stepback=False)
        report = run_setting(records, setting, self.handles(precomputed, StubChatClient("skill0 skill1")))
        error = {o.query_id: o.error for o in report.outcomes}["q1"]
        assert error == "MissingResults: no precomputed results for query id 'q1'"

    def test_no_retrieval_never_touches_provider_or_store(self):
        records, precomputed = self.records_and_passages()
        provider = OfflineEmbeddingProvider(dimension=32, seed=0)

        class ExplodingIndex:
            def top_k(self, *a, **k):
                raise AssertionError("store touched in no-retrieval run")

        handles = PipelineHandles(
            qa_client=StubChatClient("skill0 skill1 skill2 skill3"),
            embedding_provider=provider,
            bm25_index=ExplodingIndex(),
            precomputed=precomputed,
        )
        setting = RunSetting(retrieval="none", highlighting=False, stepback=False)
        report = run_setting(records, setting, handles)
        assert report.accuracy == 100.0
        assert provider.fetch_count == 0

    def test_order_independence(self):
        records, precomputed = self.records_and_passages()
        qa = StubChatClient("skill0 skill1 skill2 skill3")
        setting = RunSetting(highlighting=False, stepback=False)
        fwd = run_setting(records, setting, self.handles(precomputed, qa))
        rev = run_setting(records[::-1], setting, self.handles(precomputed, qa))
        assert fwd.accuracy == rev.accuracy
        assert fwd.outcomes == rev.outcomes


class TestTopkSweep:
    def fixture(self):
        # Gold-bearing passage sits at rank 3; small k excludes it.
        record = EvalRecord("q0", "factoid", "What is zorblex known for?", frozenset({"flying"}))
        precomputed = {
            "q0": [
                Passage(id="p1", title="misc", text="Nothing useful here.", rank=1),
                Passage(id="p2", title="misc", text="Still nothing useful.", rank=2),
                Passage(id="p3", title="facts", text="zorblex is known for flying.", rank=3),
            ]
        }

        def qa(prompt):
            # Answers from context only.
            return "flying" if "zorblex is known for flying" in prompt else "unknown"

        handles = PipelineHandles(
            qa_client=StubChatClient(qa),
            embedding_provider=OfflineEmbeddingProvider(dimension=32, seed=0),
            precomputed=precomputed,
        )
        return record, handles

    def test_single_k(self):
        record, handles = self.fixture()
        setting = RunSetting(highlighting=False, stepback=False)
        reports = topk_sweep([record], setting, [1], handles)
        assert len(reports) == 1

    def test_covering_k_beats_excluding_k(self):
        record, handles = self.fixture()
        setting = RunSetting(highlighting=False, stepback=False)
        reports = topk_sweep([record], setting, [1, 3], handles)
        acc_excluding, acc_covering = reports[0].accuracy, reports[1].accuracy
        assert acc_covering >= acc_excluding
        assert acc_covering == 100.0
        assert acc_excluding == 0.0

    def test_csv_shape(self):
        record, handles = self.fixture()
        setting = RunSetting(highlighting=False, stepback=False)
        reports = topk_sweep([record], setting, [1, 2, 3], handles)
        csv = sweep_csv(reports)
        lines = csv.strip().splitlines()
        assert lines[0] == "k,retrieval,highlighting,stepback,accuracy"
        assert len(lines) == 4

    def test_rejects_unsorted_k(self):
        record, handles = self.fixture()
        with pytest.raises(ValueError):
            topk_sweep([record], RunSetting(), [3, 1], handles)


class TestRunSettingValidation:
    def test_evidence_only_requires_highlighting(self):
        with pytest.raises(ValueError):
            RunSetting(highlighting=False, context_mode="evidence-only")

    def test_unknown_retrieval(self):
        with pytest.raises(ValueError):
            RunSetting(retrieval="quantum")
