import json

import pytest
from click.testing import CliRunner

from ragmark.cli import main
from ragmark.config import RunConfig
from ragmark.stepback import ReplyCache


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def kb_file(tmp_path):
    path = tmp_path / "kb.jsonl"
    rows = [
        {
            "id": "p1",
            "title": "Nocturnality",
            "text": (
                "Another reason for nocturnality is avoiding the heat of the day. "
                "Nocturnal behavior prevents creatures from losing precious water "
                "during the hot, dry daytime."
            ),
        },
        {"id": "p2", "title": "Deserts", "text": "Deserts are dry. Lions hunt at night."},
        {"id": "p3", "title": "Oceans", "text": "Oceans cover most of the planet."},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


class TestRunConfig:
    def test_defaults_match_reference_values(self):
        cfg = RunConfig()
        assert cfg.retriever.n_parallel == 3
        assert cfg.retriever.m_threshold == 0.98
        assert cfg.retriever.t_ambiguity == 4
        assert cfg.retriever.k_max_hops == 6
        assert cfg.bm25.k1 == 1.2
        assert cfg.bm25.b == 0.75
        assert cfg.top_k == 11

    def test_json_round_trip(self, tmp_path):
        cfg = RunConfig(top_k=9, retrieval="bm25", seed=42)
        path = tmp_path / "config.json"
        cfg.save(path)
        assert RunConfig.load(path) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_json('{"bogus": 1}')


class TestCmdIndex:
    def test_missing_file_errors(self, runner, tmp_path):
        result = runner.invoke(main, ["index", "--kb", str(tmp_path / "nope"), "--out", "x"])
        assert result.exit_code != 0

    def test_valid_kb_builds_index(self, runner, kb_file, tmp_path):
        out = tmp_path / "index.json"
        result = runner.invoke(main, ["index", "--kb", str(kb_file), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "indexed 3 passages" in result.output
        payload = json.loads(out.read_text())
        assert payload["n_docs"] == 3

    def test_rebuild_is_byte_identical(self, runner, kb_file, tmp_path):
        out1, out2 = tmp_path / "i1.json", tmp_path / "i2.json"
        runner.invoke(main, ["index", "--kb", str(kb_file), "--out", str(out1)])
        runner.invoke(main, ["index", "--kb", str(kb_file), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_kb_exits_nonzero(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        result = runner.invoke(main, ["index", "--kb", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1


class TestCmdHighlight:
    def test_highlight_writes_tagged_output(self, runner, kb_file, tmp_path):
        out = tmp_path / "out.jsonl"
        result = runner.invoke(
            main,
            [
                "highlight",
                "--query",
                "How do creatures avoid losing water in the heat?",
                "--kb",
                str(kb_file),
                "--out",
                str(out),
                "--no-stepback",
            ],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(out.read_text())
        assert record["evidence_count"] >= 1
        assert "terminated by" in result.output
        assert "stepback" not in record

    def test_hop_cap_flag(self, runner, kb_file, tmp_path):
        result = runner.invoke(
            main,
            [
                "highlight",
                "--query",
                "water heat night deserts oceans lions creatures daytime",
                "--kb",
                str(kb_file),
                "--out",
                str(tmp_path / "o.jsonl"),
                "--k",
                "1",
                "--no-stepback",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "1 hops" in result.output

    def test_missing_kb_is_config_error(self, runner):
        result = runner.invoke(main, ["highlight", "--query", "q"])
        assert result.exit_code == 2


class TestCmdEval:
    def setup_run(self, tmp_path, kb_file):
        dataset = tmp_path / "dataset.jsonl"
        rows = [
            {
                "query_id": "q0",
                "task": "factoid",
                "question": "What do lions hunt at night to conserve?",
                "gold": ["water"],
            }
        ]
        dataset.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

        # Record the QA reply so the run is fully offline.
        cache_path = tmp_path / "replies.jsonl"
        cfg = RunConfig(
            retrieval="bm25",
            highlighting=True,
            stepback=False,
            top_k=3,
            kb_path=str(kb_file),
            dataset_path=str(dataset),
            reply_cache_path=str(cache_path),
            output_dir=str(tmp_path / "run"),
        )
        cfg_path = tmp_path / "config.json"
        cfg.save(cfg_path)

        # Pre-record the reply for the exact prompt the run will build.
        from ragmark.evaluation import build_prompt, load_dataset
        from ragmark.pipeline import select_evidence
        from ragmark.store import build_index, load_passages

        index = build_index(load_passages(kb_file), cfg.bm25)
        record = load_dataset(dataset)[0]
        passages = index.top_k(record.question, 3)
        result = select_evidence(record.question, passages, cfg.provider.build(), cfg.retriever)
        prompt = build_prompt(record, result.document, cfg.model_family)
        ReplyCache(cache_path).put(cfg.qa_model, prompt, "They conserve water.")
        return cfg_path, tmp_path / "run"

    def test_eval_runs_offline_and_reports(self, runner, kb_file, tmp_path):
        cfg_path, out_dir = self.setup_run(tmp_path, kb_file)
        result = runner.invoke(main, ["eval", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert "accuracy: 100.00" in result.output
        report = json.loads((out_dir / "report.json").read_text())
        assert report["accuracy"] == 100.0
        assert (out_dir / "config.json").exists()
        assert (out_dir / "report.records.jsonl").exists()

    def test_rerun_is_byte_identical(self, runner, kb_file, tmp_path):
        cfg_path, out_dir = self.setup_run(tmp_path, kb_file)
        runner.invoke(main, ["eval", "--config", str(cfg_path)])
        first = {
            p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()
        }
        runner.invoke(main, ["eval", "--config", str(cfg_path)])
        second = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
        assert first == second

    def test_missing_dataset_is_config_error(self, runner, tmp_path):
        cfg_path = tmp_path / "c.json"
        RunConfig().save(cfg_path)
        result = runner.invoke(main, ["eval", "--config", str(cfg_path)])
        assert result.exit_code == 2


class TestCmdSweep:
    def test_sweep_writes_csv(self, runner, kb_file, tmp_path):
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text(
            json.dumps(
                {"query_id": "q0", "task": "factoid", "question": "What?", "gold": ["water"]}
            )
            + "\n"
        )
        cache_path = tmp_path / "replies.jsonl"
        ReplyCache(cache_path)  # create an empty cache; all records fail but run survives
        cfg = RunConfig(
            retrieval="bm25",
            highlighting=False,
            stepback=False,
            kb_path=str(kb_file),
            dataset_path=str(dataset),
            reply_cache_path=str(cache_path),
            output_dir=str(tmp_path / "sweep"),
        )
        cfg_path = tmp_path / "c.json"
        cfg.save(cfg_path)
        result = runner.invoke(main, ["sweep", "--config", str(cfg_path), "--k-values", "1,2"])
        assert result.exit_code == 0, result.output
        csv = (tmp_path / "sweep" / "sweep.csv").read_text()
        assert csv.splitlines()[0] == "k,retrieval,highlighting,stepback,accuracy"
        assert len(csv.strip().splitlines()) == 3

    def test_bad_k_values(self, runner, tmp_path):
        cfg_path = tmp_path / "c.json"
        RunConfig(dataset_path="x").save(cfg_path)
        result = runner.invoke(main, ["sweep", "--config", str(cfg_path), "--k-values", "a,b"])
        assert result.exit_code == 2


@pytest.mark.parametrize("command", [["eval"], ["sweep", "--k-values", "1,2"]])
@pytest.mark.parametrize(
    "setting", [{"retrieval": "quantum"}, {"highlighting": False, "context_mode": "evidence-only"}]
)
def test_invalid_setting_in_config_is_config_error(runner, tmp_path, command, setting):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"dataset_path": str(tmp_path / "dataset.jsonl"), **setting}))
    result = runner.invoke(main, [command[0], "--config", str(cfg_path), *command[1:]])
    assert result.exit_code == 2, result.output
    assert "config error: " in result.output
