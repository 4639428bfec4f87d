"""Malformed input lines raise MalformedRecord with their line number, never a raw TypeError."""

import json

import pytest
from click.testing import CliRunner

from ragmark.cli import main
from ragmark.errors import MalformedRecord
from ragmark.evaluation import load_dataset
from ragmark.store import load_passages, load_precomputed_results

GOOD_PASSAGE = {"id": "p1", "title": "Deserts", "text": "Deserts are dry."}
GOOD_RESULT = {"query_id": "q1", "passages": [GOOD_PASSAGE]}
GOOD_RECORD = {"query_id": "q1", "task": "factoid", "question": "Q?", "gold": ["water"]}


def raises_on_line_2(loader, tmp_path, good, bad):
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as exc_info:
        loader(path)
    assert exc_info.value.line_number == 2
    assert str(exc_info.value).startswith("line 2: ")
    return str(exc_info.value)


# A JSON string holding every field name passes an `in` test for each field.
@pytest.mark.parametrize(
    "loader, good, bad",
    [
        (load_passages, GOOD_PASSAGE, "id title text"),
        (load_precomputed_results, GOOD_RESULT, "query_id passages"),
        (load_dataset, GOOD_RECORD, "query_id task question gold"),
    ],
)
def test_line_that_is_not_an_object(loader, good, bad, tmp_path):
    assert "JSON object" in raises_on_line_2(loader, tmp_path, good, bad)


@pytest.mark.parametrize("entry", ["id title text", ["id"], 7])
def test_passage_entry_that_is_not_an_object(entry, tmp_path):
    bad = {"query_id": "q2", "passages": [GOOD_PASSAGE, entry]}
    assert "JSON object" in raises_on_line_2(load_precomputed_results, tmp_path, GOOD_RESULT, bad)


@pytest.mark.parametrize("passages", [5, None])
def test_passages_that_are_not_a_list(passages, tmp_path):
    bad = {"query_id": "q2", "passages": passages}
    raises_on_line_2(load_precomputed_results, tmp_path, GOOD_RESULT, bad)


def test_empty_passage_text(tmp_path):
    bad = {"id": "p2", "title": "Empty", "text": ""}
    assert "non-empty" in raises_on_line_2(load_passages, tmp_path, GOOD_PASSAGE, bad)
    result = {"query_id": "q2", "passages": [bad]}
    assert "non-empty" in raises_on_line_2(load_precomputed_results, tmp_path, GOOD_RESULT, result)


def test_index_reports_empty_passage_text(tmp_path):
    kb = tmp_path / "kb.jsonl"
    kb.write_text(json.dumps(GOOD_PASSAGE) + "\n" + json.dumps({"id": "p2", "title": "t", "text": ""}) + "\n")
    result = CliRunner().invoke(main, ["index", "--kb", str(kb), "--out", str(tmp_path / "index.json")])
    assert result.exit_code == 1
    assert "error: line 2: passage text must be non-empty" in result.output


@pytest.mark.parametrize("gold", ["water", 5, None, {"water": 1}])
def test_gold_that_is_not_a_list(gold, tmp_path):
    raises_on_line_2(load_dataset, tmp_path, GOOD_RECORD, {**GOOD_RECORD, "query_id": "q2", "gold": gold})


@pytest.mark.parametrize("choices", [["A. water", "B. sand"], "ABCD", 4])
def test_choices_that_are_not_an_object(choices, tmp_path):
    bad = {"query_id": "q2", "task": "mcq", "question": "Q?", "gold": ["A"], "choices": choices}
    assert "choices" in raises_on_line_2(load_dataset, tmp_path, GOOD_RECORD, bad)
