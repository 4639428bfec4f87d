"""Inputs that could only run wrong are refused up front.

A setting with an unknown model family, a provider with a dimension or batch
size below 1, a config value of the wrong JSON type (a bool or text where a
number belongs), a configured input file that does not exist, a path of the
wrong kind (a directory where a file belongs, a path below a file, an output
directory that is a file) and a vector cache of another dimension than its
provider, or of two, are config errors: `eval` and `sweep` exit 2 and write
no report, and so does `highlight` (and `index`, on a path of the wrong
kind). A dataset gold answer that can never be matched, an MCQ gold label
that is not one of the record's choices, an MCQ choice key that is a lower-case letter
(the article "a" would match label a) and a repeated query id in the
precomputed results are load errors that name their line: `eval` and `sweep`
exit 1 on them and write no report. An argument out
of range for a provider, the retriever, BM25, the highlighter or step-back
raises before any work is done.
"""

import json
from dataclasses import replace

import pytest
from click.testing import CliRunner

from ragmark.cli import main
from ragmark.config import RunConfig
from ragmark.embeddings import OfflineEmbeddingProvider, ProviderConfig
from ragmark.errors import DuplicateId, EmptyCandidatePool, MalformedRecord, SpanOutOfBounds, UnknownPassage
from ragmark.evaluation import RunSetting, load_dataset
from ragmark.highlight import evidence_only, highlight
from ragmark.retriever import RetrieverParams, retrieve_chain, retrieve_parallel_chains
from ragmark.stepback import StubChatClient, stepback_choice_concepts, stepback_question
from ragmark.store import Bm25Params, Passage, build_index, load_precomputed_results
from ragmark.text import extract_terms, split_sentences

KB = [{"id": "p1", "title": "Deserts", "text": "Deserts are dry. Lions hunt at night."}]
RECORD = {"query_id": "q0", "task": "factoid", "question": "When do lions hunt?", "gold": ["night"]}
MCQ = {"query_id": "q1", "task": "mcq", "question": "When do lions hunt?", "choices": {"A": "night", "B": "noon"}}


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def config_with(tmp_path, **changes):
    """A working bm25 config file, with `changes` merged into its JSON."""
    path = tmp_path / "c.json"
    RunConfig(
        retrieval="bm25", highlighting=False, stepback=False,
        kb_path=str(write_jsonl(tmp_path / "kb.jsonl", KB)),
        dataset_path=str(write_jsonl(tmp_path / "dataset.jsonl", [RECORD])),
        reply_cache_path=str(tmp_path / "replies.jsonl"), output_dir=str(tmp_path / "run"),
    ).save(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    for key, value in changes.items():
        data[key] = {**data[key], **value} if isinstance(value, dict) else value
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_unknown_model_family_is_rejected():
    with pytest.raises(ValueError, match="model family 'gpt4'"):
        RunSetting(model_family="gpt4")
    for family in ("mistral", "alpaca", "llama2"):
        assert RunSetting(model_family=family).model_family == family


@pytest.mark.parametrize("field", ["dimension", "batch_size"])
@pytest.mark.parametrize("value", [0, -1])
def test_provider_dimension_and_batch_size_below_one_are_rejected(field, value):
    with pytest.raises(ValueError, match="dimension and batch_size"):
        ProviderConfig(**{field: value})


PASSAGE = Passage("p1", "Deserts", KB[0]["text"])
SPANS = split_sentences("p1", PASSAGE.text)
TERMS = extract_terms("When do lions hunt?")


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: ProviderConfig(kind="cloud"), ValueError, "unknown provider kind 'cloud'"),
        (lambda: OfflineEmbeddingProvider(batch_size=0), ValueError, "batch_size must be positive"),
        (lambda: RetrieverParams(n_parallel=0), ValueError, "n_parallel and k_max_hops"),
        (lambda: RetrieverParams(k_max_hops=0), ValueError, "n_parallel and k_max_hops"),
        (lambda: RetrieverParams(t_ambiguity=-1), ValueError, "t_ambiguity"),
        (lambda: Bm25Params(k1=-1), ValueError, "k1 >= 0"),
        (lambda: Bm25Params(b=1.5), ValueError, "0 <= b <= 1"),
        (lambda: RetrieverParams(m_threshold=True), ValueError, "m_threshold must be a number, not True"),
        (lambda: Bm25Params(k1="1"), ValueError, "k1 must be a number, not '1'"),
        (lambda: Bm25Params(b=None), ValueError, "b must be a number, not None"),
        (lambda: build_index([PASSAGE]).top_k("lions", 0), ValueError, "k must be positive"),
        (lambda: RunSetting(context_mode="x"), ValueError, "context mode 'x'"),
        (lambda: highlight([PASSAGE], [SPANS[0], replace(SPANS[1], start=SPANS[0].end - 3)]), SpanOutOfBounds, "overlapping"),
        (lambda: evidence_only([PASSAGE], [replace(SPANS[0], passage_id="p9")]), UnknownPassage, "'p9'"),
        (lambda: retrieve_chain(TERMS, SPANS, {}, first_pick_rank=0), ValueError, "first_pick_rank"),
        (lambda: retrieve_parallel_chains(TERMS, [], {}), EmptyCandidatePool, "no candidate"),
        (lambda: stepback_question("", StubChatClient("x")), ValueError, "original question"),
        (lambda: stepback_choice_concepts("", StubChatClient("x")), ValueError, "choice text"),
    ],
    ids=[
        "provider-kind", "offline-batch-size", "n_parallel", "k_max_hops", "t_ambiguity", "bm25-k1", "bm25-b",
        "m_threshold-bool", "bm25-k1-text", "bm25-b-null",
        "top_k-0", "context-mode", "overlapping-spans", "evidence-of-unknown-passage", "first-pick-rank-0",
        "no-candidates", "empty-question", "empty-choice",
    ],
)
def test_an_argument_that_could_only_run_wrong_is_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def assert_config_error(tmp_path, command, path):
    """`command` on the config at `path` exits 2 with a config error and writes no report."""
    result = CliRunner().invoke(main, [command[0], "--config", str(path), *command[1:]])
    assert result.exit_code == 2, result.output
    assert "config error: " in result.output
    assert not (tmp_path / "run").exists()
    return result.output


COMMANDS = pytest.mark.parametrize("command", [["eval"], ["sweep", "--k-values", "1"]])


@COMMANDS
@pytest.mark.parametrize(
    "changes",
    [
        {"model_family": "gpt4"},
        {"provider": {"dimension": 0}},
        {"provider": {"batch_size": 0}},
        {"bm25": None},
        {"retriever": None},
        {"provider": None},
        {"stepback": "false"},
        {"highlighting": "no"},
        {"top_k": True},
        {"top_k": 2.5},
        {"provider": {"batch_size": 2.5}},
        {"provider": {"dimension": 2.5}},
        {"provider": {"seed": 1.5}},
        {"retriever": {"n_parallel": 2.5}},
        {"retriever": {"k_max_hops": True}},
        {"retriever": {"t_ambiguity": 1.5}},
        {"retriever": {"m_threshold": True}},
        {"retriever": {"m_threshold": "0.5"}},
        {"retriever": {"m_threshold": None}},
        {"bm25": {"k1": True}},
        {"bm25": {"k1": "1"}},
        {"bm25": {"k1": None}},
        {"bm25": {"b": True}},
        {"bm25": {"b": "0.5"}},
        {"bm25": {"b": None}},
        {"kb_path": 5},
        {"output_dir": 5},
        {"reply_cache_path": 7},
        {"qa_model": 3},
        {"stepback_model": None},
        {"provider": {"cache_path": 5}, "highlighting": True},
        {"provider": {"cache_path": False}, "highlighting": True},
        {"provider": {"model_name": None}, "highlighting": True},
        {"provider": {"model_name": 3}, "highlighting": True},
        {"provider": {"kind": "remote", "endpoint": 5}},
    ],
    ids=[
        "model_family", "dimension", "batch_size", "bm25-null", "retriever-null", "provider-null",
        "stepback-text", "highlighting-text", "top_k-bool", "top_k-float", "batch_size-float", "dimension-float",
        "seed-float", "n_parallel-float", "k_max_hops-bool", "t_ambiguity-float", "m_threshold-bool",
        "m_threshold-text", "m_threshold-null", "k1-bool", "k1-text", "k1-null", "b-bool", "b-text", "b-null",
        "kb_path-int", "output_dir-int",
        "reply_cache_path-int", "qa_model-int", "stepback_model-null", "cache_path-int", "cache_path-bool",
        "provider-model_name-null", "provider-model_name-int", "endpoint-int",
    ],
)
def test_eval_and_sweep_exit_2_on_an_invalid_setting(tmp_path, command, changes):
    assert_config_error(tmp_path, command, config_with(tmp_path, **changes))


def vector_cache(tmp_path, *dimensions):
    """A vector cache file holding a few terms embedded at each of `dimensions` in turn."""
    path = tmp_path / "vectors.jsonl"
    for i, dimension in enumerate(dimensions):
        vectors = OfflineEmbeddingProvider(dimension=dimension).embed_terms([f"lions{i}", f"night{i}"])
        with path.open("a", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"term": t, "dim": dimension, "values": list(v.values)}) + "\n"
                          for t, v in vectors.items())
    return str(path)


CACHES = pytest.mark.parametrize(
    "dimensions, message",
    [
        ((16,), "vectors of dimension 16, not 64"),
        ((64, 16), "line 3: a vector of dimension 16 in a cache of dimension 64"),
    ],
    ids=["another-dimension", "mixed-dimensions"],
)


@COMMANDS
@CACHES
def test_eval_and_sweep_exit_2_on_a_vector_cache_of_another_dimension(tmp_path, command, dimensions, message):
    provider = {"dimension": 64, "cache_path": vector_cache(tmp_path, *dimensions)}
    path = config_with(tmp_path, highlighting=True, provider=provider)
    assert message in assert_config_error(tmp_path, command, path)


@CACHES
def test_highlight_exits_2_on_a_vector_cache_of_another_dimension(tmp_path, dimensions, message):
    path = config_with(tmp_path, provider={"dimension": 64, "cache_path": vector_cache(tmp_path, *dimensions)})
    out = tmp_path / "highlighted.jsonl"
    command = ["highlight", "--query", RECORD["question"], "--config", str(path), "--out", str(out)]
    result = CliRunner().invoke(main, command)
    assert result.exit_code == 2, result.output
    assert "config error: " in result.output and message in result.output
    assert not out.exists()


@COMMANDS
@pytest.mark.parametrize(
    "field, retrieval",
    [("dataset_path", "bm25"), ("kb_path", "bm25"), ("results_path", "precomputed-dense")],
)
def test_eval_and_sweep_exit_2_on_a_missing_input_file(tmp_path, command, field, retrieval):
    path = config_with(tmp_path, retrieval=retrieval, **{field: str(tmp_path / "missing.jsonl")})
    assert "missing.jsonl" in assert_config_error(tmp_path, command, path)


@COMMANDS
@pytest.mark.parametrize(
    "where, message", [("adir", "Is a directory"), ("afile/in.jsonl", "Not a directory")],
    ids=["a-directory", "below-a-file"],
)
@pytest.mark.parametrize(
    "field, changes",
    [
        ("dataset_path", {}),
        ("kb_path", {}),
        ("results_path", {"retrieval": "precomputed-dense"}),
        ("reply_cache_path", {}),
        ("cache_path", {"highlighting": True}),
    ],
)
def test_eval_and_sweep_exit_2_on_an_input_path_of_the_wrong_kind(tmp_path, command, where, message, field, changes):
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("", encoding="utf-8")
    value = str(tmp_path / where)
    if field == "cache_path":  # a provider field
        path = config_with(tmp_path, provider={"cache_path": value}, **changes)
    else:
        path = config_with(tmp_path, **{field: value}, **changes)
    assert message in assert_config_error(tmp_path, command, path)


@COMMANDS
@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
def test_eval_and_sweep_exit_2_on_an_output_dir_that_is_not_a_directory(tmp_path, command, below):
    outfile = tmp_path / "outfile"
    outfile.write_text("kept\n", encoding="utf-8")
    path = config_with(tmp_path, output_dir=str(outfile / "run" if below else outfile))
    output = assert_config_error(tmp_path, command, path)
    assert ("Not a directory" if below else "File exists") in output
    assert outfile.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "dataset.jsonl", "kb.jsonl", "outfile"]


@pytest.mark.parametrize(
    "args",
    [
        ["index", "--kb", "KB", "--out", "DIR"],
        ["index", "--kb", "DIR", "--out", "OUT"],
        ["highlight", "--query", "When do lions hunt?", "--kb", "KB", "--out", "DIR", "--no-stepback"],
        ["highlight", "--query", "When do lions hunt?", "--kb", "DIR", "--out", "OUT", "--no-stepback"],
    ],
    ids=["index-out", "index-kb", "highlight-out", "highlight-kb"],
)
def test_index_and_highlight_exit_2_on_a_path_that_is_a_directory(tmp_path, args):
    kb = write_jsonl(tmp_path / "kb.jsonl", KB)
    (tmp_path / "adir").mkdir()
    paths = {"KB": str(kb), "DIR": str(tmp_path / "adir"), "OUT": str(tmp_path / "out.json")}
    result = CliRunner().invoke(main, [paths.get(a, a) for a in args])
    assert result.exit_code == 2, result.output
    assert "config error: " in result.output and "Is a directory" in result.output
    assert not (tmp_path / "out.json").exists() and not any((tmp_path / "adir").iterdir())


@pytest.mark.parametrize("text", ["[]", "null", '"bm25"'])
def test_a_config_that_is_not_a_json_object_is_a_config_error(tmp_path, text):
    path = tmp_path / "c.json"
    path.write_text(text, encoding="utf-8")
    assert "config error: a config must be a JSON object" in assert_config_error(tmp_path, ["eval"], path)


def load_error_on_line_2(tmp_path, loader, good, bad, error=MalformedRecord):
    path = write_jsonl(tmp_path / "in.jsonl", [good, bad])
    with pytest.raises(error) as caught:
        loader(path)
    assert str(caught.value).startswith("line 2: ")
    return caught.value


@pytest.mark.parametrize("gold", [["!!"], ["night", "..."], [" "]])
def test_a_gold_answer_with_no_letters_or_digits_is_a_load_error(tmp_path, gold):
    bad = {**RECORD, "query_id": "q1", "gold": gold}
    assert load_error_on_line_2(tmp_path, load_dataset, RECORD, bad).line_number == 2


@pytest.mark.parametrize("gold", [["E"], ["A", "E"], ["a"]])
def test_an_mcq_gold_label_that_is_not_a_choice_key_is_a_load_error(tmp_path, gold):
    bad = {**MCQ, "gold": gold}
    error = load_error_on_line_2(tmp_path, load_dataset, RECORD, bad)
    assert error.line_number == 2 and "choice keys" in str(error)


def test_mcq_gold_labels_among_the_choice_keys_load(tmp_path):
    [record] = load_dataset(write_jsonl(tmp_path / "in.jsonl", [{**MCQ, "gold": ["A", "B"]}]))
    assert record.gold == frozenset({"A", "B"})


@pytest.mark.parametrize("key", ["a", "b", "é"])
def test_a_lower_case_letter_choice_key_is_a_load_error(tmp_path, key):
    bad = {**MCQ, "choices": {"A": "at night", key: "at noon"}, "gold": ["A"]}
    error = load_error_on_line_2(tmp_path, load_dataset, RECORD, bad)
    assert error.line_number == 2 and f"choice key {key!r}" in str(error)


def test_upper_case_and_digit_choice_keys_load(tmp_path):
    rows = [{**MCQ, "gold": ["A"]}, {**MCQ, "query_id": "q2", "choices": {"1": "night", "2": "noon"}, "gold": ["1"]}]
    assert [r.choices for r in load_dataset(write_jsonl(tmp_path / "in.jsonl", rows))] == [
        {"A": "night", "B": "noon"}, {"1": "night", "2": "noon"}
    ]


@COMMANDS
def test_eval_and_sweep_exit_1_on_a_lower_case_letter_choice_key(tmp_path, command):
    lowered = {**MCQ, "choices": {"a": "at night", "b": "at noon"}, "gold": ["a"]}
    path = config_with(tmp_path, dataset_path=str(write_jsonl(tmp_path / "mcq.jsonl", [lowered])))
    result = CliRunner().invoke(main, [command[0], "--config", str(path), *command[1:]])
    assert result.exit_code == 1, result.output
    assert "error: line 1: choice key 'a' is a lower-case letter" in result.output
    assert not (tmp_path / "run").exists()


def test_a_repeated_query_id_in_precomputed_results_is_a_load_error(tmp_path):
    first = {"query_id": "q0", "passages": [KB[0]]}
    again = {"query_id": "q0", "passages": [{**KB[0], "id": "p2"}]}
    error = load_error_on_line_2(tmp_path, load_precomputed_results, first, again, DuplicateId)
    assert "'q0'" in str(error)


def test_a_passage_id_listed_twice_in_one_precomputed_result_is_a_load_error(tmp_path):
    first = {"query_id": "q0", "passages": [KB[0]]}
    repeated = {"query_id": "q1", "passages": [KB[0], {**KB[0], "id": "p2"}, {**KB[0], "text": "Lions roar."}]}
    error = load_error_on_line_2(tmp_path, load_precomputed_results, first, repeated, DuplicateId)
    assert str(error) == "line 2: passage id 'p1' listed twice for query_id 'q1'"
