"""Every config field refuses a value whose JSON type is not its declared type.

The table is generated from the declarations of the five config classes: each
`str`, `bool`, `int` and `float` field, optional or not, gets values of every
other JSON type (a boolean is not a number, `2.5` is not an integer, `null`
only where the field is `X | None`). Each must raise a `ValueError` that
names the field, and through `ragmark eval` each is a config error (exit 2)
with no report written. A field of any other type must be one of the three
nested sections, so a new field cannot go unchecked.
"""

import json
from dataclasses import fields

import pytest
from click.testing import CliRunner

from ragmark.cli import main
from ragmark.config import RunConfig
from ragmark.embeddings import ProviderConfig
from ragmark.evaluation import RunSetting
from ragmark.retriever import RetrieverParams
from ragmark.store import Bm25Params

CLASSES = (RunSetting, RunConfig, RetrieverParams, Bm25Params, ProviderConfig)
NESTED = {"retriever": RetrieverParams, "bm25": Bm25Params, "provider": ProviderConfig}

# Declared type -> JSON values of another type. `None` is added for a field that is not `X | None`.
WRONG = {
    "str": [5, 2.5, True, [], {}],
    "bool": ["false", "no", 0, 1, 1.0, []],
    "int": [True, False, 2.5, 3.0, "3", []],
    "float": [True, False, "0.5", [], {}],
}


def declared(field):
    """(the declared type's name, whether it allows null)."""
    name, _, optional = field.type.partition(" | ")
    return name, optional == "None"


def cases(cls):
    """(field, wrong value) for each checked field of `cls`, in declaration order."""
    for f in fields(cls):
        name, optional = declared(f)
        if name in WRONG:
            yield from ((f.name, v) for v in WRONG[name] + ([] if optional else [None]))


def test_every_field_has_a_type_the_check_knows_or_is_a_nested_section():
    for cls in CLASSES:
        for f in fields(cls):
            name, optional = declared(f)
            if f.name in NESTED and cls is RunConfig:
                assert name == NESTED[f.name].__name__ and not optional
            else:
                assert name in WRONG, f"{cls.__name__}.{f.name}: {f.type}"
                assert optional or f.type == name, f"{cls.__name__}.{f.name}: {f.type}"


TABLE = [(cls, name, value) for cls in CLASSES for name, value in cases(cls)]


@pytest.mark.parametrize(
    "cls, name, value", TABLE, ids=[f"{c.__name__}-{n}-{json.dumps(v)}" for c, n, v in TABLE]
)
def test_a_value_of_another_type_is_refused_naming_its_field(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**{name: value})


def test_the_first_wrong_field_in_declaration_order_is_named():
    with pytest.raises(ValueError, match="^n_parallel must be an integer, not 2.5$"):
        RetrieverParams(t_ambiguity="4", n_parallel=2.5)
    with pytest.raises(ValueError, match=r"^top_k must be an integer or null, not True$"):
        RunConfig(kb_path=5, top_k=True)


def test_an_integer_is_a_number_and_null_fills_an_optional_field():
    assert RetrieverParams(m_threshold=1).m_threshold == 1
    assert Bm25Params(k1=2, b=0) == Bm25Params(k1=2, b=0)
    assert RunConfig(top_k=None, kb_path=None, llm_endpoint=None).top_k is None
    assert ProviderConfig(cache_path=None).cache_path is None


KB = [{"id": "p1", "title": "Deserts", "text": "Deserts are dry. Lions hunt at night."}]
RECORD = {"query_id": "q0", "task": "factoid", "question": "When do lions hunt?", "gold": ["night"]}
CLI_TABLE = [(None, name, value) for name, value in cases(RunConfig)] + [
    (section, name, value) for section, cls in NESTED.items() for name, value in cases(cls)
]


@pytest.mark.parametrize(
    "section, name, value", CLI_TABLE, ids=[f"{s or 'config'}-{n}-{json.dumps(v)}" for s, n, v in CLI_TABLE]
)
def test_eval_exits_2_on_a_value_of_another_type(tmp_path, section, name, value):
    kb, dataset = tmp_path / "kb.jsonl", tmp_path / "dataset.jsonl"
    kb.write_text(json.dumps(KB[0]) + "\n", encoding="utf-8")
    dataset.write_text(json.dumps(RECORD) + "\n", encoding="utf-8")
    config = json.loads(RunConfig(
        retrieval="bm25", highlighting=False, stepback=False, kb_path=str(kb), dataset_path=str(dataset),
        reply_cache_path=str(tmp_path / "replies.jsonl"), output_dir=str(tmp_path / "run"),
    ).to_json())
    (config[section] if section else config)[name] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = CliRunner().invoke(main, ["eval", "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert f"config error: {name} must be " in result.output
    assert not (tmp_path / "run").exists()
