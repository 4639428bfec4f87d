"""A nested config section, and a run's handles, hold what they declare.

A field whose default factory is a class (`RunConfig.retriever`, `.bm25`,
`.provider` and `PipelineHandles.retriever_params`) must hold an instance of
that class when it is built in Python too, not only when it is read from
JSON; the `ValueError` names the field. `PipelineHandles.max_workers` must be
an integer of at least 1.
"""

import pytest

from ragmark.config import RunConfig
from ragmark.embeddings import ProviderConfig
from ragmark.evaluation import PipelineHandles
from ragmark.retriever import RetrieverParams
from ragmark.stepback import StubChatClient
from ragmark.store import Bm25Params

SECTIONS = {"retriever": RetrieverParams, "bm25": Bm25Params, "provider": ProviderConfig}
NOT_A_SECTION = [{}, None, {"n_parallel": 3}, [], "retriever", 3]


@pytest.mark.parametrize("name", sorted(SECTIONS))
@pytest.mark.parametrize("value", NOT_A_SECTION, ids=repr)
def test_a_config_section_of_another_type_is_refused_naming_it(name, value):
    with pytest.raises(ValueError) as info:
        RunConfig(**{name: value})
    assert str(info.value) == f"{name} must be a {SECTIONS[name].__name__}, not {value!r}"


def test_the_first_wrong_section_in_declaration_order_is_named():
    with pytest.raises(ValueError, match=r"^retriever must be a RetrieverParams, not \{\}$"):
        RunConfig(retriever={}, provider=None)


def test_a_section_of_its_class_is_taken():
    cfg = RunConfig(retriever=RetrieverParams(n_parallel=2), bm25=Bm25Params(k1=1.5), provider=ProviderConfig(dimension=8))
    assert (cfg.retriever.n_parallel, cfg.bm25.k1, cfg.provider.dimension) == (2, 1.5, 8)
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_a_json_section_that_is_not_an_object_keeps_its_message():
    with pytest.raises(ValueError, match="^config field 'bm25' must be an object$"):
        RunConfig.from_json('{"bm25": null}')


def handles(**fields):
    return PipelineHandles(qa_client=StubChatClient("answer"), **fields)


@pytest.mark.parametrize("value", NOT_A_SECTION, ids=repr)
def test_handles_refuse_retriever_params_of_another_type(value):
    with pytest.raises(ValueError) as info:
        handles(retriever_params=value)
    assert str(info.value) == f"retriever_params must be a RetrieverParams, not {value!r}"


@pytest.mark.parametrize("value", [0, -1])
def test_handles_refuse_fewer_than_one_worker(value):
    with pytest.raises(ValueError, match=f"^max_workers must be at least 1, not {value}$"):
        handles(max_workers=value)


@pytest.mark.parametrize("value", [2.5, 1.0, True, "4", None])
def test_handles_refuse_a_worker_count_that_is_not_an_integer(value):
    with pytest.raises(ValueError, match=f"^max_workers must be an integer, not {value!r}$"):
        handles(max_workers=value)


def test_handles_take_their_defaults_and_any_worker_count_from_one():
    assert handles().max_workers == 4 and handles().retriever_params == RetrieverParams()
    assert [handles(max_workers=n).max_workers for n in (1, 2, 16)] == [1, 2, 16]
