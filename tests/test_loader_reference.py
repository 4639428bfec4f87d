"""The KB and precomputed-results loaders against the field-by-field passage reader.

Each file is loaded twice: as it is, and with `store._passage` replaced by
`oracles.reference_passage`, which reads every field through `require`. Both
loads give the same passages, or raise the same exception class with the
same message.
"""

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ragmark import store

from oracles import reference_passage

FIELDS = ("id", "title", "text", "source")
MISSING = object()  # the field is left out of the entry
VALUES = st.one_of(
    st.sampled_from(["", "p1", "Deserts are dry.", " ", "5"]), st.text(max_size=6),
    st.integers(), st.floats(), st.booleans(), st.none(),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.just(MISSING),
)
STRINGS = st.tuples(*[st.sampled_from(["", "p1", "p2", "Deserts are dry."]) | st.text(max_size=6)] * 4)
OBJECT = st.one_of(st.tuples(*[VALUES] * 4), STRINGS).map(
    lambda values: {f: v for f, v in zip(FIELDS, values) if v is not MISSING}
)
NOT_AN_OBJECT = st.one_of(st.text(max_size=5), st.integers(), st.none(), st.lists(st.integers(), max_size=2))
ENTRY = OBJECT | NOT_AN_OBJECT
ENTRIES = st.lists(ENTRY, min_size=1, max_size=4)


def outcome(loader, path):
    try:
        return loader(path)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def check(loader, lines, tmp_path_factory):
    path = tmp_path_factory.mktemp("loader") / "in.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    got = outcome(loader, path)
    with mock.patch.object(store, "_passage", reference_passage):
        assert got == outcome(loader, path)


@settings(max_examples=300, deadline=None)
@given(entries=ENTRIES)
def test_kb_lines_load_as_the_reference_loads_them(entries, tmp_path_factory):
    check(store.load_passages, entries, tmp_path_factory)


@settings(max_examples=300, deadline=None)
@given(results=st.lists(ENTRIES, min_size=1, max_size=3))
def test_precomputed_entries_load_as_the_reference_loads_them(results, tmp_path_factory):
    lines = [{"query_id": f"q{i}", "passages": entries} for i, entries in enumerate(results)]
    check(store.load_precomputed_results, lines, tmp_path_factory)
