"""Every JSONL line is decoded as `json.loads` decodes it, and every `f64` payload as
`base64.b64decode(..., validate=True)` decodes it.

`jsonl.decode_line` takes a value straight from the JSON scanner only when it runs
from the line's first character to its newline or end; every other line goes to
`json.loads`. `read_records` and `KeyedJsonl.load` give, line for line, the values
and the `MalformedRecord` messages of `json.loads`. The vector cache decodes its
payloads with `binascii.a2b_base64(..., strict_mode=True)`, which accepts and
rejects what `b64decode(..., validate=True)` does, and loads the table
today's loader loaded (`oracles.reference_vector_cache`), or refuses a file whose valid
records have more than one dimension.
"""

import base64
import binascii
import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragmark.embeddings import VectorCache
from ragmark.errors import DimensionMismatch, MalformedRecord
from ragmark.jsonl import KeyedJsonl, decode_line, read_records

from oracles import reference_vector_cache

# Lines as a file read a line at a time gives them: each ends at its "\n".
IRREGULAR = [
    '{"a": 1}\n',
    '  {"a": 1}\n',  # leading whitespace
    '\t[1, 2]\n',
    '{"a": 1}   \n',  # trailing spaces
    '{"a": 1}\t\n',  # a trailing tab
    '{"a": 1}\r\n',  # CRLF
    '{"a": 1}\x0b\n',  # a vertical tab is not JSON whitespace
    '\u3000{"a": 1}\n',  # nor is an ideographic space
    '{"a": 1} {"b": 2}\n',  # two values
    '1 2\n',
    '{"a": 1}garbage\n',  # trailing garbage
    '[1, 2]]\n',
    '0123\n',
    '{"a": NaN}\n',
    '[Infinity, -Infinity, NaN]\n',
    'NaN\n',
    '-Infinity\n',
    '\ufeff{"a": 1}\n',  # a BOM
    '{"a": "x\u2028y\u2029z\x85"}\n',  # raw line separators inside a string
    '"\\ud800"\n',  # an escaped lone surrogate
    '{"a": "\x01"}\n',  # a raw control character
    '{"a": 1,}\n',
    '{"a": 1\n',  # cut short
    '{"a": "b", "a": "c"}\n',  # a repeated key: the last wins
    '"text"\n',
    '12\n',
    '-0\n',
    '1.5e3\n',
    'null\n',
    'true\n',
    '{}\n',
    '\n',  # blank
    '   \n',  # whitespace only
    '\t\r\n',
    '\u3000\n',
    '\x0c\n',
]
LAST = ['{"a": 1}', '[1, 2', '  7', '"x" ', '\u3000']  # a last line without its "\n"


def outcome(decode, line):
    """("value", repr of the value) or ("error", exception type, message)."""
    try:
        return ("value", repr(decode(line)))
    except Exception as exc:  # the comparison is of whatever is raised
        return ("error", type(exc), str(exc))


@pytest.mark.parametrize("line", IRREGULAR + LAST)
def test_decode_line_is_json_loads(line):
    assert outcome(decode_line, line) == outcome(json.loads, line)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=' \t\r\n\x0b\u3000\ufeff{}[]":,.-+0123456789eEaflnrstuINTy\\'))
def test_decode_line_is_json_loads_on_arbitrary_text(line):
    assert outcome(decode_line, line) == outcome(json.loads, line)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
PADDING = st.sampled_from(["", " ", "\t", "\r", "  ", "\u3000", "x", "\ufeff"])


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES, PADDING, PADDING, st.booleans(), st.booleans())
def test_decode_line_is_json_loads_on_padded_values(value, before, after, ascii_only, newline):
    line = before + json.dumps(value, ensure_ascii=ascii_only) + after + ("\n" if newline else "")
    assert outcome(decode_line, line) == outcome(json.loads, line)


@pytest.mark.parametrize("line", IRREGULAR + [last + "\n" for last in LAST])
def test_read_records_reports_each_line_as_json_loads_does(line, tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"before": 1}\n' + line + '{"after": 3}\n', encoding="utf-8")
    records = read_records(path)
    assert next(records) == (1, {"before": 1})
    if line.strip():
        try:
            want = json.loads(line)
        except json.JSONDecodeError as exc:
            with pytest.raises(MalformedRecord) as err:
                next(records)
            assert str(err.value) == f"line 2: {exc}" and err.value.line_number == 2
            return
        line_no, got = next(records)
        assert line_no == 2 and repr(got) == repr(want)
    assert next(records) == (3, {"after": 3})


@pytest.mark.parametrize("last", LAST)
def test_read_records_reads_a_last_line_without_its_newline_as_json_loads_does(last, tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"before": 1}\n' + last, encoding="utf-8")
    try:
        want = [(1, {"before": 1}), (2, json.loads(last))] if last.strip() else [(1, {"before": 1})]
    except json.JSONDecodeError as exc:
        with pytest.raises(MalformedRecord, match=f"^line 2: {exc}$".replace("(", r"\(").replace(")", r"\)")):
            list(read_records(path))
    else:
        assert [(n, repr(v)) for n, v in read_records(path)] == [(n, repr(v)) for n, v in want]


@pytest.mark.parametrize("last", LAST)
def test_keyed_store_loads_the_lines_json_loads_accepts(last, tmp_path):
    lines = IRREGULAR + [last]
    path = tmp_path / "store.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    want = []
    for line in lines:
        try:
            want.append(repr(json.loads(line)))
        except ValueError:
            pass
    store = KeyedJsonl(path)  # its tail repair keeps or cuts the last line
    assert [repr(v) for _, v in store.load(lambda value: (None, value))] == want


# f64 payloads: valid ones, bad padding, characters outside the alphabet, non-ASCII
# text, embedded whitespace, data after the padding, and values that are not strings.
PAYLOADS = [
    "", "AAAAAAAA8D8=", "AAAAAAAA8D8AAAAAAADwPw==", "AAAA",
    "AAAAAAAA8D8", "AAAAAAAA8D8==", "AAAAAAAA8D8===", "=", "==", "A", "AA", "AAA", "A=", "AA=", "A===",
    "=AAA", "AA=A", "AA==AA==", "AAA=A", "AAA==",
    "AAAA-AAA", "AAAA_AAA", "AAAA*AAA", "AAAA.AAA", "AAAA\x00AAA", "AAAA\\AAA",
    "AAAAé", "ＡＡＡＡ", "AAAA\u2028", "\ufeffAAAA",
    " AAAA", "AAAA ", "AA AA", "AAAA\nAAAA", "AAAA\r\n", "AAAA\tAAAA",
    None, True, 0, 1.5, [], ["AAAA"], {}, {"f64": "AAAA"},
    b"AAAA", b"AA=A", bytearray(b"AAAAAAAA8D8="),
]


@pytest.mark.parametrize("payload", PAYLOADS, ids=repr)
def test_strict_a2b_base64_accepts_and_rejects_what_b64decode_validate_does(payload):
    def result(decode):
        try:
            return ("value", decode(payload))
        except (TypeError, ValueError) as exc:  # what the loader skips a record on
            return ("error", TypeError if isinstance(exc, TypeError) else ValueError)

    assert result(lambda s: binascii.a2b_base64(s, strict_mode=True)) == result(
        lambda s: base64.b64decode(s, validate=True)
    )


TERMS = st.sampled_from(["a", "b", "c", "é", "日本", "x\u2028y"])


@st.composite
def cache_lines(draw, dims):
    """One line of a vector cache file: an `f64` or legacy `values` record of a dimension drawn
    from `dims`, or a corrupt one; non-ASCII text either escaped or raw."""
    term = draw(TERMS)
    dim = draw(dims)
    values = draw(st.lists(st.floats(width=64), min_size=dim, max_size=dim))
    f64 = base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")
    ascii_only = draw(st.booleans())

    def record(**fields):
        return json.dumps(fields, ensure_ascii=ascii_only)

    good = record(term=term, dim=dim, f64=f64)
    return draw(st.sampled_from([
        good,
        good,
        good,
        record(term=term, dim=dim, values=values),  # a legacy record
        " " + good,  # whitespace around a record still loads
        good + "\r",
        "{corrupt",
        "",
        "   ",
        "null",
        "[]",
        '"f64"',
        good + " " + good,
        record(term=term, dim=dim + 1, f64=f64),  # dim does not match
        record(term=term, dim=dim, f64=f64[:-1]),  # bad padding
        record(term=term, dim=dim, f64=f64[:4] + " " + f64[4:]),
        record(term=term, dim=dim, f64="é" + f64),
        record(term=term, dim=dim, f64=7),
        record(dim=dim, f64=f64),  # no term
        record(term=term, f64=f64),  # no dim
        record(term=term, dim=dim, values=["x"] * dim),
        record(term=term, dim=dim, values=3),
    ]))


def loaded_table(cache: VectorCache) -> dict[int, list[tuple[str, bytes]]]:
    if cache.dim is None:
        return {}
    held = sorted((i, term) for term, i in cache._at.items())
    assert [i for i, _ in held] == list(range(cache._n))  # one block, no spare rows in use
    return {cache.dim: [(term, cache.arrays[0][i].astype("<f8").tobytes()) for i, term in held]}


# A file of one dimension, or one whose lines each draw their own.
FILES = st.integers(1, 3).flatmap(lambda dim: st.lists(cache_lines(st.just(dim)), max_size=14)) | st.lists(
    cache_lines(st.integers(1, 3)), max_size=14
)


@settings(max_examples=150, deadline=None)
@given(lines=FILES, torn=st.integers(0, 60))
def test_the_cache_loads_the_table_the_reference_loads(lines, torn, tmp_path_factory):
    text = "".join(line + "\n" for line in lines)
    if lines and torn:  # the last line cut short, without its newline
        text = text[: -1 - len(lines[-1])] + lines[-1][:torn]
    tmp = tmp_path_factory.mktemp("cache")
    path, copy = tmp / "vectors.jsonl", tmp / "reference.jsonl"
    path.write_bytes(text.encode("utf-8"))
    shutil.copyfile(path, copy)
    want = reference_vector_cache(copy)
    if len(want) > 1:  # valid records of two dimensions: the open is refused
        with pytest.raises(DimensionMismatch, match=re.escape(f"{path} line ")):
            VectorCache(path)
        return
    cache = VectorCache(path)
    assert loaded_table(cache) == want
