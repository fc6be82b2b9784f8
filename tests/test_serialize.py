"""The dataset encoder and loader against the stdlib ``json`` module.

``dump_dataset`` writes the indented form by hand and ``load_dataset``
checks compact text by hashing the stored payload text; the stdlib encoder
is the oracle for both, on every payload a census writes and on edge cases.
"""

import contextlib
import io
import json
import math

import pytest

from f2hopf import __version__, serialize
from f2hopf.cli import main
from f2hopf.serialize import DatasetError, dump_dataset, load_dataset


def stdlib_dump(kind, payload, compact=False):
    doc = {"schema": "f2hopf/" + kind, "version": __version__,
           "checksum": serialize.payload_checksum(payload), "payload": payload}
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


@pytest.fixture(scope="module", params=["fixture", "computed"])
def census_payloads(request, tmp_path_factory):
    """(file name, kind, payload) of every dataset of
    ``run --dim 1 --dim 2 --dim 3 --dim 4 --stage all`` in one mode."""
    out = tmp_path_factory.mktemp(request.param) / "out"
    argv = ["run", "--stage", "all", "--mode", request.param, "--no-cache", "--out", str(out)]
    for n in (1, 2, 3, 4):
        argv += ["--dim", str(n)]
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.delenv("F2HOPF_CACHE_ROOT", raising=False)  # the cache goes under out
        assert main(argv) == 0
    return [(p.name, *load_dataset(p.read_text())) for p in sorted(out.glob("*.json"))]


def test_every_census_payload_encodes_as_the_stdlib_does(census_payloads):
    assert len(census_payloads) == 61
    for name, kind, payload in census_payloads:
        for compact in (False, True):
            text = dump_dataset(kind, payload, compact)
            assert text == stdlib_dump(kind, payload, compact), (name, compact)
            assert load_dataset(text, kind) == (kind, payload), (name, compact)


EDGE_CASES = [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[{}]]], {"": {"": []}},
    "", "quote \" backslash \\ slash / newline \n tab \t nul \x00",
    "non-ASCII: é中\U0001f600 \ud800", {"é": "\n", "a\"b": 1},
    1.0, -0.0, 1e300, 2.5e-8, [1.5, {"x": float("inf")}, float("-inf"), float("nan")],
    [True, 1, False, 0, None], {"t": True, "one": 1, "f": 1.0, "z": False, "n": None},
    10 ** 30, -7, ("tuple", (1, ()), []),
    {"b": {"d": [1, {"e": "f"}], "c": None}, "a": [[1, [2, [3]]]]},
    {2: "int keys", 1: [{}]}, [{1.5: "float keys", 0.5: {}}], {True: [], False: 0},
]


@pytest.mark.parametrize("value", EDGE_CASES)
def test_edge_cases_encode_as_the_stdlib_does(value):
    for nested in (value, [[value]], {"k": [{"k": value}]}):
        assert serialize._indented(nested) == json.dumps(nested, sort_keys=True, indent=1)
    assert dump_dataset("x", value) == stdlib_dump("x", value)
    assert dump_dataset("x", value, compact=True) == stdlib_dump("x", value, compact=True)


def test_unencodable_values_raise_as_in_the_stdlib():
    for value in ({"a": object()}, [{1, 2}], {"k": 1, 2: "mixed keys"}):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=1)
        with pytest.raises(TypeError):
            dump_dataset("x", value)


PAYLOAD = {"records": [{"C": "1f", "hopf": True, "dim": 2}], "class_rep": [0]}


def same(a, b) -> bool:
    """Equal as JSON, where 1, 1.0 and true differ and nan equals itself."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("payload", [PAYLOAD, [], {}, "s", 0, None, EDGE_CASES])
def test_compact_text_round_trips_without_re_encoding(monkeypatch, payload):
    text = dump_dataset("raw", payload, compact=True)
    monkeypatch.setattr(serialize, "payload_checksum", None)  # never called
    kind, got = load_dataset(text, "raw")
    assert kind == "raw" and same(got, payload)


def tamper(text: str) -> str:
    """The same compact layout with one payload digit changed."""
    return text.replace('"dim":2', '"dim":3')


@pytest.mark.parametrize("edit, error", [
    (tamper, "payload checksum mismatch"),
    (lambda text: text + "x", "not valid JSON"),
    (lambda text: text + "{}", "not valid JSON"),
    (lambda text: text.replace('"f2hopf/raw"', '"f2hopf/qt"'), "expected schema kind 'raw'"),
    (lambda text: text.replace(__version__, "9.9.9"), "version '9.9.9'"),
])
def test_compact_text_is_rejected_when_edited(edit, error):
    text = dump_dataset("raw", PAYLOAD, compact=True)
    assert load_dataset(text, "raw")[1] == PAYLOAD
    with pytest.raises(DatasetError, match=error):
        load_dataset(edit(text), "raw")


@pytest.mark.parametrize("edit", [
    lambda text: text.rstrip("\n"),
    lambda text: text + "\n",
    lambda text: text.replace(',"payload":', ', "payload":'),
    lambda text: stdlib_dump("raw", PAYLOAD),
    lambda text: json.dumps(json.loads(text)),
    # The compact layout, with a payload text that is not canonical or not
    # one JSON value: the payload is re-encoded, as it is parsed whole.
    lambda text: text.replace(':[0]', ': [0]'),
    lambda text: text.replace('"payload":{', '"payload":{"records":[],', 1),
    lambda text: text.replace('"payload":', '"payload":[1],"payload":', 1),
])
def test_other_valid_text_is_checked_by_re_encoding(monkeypatch, edit):
    text = edit(dump_dataset("raw", PAYLOAD, compact=True))
    calls = []
    checksum = serialize.payload_checksum
    monkeypatch.setattr(serialize, "payload_checksum",
                        lambda payload: calls.append(payload) or checksum(payload))
    assert load_dataset(text, "raw") == ("raw", PAYLOAD)
    assert calls == [PAYLOAD]


def test_nan_payload_checksum_is_the_canonical_text():
    # nan != nan, so a round trip is compared as text.
    text = dump_dataset("x", [math.nan], compact=True)
    assert '"payload":[NaN]' in text and math.isnan(load_dataset(text)[1][0])
