"""Stable JSON encoding of the engine's outputs.

Tensors and matrices are hex strings of the packed bit layout (coordinate 0
at the least significant bit), so files are byte-identical across runs and
platforms and can be diffed as golden files.  Every file carries the schema
kind, the engine version and a payload checksum.

The published datasets are ``json.dumps(doc, sort_keys=True, indent=1)``
byte for byte, written by ``_indented``: CPython's C encoder does not
indent, and its pure-Python one is the slowest part of writing a dataset.
The tests hold ``_indented`` to the stdlib encoder on every dataset a run
writes.
"""

from __future__ import annotations

import hashlib
import json
import re

from f2hopf import __version__
from f2hopf.gf2 import Gf2Mat
from f2hopf.structure import AlgebraSC

SCHEMA_PREFIX = "f2hopf/"


def tensor_to_hex(bits: int) -> str:
    return format(bits, "x")


def tensor_from_hex(s: str) -> int:
    return int(s, 16)


def mat_to_hex(m: Gf2Mat) -> str:
    return ",".join(format(r, "x") for r in m.rows)


def mat_from_hex(s: str, cols: int) -> Gf2Mat:
    if not isinstance(s, str):
        raise TypeError(f"matrix is {type(s).__name__}, not a hex string")
    return Gf2Mat(tuple(int(p, 16) for p in s.split(",")), cols)


def algebra_record(label: str, a: AlgebraSC, relations: str) -> dict[str, object]:
    return {
        "label": label,
        "dim": a.n,
        "product": tensor_to_hex(a.v),
        "unit": tensor_to_hex(a.eta),
        "relations": relations,
    }


def algebra_from_record(rec: dict[str, object]) -> AlgebraSC:
    return AlgebraSC(
        rec["dim"], tensor_from_hex(rec["product"]), tensor_from_hex(rec["unit"])
    )


def canonical_json(value: object) -> str:
    """The compact sorted encoding of a JSON value.  Values that Python
    compares equal but JSON writes apart (1, 1.0 and true) encode apart."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: object) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


_quote = json.encoder.encode_basestring_ascii


def _indented(value, pad: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=1)`` for a value nested
    ``len(pad)`` levels deep.  Strings, ints, true, false, null, lists,
    tuples and dicts with string keys are written here; any other value
    (floats, dicts with other keys, other types) by the stdlib, with its
    lines indented to the depth: JSON text has no raw newline inside a
    string.  Strings, the most common items, are quoted in place."""
    t = type(value)
    if t is str:
        return _quote(value)
    if t is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = pad + " "
    if t is list or t is tuple:
        if not value:
            return "[]"
        items = [_quote(v) if type(v) is str else _indented(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if t is dict:
        if not value:
            return "{}"
        try:
            items = [_quote(k) + ": " + (_quote(v) if type(v) is str else _indented(v, inner))
                     for k, v in sorted(value.items())]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
        except TypeError:  # a key that is not a string, which _quote refuses
            pass
    return json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n" + pad)


def dump_dataset(kind: str, payload: object, compact: bool = False) -> str:
    """The file text of a dataset: indented for the published datasets, or
    ``compact`` (the run cache), where the payload is encoded once, as the
    canonical string its checksum is taken over, and the document is that
    string with the other fields around it, in sorted key order."""
    schema = SCHEMA_PREFIX + kind
    if compact:
        body = canonical_json(payload)
        checksum = hashlib.sha256(body.encode()).hexdigest()
        return (f'{{"checksum":"{checksum}","payload":{body},'
                f'"schema":{json.dumps(schema)},"version":{json.dumps(__version__)}}}\n')
    doc = {
        "schema": schema,
        "version": __version__,
        "checksum": payload_checksum(payload),
        "payload": payload,
    }
    return _indented(doc) + "\n"


class DatasetError(ValueError):
    pass


# The layout ``dump_dataset(compact=True)`` writes, for a schema and version
# that JSON writes without escapes: checksum, payload text, schema, version.
_COMPACT = re.compile(r'\{"checksum":"([0-9a-f]{64})","payload":(.+),'
                      r'"schema":"([^"\\]*)","version":"([^"\\]*)"\}\n', re.S)


def load_dataset(text: str, kind: str | None = None) -> tuple[str, object]:
    """Parse and checksum-verify a dataset of this engine version; returns
    (kind, payload).

    Text in the compact layout of ``dump_dataset``, whose payload text is
    one JSON value, is parsed in parts, and the checksum is first compared
    with a hash of the payload text as stored, which is the canonical
    encoding as written.  Other text is parsed whole.  When no stored text
    hashes to the checksum, the payload is re-encoded canonically."""
    compact = _COMPACT.fullmatch(text)
    if compact:
        checksum, body, schema, version = compact.groups()
        try:
            payload = json.loads(body)
        except json.JSONDecodeError:
            compact = None
    if not compact:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DatasetError("not a JSON object")
        for field in ("schema", "version", "checksum", "payload"):
            if field not in doc:
                raise DatasetError(f"missing field {field!r}")
        checksum, payload = doc["checksum"], doc["payload"]
        schema, version = doc["schema"], doc["version"]
    if not isinstance(schema, str) or not schema.startswith(SCHEMA_PREFIX):
        raise DatasetError(f"unknown schema {schema!r}")
    got_kind = schema[len(SCHEMA_PREFIX):]
    if kind is not None and got_kind != kind:
        raise DatasetError(f"expected schema kind {kind!r}, found {got_kind!r}")
    if version != __version__:
        raise DatasetError(f"version {version!r}, not this engine's {__version__!r}")
    if not (compact and hashlib.sha256(body.encode()).hexdigest() == checksum
            or payload_checksum(payload) == checksum):
        raise DatasetError("payload checksum mismatch")
    return got_kind, payload
