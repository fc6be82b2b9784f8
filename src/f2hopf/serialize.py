"""Stable JSON encoding of the engine's outputs.

Tensors and matrices are hex strings of the packed bit layout (coordinate 0
at the least significant bit), so files are byte-identical across runs and
platforms and can be diffed as golden files.  Every file carries the schema
kind, the engine version and a payload checksum.
"""

from __future__ import annotations

import hashlib
import json

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
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


class DatasetError(ValueError):
    pass


def load_dataset(text: str, kind: str | None = None) -> tuple[str, object]:
    """Parse and checksum-verify a dataset; returns (kind, payload)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetError("not a JSON object")
    for field in ("schema", "version", "checksum", "payload"):
        if field not in doc:
            raise DatasetError(f"missing field {field!r}")
    schema = doc["schema"]
    if not isinstance(schema, str) or not schema.startswith(SCHEMA_PREFIX):
        raise DatasetError(f"unknown schema {schema!r}")
    got_kind = schema[len(SCHEMA_PREFIX):]
    if kind is not None and got_kind != kind:
        raise DatasetError(f"expected schema kind {kind!r}, found {got_kind!r}")
    if payload_checksum(doc["payload"]) != doc["checksum"]:
        raise DatasetError("payload checksum mismatch")
    return got_kind, doc["payload"]
