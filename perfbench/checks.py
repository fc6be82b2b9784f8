"""Correctness gate: compare a sample's outputs with the recorded expectations.

``expected.json`` holds the SHA-256 of every dataset file that
``f2hopf run --dim 2 --dim 3 --dim 4`` emits (recorded at the seed commit)
and the tensor count and class partition of the algebra enumeration for
n = 1..3.  Census summaries and raw-solution files are also checked against
the engine's published tables in ``f2hopf.golden``.

Each check returns (ops, failures): one op per emitted file, or per
dimension and round of the enumeration; every failure is one failed op.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def _payload(path: Path):
    return json.loads(path.read_text())["payload"]


def _census_problem(path: Path, golden) -> str | None:
    """Table check of a summary or raw file; None when it agrees."""
    name = path.stem
    if name.startswith("summary_n"):
        n = int(name[len("summary_n"):])
        got = _payload(path)
        want = golden.CENSUS[n]
        keys = ("algebras", "bialgebras", "hopf", "qt_pairs")
        if tuple(got.get(k) for k in keys) != want:
            return f"{path.name}: census {got} != {dict(zip(keys, want))}"
        if n == 4:
            reps = {int(k): v for k, v in got.get("reps", {}).items()}
            if reps != golden.REP_COUNTS:
                return f"{path.name}: reps {reps} != {golden.REP_COUNTS}"
    elif name.startswith("raw_n"):
        n_part, label = name[len("raw_n"):].split("_", 1)
        want = golden.RAW_COUNTS.get(int(n_part), {}).get(label)
        got = len(_payload(path))
        if want is not None and got != want:
            return f"{path.name}: {got} raw coproducts != {want}"
    return None


def check_census(out_dir: Path, golden) -> tuple[int, list[str]]:
    want = EXPECTED["census_digests"]
    found = {p.name: p for p in out_dir.iterdir() if p.is_file()}
    failures = []
    for name in sorted(set(want) | set(found)):
        if name not in found:
            failures.append(f"{name}: missing")
            continue
        if name not in want:
            failures.append(f"{name}: not expected")
            continue
        digest = hashlib.sha256(found[name].read_bytes()).hexdigest()
        if digest != want[name]:
            failures.append(f"{name}: sha256 {digest} != {want[name]}")
        elif problem := _census_problem(found[name], golden):
            failures.append(problem)
    return len(set(want) | set(found)), failures


def check_algebra_enum(outputs: list[dict]) -> tuple[int, list[str]]:
    failures = []
    for rec in outputs:
        want = EXPECTED["algebra_partitions"][str(rec["dim"])]
        if rec["tensors"] != sum(want.values()) or rec["partition"] != want:
            failures.append(f"n={rec['dim']}: {rec['tensors']} tensors "
                            f"{rec['partition']} != {want}")
    return len(outputs), failures
