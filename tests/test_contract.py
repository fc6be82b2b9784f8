"""The byte-identical contract: every file that
``f2hopf run --dim 1 --dim 2 --dim 3 --dim 4 --stage all`` writes directly
under ``--out``, in both Fourier modes, against the committed SHA-256 table
``contract_digests.json``.  The cache is not compared: its file names carry
the engine fingerprint.

The table changes only with a deliberate output change, named in
CHANGES.md like a golden-table change.  To regenerate it after one:

    PYTHONPATH=src python tests/test_contract.py > tests/contract_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from f2hopf.cli import main

HERE = Path(__file__).parent
MODES = ("fixture", "computed")


def census_digests(out: Path, mode: str) -> dict[str, str]:
    """Run the census into `out` and digest every file directly under it."""
    argv = ["run", "--stage", "all", "--mode", mode, "--out", str(out)]
    for n in (1, 2, 3, 4):
        argv += ["--dim", str(n)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def contract_problems(got: dict[str, str], want: dict[str, str]) -> list[str]:
    return ([f"missing {name}" for name in sorted(want.keys() - got.keys())]
            + [f"extra {name}" for name in sorted(got.keys() - want.keys())]
            + [f"differs {name}" for name in sorted(want.keys() & got.keys())
               if got[name] != want[name]])


@pytest.mark.parametrize("mode", MODES)
def test_census_files_match_the_contract(tmp_path, monkeypatch, mode):
    # Cold, then warm from the cache the cold run wrote.
    monkeypatch.delenv("F2HOPF_CACHE_ROOT", raising=False)
    want = json.loads((HERE / "contract_digests.json").read_text())[mode]
    out = tmp_path / "out"
    for run in ("cold", "warm"):
        assert contract_problems(census_digests(out, mode), want) == [], run


def test_fixture_contract_is_the_benchmark_gate():
    table = json.loads((HERE / "contract_digests.json").read_text())
    gate = json.loads((HERE.parent / "perfbench" / "expected.json").read_text())
    assert set(table) == set(MODES)
    assert {name: table["fixture"].get(name) for name in gate["census_digests"]} \
        == gate["census_digests"]


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("F2HOPF_CACHE_ROOT", None)
    table = {}
    for mode in MODES:
        with tempfile.TemporaryDirectory() as tmp:
            table[mode] = census_digests(Path(tmp) / "out", mode)
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    print()
