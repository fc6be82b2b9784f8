import json
import os
import subprocess
import sys

import pytest

from f2hopf.cli import main
from f2hopf.serialize import DatasetError, dump_dataset, load_dataset


def run_cli(args):
    return main(list(args))


def read_doc(path):
    return json.loads(path.read_text())


def test_run_n2_summary(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", "--dim", "2", "--out", str(out)]) == 0
    summary = load_dataset((out / "summary_n2.json").read_text(), "summary")[1]
    assert summary == {
        "dim": 2, "algebras": 3, "bialgebras": 4, "hopf": 3, "qt_pairs": 1,
    }


def test_run_prints_the_summary_in_key_order(tmp_path, capsys):
    # One line per dimension, its counts in the order the stages fill them.
    assert run_cli(["run", "--dim", "2", "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out == "n=2: algebras=3, bialgebras=4, hopf=3, qt_pairs=1\n"
    assert run_cli(["run", "--dim", "4", "--stage", "all", "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == (
        "n=4: algebras=25, bialgebras=286, hopf=20, qt_pairs=28, "
        "reps={'1': 2, '2': 20, '3': 394}\n")


def test_run_single_algebra(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", "--dim", "3", "--algebra", "B", "--out", str(out)]) == 0
    _, payload = load_dataset((out / "raw_n3_B.json").read_text(), "raw")
    assert len(payload) == 33
    assert sum(1 for r in payload if r["hopf"]) == 3


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(["run", "--dim", "2", "--dim", "3", "--out", str(out)]) == 0
    for path1 in sorted(out1.rglob("*.json")) + sorted(out1.rglob("*.dot")):
        path2 = out2 / path1.relative_to(out1)
        assert path1.read_bytes() == path2.read_bytes(), path1.name


def test_cache_transparency(tmp_path):
    out1 = tmp_path / "plain"
    out2 = tmp_path / "cached"
    assert run_cli(["run", "--dim", "3", "--no-cache", "--out", str(out1)]) == 0
    assert run_cli(["run", "--dim", "3", "--out", str(out2)]) == 0
    assert run_cli(["run", "--dim", "3", "--out", str(out2)]) == 0  # cache hit
    for path1 in sorted(out1.glob("*.json")):
        path2 = out2 / path1.name
        assert path1.read_bytes() == path2.read_bytes(), path1.name


def test_cache_entries_are_compact(tmp_path, monkeypatch):
    # A cache entry is the canonical encoding of its document, so its payload
    # is the very string the checksum is taken over; datasets stay indented.
    from f2hopf.cli import _cache_path
    from f2hopf.serialize import canonical_json

    out = tmp_path / "out"
    monkeypatch.delenv("F2HOPF_CACHE_ROOT", raising=False)
    assert run_cli(["run", "--dim", "2", "--out", str(out)]) == 0
    text = _cache_path(out / "cache", 2, "B").read_text()
    doc = json.loads(text)
    assert text == canonical_json(doc) + "\n"
    assert load_dataset(text, "raw")[1] == doc["payload"]
    raw = (out / "raw_n2_B.json").read_text()
    assert raw == dump_dataset("raw", read_doc(out / "raw_n2_B.json")["payload"])
    assert raw.startswith("{\n ")


def test_corrupt_cache_recomputed(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", "--dim", "2", "--out", str(out)]) == 0
    victim = out / "cache" / [p.name for p in (out / "cache").iterdir()
                              if "raw_n2_B" in p.name][0]
    doc = read_doc(victim)
    doc["checksum"] = "0" * 64
    victim.write_text(json.dumps(doc))
    assert run_cli(["run", "--dim", "2", "--out", str(out)]) == 0
    # the corrupt entry was replaced by a valid one
    load_dataset(victim.read_text(), "raw")


def _edit_cache_entry(entry: dict, case: str):
    """One checksum-valid but malformed cache entry of algebra B, n = 3."""
    reps, records = entry["class_rep"], entry["records"]
    if case == "rep-out-of-range":
        reps[-1] = len(reps)
    elif case == "rep-not-smallest":
        members = [i for i, r in enumerate(reps) if r == 0]
        for i in members:
            reps[i] = members[-1]  # the largest member, itself its own rep
    elif case == "mixed-types":
        other = reps[next(i for i, rec in enumerate(records)
                          if rec["type"] != records[0]["type"])]
        for i, r in enumerate(reps):
            if r == other:
                reps[i] = 0  # merged into the class of solution 0
    elif case == "mixed-hopf":
        member = next(i for i, r in enumerate(reps) if r != i and records[r]["hopf"])
        records[member]["hopf"] = False
        del records[member]["antipode"]
    elif case == "no-partition":
        del entry["class_rep"]
    else:  # the records alone, as cache entries held them before classes
        return records
    return entry


@pytest.mark.parametrize("case", ["rep-out-of-range", "rep-not-smallest", "mixed-types",
                                  "mixed-hopf", "no-partition", "records-only"])
def test_cache_entry_with_bad_classes_recomputed(tmp_path, monkeypatch, capsys, case):
    from f2hopf.cli import _cache_path, _raw_from_cache

    out = tmp_path / "out"
    monkeypatch.delenv("F2HOPF_CACHE_ROOT", raising=False)
    assert run_cli(["run", "--dim", "3", "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    victim = _cache_path(out / "cache", 3, "B")
    _, entry = load_dataset(victim.read_text(), "raw")
    good = _raw_from_cache(3, "B", entry)
    victim.write_text(dump_dataset("raw", _edit_cache_entry(entry, case)))
    with pytest.raises((KeyError, TypeError, ValueError)):
        _raw_from_cache(3, "B", load_dataset(victim.read_text(), "raw")[1])
    calls = count_solves(monkeypatch)
    capsys.readouterr()
    assert run_cli(["run", "--dim", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert [args[1] for args in calls] == ["B"]
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == first
    # the bad entry was replaced by a valid one
    assert _raw_from_cache(3, "B", load_dataset(victim.read_text(), "raw")[1]) == good


def test_warm_run_transforms_no_coproduct(tmp_path, monkeypatch):
    # A cold run carries each solution a search finds back from its counit's
    # basis once and expands each bialgebra class's orbit once; a warm run
    # reads the classes from the cache.
    from f2hopf import coproducts, kernels

    out = tmp_path / "out"
    monkeypatch.delenv("F2HOPF_CACHE_ROOT", raising=False)
    calls = count_calls(monkeypatch, kernels.coproduct_orbit)
    searched = []
    solve = coproducts.solve_coproduct_tensors

    def recorded(a, eps):
        tensors = solve(a, eps)
        searched.extend(tensors)
        return tensors

    rebind(monkeypatch, solve, recorded)
    assert run_cli(["run", "--dim", "3", "--out", str(out)]) == 0
    _, classes = load_dataset((out / "classes_n3.json").read_text(), "classes")
    assert len(calls) == len(searched) + len(classes)
    calls.clear()
    assert run_cli(["run", "--dim", "3", "--out", str(out)]) == 0
    assert calls == []


def test_verify_ok_and_flipped_bit(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["run", "--dim", "3", "--out", str(out)]) == 0
    target = out / "raw_n3_B.json"
    assert run_cli(["verify", str(target)]) == 0
    capsys.readouterr()
    # flip one coproduct bit and re-wrap with a fresh checksum
    _, payload = load_dataset(target.read_text(), "raw")
    bits = int(payload[0]["C"], 16) ^ (1 << 10)
    payload[0]["C"] = format(bits, "x")
    target.write_text(dump_dataset("raw", payload))
    assert run_cli(["verify", str(target)]) == 1
    captured = capsys.readouterr()
    fails = [line for line in captured.out.splitlines() if "FAIL" in line]
    assert len(fails) == 1


def test_verify_schema_violation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "f2hopf/raw", "payload": []}')
    assert run_cli(["verify", str(bad)]) == 2
    with pytest.raises(DatasetError):
        load_dataset(bad.read_text())


@pytest.mark.parametrize("text", [
    '{"schema": 5, "version": "0", "checksum": "0", "payload": []}',
    '"schema version checksum payload"',
])
def test_verify_schema_violation_without_traceback(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run_cli(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "schema error" in err


def test_verify_unknown_kind_is_a_schema_error(tmp_path, capsys):
    # A checksum-valid file of a kind verify cannot re-derive is not "ok".
    bad = tmp_path / "bogus.json"
    bad.write_text(dump_dataset("bogus", [1, 2, 3]))
    assert run_cli(["verify", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "schema error: unknown schema kind 'bogus'" in err


def test_verify_non_utf8_file_is_a_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"schema": "f2hopf/raw\xff"}')
    assert run_cli(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "schema error: not UTF-8" in err


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "f2hopf.cli", "run", "--stage", "nonsense"],
        capture_output=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("argv, error", [
    (("run", "--dim", "2", "--out", "{file}/x"), "Not a directory"),
    (("run", "--dim", "2", "--algebra", "A", "--out", "{file}/x"), "Not a directory"),
    (("run", "--dim", "4", "--stage", "quiver", "--out", "{file}/x"), "Not a directory"),
    (("run", "--dim", "2", "--out", "{file}"), "File exists"),
])
def test_unwritable_out_exit_code(tmp_path, argv, error):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "f2hopf.cli", *(a.format(file=blocker) for a in argv)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and error in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("jobs", ["0", "-1", "two", "2", "8"])
def test_jobs_other_than_one_is_a_usage_error(tmp_path, jobs):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "f2hopf.cli", "run", "--dim", "2", "--jobs", jobs,
         "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "argument --jobs" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_unknown_algebra_label_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    for label in ("ZZ", ""):
        assert run_cli(["run", "--dim", "4", "--algebra", label, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(label) in err
        assert not out.exists()


@pytest.mark.parametrize("stages", [["qtri"], ["coproducts", "classify"], ["all"]])
def test_algebra_with_another_stage_is_a_usage_error(tmp_path, capsys, stages):
    # --algebra restricts the coproducts stage; any other stage is refused,
    # not dropped.
    out = tmp_path / "out"
    argv = ["run", "--dim", "3", "--algebra", "B", "--out", str(out)]
    for stage in stages:
        argv += ["--stage", stage]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--algebra" in captured.err
    assert not out.exists()
    assert run_cli(["run", "--dim", "3", "--algebra", "B", "--stage", "coproducts",
                    "--out", str(out)]) == 0
    written = {p.name for p in out.iterdir() if p.is_file()}
    assert written == {"raw_n3_B.json", "summary_n3.json"}


IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import f2hopf.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_no_code_generator_and_no_pool():
    # Measured against a snapshot, since site hooks may load typing first.
    # dataclasses pulls in inspect, ast and dis; the raw stage solves in
    # this process, so no path imports a pool.
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, timeout=120, env=env, check=True,
                          cwd=os.path.join(os.path.dirname(__file__), ".."))
    added = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "f2hopf.cli" in added
    roots = {name.split(".")[0] for name in added}
    assert roots.isdisjoint({"dataclasses", "inspect", "typing", "concurrent",
                             "multiprocessing"})


CATALOG_PROBE = """
import json
import f2hopf
before = getattr(f2hopf, "catalog", None)
from f2hopf import catalog
print(json.dumps([before is None or before is catalog, catalog.__name__,
                  f2hopf.catalog.__name__]))
"""


def test_the_package_attribute_catalog_is_the_submodule():
    # The package re-exports no function under the submodule's name: read
    # before or after the submodule is imported, f2hopf.catalog is never the
    # catalog function.
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", CATALOG_PROBE], capture_output=True,
                          text=True, timeout=120, env=env, check=True,
                          cwd=os.path.join(os.path.dirname(__file__), ".."))
    assert json.loads(proc.stdout) == [True, "f2hopf.catalog", "f2hopf.catalog"]


STARTUP_PROBE = """
import json, sys
from f2hopf import cli
from f2hopf.catalog import automorphism_group, catalog

for n in (1, 2, 3, 4):
    catalog(n)
pool = sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))
groups = automorphism_group.cache_info().currsize
misses = automorphism_group.cache_info().misses
rc = cli.main(["run", "--dim", "2", "--dim", "3", "--dim", "4", "--out", sys.argv[1]])
print(json.dumps({"pool": pool, "groups": groups, "rc": rc,
                  "run_misses": automorphism_group.cache_info().misses - misses}))
"""


def test_startup_builds_no_pool_and_no_automorphism_group(tmp_path):
    # Importing the CLI and building every catalog loads no process pool
    # and solves no automorphism group; a cold run solves the groups its
    # coproduct solves read, and a warm run in a fresh process solves none.
    env = {k: v for k, v in os.environ.items() if k != "F2HOPF_CACHE_ROOT"}
    results = []
    for _ in ("cold", "warm"):
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, str(tmp_path / "out")],
            capture_output=True, text=True, timeout=300, env=env, check=True)
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    cold, warm = results
    for result in results:
        assert result["pool"] == [] and result["groups"] == 0 and result["rc"] == 0
    assert cold["run_misses"] > 0
    assert warm["run_misses"] == 0


def test_verify_missing_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli(["verify", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing.json" in err


def rebind(monkeypatch, fn, new) -> None:
    """Replace fn by new under every name an f2hopf module holds for it."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("f2hopf") and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, new)


def count_calls(monkeypatch, fn) -> list:
    """Record the arguments of every call of fn made through any f2hopf
    module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    rebind(monkeypatch, fn, counted)
    return calls


def count_solves(monkeypatch, forbid_classify=True) -> list:
    """Count solve_coproducts calls made through any f2hopf module, and
    unless told otherwise fail on any call of the cached classify_dimension
    (whose cache could hide a solve)."""
    from f2hopf import classify, coproducts

    def forbidden(*args, **kwargs):
        raise AssertionError("the run called classify_dimension")

    if forbid_classify:
        rebind(monkeypatch, classify.classify_dimension, forbidden)
    return count_calls(monkeypatch, coproducts.solve_coproducts)


def test_run_solves_once_and_classifies_from_the_cache(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.delenv("F2HOPF_CACHE_ROOT", raising=False)
    calls = count_solves(monkeypatch)
    assert run_cli(["run", "--dim", "3", "--stage", "all", "--out", str(out)]) == 0
    assert len(calls) == 7  # once per algebra of dimension 3
    first = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    calls.clear()
    assert run_cli(["run", "--dim", "3", "--stage", "all", "--out", str(out)]) == 0
    assert calls == []
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == first


def test_one_algebra_run_reads_and_writes_the_cache(tmp_path, monkeypatch):
    # --algebra filters the census pipeline: its raw file is the one a full
    # coproducts run writes, a second run solves nothing, and --no-cache
    # is honoured.
    monkeypatch.delenv("F2HOPF_CACHE_ROOT", raising=False)
    full = tmp_path / "full"
    assert run_cli(["run", "--dim", "3", "--stage", "coproducts", "--out", str(full)]) == 0
    want = (full / "raw_n3_B.json").read_bytes()
    out = tmp_path / "out"
    calls = count_solves(monkeypatch)
    for options, solves in (([], 1), ([], 0), (["--no-cache"], 1)):
        calls.clear()
        argv = ["run", "--dim", "3", "--algebra", "B", "--out", str(out)] + options
        assert run_cli(argv) == 0
        assert [args[1] for args in calls] == ["B"] * solves
        assert (out / "raw_n3_B.json").read_bytes() == want


def test_export_dot(tmp_path):
    # The quiver stage writes the quiver as a DOT file too.
    out = tmp_path / "out"
    assert run_cli(["run", "--dim", "2", "--stage", "quiver", "--out", str(out)]) == 0
    dot = (out / "quiver_n2.dot").read_text()
    assert dot.startswith("digraph")
    assert dot.count("->") == 4
    assert dot.count("hopf=true") == 3


def test_fourier_fixture_mode(tmp_path):
    out = tmp_path / "out"
    assert run_cli([
        "run", "--dim", "4", "--stage", "fourier", "--mode", "fixture",
        "--out", str(out),
    ]) == 0
    _, payload = load_dataset((out / "fourier_n4.json").read_text(), "fourier")
    assert len(payload) == 20
    assert run_cli(["verify", str(out / "fourier_n4.json")]) == 0


def test_verify_solves_each_algebra_once(tmp_path, monkeypatch):
    # The raw files and the classification of one dimension share a single
    # fresh solve of each algebra.
    from f2hopf import classify
    from f2hopf.catalog import catalog

    out = tmp_path / "out"
    assert run_cli(["run", "--dim", "3", "--stage", "all", "--out", str(out)]) == 0
    classify.solve_catalog_algebra.cache_clear()
    classify.classify_dimension.cache_clear()
    calls = count_solves(monkeypatch, forbid_classify=False)
    assert run_cli(["verify", *sorted(str(p) for p in out.glob("*.json"))]) == 0
    assert sorted(args[1] for args in calls) == sorted(catalog(3).labels)


# The algebras each file's verification solves (fourier_n4 is in fixture mode).
VERIFY_SOLVES = {"fourier_n4": [], "algebras_n3": [], "raw_n3_B": ["B"]}


@pytest.mark.parametrize("name", VERIFY_SOLVES)
def test_verify_solves_only_what_the_file_needs(datasets_n3, monkeypatch, name):
    # verify reads a file's kind off the dataset table, which solves only
    # what that kind's payload reads: a raw file its one algebra, and none
    # of these files the classification of a dimension.
    from f2hopf import classify

    classify.solve_catalog_algebra.cache_clear()
    calls = count_solves(monkeypatch)  # and fails on any classify_dimension call
    assert run_cli(["verify", str(datasets_n3 / f"{name}.json")]) == 0
    assert [args[1] for args in calls] == VERIFY_SOLVES[name]


def test_reps_stage_tensor_table(tmp_path):
    from f2hopf.golden import TENSOR_TABLE

    out = tmp_path / "out"
    assert run_cli(["run", "--dim", "4", "--stage", "reps",
                    "--out", str(out)]) == 0
    _, payload = load_dataset((out / "reps_n4.json").read_text(), "reps")
    assert payload["counts"] == {"1": 2, "2": 20, "3": 394}
    got = {tuple(k.split("*")): tuple(v)
           for k, v in payload["tensor_table"].items()}
    assert got == TENSOR_TABLE
    assert payload["duals"] == {"1": "1", "1b": "1b", "2": "2b", "2b": "2"}


def test_cache_entry_of_another_engine_not_read(tmp_path):
    from f2hopf.cli import engine_fingerprint

    out = tmp_path / "out"
    args = ["run", "--dim", "2", "--stage", "coproducts", "--out", str(out)]
    assert run_cli(args) == 0
    cache = out / "cache"
    current = cache / f"raw_n2_B_{engine_fingerprint()}.json"
    assert sorted(p.name for p in cache.iterdir()) == [
        f"raw_n2_{label}_{engine_fingerprint()}.json" for label in "ABC"
    ]
    # Another engine's entry for B, well-formed but with no solutions.
    stale = cache / "raw_n2_B_0123456789abcdef.json"
    stale.write_text(dump_dataset("raw", []))
    current.unlink()
    assert run_cli(args) == 0
    assert load_dataset(stale.read_text(), "raw")[1] == []
    assert load_dataset(current.read_text(), "raw")[1]
    assert load_dataset((out / "raw_n2_B.json").read_text(), "raw")[1]


def test_cache_writes_leave_no_temporary_file(tmp_path, monkeypatch):
    from f2hopf import cli

    cache = tmp_path / "cache"
    monkeypatch.setenv("F2HOPF_CACHE_ROOT", str(cache))
    assert run_cli(["run", "--dim", "3", "--stage", "coproducts",
                    "--out", str(tmp_path / "out")]) == 0
    names = sorted(p.name for p in cache.iterdir())
    assert len(names) == 7 and all(n.startswith("raw_n3_") for n in names)

    # A write that fails part-way leaves neither a temporary nor a target file.
    def broken(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", broken)
    with pytest.raises(OSError):
        cli._write_atomic(cache / "raw_n9_X.json", "{}")
    assert sorted(p.name for p in cache.iterdir()) == names


@pytest.mark.parametrize("kind, field", [
    ("classes", "members"), ("classes", "representative"), ("classes", "hopf"),
    ("classes", "hopf-as-int"), ("classes", "cop_partner"), ("quiver", "multiplicity"),
    ("quiver", "multiplicity-as-float"),
])
def test_verify_rederives_classes_and_quiver(tmp_path, capsys, kind, field):
    # An "-as-" edit keeps the value but not its JSON type, which run never
    # writes: 1 == True == 1.0 in Python.
    out = tmp_path / "out"
    assert run_cli(["run", "--dim", "3", "--stage", "classify", "--stage", "quiver",
                    "--out", str(out)]) == 0
    target = out / f"{kind}_n3.json"
    assert run_cli(["verify", str(target)]) == 0
    _, payload = load_dataset(target.read_text(), kind)
    i = 5
    if field == "members":
        payload[i]["members"] = payload[i]["members"][:-1]
    elif field == "representative":
        payload[i]["representative"] = format(int(payload[i]["representative"], 16) ^ 2, "x")
    elif field == "hopf":
        payload[i]["hopf"] = not payload[i]["hopf"]
    elif field == "hopf-as-int":
        payload[i]["hopf"] = int(payload[i]["hopf"])
    elif field == "cop_partner":
        payload[i]["cop_partner"] = (payload[i]["cop_partner"] or 0) + 1
    elif field == "multiplicity-as-float":
        payload[i]["multiplicity"] = float(payload[i]["multiplicity"])
    else:
        payload[i]["multiplicity"] += 1
    target.write_text(dump_dataset(kind, payload))
    capsys.readouterr()
    assert run_cli(["verify", str(target)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    name = field.partition("-as-")[0]
    assert len(fails) == 1 and f"{kind}[{i}] {name}: differs" in fails[0]


@pytest.mark.parametrize("kind, payload, problem", [
    ("classes", {"algebra": "A"}, "payload is not a list of records"),
    ("quiver", [{"source": "A", "target": "ZZ"}], "algebra labels of no single dimension"),
])
def test_verify_rejects_malformed_classification(tmp_path, capsys, kind, payload, problem):
    target = tmp_path / f"{kind}.json"
    target.write_text(dump_dataset(kind, payload))
    assert run_cli(["verify", str(target)]) == 1
    assert capsys.readouterr().out == f"{target}: FAIL {problem}\n"


@pytest.fixture(scope="module")
def qt_n2(tmp_path_factory):
    out = tmp_path_factory.mktemp("qt")
    assert run_cli(["run", "--dim", "2", "--stage", "qtri", "--out", str(out)]) == 0
    assert run_cli(["verify", str(out / "qt_n2.json")]) == 0
    return out / "qt_n2.json"


QT_EDITS = {
    "bits": "qt[0] R: differs from the derived dataset of n=2",
    "R_inv": "qt[0] R: differs",
    "Q": "qt[0] R: differs",
    "klass": "qt[0] R: differs",
    "factorisable": "qt[0] R: differs",
    "type": "qt[0] type: differs from the derived dataset of n=2",
    "type-not-a-list": "algebra labels of no single dimension",
}


def verify_failures(target) -> list[str]:
    """Run ``verify`` on one file in a fresh process and return its output
    lines, which must all be FAIL lines, with exit 1 and no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "f2hopf.cli", "verify", str(target)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""  # no traceback
    lines = proc.stdout.splitlines()
    assert lines and all(line.startswith(f"{target}: FAIL ") for line in lines)
    return lines


@pytest.mark.parametrize("field", list(QT_EDITS))
def test_verify_rederives_qt(tmp_path, qt_n2, field):
    _, payload = load_dataset(qt_n2.read_text(), "qt")
    rec = payload[0]
    r = rec["R"][1]  # the triangular R = 1.1 + x.x on (A, A)
    if field in ("bits", "R_inv", "Q"):
        r[field] = format(int(r[field], 16) ^ 2, "x")
    elif field == "klass":
        r["klass"] = "strict"
    elif field == "factorisable":
        r["factorisable"] = not r["factorisable"]
    elif field == "type":
        rec["type"] = ["A", "B"]
    else:
        rec["type"] = None
    target = tmp_path / "qt_n2.json"
    target.write_text(dump_dataset("qt", payload))
    assert any(QT_EDITS[field] in line for line in verify_failures(target))


@pytest.fixture(scope="module")
def datasets_n3(tmp_path_factory):
    """The computed datasets of n = 3 and the fixture-mode fourier file of
    n = 4, each checked by verify before any edit."""
    out = tmp_path_factory.mktemp("n3")
    assert run_cli(["run", "--dim", "3", "--mode", "computed", "--out", str(out)]) == 0
    assert run_cli(["run", "--dim", "4", "--stage", "fourier", "--out", str(out)]) == 0
    for name in ("algebras_n3", "raw_n3_B", "fourier_n3", "fourier_n4"):
        assert run_cli(["verify", str(out / f"{name}.json")]) == 0
    return out


def _edit(records: list, field: str) -> None:
    """Apply one named edit to a list of dataset records in place."""
    if field == "swap-labels":
        records[0]["label"], records[1]["label"] = records[1]["label"], records[0]["label"]
    elif field == "relations":
        records[3]["relations"] = "x*x=y; y*y=x"
    elif field == "product":
        records[2]["product"] = format(int(records[2]["product"], 16) ^ (1 << 13), "x")
    elif field == "drop":
        del records[-1]
    elif field == "swap-records":
        records[0], records[1] = records[1], records[0]
    elif field == "transport_order":
        records[0]["transport_order"] += 1
    elif field == "F_sharp":
        records[0]["F_sharp"] = "7,3,4"
    elif field in ("hopf", "hopf-as-int", "antipode-bit", "no-antipode", "not-hopf"):
        hopf = next(rec for rec in records if rec["hopf"])
        if field == "hopf-as-int":
            hopf["hopf"] = 1
        elif field == "antipode-bit":
            rows = hopf["antipode"].split(",")
            rows[1] = format(int(rows[1], 16) ^ 1, "x")
            hopf["antipode"] = ",".join(rows)
        else:
            if field != "no-antipode":
                hopf["hopf"] = False
            if field != "hopf":
                del hopf["antipode"]
    else:
        records[0]["type"], records[1]["type"] = records[1]["type"], records[0]["type"]


DATASET_EDITS = {
    ("algebras_n3", "swap-labels"): "algebras[0] label: differs from the derived dataset of n=3",
    ("algebras_n3", "relations"): "algebras[3] relations: differs",
    ("algebras_n3", "product"): "algebras[2] product: differs from the derived dataset of n=3",
    ("algebras_n3", "drop"): "6 records, the derived dataset of n=3 has 7",
    ("raw_n3_B", "drop"): "32 records, the derived dataset of n=3 has 33",
    ("raw_n3_B", "swap-records"): "raw[0] C: differs from the derived dataset of n=3",
    # record 10 is the first Hopf record of algebra B
    ("raw_n3_B", "hopf"): "B[10]: hopf flag mismatch",
    ("raw_n3_B", "hopf-as-int"): "raw[10] hopf: differs from the derived dataset of n=3",
    ("raw_n3_B", "antipode-bit"): "B[10]: antipode law fails",
    ("raw_n3_B", "no-antipode"): "B[10]: hopf flag mismatch",
    ("raw_n3_B", "not-hopf"): "raw[10] antipode: differs from the derived dataset of n=3",
    ("fourier_n3", "transport_order"): "record 0: transport is not F * identification",
    ("fourier_n3", "F_sharp"): "record 0: F and F_sharp are not the pairings of I",
    ("fourier_n3", "type"): "fourier[0] type: differs from the derived dataset of n=3",
    ("fourier_n4", "transport_order"): "record 0: transport is not F * identification",
    ("fourier_n4", "type"): "fourier[0] type: differs from the derived dataset of n=4",
}


@pytest.mark.parametrize("name, field", list(DATASET_EDITS))
def test_verify_rederives_algebras_raw_and_fourier(tmp_path, datasets_n3, name, field):
    kind, payload = load_dataset((datasets_n3 / f"{name}.json").read_text())
    _edit(payload, field)
    target = tmp_path / f"{name}.json"
    target.write_text(dump_dataset(kind, payload))
    assert any(DATASET_EDITS[name, field] in line for line in verify_failures(target))


@pytest.mark.parametrize("field", ["counts", "image", "tensor_table", "duals"])
def test_verify_rederives_reps(tmp_path, capsys, field):
    out = tmp_path / "out"
    assert run_cli(["run", "--dim", "4", "--stage", "reps", "--out", str(out)]) == 0
    target = out / "reps_n4.json"
    assert run_cli(["verify", str(target)]) == 0
    _, payload = load_dataset(target.read_text(), "reps")
    if field == "counts":
        payload["counts"]["2"] += 1
    elif field == "image":
        rows = payload["2"][3][1].split(",")
        rows[0] = format(int(rows[0], 16) ^ 1, "x")
        payload["2"][3][1] = ",".join(rows)
    elif field == "tensor_table":
        payload["tensor_table"]["2*2b"] = ["2"]
    else:
        payload["duals"]["2"] = "2"
    target.write_text(dump_dataset("reps", payload))
    capsys.readouterr()
    assert run_cli(["verify", str(target)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    if field == "image":
        assert any("k=2[3]: not a representation" in line for line in fails)
        assert any("2: differs" in line for line in fails)
    else:
        assert len(fails) == 1 and f"{field}: differs" in fails[0]


@pytest.mark.parametrize("dim, stage, field", [
    (2, "all", "algebras"), (2, "all", "bialgebras"), (2, "all", "hopf"),
    (2, "all", "qt_pairs"), (4, "reps", "reps"),
    (2, "all", "algebras-as-float"), (2, "all", "hopf-as-float"), (4, "reps", "reps-as-float"),
    (1, "all", "algebras"), (1, "all", "hopf"), (1, "all", "qt_pairs"),
    (1, "all", "bialgebras-as-bool"),
])
def test_verify_rederives_summary(tmp_path, capsys, dim, stage, field):
    # An "-as-float" or "-as-bool" edit keeps the count but writes it as a
    # float or a bool, which run never writes: 1 == 1.0 == True in Python.
    out = tmp_path / "out"
    assert run_cli(["run", "--dim", str(dim), "--stage", stage, "--out", str(out)]) == 0
    target = out / f"summary_n{dim}.json"
    assert run_cli(["verify", str(target)]) == 0
    _, payload = load_dataset(target.read_text(), "summary")
    name, _, as_type = field.partition("-as-")
    counts, key = (payload["reps"], "3") if name == "reps" else (payload, name)
    retype = {"float": float, "bool": bool, "": lambda count: count + 1}[as_type]
    counts[key] = retype(counts[key])
    target.write_text(dump_dataset("summary", payload))
    capsys.readouterr()
    assert run_cli(["verify", str(target)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    want = "reps: differs" if name == "reps" else f"counts differ from the census of n={dim}"
    assert len(fails) == 1 and want in fails[0]


@pytest.mark.parametrize("name, old, new, status, message", [
    ("summary_n4", '"version": "', '"version": "9.', 2, "schema error: version '9."),
    ("summary_n4", '"dim": 4', '"dim": 4, "extra": 1', 1, "extra: not a key of the summary"),
    ("summary_n2", '"dim": 2', '"dim": 2, "reps": {"1": 2, "2": 20, "3": 394}', 1,
     "reps: not a key of the summary"),
    ("reps_n4", '"counts": {', '"9": [], "counts": {', 1, "9: differs from the derived dataset"),
])
def test_verify_accepts_only_what_run_writes(tmp_path, capsys, name, old, new, status, message):
    # A field of another version, or a key run never writes, fails verify;
    # the checksum covers the payload only, so edits to the payload are
    # written with the checksum recomputed.
    out = tmp_path / "out"
    dim = name[-1]
    stage = "reps" if dim == "4" else "algebras"
    assert run_cli(["run", "--dim", dim, "--stage", stage, "--out", str(out)]) == 0
    target = out / f"{name}.json"
    assert run_cli(["verify", str(target)]) == 0
    text = target.read_text().replace(old, new, 1)
    if "version" not in old:
        kind, _ = load_dataset(target.read_text())
        text = dump_dataset(kind, json.loads(text)["payload"])
    assert text != target.read_text()
    target.write_text(text)
    capsys.readouterr()
    assert run_cli(["verify", str(target)]) == status
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


def _malformed(kind: str, case: str):
    """A checksum-valid dataset of the given kind with one malformed part."""
    from f2hopf import serialize
    from f2hopf.catalog import catalog
    from f2hopf.cli import _raw_payload
    from f2hopf.coproducts import solve_coproducts

    if kind == "algebras":
        payload = [serialize.algebra_record(c.label, c.representative, c.relations_doc)
                   for c in catalog(2).classes]
        del payload[0]["product"]
        return payload
    if kind == "fourier":
        from f2hopf.golden import HOPF_FIXTURES_DIM4

        if case == "F-not-a-string":
            return [{"I": "1", "F": 5}]
        return [{"name": HOPF_FIXTURES_DIM4[0].name}]
    if kind == "summary":
        payload = {"dim": 4, "algebras": 25, "reps": {"1": 2, "2": 20, "3": 394}}
        if case == "dim-list":
            payload["dim"] = [4]
        else:
            payload["reps"] = "many"
        return payload
    payload = _raw_payload(solve_coproducts(catalog(2)["B"].representative, "B"))
    if case == "dim-7":
        payload[0]["dim"] = 7
    elif case == "unknown-label":
        payload[0]["algebra"] = "ZZ"
    elif case == "non-hex-C":
        payload[0]["C"] = "not hex"
    elif case == "antipode-not-a-string":
        payload[0]["antipode"] = 5
    else:
        payload = {"records": payload}
    return payload


MALFORMED = {
    ("raw", "dim-7"): "record 0: unreadable (ValueError: no catalog for dimension 7)",
    ("raw", "unknown-label"): "record 0: unreadable (KeyError: 'ZZ')",
    ("raw", "non-hex-C"): "record 0: unreadable (ValueError: invalid literal",
    ("raw", "antipode-not-a-string"): "record 0: unreadable (TypeError: matrix is int",
    ("raw", "not-a-list"): "payload is not a list of records",
    ("algebras", "no-product"): "record 0: unreadable (KeyError: 'product')",
    ("fourier", "no-integral"): "record 0: unreadable (KeyError: 'I')",
    ("fourier", "F-not-a-string"): "record 0: unreadable (TypeError: F is int",
    ("summary", "dim-list"): "no catalog for dimension [4]",
    ("summary", "reps-not-a-mapping"): "reps: differs",
}


@pytest.mark.parametrize("kind, case", list(MALFORMED))
def test_verify_reports_malformed_records(tmp_path, kind, case):
    target = tmp_path / f"{kind}.json"
    target.write_text(dump_dataset(kind, _malformed(kind, case)))
    lines = verify_failures(target)
    assert lines[0].startswith(f"{target}: FAIL {MALFORMED[kind, case]}")
