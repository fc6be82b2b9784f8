"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

The traced runs take about four minutes with the pure-Python kernel: two
traced runs of each workload, with different seeds (dimension orders).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from tracing import COUNTERS, TARGETS  # noqa: E402

from f2hopf import golden  # noqa: E402
from f2hopf.serialize import dump_dataset  # noqa: E402

WORKLOADS = ("census_cold", "census_warm", "algebra_enum")
SEEDS = (101, 102)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def traced():
    """workload -> [(metrics, result record)] for each seed."""
    runs = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            proc = bench(ROOT, "--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            record = json.loads((ROOT / ".perfbench-work"
                                 / f"{workload}-seed{seed}-trace1" / "result.json").read_text())
            runs.setdefault(workload, []).append((metrics, record))
    return runs


def exact_counts(metrics: dict) -> dict:
    keep = {"calls", "hits", "writes"} | {k for ks in COUNTERS.values() for k in ks}
    return {k: m["value"] for k, m in metrics.items() if k.rsplit(".", 1)[1] in keep}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(traced, workload):
    (first, _), (second, _) = traced[workload]
    assert exact_counts(first) == exact_counts(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_glue_add_up_to_wall(traced, workload):
    for metrics, record in traced[workload]:
        wall = metrics["trace.wall_s"]["value"]
        glue = metrics["trace.glue_s"]["value"]
        assert glue >= 0
        assert record["timed_self_s"] + glue == pytest.approx(wall, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_kernel_has_the_largest_self_time(traced, workload):
    metrics = traced[workload][0][0]
    self_times = {k: m["value"] for k, m in metrics.items()
                  if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "kernels.solve_quadratic.self_s"


@pytest.mark.parametrize("workload, solves, hits, writes", [
    ("census_cold", 70, 0, 35),
    ("census_warm", 35, 35, 0),
    ("algebra_enum", 0, 0, 0),
])
def test_coproduct_solves_and_cache_use(traced, workload, solves, hits, writes):
    metrics = traced[workload][0][0]
    assert metrics["coproducts.solve_coproducts.calls"]["value"] == solves
    assert metrics["cli.cache.hits"]["value"] == hits
    assert metrics["cli.cache.writes"]["value"] == writes


def test_per_layer_names_match_benchmark_json(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    for workload in WORKLOADS:
        assert list(traced[workload][0][0]) == declared
    assert {f"{m}.{f}.calls" for m, f, _ in TARGETS} <= set(declared)


def test_fails_without_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "census_cold", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _summary_n4(**changes) -> str:
    algebras, bialgebras, hopf, qt_pairs = golden.CENSUS[4]
    payload = {"dim": 4, "algebras": algebras, "bialgebras": bialgebras,
               "hopf": hopf, "qt_pairs": qt_pairs,
               "reps": {str(k): v for k, v in golden.REP_COUNTS.items()}}
    payload.update(changes)
    return dump_dataset("summary", payload)


def test_census_tables_are_checked(tmp_path):
    path = tmp_path / "summary_n4.json"
    path.write_text(_summary_n4())
    assert checks._census_problem(path, golden) is None
    path.write_text(_summary_n4(bialgebras=285))
    assert "census" in checks._census_problem(path, golden)
    path.write_text(_summary_n4(reps={"1": 2, "2": 20, "3": 393}))
    assert "reps" in checks._census_problem(path, golden)
    raw = tmp_path / "raw_n4_P.json"
    raw.write_text(dump_dataset("raw", [{}] * (golden.RAW_COUNTS[4]["P"] - 1)))
    assert "raw coproducts" in checks._census_problem(raw, golden)


def test_digests_are_checked(tmp_path):
    want = checks.EXPECTED["census_digests"]
    for name in want:
        (tmp_path / name).write_text("{}")
    (tmp_path / "extra.json").write_text("{}")
    ops, failures = checks.check_census(tmp_path, golden)
    assert ops == len(want) + 1
    assert len(failures) == ops


def test_algebra_partitions_are_checked():
    good = [{"dim": int(n), "tensors": sum(p.values()), "partition": p}
            for n, p in checks.EXPECTED["algebra_partitions"].items()]
    assert checks.check_algebra_enum(good) == (3, [])
    bad = dict(good[2], tensors=good[2]["tensors"] - 1)
    assert len(checks.check_algebra_enum([bad])[1]) == 1
