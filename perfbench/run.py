#!/usr/bin/env python3
"""End-to-end benchmark of the f2hopf pipeline, with a traced per-layer mode.

Run from the repository root:

    python3 perfbench/run.py --workload census_cold --seed 1 --seconds 36 --trace 0

Workloads (all inputs are fixed by the paper; the seed only permutes the
order in which the dimensions are run, which must not change any output):

- ``census_cold``: ``f2hopf run --dim 2 --dim 3 --dim 4 --stage all
  --jobs 1 --mode fixture`` with an empty output directory and cache.
- ``census_warm``: the same command after an untimed prep process
  (``--stage coproducts``) has filled the cache, so the cache is read and
  not written.
- ``algebra_enum``: ``enumerate_algebras(n)`` then ``classify_algebras`` for
  n = 1..3, repeated ``sample.ROUNDS`` times per sample with the
  enumeration cache cleared before each round.

Every sample runs in a fresh interpreter (``sample.py``) with its own
directory under ``.perfbench-work/`` and ``F2HOPF_CACHE_ROOT`` inside it.
Samples are started until the next one would end after ``--seconds``; at
least one runs.  Outputs are checked by ``checks.py``.

``--trace 0`` reports the end-to-end metrics (medians over samples):
``wall_s`` (timed section), ``cpu_s`` (user + system of the sample process
and its children over the timed section), ``setup_s`` (launch until
``f2hopf.cli`` is imported and the catalogs are built; median over at
least SETUP_SAMPLES processes) and ``peak_rss_mb``.  ``--trace 1`` runs one
untraced and one traced sample and reports the per-layer metrics of
``tracing.py`` plus the tracing overhead.  The last line of standard output
is a JSON object with ``correct``, ``attempted`` (ops), ``failed`` (failed
ops) and ``metrics``; the full record goes to ``result.json`` in the run's
work directory.  Exit code: 0 when every op passed, 1 on a failed op, 2 when
there is no engine source to benchmark, 3 when a sample process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = {
    "census_cold": (2, 3, 4),
    "census_warm": (2, 3, 4),
    "algebra_enum": (1, 2, 3),
}
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170  # the whole run, sample processes included


class SampleError(RuntimeError):
    pass


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


class Runner:
    """Starts sample processes for one workload and collects their results."""

    def __init__(self, root: Path, workload: str, dims: list[int], work: Path):
        self.root = root
        self.workload = workload
        self.dims = dims
        self.work = work
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.count = 0

    def sample(self, mode: str, cache: Path | None = None, stage: str = "all") -> dict:
        """Run one sample process; `cache` is copied in as its cache."""
        self.count += 1
        sample_dir = self.work / f"{self.count:03d}-{mode}"
        sample_dir.mkdir(parents=True)
        if cache is not None:
            shutil.copytree(cache, sample_dir / "cache")
        # A fixed hash seed gives every sample the same dict and set layout;
        # with per-process random seeds the same sample varies by +-20%.
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   PYTHONHASHSEED="0", F2HOPF_CACHE_ROOT=str(sample_dir / "cache"))
        cmd = [sys.executable, str(HERE / "sample.py"), "--mode", mode,
               "--workload", self.workload,
               "--dims", ",".join(map(str, self.dims)),
               "--stage", stage, "--dir", str(sample_dir),
               "--run-id", f"{self.work.name}/{sample_dir.name}"]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(sample_dir / "log.txt", "w") as log:
            launched = time.monotonic()
            try:
                proc = subprocess.run(cmd + ["--launched", repr(launched)],
                                      cwd=self.root, env=env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise SampleError(f"{sample_dir.name}: exceeded the run's time limit")
        if proc.returncode != 0:
            tail = (sample_dir / "log.txt").read_text()[-2000:]
            raise SampleError(f"{sample_dir.name}: exit code {proc.returncode}\n{tail}")
        result = json.loads((sample_dir / "result.json").read_text())
        result["dir"] = sample_dir
        return result

    def check(self, result: dict, golden, checks) -> tuple[int, list[str]]:
        """Check a sample's outputs; census output directories are removed."""
        if self.workload == "algebra_enum":
            return checks.check_algebra_enum(result["outputs"])
        out = result["dir"] / "out"
        ops, failures = checks.check_census(out, golden)
        shutil.rmtree(out)
        want_hits = checks.EXPECTED["cache_entries"] if self.workload == "census_warm" else 0
        if result["cache_hits"] != want_hits:
            failures.append(f"{result['dir'].name}: {result['cache_hits']} cache hits, "
                            f"expected {want_hits}")
        if result["rc"] != 0:
            failures.append(f"{result['dir'].name}: f2hopf exit code {result['rc']}")
        return ops + 2, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "f2hopf" / "cli.py").is_file():
        print(f"perfbench: no engine source at {root / 'src' / 'f2hopf'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import checks
    from f2hopf import golden

    dims = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(dims)
    work = root / ".perfbench-work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, args.workload, dims, work)
    try:
        outcome = measure(runner, args, golden, checks)
    except SampleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    metrics, ops, failures, extra = outcome

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "dims": dims, "backend": extra.pop("backend"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": git_commit(root),
    }
    (work / "result.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "ops": ops, "failures": failures, **extra},
        indent=1, default=str) + "\n")
    print("meta " + json.dumps(meta))
    for f in failures[:20]:
        print(f"FAILED {f}")
    if len(failures) > 20:
        print(f"FAILED ... {len(failures) - 20} more in {work / 'result.json'}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"ops {ops} count")
    print(f"failed_ops {len(failures)} count")
    print(json.dumps({"correct": not failures, "attempted": ops,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def measure(runner: Runner, args, golden, checks):
    """Run the samples; returns (metrics, ops, failures, extra record)."""
    runner.sample("setup")  # untimed: compiles bytecode, warms the file cache
    cache = None
    if args.workload == "census_warm":
        # The coproducts stage alone writes every cache entry.
        prep = runner.sample("untraced", stage="coproducts")
        if prep["rc"] != 0:
            raise SampleError(f"prep run: f2hopf exit code {prep['rc']}")
        shutil.rmtree(prep["dir"] / "out")
        cache = prep["dir"] / "cache"

    ops, failures, samples = 0, [], []

    def take(mode: str) -> dict:
        nonlocal ops
        result = runner.sample(mode, cache)
        n, bad = runner.check(result, golden, checks)
        ops += n
        failures.extend(bad)
        samples.append(result)
        return result

    if args.trace:
        plain = take("untraced")
        traced = take("traced")
        values = dict(traced["layers"])
        values["cli.cache.hits"] = traced["cache_hits"]
        values["cli.cache.writes"] = traced["cache_writes"]
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.glue_s"] = traced["timed_glue_s"]
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        extra = {"untraced_wall_s": plain["wall_s"],
                 "timed_self_s": traced["timed_self_s"]}
    else:
        start = time.monotonic()
        while True:
            take("untraced")
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(samples) > args.seconds:
                break
        setups = [s["setup_s"] for s in samples]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.sample("setup")["setup_s"])

        def med(key: str) -> float:
            return statistics.median(s[key] for s in samples)

        metrics = {
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "cpu_s": {"value": med("cpu_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        }
        extra = {"samples": [{k: s[k] for k in ("wall_s", "cpu_s", "setup_s",
                                                 "peak_rss_mb", "cache_hits")}
                             for s in samples],
                 "setup_samples": setups}
    extra["backend"] = samples[0]["backend"]
    return metrics, ops, failures, extra


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
