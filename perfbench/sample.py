"""One benchmark sample in a fresh interpreter.

Imports the engine from ``src/`` of the current directory, builds the
catalogs of the workload's dimensions (the set-up), then runs the timed
section once and writes a JSON result.  Started by ``run.py``; see there for
the workloads.

Modes: ``setup`` stops after the set-up, ``untraced`` times the workload,
``traced`` also wraps the engine's layer functions and writes their spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROUNDS = 200  # algebra_enum rounds per sample, about 0.6 s with the Python kernel


def cache_listing(root: Path) -> dict[str, tuple[int, int]]:
    if not root.is_dir():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in root.iterdir() if p.is_file()}


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def census(cli, dims, out_dir: Path, stage: str) -> dict:
    argv = ["run", "--stage", stage, "--jobs", "1", "--mode", "fixture",
            "--out", str(out_dir)]
    for n in dims:
        argv += ["--dim", str(n)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": stdout.getvalue()}


def algebra_enum(catalog_mod, dims, clear) -> dict:
    results = []
    for _ in range(ROUNDS):
        clear()  # each round enumerates from scratch
        for n in dims:
            algebras = catalog_mod.enumerate_algebras(n)
            results.append((n, algebras, catalog_mod.classify_algebras(algebras)))
    return {"rc": 0, "outputs": [
        {"dim": n, "tensors": len(algs),
         "partition": {label: len(v) for label, v in sorted(parts.items())}}
        for n, algs, parts in results
    ]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dims", required=True, help="comma-separated, in run order")
    parser.add_argument("--stage", default="all", help="census stage to run")
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--dir", required=True, help="sample directory")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()
    dims = [int(d) for d in args.dims.split(",")]
    sample_dir = Path(args.dir)
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))

    import f2hopf
    from f2hopf import catalog as catalog_mod
    from f2hopf import cli, kernels

    if Path(f2hopf.__file__).resolve().parent != (src / "f2hopf").resolve():
        raise SystemExit(f"f2hopf imported from {f2hopf.__file__}, not from {src}")
    clear = catalog_mod.enumerate_algebras.cache_clear
    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    for n in dims:
        catalog_mod.catalog(n)
    result = {"setup_s": time.monotonic() - args.launched, "backend": kernels.BACKEND}

    if args.mode != "setup":
        cache_root = Path(os.environ["F2HOPF_CACHE_ROOT"])
        before = cache_listing(cache_root)
        if tracer is not None:
            tracer.phase = "timed"
        c0, w0 = cpu_seconds(), time.perf_counter()
        if args.workload == "algebra_enum":
            outcome = algebra_enum(catalog_mod, dims, clear)
        else:
            outcome = census(cli, dims, sample_dir / "out", args.stage)
        w1, c1 = time.perf_counter(), cpu_seconds()
        after = cache_listing(cache_root)
        result.update(outcome)
        result["wall_s"] = w1 - w0
        result["cpu_s"] = c1 - c0
        result["cache_hits"] = sum(1 for k, v in before.items() if after.get(k) == v)
        result["cache_writes"] = sum(1 for k, v in after.items() if before.get(k) != v)
        if tracer is not None:
            from tracing import layer_stats, phase_breakdown

            self_sum, covered = phase_breakdown(tracer.spans, "timed")
            result["layers"] = layer_stats(tracer.spans, tracer.counts)
            result["timed_self_s"] = self_sum
            result["timed_glue_s"] = result["wall_s"] - covered
            tracer.write_spans(sample_dir / "spans.jsonl")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (sample_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
