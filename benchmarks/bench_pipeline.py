#!/usr/bin/env python3
"""Benchmark ``f2hopf run --dim 2 --dim 3 --dim 4 --stage all``, cold and
warm, and ``f2hopf verify`` on every file the cold run wrote.

Each round runs the command twice into one new temporary output directory:

- cold: empty output directory and raw-solution cache;
- warm: the same command again, so every raw solution set comes from the
  cache the cold run wrote;
- verify: ``f2hopf verify`` on every JSON file of the cold run.

Every run is a fresh interpreter, so no in-process cache of an earlier run
is reused.  A run imports the engine and builds the algebra catalogs
(``setup_s``), then times ``cli.main`` (``wall_s``).  It counts the calls of
``coproducts.solve_coproducts`` (one per algebra solved),
``coproducts.solve_coproduct_tensors`` (one per counit system searched),
``coproducts.coalgebra_type`` and ``coproducts.solve_antipode`` (the
annotations), ``kernels.coproduct_orbit`` (the orbit expansions, one per
bialgebra class) and ``catalog.isomorphisms`` (one per automorphism group
solved, and per isomorphism looked up) made through any ``f2hopf`` module,
during the catalog builds (``<name>_setup_calls``) and during the command
(``<name>_calls``); installing the counters is not timed.  Every command
must exit 0: the census matched ``golden.CENSUS`` and every file verified.

``--tree NAME=SRC`` (repeatable) times the engine whose source is the
directory SRC, such as a checkout of an older commit's ``src``; the rounds
alternate between the trees, so a drift in machine speed reaches each
alike.  Without it, the ``src`` next to this script is timed.  The medians
and quartiles over the rounds, every run's numbers, the core count, the
Python version and the kernel backend go to benchmarks/BENCH_pipeline.json
(or the path given with --out).

Run:  python benchmarks/bench_pipeline.py [--tree parent=../old/src --tree change=src]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DIMS = (2, 3, 4)
ROUNDS = 10
# (module, function) pairs whose calls each run counts.
COUNTED = (("coproducts", "solve_coproducts"), ("coproducts", "solve_coproduct_tensors"),
           ("coproducts", "coalgebra_type"), ("coproducts", "solve_antipode"),
           ("kernels", "coproduct_orbit"), ("catalog", "isomorphisms"))


def child(out_dir: str, verify: bool) -> None:
    """One timed run (or verify) in this process; prints a JSON line."""
    t0 = time.perf_counter()
    from f2hopf import cli, kernels
    from f2hopf.catalog import catalog

    import_s = time.perf_counter() - t0
    calls = {name: 0 for _, name in COUNTED}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in COUNTED:
        fn = getattr(importlib.import_module(f"f2hopf.{module}"), name)
        wrapper = counted(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("f2hopf") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    t0 = time.perf_counter()
    for n in DIMS:
        catalog(n)
    setup_s = import_s + time.perf_counter() - t0
    setup_calls = dict(calls)
    for name in calls:
        calls[name] = 0

    if verify:
        argv = ["verify", *sorted(str(p) for p in Path(out_dir).glob("*.json"))]
    else:
        argv = ["run", "--stage", "all", "--out", out_dir]
        for n in DIMS:
            argv += ["--dim", str(n)]
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    wall_s = time.perf_counter() - t1
    print(json.dumps({"rc": rc, "setup_s": setup_s, "wall_s": wall_s,
                      **{f"{name}_setup_calls": setup_calls[name] for name in calls},
                      **{f"{name}_calls": calls[name] for name in calls},
                      "backend": kernels.BACKEND}))


def run_child(out_dir: Path, mode: str, src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "F2HOPF_CACHE_ROOT"}
    env["PYTHONPATH"] = src
    argv = [sys.executable, __file__, "--child", str(out_dir)]
    if mode == "verify":
        argv.append("--verify")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["rc"] != 0:
        raise SystemExit(f"f2hopf {mode} exited {result['rc']}")
    return result


def summarise(results: list[dict]) -> dict:
    walls = [r["wall_s"] for r in results]
    q1, _, q3 = statistics.quantiles(walls, n=4)
    return {
        "wall_s_median": round(statistics.median(walls), 3),
        "wall_s_quartiles": [round(q1, 3), round(q3, 3)],
        "setup_s_median": round(statistics.median(r["setup_s"] for r in results), 3),
        "setup_s_quartiles": [round(q, 3) for q in
                              statistics.quantiles([r["setup_s"] for r in results], n=4)[::2]],
        **{f"{name}_{phase}": sorted({r[f"{name}_{phase}"] for r in results})
           for _, name in COUNTED for phase in ("setup_calls", "calls")},
        "wall_s": [round(w, 3) for w in walls],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(Path(__file__).with_name("BENCH_pipeline.json")))
    parser.add_argument("--tree", action="append", metavar="NAME=SRC",
                        help="time the engine whose source directory is SRC")
    parser.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--verify", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child, args.verify)
        return

    default = str(Path(__file__).resolve().parents[1] / "src")
    trees = dict(t.split("=", 1) for t in args.tree) if args.tree else {"src": default}
    modes = ("cold", "warm", "verify")
    runs = {name: {mode: [] for mode in modes} for name in trees}
    for _ in range(ROUNDS):
        for name, src in trees.items():
            with tempfile.TemporaryDirectory(prefix="bench-pipeline-") as tmp:
                for mode in modes:
                    result = run_child(Path(tmp) / "out", mode, str(Path(src).resolve()))
                    runs[name][mode].append(result)
                    print(f"{name} {mode}: wall {result['wall_s']:.3f}s, "
                          f"{result['solve_coproducts_calls']} solves, "
                          f"{result['solve_coproduct_tensors_calls']} counit systems, "
                          f"{result['solve_antipode_calls']} antipodes solved, "
                          f"{result['coproduct_orbit_calls']} orbit expansions, "
                          f"isomorphisms solved {result['isomorphisms_setup_calls']} "
                          f"in set-up and {result['isomorphisms_calls']} in the run",
                          flush=True)

    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "backend": next(iter(runs.values()))["cold"][0]["backend"],
        "command": "f2hopf run --dim 2 --dim 3 --dim 4 --stage all",
        "verify_command": "f2hopf verify <every JSON file of the cold run>",
        "rounds": ROUNDS,
        "trees": {name: {mode: summarise(results) for mode, results in by_mode.items()}
                  for name, by_mode in runs.items()},
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
