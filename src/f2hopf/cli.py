"""Command-line pipeline: run the classification stages and verify emitted
datasets.

    f2hopf run --dim 4 --stage all --out results/
    f2hopf run --dim 3 --algebra B --out results/
    f2hopf verify results/raw_n3_B.json

``run`` builds every kind of dataset in one table, ``_datasets``; the quiver
stage also writes a DOT file, and ``--algebra`` restricts the coproducts
stage to one algebra label.  ``verify`` re-derives a file by looking up its
kind in the same table, on a fresh solve.

Raw coproduct solutions are cached under the output directory (or the
directory named by F2HOPF_CACHE_ROOT), keyed by dimension, algebra label and
engine fingerprint.  An entry is compact JSON and holds the raw records and
each solution's bialgebra class, so a run that reads it transforms no
coproduct; corrupt entries, and entries whose classes fail a structural
check, are recomputed.
Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import os
import re
import sys
import tempfile
from pathlib import Path

from f2hopf import __version__, serialize
from f2hopf.catalog import RELATIONS, catalog
from f2hopf.classify import (
    ClassifiedDimension,
    QuiverGraph,
    build_quiver,
    classify_dimension,
    classify_raw,
    solve_catalog_algebra,
)
from f2hopf.coproducts import RawSolution, RawSolutionSet, solve_coproducts
from f2hopf.gf2 import bits_of, mat_mul_rows, mat_order_rows, mat_transpose_rows
from f2hopf.golden import CENSUS, HOPF_FIXTURES_DIM4, REP_COUNTS
from f2hopf.serialize import (
    DatasetError,
    canonical_json,
    dump_dataset,
    load_dataset,
    mat_from_hex,
    mat_to_hex,
    tensor_from_hex,
    tensor_to_hex,
)
from f2hopf.structure import (
    Bialgebra,
    CoalgebraSC,
    HopfAlgebra,
    check_algebra,
    check_bialgebra,
)

# The stage that writes each dataset kind, in the order a run writes them.
DATASET_STAGE = {"algebras": "algebras", "raw": "coproducts", "classes": "classify",
                 "quiver": "quiver", "fourier": "fourier", "qt": "qtri", "reps": "reps"}
STAGES = (*DATASET_STAGE.values(), "all")
# The summary's census counts, in the order of golden.CENSUS[n].
CENSUS_KEYS = ("algebras", "bialgebras", "hopf", "qt_pairs")


def _raw_payload(rs: RawSolutionSet) -> list[dict]:
    out = []
    for s in rs.solutions:
        rec = {
            "algebra": rs.algebra_label,
            "dim": rs.algebra.n,
            "epsilon": tensor_to_hex(s.coalg.eps),
            "C": tensor_to_hex(s.coalg.c),
            "type": s.type_label,
            "hopf": s.hopf,
        }
        if s.antipode is not None:
            rec["antipode"] = mat_to_hex(s.antipode)
        out.append(rec)
    return out


def _cache_payload(rs: RawSolutionSet) -> dict:
    """A cache entry: the raw records and each solution's class representative."""
    return {"records": _raw_payload(rs), "class_rep": list(rs.class_rep)}


def _raw_from_cache(n: int, label: str, entry) -> RawSolutionSet:
    """The solution set of a cache entry, once its records ascend by tensor
    and its partition is well formed: each class_rep[i] is an index r <= i
    with class_rep[r] = r, of a solution with i's coalgebra type and Hopf
    flag.  A malformed entry raises KeyError, TypeError or ValueError."""
    sols = []
    for rec in entry["records"]:
        coalg = CoalgebraSC(n, tensor_from_hex(rec["C"]), tensor_from_hex(rec["epsilon"]))
        anti = mat_from_hex(rec["antipode"], n) if "antipode" in rec else None
        sols.append(RawSolution(coalg, rec["type"], anti))
    reps = tuple(entry["class_rep"])
    if len(reps) != len(sols) or any(s.coalg.c >= t.coalg.c for s, t in zip(sols, sols[1:])):
        raise ValueError("records and classes do not match")
    for i, r in enumerate(reps):
        if not (type(r) is int and 0 <= r <= i and reps[r] == r
                and sols[r].hopf == sols[i].hopf and sols[r].type_label == sols[i].type_label):
            raise ValueError(f"solution {i}: bad class representative {r!r}")
    return RawSolutionSet(label, catalog(n)[label].representative, tuple(sols), reps)


def _cache_dir(out_dir: Path) -> Path:
    root = os.environ.get("F2HOPF_CACHE_ROOT")
    return Path(root) if root else out_dir / "cache"


@functools.cache
def engine_fingerprint() -> str:
    """Short SHA-256 prefix over the source of every module that computes or
    encodes raw solutions, so a cache entry written by another engine is never
    read."""
    names = ("f2hopf.gf2", "f2hopf.kernels", "f2hopf.structure", "f2hopf.catalog",
             "f2hopf.coproducts", "f2hopf.serialize")
    digest = hashlib.sha256()
    for path in [importlib.import_module(name).__file__ for name in names] + [__file__]:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()[:16]


def _cache_path(cache: Path, n: int, label: str) -> Path:
    return cache / f"raw_n{n}_{label}_{engine_fingerprint()}.json"


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory, then rename it
    over the target, so readers see either the old file or the new one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _raw_solutions(n: int, out_dir: Path, use_cache: bool,
                   labels: list[str] | None = None) -> dict[str, RawSolutionSet]:
    """The raw solution set of each label (every catalog label by default),
    read from the cache or solved and written to it, in label order."""
    cache = _cache_dir(out_dir)
    cache.mkdir(parents=True, exist_ok=True)
    results: dict[str, RawSolutionSet] = {}
    for label in catalog(n).labels if labels is None else labels:
        path = _cache_path(cache, n, label)
        if use_cache and path.exists():
            try:
                results[label] = _raw_from_cache(n, label, load_dataset(path.read_text(), "raw")[1])
                continue
            except (KeyError, TypeError, ValueError):  # DatasetError is a ValueError
                pass  # corrupt cache entry: recompute below
        rs = results[label] = solve_coproducts(catalog(n)[label].representative, label)
        _write_atomic(path, dump_dataset("raw", _cache_payload(rs), compact=True))
    return results


def reps_payload() -> dict:
    """The reps dataset of dimension 4: every representation of the digital
    u_q(sl_2) of size k <= 3, and the decompositions of the tensor products
    and duals of its four named irreducibles."""
    from f2hopf.golden import dsl2_named_reps, dsl2_presentation
    from f2hopf.reps import decompose, dual_rep, enumerate_reps, tensor_rep

    h = dsl2_presentation()
    payload = {"counts": {}}
    for k in (1, 2, 3):
        reps = enumerate_reps(h.alg, k)
        # The representations share their image matrices: format each once.
        hexes = {m: mat_to_hex(m) for m in {m for r in reps for m in r.images}}
        payload[str(k)] = [[hexes[m] for m in r.images] for r in reps]
        payload["counts"][str(k)] = len(reps)
    named = dsl2_named_reps()
    payload["tensor_table"] = {
        f"{a}*{b}": list(decompose(tensor_rep(h, named[a], named[b]), named))
        for a in sorted(named)
        for b in sorted(named)
    }
    payload["duals"] = {
        a: decompose(dual_rep(h, named[a]), named)[0] for a in sorted(named)
    }
    return payload


def classes_payload(dim: ClassifiedDimension) -> list[dict]:
    """The classes dataset: every bialgebra class with its orbit members
    (indices into the raw list), representative and co-opposite partner."""
    return [
        {
            "algebra": cls.algebra_label,
            "type": cls.coalgebra_type,
            "members": list(cls.members),
            "representative": tensor_to_hex(cls.representative.coalg.c),
            "hopf": cls.hopf,
            "cop_partner": cls.cop_partner,
        }
        for cls in dim.all_classes()
    ]


def quiver_payload(q: QuiverGraph) -> list[dict]:
    """The quiver dataset: one record per arrow with its multiplicities."""
    return [
        {
            "source": a.source,
            "target": a.target,
            "multiplicity": a.multiplicity,
            "hopf_multiplicity": a.hopf_multiplicity,
        }
        for a in q.arrows
    ]


def algebras_payload(n: int) -> list[dict]:
    """The algebras dataset: every catalog class of dimension n."""
    return [serialize.algebra_record(c.label, c.representative, c.relations_doc)
            for c in catalog(n).classes]


def _fourier_record(h, type_labels: list[str], dual_basis=None, name=None) -> dict:
    """One fourier dataset record: the Fourier data of a Hopf algebra under
    its (algebra, coalgebra type) labels, and the name of a golden fixture."""
    from f2hopf.fourier import fourier_data

    data = fourier_data(h, dual_basis)
    rec = {
        "type": type_labels,
        "I": tensor_to_hex(data.integral),
        "F": mat_to_hex(data.f),
        "F_sharp": mat_to_hex(data.f_sharp),
        "identification": mat_to_hex(data.dual_identification),
        "transport": mat_to_hex(data.transport),
        "transport_order": mat_order_rows(data.transport),
    }
    if name is not None:
        rec["name"] = name
    return rec


def fixture_fourier_payload() -> list[dict]:
    """The fourier dataset of n = 4 in fixture mode: the Fourier data of
    every golden fixture under its frozen dual-basis identification."""
    return [_fourier_record(fx.hopf(), [fx.algebra_label, fx.coalgebra_type],
                            fx.dual_basis, name=fx.name)
            for fx in HOPF_FIXTURES_DIM4]


def fourier_payload(dim: ClassifiedDimension) -> list[dict]:
    """The fourier dataset in computed mode: the Fourier data of every Hopf
    class."""
    return [
        _fourier_record(
            HopfAlgebra(Bialgebra(dim.cat[cls.algebra_label].representative,
                                  cls.representative.coalg),
                        cls.representative.antipode),
            [cls.algebra_label, cls.coalgebra_type])
        for cls in dim.hopf_classes()
    ]


def qt_payload(by_class) -> list[dict]:
    """The qt dataset of a ``qtri.qt_by_class`` result: per Hopf class, every
    R-matrix with its inverse, Killing form and class."""
    return [
        {
            "type": [alg_label, typ],
            "R": [
                {
                    "bits": tensor_to_hex(s.r),
                    "R_inv": tensor_to_hex(s.r_inv),
                    "Q": tensor_to_hex(s.q),
                    "klass": s.klass,
                    "factorisable": s.factorisable,
                }
                for s in structures
            ],
        }
        for (alg_label, typ), structures in sorted(by_class.items())
    ]


def _datasets(n: int, stages: set[str], raw, dim, mode: str, summary: dict):
    """The dataset table: yield (file name, kind, payload) for every file the
    stages write for dimension n; the quiver's DOT text has kind "dot".
    ``raw()`` gives the raw solution sets by label and ``dim()`` the
    classified dimension, each called only by a dataset that reads it.  The
    counts of the stages that ran go into ``summary``."""
    def wants(kind: str) -> bool:
        return bool(stages & {DATASET_STAGE[kind], "all"})

    if wants("algebras"):
        yield f"algebras_n{n}.json", "algebras", algebras_payload(n)
    summary["algebras"] = len(catalog(n).classes)
    if wants("raw"):
        for label, rs in raw().items():
            yield f"raw_n{n}_{label}.json", "raw", _raw_payload(rs)
    if wants("classes"):
        yield f"classes_n{n}.json", "classes", classes_payload(dim())
    if wants("quiver"):
        q = build_quiver(dim())
        yield f"quiver_n{n}.json", "quiver", quiver_payload(q)
        yield f"quiver_n{n}.dot", "dot", q.to_dot()
    if wants("fourier"):
        fixture = n == 4 and mode == "fixture"
        yield (f"fourier_n{n}.json", "fourier",
               fixture_fourier_payload() if fixture else fourier_payload(dim()))
    if any(map(wants, ("classes", "quiver", "fourier", "qt"))):
        _, summary["bialgebras"], summary["hopf"] = dim().census()
    if wants("qt"):
        from f2hopf.qtri import qt_by_class, qt_pairs

        by_class = qt_by_class(dim())
        yield f"qt_n{n}.json", "qt", qt_payload(by_class)
        summary["qt_pairs"] = qt_pairs(by_class)
    if wants("reps") and n == 4:
        payload = reps_payload()
        yield f"reps_n{n}.json", "reps", payload
        summary["reps"] = payload["counts"]


def run_pipeline(n: int, stages: set[str], out_dir: Path, use_cache: bool,
                 mode: str, algebra: str | None = None) -> dict:
    """Write every dataset of the requested stages into out_dir, then the
    summary, which is returned.  With ``algebra``, only that label is solved."""
    raw = functools.cache(lambda: _raw_solutions(
        n, out_dir, use_cache, None if algebra is None else [algebra]))
    dim = functools.cache(lambda: classify_raw(n, raw()))
    summary: dict = {"dim": n}
    for name, kind, payload in _datasets(n, stages, raw, dim, mode, summary):
        (out_dir / name).write_text(payload if kind == "dot" else dump_dataset(kind, payload))
    (out_dir / f"summary_n{n}.json").write_text(dump_dataset("summary", summary))
    return summary


def _derived(kind: str, n: int, mode: str, label: str | None):
    """The payload of one kind that ``run`` writes for dimension n, read off
    the dataset table in that Fourier mode, on a fresh solve (never the
    cache) of ``label`` alone or of the whole dimension."""
    items = _datasets(n, {DATASET_STAGE[kind]},
                      lambda: {label: solve_catalog_algebra(n, label)},
                      lambda: classify_dimension(n), mode, {})
    return next(payload for _, k, payload in items if k == kind)


def _summary_matches_expected(summary: dict, n: int) -> bool:
    """Whether a summary's counts are ints equal to ``golden.CENSUS[n]``:
    the algebra count always, the others when their stage ran."""
    want = dict(zip(CENSUS_KEYS, CENSUS[n]))
    return "algebras" in summary and all(
        type(summary[key]) is int and summary[key] == count
        for key, count in want.items() if key in summary)


def cmd_run(args) -> int:
    if args.algebra is not None:
        # --algebra restricts the coproducts stage; any other stage is
        # refused, not dropped.
        for stage in args.stage or ():
            if stage != "coproducts":
                print(f"f2hopf run: --algebra runs only the coproducts stage, not {stage!r}",
                      file=sys.stderr)
                return 2
        for n in args.dim:
            if args.algebra not in catalog(n).labels:
                print(f"f2hopf run: no algebra {args.algebra!r} in dimension {n}",
                      file=sys.stderr)
                return 2
    stages = set(args.stage or ["all" if args.algebra is None else "coproducts"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # fail before any solve
    status = 0
    for n in args.dim:
        summary = run_pipeline(n, stages, out_dir, not args.no_cache, args.mode, args.algebra)
        line = ", ".join(f"{k}={v}" for k, v in summary.items() if k != "dim")
        print(f"n={n}: {line}")
        if not _summary_matches_expected(summary, n):
            print(f"n={n}: MISMATCH against expected census", file=sys.stderr)
            status = 1
    return status


def verify_dataset(path: Path) -> list[str]:
    """Re-validate one emitted dataset against a fresh derivation.

    The records of algebras, raw and fourier files are first checked on
    their own (axioms, antipode, the identities of the Fourier data); when
    they pass, every dataset is compared with the one derived afresh.
    """
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    kind, payload = load_dataset(text)
    if kind == "summary":
        return _summary_problems(payload)
    if kind not in DATASET_STAGE:
        raise DatasetError(f"unknown schema kind {kind!r}")
    if kind == "reps":
        return _reps_problems(payload)
    if not isinstance(payload, list) or not all(isinstance(r, dict) for r in payload):
        return ["payload is not a list of records"]
    check = {"algebras": _algebra_record_problems, "raw": _raw_record_problems,
             "fourier": _fourier_identity_problems}.get(kind)
    problems = _record_problems(payload, check) if check else []
    return problems or _derived_problems(kind, payload, path.name)


def _record_problems(payload: list[dict], check) -> list[str]:
    """Run ``check(i, record)`` on every record.  A record that cannot be
    read (a missing field, a malformed value) is reported as a problem like
    any other, never raised."""
    problems = []
    for i, rec in enumerate(payload):
        try:
            problems.extend(check(i, rec))
        except (KeyError, ValueError, TypeError) as exc:
            problems.append(f"record {i}: unreadable ({type(exc).__name__}: {exc})")
    return problems


def _algebra_record_problems(i: int, rec: dict) -> list[str]:
    if rec["dim"] not in RELATIONS:
        return [f"record {i}: no catalog for dimension {rec['dim']!r}"]
    rep = check_algebra(serialize.algebra_from_record(rec))
    return [] if rep else [f"{rec['label']}: {rep.axiom} at {rep.index}"]


def _raw_record_problems(i: int, rec: dict) -> list[str]:
    """The bialgebra axioms, and a recorded antipode S by the antipode law
    S * id = eps eta = id * S, evaluated on each x^mu term by term over the
    bits nu*n + rho of Delta(x^mu): the sums of S(x^nu) x^rho and of
    x^nu S(x^rho).  A record without an antipode is left to the comparison
    with a fresh solve."""
    label = rec["algebra"]
    n = rec["dim"]
    a = catalog(n)[label].representative
    coalg = CoalgebraSC(n, tensor_from_hex(rec["C"]), tensor_from_hex(rec["epsilon"]))
    rep = check_bialgebra(Bialgebra(a, coalg))
    if not rep:
        return [f"{label}[{i}]: {rep.axiom} at {rep.index}"]
    if rec["hopf"] != ("antipode" in rec):
        return [f"{label}[{i}]: hopf flag mismatch"]
    if "antipode" in rec:
        s = mat_from_hex(rec["antipode"], n)
        fails = [f"{label}[{i}]: antipode law fails"]
        if len(s) != n:
            return fails
        for mu in range(n):
            left = right = 0
            for t in bits_of(coalg.cop(mu)):
                nu, rho = divmod(t, n)
                left ^= a.mul_vec(s[nu], 1 << rho)
                right ^= a.mul_vec(1 << nu, s[rho])
            if not left == right == a.eta * ((coalg.eps >> mu) & 1):
                return fails
    return []


def _fourier_identity_problems(i: int, rec: dict) -> list[str]:
    """The identities that hold within one fourier record.  The unit is the
    basis element x^0 and F[mu][nu] = I(x^nu x^mu), so row 0 of F is the
    integral I and F# is F transposed; the transport is F times the
    identification and has order transport_order.  n is F's row count, and
    a record whose n has no catalog is refused before any matrix is read:
    the order of an n x n matrix can reach 2^n - 1."""
    integral = tensor_from_hex(rec["I"])
    if not isinstance(rec["F"], str):
        raise TypeError(f"F is {type(rec['F']).__name__}, not a hex string")
    n = len(rec["F"].split(","))
    if n not in RELATIONS:
        return [f"record {i}: no catalog for dimension {n!r}"]
    f, f_sharp, ident, transport = (mat_from_hex(rec[key], n) for key in
                                    ("F", "F_sharp", "identification", "transport"))
    if len(ident) != n:
        raise ValueError(f"identification has {len(ident)} rows, not {n}")
    if f[0] != integral or f_sharp != mat_transpose_rows(f):
        return [f"record {i}: F and F_sharp are not the pairings of I"]
    if (mat_mul_rows(f, ident) != transport
            or mat_order_rows(transport) != rec["transport_order"]):
        return [f"record {i}: transport is not F * identification of its order"]
    return []


def _reps_problems(payload) -> list[str]:
    """Check every listed image tuple, then compare the whole dataset with a
    fresh derivation."""
    from f2hopf.golden import dsl2_presentation
    from f2hopf.reps import Representation, is_representation

    if not isinstance(payload, dict):
        return ["payload is not a mapping"]
    alg = dsl2_presentation().alg
    problems = []
    for k in (1, 2, 3):
        listed = payload.get(str(k))
        for i, images in enumerate(listed if isinstance(listed, list) else []):
            try:
                rep = Representation(k, tuple(mat_from_hex(m, k) for m in images))
                ok = len(images) == alg.n and is_representation(alg, rep)
            except (ValueError, TypeError, AttributeError, IndexError):
                ok = False
            if not ok:
                problems.append(f"k={k}[{i}]: not a representation")
    want = _derived("reps", 4, "computed", None)
    for key in sorted(want.keys() | payload.keys()):
        if canonical_json(payload.get(key)) != canonical_json(want.get(key)):
            problems.append(f"{key}: differs from the derived dataset")
    return problems


def _summary_problems(payload) -> list[str]:
    """Check a summary's counts against the published census of its
    dimension and its representation counts against golden.REP_COUNTS, and
    that it has no key a run does not write: representation counts only
    for n = 4."""
    if not isinstance(payload, dict):
        return ["payload is not a mapping"]
    n = payload.get("dim")
    if type(n) is not int or n not in RELATIONS:
        return [f"no catalog for dimension {n!r}"]
    keys = {"dim", *CENSUS_KEYS, *(["reps"] if n == 4 else [])}
    problems = [f"{key}: not a key of the summary of n={n}"
                for key in sorted(payload.keys() - keys)]
    if not _summary_matches_expected(payload, n):
        problems.append(f"counts differ from the census of n={n}")
    want_reps = {str(k): c for k, c in REP_COUNTS.items()}
    if "reps" in payload and canonical_json(payload["reps"]) != canonical_json(want_reps):
        problems.append("reps: differs from the representation counts")
    return problems


def _derived_problems(kind: str, payload: list[dict], file_name: str) -> list[str]:
    """Compare a list dataset, record by record, with the one ``run`` writes
    for the dimension its records name, read off the dataset table on a
    fresh solve (``_derived``).  The whole payload is compared first, then
    field by field to name what differs; both compare canonical JSON, so 1,
    1.0 and true differ.

    algebras and raw records carry their dimension, and raw records their
    algebra: a raw file holds the solutions of one algebra.  The name
    ``run`` gives it, raw_n<n>_<label>.json, names that algebra too: the
    records must agree with it, and an empty file is compared with the
    solutions of the algebra it names.  An empty raw file under any other
    name names no algebra and is refused.  classes, quiver, qt and fourier
    files do not record their dimension; it is the smallest whose catalog
    names every algebra label in the file, since each dimension's
    classification names an algebra that no smaller dimension has.  Fourier
    records that carry a fixture name belong to the fixture-mode file of
    n = 4.
    """
    # The records of algebras and raw files passed their own checks, so
    # each names a catalog dimension and algebra.
    mode, label = "computed", None
    if kind == "algebras":
        dims = {rec["dim"] for rec in payload}
        if len(dims) != 1:
            return ["records of no single dimension"]
        n = dims.pop()
    elif kind == "raw":
        names = {(rec["dim"], rec["algebra"]) for rec in payload}
        if len(names) > 1:
            return ["records of more than one algebra"]
        match = re.fullmatch(r"raw_n(\d+)_(.+)\.json", file_name)
        named = match and (int(match[1]), match[2])
        if names and named and names != {named}:
            (n, label), (name_n, name_label) = names.pop(), named
            return [f"records of algebra {label} of n={n}, "
                    f"the file name names {name_label} of n={name_n}"]
        if not names and not (named and named[1] in RELATIONS.get(named[0], ())):
            return ["no records, and the file name names no catalog algebra"]
        n, label = (names or {named}).pop()
    elif kind == "fourier" and any("name" in rec for rec in payload):
        n, mode = 4, "fixture"
    else:
        labels = {str(name) for rec in payload for name in _record_labels(kind, rec)}
        n = next((n for n in sorted(RELATIONS) if labels <= RELATIONS[n].keys()), None)
        if n is None:
            return ["algebra labels of no single dimension"]
    want = _derived(kind, n, mode, label)
    if canonical_json(payload) == canonical_json(want):
        return []
    problems = []
    if len(payload) != len(want):
        problems.append(f"{len(payload)} records, the derived dataset of n={n} has {len(want)}")
    for i, (got, exp) in enumerate(zip(payload, want)):
        for key in sorted(got.keys() | exp.keys()):
            if canonical_json(got.get(key)) != canonical_json(exp.get(key)):
                problems.append(f"{kind}[{i}] {key}: differs from the derived dataset of n={n}")
    return problems


def _record_labels(kind: str, rec: dict) -> list:
    """The algebra labels a classes, quiver, qt or fourier record names."""
    if kind in ("qt", "fourier"):
        typ = rec.get("type")
        return typ if isinstance(typ, list) else [typ]
    return [rec.get(f) for f in (("algebra", "type") if kind == "classes" else ("source", "target"))]


def cmd_verify(args) -> int:
    status = 0
    for name in args.paths:
        path = Path(name)
        try:
            problems = verify_dataset(path)
        except DatasetError as exc:
            print(f"{path}: schema error: {exc}", file=sys.stderr)
            status = 2
            continue
        except OSError as exc:
            print(f"{path}: cannot read: {exc.strerror}", file=sys.stderr)
            status = 2
            continue
        if problems:
            status = 1
            for p in problems:
                print(f"{path}: FAIL {p}")
        else:
            print(f"{path}: ok")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2hopf",
        description="Classify bialgebras and Hopf algebras over F2 (n <= 4)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run pipeline stages")
    run_p.add_argument("--dim", type=int, action="append", required=True,
                       choices=(1, 2, 3, 4))
    run_p.add_argument("--stage", action="append", default=None, choices=STAGES)
    run_p.add_argument("--algebra", default=None,
                       help="restrict the coproducts stage to one algebra label")
    run_p.add_argument("--mode", default="fixture", choices=("computed", "fixture"))
    # Hidden, and 1 only: perfbench/sample.py still passes --jobs 1.
    run_p.add_argument("--jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    run_p.add_argument("--out", default="f2hopf-out")
    run_p.add_argument("--no-cache", action="store_true")
    run_p.set_defaults(func=cmd_run)

    ver_p = sub.add_parser("verify", help="re-validate emitted datasets")
    ver_p.add_argument("paths", nargs="+")
    ver_p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # e.g. an --out or cache path that cannot be created
        print(f"f2hopf {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
