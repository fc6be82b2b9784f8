"""Acceptance suite: every shipped claim, one criterion per test, each
printing a PASS/FAIL line (run with -s to see them on success).

All checks are exact; the timing limits are generous end-to-end budgets for
a commodity multi-core machine.  Criterion 8 is split: the classification
counts, and the factorisability of the sixteen Grassmann-plane structures,
where the published 'never factorisable' clause is an erratum that the test
corrects and proves with the naive oracles in ``reference.py`` (see the
test's comment).
"""

import subprocess
import sys
import time
from collections import Counter

from f2hopf.catalog import BASIS_NAMES, catalog
from f2hopf.classify import (
    build_quiver,
    classify_dimension,
    hopf_census,
)
from f2hopf.coproducts import solve_coproducts
from f2hopf.fourier import (
    adjoint_round_trip,
    canonical_round_trip,
    fourier_matrices,
    holonomy,
    transport_matrix,
)
from f2hopf.gf2 import mat_order_rows
from f2hopf.golden import (
    BIALGEBRA_GRAPH_DIM4,
    CENSUS,
    CLASS_COUNTS_DIM3,
    COPRODUCTS_DIM3,
    HOLONOMY_CYCLES,
    HOLONOMY_MATRICES,
    HOLONOMY_ORDERS,
    HOPF_ARROWS_DIM4,
    HOPF_CLASS_COUNTS_DIM4,
    HOPF_FIXTURES_DIM4,
    PAIRINGS,
    QT_COUNTS_DIM4,
    QT_PAIR_CENSUS,
    RAW_COUNTS,
    REP_COUNTS,
    SELF_DUAL_FOURIER,
    TABLES_DIM4,
    TENSOR_TABLE,
    dsl2_presentation,
    parse_tensor_terms,
    qt_family_grassmann_plane,
)
from f2hopf.qtri import enumerate_quasitriangular, qt_by_class, qt_pairs, yang_baxter_ok
from f2hopf.structure import (
    Bialgebra,
    check_bialgebra,
    solve_antipode,
)
from reference import pairing_ok


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {criterion}{suffix}")
    assert ok, f"criterion {criterion}{suffix}"


def test_criterion_1_census_and_runtime():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        want = CENSUS[n]
        ok &= hopf_census(n) == want[:3]
        ok &= qt_pairs(qt_by_class(classify_dimension(n))) == want[3]
    build_quiver(classify_dimension(4))
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 600
    report("1 census + full pipeline", ok, f"n=4 pipeline {elapsed:.1f}s")


def test_criterion_2_raw_counts():
    ok = True
    for n in (3, 4):
        dim = classify_dimension(n)
        for label, want in RAW_COUNTS[n].items():
            ok &= len(dim.raw[label]) == want
    report("2 raw coproduct counts", ok)


def test_criterion_3_appendix_regression():
    ok = True
    grouped = {}
    for e in COPRODUCTS_DIM3:
        grouped.setdefault(e.algebra_label, []).append(e)
    ok &= {k: len(v) for k, v in grouped.items()} == {
        "B": 33, "C": 8, "D": 3, "G": 8,
    }
    dim3 = classify_dimension(3)
    for label, entries in grouped.items():
        solver = {(s.coalg.c, s.coalg.eps) for s in dim3.raw[label].solutions}
        ok &= {(e.coalg.c, e.coalg.eps) for e in entries} == solver
        by_tensor = {s.coalg.c: s for s in dim3.raw[label].solutions}
        for e in entries:
            s = by_tensor[e.coalg.c]
            ok &= s.type_label == e.dual_label
            ok &= s.hopf == e.hopf
    report("3 appendix regression (33+8+3+8 with dual annotations)", ok)


def test_criterion_4_distinct_classes():
    ok = True
    dim3 = classify_dimension(3)
    counts3 = Counter(
        (c.algebra_label, c.coalgebra_type, c.hopf) for c in dim3.all_classes()
    )
    for (alg, typ), (total, hopf) in CLASS_COUNTS_DIM3.items():
        ok &= counts3[(alg, typ, True)] + counts3[(alg, typ, False)] == total
        ok &= counts3[(alg, typ, True)] == hopf
    dim4 = classify_dimension(4)
    per_alg = Counter(c.algebra_label for c in dim4.hopf_classes())
    ok &= dict(per_alg) == HOPF_CLASS_COUNTS_DIM4
    ok &= len(dim4.hopf_classes()) == 20
    for n in (2, 3, 4):
        for a in build_quiver(classify_dimension(n)).arrows:
            ok &= a.hopf_multiplicity <= 1
    report("4 distinct-class structure", ok)


def test_criterion_5_quivers():
    ok = True
    q2 = build_quiver(classify_dimension(2))
    ok &= len(q2.arrows) == 4 and q2.total_hopf == 3
    q4 = build_quiver(classify_dimension(4))
    ok &= sorted(q4.hopf_arrows()) == sorted(HOPF_ARROWS_DIM4)
    got = {(a.source, a.target): (a.multiplicity, a.hopf_multiplicity)
           for a in q4.arrows}
    ok &= got == BIALGEBRA_GRAPH_DIM4
    ok &= q4.total_bialgebras == 286
    for a in q4.arrows:
        back = q4.arrow(a.target, a.source)
        ok &= back is not None and back.multiplicity == a.multiplicity
    report("5 quiver outputs", ok)


def test_criterion_6_named_structures():
    ok = True
    for e in TABLES_DIM4:
        alg = catalog(4)[e.algebra_label].representative
        bi = Bialgebra(alg, e.coalg)
        ok &= bool(check_bialgebra(bi))
        s = solve_antipode(bi)
        ok &= (s is not None) == e.hopf
        if e.antipode is not None:
            ok &= s == e.antipode
    h = dsl2_presentation()
    ok &= pairing_ok(h.bi, PAIRINGS["d_sl2"])
    s = solve_antipode(h.bi)
    ok &= mat_order_rows(s) == 4

    def named3(name):
        return next(x for x in COPRODUCTS_DIM3 if x.name == name)

    ok &= pairing_ok(
        Bialgebra(catalog(3)["B"].representative, named3("B.19").coalg),
        PAIRINGS["B.19"],
    )
    g2 = next(f for f in HOPF_FIXTURES_DIM4 if f.name == "G.2")
    ok &= pairing_ok(g2.bialgebra(), PAIRINGS["G.2"])
    report("6 named-structure fixtures", ok)


def test_criterion_7_integrals_and_fourier():
    ok = True
    transports = {}
    for fx in HOPF_FIXTURES_DIM4:
        h = fx.hopf()
        i, f, _ = fourier_matrices(h)
        ok &= i == fx.integral
        ok &= f == fx.fourier
        t = transport_matrix(h, fx.dual_basis)
        ok &= t == fx.transport
        transports[(fx.algebra_label, fx.coalgebra_type)] = t
        # round trip through the dual pair gives the antipode: canonically in
        # the cocommutative case, through the adjoint way back in general
        if catalog(4)[fx.coalgebra_type].commutative:
            ok &= canonical_round_trip(h) == fx.antipode
        ok &= adjoint_round_trip(h) == fx.antipode
    orders = [mat_order_rows(m) for m, _ in SELF_DUAL_FOURIER.values()]
    ok &= sorted(orders) == [2, 2, 2, 3]
    for cycle, want, order in zip(HOLONOMY_CYCLES, HOLONOMY_MATRICES,
                                  HOLONOMY_ORDERS):
        m, got_order = holonomy([transports[a] for a in cycle])
        ok &= m == want and got_order == order
    report("7 integrals & Fourier", ok)


def test_criterion_8_quasitriangular_counts():
    t0 = time.monotonic()
    ok = True
    # the R-matrices of every Hopf class, enumerated once per dimension
    structures_by_dim = {n: qt_by_class(classify_dimension(n)) for n in (2, 3, 4)}
    # dimension 2 and 3
    dim2 = classify_dimension(2)
    gra_cls = next(c for c in dim2.classes["A"] if c.coalgebra_type == "A")
    sols = enumerate_quasitriangular(
        Bialgebra(dim2.cat["A"].representative, gra_cls.representative.coalg)
    )
    ok &= len(sols) == 2 and all(s.triangular for s in sols)
    for key, structures in structures_by_dim[3].items():
        ok &= len(structures) == 1 and structures[0].trivial
    # dimension 4 counts per class
    by_cls = structures_by_dim[4]
    for key, (total, nontrivial) in QT_COUNTS_DIM4.items():
        ok &= len(by_cls[key]) == total
        ok &= sum(1 for s in by_cls[key] if not s.trivial) == nontrivial
    # triangular/factorisable split on the double
    dd = enumerate_quasitriangular(
        next(f for f in HOPF_FIXTURES_DIM4 if f.name == "D.2").bialgebra()
    )
    ok &= Counter(s.klass for s in dd) == {"trivial": 1, "strict": 2,
                                           "triangular": 1}
    ok &= all(s.factorisable == (s.klass == "strict") for s in dd)
    # d_sl2 and c[B+]
    ok &= sum(1 for s in by_cls[("NF", "NF")] if s.triangular and not s.trivial) == 2
    ok &= len(by_cls[("E", "NF")]) == 0
    # Yang-Baxter holds for every enumerated structure
    for n in (2, 3, 4):
        dim = classify_dimension(n)
        for cls in dim.hopf_classes():
            bi = Bialgebra(dim.cat[cls.algebra_label].representative,
                           cls.representative.coalg)
            for s in structures_by_dim[n][(cls.algebra_label, cls.coalgebra_type)]:
                ok &= yang_baxter_ok(bi, s.r)
    ok &= qt_pairs(by_cls) == QT_PAIR_CENSUS[4]
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 60
    report("8 quasitriangular census", ok, f"{elapsed:.1f}s")


def test_criterion_8_grassmann_plane_never_factorisable():
    # The published tables say no structure on the Grassmann plane E.1 is
    # factorisable; that clause is corrected here.  E.1 is F2[x,y]/(x^2, y^2)
    # with z = xy and x, y primitive: the Drinfeld double of the Grassmann
    # line, whose canonical R = 1.1 + x.y is one of the sixteen structures.
    # Its Killing form Q = R21 R = 1.1 + x.y + y.x + z.z has a permutation
    # matrix as coefficient matrix, so it is nondegenerate and R is
    # factorisable, as every Drinfeld double is (Reshetikhin & Semenov-Tian-
    # Shansky, J. Geom. Phys. 5, 1988).  Factorisable holds exactly
    # for the eight strict (non-symmetric r) structures; the eight triangular
    # ones have Q = 1.1, of rank 1.  The naive oracles below recompute every
    # Killing form and its rank without qtri or gf2.
    from reference import (
        naive_killing_form,
        naive_rank,
        unpack_square,
        unpack_tensor,
    )

    names = BASIS_NAMES[4]
    bi = next(f for f in HOPF_FIXTURES_DIM4 if f.name == "E.1").bialgebra()
    sols = enumerate_quasitriangular(bi)
    want = dict(qt_family_grassmann_plane())
    double_form = parse_tensor_terms("1.1 x.y y.x z.z", names)
    ok = len(sols) == 16
    ok &= sorted(s.r for s in sols) == sorted(want)
    for s in sols:
        ok &= s.triangular == want.get(s.r)
        ok &= s.factorisable == (not s.triangular)
        if not s.triangular:
            ok &= s.q == double_form
    # independent oracle: naive Killing form and GF(2) rank for every R
    v = unpack_tensor(bi.alg.v, 4)
    for s in sols:
        q = naive_killing_form(v, unpack_square(s.r, 4), 4)
        ok &= q == unpack_square(s.q, 4)
        ok &= (naive_rank(q) == 4) == s.factorisable
    canonical = parse_tensor_terms("1.1 x.y", names)
    ok &= any(s.r == canonical for s in sols)
    q = naive_killing_form(v, unpack_square(canonical, 4), 4)
    rank = naive_rank(q)
    ok &= q == unpack_square(double_form, 4) and rank == 4
    report("8 Grassmann plane factorisable iff strict (published 'never "
           "factorisable' clause corrected)", ok,
           f"{sum(1 for s in sols if s.factorisable)} of {len(sols)} "
           f"factorisable; canonical R = 1.1 + x.y has Q of rank {rank}")


def test_criterion_9_representations():
    t0 = time.monotonic()
    from f2hopf.golden import DUAL_REPS, REP_1, REP_1BAR, REP_2, REP_2BAR
    from f2hopf.reps import (
        direct_sum,
        dual_rep,
        enumerate_reps,
        equivalence_classes,
        equivalent_by_conjugation,
        invariant_line,
        regular_rep,
        Representation,
        tensor_rep,
    )

    h = dsl2_presentation()
    ok = True
    counts = {}
    for k in (1, 2, 3):
        counts[k] = len(enumerate_reps(h.alg, k))
        ok &= counts[k] == REP_COUNTS[k]
    convention = "raw" if counts[3] == REP_COUNTS[3] else "classes"
    classes2 = len(equivalence_classes(enumerate_reps(h.alg, 2)))

    def named(key):
        fixture = {"1": REP_1, "1b": REP_1BAR, "2": REP_2, "2b": REP_2BAR}[key]
        k = len(fixture["s"])
        return Representation(
            k, (tuple(1 << i for i in range(k)), fixture["s"], fixture["x"], fixture["w"])
        )

    for a, b in DUAL_REPS.items():
        ok &= equivalent_by_conjugation(dual_rep(h, named(a)), named(b)) is not None
    for (a, b), want in TENSOR_TABLE.items():
        t = tensor_rep(h, named(a), named(b))
        target = (named(want[0]) if len(want) == 1
                  else direct_sum(named(want[0]), named(want[1])))
        ok &= equivalent_by_conjugation(t, target) is not None
    ok &= invariant_line(named("2"), 0b11, named("1"))
    ok &= invariant_line(named("2b"), 0b11, named("1b"))
    ok &= equivalent_by_conjugation(
        direct_sum(named("2"), named("2b")), regular_rep(h.alg)
    ) is not None
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 900
    report(
        "9 representations",
        ok,
        f"counts {counts[1]}/{counts[2]}/{counts[3]} ({convention} convention, "
        f"{classes2} classes at size 2), {elapsed:.1f}s",
    )


def test_criterion_10_property_suites():
    import random

    from f2hopf.structure import (
        AlgebraSC,
        CoalgebraSC,
        check_algebra,
        check_coalgebra,
        dualize_algebra,
        dualize_coalgebra,
        opposite,
    )
    from f2hopf.qtri import coquasitriangular_direct
    from reference import (
        brute_force_coproduct_set,
        naive_check_algebra,
        naive_check_coalgebra,
        unpack_tensor,
        unpack_vec,
    )

    ok = True
    # evaluators against the naive reference on 10,000 random tensors
    rng = random.Random(2024)
    for _ in range(5000):
        n = rng.choice([2, 3, 4])
        t = rng.getrandbits(n**3)
        eta = rng.getrandbits(n) | 1
        got = check_algebra(AlgebraSC(n, t, eta))
        ok &= (got.ok, got.axiom, got.index) == naive_check_algebra(
            unpack_tensor(t, n), unpack_vec(eta, n), n
        )
    for _ in range(5000):
        n = rng.choice([2, 3, 4])
        t = rng.getrandbits(n**3)
        eps = rng.getrandbits(n) | 1
        got = check_coalgebra(CoalgebraSC(n, t, eps))
        ok &= (got.ok, got.axiom, got.index) == naive_check_coalgebra(
            unpack_tensor(t, n), unpack_vec(eps, n), n
        )
    # solver vs brute force: every dimension-2 algebra and dimension-3 D
    for cls in catalog(2).classes:
        rs = solve_coproducts(cls.representative, cls.label)
        ok &= brute_force_coproduct_set(2, cls.label) == {
            (s.coalg.c, s.coalg.eps) for s in rs.solutions
        }
    rs = solve_coproducts(catalog(3)["D"].representative, "D")
    ok &= brute_force_coproduct_set(3, "D") == {
        (s.coalg.c, s.coalg.eps) for s in rs.solutions
    }
    # dualize and opposite are involutions on the named structures
    for e in COPRODUCTS_DIM3:
        ok &= dualize_algebra(dualize_coalgebra(e.coalg)).c == e.coalg.c
        bi = Bialgebra(catalog(3)[e.algebra_label].representative, e.coalg)
        ok &= opposite(opposite(bi, "coproduct"), "coproduct").coalg.c == e.coalg.c
    # quasitriangular / coquasitriangular duality on all dual pairs
    by_name = {fx.name: fx for fx in HOPF_FIXTURES_DIM4}
    for name, dual_name in (
        ("D.2", "D.2"), ("D.1", "E.2"), ("E.1", "E.1"), ("E.5", "G.1"),
        ("E.15", "L.6"), ("E.16", "M.2"), ("E.38", "P.1"), ("E.40", "NF.1"),
        ("G.2", "G.2"), ("G.6", "L.11"), ("G.5", "P.3"), ("NF.2", "NF.2"),
    ):
        qt_count = len(enumerate_quasitriangular(by_name[name].bialgebra()))
        coqt_count = len(coquasitriangular_direct(by_name[dual_name].bialgebra()))
        ok &= qt_count == coqt_count
    # determinism: two separate processes emit byte-identical files
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for sub in ("a", "b"):
            out = Path(tmp) / sub
            proc = subprocess.run(
                [sys.executable, "-m", "f2hopf.cli", "run", "--dim", "2",
                 "--dim", "3", "--out", str(out)],
                capture_output=True,
            )
            ok &= proc.returncode == 0
            outs.append(out)
        for path in sorted(outs[0].rglob("*.json")):
            other = outs[1] / path.relative_to(outs[0])
            ok &= path.read_bytes() == other.read_bytes()
    report("10 property suites", ok)
