from collections import Counter

import pytest

from f2hopf.catalog import BASIS_NAMES, catalog, isomorphisms
from f2hopf.classify import (
    bialgebra_type,
    build_quiver,
    classify_dimension,
    classify_raw,
    dual_bialgebra,
    hopf_census,
    locate_class,
    self_duality_pairing,
)
from f2hopf.golden import (
    BIALGEBRA_GRAPH_DIM4,
    CENSUS,
    CLASS_COUNTS_DIM3,
    COPRODUCTS_DIM3,
    HOPF_ARROWS_DIM4,
    HOPF_CLASS_COUNTS_DIM4,
    HOPF_FIXTURES_DIM4,
    PAIRINGS,
    coalgebra_from_terms,
    dsl2_presentation,
)
from f2hopf.gf2 import enumerate_invertible
from f2hopf.structure import Bialgebra, check_bialgebra, dualize_coalgebra
from reference import (
    check_antipode_identities,
    classify_bialgebras_pairwise,
    naive_self_duality_pairing,
    orbit_class_rep,
    pairing_ok,
)


def named3(name):
    return next(e for e in COPRODUCTS_DIM3 if e.name == name)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census(n):
    assert hopf_census(n) == CENSUS[n][:3]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_carried_partition_equals_the_orbit_oracle(n, tmp_path, monkeypatch):
    # The classes a solve records, and the ones a run reads back from its
    # cache, are the orbits the oracle expands afresh for every algebra.
    from f2hopf import cli

    def forbidden(*args):
        raise AssertionError("a cache entry was not read")

    monkeypatch.delenv("F2HOPF_CACHE_ROOT", raising=False)
    fresh = cli._raw_solutions(n, tmp_path, True)
    monkeypatch.setattr(cli, "solve_coproducts", forbidden)
    cached = cli._raw_solutions(n, tmp_path, True)
    assert len(list((tmp_path / "cache").iterdir())) == len(catalog(n).classes)
    for cls in catalog(n).classes:
        rs = fresh[cls.label]
        assert rs.class_rep == orbit_class_rep(cls.representative, rs.solutions), cls.label
        assert cached[cls.label] == rs, cls.label


def test_class_structure_dim3():
    dim3 = classify_dimension(3)
    counts = Counter()
    for cls in dim3.all_classes():
        counts[(cls.algebra_label, cls.coalgebra_type)] += 1
        if cls.hopf:
            counts[(cls.algebra_label, cls.coalgebra_type, "hopf")] += 1
    for (alg, typ), (total, hopf) in CLASS_COUNTS_DIM3.items():
        assert counts[(alg, typ)] == total, (alg, typ)
        assert counts[(alg, typ, "hopf")] == hopf, (alg, typ)


def test_hopf_classes_dim4():
    dim4 = classify_dimension(4)
    per_alg = Counter(c.algebra_label for c in dim4.hopf_classes())
    assert dict(per_alg) == HOPF_CLASS_COUNTS_DIM4
    assert len(dim4.hopf_classes()) == 20


def test_orbits_uniform():
    dim4 = classify_dimension(4)
    for label in dim4.cat.labels:
        raw = dim4.raw[label]
        for cls in dim4.classes[label]:
            flags = {raw.solutions[i].hopf for i in cls.members}
            types = {raw.solutions[i].type_label for i in cls.members}
            assert len(flags) == 1 and len(types) == 1
        covered = sorted(i for cls in dim4.classes[label] for i in cls.members)
        assert covered == list(range(len(raw.solutions)))


@pytest.mark.parametrize("n", [2, 3])
def test_pairwise_method_agrees(n):
    dim = classify_dimension(n)
    for label in dim.cat.labels:
        raw = dim.raw[label]
        if not raw.solutions:
            continue
        pairwise = sorted(sorted(s) for s in
                          classify_bialgebras_pairwise(dim.cat[label].representative, raw))
        orbit = sorted(sorted(c.members) for c in dim.classes[label])
        assert pairwise == orbit, label


def test_pairwise_method_agrees_dim4_sample():
    # full 20160-matrix search on the algebras with printed tables, plus the
    # two largest rows that stay cheap
    dim = classify_dimension(4)
    for label in ("G", "I", "J", "M", "NF", "D", "C"):
        raw = dim.raw[label]
        pairwise = sorted(sorted(s) for s in
                          classify_bialgebras_pairwise(dim.cat[label].representative, raw))
        orbit = sorted(sorted(c.members) for c in dim.classes[label])
        assert pairwise == orbit, label


@pytest.mark.parametrize("n", [2, 3])
def test_classes_rebuilt_from_pairwise_partition(n):
    # Members, representatives (smallest tensor), class order (coalgebra
    # type, then representative tensor) and co-opposite partners, all
    # rebuilt from the GL(n) oracle's partition.
    from f2hopf.structure import opposite_coproduct

    dim = classify_dimension(n)
    for label in dim.cat.labels:
        sols = dim.raw[label].solutions
        groups = classify_bialgebras_pairwise(dim.cat[label].representative, dim.raw[label])
        reps = [min(g, key=lambda i: sols[i].coalg.c) for g in groups]
        order = sorted(range(len(groups)),
                       key=lambda k: (sols[reps[k]].type_label, sols[reps[k]].coalg.c))
        group_of = {i: pos for pos, k in enumerate(order) for i in groups[k]}
        index_of = {s.coalg.c: i for i, s in enumerate(sols)}
        want = [
            (sorted(groups[k]), sols[reps[k]],
             group_of.get(index_of.get(opposite_coproduct(sols[reps[k]].coalg).c)))
            for k in order
        ]
        got = [(list(c.members), c.representative, c.cop_partner)
               for c in dim.classes[label]]
        assert got == want, label


def test_representatives_are_smallest_members_dim4():
    dim = classify_dimension(4)
    for label in dim.cat.labels:
        sols = dim.raw[label].solutions
        classes = dim.classes[label]
        for cls in classes:
            assert cls.representative is sols[cls.members[0]]
            assert all(sols[i].coalg.c > cls.representative.coalg.c
                       for i in cls.members[1:])
        keys = [(c.coalgebra_type, c.representative.coalg.c) for c in classes]
        assert keys == sorted(keys)


def test_quiver_dim2():
    q = build_quiver(classify_dimension(2))
    got = {(a.source, a.target): (a.multiplicity, a.hopf_multiplicity)
           for a in q.arrows}
    assert got == {
        ("A", "A"): (1, 1), ("A", "B"): (1, 1),
        ("B", "A"): (1, 1), ("B", "B"): (1, 0),
    }
    assert q.total_bialgebras == 4 and q.total_hopf == 3


def test_quiver_dim3():
    q = build_quiver(classify_dimension(3))
    got = {(a.source, a.target): (a.multiplicity, a.hopf_multiplicity)
           for a in q.arrows}
    assert got == CLASS_COUNTS_DIM3
    assert q.total_bialgebras == 24


def test_quiver_dim4():
    q = build_quiver(classify_dimension(4))
    got = {(a.source, a.target): (a.multiplicity, a.hopf_multiplicity)
           for a in q.arrows}
    assert got == BIALGEBRA_GRAPH_DIM4
    assert sorted(q.hopf_arrows()) == sorted(HOPF_ARROWS_DIM4)
    assert q.total_bialgebras == 286 and q.total_hopf == 20


def test_distinct_counts_per_analysed_algebra_dim4():
    # published per-algebra distinct totals: G 4 (all Hopf), I 4, J 5, M 3,
    # NF 2 (all Hopf)
    q = build_quiver(classify_dimension(4))
    row_totals = Counter()
    for a in q.arrows:
        row_totals[a.source] += a.multiplicity
    assert row_totals["G"] == 4
    assert row_totals["I"] == 4
    assert row_totals["J"] == 5
    assert row_totals["M"] == 3
    assert row_totals["NF"] == 2


def test_dim3_noncommutative_or_noncocommutative_count():
    # twelve of the 24 distinct dimension-3 bialgebras touch the
    # noncommutative algebra G on either side
    q = build_quiver(classify_dimension(3))
    touching = sum(
        a.multiplicity for a in q.arrows if "G" in (a.source, a.target)
    )
    assert touching == 12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quiver_dual_symmetry(n):
    q = build_quiver(classify_dimension(n))
    for a in q.arrows:
        back = q.arrow(a.target, a.source)
        assert back is not None and back.multiplicity == a.multiplicity
        assert back.hopf_multiplicity == a.hopf_multiplicity


def test_at_most_one_hopf_per_type():
    for n in (2, 3, 4):
        for a in build_quiver(classify_dimension(n)).arrows:
            assert a.hopf_multiplicity <= 1


def test_cop_partners():
    dim3 = classify_dimension(3)
    for label in dim3.cat.labels:
        classes = dim3.classes[label]
        for i, cls in enumerate(classes):
            assert cls.cop_partner is not None
            partner = classes[cls.cop_partner]
            assert partner.cop_partner == i
    # The two (B, G*) classes are co-opposites of each other, not themselves.
    bg = [i for i, c in enumerate(dim3.classes["B"]) if c.coalgebra_type == "G"]
    assert len(bg) == 2
    assert dim3.classes["B"][bg[0]].cop_partner == bg[1]


def test_dual_bialgebra_small():
    dim2 = classify_dimension(2)
    f2z2 = Bialgebra(
        catalog(2)["A"].representative,
        coalgebra_from_terms(BASIS_NAMES[2], "1", x="1.x x.1 x.x"),
    )
    d = dual_bialgebra(f2z2)
    assert check_bialgebra(d)
    assert bialgebra_type(d) == ("B", "A")
    assert bialgebra_type(f2z2) == ("A", "B")


def test_locate_class_reads_the_given_dimension(monkeypatch):
    from f2hopf import classify

    dim3 = classify_raw(3, classify_dimension(3).raw)

    def no_solve(*args, **kwargs):
        raise AssertionError("locate_class solved coproducts")

    monkeypatch.setattr(classify, "solve_coproducts", no_solve)
    monkeypatch.setattr(classify, "classify_dimension", no_solve)
    alg_c = catalog(3)["C"].representative
    found = locate_class(dim3, dual_bialgebra(Bialgebra(alg_c, named3("C.1").coalg)))
    assert found is locate_class(dim3, Bialgebra(alg_c, named3("C.3").coalg))
    assert found in dim3.classes["C"]


def test_dual_bialgebra_c1_c3():
    dim3 = classify_dimension(3)
    alg_c = catalog(3)["C"].representative
    c1 = Bialgebra(alg_c, named3("C.1").coalg)
    c3 = Bialgebra(alg_c, named3("C.3").coalg)
    assert locate_class(dim3, dual_bialgebra(c1)) is locate_class(dim3, c3)


def test_double_dual():
    dim3 = classify_dimension(3)
    for name in ("B.19", "C.1", "G.5", "D.1"):
        bi = Bialgebra(catalog(3)[name[0]].representative, named3(name).coalg)
        dd = dual_bialgebra(dual_bialgebra(bi))
        assert locate_class(dim3, dd) is locate_class(dim3, bi)


def test_dual_of_every_raw_solution_is_bialgebra():
    for n in (2, 3, 4):
        dim = classify_dimension(n)
        for label in dim.cat.labels:
            for s in dim.raw[label].solutions:
                d = dual_bialgebra(Bialgebra(dim.cat[label].representative, s.coalg))
                assert check_bialgebra(d)
    from f2hopf.golden import TABLES_DIM4

    for e in TABLES_DIM4:
        d = dual_bialgebra(Bialgebra(catalog(4)[e.algebra_label].representative, e.coalg))
        assert bialgebra_type(d) == (e.dual_label, e.algebra_label)


def test_antipode_consequences_on_all_classified_hopf():
    from f2hopf.structure import HopfAlgebra

    for n in (2, 3, 4):
        dim = classify_dimension(n)
        for cls in dim.hopf_classes():
            h = HopfAlgebra(
                Bialgebra(dim.cat[cls.algebra_label].representative,
                          cls.representative.coalg),
                cls.representative.antipode,
            )
            assert check_antipode_identities(h), (n, cls.algebra_label)


def test_published_pairings_verify():
    alg_b = catalog(3)["B"].representative
    assert pairing_ok(Bialgebra(alg_b, named3("B.19").coalg), PAIRINGS["B.19"])
    alg_c = catalog(3)["C"].representative
    assert pairing_ok(Bialgebra(alg_c, named3("C.6").coalg), PAIRINGS["C.6"])
    g2 = next(f for f in HOPF_FIXTURES_DIM4 if f.name == "G.2")
    assert pairing_ok(g2.bialgebra(), PAIRINGS["G.2"])
    assert pairing_ok(dsl2_presentation().bi, PAIRINGS["d_sl2"])
    gra = Bialgebra(
        catalog(2)["A"].representative,
        coalgebra_from_terms(BASIS_NAMES[2], "1", x="1.x x.1"),
    )
    assert pairing_ok(gra, PAIRINGS["gra"])
    proj = Bialgebra(
        catalog(2)["B"].representative,
        coalgebra_from_terms(BASIS_NAMES[2], "1+x", x="x.x"),
    )
    assert pairing_ok(proj, PAIRINGS["projector"])


def test_pairing_search_returns_published():
    cases = [
        (Bialgebra(catalog(3)["B"].representative, named3("B.19").coalg), "B.19"),
        (Bialgebra(catalog(3)["C"].representative, named3("C.6").coalg), "C.6"),
        (next(f for f in HOPF_FIXTURES_DIM4 if f.name == "G.2").bialgebra(), "G.2"),
        (dsl2_presentation().bi, "d_sl2"),
    ]
    for bi, key in cases:
        found = self_duality_pairing(bi)
        assert found is not None
        assert found.rows == PAIRINGS[key].rows


def test_no_pairing_for_mismatched_type():
    # (B, C*) in dimension 3 is not self-paired: the pairing search fails.
    bi = Bialgebra(catalog(3)["B"].representative, named3("B.1").coalg)
    assert self_duality_pairing(bi) is None


def test_dim3_self_dual_classes():
    # Exactly two of the 24 distinct dimension-3 bialgebras are self-dual:
    # the (B, B*) class and one of the three (C, C*) classes.  The dual pair
    # (C, C.1) / (C, C.3) admits no self-pairing.
    alg_c = catalog(3)["C"].representative
    assert self_duality_pairing(Bialgebra(alg_c, named3("C.6").coalg)) is not None
    assert self_duality_pairing(Bialgebra(alg_c, named3("C.1").coalg)) is None
    assert self_duality_pairing(Bialgebra(alg_c, named3("C.3").coalg)) is None
    alg_b = catalog(3)["B"].representative
    assert self_duality_pairing(Bialgebra(alg_b, named3("B.19").coalg)) is not None


def test_pairing_search_matches_gl_scan():
    cases = []
    for n in (2, 3, 4):
        dim = classify_dimension(n)
        classes = dim.all_classes() if n < 4 else dim.hopf_classes()
        cases += [Bialgebra(dim.cat[c.algebra_label].representative, c.representative.coalg)
                  for c in classes]
    found = [self_duality_pairing(bi) for bi in cases]
    assert found == [naive_self_duality_pairing(bi) for bi in cases]
    assert None in found and any(p is not None for p in found)


def test_pairing_is_an_isomorphism_with_isomorphic_transpose():
    # The identity the pairing search rests on: P is a self-pairing exactly
    # when P and its transpose are both algebra isomorphisms onto H*.
    for n in (2, 3):
        dim = classify_dimension(n)
        for c in dim.all_classes():
            bi = Bialgebra(dim.cat[c.algebra_label].representative, c.representative.coalg)
            isos = isomorphisms(bi.alg, dualize_coalgebra(bi.coalg))
            for p in enumerate_invertible(n):
                assert pairing_ok(bi, p) == (p in isos and p.transpose() in isos)


def test_antipode_orders():
    dsl2 = dsl2_presentation()
    from f2hopf.structure import solve_antipode

    s = solve_antipode(dsl2.bi)
    assert not s.power(2).is_identity()
    assert s.power(4).is_identity()
    dim4 = classify_dimension(4)
    for cls in dim4.hopf_classes():
        comm = catalog(4)[cls.algebra_label].commutative
        cocomm = catalog(4)[cls.coalgebra_type].commutative
        if comm or cocomm:
            assert cls.representative.antipode.power(2).is_identity()
