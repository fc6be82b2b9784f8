import functools
import random

import pytest

from f2hopf import kernels
from f2hopf.catalog import (
    RELATIONS,
    algebra_from_relations,
    algebra_invariant,
    automorphism_group,
    catalog,
    classify_algebras,
    enumerate_algebras,
    identify_algebra,
    isomorphisms,
    standardize_unit,
)
from f2hopf.gf2 import enumerate_invertible, mat_inv_rows, mat_mul_rows
from f2hopf.golden import COPRODUCTS_DIM3
from f2hopf.structure import (
    TensorProductAlgebra,
    apply_basis_change_algebra,
    check_algebra,
    dualize_coalgebra,
)
from reference import quartic_algebra


def test_catalog_sizes():
    assert len(catalog(2).classes) == 3
    assert len(catalog(3).classes) == 7
    assert len(catalog(4).classes) == 25


def test_catalog_entries_valid():
    for n in (2, 3, 4):
        for cls in catalog(n).classes:
            assert check_algebra(cls.representative), cls.label


def test_commutativity_split():
    assert [c.label for c in catalog(3).classes if not c.commutative] == ["G"]
    noncomm4 = [c.label for c in catalog(4).classes if not c.commutative]
    assert len(noncomm4) == 9
    assert all(label.startswith("N") for label in noncomm4)


def test_orbit_sizes_sum_to_enumeration():
    assert sum(c.orbit_size for c in catalog(4).classes) == 8184
    assert sum(c.orbit_size for c in catalog(3).classes) == 76
    assert sum(c.orbit_size for c in catalog(2).classes) == 4


@functools.cache
def unit_fixing_scan(n: int, label: str) -> tuple[set[int], list[tuple[int, ...]]]:
    """Oracle: the images of a class representative under every unit-fixing
    basis change, and the changes that fix it (its stabiliser), in the order
    of gf2.enumerate_invertible."""
    v = catalog(n)[label].representative.v
    images, stabiliser = set(), []
    for m in enumerate_invertible(n, fix_unit=True):
        img = kernels.transform_product(v, n, m)
        images.add(img)
        if img == v:
            stabiliser.append(m)
    return images, stabiliser


def test_orbits_are_the_invariant_classes():
    # Classification by invariant puts every enumerated tensor into the
    # unit-fixing orbit of its class's representative, and nowhere else;
    # the orbit-stabiliser size and the smallest member agree as well.
    for n in (2, 3, 4):
        buckets = classify_algebras(enumerate_algebras(n))
        assert set(buckets) == set(catalog(n).labels)
        for cls in catalog(n).classes:
            orbit, _ = unit_fixing_scan(n, cls.label)
            members = {a.v for a in buckets[cls.label]}
            assert orbit == members, cls.label
            assert len(orbit) == cls.orbit_size, cls.label
            assert min(orbit) == min(members), cls.label


def test_catalog_rejects_entries_sharing_an_invariant(monkeypatch):
    # The same relation table under a second label must fail at load time.
    monkeypatch.setitem(RELATIONS, 3, {**RELATIONS[3], "C2": "x*x=x"})
    with pytest.raises(RuntimeError, match="C and C2 share an invariant"):
        catalog.__wrapped__(3)


def test_automorphism_group_orders():
    assert len(catalog(3)["B"].automorphisms) == 6
    assert len(catalog(3)["C"].automorphisms) == 1
    assert len(catalog(3)["D"].automorphisms) == 2
    assert len(catalog(4)["G"].automorphisms) == 4
    assert len(catalog(4)["NF"].automorphisms) == 8
    assert len(catalog(4)["M"].automorphisms) == 3


def test_automorphism_group_closed():
    for label in ("B", "G"):
        cls = catalog(3)[label]
        group = set(cls.automorphisms)
        mats = automorphism_group(cls.representative)
        assert set(mats) == group
        for a in mats:
            assert mat_inv_rows(a, 3) in group
            for b in mats:
                assert mat_mul_rows(a, b) in group


def test_automorphism_group_is_shared_with_the_catalog():
    # Solved once per algebra: the coproduct solve reads the catalog's group.
    cls = catalog(4)["P"]
    assert automorphism_group(cls.representative) is cls.automorphisms


def test_isomorphisms_are_the_catalog_automorphisms():
    # The catalog's automorphisms are exactly the stabiliser a scan of the
    # unit-fixing GL(n) finds, in the same (lexicographic) order.
    for n in (2, 3, 4):
        for cls in catalog(n).classes:
            _, stabiliser = unit_fixing_scan(n, cls.label)
            assert list(cls.automorphisms) == stabiliser, cls.label


def test_isomorphisms_between_classes():
    a = catalog(3)["G"].representative
    assert isomorphisms(a, catalog(3)["C"].representative) == []
    assert isomorphisms(a, catalog(4)["NC"].representative) == []
    moved = apply_basis_change_algebra(a, enumerate_invertible(3)[100])
    found = isomorphisms(a, moved)
    assert len(found) == len(catalog(3)["G"].automorphisms)
    for p in found:
        # Row i of p is the image of e_i, so p is the basis change that
        # moves the image algebra back onto a.
        assert apply_basis_change_algebra(moved, p).v == a.v


def test_catalog_rejects_unknown_dimension():
    for n in (0, 5, 7):
        with pytest.raises(ValueError):
            catalog(n)


def test_enumerate_counts():
    assert len(enumerate_algebras(1)) == 1
    assert len(enumerate_algebras(2)) == 4
    assert len(enumerate_algebras(3)) == 76
    assert len(enumerate_algebras(4)) == 8184


def test_enumerate_dim2_brute_force():
    # Every standard-form tensor (unit rows forced, the (n-1)^2 products of
    # x^1..x^(n-1) free) filtered by the full axiom checker: all 4 of n = 2
    # are associative, and 76 of the 4,096 of n = 3.  The enumeration lists
    # each once, strictly ascending by packed tensor.
    from f2hopf.structure import AlgebraSC

    for n, count in ((2, 4), (3, 76)):
        fixed = sum((1 << i) << (i * n) | (1 << i) << (i * n * n) for i in range(n))
        found = []
        for bits in range(1 << ((n - 1) ** 2 * n)):
            v = fixed
            for k, (mu, nu) in enumerate((mu, nu) for mu in range(1, n) for nu in range(1, n)):
                v |= ((bits >> (k * n)) & ((1 << n) - 1)) << ((mu * n + nu) * n)
            if check_algebra(alg := AlgebraSC(n, v)):
                found.append(alg.v)
        algebras = [a.v for a in enumerate_algebras(n)]
        assert sorted(found) == algebras and len(algebras) == count
        assert all(x < y for x, y in zip(algebras, algebras[1:]))


def test_enumerate_all_valid_and_classified():
    algs = enumerate_algebras(3)
    assert all(check_algebra(a) for a in algs)
    buckets = classify_algebras(algs)
    assert set(buckets) == set(catalog(3).labels)
    buckets4 = classify_algebras(enumerate_algebras(4))
    assert len(buckets4) == 25
    for label, members in buckets4.items():
        assert len(members) == catalog(4)[label].orbit_size


def test_quartic_identifications():
    # x^4 = a x^3 + b x^2 + c x + d, identified against the catalog.
    table = {
        "0100": "D", "0000": "G", "0001": "G", "0101": "H",
        "1011": "I", "1100": "I", "1000": "J", "1110": "J",
        "0010": "L", "1010": "M", "1101": "M", "0110": "M", "0111": "M",
        "0011": "O", "1001": "O", "1111": "O",
    }
    for key, label in table.items():
        a, b, c, d = (int(ch) for ch in key)
        assert identify_algebra(quartic_algebra(a, b, c, d)) == label, key


def test_cubic_identifications():
    # x^3 = a x^2 + b x + c in dimension 3.
    from f2hopf.gf2 import bits_of
    from f2hopf.structure import AlgebraSC

    table = {"010": "C", "100": "C", "001": "D", "110": "D",
             "000": "E", "111": "E", "011": "F", "101": "F"}
    n = 3
    for key, label in table.items():
        a, b, c = (int(ch) for ch in key)
        x3 = c | (b << 1) | (a << 2)
        powers = [1, 2, 4, x3]
        acc = 0
        for i in bits_of(powers[3]):
            acc ^= powers[i + 1]
        powers.append(acc)
        v = 0
        for i in range(3):
            for j in range(3):
                v |= powers[i + j] << ((i * n + j) * n)
        assert identify_algebra(AlgebraSC(n, v)) == label, key


def test_tensor_product_identifications():
    f2z2 = catalog(2)["A"].representative
    f2_z2 = catalog(2)["B"].representative
    f4 = catalog(2)["C"].representative
    assert identify_algebra(TensorProductAlgebra(f2_z2, f2z2)) == "D"
    assert identify_algebra(TensorProductAlgebra(f2z2, f2z2)) == "E"
    assert identify_algebra(TensorProductAlgebra(f4, f2z2)) == "H"
    assert identify_algebra(TensorProductAlgebra(f4, f4)) == "N"
    assert identify_algebra(TensorProductAlgebra(f2_z2, f4)) == "N"
    assert identify_algebra(TensorProductAlgebra(f2_z2, f2_z2)) == "P"


def test_identify_duals():
    def named(name):
        return next(e for e in COPRODUCTS_DIM3 if e.name == name)

    assert identify_algebra(dualize_coalgebra(named("B.19").coalg)) == "B"
    assert identify_algebra(dualize_coalgebra(named("D.2").coalg)) == "G"
    assert identify_algebra(catalog(4)["NF"].representative) == "NF"


def test_identify_orbit_consistency():
    rng = random.Random(13)
    reps = [c.representative for c in catalog(3).classes]
    mats = enumerate_invertible(3, fix_unit=True)
    for _ in range(1000):
        a = rng.choice(reps)
        p = rng.choice(mats)
        moved = apply_basis_change_algebra(a, p)
        assert identify_algebra(moved) == identify_algebra(a)


def test_standardize_unit():
    dual = dualize_coalgebra(
        next(e for e in COPRODUCTS_DIM3 if e.name == "B.19").coalg
    )
    std, p = standardize_unit(dual)
    assert std.eta == 1
    assert check_algebra(std)
    assert p[0] == dual.eta
    # Every catalog algebra, moved so its unit is each nonzero vector u in
    # turn: the change is the first invertible matrix whose row 0 is u, and
    # it carries the algebra back to the representative.
    for n in (1, 2, 3, 4):
        mats = enumerate_invertible(n)
        for u in range(1, 1 << n):
            first = next(m for m in mats if m[0] == u)
            for cls in catalog(n).classes:
                moved = apply_basis_change_algebra(cls.representative, mat_inv_rows(first, n))
                assert moved.eta == u
                std, p = standardize_unit(moved)
                assert p == first
                assert std == cls.representative


def test_identify_after_general_basis_change():
    # moving a standard-form algebra through an arbitrary invertible matrix
    # displaces the unit; identification standardizes it back first
    rng = random.Random(19)
    mats = enumerate_invertible(4)
    for label in ("G", "M", "NF", "P"):
        a = catalog(4)[label].representative
        for _ in range(25):
            moved = apply_basis_change_algebra(a, rng.choice(mats))
            assert identify_algebra(moved) == label


def test_bad_relations_rejected():
    with pytest.raises(ValueError):
        # x(xy) = x while (xx)y = y*y = 0: not associative
        algebra_from_relations(3, "x*x=y; x*y=1")


def test_identify_non_standard_unit():
    # A basis change whose first row is not the unit moves the unit off x^0.
    # The invariant does not depend on the basis, so identification needs
    # no standardisation.
    for n, label in ((2, "C"), (3, "G"), (4, "NH"), (4, "P")):
        a = catalog(n)[label].representative
        p = next(m for m in enumerate_invertible(n) if m[0] != 1)
        moved = apply_basis_change_algebra(a, p)
        assert moved.eta != 1
        assert identify_algebra(moved) == label
        assert algebra_invariant(moved) == algebra_invariant(a)


def test_identify_rejects_invalid_tensors():
    from f2hopf.structure import AlgebraSC

    good = catalog(3)["D"].representative
    bad = [
        AlgebraSC(3, good.v ^ (1 << ((1 * 3 + 2) * 3))),  # x*y changed: not associative
        AlgebraSC(3, good.v, eta=2),  # x is not a unit
        AlgebraSC(2, 0),  # no unit at all
    ]
    for a in bad:
        assert not check_algebra(a)
        with pytest.raises(ValueError, match="not a unital associative algebra"):
            identify_algebra(a)
        # a failed identification is not memoised as a label
        with pytest.raises(ValueError):
            identify_algebra(a)
