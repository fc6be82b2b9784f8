import random
from functools import partial

import pytest

from f2hopf import kernels
from f2hopf.catalog import BASIS_NAMES, catalog
from f2hopf.classify import BialgebraClass, classify_dimension
from f2hopf.coproducts import RawSolution, solve_coproducts
from f2hopf.gf2 import enumerate_invertible, mat_inv_rows, mat_mul_rows
from f2hopf.golden import (
    COPRODUCTS_DIM3,
    NamedCoproduct,
    TABLES_DIM4,
    coalgebra_from_terms,
    parse_tensor_terms,
)
from f2hopf.structure import (
    AlgebraSC,
    Bialgebra,
    CoalgebraSC,
    algebra_equations,
    algebra_inverse,
    apply_basis_change,
    apply_basis_change_algebra,
    apply_basis_change_coalgebra,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    dualize_algebra,
    dualize_coalgebra,
    homomorphism_equations,
    HopfAlgebra,
    matrix_algebra,
    opposite,
    opposite_product,
    solve_antipode,
    tensor_bit,
    TensorProductAlgebra,
)
from reference import (
    check_antipode_identities,
    convolution_antipode,
    naive_algebra_maps,
    naive_antipode,
    naive_antipode_law,
    naive_check_algebra,
    naive_check_bialgebra,
    naive_check_coalgebra,
    naive_homomorphism_equations,
    naive_tensor_square_product,
    unpack_square,
    unpack_tensor,
    unpack_vec,
)


def named3(name):
    return next(e for e in COPRODUCTS_DIM3 if e.name == name)


def named4(name):
    return next(e for e in TABLES_DIM4 if e.name == name)


def bialgebra3(name):
    e = named3(name)
    return Bialgebra(catalog(3)[e.algebra_label].representative, e.coalg)


# --- axiom evaluators -----------------------------------------------------------


def test_check_algebra_examples():
    assert check_algebra(catalog(2)["A"].representative)
    # the 2x2 matrix algebra
    assert check_algebra(catalog(4)["NH"].representative)
    # broken unit row: x^2 = 1 + x with the (0, mu) row zeroed out
    n = 2
    v = parse_bad = 0
    v |= 0b11 << ((1 * n + 1) * n)  # x*x = 1 + x only
    bad = AlgebraSC(n, v)
    rep = check_algebra(bad)
    assert not rep and rep.axiom == "unit-left" and rep.index == (0,)


def test_check_bialgebra_examples():
    b = catalog(2)["B"].representative
    projector = Bialgebra(
        b, coalgebra_from_terms(BASIS_NAMES[2], "1+x", x="x.x")
    )
    assert check_bialgebra(projector)
    a = catalog(2)["A"].representative
    grouplike_a1 = Bialgebra(
        a, coalgebra_from_terms(BASIS_NAMES[2], "1", x="1.x x.1 x.x")
    )
    assert check_bialgebra(grouplike_a1)
    # x grouplike on x^2 = 0 violates compatibility (both halves of the
    # algebra-map condition break; the counit one is reported first)
    broken = Bialgebra(a, coalgebra_from_terms(BASIS_NAMES[2], "1+x", x="x.x"))
    rep = check_bialgebra(broken)
    assert not rep
    assert rep.axiom in ("counit-multiplicative", "coproduct-multiplicative")
    assert rep.index == (1, 1)


def _random_structures(rng, count):
    for _ in range(count):
        n = rng.choice([2, 3, 4])
        yield n, rng.getrandbits(n**3), rng.getrandbits(n) | 1


def test_evaluators_match_reference():
    rng = random.Random(42)
    for n, t, eps in _random_structures(rng, 500):
        eta = eps  # reuse as a unit candidate
        got = check_algebra(AlgebraSC(n, t, eta))
        want = naive_check_algebra(unpack_tensor(t, n), unpack_vec(eta, n), n)
        assert (got.ok, got.axiom, got.index) == want
        got = check_coalgebra(CoalgebraSC(n, t, eps))
        want = naive_check_coalgebra(unpack_tensor(t, n), unpack_vec(eps, n), n)
        assert (got.ok, got.axiom, got.index) == want


def test_bialgebra_evaluator_matches_reference():
    rng = random.Random(43)
    cat_tensors = [c.representative for c in catalog(3).classes]
    for _ in range(300):
        a = rng.choice(cat_tensors)
        n = a.n
        c = rng.getrandbits(n**3)
        eps = rng.getrandbits(n) | 1
        got = check_bialgebra(Bialgebra(a, CoalgebraSC(n, c, eps)))
        want = naive_check_bialgebra(
            unpack_tensor(a.v, n), unpack_vec(a.eta, n),
            unpack_tensor(c, n), unpack_vec(eps, n), n,
        )
        assert (got.ok, got.axiom, got.index) == want


# --- antipode --------------------------------------------------------------------


def test_antipode_projector_absent():
    b = catalog(2)["B"].representative
    projector = Bialgebra(b, coalgebra_from_terms(BASIS_NAMES[2], "1+x", x="x.x"))
    assert solve_antipode(projector) is None


def test_antipode_group_algebra_identity():
    a = catalog(2)["A"].representative
    f2z2 = Bialgebra(a, coalgebra_from_terms(BASIS_NAMES[2], "1", x="1.x x.1 x.x"))
    s = solve_antipode(f2z2)
    assert s == (1, 2)


def test_antipode_dsl2():
    from f2hopf.golden import dsl2_presentation

    h = dsl2_presentation()
    s = solve_antipode(h.bi)
    # S s = s, S x = w, S w = 1 + s + x on the basis 1, s, x, w
    assert s == (0b0001, 0b0010, 0b1000, 0b0111)
    assert check_antipode_identities(HopfAlgebra(h.bi, s))


def test_antipode_matches_naive_oracle():
    # Every raw solution of n <= 3 against the brute-force antipode.  At
    # n = 4, where the brute force has 2^16 candidates, every antipode found
    # satisfies the naive law.  All 1,381 of n = 2..4, Hopf or not, against
    # the inverse of id in the tensor product algebra C* (x) A.
    checked = 0
    for n in (2, 3, 4):
        for label, rs in classify_dimension(n).raw.items():
            a = rs.algebra
            v, eta = unpack_tensor(a.v, n), unpack_vec(a.eta, n)
            for sol in rs.solutions:
                c, eps = unpack_tensor(sol.coalg.c, n), unpack_vec(sol.coalg.eps, n)
                s = solve_antipode(Bialgebra(a, sol.coalg))
                assert s == convolution_antipode(Bialgebra(a, sol.coalg)), (label, sol.coalg)
                checked += 1
                got = None if s is None else tuple(unpack_vec(row, n) for row in s)
                if n <= 3:
                    assert got == naive_antipode(v, eta, c, eps, n), (label, sol.coalg)
                elif got is not None:
                    assert naive_antipode_law(v, eta, c, eps, got, n), (label, sol.coalg)
    assert checked == 1381


def test_antipode_must_be_unique():
    # Over the non-associative table of test_algebra_inverse_must_be_unique
    # (x x = 1, x y = y x = y y = 0), with 1 and x group-like and y
    # primitive, S * id = eta eps = id * S has more than one solution, which
    # no associative algebra allows; the oracle's inverse in C* (x) A
    # raises too.
    v = 1 << tensor_bit(3, 1, 1, 0)
    for mu in range(3):
        v |= 1 << tensor_bit(3, 0, mu, mu) | 1 << tensor_bit(3, mu, 0, mu)
    b = Bialgebra(AlgebraSC(3, v),
                  coalgebra_from_terms(BASIS_NAMES[3], "1+x", x="x.x", y="1.y y.1"))
    assert check_coalgebra(b.coalg)
    for solve in (solve_antipode, convolution_antipode):
        with pytest.raises(ValueError, match="not unique"):
            solve(b)


def test_antipode_identities_all_named_hopf():
    for e in COPRODUCTS_DIM3 + TABLES_DIM4:
        if e.antipode is None:
            continue
        n = e.coalg.n
        alg = catalog(n)[e.algebra_label].representative
        h = HopfAlgebra(Bialgebra(alg, e.coalg), e.antipode)
        assert check_antipode_identities(h), e.name


# --- duality ---------------------------------------------------------------------


def test_dualize_b19():
    from f2hopf.catalog import identify_algebra

    dual = dualize_coalgebra(named3("B.19").coalg)
    assert check_algebra(dual)
    # the unit of the dual is the counit combination y0 + y1
    assert dual.eta == 0b011
    assert identify_algebra(dual) == "B"


def test_dualize_primitive_grassmann():
    a = catalog(2)["A"].representative
    c = coalgebra_from_terms(BASIS_NAMES[2], "1", x="1.x x.1")
    dual = dualize_coalgebra(c)
    assert check_algebra(dual)
    assert dual.prod(1, 1) == 0  # y1^2 = 0


def test_dualize_involution():
    rng = random.Random(17)
    entries = list(COPRODUCTS_DIM3) + list(TABLES_DIM4)
    for e in rng.sample(entries, 30):
        alg = catalog(e.coalg.n)[e.algebra_label].representative
        assert dualize_coalgebra(dualize_algebra(alg)).v == alg.v
        assert dualize_algebra(dualize_coalgebra(e.coalg)).c == e.coalg.c


def test_opposite_examples():
    b8, b9 = named3("B.8"), named3("B.9")
    alg = catalog(3)["B"].representative
    flipped = opposite(Bialgebra(alg, b8.coalg), "coproduct")
    assert flipped.coalg.c == b9.coalg.c
    assert check_bialgebra(flipped)
    nf2, nf3 = named4("NF.2"), named4("NF.3")
    alg4 = catalog(4)["NF"].representative
    assert opposite(Bialgebra(alg4, nf2.coalg), "coproduct").coalg.c == nf3.coalg.c
    # a commutative product is unchanged by reversal
    comm = bialgebra3("B.19")
    assert opposite(comm, "product").alg.v == comm.alg.v


def test_opposite_involution():
    rng = random.Random(23)
    for e in rng.sample(list(COPRODUCTS_DIM3), 15):
        bi = Bialgebra(catalog(3)[e.algebra_label].representative, e.coalg)
        assert opposite(opposite(bi, "coproduct"), "coproduct").coalg.c == bi.coalg.c
        assert opposite(opposite(bi, "product"), "product").alg.v == bi.alg.v


# --- tensor square ---------------------------------------------------------------


def test_tensor_square_unit_neutral():
    a = catalog(2)["A"].representative
    square = TensorProductAlgebra(a, a)
    x_x = parse_tensor_terms("x.x", BASIS_NAMES[2])
    assert square.mul_vec(square.eta, x_x) == x_x


def test_tensor_square_grassmann_self_inverse():
    a = catalog(2)["A"].representative  # x^2 = 0
    square = TensorProductAlgebra(a, a)
    r = parse_tensor_terms("1.1 x.x", BASIS_NAMES[2])
    assert square.mul_vec(r, r) == square.eta


def test_tensor_square_mixed_product():
    # On F2(Z2) (x) F2Z2, i.e. algebra D in dimension 4 with x^2 = x, y^2 = 0:
    # (1.1 + y.x)(1.1 + x.y) = 1.1 + y.x + x.y + yx.xy = ... + z.z.
    a = catalog(4)["D"].representative
    names = BASIS_NAMES[4]
    lhs = parse_tensor_terms("1.1 y.x", names)
    rhs = parse_tensor_terms("1.1 x.y", names)
    out = TensorProductAlgebra(a, a).mul_vec(lhs, rhs)
    assert out == parse_tensor_terms("1.1 y.x x.y z.z", names)


def test_tensor_square_associative():
    rng = random.Random(29)
    a = catalog(3)["B"].representative
    square = TensorProductAlgebra(a, a)
    for _ in range(50):
        xs = [rng.getrandbits(9) for _ in range(3)]
        left = square.mul_vec(square.mul_vec(xs[0], xs[1]), xs[2])
        right = square.mul_vec(xs[0], square.mul_vec(xs[1], xs[2]))
        assert left == right


def test_tensor_square_matches_naive_product():
    # Every catalog algebra of dimension 2..4; one moved by a basis change
    # so that its unit is not basis element 0; and every one of dimension
    # 2 and 3 moved to the unit x^0 + x^1.  Every basis product is checked
    # for n <= 3.
    algebras = [c.representative for n in (2, 3, 4) for c in catalog(n).classes]
    p = next(m for m in enumerate_invertible(3) if m[0] != 1)
    moved = apply_basis_change_algebra(catalog(3)["G"].representative, p)
    assert moved.eta != 1
    algebras.append(moved)
    for n in (2, 3):
        p = (0b11,) + tuple(1 << i for i in range(1, n))
        for c in catalog(n).classes:
            algebras.append(apply_basis_change_algebra(c.representative, p))
            assert algebras[-1].eta == 0b11
    rng = random.Random(31)
    for a in algebras:
        n = a.n
        square = TensorProductAlgebra(a, a)
        assert check_algebra(square), a
        unit = sum(a.eta << (i * n) for i in range(n) if (a.eta >> i) & 1)
        assert square.eta == unit
        v = unpack_tensor(a.v, n)
        for _ in range(20):
            x, y = rng.getrandbits(n * n), rng.getrandbits(n * n)
            want = naive_tensor_square_product(v, unpack_square(x, n), unpack_square(y, n), n)
            assert unpack_square(square.mul_vec(x, y), n) == want, (a, x, y)
        if n <= 3:
            basis = [(mu, nu) for mu in range(n * n) for nu in range(n * n)]
        else:  # 20 random basis products
            basis = [(rng.randrange(n * n), rng.randrange(n * n)) for _ in range(20)]
        for mu, nu in basis:  # the Kronecker product of a's
            want = naive_tensor_square_product(
                v, unpack_square(1 << mu, n), unpack_square(1 << nu, n), n)
            assert unpack_square(square.prod(mu, nu), n) == want, (a, mu, nu)


def _brute_force_inverse(alg, x):
    found = [y for y in range(1 << alg.n)
             if alg.mul_vec(x, y) == alg.eta == alg.mul_vec(y, x)]
    assert len(found) <= 1
    return found[0] if found else None


def test_algebra_inverse_matches_brute_force():
    algebras = [c.representative for n in (1, 2, 3, 4) for c in catalog(n).classes]
    algebras += [TensorProductAlgebra(c.representative, c.representative)
                 for c in catalog(2).classes]
    for a in algebras:
        for x in range(1 << a.n):
            assert algebra_inverse(a, x) == _brute_force_inverse(a, x), (a, x)


def test_algebra_inverse_is_two_sided():
    # In a finite-dimensional associative algebra a one-sided inverse is
    # two-sided, so only a non-associative table tells the two systems
    # apart: on basis 1, x, y let x y = 1 and every other product of x and y
    # be 0, so x has a right inverse but no left one.
    v = 1 << tensor_bit(3, 1, 2, 0)
    for mu in range(3):
        v |= 1 << tensor_bit(3, 0, mu, mu) | 1 << tensor_bit(3, mu, 0, mu)
    magma = AlgebraSC(3, v)
    assert magma.mul_vec(0b010, 0b100) == 1
    assert algebra_inverse(magma, 0b010) is None
    assert _brute_force_inverse(magma, 0b010) is None


def test_algebra_inverse_must_be_unique():
    # On basis 1, x, y let x x = 1 and x y = y x = y y = 0: x and x + y
    # are both inverses of x, which only a non-associative table allows
    # ((y x) x = 0, y (x x) = y).
    v = 1 << tensor_bit(3, 1, 1, 0)
    for mu in range(3):
        v |= 1 << tensor_bit(3, 0, mu, mu) | 1 << tensor_bit(3, mu, 0, mu)
    magma = AlgebraSC(3, v)
    assert [y for y in range(8) if magma.mul_vec(0b010, y) == 1 == magma.mul_vec(y, 0b010)] \
        == [0b010, 0b110]
    with pytest.raises(ValueError, match="not unique"):
        algebra_inverse(magma, 0b010)


# --- algebra maps ----------------------------------------------------------------


def _builder_maps(a, b):
    """The solutions of the homomorphism equations, phi[i][j] at bit i*b.n + j."""
    return kernels.solve_quadratic(
        a.n * b.n, homomorphism_equations(a, b, lambda i, j: i * b.n + j))


def _catalog_algebras(dims):
    return [c.representative for n in dims for c in catalog(n).classes]


def test_matrix_algebra_is_the_matrix_product():
    rng = random.Random(5)
    for k in (1, 2, 3):
        m = matrix_algebra(k)

        def mat(x):
            return tuple((x >> (i * k)) & ((1 << k) - 1) for i in range(k))

        assert check_algebra(m) and mat(m.eta) == tuple(1 << i for i in range(k))
        for _ in range(50):
            x, y = rng.getrandbits(k * k), rng.getrandbits(k * k)
            assert mat(m.mul_vec(x, y)) == mat_mul_rows(mat(x), mat(y))


def test_homomorphism_equations_between_catalog_algebras():
    # every same-dimension pair of n <= 3, both orders
    for n in (1, 2, 3):
        algebras = _catalog_algebras([n])
        for a in algebras:
            for b in algebras:
                assert _builder_maps(a, b) == naive_algebra_maps(a, b)


def test_homomorphism_equations_into_f2_and_m2():
    f2 = AlgebraSC(1, 1)
    for a in _catalog_algebras([1, 2, 3, 4]):
        assert _builder_maps(a, f2) == naive_algebra_maps(a, f2)
    m2 = matrix_algebra(2)
    for a in _catalog_algebras([1, 2, 3]):
        assert _builder_maps(a, m2) == naive_algebra_maps(a, m2)


def test_homomorphism_equations_from_nonstandard_sources():
    # Duals of coalgebras whose counit is not x^0*, so their unit is not
    # basis element 0.  While e_0 is a term of the unit the products with
    # e_0 follow from the others by linearity and are not stated; after
    # swapping x^0 and x^2 it is not, and all n^2 products are stated, since
    # only they pin phi(e_0) down.
    coalg = next(s.coalg for s in solve_coproducts(catalog(3)["B"].representative).solutions
                 if s.coalg.eps != 1)
    swap = (0b100, 0b010, 0b001)
    sources = [dualize_coalgebra(coalg),
               dualize_coalgebra(apply_basis_change_coalgebra(coalg, swap))]
    assert [d.eta & 1 for d in sources] == [1, 0]
    for source, products in zip(sources, (2 * 2, 3 * 3)):
        for b in _catalog_algebras([1, 3]) + [matrix_algebra(2)]:
            # one equation per unit coefficient and per (p, q, r)
            assert len(homomorphism_equations(source, b, lambda i, j: i * b.n + j)) \
                == b.n + products * b.n
            assert _builder_maps(source, b) == naive_algebra_maps(source, b)


def _builder_systems():
    """(source, target, var) of every system the oracle test compares: each
    catalog algebra of n <= 4 into itself, F2, its tensor square and M_k(F2)
    for k = 1..3, and into itself under a random numbering of the entries;
    then the two legs of the quasitriangular and of the coquasitriangular
    systems of every Hopf class of n = 2..4, and the map into the algebra
    from the dual on the reversed basis, whose unit lacks e_0."""
    rng = random.Random(23)
    systems = []
    for a in _catalog_algebras([1, 2, 3, 4]):
        targets = [a, AlgebraSC(1, 1), TensorProductAlgebra(a, a)]
        targets += [matrix_algebra(k) for k in (1, 2, 3)]
        systems += [(a, b, lambda i, j, m=b.n: i * m + j) for b in targets]
        perm = rng.sample(range(a.n * a.n), a.n * a.n)
        systems.append((a, a, lambda i, j, perm=perm, m=a.n: perm[i * m + j]))
    for n in (2, 3, 4):
        dim = classify_dimension(n)
        for cls in dim.hopf_classes():
            alg = dim.cat[cls.algebra_label].representative
            dual = dualize_coalgebra(cls.representative.coalg)
            var = lambda i, j, n=n: i * n + j
            swapped = lambda i, j, n=n: j * n + i
            reverse = tuple(1 << (n - 1 - i) for i in range(n))
            reversed_dual = dualize_coalgebra(
                apply_basis_change_coalgebra(cls.representative.coalg, reverse))
            systems += [(dual, alg, var), (dual, opposite_product(alg), swapped),
                        (alg, dual, var), (alg, opposite_product(dual), swapped),
                        (reversed_dual, alg, var)]
    return systems


def test_homomorphism_equations_match_the_naive_builder():
    # The same equations in the same order, pairs sorted, as the builder
    # that folds every term through a kernels.Equation.
    systems = _builder_systems()
    assert len(systems) > 300
    for a, b, var in systems:
        assert homomorphism_equations(a, b, var) == naive_homomorphism_equations(a, b, var)


def _satisfies(equations, mask):
    return all(not (const ^ (lin & mask).bit_count() ^ sum((mask >> i) & (mask >> j) & 1
                                                          for i, j in pairs)) & 1
               for const, lin, pairs in equations)


def test_algebra_equations_are_the_algebra_axioms():
    # A product tensor solves the equations for its unit exactly when it is a
    # unital associative algebra: every tensor of n = 2 with each unit, then
    # the duals of the n = 3 coalgebras whose counit is not x^0*, as they are
    # and with x^0 and x^2 swapped (so e_0 is no term of the unit and the
    # triples containing 0 must be stated), each also with any one bit
    # flipped.
    for eta in (1, 2, 3):
        equations = algebra_equations(2, eta, partial(tensor_bit, 2))
        for v in range(1 << 8):
            assert _satisfies(equations, v) == bool(check_algebra(AlgebraSC(2, v, eta)))
    swap = (0b100, 0b010, 0b001)
    coalgebras = [s.coalg for cls in catalog(3).classes
                  for s in solve_coproducts(cls.representative).solutions if s.coalg.eps != 1]
    duals = [dualize_coalgebra(c) for c in coalgebras] + \
        [dualize_coalgebra(apply_basis_change_coalgebra(c, swap)) for c in coalgebras]
    assert {d.eta & 1 for d in duals} == {0, 1}
    for d in duals:
        equations = algebra_equations(3, d.eta, partial(tensor_bit, 3))
        assert _satisfies(equations, d.v) and check_algebra(d)
        for k in range(27):
            flipped = AlgebraSC(3, d.v ^ (1 << k), d.eta)
            assert _satisfies(equations, flipped.v) == bool(check_algebra(flipped))


# --- basis change ----------------------------------------------------------------


def test_basis_change_identity():
    b = bialgebra3("B.4")
    p = (1, 2, 4)
    out = apply_basis_change(b, p)
    assert out.alg.v == b.alg.v and out.coalg.c == b.coalg.c


def test_basis_change_automorphism_dim2():
    # x -> 1 + x preserves the algebra x^2 = x.
    b = catalog(2)["B"].representative
    p = (0b01, 0b11)
    assert apply_basis_change_algebra(b, p).v == b.v


def test_basis_change_b3_to_b16():
    # x -> 1 + x + y carries coproduct B.3 onto B.16.
    p = (0b001, 0b111, 0b100)
    out = apply_basis_change_coalgebra(named3("B.3").coalg, p)
    assert out.c == named3("B.16").coalg.c


def test_basis_change_preserves_validity_and_inverts():
    rng = random.Random(31)
    mats = enumerate_invertible(3)
    for e in rng.sample(list(COPRODUCTS_DIM3), 10):
        bi = Bialgebra(catalog(3)[e.algebra_label].representative, e.coalg)
        p = rng.choice(mats)
        moved = apply_basis_change(bi, p)
        assert check_bialgebra(moved)
        back = apply_basis_change(moved, mat_inv_rows(p, 3))
        assert back.alg.v == bi.alg.v and back.coalg.c == bi.coalg.c


def test_basis_change_singular_rejected():
    b = bialgebra3("B.4")
    with pytest.raises(ValueError):
        apply_basis_change(b, (0b001, 0b001, 0b100))


def test_basis_change_composition():
    # changing basis by P1 and then by P2 equals the single change by P2 P1
    rng = random.Random(41)
    mats = enumerate_invertible(3)
    a = catalog(3)["D"].representative
    c = named3("D.2").coalg
    for _ in range(40):
        p1, p2 = rng.choice(mats), rng.choice(mats)
        combo = mat_mul_rows(p2, p1)
        assert apply_basis_change_algebra(
            apply_basis_change_algebra(a, p1), p2
        ).v == apply_basis_change_algebra(a, combo).v
        assert apply_basis_change_coalgebra(
            apply_basis_change_coalgebra(c, p1), p2
        ).c == apply_basis_change_coalgebra(c, combo).c


def test_structure_values_are_immutable_and_equal_within_one_class():
    a = catalog(2)["B"].representative
    c = CoalgebraSC(a.n, a.v, a.eta)
    assert a != c and c != a
    for value in (a, c, Bialgebra(a, dualize_algebra(a))):
        field = next(iter(type(value).__annotations__))
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    copy = AlgebraSC(a.n, a.v, a.eta)
    assert copy == a and hash(copy) == hash(a) and copy in {a}


def test_structure_values_defaults_keywords_and_validation():
    a = AlgebraSC(2, catalog(2)["B"].representative.v)
    assert a.eta == 1 and a == AlgebraSC(n=2, v=a.v, eta=1)
    assert a.commutative and a.commutative  # cached_property, read twice
    assert "commutative" in vars(a)
    c = COPRODUCTS_DIM3[0].coalg
    rep = RawSolution(c, "t", None)
    klass = BialgebraClass("A", "t", (0,), rep, False)
    assert klass.cop_partner is None
    named = NamedCoproduct("x", "A", c, "A")
    assert named.antipode is None and not named.hopf
    with pytest.raises(ValueError):
        AlgebraSC(2, 1 << 8)
    with pytest.raises(ValueError):
        AlgebraSC(2, 0, eta=4)
    with pytest.raises(ValueError):
        CoalgebraSC(2, 1 << 8, 1)


def test_structure_value_repr_names_class_and_fields():
    assert repr(AlgebraSC(1, 1)) == "AlgebraSC(n=1, v=1, eta=1)"
    assert repr(CoalgebraSC(1, 1, 1)) == "CoalgebraSC(n=1, c=1, eps=1)"
