import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import naive_backtrack

from f2hopf import kernels
from f2hopf.catalog import catalog, enumerate_algebras, isomorphisms
from f2hopf.classify import classify_dimension
from f2hopf.coproducts import enumerate_counits, solve_coproduct_tensors
from f2hopf.gf2 import enumerate_invertible, mat_inv_rows
from f2hopf.qtri import qt_by_class


def _random_system(rng, nvars):
    eqs = []
    for _ in range(rng.randint(0, 8)):
        const = rng.randint(0, 1)
        lin = rng.getrandbits(nvars)
        pairs = []
        for _ in range(rng.randint(0, 3)):
            if nvars > 1:
                i, j = rng.sample(range(nvars), 2)
                pairs.append((min(i, j), max(i, j)))
        eqs.append((const, lin, tuple(pairs)))
    return eqs


def _brute(nvars, eqs):
    out = []
    for x in range(1 << nvars):
        ok = True
        for const, lin, pairs in eqs:
            v = const ^ ((x & lin).bit_count() & 1)
            for i, j in pairs:
                v ^= (x >> i) & (x >> j) & 1
            if v:
                ok = False
                break
        if ok:
            out.append(x)
    return out


def test_solver_against_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        nvars = rng.randint(1, 10)
        eqs = _random_system(rng, nvars)
        assert kernels.backtrack(nvars, eqs) == _brute(nvars, eqs)


def test_solver_contradiction():
    assert kernels.backtrack(3, [(1, 0, ())]) == []


def test_backtrack_beyond_63_variables():
    # x_i = x_(i+1) along x_0..x_69 and x_70 = x_0 x_69: exactly the
    # all-zero and all-one assignments of 71 variables.
    nvars = 71
    eqs = [(0, 0b11 << i, ()) for i in range(69)] + [(0, 1 << 70, ((0, 69),))]
    assert kernels.backtrack(nvars, eqs) == [0, (1 << nvars) - 1]
    assert kernels.solve_quadratic(nvars, eqs) == [0, (1 << nvars) - 1]


@st.composite
def quadratic_systems(draw, plant=True):
    """Random systems of up to 14 variables.  Quadratic terms are drawn on
    low indices as often as on high ones, so the greedy search order differs
    from index order; equations may be purely linear, purely quadratic or,
    rarely, constant.

    An equation drawn with neither a linear nor a quadratic term (0 = 0 or
    1 = 0) gets one linear variable in nine draws of ten.  Left as drawn,
    such equations put 1 = 0, which ends the search at once, into about two
    systems in five.  The ``one-equals-zero`` edge case covers that.

    With ``plant``, four draws in five also pick a random assignment and set
    every constant so that it holds, so those systems have a solution; the
    rest keep their drawn constants and are unsolvable about as often as
    not.  Returns (nvars, equations, planted assignment or None)."""
    nvars = draw(st.integers(1, 14))
    var = st.integers(0, nvars - 1)
    planted = None
    if plant and draw(st.integers(0, 4)):
        planted = draw(st.integers(0, (1 << nvars) - 1))
    eqs = []
    for _ in range(draw(st.integers(0, 12))):
        const = draw(st.integers(0, 1))
        lin = draw(st.integers(0, (1 << nvars) - 1)) if draw(st.booleans()) else 0
        pairs = []
        for i, j in draw(st.lists(st.tuples(var, var), max_size=4)):
            if i != j:
                pairs.append((min(i, j), max(i, j)))
        if not lin and not pairs and draw(st.integers(0, 9)) < 9:
            lin = 1 << draw(var)
        if planted is not None:
            const = (planted & lin).bit_count() & 1
            for i, j in pairs:
                const ^= (planted >> i) & (planted >> j) & 1
        eqs.append((const, lin, tuple(pairs)))
    return nvars, eqs, planted


@settings(max_examples=300, deadline=None)
@given(quadratic_systems(), st.data())
def test_ordered_solver_against_brute_force(system, data):
    nvars, eqs, planted = system
    order = data.draw(st.permutations(range(nvars)))
    expected = _brute(nvars, eqs)
    assert kernels.solve_quadratic(nvars, eqs) == expected
    assert kernels.backtrack(nvars, eqs) == expected
    assert kernels.backtrack(nvars, eqs, kernels.search_order(nvars, eqs)) == expected
    assert kernels.backtrack(nvars, eqs, order) == expected
    if planted is not None:
        assert planted in expected


@st.composite
def backtrack_systems(draw):
    """Systems in the backtracker's format that a bit-sliced check must get
    right: a pair may repeat inside one equation (the copies cancel), an
    equation may have no variable at all, and a system may have more than
    63 variables.

    A wide system (64 to 90 variables) stays small to search: every
    variable but at most eight gets an equation that holds it linearly and
    has all its other terms on lower variables, so that level lets exactly
    one branch through.  Four draws in five set every constant so that a
    random assignment holds.  Returns (nvars, equations, planted or None)."""
    wide = draw(st.booleans())
    nvars = draw(st.integers(64, 90) if wide else st.integers(1, 14))
    planted = draw(st.integers(0, (1 << nvars) - 1)) if draw(st.integers(0, 4)) else None

    def planted_const(lin, pairs):
        const = (planted & lin).bit_count() & 1
        for i, j in pairs:
            const ^= (planted >> i) & (planted >> j) & 1
        return const

    system = []
    if wide:
        # Drawn from one seeded generator: a draw per term would make
        # generating these systems cost more than checking them.
        rng = random.Random(draw(st.integers(0, 2**32)))
        free = draw(st.sets(st.integers(0, nvars - 1), max_size=8))
        for v in range(nvars):
            if v in free:
                continue
            lin = rng.getrandbits(v) | 1 << v
            pairs = [tuple(sorted(rng.sample(range(v), 2))) for _ in range(rng.randint(0, 2))
                     if v > 1]
            const = rng.getrandbits(1) if planted is None else planted_const(lin, pairs)
            system.append((const, lin, tuple(pairs)))
    var = st.integers(0, nvars - 1)
    for _ in range(draw(st.integers(0, 12))):
        lin = draw(st.integers(0, (1 << nvars) - 1)) if draw(st.booleans()) else 0
        pairs = [(min(i, j), max(i, j))
                 for i, j in draw(st.lists(st.tuples(var, var), max_size=4)) if i != j]
        if pairs and draw(st.booleans()):
            pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs)))
        if not lin and not pairs:
            lin = 1 << draw(var)
        const = draw(st.integers(0, 1)) if planted is None else planted_const(lin, pairs)
        system.append((const, lin, tuple(pairs)))
    if draw(st.booleans()):  # no variable: reads 0 = 0 or 1 = 0
        system.append((draw(st.integers(0, 1)) if planted is None else 0, 0, ()))
    return nvars, draw(st.permutations(system)), planted


@settings(max_examples=200, deadline=None)
@given(backtrack_systems(), st.data())
def test_backtrack_against_naive_backtrack(system, data):
    nvars, eqs, planted = system
    found = kernels.backtrack(nvars, eqs)
    assert found == naive_backtrack(nvars, eqs)
    if planted is not None:
        assert planted in found
    if nvars <= 14:  # a wide system is small to search only in index order
        order = data.draw(st.permutations(range(nvars)))
        assert kernels.backtrack(nvars, eqs, order) == found


def _algebra_searches():
    for n in (1, 2, 3):
        enumerate_algebras.__wrapped__(n)


def _representatives():
    return [cls.representative for n in (1, 2, 3) for cls in catalog(n).classes]


def _counit_searches():
    for a in _representatives():
        enumerate_counits(a)


def _coproduct_searches():
    for a in _representatives():
        for eps in enumerate_counits(a):
            solve_coproduct_tensors(a, eps)


def _isomorphism_searches():
    reps = _representatives()
    for a in reps:
        for b in reps:
            isomorphisms(a, b)


def _qt_searches():
    for n in (2, 3):
        qt_by_class(classify_dimension(n))


@pytest.mark.parametrize(
    "searches",
    [_algebra_searches, _counit_searches, _coproduct_searches, _isomorphism_searches,
     _qt_searches],
    ids=["algebras", "counits", "coproducts", "isomorphisms", "qt"],
)
def test_backtrack_against_naive_backtrack_on_engine_systems(searches, monkeypatch):
    # Every system the engine hands the backtracker for n <= 3, after
    # elimination, searched again by the naive oracle in index order.
    systems = []
    search = kernels.backtrack

    def record(nvars, equations, order=None):
        systems.append((nvars, list(equations), order))
        return search(nvars, equations, order)

    monkeypatch.setattr(kernels, "backtrack", record)
    searches()
    monkeypatch.undo()
    assert systems
    for nvars, eqs, order in systems:
        assert kernels.backtrack(nvars, eqs, order) == naive_backtrack(nvars, eqs)


@st.composite
def eliminable_systems(draw):
    """Random systems in which about half of the equations are product-free
    (one per quadratic equation, at most nvars // 2, plus the extras below),
    so the elimination step of kernels.solve_quadratic has work to do.

    The product-free part may be rank-deficient (an equation that is the sum
    of two others) or inconsistent (the same sum with the constant flipped),
    and it may fix every variable of a quadratic equation, which then reads
    0 = 0 or 1 = 0 after substitution."""
    nvars, eqs, _ = draw(quadratic_systems(plant=False))
    quadratic = [e for e in eqs if e[2]]
    linear = []
    for _ in range(max(1, min(len(quadratic), nvars // 2))):
        linear.append((draw(st.integers(0, 1)), draw(st.integers(0, (1 << nvars) - 1)), ()))
    (c1, l1, _), (c2, l2, _) = draw(st.lists(st.sampled_from(linear), min_size=2, max_size=2))
    extra = draw(st.sampled_from(["none", "dependent", "inconsistent"]))
    if extra != "none":
        linear.append((c1 ^ c2 ^ (extra == "inconsistent"), l1 ^ l2, ()))
    if quadratic and draw(st.booleans()):
        const, lin, pairs = draw(st.sampled_from(quadratic))
        support = lin
        for i, j in pairs:
            support |= (1 << i) | (1 << j)
        for v in range(nvars):
            if (support >> v) & 1:
                linear.append((draw(st.integers(0, 1)), 1 << v, ()))
    return nvars, draw(st.permutations(quadratic + linear))


@settings(max_examples=300, deadline=None)
@given(eliminable_systems())
def test_eliminating_solver_against_brute_force(system):
    nvars, eqs = system
    assert kernels.solve_quadratic(nvars, eqs) == _brute(nvars, eqs)


@st.composite
def pinning_systems(draw):
    """Random systems with product-free rows that pin variables to
    constants, so elimination substitutes constants into products: a
    pinned variable's row may also hold an earlier pinned variable, which
    pins it only through elimination.  The constants follow the planted
    assignment when there is one."""
    nvars, eqs, planted = draw(quadratic_systems())
    pinned = sorted(draw(st.sets(st.integers(0, nvars - 1), min_size=1)))
    rows = []
    for k, v in enumerate(pinned):
        lin = 1 << v
        if k and draw(st.booleans()):
            lin |= 1 << draw(st.sampled_from(pinned[:k]))
        const = draw(st.integers(0, 1)) if planted is None else (planted & lin).bit_count() & 1
        rows.append((const, lin, ()))
    return nvars, draw(st.permutations(eqs + rows)), planted


@settings(max_examples=200, deadline=None)
@given(pinning_systems())
def test_solver_with_pinned_variables_against_brute_force(system):
    nvars, eqs, planted = system
    expected = _brute(nvars, eqs)
    assert kernels.solve_quadratic(nvars, eqs) == expected
    if planted is not None:
        assert planted in expected


@pytest.mark.parametrize(
    "nvars, eqs",
    [
        (5, []),  # no equations: every assignment
        (6, [(1, 0b000011, ()), (0, 0, ((0, 1),))]),  # variables 2..5 unused
        (4, [(0, 0b0011, ()), (1, 0, ())]),  # 1 = 0
        (5, [(1, 0, ((0, 4), (1, 2))), (0, 0, ((0, 1), (3, 4)))]),  # only x_i x_j
    ],
    ids=["no-equations", "unused-variable", "one-equals-zero", "only-quadratic"],
)
def test_ordered_solver_edge_cases(nvars, eqs):
    expected = _brute(nvars, eqs)
    assert kernels.solve_quadratic(nvars, eqs) == expected
    assert kernels.backtrack(nvars, eqs) == expected


def test_search_order_tie_breaks():
    # x6 + x7 = 1, x4 x5 + x3 = 0, x4 x5 + x2 = 0, x3 x5 + x1 = 0; x0 unused.
    # x6 and x7 each leave x6 + x7 with one open variable: x6 by index.
    # x7 then closes it.  Nothing closes or is near next, and x5 has the
    # highest degree.  x3 and x4 tie on near and degree: x3 by index.  x4
    # closes one equation and leaves x2's with one open variable, x1 and x2
    # close one each (x1 by index), and the unused x0 comes last.
    eqs = [
        (1, 0b11000000, ()),
        (0, 1 << 3, ((4, 5),)),
        (0, 1 << 2, ((4, 5),)),
        (0, 1 << 1, ((3, 5),)),
    ]
    assert kernels.search_order(8, eqs) == [6, 7, 5, 3, 4, 1, 2, 0]
    # Closing one equation (x2 = 1) beats being near two (x0, x1).
    eqs = [(1, 0b100, ()), (0, 0b011, ()), (0, 0, ((0, 1),))]
    assert kernels.search_order(3, eqs) == [2, 0, 1]
    assert kernels.search_order(3, []) == [0, 1, 2]


def test_transforms_invert():
    # applying P then P^-1 is the identity
    rng = random.Random(9)
    for _ in range(300):
        n = rng.choice([2, 3, 4])
        t = rng.getrandbits(n**3)
        m = rng.choice(enumerate_invertible(n))
        pinv = mat_inv_rows(m.rows, n)
        fwd = kernels.transform_product(t, n, m.rows, pinv)
        assert kernels.transform_product(fwd, n, pinv, m.rows) == t
        fwd = kernels.transform_coproduct(t, n, m.rows, pinv)
        assert kernels.transform_coproduct(fwd, n, pinv, m.rows) == t


def test_coproduct_orbit_matches_transform_coproduct():
    # The chunk tables of every catalog algebra's automorphisms, and of some
    # random invertible matrices, on random tensors: each image is
    # transform_coproduct's, and maps to the first change reaching it.
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        groups = [[p.rows for p in cls.automorphisms] for cls in catalog(n).classes]
        groups.append([m.rows for m in rng.sample(enumerate_invertible(n), min(8, n * n))])
        for rows in groups:
            changes = [kernels.coproduct_change(p, n) for p in rows]
            for _ in range(4):
                c = rng.getrandbits(n**3)
                want = {}
                for p, pinv, _ in changes:
                    assert pinv == mat_inv_rows(p, n)
                    want.setdefault(kernels.transform_coproduct(c, n, p, pinv), (p, pinv))
                got = kernels.coproduct_orbit(c, n, changes)
                assert {image: change[:2] for image, change in got.items()} == want


def test_identity_transform():
    ident = (1, 2, 4, 8)
    rng = random.Random(1)
    for _ in range(20):
        t = rng.getrandbits(64)
        assert kernels.transform_product(t, 4, ident, ident) == t
        assert kernels.transform_coproduct(t, 4, ident, ident) == t
