import random
from functools import lru_cache

import pytest

from f2hopf.gf2 import (
    Gf2Mat,
    Gf2Vec,
    enumerate_invertible,
    gl_order,
    mat_inv_rows,
    mat_mul_rows,
    rank_rows,
    solve_linear,
    value_type,
    vec,
)
from reference import naive_mat_mul, naive_rank


def test_solve_zero_map():
    sol = solve_linear(Gf2Mat((0,), 1), vec([0]))
    assert sol.particular.bits == 0
    assert [v.coords() for v in sol.nullspace] == [(1,)]
    assert sol.count == 2


def test_solve_identity():
    sol = solve_linear(Gf2Mat.identity(3), vec([1, 0, 1]))
    assert sol.particular.coords() == (1, 0, 1)
    assert sol.nullspace == ()
    assert sol.count == 1


def test_solve_rank_deficient():
    sol = solve_linear(Gf2Mat.from_rows([[1, 1], [1, 1]]), vec([1, 1]))
    assert sol.particular.coords() == (1, 0)
    assert [v.coords() for v in sol.nullspace] == [(1, 1)]
    assert sol.count == 2


def test_solve_inconsistent():
    assert solve_linear(Gf2Mat.from_rows([[1, 1], [1, 1]]), vec([1, 0])) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(Gf2Mat.identity(2), vec([1, 0, 1]))


def test_invert_identity():
    assert Gf2Mat.identity(4).inverse().is_identity()


def test_invert_involution():
    m = Gf2Mat.from_rows([[1, 1], [0, 1]])
    assert m.inverse().rows == m.rows


def test_invert_singular():
    assert Gf2Mat.from_rows([[1, 1], [1, 1]]).inverse() is None


def test_invert_exhaustive_2x2():
    # Every 2x2 matrix: invertible iff full rank, and the inverse is two-sided.
    count = 0
    for bits in range(16):
        m = Gf2Mat((bits & 3, bits >> 2), 2)
        inv = m.inverse()
        if inv is not None:
            count += 1
            assert (m * inv).is_identity() and (inv * m).is_identity()
    assert count == 6


def test_rank_against_naive():
    rng = random.Random(5)
    for _ in range(500):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        lists = [[(r >> j) & 1 for j in range(ncols)] for r in rows]
        assert rank_rows(rows) == naive_rank(lists)
    assert rank_rows([]) == 0


def test_invert_exhaustive_3x3():
    # Every 3x3 matrix: a two-sided inverse exactly when the naive rank is 3.
    count = 0
    for bits in range(1 << 9):
        rows = (bits & 7, (bits >> 3) & 7, bits >> 6)
        inv = mat_inv_rows(rows, 3)
        full = naive_rank([[(r >> j) & 1 for j in range(3)] for r in rows]) == 3
        assert (inv is not None) == full
        if full:
            count += 1
            assert mat_mul_rows(rows, inv) == mat_mul_rows(inv, rows) == (1, 2, 4)
    assert count == gl_order(3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gl_counts(n):
    mats = enumerate_invertible(n)
    assert len(mats) == gl_order(n)
    assert len(set(m.rows for m in mats)) == len(mats)
    for m in random.Random(0).sample(mats, min(50, len(mats))):
        assert m.inverse() is not None


def test_gl_order_values():
    assert gl_order(4) == 20160
    assert gl_order(2) == 6


def test_gl_unit_fixing():
    fixed = enumerate_invertible(4, fix_unit=True)
    assert len(fixed) == 1344
    assert all(m.rows[0] == 1 for m in fixed)
    assert enumerate_invertible(1) == [Gf2Mat.identity(1)]


def test_gl_lex_order():
    mats = enumerate_invertible(3)
    assert [m.rows for m in mats] == sorted(m.rows for m in mats)


def test_solution_count_matches_nullity():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        a = Gf2Mat(tuple(rng.getrandbits(n) for _ in range(m)), n)
        b = Gf2Vec(m, rng.getrandbits(m))
        sol = solve_linear(a, b)
        brute = [
            x for x in range(1 << n)
            if all(
                ((a.rows[i] & x).bit_count() & 1) == ((b.bits >> i) & 1)
                for i in range(m)
            )
        ]
        if sol is None:
            assert brute == []
        else:
            got = sorted(s.bits for s in sol.solutions())
            assert sorted(set(got)) == brute
            assert sol.count == len(brute)


def test_packed_product_against_naive():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(1, 6)
        k = rng.randint(1, 6)
        m = rng.randint(1, 6)
        a = [[rng.randint(0, 1) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(0, 1) for _ in range(m)] for _ in range(k)]
        packed = Gf2Mat.from_rows(a) * Gf2Mat.from_rows(b)
        assert tuple(tuple(r) for r in packed.to_lists()) == naive_mat_mul(a, b)


def test_matrix_order():
    s = Gf2Mat.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert s.order() == 2
    assert Gf2Mat.identity(3).order() == 1


def test_mul_rows_associative():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        a, b, c = (tuple(rng.getrandbits(n) for _ in range(n)) for _ in range(3))
        assert mat_mul_rows(mat_mul_rows(a, b), c) == mat_mul_rows(a, mat_mul_rows(b, c))


@value_type
class _Pair:
    left: int
    right: int = 0

    def __post_init__(self):
        if self.left < 0:
            raise ValueError("negative left")


@pytest.mark.parametrize("value", [
    Gf2Vec(3, 5), Gf2Mat((1, 2), 2), solve_linear(Gf2Mat((0,), 1), vec([0])), _Pair(1)])
def test_value_types_refuse_assignment_and_deletion(value):
    field = next(iter(type(value).__annotations__))
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_value_types_compare_hash_and_cache_by_fields():
    a, b = Gf2Mat((1, 2), 2), Gf2Mat((1, 2), 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert Gf2Mat((1, 2), 2) != Gf2Mat((1, 3), 2) != Gf2Mat((1, 3), 3)
    assert Gf2Vec(2, 1) == Gf2Vec(n=2, bits=1) != Gf2Vec(3, 1)
    assert len({a, b, Gf2Mat.identity(2), Gf2Mat((2, 1), 2)}) == 2

    calls = []

    @lru_cache(maxsize=None)
    def rank_of(m):
        calls.append(m)
        return rank_rows(m.rows)

    assert rank_of(a) == rank_of(b) == 2
    assert calls == [a]


def test_value_types_equal_within_one_class_only():
    assert _Pair(2, 1) != (2, 1)
    assert Gf2Vec(2, 1) != _Pair(2, 1)
    assert Gf2Vec(2, 1).__eq__(_Pair(2, 1)) is NotImplemented


def test_value_type_init_by_position_keyword_and_default():
    assert _Pair(3) == _Pair(3, 0) == _Pair(left=3) == _Pair(right=0, left=3)
    assert _Pair(3, right=4).right == 4
    with pytest.raises(TypeError):
        _Pair()
    with pytest.raises(TypeError):
        _Pair(1, 2, 3)
    with pytest.raises(TypeError):
        _Pair(1, left=1)
    with pytest.raises(TypeError):
        _Pair(1, other=2)
    with pytest.raises(ValueError):
        _Pair(-1)


def test_value_types_validate_bits_in_range():
    with pytest.raises(ValueError):
        Gf2Vec(2, 4)
    with pytest.raises(ValueError):
        Gf2Mat((1, 4), 2)


def test_value_type_repr_names_class_and_fields():
    assert repr(Gf2Vec(3, 5)) == "Gf2Vec(n=3, bits=5)"
    assert repr(Gf2Mat((1, 2), 2)) == "Gf2Mat(rows=(1, 2), cols=2)"
    assert repr(_Pair(1)) == "_Pair(left=1, right=0)"
