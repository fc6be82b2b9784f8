import random
from functools import lru_cache

import pytest

from f2hopf.gf2 import (
    enumerate_invertible,
    gl_order,
    mat_inv_rows,
    mat_mul_rows,
    mat_order_rows,
    mat_transpose_rows,
    rank_rows,
    set_field,
    solve_linear,
    value_type,
)
from f2hopf.structure import AlgebraSC, CoalgebraSC, dualize_coalgebra
from reference import naive_mat_mul, naive_rank


def pack(lists) -> tuple[int, ...]:
    """The packed rows of a matrix written as lists of 0/1 entries."""
    return tuple(sum(c << j for j, c in enumerate(row)) for row in lists)


def test_solve_zero_map():
    particular, nullspace = solve_linear([0], 1, 0)
    assert particular == 0
    assert nullspace == [0b1]
    assert 1 << len(nullspace) == 2


def test_solve_identity():
    particular, nullspace = solve_linear((1, 2, 4), 3, 0b101)
    assert particular == 0b101
    assert nullspace == []
    assert 1 << len(nullspace) == 1


def test_solve_rank_deficient():
    particular, nullspace = solve_linear([0b11, 0b11], 2, 0b11)
    assert particular == 0b01
    assert nullspace == [0b11]
    assert 1 << len(nullspace) == 2


def test_solve_inconsistent():
    assert solve_linear([0b11, 0b11], 2, 0b01) is None


def test_solve_dimension_mismatch():
    # A constant for a third row of a two-row system.
    with pytest.raises(ValueError):
        solve_linear((1, 2), 2, 0b101)


def test_invert_identity():
    assert mat_inv_rows((1, 2, 4, 8), 4) == (1, 2, 4, 8)


def test_invert_involution():
    m = pack([[1, 1], [0, 1]])
    assert mat_inv_rows(m, 2) == m


def test_invert_singular():
    assert mat_inv_rows(pack([[1, 1], [1, 1]]), 2) is None


def test_invert_exhaustive_2x2():
    # Every 2x2 matrix: invertible iff full rank, and the inverse is two-sided.
    count = 0
    for bits in range(16):
        m = (bits & 3, bits >> 2)
        inv = mat_inv_rows(m, 2)
        if inv is not None:
            count += 1
            assert mat_mul_rows(m, inv) == mat_mul_rows(inv, m) == (1, 2)
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
    assert len(set(mats)) == len(mats)
    for m in random.Random(0).sample(mats, min(50, len(mats))):
        assert mat_inv_rows(m, n) is not None


def test_gl_order_values():
    assert gl_order(4) == 20160
    assert gl_order(2) == 6


def test_gl_unit_fixing():
    fixed = enumerate_invertible(4, fix_unit=True)
    assert len(fixed) == 1344
    assert all(m[0] == 1 for m in fixed)
    assert enumerate_invertible(1) == [(1,)]


def test_gl_lex_order():
    mats = enumerate_invertible(3)
    assert mats == sorted(mats)


def test_solution_count_matches_nullity():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        rows = [rng.getrandbits(n) for _ in range(m)]
        rhs = rng.getrandbits(m)
        sol = solve_linear(iter(rows), n, rhs)
        brute = [
            x for x in range(1 << n)
            if all(
                ((rows[i] & x).bit_count() & 1) == ((rhs >> i) & 1)
                for i in range(m)
            )
        ]
        if sol is None:
            assert brute == []
        else:
            particular, nullspace = sol
            # The span of the nullspace basis, shifted by the particular solution.
            got = []
            for mask in range(1 << len(nullspace)):
                x = particular
                for i, v in enumerate(nullspace):
                    if (mask >> i) & 1:
                        x ^= v
                got.append(x)
            assert sorted(set(got)) == brute
            assert 1 << len(nullspace) == len(brute)


def test_packed_product_against_naive():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(1, 6)
        k = rng.randint(1, 6)
        m = rng.randint(1, 6)
        a = [[rng.randint(0, 1) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(0, 1) for _ in range(m)] for _ in range(k)]
        packed = mat_mul_rows(pack(a), pack(b))
        assert pack(naive_mat_mul(a, b)) == packed


def test_transpose_against_naive():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        assert mat_transpose_rows(pack(m)) == pack(zip(*m))


def test_matrix_order():
    s = pack([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert mat_order_rows(s) == 2
    assert mat_order_rows((1, 2, 4)) == 1
    # The companion matrix of x^3 + x + 1, primitive: order 2^3 - 1.
    assert mat_order_rows(pack([[0, 1, 0], [0, 0, 1], [1, 1, 0]])) == 7


def test_matrix_order_refuses_singular_and_non_square():
    with pytest.raises(ValueError):
        mat_order_rows(pack([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):  # 2 rows, 3 columns
        mat_order_rows(pack([[1, 0, 1], [0, 1, 0]]))


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


@value_type
class _Bits:
    """A value type with its own ``__init__``, as the ones built in bulk have."""

    n: int
    bits: int

    def __init__(self, n: int, bits: int):
        if bits >> n:
            raise ValueError("set bit outside [0, n)")
        set_field(self, "n", n)
        set_field(self, "bits", bits)


@pytest.mark.parametrize("value", [
    _Bits(3, 5), CoalgebraSC(1, 1, 1), dualize_coalgebra(CoalgebraSC(1, 1, 1)), _Pair(1)])
def test_value_types_refuse_assignment_and_deletion(value):
    field = next(iter(type(value).__annotations__))
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_value_types_compare_hash_and_cache_by_fields():
    a, b = _Bits(2, 3), _Bits(2, 3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert _Bits(2, 3) != _Bits(2, 1) != _Bits(3, 1)
    assert _Bits(2, 1) == _Bits(n=2, bits=1) != _Bits(3, 1)
    assert len({a, b, _Bits(2, 1), _Bits(n=2, bits=1)}) == 2

    calls = []

    @lru_cache(maxsize=None)
    def rank_of(m):
        calls.append(m)
        return rank_rows([m.bits & 1, m.bits & 2])

    assert rank_of(a) == rank_of(b) == 2
    assert calls == [a]


def test_value_types_equal_within_one_class_only():
    assert _Pair(2, 1) != (2, 1)
    assert _Bits(2, 1) != _Pair(2, 1)
    assert _Bits(2, 1).__eq__(_Pair(2, 1)) is NotImplemented


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
        _Bits(2, 4)
    with pytest.raises(ValueError):
        AlgebraSC(1, 2)


def test_value_type_repr_names_class_and_fields():
    assert repr(_Bits(3, 5)) == "_Bits(n=3, bits=5)"
    assert repr(AlgebraSC(1, 1)) == "AlgebraSC(n=1, v=1, eta=1)"
    assert repr(_Pair(1)) == "_Pair(left=1, right=0)"
