"""Exact linear algebra over the two-element field.

A vector is an int: coordinate i lives at bit i (least significant bit
first).  A matrix is the tuple of its packed rows, bit j of row i holding
entry (i, j); every matrix the engine computes is square, so the row count
gives the shape.  This layout is part of the on-disk format, so serialized
fixtures stay stable.  All arithmetic is exact.

There is one elimination: ``_row_reduce`` runs Gauss-Jordan on packed rows,
and the rank, the inverse, the order, the linear solve and the enumeration
of GL(n, F2) all read their answer off its pivot rows.  ``solve_linear``
takes the rows and one int whose bit i is row i's constant, and answers
with the particular solution and the nullspace basis as ints.

``value_type``, the lowest piece of the package, makes the immutable value
classes that every module declares.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from functools import lru_cache

# How the explicit ``__init__`` of a hot value type stores its fields.
set_field = object.__setattr__


def value_type(cls):
    """Class decorator for an immutable value whose fields are the names
    annotated in the class body, in order; a class attribute of the same name
    is the field's default.

    Adds each of these that the class body does not define: ``__init__``
    (fields by position or keyword, then ``__post_init__`` if present);
    ``__eq__`` and ``__hash__`` over the tuple of fields, equal within one
    class only; ``__repr__`` naming the class and its fields; and
    ``__setattr__`` and ``__delattr__`` raising ``AttributeError``.  The
    classes built in bulk define ``__init__`` themselves, storing each field
    with ``set_field``, because a generic one costs a loop per instance.
    Instances keep a ``__dict__``, so ``functools.cached_property`` works.
    """
    name = cls.__name__
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    fields = operator.attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} fields, got {len(args)}")
        for field, value in zip(names, args):
            set_field(self, field, value)
        for field in names[len(args):]:
            if field in kwargs:
                value = kwargs.pop(field)
            elif field in defaults:
                value = defaults[field]
            else:
                raise TypeError(f"{name}() missing field {field!r}")
            set_field(self, field, value)
        if kwargs:
            raise TypeError(f"{name}() got an unexpected field {next(iter(kwargs))!r}")
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in names)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls


def parity(x: int) -> int:
    return x.bit_count() & 1


def bits_of(x: int) -> Iterator[int]:
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


@lru_cache(maxsize=None)
def spread_table(n: int) -> tuple[int, ...]:
    """spread[s]: bit t*n set for each bit t of an n-bit s, so that
    spread[s] * x places a copy of an n-bit x at each t*n, without carries."""
    spread = [0]
    for t in range(n):
        spread += [w | 1 << (t * n) for w in spread]
    return tuple(spread)


# --- matrices: tuples of packed rows ---------------------------------------


def mat_mul_rows(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product a b: row i is the sum of the rows of b that row i of a
    selects."""
    out = []
    for ra in a:
        acc = 0
        r = ra
        while r:
            low = r & -r
            acc ^= b[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return tuple(out)


def mat_transpose_rows(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The transpose of a square matrix."""
    out = [0] * len(rows)
    for i, r in enumerate(rows):
        for j in bits_of(r):
            out[j] |= 1 << i
    return tuple(out)


def mat_order_rows(rows: tuple[int, ...]) -> int:
    """Multiplicative order of a square matrix.  Raises ``ValueError`` when
    a row has a bit at or beyond the row count (not square) or the matrix
    is singular; an invertible matrix has finite order, so the loop ends."""
    n = len(rows)
    if any(r >> n for r in rows) or mat_inv_rows(rows, n) is None:
        raise ValueError("only an invertible square matrix has a multiplicative order")
    identity = tuple(1 << i for i in range(n))
    acc = rows
    k = 1
    while acc != identity:
        acc = mat_mul_rows(acc, rows)
        k += 1
    return k


def _row_reduce(rows, ncols: int) -> dict[int, int] | None:
    """Gauss-Jordan elimination on the low ``ncols`` bits of packed rows.

    Bits from ``ncols`` up are carried along (an augmented block).  Returns
    {pivot column: reduced row}, each pivot column set in its own row only,
    or None when a row reduces to carried bits alone.
    """
    pivots: dict[int, int] = {}
    pivot_bits = 0
    for row in rows:
        # Clearing one pivot column sets no other: pivot rows are reduced.
        hits = row & pivot_bits
        while hits:
            low = hits & -hits
            row ^= pivots[low.bit_length() - 1]
            hits ^= low
        if not row:
            continue
        low = row & -row
        col = low.bit_length() - 1
        if col >= ncols:
            return None
        for other, pivot_row in pivots.items():
            if pivot_row & low:
                pivots[other] = pivot_row ^ row
        pivots[col] = row
        pivot_bits |= low
    return pivots


def rank_rows(rows) -> int:
    rows = tuple(rows)
    return len(_row_reduce(rows, max(rows, default=0).bit_length()))


def mat_inv_rows(rows, n: int) -> tuple[int, ...] | None:
    """Gauss-Jordan inverse of an n x n packed matrix, or None if singular.

    Row c of the inverse is the identity block of [A | I]'s pivot row c.
    """
    pivots = _row_reduce((rows[i] | 1 << (n + i) for i in range(n)), n)
    if pivots is None:
        return None
    return tuple(pivots[c] >> n for c in range(n))


def solve_linear(rows, ncols: int, rhs: int) -> tuple[int, list[int]] | None:
    """Solve the packed system row_i . x = bit i of rhs over F2 in ``ncols``
    unknowns; None when it is inconsistent.

    Returns (particular, nullspace): the solution with every free variable
    0, and one basis vector of the homogeneous solutions per free column,
    in ascending order of that column.
    """
    rows = tuple(rows)
    if rhs >> len(rows):
        raise ValueError("rhs has a bit beyond the last row")
    pivots = _row_reduce(
        (r | ((rhs >> i) & 1) << ncols for i, r in enumerate(rows)), ncols
    )
    if pivots is None:
        return None  # 0 = 1
    particular = 0
    for col, row in pivots.items():
        particular |= ((row >> ncols) & 1) << col
    nullspace = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = 1 << free
        for col, row in pivots.items():
            v |= ((row >> free) & 1) << col
        nullspace.append(v)
    return particular, nullspace


# --- enumeration of GL(n, F2) ------------------------------------------------


@lru_cache(maxsize=None)
def _gl_rows(n: int, fix_unit: bool) -> tuple[tuple[int, ...], ...]:
    # Extend every independent prefix by each row that keeps it independent;
    # prefixes stay in lexicographic order from one depth to the next.
    prefixes: list[tuple[int, ...]] = [()]
    for depth in range(n):
        candidates = (1,) if fix_unit and depth == 0 else range(1, 1 << n)
        prefixes = [
            p + (r,) for p in prefixes for r in candidates
            if rank_rows(p + (r,)) > depth
        ]
    return tuple(prefixes)


def enumerate_invertible(n: int, fix_unit: bool = False) -> list[tuple[int, ...]]:
    """All invertible n x n matrices, rows chosen lexicographically smallest
    first, so the stream order is reproducible.  With ``fix_unit`` only
    matrices whose row 0 is the first standard basis vector are produced.
    """
    if not 1 <= n <= 8:
        raise ValueError("dimension out of supported range")
    return list(_gl_rows(n, fix_unit))


def gl_order(n: int) -> int:
    total = 1
    for k in range(n):
        total *= (1 << n) - (1 << k)
    return total
