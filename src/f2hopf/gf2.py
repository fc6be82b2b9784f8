"""Exact linear algebra over the two-element field.

Vectors and matrices are bit-packed into Python integers: coordinate i of a
vector lives at bit i (least significant bit first), and a matrix is a tuple
of packed rows in row-major order.  This layout is part of the on-disk
format, so serialized fixtures stay stable.  All arithmetic is exact.

There is one elimination: ``_row_reduce`` runs Gauss-Jordan on packed rows,
and the rank, the inverse, the linear solve and the enumeration of GL(n, F2)
all read their answer off its pivot rows.

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


@value_type
class Gf2Vec:
    """Length-n vector over F2; coordinate i is bit i of ``bits``."""

    n: int
    bits: int

    def __init__(self, n: int, bits: int):
        if bits >> n:
            raise ValueError("set coordinate outside [0, n)")
        set_field(self, "n", n)
        set_field(self, "bits", bits)

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.n))


def vec(coords) -> Gf2Vec:
    coords = list(coords)
    bits = 0
    for i, c in enumerate(coords):
        if c & 1:
            bits |= 1 << i
    return Gf2Vec(len(coords), bits)


@value_type
class Gf2Mat:
    """rows x cols matrix over F2, packed one integer per row (bit j = column j)."""

    rows: tuple[int, ...]
    cols: int

    def __init__(self, rows: tuple[int, ...], cols: int):
        for r in rows:
            if r >> cols:
                raise ValueError("set entry outside column range")
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)

    @classmethod
    def from_rows(cls, row_lists) -> "Gf2Mat":
        rows = []
        cols = None
        for row in row_lists:
            row = list(row)
            if cols is None:
                cols = len(row)
            elif len(row) != cols:
                raise ValueError("ragged rows")
            bits = 0
            for j, c in enumerate(row):
                if c & 1:
                    bits |= 1 << j
            rows.append(bits)
        return cls(tuple(rows), cols or 0)

    @classmethod
    def identity(cls, n: int) -> "Gf2Mat":
        return cls(tuple(1 << i for i in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return (self.rows[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.rows]

    def __mul__(self, other: "Gf2Mat") -> "Gf2Mat":
        if self.cols != other.nrows:
            raise ValueError("shape mismatch in product")
        return Gf2Mat(mat_mul_rows(self.rows, other.rows), other.cols)

    def mul_vec(self, v: Gf2Vec) -> Gf2Vec:
        """Matrix times column vector: (Mv)_i = sum_j M[i][j] v_j."""
        if self.cols != v.n:
            raise ValueError("shape mismatch")
        bits = 0
        for i, r in enumerate(self.rows):
            if parity(r & v.bits):
                bits |= 1 << i
        return Gf2Vec(self.nrows, bits)

    def transpose(self) -> "Gf2Mat":
        out = [0] * self.cols
        for i, r in enumerate(self.rows):
            for j in bits_of(r):
                out[j] |= 1 << i
        return Gf2Mat(tuple(out), self.nrows)

    def inverse(self) -> "Gf2Mat | None":
        """Two-sided inverse, or None when the matrix is singular."""
        if self.nrows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        inv = mat_inv_rows(self.rows, self.cols)
        if inv is None:
            return None
        return Gf2Mat(inv, self.cols)

    def is_identity(self) -> bool:
        return self.nrows == self.cols and all(
            r == 1 << i for i, r in enumerate(self.rows)
        )

    def power(self, k: int) -> "Gf2Mat":
        if self.nrows != self.cols:
            raise ValueError("power of a non-square matrix")
        acc = Gf2Mat.identity(self.cols)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def order(self, limit: int = 1 << 20) -> int:
        """Multiplicative order; raises if the matrix is singular."""
        if self.inverse() is None:
            raise ValueError("singular matrix has no multiplicative order")
        acc = self
        k = 1
        while not acc.is_identity():
            acc = acc * self
            k += 1
            if k > limit:
                raise RuntimeError("order exceeds limit")
        return k


# --- raw row-tuple helpers (hot paths work on these directly) ---------------


def mat_mul_rows(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
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


@value_type
class LinearSolution:
    """Particular solution plus a basis of the homogeneous nullspace."""

    particular: Gf2Vec
    nullspace: tuple[Gf2Vec, ...]

    @property
    def count(self) -> int:
        return 1 << len(self.nullspace)

    def solutions(self) -> Iterator[Gf2Vec]:
        """All solutions, in ascending order of the free-bit combination."""
        for mask in range(self.count):
            bits = self.particular.bits
            for i in bits_of(mask):
                bits ^= self.nullspace[i].bits
            yield Gf2Vec(self.particular.n, bits)


def solve_linear(a: Gf2Mat, b: Gf2Vec) -> LinearSolution | None:
    """Solve Ax = b over F2; None when inconsistent.

    The particular solution is the one with every free variable set to 0,
    which makes the output deterministic.
    """
    if a.nrows != b.n:
        raise ValueError("A and b have different numbers of rows")
    n = a.cols
    pivots = _row_reduce(
        (r | ((b.bits >> i) & 1) << n for i, r in enumerate(a.rows)), n
    )
    if pivots is None:
        return None  # 0 = 1
    particular = 0
    for col, row in pivots.items():
        particular |= ((row >> n) & 1) << col
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = 1 << free
        for col, row in pivots.items():
            v |= ((row >> free) & 1) << col
        basis.append(Gf2Vec(n, v))
    return LinearSolution(Gf2Vec(n, particular), tuple(basis))


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


def enumerate_invertible(n: int, fix_unit: bool = False) -> list[Gf2Mat]:
    """All invertible n x n matrices, rows chosen lexicographically smallest
    first, so the stream order is reproducible.  With ``fix_unit`` only
    matrices whose row 0 is the first standard basis vector are produced.
    """
    if not 1 <= n <= 8:
        raise ValueError("dimension out of supported range")
    return [Gf2Mat(rows, n) for rows in _gl_rows(n, fix_unit)]


def gl_order(n: int) -> int:
    total = 1
    for k in range(n):
        total *= (1 << n) - (1 << k)
    return total
