"""The named unital algebras over F2 in dimensions 1..4 and the machinery to
enumerate, classify and identify algebras against them.

Relation tables give the nonzero products among the non-unit basis elements;
a product listed once is taken in both orders unless the reversed product is
listed explicitly (so commutative tables stay short).  Everything is checked
against the axiom evaluators at load time.

Nothing here scans GL(n).  Automorphism groups and isomorphisms are the
solutions of the homomorphism equations (``isomorphisms``); a catalog
solves a class's group only when it is first read, and orbit sizes follow
from it by orbit-stabiliser.  An algebra is identified by
``algebra_invariant``, a basis-free summary of its product table that is
distinct for every catalog class and complete in dimensions <= 4 (the tests
compare its classes with the unit-fixing orbits of every enumerated tensor).
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial

from f2hopf import kernels
from f2hopf.gf2 import Gf2Mat, gl_order, rank_rows, value_type
from f2hopf.structure import (
    AlgebraSC,
    algebra_equations,
    check_algebra,
    homomorphism_equations,
    tensor_bit,
)

BASIS_NAMES = {1: ("1",), 2: ("1", "x"), 3: ("1", "x", "y"), 4: ("1", "x", "y", "z")}

# dimension 2, basis 1, x
RELATIONS_DIM2 = {
    "A": "x*x=0",
    "B": "x*x=x",
    "C": "x*x=1+x",
}

# dimension 3, basis 1, x, y
RELATIONS_DIM3 = {
    "A": "",
    "B": "x*x=x; y*y=y",
    "C": "x*x=x",
    "D": "x*x=y; y*y=x; x*y=x+y",
    "E": "x*x=y",
    "F": "x*x=y; x*y=1+y; y*y=1+x+y",
    "G": "x*x=x; x*y=y; y*x=0",
}

# dimension 4, basis 1, x, y, z; commutative entries first
RELATIONS_DIM4 = {
    "A": "",
    "B": "x*x=z",
    "C": "x*x=x",
    "D": "x*x=x; x*y=z; x*z=z",
    "E": "x*y=z",
    "F": "x*x=z; x*y=z",
    "G": "x*x=y; x*y=z",
    "H": "x*x=1+x; x*y=z; x*z=y+z",
    "I": "x*x=y; y*y=x; x*y=x+y",
    "J": "x*x=x+z; x*y=x+z; y*y=x",
    "K": "x*x=x; y*y=y",
    "L": "x*x=z; x*z=1+y; y*y=y; z*z=x",
    "M": "x*x=1+x+y+z; y*y=y; z*z=x; x*z=1+x+y",
    "N": "x*x=1+x; y*y=1+y; x*y=z; x*z=y+z; y*z=x+z; z*z=1+x+y+z",
    "O": "x*x=y; x*y=z; x*z=1+x; y*y=1+x; y*z=x+y; z*z=y+z",
    "P": "x*x=x; y*y=y; x*y=z; x*z=z; y*z=z; z*z=z",
    "NA": "x*y=z; y*x=0",
    "NB": "x*x=z; x*y=z; y*x=0; y*y=z",
    "NC": "x*x=x; x*y=y; y*x=0",
    "ND": "x*x=x; y*x=y; x*y=0",
    "NE": "x*x=x; x*y=y; x*z=z; y*x=0; z*x=0",
    "NF": "x*x=x; y*x=y; x*z=z; x*y=0; z*x=0",
    "NG": "x*x=x; y*y=y; x*z=z; z*x=0",
    "NH": "x*x=x; y*x=y; x*z=z; x*y=0; z*x=0; y*z=1+x; z*y=x",
    "NI": "x*y=x+z; y*x=z; y*y=1+y; y*z=x+z; z*y=x",
}

RELATIONS = {
    1: {"F2": ""},
    2: RELATIONS_DIM2,
    3: RELATIONS_DIM3,
    4: RELATIONS_DIM4,
}


def parse_element(expr: str, names: tuple[str, ...]) -> int:
    """Parse '1+x+y' style sums of basis names into a packed vector."""
    expr = expr.strip()
    if expr == "0":
        return 0
    bits = 0
    for tok in expr.split("+"):
        tok = tok.strip()
        if tok not in names:
            raise ValueError(f"unknown basis element {tok!r}")
        bits ^= 1 << names.index(tok)
    return bits


def algebra_from_relations(
    n: int, relations: str, names: tuple[str, ...] | None = None
) -> AlgebraSC:
    """Build a standard-form algebra tensor from a relation table."""
    if names is None:
        names = BASIS_NAMES[n]
    given: dict[tuple[int, int], int] = {}
    explicit: set[tuple[int, int]] = set()
    for clause in relations.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        lhs, rhs = clause.split("=")
        a, b = (t.strip() for t in lhs.split("*"))
        i, j = names.index(a), names.index(b)
        given[(i, j)] = parse_element(rhs, names)
        explicit.add((i, j))
    v = 0
    for mu in range(n):
        for nu in range(n):
            if mu == 0:
                vec = 1 << nu
            elif nu == 0:
                vec = 1 << mu
            elif (mu, nu) in explicit:
                vec = given[(mu, nu)]
            elif (nu, mu) in explicit:
                vec = given[(nu, mu)]
            else:
                vec = 0
            v |= vec << ((mu * n + nu) * n)
    alg = AlgebraSC(n, v)
    rep = check_algebra(alg)
    if not rep:
        raise ValueError(f"relation table is not associative/unital: {rep}")
    return alg


@value_type
class AlgebraClass:
    """One isomorphism class: its label, relation text and hand-entered
    representative.  Its automorphism group and the size of its orbit under
    unit-fixing basis changes are solved when first read, through the
    memoised ``automorphism_group`` of the representative."""

    label: str
    n: int
    representative: AlgebraSC
    relations_doc: str

    @property
    def commutative(self) -> bool:
        return self.representative.commutative

    @property
    def automorphisms(self) -> tuple[Gf2Mat, ...]:
        return automorphism_group(self.representative)

    @property
    def orbit_size(self) -> int:
        """Orbit-stabiliser: the unit-fixing basis changes form a group of
        order 2^(n-1) |GL(n-1)|, and the stabiliser is the automorphism group."""
        n = self.n
        return (1 << (n - 1)) * gl_order(n - 1) // len(self.automorphisms)


@value_type
class AlgebraCatalog:
    n: int
    classes: tuple[AlgebraClass, ...]
    invariant_label: dict[tuple, str]  # algebra_invariant -> class label

    def __getitem__(self, label: str) -> AlgebraClass:
        for cls in self.classes:
            if cls.label == label:
                return cls
        raise KeyError(label)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.classes)


def algebra_invariant(a: AlgebraSC) -> tuple:
    """Isomorphism invariant read off the product table of all 2^n elements.

    For each element x it records (x^2 = 0, #{y : xy = 0}, #{y : xy = yx}),
    the tuples sorted over x.  Nothing here refers to a basis, so any unit
    position gives the same value.  It separates every catalog class of
    dimension <= 4 and is complete there:
    ``test_orbits_are_the_invariant_classes`` checks that it partitions the
    full enumeration exactly into the unit-fixing orbits.  No component can
    be dropped: without any one of them two catalog entries collide.
    """
    # Elements are bit vectors.  left[i][y] = e_i y is filled by doubling
    # over the bits of y, then table[x][y] = x y by doubling over those of x.
    left = []
    for i in range(a.n):
        row = [0]
        for j in range(a.n):
            pij = a.prod(i, j)
            row += [r ^ pij for r in row]
        left.append(row)
    table = [[0] * (1 << a.n)]
    for row_i in left:
        table += [[p ^ q for p, q in zip(t, row_i)] for t in table]
    return tuple(sorted((row[x] == 0, row.count(0), sum(map(operator.eq, row, col)))
                        for x, (row, col) in enumerate(zip(table, zip(*table)))))


@lru_cache(maxsize=None)
def catalog(n: int) -> AlgebraCatalog:
    """Build (and cache) the catalog for one dimension.

    Each class's representative is read off its relation table and checked;
    classes are told apart by ``algebra_invariant``, which must differ for
    every pair of entries.  No automorphism group is solved here: a class
    solves its own when ``automorphisms`` or ``orbit_size`` is first read."""
    if n not in RELATIONS:
        raise ValueError(f"no catalog for dimension {n!r}")
    classes = []
    invariant_label: dict[tuple, str] = {}
    for label, rel in RELATIONS[n].items():
        alg = algebra_from_relations(n, rel)
        prev = invariant_label.setdefault(algebra_invariant(alg), label)
        if prev != label:
            raise RuntimeError(f"catalog entries {prev} and {label} share an invariant")
        classes.append(AlgebraClass(label=label, n=n, representative=alg, relations_doc=rel))
    return AlgebraCatalog(n, tuple(classes), invariant_label)


def isomorphisms(a: AlgebraSC, b: AlgebraSC) -> list[Gf2Mat]:
    """Every algebra isomorphism from a onto b, in lexicographic order of the
    rows tuple (the order of gf2.enumerate_invertible).

    Row i of a matrix is the image of basis element i of a in the basis of
    b.  The unital algebra maps are the solutions of
    ``homomorphism_equations``; the invertible ones are kept.  Entry (i, j)
    is variable n*(n-1-i) + j, so row 0 takes the highest bits and ascending
    masks are in lexicographic row order.
    """
    n = a.n
    if b.n != n:
        return []
    equations = homomorphism_equations(a, b, lambda i, j: n * (n - 1 - i) + j)
    row_mask = (1 << n) - 1
    out = []
    for mask in kernels.solve_quadratic(n * n, equations):
        rows = tuple((mask >> (n * (n - 1 - i))) & row_mask for i in range(n))
        if rank_rows(rows) == n:
            out.append(Gf2Mat(rows, n))
    return out


@lru_cache(maxsize=None)
def automorphism_group(a: AlgebraSC) -> tuple[Gf2Mat, ...]:
    """All unit-fixing basis changes preserving the tensor exactly, in
    lexicographic row order.  Memoised: a catalog class and every coproduct
    solve of an algebra share one group, solved on first use."""
    if not a.is_standard:
        raise ValueError("automorphism_group expects standard form")
    return tuple(isomorphisms(a, a))


def standardize_unit(a: AlgebraSC) -> tuple[AlgebraSC, Gf2Mat]:
    """Basis change moving the unit to basis index 0.

    The first row of the change matrix is the unit combination; the remaining
    rows are the lexicographically smallest completion to an invertible
    matrix, chosen greedily: each is the smallest vector that raises the
    rank.  Returns (standard-form algebra, change matrix).
    """
    n = a.n
    if a.eta == 0:
        raise ValueError("algebra has zero unit vector")
    rows = [a.eta]
    for r in range(1, 1 << n):
        if len(rows) == n:
            break
        if rank_rows(rows + [r]) > len(rows):
            rows.append(r)
    p = Gf2Mat(tuple(rows), n)
    from f2hopf.structure import apply_basis_change_algebra

    std = apply_basis_change_algebra(a, p)
    assert std.eta == 1
    return std, p


@lru_cache(maxsize=None)
def identify_algebra(a: AlgebraSC) -> str:
    """Catalog label of the class of an algebra or tensor product, memoised.
    The unit may sit anywhere: the invariant does not depend on the basis."""
    rep = check_algebra(a)
    if not rep:
        raise ValueError(f"not a unital associative algebra: {rep}")
    return _invariant_label(a)


def _invariant_label(a) -> str:
    try:
        return catalog(a.n).invariant_label[algebra_invariant(a)]
    except KeyError:
        raise RuntimeError("algebra not in catalog (catalog incomplete?)") from None


@lru_cache(maxsize=None)
def _catalog_label(n: int, v: int, eta: int) -> str:
    # Keyed by plain integers: a hit costs about as much as one dict lookup.
    return _invariant_label(AlgebraSC(n, v, eta))


# --- exhaustive enumeration ---------------------------------------------------


def _algebra_equations(n: int) -> tuple[int, list[tuple]]:
    """The standard-form algebras as a quadratic XOR system, as (number of
    variables, equations): unit x^0 and associativity, stated by
    ``structure.algebra_equations`` with coefficient rho of x^mu x^nu at
    variable mu*n*n + nu*n + rho, so a solution mask is the product tensor."""
    return n**3, algebra_equations(n, 1, partial(tensor_bit, n))


@lru_cache(maxsize=None)
def enumerate_algebras(n: int) -> tuple[AlgebraSC, ...]:
    """Every standard-form unital associative algebra tensor, exactly once,
    ascending by packed tensor."""
    if not 1 <= n <= 4:
        raise ValueError("dimension out of range")
    return tuple(AlgebraSC(n, v) for v in kernels.solve_quadratic(*_algebra_equations(n)))


def classify_algebras(algebras) -> dict[str, list[AlgebraSC]]:
    """Partition enumerated standard-form algebras into catalog classes."""
    buckets: dict[str, list[AlgebraSC]] = {}
    for a in algebras:
        buckets.setdefault(_catalog_label(a.n, a.v, a.eta), []).append(a)
    return buckets
