"""Frozen golden data: the named structures and tables the engine must
reproduce.

Coproducts are written as space-separated tensor terms 'a.b' (= a (x) b) over
the basis names of the dimension; antipodes as images of the non-unit basis
elements.  Every entry here is re-validated by the test suite against the
axiom evaluators and against the engine's own exhaustive solutions, so a
transcription error cannot survive.
"""

from __future__ import annotations


from f2hopf.catalog import BASIS_NAMES, parse_element
from f2hopf.gf2 import value_type
from f2hopf.structure import Bialgebra, CoalgebraSC, HopfAlgebra


def parse_tensor_terms(terms: str, names: tuple[str, ...]) -> int:
    """'1.x x.1 x.x' -> packed element of H (x) H."""
    n = len(names)
    bits = 0
    for term in terms.split():
        a, b = term.split(".")
        bits ^= 1 << (names.index(a) * n + names.index(b))
    return bits


def coalgebra_from_terms(
    names: tuple[str, ...], eps: str, **deltas: str
) -> CoalgebraSC:
    """Build a coproduct tensor from per-generator term strings.

    eps lists the basis elements with counit 1, e.g. '1+x'; Delta(1) is
    always 1 (x) 1.
    """
    n = len(names)
    c = 1  # Delta(1) = 1 (x) 1
    for gen, terms in deltas.items():
        mu = names.index(gen)
        c |= parse_tensor_terms(terms, names) << (mu * n * n)
    return CoalgebraSC(n, c, parse_element(eps, names))


def antipode_matrix(names: tuple[str, ...], **images: str) -> tuple[int, ...]:
    """Antipode from generator images; the unit maps to itself."""
    return (1, *(parse_element(images[name], names) for name in names[1:]))


def mat(rows: list[list[int]]) -> tuple[int, ...]:
    """The packed rows of a matrix written as lists of 0/1 entries."""
    return tuple(sum(c << j for j, c in enumerate(row)) for row in rows)


@value_type
class NamedCoproduct:
    """One published raw solution: its label, coproduct, coalgebra type and
    antipode when it is a Hopf algebra."""

    name: str
    algebra_label: str
    coalg: CoalgebraSC
    dual_label: str
    antipode: tuple[int, ...] | None = None

    @property
    def hopf(self) -> bool:
        return self.antipode is not None


def _n3(name, alg, dual, ex, ey, dx, dy, s=None):
    names = BASIS_NAMES[3]
    eps = "+".join(t for t, e in (("1", 1), ("x", ex), ("y", ey)) if e) or "0"
    coalg = coalgebra_from_terms(names, eps, x=dx, y=dy)
    anti = antipode_matrix(names, **s) if s else None
    return NamedCoproduct(name, alg, coalg, dual, anti)


# Every coproduct on the four dimension-3 algebras that admit one, with the
# algebra its dual basis generates.  B.4, B.21, B.33 and D.1 are the Hopf
# entries.
COPRODUCTS_DIM3: tuple[NamedCoproduct, ...] = (
    _n3("B.1", "B", "C", 0, 0, "1.x x.1 x.x x.y y.x y.y", "1.y y.1"),
    _n3("B.2", "B", "C", 0, 0, "1.x x.1 x.x", "1.y y.1 x.y y.x"),
    _n3("B.3", "B", "C", 0, 0, "1.x x.1 x.x y.y", "1.y y.1 x.y y.x"),
    _n3("B.4", "B", "D", 0, 0, "1.x x.1 x.y y.x y.y", "1.y y.1 x.y y.x x.x",
        s={"x": "y", "y": "x"}),
    _n3("B.5", "B", "C", 0, 0, "1.x x.1 x.y y.x", "1.y y.1 y.y"),
    _n3("B.6", "B", "B", 0, 0, "1.x x.1 x.y y.x x.x", "1.y y.1 y.y"),
    _n3("B.7", "B", "C", 0, 0, "1.x x.1 x.y y.x", "1.y y.1 x.x y.y"),
    _n3("B.8", "B", "G", 0, 0, "1.x x.1 x.x y.x", "1.y y.1 x.y y.y"),
    _n3("B.9", "B", "G", 0, 0, "1.x x.1 x.x x.y", "1.y y.1 y.x y.y"),
    _n3("B.10", "B", "B", 0, 0, "1.x x.1 x.x", "1.y y.1 x.y y.x y.y"),
    _n3("B.11", "B", "C", 0, 0, "1.x x.1", "1.y y.1 x.y y.x x.x y.y"),
    _n3("B.12", "B", "C", 1, 0, "x.x", "1.y y.1"),
    _n3("B.13", "B", "C", 1, 0, "x.x", "1.1 1.x x.1 1.y y.1 x.x"),
    _n3("B.14", "B", "G", 1, 0, "x.x", "x.y y.1"),
    _n3("B.15", "B", "G", 1, 0, "x.x", "1.y y.x"),
    _n3("B.16", "B", "C", 1, 0, "x.x", "x.y y.x"),
    _n3("B.17", "B", "C", 1, 0, "x.x y.y", "x.y y.x"),
    _n3("B.18", "B", "C", 1, 0, "x.x", "1.1 1.x x.1 x.x x.y y.x"),
    _n3("B.19", "B", "B", 1, 0, "x.x", "1.y y.1 y.y"),
    _n3("B.20", "B", "C", 1, 0, "1.1 1.x 1.y x.1 x.y y.1 y.x y.y",
        "1.y y.1 y.y"),
    _n3("B.21", "B", "D", 1, 0, "1.y x.x x.y y.1 y.x",
        "1.1 1.x 1.y x.1 x.x y.1 y.y", s={"x": "x", "y": "1+x+y"}),
    _n3("B.22", "B", "B", 1, 0, "x.x", "x.y y.x y.y"),
    _n3("B.23", "B", "C", 0, 1, "1.x x.1 x.x",
        "1.1 1.x x.1 1.y y.1 x.y y.x x.x"),
    _n3("B.24", "B", "C", 0, 1, "1.x x.1", "y.y"),
    _n3("B.25", "B", "B", 0, 1, "1.x x.1 x.x", "y.y"),
    _n3("B.26", "B", "G", 0, 1, "1.x x.y", "y.y"),
    _n3("B.27", "B", "G", 0, 1, "x.1 y.x", "y.y"),
    _n3("B.28", "B", "C", 0, 1, "x.y y.x", "y.y"),
    _n3("B.29", "B", "B", 0, 1, "x.x x.y y.x", "y.y"),
    _n3("B.30", "B", "C", 0, 1, "1.1 1.x 1.y x.1 y.1 y.y", "y.y"),
    _n3("B.31", "B", "C", 0, 1, "1.1 1.y x.y y.1 y.x y.y", "y.y"),
    _n3("B.32", "B", "C", 0, 1, "x.y y.x", "x.x y.y"),
    _n3("B.33", "B", "D", 0, 1, "1.1 1.x 1.y x.1 y.1 x.x y.y",
        "1.x x.1 x.y y.x y.y", s={"x": "1+x+y", "y": "y"}),
    _n3("C.1", "C", "C", 0, 0, "1.x x.1 x.x", "1.y y.1 x.y y.x"),
    _n3("C.2", "C", "B", 0, 0, "1.x x.1 x.x", "1.y y.1 x.y y.x y.y"),
    _n3("C.3", "C", "C", 1, 0, "x.x", "1.y y.1"),
    _n3("C.4", "C", "G", 1, 0, "x.x", "x.y y.1"),
    _n3("C.5", "C", "G", 1, 0, "x.x", "1.y y.x"),
    _n3("C.6", "C", "C", 1, 0, "x.x", "x.y y.x"),
    _n3("C.7", "C", "B", 1, 0, "x.x", "1.y y.1 y.y"),
    _n3("C.8", "C", "B", 1, 0, "x.x", "x.y y.x y.y"),
    _n3("D.1", "D", "B", 0, 0, "1.x x.1 x.x", "1.y y.1 y.y",
        s={"x": "y", "y": "x"}),
    _n3("D.2", "D", "G", 0, 0, "1.x x.1 x.x y.x", "1.y y.1 x.y y.y"),
    _n3("D.3", "D", "G", 0, 0, "1.x x.1 x.x x.y", "1.y y.1 y.x y.y"),
    _n3("G.1", "G", "C", 0, 0, "1.x x.1 x.x", "1.y y.1 x.y y.x"),
    _n3("G.2", "G", "C", 0, 0, "1.x x.1 x.x y.y", "1.y y.1 x.y y.x"),
    _n3("G.3", "G", "B", 0, 0, "1.x x.1 x.x", "1.y y.1 x.y y.x y.y"),
    _n3("G.4", "G", "D", 0, 0, "1.x x.1 x.x y.y", "1.y y.1 x.y y.x y.y"),
    _n3("G.5", "G", "C", 1, 0, "x.x", "x.y y.x"),
    _n3("G.6", "G", "C", 1, 0, "x.x y.y", "x.y y.x"),
    _n3("G.7", "G", "B", 1, 0, "x.x", "x.y y.x y.y"),
    _n3("G.8", "G", "D", 1, 0, "x.x y.y", "x.y y.x y.y"),
)

# Published isomorphism orbits of the dimension-3 solutions on algebra B
# (closures of the two generating isomorphism lists).
ORBITS_DIM3 = {
    "B": (
        {"B.4", "B.21", "B.33"},
        {"B.1", "B.11", "B.12", "B.13", "B.24", "B.30"},
        {"B.2", "B.5", "B.17", "B.20", "B.23", "B.32"},
        {"B.3", "B.7", "B.16", "B.18", "B.28", "B.31"},
        {"B.8", "B.14", "B.27"},
        {"B.9", "B.15", "B.26"},
        {"B.6", "B.10", "B.19", "B.22", "B.25", "B.29"},
    ),
}


def _n4(name, alg, dual, eps, dx, dy, dz, s=None):
    names = BASIS_NAMES[4]
    coalg = coalgebra_from_terms(names, eps, x=dx, y=dy, z=dz)
    anti = antipode_matrix(names, **s) if s else None
    return NamedCoproduct(name, alg, coalg, dual, anti)


_S_ID4 = {"x": "x", "y": "y", "z": "z"}

# The published per-algebra structure tables for dimension 4 (the algebras
# small enough to list fully): G, I, J, M, NF.
TABLES_DIM4: tuple[NamedCoproduct, ...] = (
    # Algebra G, all counits zero on x, y, z; all eight are Hopf.
    _n4("G.1", "G", "E", "1", "1.x x.1", "1.y y.1",
        "1.z x.y y.x z.1", s=_S_ID4),
    _n4("G.2", "G", "G", "1", "1.x x.1 y.y", "1.y y.1",
        "1.z x.y y.x z.1", s=_S_ID4),
    _n4("G.3", "G", "E", "1", "1.x x.1 x.y y.x z.y y.z", "1.y y.1",
        "1.z x.y y.x z.y y.z z.1", s=_S_ID4),
    _n4("G.4", "G", "G", "1", "1.x x.1 x.y y.x z.y y.z y.y", "1.y y.1",
        "1.z x.y y.x z.y y.z z.1", s=_S_ID4),
    _n4("G.5", "G", "P", "1", "1.x x.1 x.x", "1.y y.1 y.y",
        "1.z x.z y.z z.1 z.x z.y z.z y.x x.y",
        s={"x": "x+y+z", "y": "y", "z": "z"}),
    _n4("G.6", "G", "L", "1",
        "1.x x.1 x.x y.y z.y y.z z.z", "1.y y.1 y.y",
        "1.z x.z y.z z.1 z.x z.y z.z y.x x.y",
        s={"x": "x+y+z", "y": "y", "z": "z"}),
    _n4("G.7", "G", "P", "1", "1.x x.1 x.x x.y y.x", "1.y y.1 y.y",
        "1.z x.z x.y y.x z.1 z.x z.z",
        s={"x": "x+y+z", "y": "y", "z": "z"}),
    _n4("G.8", "G", "L", "1",
        "1.x x.1 x.x x.y y.x y.y z.y y.z z.z", "1.y y.1 y.y",
        "1.z x.z x.y y.x z.1 z.x z.z",
        s={"x": "x+y+z", "y": "y", "z": "z"}),
    # Algebra I, all counits zero; no Hopf structures.
    _n4("I.1", "I", "ND", "1", "1.x x.1 x.x y.x", "1.y y.1 x.y y.y",
        "1.z x.z y.z z.1 z.x z.y"),
    _n4("I.2", "I", "NG", "1", "1.x x.1 x.x y.x", "1.y y.1 x.y y.y",
        "1.z x.z y.z z.1 z.x z.y z.z"),
    _n4("I.3", "I", "NC", "1", "1.x x.1 x.x x.y", "1.y y.1 y.x y.y",
        "1.z x.z y.z z.1 z.x z.y"),
    _n4("I.4", "I", "NG", "1", "1.x x.1 x.x x.y", "1.y y.1 y.x y.y",
        "1.z x.z y.z z.1 z.x z.y z.z"),
    # Algebra J, counit 1 on x and y, 0 on z; no Hopf structures.
    _n4("J.1", "J", "P", "1+x+y", "x.x", "y.y", "x.z z.x z.z"),
    _n4("J.2", "J", "P", "1+x+y", "x.x", "x.z y.y y.z z.x z.y",
        "x.z z.x z.z"),
    _n4("J.3", "J", "J", "1+x+y", "x.x z.z",
        "x.x x.y x.z y.x y.z z.x z.y", "x.z z.x"),
    _n4("J.4", "J", "C", "1+x+y", "x.x z.z",
        "x.x x.y x.z y.x y.z z.x z.y z.z", "x.z z.x"),
    _n4("J.5", "J", "NE", "1+x+y", "x.x z.1 z.x", "x.1 x.y y.1 z.1 z.y",
        "x.z z.1 z.z"),
    _n4("J.6", "J", "NE", "1+x+y", "1.z x.x x.z", "1.x 1.y 1.z y.x y.z",
        "1.z z.x z.z"),
    # Algebra M, counit 1 on y; M.2 is the Hopf entry.
    _n4("M.1", "M", "NE", "1+y", "x.1 y.x", "y.y", "y.z z.1"),
    _n4("M.2", "M", "E", "1+y",
        "1.z x.y x.z y.x y.z z.1 z.x z.y",
        "1.1 1.x 1.y 1.z x.1 y.1 z.1 x.y x.z y.x y.z z.x z.y",
        "1.x x.1 x.y x.z y.x y.z z.x z.y", s=_S_ID4),
    _n4("M.3", "M", "NE", "1+y", "1.x x.y", "y.y", "1.z z.y"),
    # Algebra NF; all eight are Hopf.
    _n4("NF.1", "NF", "E", "1", "x.1 1.x",
        "1.y x.y x.z y.1 y.x z.x", "1.z x.y x.z y.x z.1 z.x",
        s={"x": "x", "y": "z", "z": "y"}),
    _n4("NF.2", "NF", "NF", "1", "1.x x.1 y.x z.x",
        "1.y x.y x.z y.1 y.x y.y y.z z.x",
        "1.z x.y x.z y.x z.1 z.x z.y z.z",
        s={"x": "x+y", "y": "z", "z": "y"}),
    _n4("NF.3", "NF", "NF", "1", "1.x x.1 x.y x.z",
        "1.y x.y x.z y.1 y.x y.y z.x z.y",
        "1.z x.y x.z y.x y.z z.1 z.x z.z",
        s={"x": "x+z", "y": "z", "z": "y"}),
    _n4("NF.4", "NF", "E", "1", "1.x x.1 x.y x.z y.x y.z z.x z.y",
        "1.y x.y x.z y.1 y.x y.z z.x z.y",
        "1.z x.y x.z y.x y.z z.1 z.x z.y",
        s={"x": "x+y+z", "y": "z", "z": "y"}),
    _n4("NF.5", "NF", "E", "1+x", "1.1 1.x x.1",
        "1.z x.y x.z y.x z.1 z.x", "1.y x.y x.z y.1 y.x z.x",
        s={"x": "x", "y": "z", "z": "y"}),
    _n4("NF.6", "NF", "NF", "1+x", "1.1 1.x x.1 y.1 y.x z.1 z.x",
        "1.z x.y x.z y.x y.y y.z z.1 z.x",
        "1.y x.y x.z y.1 y.x z.x z.y z.z",
        s={"x": "x+z", "y": "z", "z": "y"}),
    _n4("NF.7", "NF", "NF", "1+x", "1.1 1.x 1.y 1.z x.1 x.y x.z",
        "1.z x.y x.z y.x y.y z.1 z.x z.y",
        "1.y x.y x.z y.1 y.x y.z z.x z.z",
        s={"x": "x+y", "y": "z", "z": "y"}),
    _n4("NF.8", "NF", "E", "1+x",
        "1.1 1.x 1.y 1.z x.1 x.y x.z y.1 y.x y.z z.1 z.x z.y",
        "1.z x.y x.z y.x y.z z.1 z.x z.y",
        "1.y x.y x.z y.1 y.x y.z z.x z.y",
        s={"x": "x+y+z", "y": "z", "z": "y"}),
)


# --- Hopf representatives with integrals and Fourier data ---------------------


@value_type
class HopfFixture:
    """One Hopf isomorphism class: its chosen representative coproduct, the
    right integral, canonical Fourier matrix, the identification of the dual
    basis with the target algebra's standard basis, and the resulting
    transport matrix."""

    algebra_label: str
    coalgebra_type: str
    name: str
    nickname: str
    coalg: CoalgebraSC
    antipode: tuple[int, ...]
    integral: int  # packed I vector
    fourier: tuple[int, ...]
    dual_basis: tuple[int, ...]  # row mu = image of dual basis element y_mu
    transport: tuple[int, ...]

    def bialgebra(self) -> Bialgebra:
        from f2hopf.catalog import catalog

        return Bialgebra(
            catalog(4)[self.algebra_label].representative, self.coalg
        )

    def hopf(self) -> HopfAlgebra:
        return HopfAlgebra(self.bialgebra(), self.antipode)


def _named(name: str) -> NamedCoproduct:
    for entry in TABLES_DIM4:
        if entry.name == name:
            return entry
    raise KeyError(name)


def _hf(alg, typ, name, nick, coalg, s, integral, fourier, dual_basis, transport):
    names = BASIS_NAMES[4]
    return HopfFixture(
        algebra_label=alg,
        coalgebra_type=typ,
        name=name,
        nickname=nick,
        coalg=coalg,
        antipode=antipode_matrix(names, **s) if isinstance(s, dict) else s,
        integral=parse_element(integral, names),
        fourier=mat(fourier),
        dual_basis=tuple(parse_element(e, names) for e in dual_basis),
        transport=mat(transport),
    )


def _c4(eps, dx, dy, dz):
    return coalgebra_from_terms(BASIS_NAMES[4], eps, x=dx, y=dy, z=dz)


HOPF_FIXTURES_DIM4: tuple[HopfFixture, ...] = (
    _hf("D", "D", "D.2", "function algebra on Z2 (x) group algebra of Z2",
        _c4("1", "x.1 1.x", "y.1 1.y y.y",
            "1.z x.y y.x z.1 z.y y.z"),
        _S_ID4, "x+z", [[0, 1, 0, 1], [1, 1, 1, 1], [0, 1, 0, 0], [1, 1, 0, 0]],
        ("1", "y", "x", "z"),
        [[0, 0, 1, 1], [1, 1, 1, 1], [0, 0, 1, 0], [1, 0, 1, 0]]),
    _hf("D", "E", "D.1", "function algebra on Z2 (x) Grassmann line",
        _c4("1", "x.1 1.x", "y.1 1.y", "1.z x.y y.x z.1"),
        _S_ID4, "z", [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 0], [1, 1, 0, 0]],
        ("1", "y", "x", "z"),
        [[0, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0], [1, 0, 1, 0]]),
    _hf("E", "D", "E.2", "group algebra of Z2 (x) Grassmann line",
        _c4("1", "1.x x.1", "1.y y.1 y.y",
            "1.z x.y y.x y.z z.1 z.y"),
        _S_ID4, "x+z", [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        ("1", "y", "x", "z"),
        [[0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]),
    _hf("E", "E", "E.1", "Grassmann plane",
        _c4("1", "x.1 1.x", "y.1 1.y", "1.z x.y y.x z.1"),
        _S_ID4, "z", [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        ("1", "x", "y", "z"),
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
    _hf("E", "G", "E.5", "coanyonic line",
        _c4("1", "1.x x.1", "1.y x.x y.1", "1.z x.y y.x z.1"),
        _S_ID4, "z", [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        ("1", "x", "y", "z"),
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
    _hf("E", "L", "E.15", "dual of the quartic additive line",
        _c4("1", "1.x z.x x.1 x.z y.y", "1.y z.y y.1 y.z x.x",
            "1.z x.y y.x z.1 z.z"),
        _S_ID4, "1+z", [[1, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        ("1", "x", "z", "1+y"),
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0]]),
    _hf("E", "M", "E.16", "dual of the full quartic additive line",
        _c4("1", "1.x z.x x.1 x.z y.y z.z",
            "1.y z.y y.1 y.z x.x x.z y.y z.x z.z",
            "1.z x.y y.x y.z z.1 z.y z.z"),
        _S_ID4, "1+x+z", [[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        ("1", "1+x+y", "x+z", "x"),
        [[0, 0, 1, 0], [1, 1, 0, 1], [1, 1, 1, 0], [1, 0, 0, 0]]),
    _hf("E", "P", "E.38", "group algebra of Z2 x Z2",
        _c4("1", "1.x x.1 x.x", "1.y y.1 y.y",
            "1.z x.z y.z z.1 z.x z.y z.z y.x x.y"),
        _S_ID4, "1+x+y+z", [[1, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]],
        ("1", "x", "y", "z"),
        [[1, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]]),
    _hf("E", "NF", "E.40", "coordinate ring fragment of the Borel subgroup",
        _c4("1", "1.x x.1 x.x", "1.y x.y y.1",
            "1.z z.1 y.x z.x x.y"),
        {"x": "x", "y": "y+z", "z": "z"},
        "y+z", [[0, 0, 1, 1], [0, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]],
        ("1", "x", "y+z", "y"),
        [[0, 0, 0, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]]),
    _hf("G", "E", "G.1", "anyonic line",
        _named("G.1").coalg, _S_ID4, "z",
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        ("1", "x", "y", "z"),
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
    _hf("G", "G", "G.2", "self-dual nonlinear anyonic line",
        _named("G.2").coalg, _S_ID4, "z",
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        ("1", "y", "x", "z"),
        [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]),
    _hf("G", "P", "G.5", "group algebra of Z4",
        _named("G.5").coalg,
        {"x": "x+y+z", "y": "y", "z": "z"}, "1+x+y+z",
        [[1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]],
        ("1", "x", "y", "z"),
        [[1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]]),
    _hf("G", "L", "G.6", "nonlinear anyonic line",
        _named("G.6").coalg,
        {"x": "x+y+z", "y": "y", "z": "z"}, "1+x+y+z",
        [[1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]],
        ("1", "x+z", "z", "1+x+y"),
        [[0, 0, 1, 0], [1, 1, 0, 0], [1, 1, 0, 1], [1, 0, 0, 0]]),
    _hf("L", "E", "L.6", "quartic additive line",
        _c4("1+y", "1.x x.1", "1.1 1.y x.z y.1 z.x", "1.z z.1"),
        _S_ID4, "y", [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0]],
        ("1+z", "x", "z", "y"),
        [[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]]),
    _hf("L", "G", "L.11", "nonlinear quartic additive line",
        _c4("1+y", "1.x x.1 x.x x.z z.x z.z",
            "1.1 1.y x.x y.1 z.z", "1.z x.x x.z z.1 z.x z.z"),
        {"x": "z", "y": "y", "z": "x"},
        "y", [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0]],
        ("1+z", "x+z", "z", "x+y"),
        [[0, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, 0], [0, 1, 0, 1]]),
    _hf("M", "E", "M.2", "full quartic additive line",
        _named("M.2").coalg, _S_ID4, "x+y+z",
        [[0, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]],
        ("1+x", "x+y+z", "x", "y"),
        [[0, 0, 0, 1], [1, 0, 1, 1], [1, 0, 0, 0], [1, 1, 1, 0]]),
    _hf("P", "E", "P.1", "function algebra on Z2 x Z2",
        _c4("1", "1.x x.1", "1.y y.1", "1.z x.y y.x z.1"),
        _S_ID4, "z", [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1]],
        ("1", "x", "y", "z"),
        [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1]]),
    _hf("P", "G", "P.3", "function algebra on Z4",
        _c4("1", "1.x x.1", "1.y x.x y.1", "1.z x.y y.x z.1"),
        {"x": "x", "y": "x+y", "z": "x+z"},
        "z", [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1]],
        ("1", "x", "y", "z"),
        [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1]]),
    _hf("NF", "E", "NF.1", "cross product of Grassmann line by Z2 functions",
        _named("NF.1").coalg,
        {"x": "x", "y": "z", "z": "y"}, "y+z",
        [[0, 0, 1, 1], [0, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]],
        ("1", "x", "y+z", "y"),
        [[0, 0, 0, 1], [0, 0, 1, 1], [1, 0, 0, 0], [1, 1, 0, 0]]),
    _hf("NF", "NF", "NF.2", "d_sl2",
        _named("NF.2").coalg,
        {"x": "x+y", "y": "z", "z": "y"}, "x+y+z",
        [[0, 1, 1, 1], [1, 1, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]],
        ("1", "y+z", "x+y", "x"),
        [[0, 0, 0, 1], [1, 1, 0, 1], [1, 0, 0, 0], [1, 0, 1, 1]]),
)


# Fourier operators of the four self-dual Hopf algebras, written through
# their self-duality pairings in the bases used for the pairing statements,
# and the orders they satisfy.
SELF_DUAL_FOURIER = {
    "E": (mat([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]), 2),
    "D": (mat([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]), 2),
    "G": (mat([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]), 2),
    "NF": (mat([[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 1, 0]]), 3),
}

# Transport holonomies around the three cycles through E, with their orders.
HOLONOMY_CYCLES = (
    (("E", "P"), ("P", "G"), ("G", "E")),
    (("E", "G"), ("G", "L"), ("L", "E")),
    (("E", "P"), ("P", "G"), ("G", "L"), ("L", "E")),
)
HOLONOMY_MATRICES = (
    mat([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
    mat([[0, 0, 0, 1], [0, 1, 1, 1], [0, 0, 1, 1], [1, 0, 0, 0]]),
    mat([[1, 0, 0, 0], [0, 0, 1, 1], [0, 1, 1, 1], [0, 0, 0, 1]]),
)
HOLONOMY_ORDERS = (2, 4, 3)

# Integrals and Fourier matrices of the dimension <= 3 Hopf algebras
# (by class name), basis 1, x (and y).
FOURIER_SMALL = {
    # Grassmann line on algebra A (x^2 = 0), primitive coproduct.
    "gra": ("x", mat([[0, 1], [1, 0]])),
    # group algebra of Z2 on algebra A, coproduct with x.x term.
    "F2Z2": ("1+x", mat([[1, 1], [1, 0]])),
    # function algebra on Z2 (algebra B, primitive x).
    "F2(Z2)": ("x", mat([[0, 1], [1, 1]])),
    # group algebra / function algebra of Z3, basis 1, x, y.
    "F2Z3": ("1+x+y", mat([[1, 1, 1], [1, 1, 0], [1, 0, 1]])),
    "F2(Z3)": ("1+x+y", mat([[1, 1, 1], [1, 1, 0], [1, 0, 1]])),
}


# --- pairings -----------------------------------------------------------------

# Bialgebra self-duality pairings <x^mu, x^nu>, with the coproduct they pair.
PAIRINGS = {
    # Grassmann line (dimension 2, algebra A, primitive coproduct).
    "gra": mat([[1, 0], [0, 1]]),
    # projector bialgebra (dimension 2, algebra B, grouplike x).
    "projector": mat([[1, 1], [1, 0]]),
    # (B, B.19) in dimension 3.
    "B.19": mat([[1, 1, 0], [1, 0, 1], [0, 1, 0]]),
    # (C, C.6) in dimension 3.
    "C.6": mat([[1, 1, 0], [1, 0, 0], [0, 0, 1]]),
    # (G, G.2) in dimension 4, basis 1, x, y = x^2, z = x^3.
    "G.2": mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    # d_sl2 in the basis 1, s, x, w.
    "d_sl2": mat([[1, 1, 0, 0], [1, 1, 1, 1], [0, 1, 0, 0], [0, 1, 0, 1]]),
}


# --- d_sl2 in its presentation basis 1, s, x, w -------------------------------

DSL2_NAMES = ("1", "s", "x", "w")
DSL2_RELATIONS = (
    "s*s=1; s*x=w; x*s=1+s+w; x*x=x; s*w=x; w*s=1+s+x; w*w=w; x*w=x; w*x=w"
)


def dsl2_presentation() -> HopfAlgebra:
    """d_sl2 on the basis 1, s, x, w (grouplike s, skew-primitive x and w)."""
    from f2hopf.catalog import algebra_from_relations

    alg = algebra_from_relations(4, DSL2_RELATIONS, DSL2_NAMES)
    coalg = coalgebra_from_terms(DSL2_NAMES, "1+s", s="s.s", x="s.x x.1", w="1.w w.s")
    anti = antipode_matrix(DSL2_NAMES, s="s", x="w", w="1+s+x")
    return HopfAlgebra(Bialgebra(alg, coalg), anti)


# The change of basis from (1, s, x, w) to the standard NF basis (1, x, y, z):
# s = 1 + y + z, x = x, w = x + y.
DSL2_TO_STANDARD = mat([[1, 0, 0, 0], [1, 0, 1, 1], [0, 1, 0, 0], [0, 1, 1, 0]])


# --- quasitriangular structures ------------------------------------------------

# Expected (total, nontrivial) R-matrix counts per dimension-4 Hopf class,
# keyed by (algebra, coalgebra type).
QT_COUNTS_DIM4 = {
    ("D", "D"): (4, 3),
    ("D", "E"): (2, 1),
    ("E", "D"): (2, 1),
    ("E", "E"): (16, 15),
    ("E", "G"): (2, 1),
    ("E", "L"): (1, 0),
    ("E", "M"): (1, 0),
    ("E", "P"): (1, 0),
    ("E", "NF"): (0, 0),
    ("G", "E"): (2, 1),
    ("G", "G"): (4, 3),
    ("G", "L"): (1, 0),
    ("G", "P"): (1, 0),
    ("L", "E"): (1, 0),
    ("L", "G"): (1, 0),
    ("M", "E"): (1, 0),
    ("P", "E"): (1, 0),
    ("P", "G"): (1, 0),
    ("NF", "E"): (2, 1),
    ("NF", "NF"): (2, 2),
}

QT_PAIR_CENSUS = {2: 1, 3: 0, 4: 28}


def qt_family_gg() -> list[int]:
    """The four R-matrices of the self-dual nonlinear anyonic line (G.2),
    standard basis: 1.1 + a y.y + b (x.y + y.x + z.z)."""
    names = BASIS_NAMES[4]
    out = []
    for a in (0, 1):
        for b in (0, 1):
            terms = ["1.1"]
            if a:
                terms.append("y.y")
            if b:
                terms += ["x.y", "y.x", "z.z"]
            out.append(parse_tensor_terms(" ".join(terms), names))
    return sorted(out)


def qt_family_dd() -> list[int]:
    """The four R-matrices of the Drinfeld double of F2(Z2) on (D, D.2):
    (1.1 + a y.x)(1.1 + b x.y) = 1.1 + b x.y + a y.x + ab z.z."""
    names = BASIS_NAMES[4]
    out = []
    for a in (0, 1):
        for b in (0, 1):
            terms = ["1.1"]
            if b:
                terms.append("x.y")
            if a:
                terms.append("y.x")
            if a and b:
                terms.append("z.z")
            out.append(parse_tensor_terms(" ".join(terms), names))
    return sorted(out)


def qt_family_grassmann_plane() -> list[tuple[int, bool]]:
    """The sixteen R-matrices of the Grassmann plane with their triangular
    flag: 1.1 + sum r[i][j] xi.xj + det(r) z.z, triangular iff r symmetric.

    Factorisable iff r is not symmetric: the eight strict ones share the
    Killing form 1.1 + x.y + y.x + z.z, which is nondegenerate.  The
    published table calls none of them factorisable (erratum); the Grassmann
    plane is the Drinfeld double of the Grassmann line, and every double is
    factorisable."""
    names = BASIS_NAMES[4]
    gens = ("x", "y")
    out = []
    for rbits in range(16):
        r = [[(rbits >> (2 * i + j)) & 1 for j in range(2)] for i in range(2)]
        terms = ["1.1"]
        for i in range(2):
            for j in range(2):
                if r[i][j]:
                    terms.append(f"{gens[i]}.{gens[j]}")
        det = (r[0][0] & r[1][1]) ^ (r[0][1] & r[1][0])
        if det:
            terms.append("z.z")
        out.append(
            (parse_tensor_terms(" ".join(terms), names), r[0][1] == r[1][0])
        )
    return sorted(out)


def qt_dsl2_standard() -> list[int]:
    """The two R-matrices of d_sl2 on the standard NF basis (coproduct NF.2).

    On the presentation basis they read 1.1 + u.w + x.u + (x+w).(x+w) + a u.u
    with u = 1 + s; rewriting through s = 1+y+z, w = x+y gives, for a = 0,
    1.1 + y.x + z.x + z.y + x.y + x.z (the two y.y terms cancel), and the
    a = 1 case adds u.u = (y+z).(y+z).
    """
    base = "1.1 y.x z.x z.y x.y x.z"
    return sorted(parse_tensor_terms(base + extra, BASIS_NAMES[4])
                  for extra in ("", " y.y y.z z.y z.z"))


def qt_cbplus_star_nontrivial() -> int:
    """The unique nontrivial R on the NF.1 Hopf algebra: 1.1 + w.w for the
    Grassmann generator w = y + z."""
    return parse_tensor_terms("1.1 y.y y.z z.y z.z", BASIS_NAMES[4])


QT_ANYONIC_NONTRIVIAL = parse_tensor_terms("1.1 y.y", BASIS_NAMES[4])  # (G, E*)
QT_A110_NONTRIVIAL = parse_tensor_terms("1.1 y.y", BASIS_NAMES[4])  # (D, E*)


# --- representations of d_sl2 ---------------------------------------------------

# Images of (s, x, w) in the 1, s, x, w presentation.
REP_1 = {"s": mat([[1]]), "x": mat([[0]]), "w": mat([[0]])}
REP_1BAR = {"s": mat([[1]]), "x": mat([[1]]), "w": mat([[1]])}
REP_2 = {
    "s": mat([[0, 1], [1, 0]]),
    "x": mat([[1, 1], [0, 0]]),
    "w": mat([[0, 0], [1, 1]]),
}
REP_2BAR = {
    "s": mat([[0, 1], [1, 0]]),
    "x": mat([[1, 0], [1, 0]]),
    "w": mat([[1, 0], [1, 0]]),
}

REP_COUNTS = {1: 2, 2: 20, 3: 394}


def dsl2_named_reps() -> dict:
    """The four named representations "1", "1b", "2", "2b" (in that order) as
    reps.Representation objects on the 1, s, x, w presentation basis."""
    from f2hopf.reps import Representation  # not at import time: only reps users pay for it

    out = {}
    for key, fx in (("1", REP_1), ("1b", REP_1BAR), ("2", REP_2), ("2b", REP_2BAR)):
        k = len(fx["s"])
        identity = tuple(1 << i for i in range(k))
        out[key] = Representation(k, (identity, fx["s"], fx["x"], fx["w"]))
    return out

# Tensor product decomposition table, entries name the equivalent
# representation (or direct sum).
TENSOR_TABLE = {
    ("1", "1"): ("1",),
    ("1", "1b"): ("1b",),
    ("1", "2"): ("2",),
    ("1", "2b"): ("2b",),
    ("1b", "1"): ("1b",),
    ("1b", "1b"): ("1",),
    ("1b", "2"): ("2b",),
    ("1b", "2b"): ("2",),
    ("2", "1"): ("2",),
    ("2", "1b"): ("2b",),
    ("2", "2"): ("2", "2b"),
    ("2", "2b"): ("2", "2b"),
    ("2b", "1"): ("2b",),
    ("2b", "1b"): ("2",),
    ("2b", "2"): ("2", "2b"),
    ("2b", "2b"): ("2", "2b"),
}

DUAL_REPS = {"1": "1", "1b": "1b", "2": "2b", "2b": "2"}


# --- census -----------------------------------------------------------------

# (algebras, distinct bialgebras, distinct Hopf algebras, nontrivial
# quasitriangular Hopf pairs) per dimension.  Dimension 1 is not in the
# paper's table: F2 itself, the one algebra, bialgebra and Hopf algebra.
CENSUS = {
    1: (1, 1, 1, 0), 2: (3, 4, 3, 1), 3: (7, 24, 2, 0), 4: (25, 286, 20, 28),
}

RAW_COUNTS = {
    3: {"A": 0, "B": 33, "C": 8, "D": 3, "E": 0, "F": 0, "G": 8},
    4: {
        "A": 0, "B": 0, "C": 90, "D": 52, "E": 76, "F": 0, "G": 8, "H": 0,
        "I": 4, "J": 6, "K": 96, "L": 32, "M": 3, "N": 0, "O": 0, "P": 624,
        "NA": 0, "NB": 0, "NC": 30, "ND": 30, "NE": 152, "NF": 8, "NG": 112,
        "NH": 0, "NI": 0,
    },
}

RAW_TYPE_COUNTS = {
    (3, "B"): {"B": 6, "C": 18, "D": 3, "G": 6},
    (3, "C"): {"B": 3, "C": 3, "G": 2},
    (3, "D"): {"B": 1, "G": 2},
    (3, "G"): {"B": 2, "C": 4, "D": 2},
    (4, "C"): {"C": 1, "D": 6, "J": 3, "K": 24, "L": 3, "P": 9, "NC": 6,
               "ND": 6, "NE": 2, "NG": 30},
    (4, "D"): {"C": 2, "D": 6, "E": 2, "K": 10, "P": 8, "NC": 4, "ND": 4,
               "NG": 16},
    (4, "E"): {"D": 24, "E": 4, "G": 12, "L": 12, "M": 8, "P": 4, "NF": 12},
    (4, "G"): {"E": 2, "G": 2, "L": 2, "P": 2},
    (4, "I"): {"NC": 1, "ND": 1, "NG": 2},
    (4, "J"): {"C": 1, "J": 1, "P": 2, "NE": 2},
    (4, "K"): {"C": 8, "D": 10, "K": 26, "P": 12, "NC": 7, "ND": 7, "NE": 4,
               "NG": 22},
    (4, "L"): {"C": 2, "E": 2, "G": 2, "L": 2, "P": 4, "NC": 4, "ND": 4,
               "NE": 4, "NG": 8},
    (4, "M"): {"E": 1, "NE": 2},
    (4, "P"): {"C": 36, "D": 96, "E": 4, "G": 12, "J": 24, "K": 144, "L": 24,
               "P": 36, "NC": 48, "ND": 48, "NE": 8, "NG": 144},
    (4, "NC"): {"C": 2, "D": 4, "I": 1, "K": 7, "L": 2, "P": 4, "NC": 2,
                "ND": 2, "NG": 6},
    (4, "ND"): {"C": 2, "D": 4, "I": 1, "K": 7, "L": 2, "P": 4, "NC": 2,
                "ND": 2, "NG": 6},
    (4, "NE"): {"C": 8, "J": 24, "K": 48, "L": 24, "M": 16, "P": 8, "NG": 24},
    (4, "NF"): {"E": 4, "NF": 4},
    (4, "NG"): {"C": 10, "D": 16, "I": 2, "K": 22, "L": 4, "P": 12, "NC": 6,
                "ND": 6, "NE": 2, "NG": 32},
}

HOPF_RAW_COUNTS = {
    (3, "B"): 3, (3, "D"): 1,
    (4, "D"): 4, (4, "E"): 76, (4, "G"): 8, (4, "L"): 4, (4, "M"): 1,
    (4, "P"): 16, (4, "NF"): 8,
}

# Distinct (bialgebra classes, Hopf classes) per (algebra, coalgebra type)
# for dimension 3.
CLASS_COUNTS_DIM3 = {
    ("B", "B"): (1, 0), ("B", "C"): (3, 0), ("B", "D"): (1, 1),
    ("B", "G"): (2, 0),
    ("C", "B"): (3, 0), ("C", "C"): (3, 0), ("C", "G"): (2, 0),
    ("D", "B"): (1, 1), ("D", "G"): (2, 0),
    ("G", "B"): (2, 0), ("G", "C"): (2, 0), ("G", "D"): (2, 0),
}

HOPF_CLASS_COUNTS_DIM4 = {"D": 2, "E": 7, "G": 4, "L": 2, "M": 1, "P": 2, "NF": 2}

HOPF_ARROWS_DIM4 = (
    ("D", "D"), ("D", "E"), ("E", "D"), ("E", "E"), ("E", "G"), ("E", "L"),
    ("E", "M"), ("E", "NF"), ("E", "P"), ("G", "E"), ("G", "G"), ("G", "L"),
    ("G", "P"), ("L", "E"), ("L", "G"), ("M", "E"), ("NF", "E"), ("NF", "NF"),
    ("P", "E"), ("P", "G"),
)

# Full weighted bialgebra graph for dimension 4 (distinct classes per ordered
# type pair, with the Hopf multiplicity), frozen from the classification and
# constrained by duality symmetry and the published per-algebra totals.
BIALGEBRA_GRAPH_DIM4 = {
    ("C", "C"): (1, 0), ("C", "D"): (1, 0), ("C", "J"): (1, 0),
    ("C", "K"): (4, 0), ("C", "L"): (1, 0), ("C", "NC"): (1, 0),
    ("C", "ND"): (1, 0), ("C", "NE"): (2, 0), ("C", "NG"): (6, 0),
    ("C", "P"): (2, 0),
    ("D", "C"): (1, 0), ("D", "D"): (3, 1), ("D", "E"): (1, 1),
    ("D", "K"): (5, 0), ("D", "NC"): (2, 0), ("D", "ND"): (2, 0),
    ("D", "NG"): (8, 0), ("D", "P"): (4, 0),
    ("E", "D"): (1, 1), ("E", "E"): (1, 1), ("E", "G"): (1, 1),
    ("E", "L"): (1, 1), ("E", "M"): (1, 1), ("E", "NF"): (1, 1),
    ("E", "P"): (1, 1),
    ("G", "E"): (1, 1), ("G", "G"): (1, 1), ("G", "L"): (1, 1),
    ("G", "P"): (1, 1),
    ("I", "NC"): (1, 0), ("I", "ND"): (1, 0), ("I", "NG"): (2, 0),
    ("J", "C"): (1, 0), ("J", "J"): (1, 0), ("J", "NE"): (2, 0),
    ("J", "P"): (1, 0),
    ("K", "C"): (4, 0), ("K", "D"): (5, 0), ("K", "K"): (13, 0),
    ("K", "NC"): (4, 0), ("K", "ND"): (4, 0), ("K", "NE"): (2, 0),
    ("K", "NG"): (12, 0), ("K", "P"): (6, 0),
    ("L", "C"): (1, 0), ("L", "E"): (1, 1), ("L", "G"): (1, 1),
    ("L", "L"): (1, 0), ("L", "NC"): (2, 0), ("L", "ND"): (2, 0),
    ("L", "NE"): (2, 0), ("L", "NG"): (4, 0), ("L", "P"): (2, 0),
    ("M", "E"): (1, 1), ("M", "NE"): (2, 0),
    ("NC", "C"): (1, 0), ("NC", "D"): (2, 0), ("NC", "I"): (1, 0),
    ("NC", "K"): (4, 0), ("NC", "L"): (2, 0), ("NC", "NC"): (1, 0),
    ("NC", "ND"): (1, 0), ("NC", "NG"): (3, 0), ("NC", "P"): (3, 0),
    ("ND", "C"): (1, 0), ("ND", "D"): (2, 0), ("ND", "I"): (1, 0),
    ("ND", "K"): (4, 0), ("ND", "L"): (2, 0), ("ND", "NC"): (1, 0),
    ("ND", "ND"): (1, 0), ("ND", "NG"): (3, 0), ("ND", "P"): (3, 0),
    ("NE", "C"): (2, 0), ("NE", "J"): (2, 0), ("NE", "K"): (2, 0),
    ("NE", "L"): (2, 0), ("NE", "M"): (2, 0), ("NE", "NG"): (2, 0),
    ("NE", "P"): (2, 0),
    ("NF", "E"): (1, 1), ("NF", "NF"): (1, 1),
    ("NG", "C"): (6, 0), ("NG", "D"): (8, 0), ("NG", "I"): (2, 0),
    ("NG", "K"): (12, 0), ("NG", "L"): (4, 0), ("NG", "NC"): (3, 0),
    ("NG", "ND"): (3, 0), ("NG", "NE"): (2, 0), ("NG", "NG"): (16, 0),
    ("NG", "P"): (8, 0),
    ("P", "C"): (2, 0), ("P", "D"): (4, 0), ("P", "E"): (1, 1),
    ("P", "G"): (1, 1), ("P", "J"): (1, 0), ("P", "K"): (6, 0),
    ("P", "L"): (2, 0), ("P", "NC"): (3, 0), ("P", "ND"): (3, 0),
    ("P", "NE"): (2, 0), ("P", "NG"): (8, 0), ("P", "P"): (2, 0),
}
