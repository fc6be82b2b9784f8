"""Bialgebra isomorphism classes, the quiver of types, duals and self-duality
pairings.

Two bialgebras on the same algebra are isomorphic exactly when an algebra
automorphism transports one coproduct to the other, so classes are orbits of
the automorphism group acting on the raw coproduct list.
``coproducts.solve_coproducts`` builds each orbit once, when it expands a
solution (``kernels.coproduct_orbit``), and records the partition in the
solution set; the run cache stores it with the records.  Classification
reads that partition and transforms no coproduct.
"""

from __future__ import annotations

from functools import lru_cache

from f2hopf import kernels
from f2hopf.catalog import AlgebraCatalog, catalog, identify_algebra, isomorphisms
from f2hopf.coproducts import RawSolution, RawSolutionSet, solve_coproducts
from f2hopf.gf2 import Gf2Mat, mat_inv_rows, value_type
from f2hopf.structure import (
    Bialgebra,
    dual_bialgebra_raw,
    dualize_coalgebra,
    opposite_coproduct,
)


@value_type
class BialgebraClass:
    algebra_label: str
    coalgebra_type: str
    members: tuple[int, ...]  # indices into the raw solution list
    representative: RawSolution
    hopf: bool
    cop_partner: int | None = None  # class index of the co-opposite


def classify_bialgebras(raw: RawSolutionSet) -> list[BialgebraClass]:
    """The bialgebra classes of one algebra's raw solutions, read off the
    partition the solve recorded (``raw.class_rep``), ordered by (coalgebra
    type, representative tensor)."""
    sols = raw.solutions
    members: dict[int, list[int]] = {}
    for i, rep in enumerate(raw.class_rep):
        members.setdefault(rep, []).append(i)
    reps = sorted(members, key=lambda r: (sols[r].type_label, sols[r].coalg.c))
    position = {r: k for k, r in enumerate(reps)}
    index_of = {s.coalg.c: i for i, s in enumerate(sols)}
    classes = []
    for r in reps:
        rep = sols[r]
        # The co-opposite of a representative lies in its partner's class.
        j = index_of.get(opposite_coproduct(rep.coalg).c)
        classes.append(BialgebraClass(
            algebra_label=raw.algebra_label,
            coalgebra_type=rep.type_label,
            members=tuple(members[r]),
            representative=rep,
            hopf=rep.hopf,
            cop_partner=None if j is None else position[raw.class_rep[j]],
        ))
    return classes


@value_type
class QuiverArrow:
    source: str
    target: str
    multiplicity: int
    hopf_multiplicity: int


@value_type
class QuiverGraph:
    n: int
    nodes: tuple[str, ...]
    arrows: tuple[QuiverArrow, ...]

    def arrow(self, source: str, target: str) -> QuiverArrow | None:
        for a in self.arrows:
            if a.source == source and a.target == target:
                return a
        return None

    @property
    def total_bialgebras(self) -> int:
        return sum(a.multiplicity for a in self.arrows)

    @property
    def total_hopf(self) -> int:
        return sum(a.hopf_multiplicity for a in self.arrows)

    def hopf_arrows(self) -> list[tuple[str, str]]:
        return [(a.source, a.target) for a in self.arrows if a.hopf_multiplicity]

    def to_dot(self) -> str:
        lines = [f"digraph quiver_n{self.n} {{"]
        for node in self.nodes:
            lines.append(f'  "{node}";')
        for a in self.arrows:
            hopf = "true" if a.hopf_multiplicity else "false"
            style = ' style=bold color=blue' if a.hopf_multiplicity else ""
            lines.append(
                f'  "{a.source}" -> "{a.target}" [label="{a.multiplicity}" '
                f'hopf={hopf} hopf_multiplicity={a.hopf_multiplicity}{style}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


@value_type
class ClassifiedDimension:
    """Everything the pipeline produces for one dimension."""

    n: int
    cat: AlgebraCatalog
    raw: dict[str, RawSolutionSet]
    classes: dict[str, list[BialgebraClass]]

    def all_classes(self) -> list[BialgebraClass]:
        out = []
        for label in self.cat.labels:
            out.extend(self.classes[label])
        return out

    def hopf_classes(self) -> list[BialgebraClass]:
        return [c for c in self.all_classes() if c.hopf]

    def census(self) -> tuple[int, int, int]:
        """(algebras, distinct bialgebras, distinct Hopf algebras)."""
        return (
            len(self.cat.classes),
            len(self.all_classes()),
            len(self.hopf_classes()),
        )


def classify_raw(n: int, raw: dict[str, RawSolutionSet]) -> ClassifiedDimension:
    """Classify given raw solution sets, one per algebra label of dimension n."""
    cat = catalog(n)
    classes = {c.label: classify_bialgebras(raw[c.label])
               for c in cat.classes}
    return ClassifiedDimension(n, cat, raw, classes)


@lru_cache(maxsize=None)
def solve_catalog_algebra(n: int, label: str) -> RawSolutionSet:
    """The raw solutions of one catalog algebra, solved once per process
    (never read from the run cache)."""
    return solve_coproducts(catalog(n)[label].representative, label)


@lru_cache(maxsize=None)
def classify_dimension(n: int) -> ClassifiedDimension:
    """Solve every algebra of dimension n, then classify (cached)."""
    return classify_raw(n, {label: solve_catalog_algebra(n, label)
                            for label in catalog(n).labels})


def hopf_census(n: int) -> tuple[int, int, int]:
    return classify_dimension(n).census()


def build_quiver(dim: ClassifiedDimension) -> QuiverGraph:
    counts: dict[tuple[str, str], list[int]] = {}
    for cls in dim.all_classes():
        key = (cls.algebra_label, cls.coalgebra_type)
        entry = counts.setdefault(key, [0, 0])
        entry[0] += 1
        if cls.hopf:
            entry[1] += 1
    arrows = [
        QuiverArrow(src, tgt, m, h) for (src, tgt), (m, h) in sorted(counts.items())
    ]
    return QuiverGraph(dim.n, dim.cat.labels, tuple(arrows))


# --- duality ------------------------------------------------------------------


def dual_bialgebra(b: Bialgebra) -> Bialgebra:
    """The dual bialgebra, standardized so the new unit is basis element 0."""
    from f2hopf.catalog import standardize_unit
    from f2hopf.structure import apply_basis_change

    raw = dual_bialgebra_raw(b)
    _, p = standardize_unit(raw.alg)
    return apply_basis_change(raw, p)


def bialgebra_type(b: Bialgebra) -> tuple[str, str]:
    """(algebra label, coalgebra type label)."""
    from f2hopf.coproducts import coalgebra_type

    return identify_algebra(b.alg), coalgebra_type(b.coalg)


def locate_class(dim: ClassifiedDimension, b: Bialgebra) -> BialgebraClass:
    """The class of an arbitrary bialgebra (standard form not required)."""
    alg_label = identify_algebra(b.alg)
    target = dim.raw[alg_label]
    rep_alg = dim.cat[alg_label].representative
    # An isomorphism p from the catalog representative onto b's algebra is a
    # basis change that moves b's algebra onto the representative; the same
    # change carries b's coproduct onto one of the raw solutions, and any
    # such p lands in the same class.
    n = dim.n
    p = isomorphisms(rep_alg, b.alg)[0]
    c_img = kernels.transform_coproduct(b.coalg.c, n, p.rows, mat_inv_rows(p.rows, n))
    for cls in dim.classes[alg_label]:
        if any(target.solutions[i].coalg.c == c_img for i in cls.members):
            return cls
    raise RuntimeError("bialgebra does not match any classified solution")


# --- self-duality pairings ------------------------------------------------------


def self_duality_pairing(b: Bialgebra) -> Gf2Mat | None:
    """Lexicographically smallest invertible bialgebra self-pairing, if any.

    P[mu][nu] = <x^mu, x^nu> is a self-pairing when <ab, c> = <a (x) b, Delta c>,
    <a, bc> = <Delta a, b (x) c> and <1, .> = eps = <., 1>, with P invertible.
    Row mu of P is <x^mu, .> and row nu of P^T is <., x^nu>, both on the dual
    basis, so the axioms say exactly that P and P^T are unital algebra
    isomorphisms from H onto H* with the convolution product.  Those come
    from ``isomorphisms`` in lexicographic row order; the answer is the first
    whose transpose is also among them.
    """
    isos = isomorphisms(b.alg, dualize_coalgebra(b.coalg))
    rows = {p.rows for p in isos}
    return next((p for p in isos if p.transpose().rows in rows), None)
