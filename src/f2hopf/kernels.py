"""The quadratic-XOR kernel: the one solve path of the engine, and the
packed tensor basis changes.

Every search in the engine (algebras, coproducts, R-matrices and their dual
forms, representations, intertwiners, algebra isomorphisms) lists the
solutions of a quadratic XOR system.  An equation is a triple
(const, lin, pairs):

    const  in {0, 1}
    lin    bitmask of variables appearing linearly
    pairs  tuple of (i, j) with i < j, the quadratic monomials x_i * x_j

and states  const ^ XOR(lin bits) ^ XOR(x_i & x_j) == 0.
Over F2 squares are linear (x*x = x), so i == j never appears in pairs.

Each builder states its system in this format: every algebra map in it
(counit, representation, isomorphism, the legs of an R-matrix or form)
through ``structure.homomorphism_equations``; the unit and associativity
laws of an enumerated algebra through ``structure.algebra_equations``,
which folds its terms with ``Equation``; the coproduct system, in the basis
where its counit is e^0, from tables of the algebra's product
(``coproducts._coproduct_equations``: pins for the bits the counit laws
fix, then the reduced coproduct's laws, whose products name no pinned
bit); the intertwiners of two representations are linear and are stated as
(0, lin, ()) directly.  It passes the system, unreduced, to
``solve_quadratic``, which runs one path:

1. Elimination.  ``eliminate`` row-reduces the product-free equations with
   ``gf2.solve_linear`` and substitutes the result into the rest, leaving a
   smaller system over the free variables.
2. Search.  ``backtrack`` is a depth-first search that assigns the free
   variables in a given order and checks an equation as soon as its last
   variable in that order is set.  The check is bit-sliced: one integer
   holds the running value of every equation, one bit each, so a level
   checks all the equations it closes with one AND.  Builders number their
   variables lexicographically, which in index order would leave most
   equations open until deep in the tree, so the search walks the reduced
   system in ``search_order``.
3. Back-substitution.  Every solution over the free variables is mapped back
   to a full assignment, so callers see ascending masks in their own
   numbering, exactly the solutions an index-order search of their system
   would return.

``permute_tensor`` is the one relabelling of the indices of a packed
tensor: duals, opposites and the swapped legs of R21 are each one call.
``coproduct_orbit`` is the one implementation of the basis change of a
packed tensor: it collects the images of a coproduct tensor under a list of
basis changes, each prepared once by ``coproduct_change``, whose tables of
P^-1 (x) P^-1 on the n-bit chunks of a slice turn one image into n^2
lookups.  ``transform_coproduct`` reads the image under a single change
off it, and ``transform_product`` changes the basis of a product tensor
through it, as the coproduct of the dual algebra.
"""

from __future__ import annotations

from functools import lru_cache

from f2hopf.gf2 import bits_of, mat_inv_rows, mat_transpose_rows, solve_linear, spread_table

# The kernel implementation, as benchmark records name it.
BACKEND = "python"


class Equation:
    """One XOR equation under construction, in the kernel's (const, lin,
    pairs) format: const ^ XOR(lin bits) ^ XOR(x_i x_j over pairs) == 0.

    ``add_pair`` folds a square into the linear part (x_i x_i = x_i over F2)
    and cancels a product added an even number of times.
    """

    __slots__ = ("const", "lin", "pairs")

    def __init__(self, const: int = 0):
        self.const = const
        self.lin = 0
        self.pairs: set[tuple[int, int]] = set()

    def add_var(self, i: int) -> None:
        self.lin ^= 1 << i

    def add_pair(self, i: int, j: int) -> None:
        if i == j:
            self.lin ^= 1 << i
            return
        key = (i, j) if i < j else (j, i)
        if key in self.pairs:
            self.pairs.remove(key)
        else:
            self.pairs.add(key)

    def emit(self) -> tuple[int, int, tuple[tuple[int, int], ...]]:
        return self.const & 1, self.lin, tuple(sorted(self.pairs))


def eliminate(nvars: int, equations):
    """Solve the product-free equations and substitute into the rest.

    Returns None when the system has no solution for a reason found here:
    the product-free equations are inconsistent, or a substituted equation
    reads 1 = 0.  Otherwise returns (nfree, reduced, particular, directions):
    the free variables are the non-pivot columns of the row-reduced
    product-free equations, ascending, renumbered 0..nfree-1; ``reduced`` is
    the rest of the system over them, rewritten without duplicates or
    equations that read 0 = 0; and
    an assignment t of the free variables stands for the full assignment
    ``particular`` XOR the ``directions[k]`` with bit k of t set.
    """
    equations = list(equations)
    linear = [(const, lin) for const, lin, pairs in equations if not pairs]
    rhs = sum((const & 1) << k for k, (const, _) in enumerate(linear))
    sol = solve_linear((lin for _, lin in linear), nvars, rhs)
    if sol is None:
        return None
    particular, directions = sol
    # subst[v]: the free variables whose direction sets variable v.
    subst = [0] * nvars
    for k, d in enumerate(directions):
        for v in bits_of(d):
            subst[v] |= 1 << k
    reduced = []
    seen = set()
    for const, lin, pairs in equations:
        if not pairs:
            continue
        const = (const ^ (lin & particular).bit_count()) & 1
        new_lin = 0
        for v in bits_of(lin):
            new_lin ^= subst[v]
        # rows[fi]: the free fj with x_fi x_fj in the expansion, before
        # squares fold into the linear part and x_a x_b meets x_b x_a.
        rows: dict[int, int] = {}
        for i, j in pairs:
            si = subst[i]
            sj = subst[j]
            if (particular >> i) & 1:
                new_lin ^= sj
                const ^= (particular >> j) & 1
            if (particular >> j) & 1:
                new_lin ^= si
            if si and sj:  # a pinned factor has no free part
                while si:
                    low = si & -si
                    fi = low.bit_length() - 1
                    rows[fi] = rows.get(fi, 0) ^ sj
                    si ^= low
        # upper[fi]: the fj > fi with x_fi x_fj in the canonical form.
        upper = dict.fromkeys(rows, 0)
        for fi, row in rows.items():
            new_lin ^= row & (1 << fi)
            upper[fi] ^= row >> (fi + 1) << (fi + 1)
            row &= (1 << fi) - 1
            while row:
                low = row & -row
                fj = low.bit_length() - 1
                upper[fj] = upper.get(fj, 0) ^ (1 << fi)
                row ^= low
        new_pairs = []
        for fi in sorted(upper):
            row = upper[fi]
            while row:
                low = row & -row
                new_pairs.append((fi, low.bit_length() - 1))
                row ^= low
        if not new_lin and not new_pairs:
            if const:
                return None
            continue
        e = (const, new_lin, tuple(new_pairs))
        if e not in seen:
            seen.add(e)
            reduced.append(e)
    return len(directions), reduced, particular, directions


def search_order(nvars: int, equations) -> list[int]:
    """Static greedy variable order for the backtracker.

    Repeatedly picks, among the unassigned variables, the one that maximises
    (in this order of priority):

    1. the number of equations it closes (it is their only open variable);
    2. the number of equations it leaves with one open variable (it is one
       of their two open variables);
    3. its degree, the number of equations it appears in that are still
       open;

    and breaks remaining ties by the lowest index.  A variable in no
    equation scores 0 throughout and so comes last.

    The rules were chosen by timing the pure-Python backtracker, then with
    its per-equation check (before the bit-sliced one), on the 102 systems
    a ``run --dim 2 --dim 3 --dim 4`` census then searched (2-core x86-64,
    Python 3.11): index order 16.9 s; rule 1 alone 5.1 s; rules 1 and 2
    3.4 s; rules 1 and 3 4.0 s; rules 1 to 3 1.8 s.  At that time
    every counit of algebra P was searched, and the tie-breaks mattered
    most on its densest counit system (eps = 1111, 240 reduced equations),
    which rule 1 alone searched about 3.5 times longer.  The engine no
    longer searches that system: ``coproducts.solve_coproducts`` transports
    its solutions from eps = 0001 along an automorphism.
    """
    supports = []
    for _, lin, pairs in equations:
        s = lin
        for i, j in pairs:
            s |= (1 << i) | (1 << j)
        if s:
            supports.append(s)
    # One integer score per variable, compared lexicographically on
    # (closes, near, degree): each count is below `base`.  An open
    # equation adds the weight for its number of open variables to the
    # score of each of them.
    base = len(supports) + 1
    weight = (0, base * base + 1, base + 1, 1)  # by min(open variables, 3)
    score = [0] * nvars
    containing: list[list[int]] = [[] for _ in range(nvars)]
    for e, s in enumerate(supports):
        w = weight[min(s.bit_count(), 3)]
        for v in bits_of(s):
            score[v] += w
            containing[v].append(e)
    order = []
    left = list(range(nvars))
    while left:
        best = max(left, key=score.__getitem__)  # first maximum: lowest index
        left.remove(best)
        order.append(best)
        for e in containing[best]:
            s = supports[e] ^ (1 << best)
            supports[e] = s
            c = s.bit_count()
            if c < 3:  # weights of three or more open variables are equal
                delta = weight[c] - weight[c + 1]
                for v in bits_of(s):
                    score[v] += delta
    return order


def solve_quadratic(nvars: int, equations) -> list[int]:
    """All solutions of a quadratic XOR system, as ascending packed masks.

    The equation format is documented in the module docstring.  The system
    is reduced by ``eliminate`` and ``backtrack`` searches the free
    variables in ``search_order``; each solution t over them maps back to
    ``particular`` XOR the ``directions[k]`` with bit k of t set.
    """
    reduction = eliminate(nvars, equations)
    if reduction is None:
        return []
    nfree, reduced, particular, directions = reduction
    out = []
    for mask in backtrack(nfree, reduced, search_order(nfree, reduced)):
        x = particular
        while mask:
            low = mask & -mask
            x ^= directions[low.bit_length() - 1]
            mask ^= low
        out.append(x)
    out.sort()
    return out


def backtrack(nvars: int, equations, order=None) -> list[int]:
    """Enumerate all assignments satisfying every equation.

    Level k of the search assigns variable ``order[k]`` (index order when
    ``order`` is None), trying 0 before 1, and each equation is checked at
    the level of its last variable in that order.  The returned packed
    assignment masks are in the caller's numbering, sorted ascending.

    The check is bit-sliced: bit e of every mask below stands for equation
    e, so one AND checks every equation a level closes.

    - ``closing[k]``: the equations whose last variable is ``order[k]``;
    - ``parity``: the value of every equation under the current assignment,
      unset variables read as 0, starting at the constants;
    - ``coeff[v]``: the equations whose value flips when x_v goes from 0 to
      1, given the variables set so far: those with x_v linear, plus those
      with x_i x_v for an x_i set earlier in the order;
    - ``fwd[v]``: pairs (j, mask), x_j later than x_v in the order, where
      mask holds the equations with an odd number of x_v x_j terms.

    Level k, at v = ``order[k]``, passes with x_v = 0 when
    ``parity & closing[k]`` is 0 and with x_v = 1 when
    ``(parity ^ coeff[v]) & closing[k]`` is 0.  Setting x_v = 1 XORs each
    forward mask into ``coeff[j]``, and the return XORs it out.
    """
    if order is None:
        order = range(nvars)
    level = [0] * nvars
    for k, v in enumerate(order):
        level[v] = k
    closing = [0] * nvars
    parity = 0
    coeff = [0] * nvars
    fwd_masks: list[dict[int, int]] = [{} for _ in range(nvars)]
    for e, (const, lin, pairs) in enumerate(equations):
        bit = 1 << e
        last = -1
        for v in bits_of(lin):
            coeff[v] |= bit
            if level[v] > last:
                last = level[v]
        for i, j in pairs:
            if level[i] > level[j]:
                i, j = j, i
            if level[j] > last:
                last = level[j]
            row = fwd_masks[i]
            row[j] = row.get(j, 0) ^ bit
        if last < 0:
            if const:
                return []
            continue
        closing[last] |= bit
        if const:
            parity |= bit
    fwd = [[(j, m) for j, m in row.items() if m] for row in fwd_masks]
    if not nvars:
        return [0]

    solutions: list[int] = []
    last_level = nvars - 1

    def descend(k: int, assign: int, parity: int):
        v = order[k]
        check = closing[k]
        if not parity & check:
            if k == last_level:
                solutions.append(assign)
            else:
                descend(k + 1, assign, parity)
        parity ^= coeff[v]
        if not parity & check:
            assign |= 1 << v
            if k == last_level:
                solutions.append(assign)
            else:
                flips = fwd[v]
                for j, m in flips:
                    coeff[j] ^= m
                descend(k + 1, assign, parity)
                for j, m in flips:
                    coeff[j] ^= m

    descend(0, 0, parity)
    solutions.sort()
    return solutions


# Rows of p, rows of p^-1 and the chunk tables of ``coproduct_change``.
Change = tuple[tuple[int, ...], tuple[int, ...], tuple[list[int], list[int]]]


def coproduct_change(p: tuple[int, ...], n: int) -> Change:
    """An invertible basis change p, prepared for ``coproduct_orbit``: the
    rows of p, the rows of p^-1, and P^-1 (x) P^-1 on the n-bit chunks of a
    coproduct slice as two tables.

    Chunk u of a slice, with bits s, is x^u (x) sum of x^r over r in s, and
    goes to Pinv[u] (x) Pinv s.  ``images[s]`` is Pinv s, and ``spreads[u]``
    has bit b*n set for each b in Pinv[u], so the image is
    ``images[s] * spreads[u]``: an n-bit value times a sum of powers 2^(b*n)
    places one copy of it at each b, without carries.
    Raises ValueError when p is singular.
    """
    pinv = mat_inv_rows(p, n)
    if pinv is None:
        raise ValueError("singular basis-change matrix")
    images = [0]
    for row in pinv:
        images += [x ^ row for x in images]
    spread = spread_table(n)
    return p, pinv, (images, [spread[row] for row in pinv])


def coproduct_orbit(c: int, n: int, changes: list[Change]) -> dict[int, Change]:
    """The images of the coproduct tensor c under the basis changes (from
    ``coproduct_change``), as image -> the first change in list order
    reaching it.  The image under p has the constants
    C'[a][b][g] = sum P[a][m] C[m][u][r] Pinv[u][b] Pinv[r][g], read off the
    change's chunk tables.

    Over an algebra's automorphism group (a group, so c is one of its own
    images) this is the isomorphism class of the bialgebra."""
    nn = n * n
    slice_mask = (1 << nn) - 1
    chunk = (1 << n) - 1
    # mixed[m]: the XOR of the slices of c over the bits of m, so row a of
    # P picks the slice sum P[a][m] C[m] with one lookup.
    mixed = [0]
    for m in range(n):
        s = (c >> (m * nn)) & slice_mask
        mixed += [x ^ s for x in mixed]
    orbit: dict[int, Change] = {}
    for change in changes:
        p, _, (images, spreads) = change
        image = 0
        for a in range(n):
            acc = mixed[p[a]]
            res = 0
            for w in spreads:
                res ^= images[acc & chunk] * w
                acc >>= n
            image |= res << (a * nn)
        orbit.setdefault(image, change)
    return orbit


def transform_coproduct(c: int, n: int, p: tuple[int, ...]) -> int:
    """Basis change of a coproduct tensor by the invertible p, same packed
    layout: the one image ``coproduct_orbit`` finds under p alone."""
    (image,) = coproduct_orbit(c, n, [coproduct_change(p, n)])
    return image


@lru_cache(maxsize=None)
def _permutation_table(n: int, order: tuple[int, ...]) -> tuple[int, ...]:
    """``table[b]``: bit b of a rank-len(order) tensor over n, moved by
    ``permute_tensor``, as a power of two."""
    rank = len(order)
    table = []
    for b in range(n**rank):
        index = [b // n ** (rank - 1 - k) % n for k in range(rank)]
        table.append(1 << sum(index[order[k]] * n ** (rank - 1 - k) for k in range(rank)))
    return tuple(table)


def permute_tensor(t: int, n: int, order: tuple[int, ...]) -> int:
    """The packed tensor t with its indices relabelled, as numpy's
    ``transpose(order)``: the entry at (i_0, .., i_(r-1)) moves to
    (i_order[0], .., i_order[r-1]).  The rank r is len(order), indices run
    over range(n) and the first is the most significant, so ``(1, 0)``
    swaps the legs of an element of H (x) H.  One lookup per set bit, in a
    table built once per (n, order)."""
    table = _permutation_table(n, order)
    out = 0
    while t:
        low = t & -t
        out |= table[low.bit_length() - 1]
        t ^= low
    return out


def transform_product(v: int, n: int, p: tuple[int, ...]) -> int:
    """Basis change of a product tensor by the invertible p, same packed
    layout: V'[a][b][c] = sum P[a][m] P[b][u] V[m][u][r] Pinv[r][c].

    V is the coproduct C[r][m][u] = V[m][u][r] of the dual algebra, on the
    dual basis, which changes by (P^-1)^T; the image is read back as a
    product.  Raises ValueError when p is singular."""
    pinv = mat_inv_rows(p, n)
    if pinv is None:
        raise ValueError("singular basis-change matrix")
    dual = transform_coproduct(permute_tensor(v, n, (2, 0, 1)), n, mat_transpose_rows(pinv))
    return permute_tensor(dual, n, (1, 2, 0))

