"""Kernel backend selection and the search order of the quadratic-XOR solver.

Backends.  The compiled extension f2hopf._kernels_c is imported when it is
available, otherwise the pure-Python f2hopf._kernels.  Set F2HOPF_NO_EXT=1 to
force the fallback (the benchmark and the agreement tests load both backends
explicitly through ``backends()``).  ``transform_product`` and
``transform_coproduct`` are the selected backend's functions.

Search order.  Each backend's ``solve_quadratic`` is a depth-first
backtracker that assigns variables in index order and checks an equation as
soon as its highest variable is set.  The engine numbers its variables
lexicographically (structure constants by (mu, nu, rho)), which leaves most
equations open until deep in the tree.  ``solve_quadratic`` here therefore
renumbers the system in ``search_order`` before calling the backend, and maps
the solutions back, so callers see the same ascending masks in their own
numbering as an index-order search would return.
"""

from __future__ import annotations

import os

if os.environ.get("F2HOPF_NO_EXT") == "1":
    from f2hopf import _kernels as _impl
else:
    try:
        from f2hopf import _kernels_c as _impl  # type: ignore[no-redef]
    except ImportError:
        from f2hopf import _kernels as _impl  # type: ignore[no-redef]

BACKEND: str = _impl.BACKEND
transform_product = _impl.transform_product
transform_coproduct = _impl.transform_coproduct


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

    The rules were chosen by timing the pure-Python backtracker on the 102
    systems of a ``run --dim 2 --dim 3 --dim 4`` census (2-core x86-64,
    Python 3.11): index order 16.9 s; rule 1 alone 5.1 s; rules 1 and 2
    3.4 s; rules 1 and 3 4.0 s; rules 1 to 3 1.8 s.  The tie-breaks matter
    most on algebra P's two 240-equation counit systems, which rule 1 alone
    searches about 3.5 times longer.
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
        for v in _bits(s):
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
                for v in _bits(s):
                    score[v] += delta
    return order


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def solve_ordered(solve, nvars: int, equations) -> list[int]:
    """Run the index-order backtracker ``solve`` (a backend's
    ``solve_quadratic``) on the system renumbered in ``search_order``.

    Returns the solution masks in the caller's numbering, ascending:
    exactly what ``solve(nvars, equations)`` returns.
    """
    equations = list(equations)
    order = search_order(nvars, equations)
    if order == list(range(nvars)):
        return solve(nvars, equations)
    pos = [0] * nvars
    for k, v in enumerate(order):
        pos[v] = k
    renumbered = []
    for const, lin, pairs in equations:
        new_lin = 0
        while lin:
            low = lin & -lin
            new_lin |= 1 << pos[low.bit_length() - 1]
            lin ^= low
        new_pairs = tuple(
            (pos[i], pos[j]) if pos[i] < pos[j] else (pos[j], pos[i]) for i, j in pairs
        )
        renumbered.append((const, new_lin, new_pairs))
    back = [1 << v for v in order]
    out = []
    for mask in solve(nvars, renumbered):
        x = 0
        while mask:
            low = mask & -mask
            x |= back[low.bit_length() - 1]
            mask ^= low
        out.append(x)
    out.sort()
    return out


def solve_quadratic(nvars: int, equations) -> list[int]:
    """All solutions of a quadratic XOR system, as ascending packed masks.

    The equation format is documented in f2hopf._kernels.  The search runs
    the selected backend's backtracker in ``search_order``.
    """
    return solve_ordered(_impl.solve_quadratic, nvars, equations)


def backends() -> dict[str, object]:
    """All importable kernel backends, keyed by name."""
    from f2hopf import _kernels

    found: dict[str, object] = {"python": _kernels}
    try:
        from f2hopf import _kernels_c

        found[_kernels_c.BACKEND] = _kernels_c
    except ImportError:
        pass
    return found
