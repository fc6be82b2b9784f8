"""Pure-Python hot kernels.

The compiled twin f2hopf._kernels_c exposes the same three functions; the
backend is picked at import time in f2hopf.kernels.  Every search in the
engine reduces to enumerating the solutions of a system of quadratic XOR
equations, handled here by one depth-first backtracker in index order.  The
engine reaches it only through f2hopf.kernels.solve_quadratic, which first
eliminates the product-free equations and renumbers what is left into a
greedy search order.

An equation is a triple (const, lin, pairs):

    const  in {0, 1}
    lin    bitmask of variables appearing linearly
    pairs  tuple of (i, j) with i < j, the quadratic monomials x_i * x_j

and states  const ^ XOR(lin bits) ^ XOR(x_i & x_j) == 0.
Over F2 squares are linear (x*x = x), so i == j never appears in pairs.
"""

from __future__ import annotations

BACKEND = "python"


def solve_quadratic(nvars: int, equations) -> list[int]:
    """Enumerate all assignments satisfying every equation.

    Variables are assigned in index order 0..nvars-1, trying 0 before 1, and
    each equation is checked as soon as its highest variable is assigned.
    The returned packed assignment masks are sorted ascending.
    """
    if nvars > 63:
        raise ValueError("kernel supports at most 63 variables")
    by_last: list[list[tuple[int, int, tuple[tuple[int, int], ...]]]] = [
        [] for _ in range(nvars)
    ]
    for const, lin, pairs in equations:
        last = -1
        if lin:
            last = lin.bit_length() - 1
        for i, j in pairs:
            if j > last:
                last = j
        if last < 0:
            if const:
                return []
            continue
        by_last[last].append((const, lin, pairs))

    solutions: list[int] = []

    def descend(level: int, assign: int):
        if level == nvars:
            solutions.append(assign)
            return
        checks = by_last[level]
        for bit in (0, 1 << level):
            a = assign | bit
            ok = True
            for const, lin, pairs in checks:
                v = const ^ ((a & lin).bit_count() & 1)
                for i, j in pairs:
                    v ^= (a >> i) & (a >> j) & 1
                if v:
                    ok = False
                    break
            if ok:
                descend(level + 1, a)

    descend(0, 0)
    solutions.sort()
    return solutions


def transform_product(v: int, n: int, p: tuple[int, ...], pinv: tuple[int, ...]) -> int:
    """Basis change of a product tensor, packed layout (mu, nu, rho) -> bit
    mu*n*n + nu*n + rho.

    New constants V'[a][b][c] = sum P[a][m] P[b][u] V[m][u][r] Pinv[r][c].
    """
    mask = (1 << n) - 1
    out = 0
    for a in range(n):
        pa = p[a]
        for b in range(n):
            pb = p[b]
            acc = 0
            ra = pa
            while ra:
                low = ra & -ra
                m = low.bit_length() - 1
                ra ^= low
                base = m * n * n
                rb = pb
                while rb:
                    lo2 = rb & -rb
                    u = lo2.bit_length() - 1
                    rb ^= lo2
                    acc ^= (v >> (base + u * n)) & mask
            res = 0
            while acc:
                low = acc & -acc
                r = low.bit_length() - 1
                acc ^= low
                res ^= pinv[r]
            out |= res << ((a * n + b) * n)
    return out


def transform_coproduct(c: int, n: int, p: tuple[int, ...], pinv: tuple[int, ...]) -> int:
    """Basis change of a coproduct tensor, same packed layout.

    New constants C'[a][b][g] = sum P[a][m] C[m][u][r] Pinv[u][b] Pinv[r][g].
    """
    nn = n * n
    mask2 = (1 << nn) - 1
    out = 0
    for a in range(n):
        acc = 0
        ra = p[a]
        while ra:
            low = ra & -ra
            m = low.bit_length() - 1
            ra ^= low
            acc ^= (c >> (m * nn)) & mask2
        res = 0
        while acc:
            low = acc & -acc
            t = low.bit_length() - 1
            acc ^= low
            u, r = divmod(t, n)
            pu = pinv[u]
            pr = pinv[r]
            ru = pu
            while ru:
                l2 = ru & -ru
                bcol = l2.bit_length() - 1
                ru ^= l2
                rr = pr
                while rr:
                    l3 = rr & -rr
                    gcol = l3.bit_length() - 1
                    rr ^= l3
                    res ^= 1 << (bcol * n + gcol)
        out |= res << (a * nn)
    return out
