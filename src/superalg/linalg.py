"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions (or ints); sparse matrices are
iterables of {col: value} dicts.  Rank is fraction-free: each row is cleared
to integers first, then reduced by an integer echelon with content removal;
the dense rank hands its nonzero entries to the sparse one.  Only rref,
nullspace, solve and invert compute in Fraction.  Pivoting is always
least-index, so reduced forms and the canonical solutions extracted from
them are unique.
"""

from fractions import Fraction
from math import gcd

from .scalars import cleared


def rank(rows):
    """Rank of a dense matrix, through sparse_rank on its nonzero entries."""
    return sparse_rank(dict(enumerate(row)) for row in rows)


def rref(rows):
    """Reduced row echelon form with least-index pivots.  Returns (matrix, pivot_cols)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    if not m:
        return m, pivots
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows, ncols=None):
    """Canonical basis of the right nullspace: one vector per free column,
    with a 1 in that column."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols needed for an empty matrix")
    R, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution of A x = b with all free variables set to zero
    (the canonical representative).  None if the system is inconsistent."""
    if not rows:
        return [] if not any(rhs) else None
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    R, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = R[i][ncols]
    return x


def sparse_rank(rows):
    """Rank of a sparse matrix given as an iterable of {col: value} dicts
    of rationals; the dicts are not modified.

    Incremental integer echelon: each incoming row is cleared to integers
    and reduced against the stored pivot rows by leading column, as
    row <- p*row - a*pivot with a/p its leading entry over the pivot's in
    lowest terms, then divided by its content, until it dies or is stored
    as a new pivot row.
    """
    pivots = {}
    for r in rows:
        cols = [c for c, v in r.items() if v]
        row = dict(zip(cols, cleared(r[c] for c in cols)[1]))
        while row:
            g = gcd(*row.values())
            if g > 1:
                row = {cc: vv // g for cc, vv in row.items()}
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            f = row.pop(c)
            pc = piv[c]
            g = gcd(f, pc)
            a, p = f // g, pc // g
            if p != 1:
                for cc in row:
                    row[cc] *= p
            for cc, vv in piv.items():
                if cc == c:
                    continue
                nv = row.get(cc, 0) - a * vv
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    return len(pivots)


def identity_matrix(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def invert(rows):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + identity_matrix(n)[i] for i, row in enumerate(rows)]
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in R]


def mat_vec(rows, v):
    return [sum((Fraction(a) * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]
