"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions (or ints); sparse matrices are
iterables of {col: value} dicts.  There is one elimination: echelon clears
each row to integers and, shortest rows first, reduces it fraction-free
against the stored pivot rows by least column, dividing out its content
after a scaling step and before storing it.  rank and sparse_rank count its
pivots; reduced back-substitutes it once, in Fraction, to the reduced
echelon form, and rref, nullspace, solve and invert read their answers off
that.  The reduced form depends only on the row space, so the canonical
solutions read off it are unique.
"""

from fractions import Fraction
from math import gcd

from .scalars import cleared


def echelon(rows):
    """{pivot column: primitive int row} of an iterable of {col: value}
    dicts of rationals; the dicts are not modified.

    Integer echelon: the rows are taken shortest first, and of two rows of
    one length the later one first, which keeps fill-in low (after
    Markowitz; of the tie-breaks tried, this one left the least elimination
    work on the homology and super de Rham blocks).  Each row is cleared to
    integers and reduced against the stored pivot rows by leading column, as
    row <- p*row - a*pivot with a/p its leading entry over the pivot's in
    lowest terms, until it dies or is stored as a new pivot row.  It is
    divided by its content only after a step with |p| > 1 and before it is
    stored; each step leaves a positive multiple of the row that dividing
    after every step would, so the same rows are stored.  The pivots depend
    only on the row space, so the order changes the rows but not the pivots.
    """
    # order the given dicts themselves: a copy of every row at once would
    # hold them all alive, and the garbage collector would walk them
    todo = [r for r in rows if r][::-1]
    todo.sort(key=len)
    pivots = {}
    for r in todo:
        row, exact = {}, True
        for c, v in r.items():
            if v:
                row[c] = v
                exact &= type(v) is int
        if not exact:
            row = dict(zip(row, cleared(row.values())[1]))
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                g = gcd(*row.values())
                pivots[c] = {cc: vv // g for cc, vv in row.items()} if g > 1 else row
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
            if abs(p) > 1:
                g = gcd(*row.values())
                if g > 1:
                    row = {cc: vv // g for cc, vv in row.items()}
    return pivots


def sparse_rank(rows):
    """Rank of a sparse matrix given as an iterable of {col: value} dicts."""
    return len(echelon(rows))


def rank(rows):
    """Rank of a dense matrix, through sparse_rank on its nonzero entries."""
    return sparse_rank(dict(enumerate(row)) for row in rows)


def reduced(rows):
    """The reduced echelon form of sparse rows, as {pivot: {col: Fraction}}
    with a 1 at each pivot and no entry at the other pivots; the back
    substitution runs from the last pivot to the first."""
    red = {}
    for p, row in sorted(echelon(rows).items(), reverse=True):
        out = {c: Fraction(v, row[p]) for c, v in row.items()}
        for c in red.keys() & row.keys():
            f = out[c]
            for cc, vv in red[c].items():
                out[cc] = out.get(cc, 0) - f * vv
        red[p] = {c: v for c, v in out.items() if v}
    return red


def rref(rows):
    """Reduced row echelon form of a dense matrix, zero rows last.
    Returns (matrix, pivot_cols)."""
    ncols = len(rows[0]) if rows else 0
    red = reduced(dict(enumerate(row)) for row in rows)
    pivots = sorted(red)
    full = [red[p] for p in pivots] + [{}] * (len(rows) - len(pivots))
    return [[r.get(c, Fraction(0)) for c in range(ncols)] for r in full], pivots


def nullspace(rows, ncols=None):
    """Canonical basis of the right nullspace: one vector per free column,
    with a 1 in that column."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols needed for an empty matrix")
    red = reduced(dict(enumerate(row)) for row in rows)
    basis = {f: [Fraction(int(c == f)) for c in range(ncols)]
             for f in range(ncols) if f not in red}
    for p, row in red.items():
        for f in basis.keys() & row.keys():
            basis[f][p] = -row[f]
    return list(basis.values())


def solve(rows, rhs, ncols):
    """One solution, as a list of ncols Fractions, of A x = b for A given by
    its sparse rows {col: value} and b by one value per row, with all free
    variables set to zero (the canonical representative).  None if the
    system is inconsistent."""
    if len(rows) != len(rhs):
        raise ValueError("solve needs one right-hand side value per row")
    red = reduced({**row, ncols: b} for row, b in zip(rows, rhs))
    if ncols in red:
        return None
    x = [Fraction(0)] * ncols
    for p, row in red.items():
        x[p] = row.get(ncols, Fraction(0))
    return x


def identity_matrix(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def invert(rows):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("invert needs a square matrix")
    red = reduced({**dict(enumerate(row)), n + i: 1} for i, row in enumerate(rows))
    if any(i not in red for i in range(n)):
        return None
    return [[red[i].get(n + j, Fraction(0)) for j in range(n)] for i in range(n)]


def mat_vec(rows, v):
    return [sum((Fraction(a) * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]
