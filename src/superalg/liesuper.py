"""Lie superalgebras presented by structure constants on a homogeneous basis.

Basis vectors 1..even_dim are even, the rest odd.  The bracket is stored as a
sparse map (i, j) -> coefficient vector.  The checker validates the graded
antisymmetry law in the form ⟦X,Y⟧ = -(-1)^{|X||Y|}⟦Y,X⟧ and the graded
Jacobi identity on all basis triples.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from . import decode
from .linalg import mat_mul
from .scalars import cleared, format_scalar


def _vzero(n):
    return (Fraction(0),) * n


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vscale(c, a):
    return tuple(c * x for x in a)


def _is_zero(a):
    return all(x == 0 for x in a)


class LieSuperData:

    __slots__ = ("even_dim", "odd_dim", "brackets")

    def __init__(self, even_dim, odd_dim, brackets):
        if even_dim < 0 or odd_dim < 0 or even_dim + odd_dim < 1:
            raise ValueError("need a positive total dimension")
        self.even_dim = even_dim
        self.odd_dim = odd_dim
        dim = even_dim + odd_dim
        table = {}
        for (i, j), coeffs in brackets.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError("basis index out of range in bracket (%d,%d)" % (i, j))
            vec = tuple(Fraction(c) for c in coeffs)
            if len(vec) != dim:
                raise ValueError("bracket (%d,%d) needs %d coefficients" % (i, j, dim))
            # parity additivity: the image sits in the |i|+|j| component
            target = (self.parity(i) + self.parity(j)) % 2
            for k, c in enumerate(vec, start=1):
                if c and self.parity(k) != target:
                    raise ValueError("bracket (%d,%d) leaks into the wrong parity" % (i, j))
            if not _is_zero(vec):
                table[(i, j)] = vec
        self.brackets = table

    @property
    def dim(self):
        return self.even_dim + self.odd_dim

    def parity(self, i):
        return 0 if i <= self.even_dim else 1

    def bracket(self, i, j):
        return self.brackets.get((i, j), _vzero(self.dim))

    def __eq__(self, other):
        if not isinstance(other, LieSuperData):
            return NotImplemented
        return (self.even_dim == other.even_dim and self.odd_dim == other.odd_dim
                and self.brackets == other.brackets)

    __hash__ = None

    def to_json(self):
        rows = []
        for (i, j) in sorted(self.brackets):
            rows.append({"i": i, "j": j,
                         "coeffs": [format_scalar(c) for c in self.brackets[(i, j)]]})
        return {"even_dim": self.even_dim, "odd_dim": self.odd_dim, "brackets": rows}

    @classmethod
    def from_json(cls, data):
        p, q, rows = decode.fields(data, "Lie superalgebra", "even_dim", "odd_dim", "brackets")
        dim = decode.integer(p, "even_dim") + decode.integer(q, "odd_dim")

        def read(i, j, coeffs):
            key = (decode.integer(i, "i", 1, dim), decode.integer(j, "j", 1, dim))
            return key, [decode.scalar(c, "coeffs") for c in decode.items(coeffs, "coeffs", dim)]
        return cls(p, q, decode.terms(rows, "brackets", read, "i", "j", "coeffs"))


@dataclass(frozen=True)
class LieCheckReport:
    superalternating: bool
    super_jacobi: bool
    convention: str  # which antisymmetry sign the input obeys: minus/plus/both/neither
    failures: tuple

    @property
    def passed(self):
        return self.superalternating and self.super_jacobi


def _cleared_table(L):
    """The bracket table over one shared denominator, as {(i, j): {l: int}}
    with no zero entries.  Both laws are zero tests of expressions linear or
    quadratic in the table, so the common scale changes none of them."""
    keys = [(ij, l) for ij, vec in L.brackets.items() for l, c in enumerate(vec, start=1) if c]
    _, ints = cleared(L.brackets[ij][l - 1] for ij, l in keys)
    table = {}
    for (ij, l), c in zip(keys, ints):
        table.setdefault(ij, {})[l] = c
    return table


def check_lie_superalgebra(L):
    dim = L.dim
    table = _cleared_table(L)
    empty = {}
    failures = []
    minus_ok = plus_ok = True
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            cij, cji = table.get((i, j), empty), table.get((j, i), empty)
            if not (cij or cji):
                continue
            s = -1 if L.parity(i) * L.parity(j) else 1
            if cij != {l: -s * c for l, c in cji.items()}:
                minus_ok = False
                failures.append(("superalternating", i, j))
            if cij != {l: s * c for l, c in cji.items()}:
                plus_ok = False
    # ⟦L_i,⟦L_j,L_k⟧⟧ − ⟦⟦L_i,L_j⟧,L_k⟧ − (−1)^{|i||j|}⟦L_j,⟦L_i,L_k⟧⟧ = 0
    jacobi_ok = True
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            cij = table.get((i, j), empty)
            sign = 1 if L.parity(i) * L.parity(j) else -1  # −(−1)^{|i||j|}
            for k in range(1, dim + 1):
                cjk, cik = table.get((j, k), empty), table.get((i, k), empty)
                if not (cij or cjk or cik):
                    continue
                out = {}
                for l, c in cjk.items():
                    for m, v in table.get((i, l), empty).items():
                        out[m] = out.get(m, 0) + c * v
                for l, c in cij.items():
                    for m, v in table.get((l, k), empty).items():
                        out[m] = out.get(m, 0) - c * v
                for l, c in cik.items():
                    for m, v in table.get((j, l), empty).items():
                        out[m] = out.get(m, 0) + sign * c * v
                if any(out.values()):
                    jacobi_ok = False
                    failures.append(("jacobi", i, j, k))
    convention = {(True, True): "both", (True, False): "minus",
                  (False, True): "plus", (False, False): "neither"}[(minus_ok, plus_ok)]
    return LieCheckReport(minus_ok, jacobi_ok, convention, tuple(failures))


class RepAndForm:
    """A Lie algebra (structure constants, abelian when omitted), matrices
    representing it on an odd space, and a symmetric pairing of the odd space
    into the even one."""

    __slots__ = ("even_dim", "odd_dim", "rho", "B", "even_brackets")

    def __init__(self, even_dim, odd_dim, rho, B, even_brackets=None):
        self.even_dim = even_dim
        self.odd_dim = odd_dim
        rho = tuple(tuple(tuple(Fraction(x) for x in row) for row in mat) for mat in rho)
        if len(rho) != even_dim or any(len(m) != odd_dim or any(len(r) != odd_dim for r in m)
                                       for m in rho):
            raise ValueError("rho needs %d matrices of size %dx%d"
                             % (even_dim, odd_dim, odd_dim))
        self.rho = rho
        B = tuple(tuple(tuple(Fraction(x) for x in vec) for vec in row) for row in B)
        if len(B) != odd_dim or any(len(row) != odd_dim or any(len(v) != even_dim for v in row)
                                    for row in B):
            raise ValueError("B needs shape %dx%d with values in the even part" % (odd_dim, odd_dim))
        for a in range(odd_dim):
            for b in range(odd_dim):
                if B[a][b] != B[b][a]:
                    raise ValueError("B must be symmetric")
        self.B = B
        if even_brackets is None:
            zero = _vzero(even_dim)
            even_brackets = tuple(tuple(zero for _ in range(even_dim))
                                  for _ in range(even_dim))
        else:
            even_brackets = tuple(tuple(tuple(Fraction(x) for x in vec) for vec in row)
                                  for row in even_brackets)
            if len(even_brackets) != even_dim or any(
                    len(row) != even_dim or any(len(v) != even_dim for v in row)
                    for row in even_brackets):
                raise ValueError("even brackets need shape %dx%d" % (even_dim, even_dim))
        self.even_brackets = even_brackets

    def rho_apply(self, a, vec):
        # ρ(X_a) acting on an odd coefficient vector
        mat = self.rho[a - 1]
        return tuple(sum((mat[g][b] * vec[b] for b in range(self.odd_dim)), Fraction(0))
                     for g in range(self.odd_dim))


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _validate_representation(data):
    p = data.even_dim
    # the even part must itself be a Lie algebra
    report = _even_report(p, {(a, b): vec
                              for a, row in enumerate(data.even_brackets, start=1)
                              for b, vec in enumerate(row, start=1)})
    if not report.superalternating:
        raise ValueError("even brackets are not antisymmetric")
    if not report.super_jacobi:
        raise ValueError("even brackets fail the Jacobi identity")
    # rho([X_a, X_b]) = rho(X_a)rho(X_b) - rho(X_b)rho(X_a)
    q = data.odd_dim
    for a in range(p):
        for b in range(p):
            comm = _mat_sub(mat_mul(data.rho[a], data.rho[b]),
                            mat_mul(data.rho[b], data.rho[a]))
            want = tuple(tuple(sum((data.even_brackets[a][b][l] * data.rho[l][g][d]
                                    for l in range(p)), Fraction(0))
                               for d in range(q)) for g in range(q))
            if comm != want:
                raise ValueError("rho is not a representation of the even part")


def build_from_rho_B(data):
    """Assemble the bracket table: ⟦X,s⟧ = ρ(X)s, ⟦s,X⟧ = −ρ(X)s, ⟦s,t⟧ = B(s,t)."""
    _validate_representation(data)
    p, q = data.even_dim, data.odd_dim
    dim = p + q
    table = {}

    def put(i, j, vec):
        if not _is_zero(vec):
            table[(i, j)] = vec

    for a in range(1, p + 1):
        for b in range(1, p + 1):
            put(a, b, tuple(data.even_brackets[a - 1][b - 1]) + _vzero(q))
    for a in range(1, p + 1):
        for al in range(1, q + 1):
            unit = tuple(Fraction(1) if t == al else Fraction(0) for t in range(1, q + 1))
            img = data.rho_apply(a, unit)
            put(a, p + al, _vzero(p) + img)
            put(p + al, a, _vzero(p) + _vscale(-1, img))
    for al in range(1, q + 1):
        for be in range(1, q + 1):
            put(p + al, p + be, tuple(data.B[al - 1][be - 1]) + _vzero(q))
    return LieSuperData(p, q, table)


@dataclass(frozen=True)
class StructureReport:
    equivariant: bool
    cubic_term_vanishes: bool
    failures: tuple

    @property
    def passed(self):
        return self.equivariant and self.cubic_term_vanishes


def check_structure_conditions(data):
    """Equivariance of B plus vanishing of the symmetrized (s,t,u) ↦ ρ(B(s,t))u."""
    p, q = data.even_dim, data.odd_dim
    failures = []
    equivariant = True
    for a in range(1, p + 1):
        for al in range(q):
            for be in range(q):
                lhs = _vzero(p)
                mat = data.rho[a - 1]
                for g in range(q):
                    if mat[g][al]:
                        lhs = _vadd(lhs, _vscale(mat[g][al], data.B[g][be]))
                    if mat[g][be]:
                        lhs = _vadd(lhs, _vscale(mat[g][be], data.B[al][g]))
                rhs = _vzero(p)
                for c, coef in enumerate(data.B[al][be]):
                    if coef:
                        rhs = _vadd(rhs, _vscale(coef, data.even_brackets[a - 1][c]))
                if lhs != rhs:
                    equivariant = False
                    failures.append(("equivariance", a, al + 1, be + 1))
    cubic = True
    for al in range(q):
        for be in range(al, q):
            for ga in range(be, q):
                total = _vzero(q)
                for (x, y, z) in permutations((al, be, ga)):
                    arg = tuple(Fraction(1) if t == z else Fraction(0) for t in range(q))
                    for a in range(p):
                        coef = data.B[x][y][a]
                        if coef:
                            total = _vadd(total, _vscale(coef, data.rho_apply(a + 1, arg)))
                if not _is_zero(total):
                    cubic = False
                    failures.append(("cubic", al + 1, be + 1, ga + 1))
    return StructureReport(equivariant, cubic, tuple(failures))


def semidirect(data):
    """Split extension from the representation alone: ⟦X⊕s, Y⊕t⟧ = [X,Y] ⊕ (ρ(X)t − ρ(Y)s)."""
    zeroed = RepAndForm(data.even_dim, data.odd_dim, data.rho,
                        tuple(tuple(_vzero(data.even_dim) for _ in range(data.odd_dim))
                              for _ in range(data.odd_dim)),
                        data.even_brackets)
    return build_from_rho_B(zeroed)


def endo_superalgebra(p, q):
    """End(ℝ^p|ℝ^q) with the supercommutator bracket on matrix units."""
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    n = p + q

    def blk(r):
        return 0 if r <= p else 1

    units = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1) if blk(r) == blk(c)]
    units += [(r, c) for r in range(1, n + 1) for c in range(1, n + 1) if blk(r) != blk(c)]
    pos = {u: t for t, u in enumerate(units, start=1)}
    even_dim = p * p + q * q
    dim = n * n

    table = {}
    for (a, b) in units:
        pu = blk(a) ^ blk(b)
        for (c, d) in units:
            pw = blk(c) ^ blk(d)
            coeffs = [Fraction(0)] * dim
            if b == c:
                coeffs[pos[(a, d)] - 1] += 1
            if d == a:
                coeffs[pos[(c, b)] - 1] -= -1 if pu * pw else 1
            if any(coeffs):
                table[(pos[(a, b)], pos[(c, d)])] = tuple(coeffs)
    return LieSuperData(even_dim, dim - even_dim, table)


def _even_report(p, brackets):
    """check_lie_superalgebra on p even basis vectors; the zero space passes."""
    if p == 0:
        return LieCheckReport(True, True, "both", ())
    return check_lie_superalgebra(LieSuperData(p, 0, brackets))


def even_part_is_lie_algebra(L):
    """The even-even block of a passing superalgebra is an ordinary Lie algebra."""
    p = L.even_dim
    return _even_report(p, {(i, j): vec[:p] for (i, j), vec in L.brackets.items()
                            if i <= p and j <= p}).passed
