"""Differential operators with polynomial coefficients on trivial bundles,
iterated commutators, principal symbols, jets, and the factorization of an
order-k operator through the k-jet at a point.

An operator may act along a polynomial map φ: ℝ^m → ℝ^n, taking sections
over the target to sections over the source, Σ_α P_α(x) · (∂^α s)(φ(x)):
the form of a supersmooth map in prop:supermaps-are-diffops.  Commutators
multiply by f on the target and by f ∘ φ on the source, so every operation
here holds along a map as it does along the identity.

A k-jet at p is its vector of Taylor coefficients ∂^β s(p)/β! for |β| ≤ k,
graded-lex β-major with the rank inner; jet_operator realizes the same
layout as a differential operator, and factor_through_jet reads D̂_p with
D(s)(p) = D̂_p · jet^k_p s straight off D's coefficients."""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod

from . import decode
from .poly import Poly, multi_binom
from .scalars import MultiDegree, cleared, iter_multidegrees


class PolySection:
    """Section of the trivial rank-r bundle: a vector of polynomials."""

    __slots__ = ("nvars", "polys")

    def __init__(self, polys):
        polys = tuple(polys)
        if not polys:
            raise ValueError("rank must be positive")
        nv = polys[0].nvars
        if any(p.nvars != nv for p in polys):
            raise ValueError("components live in different rings")
        self.nvars = nv
        self.polys = polys

    @classmethod
    def zero(cls, nvars, rank):
        return cls([Poly.zero(nvars)] * rank)

    @property
    def rank(self):
        return len(self.polys)

    def is_zero(self):
        return all(p.is_zero() for p in self.polys)

    def __eq__(self, other):
        if not isinstance(other, PolySection):
            return NotImplemented
        return self.nvars == other.nvars and self.polys == other.polys

    __hash__ = None

    def __add__(self, other):
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        return PolySection([a + b for a, b in zip(self.polys, other.polys)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return PolySection([p.scale(c) for p in self.polys])

    def partial_multi(self, alpha):
        return PolySection([p.partial_multi(alpha) for p in self.polys])

    def evaluate(self, point):
        return [p.evaluate(point) for p in self.polys]

    def to_json(self):
        return [p.to_json() for p in self.polys]

    @classmethod
    def from_json(cls, nvars, data):
        return cls([Poly.from_json(nvars, p) for p in decode.items(data, "section")])

    def __repr__(self):
        return "(" + ", ".join(repr(p) for p in self.polys) + ")"


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_scale_poly(f, a):
    return [[f * x for x in row] for row in a]


def _diagonal(f, rank):
    """The rank x rank coefficient matrix f·I."""
    zero = Poly.zero(f.nvars)
    return [[f if i == j else zero for j in range(rank)] for i in range(rank)]


class PolyDiffOp:
    """Σ_α P_α(x) ∂^α between trivial bundles over the same base, or, along a
    polynomial map φ = (φ_1, …, φ_n): ℝ^m → ℝ^n, Σ_α P_α(x) · (∂^α s)(φ(x))
    from sections over the target to sections over the source.  α indexes
    the nvars target variables and the P_α are polynomials on φ's source
    ring; phi is the tuple of the φ_i, None for the identity."""

    __slots__ = ("nvars", "src_nvars", "phi", "rank_in", "rank_out", "terms")

    def __init__(self, nvars, rank_in, rank_out, terms=None, phi=None):
        src = nvars
        if phi is not None:
            phi = tuple(phi)
            if not phi or len(phi) != nvars:
                raise ValueError("the map needs one component per target variable, "
                                 "and at least one")
            src = phi[0].nvars
            if any(c.nvars != src for c in phi):
                raise ValueError("map components live in different rings")
            if src == nvars and phi == tuple(Poly.variable(src, i) for i in range(1, src + 1)):
                phi = None   # the identity, written out
        self.nvars = nvars
        self.src_nvars = src
        self.phi = phi
        self.rank_in = rank_in
        self.rank_out = rank_out
        out = {}
        for alpha, mat in (terms or {}).items():
            alpha = MultiDegree(alpha)
            if len(alpha) != nvars:
                raise ValueError("derivative multidegree needs %d slots" % nvars)
            if len(mat) != rank_out or any(len(row) != rank_in for row in mat):
                raise ValueError("coefficient matrix must be %d x %d" % (rank_out, rank_in))
            mat = [list(row) for row in mat]
            for row in mat:
                for p in row:
                    if p.nvars != src:
                        raise ValueError("coefficient is not on the source ring")
            if any(not p.is_zero() for row in mat for p in row):
                out[alpha] = mat
        self.terms = out

    @classmethod
    def zero(cls, nvars, rank_in, rank_out):
        return cls(nvars, rank_in, rank_out, {})

    @classmethod
    def identity(cls, nvars, rank):
        return cls.multiplication(Poly.constant(nvars, 1), rank)

    @classmethod
    def multiplication(cls, f, rank=1):
        return cls(f.nvars, rank, rank, {MultiDegree((0,) * f.nvars): _diagonal(f, rank)})

    @classmethod
    def pullback(cls, phi, rank=1):
        """s ↦ s ∘ φ, the order-0 operator along φ."""
        return cls(len(phi), rank, rank, {MultiDegree((0,) * len(phi)):
                                          _diagonal(Poly.constant(phi[0].nvars, 1), rank)},
                   phi=phi)

    @classmethod
    def coordinate_partial(cls, nvars, i, rank=1):
        alpha = MultiDegree(1 if t == i - 1 else 0 for t in range(nvars))
        return cls(nvars, rank, rank, {alpha: _diagonal(Poly.constant(nvars, 1), rank)})

    @property
    def order(self):
        """Structural order max |α|; -1 for the zero operator."""
        return max((sum(a) for a in self.terms), default=-1)

    def is_zero(self):
        return not self.terms

    def _shape(self):
        return self.nvars, self.phi, self.rank_in, self.rank_out

    def _like(self, terms):
        return PolyDiffOp(self.nvars, self.rank_in, self.rank_out, terms, self.phi)

    def _pulled(self, f):
        """f ∘ φ: a target-ring polynomial on the source ring."""
        return f if self.phi is None else f.compose(self.phi)

    def __eq__(self, other):
        if not isinstance(other, PolyDiffOp):
            return NotImplemented
        return self._shape() == other._shape() and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if self._shape() != other._shape():
            raise ValueError("operator shapes or maps differ")
        terms = {a: [row[:] for row in m] for a, m in self.terms.items()}
        for a, m in other.terms.items():
            if a in terms:
                terms[a] = _mat_add(terms[a], m)
            else:
                terms[a] = m
        return self._like(terms)

    def scale(self, c):
        return self._like({a: [[p.scale(c) for p in row] for row in m]
                           for a, m in self.terms.items()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def apply(self, s):
        if s.rank != self.rank_in or s.nvars != self.nvars:
            raise ValueError("section has the wrong shape")
        out = PolySection.zero(self.src_nvars, self.rank_out)
        for alpha, mat in self.terms.items():
            ds = [self._pulled(p) for p in s.partial_multi(alpha).polys]
            rows = []
            for i in range(self.rank_out):
                acc = Poly.zero(self.src_nvars)
                for j in range(self.rank_in):
                    acc = acc + mat[i][j] * ds[j]
                rows.append(acc)
            out = out + PolySection(rows)
        return out

    def compose_multiplication(self, f):
        """D ∘ (f·): generalized Leibniz on each ∂^α, each ∂^γ f pulled back
        along φ."""
        terms = {}
        for alpha, mat in self.terms.items():
            for gamma in iter_leq(alpha):
                b = multi_binom(alpha, gamma)
                df = f.partial_multi(MultiDegree(a - g for a, g in zip(alpha, gamma)))
                if df.is_zero():
                    continue
                add = _mat_scale_poly(self._pulled(df).scale(b), mat)
                if gamma in terms:
                    terms[gamma] = _mat_add(terms[gamma], add)
                else:
                    terms[gamma] = add
        return self._like(terms)

    def multiplication_compose(self, f):
        """(f ∘ φ ·) ∘ D."""
        f = self._pulled(f)
        return self._like({a: _mat_scale_poly(f, m) for a, m in self.terms.items()})

    def to_json(self):
        if self.phi is not None:
            raise ValueError("only operators along the identity have a JSON form")
        rows = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a)):
            rows.append({"alpha": list(alpha),
                         "matrix": [[p.to_json() for p in row] for row in self.terms[alpha]]})
        return rows

    @classmethod
    def from_json(cls, nvars, rank_in, rank_out, data):
        def read(alpha, matrix):
            return decode.exponents(alpha, "alpha", nvars), [
                [Poly.from_json(nvars, p) for p in decode.items(mrow, "matrix row", rank_in)]
                for mrow in decode.items(matrix, "matrix", rank_out)]
        return cls(nvars, rank_in, rank_out,
                   decode.terms(data, "operator", read, "alpha", "matrix"))


def iter_leq(alpha):
    """All multidegrees γ ≤ α slotwise."""
    ranges = [range(a + 1) for a in alpha]
    for tup in product(*ranges):
        yield MultiDegree(tup)


def commutator(D, f):
    """[D, f·] = D∘(f·) − (f∘φ·)∘D, order drops by one."""
    if f.nvars != D.nvars:
        raise ValueError("function in the wrong ring")
    return D.compose_multiplication(f) - D.multiplication_compose(f)


def iterated_commutator(D, fs):
    """Closed form Σ_{A⊆K} (−1)^{|A|} (f_A∘φ) · D ∘ (f_{K∖A}·)."""
    out = D._like({})
    k = len(fs)
    for bits in product((0, 1), repeat=k):
        fa = Poly.constant(D.nvars, 1)
        frest = Poly.constant(D.nvars, 1)
        for f, b in zip(fs, bits):
            if b:
                fa = fa * f
            else:
                frest = frest * f
        piece = D.compose_multiplication(frest).multiplication_compose(fa)
        out = out + (piece.scale(-1) if sum(bits) % 2 else piece)
    return out


def nested_commutator(D, fs):
    for f in fs:
        D = commutator(D, f)
    return D


def detect_order(D, max_probe):
    """Smallest n with all (n+1)-fold commutators against coordinate monomials
    of total degree ≤ max_probe vanishing; None if no n ≤ max_probe works."""
    probes = [Poly.monomial(D.nvars, e)
              for d in range(1, max_probe + 1)
              for e in iter_multidegrees(D.nvars, d)]
    for n in range(max_probe + 1):
        if all(nested_commutator(D, fs).is_zero()
               for fs in combinations_with_replacement(probes, n + 1)):
            return n
    return None


def principal_symbol(D, fs):
    """The |fs|-fold commutator of an order-|fs| operator: a multiplication
    operator, returned as its coefficient matrix."""
    if len(fs) != D.order:
        raise ValueError("need exactly %d functions" % D.order)
    sym = iterated_commutator(D, fs)
    zero_alpha = MultiDegree((0,) * D.nvars)
    for alpha in sym.terms:
        if alpha != zero_alpha:
            raise RuntimeError("internal invariant violated: symbol has positive order")
    if zero_alpha in sym.terms:
        return sym.terms[zero_alpha]
    z = Poly.zero(D.src_nvars)
    return [[z] * D.rank_in for _ in range(D.rank_out)]


class JetClass:
    """k-jet of a section at a rational point, stored as its Taylor
    coefficients ∂^β s(p)/β! for |β| ≤ k: graded-lex β-major, rank inner."""

    __slots__ = ("point", "order", "coeffs")

    def __init__(self, point, order, coeffs):
        self.point = tuple(Fraction(x) for x in point)
        self.order = order
        self.coeffs = tuple(coeffs)

    def __eq__(self, other):
        if not isinstance(other, JetClass):
            return NotImplemented
        return (self.point, self.order, self.coeffs) == \
            (other.point, other.order, other.coeffs)

    __hash__ = None

    def coefficients(self):
        return list(self.coeffs)

    def __repr__(self):
        return "jet^%d at %s: %r" % (self.order, self.point, self.coeffs)


def jet_multidegrees(nvars, k):
    """Graded-lex basis of Sym^{≤k}: all |β| ≤ k."""
    return [b for d in range(k + 1) for b in sorted(iter_multidegrees(nvars, d))]


def jet(s, k, p, basis=None):
    """The k-jet of s at p in one pass over the terms of s: the coefficient
    of y^β in s(p + y) is Σ_e c_e Π_i C(e_i, β_i) p_i^(e_i − β_i), summed on
    ints as in Poly.evaluate, a summand scaled by b^(top − |e| + |β|), and
    one Fraction is built per jet coefficient.  basis, when given, is
    jet_multidegrees(s.nvars, k), built once by a caller that takes several
    jets in the same variables and order."""
    if len(p) != s.nvars:
        raise ValueError("point needs %d coordinates" % s.nvars)
    p = [Fraction(x) for x in p]
    if basis is None:
        basis = jet_multidegrees(s.nvars, k)
    pos = {beta: i for i, beta in enumerate(basis)}
    r = s.rank
    b, xs = cleared(p)
    terms = [(j, e) for j, poly in enumerate(s.polys) for e in poly.terms]
    d, nums = cleared([c for poly in s.polys for c in poly.terms.values()])
    top = max((sum(e) for _, e in terms), default=0)
    acc = [0] * (len(pos) * r)
    for (j, e), n in zip(terms, nums):
        for beta in iter_leq(e):
            nb = sum(beta)
            if nb <= k:
                v = n * multi_binom(e, beta) * b ** (top - sum(e) + nb)
                for x, a, c in zip(xs, e, beta):
                    v *= x ** (a - c)
                acc[pos[beta] * r + j] += v
    den = d * b ** top
    return JetClass(p, k, [Fraction(v, den) for v in acc])


def jet_operator(nvars, rank, k):
    """The k-jet prolongation s ↦ (∂^β s / β!)_{|β| ≤ k} as a differential
    operator of order k into the stacked coefficient bundle (graded-lex
    layout, matching JetClass.coefficients at each base point)."""
    basis = jet_multidegrees(nvars, k)
    zero = Poly.zero(nvars)
    terms = {}
    for pos, beta in enumerate(basis):
        coeff = Poly.constant(nvars, Fraction(1, prod(map(factorial, beta))))
        mat = [[zero] * rank for _ in range(len(basis) * rank)]
        for j in range(rank):
            mat[pos * rank + j][j] = coeff
        terms[beta] = mat
    return PolyDiffOp(nvars, rank, len(basis) * rank, terms)


def factor_through_jet(D, k, p, basis=None):
    """The matrix through which D factors at p: D(s)(p) = D̂_p · coeffs(jet^k_p s).
    Columns follow the graded-lex jet coefficient layout, rank-in entries per
    multidegree.  Since ∂^α (x − p)^β at p is β!·δ_αβ, column (β, j) is
    β!·P_β(p)[:, j], and zero when β is not a term of D.  basis, when given,
    is jet_multidegrees(D.nvars, k), as for jet.  Along φ, p is a point of
    the source and the matrix acts on the jet at φ(p): D(s)(p) =
    D̂_p · coeffs(jet^k_{φ(p)} s)."""
    if D.order > k:
        raise ValueError("operator order %d exceeds jet order %d" % (D.order, k))
    if basis is None:
        basis = jet_multidegrees(D.nvars, k)
    rows = [[] for _ in range(D.rank_out)]
    for beta in basis:
        mat = D.terms.get(beta)
        if mat is None:
            for row in rows:
                row.extend([Fraction(0)] * D.rank_in)
            continue
        fact = prod(map(factorial, beta))
        for row, polys in zip(rows, mat):
            row.extend(fact * q.evaluate(p) for q in polys)
    return rows


def covariant_derivative(s, i, A):
    """∇_{∂_i} s = ∂_i s + A_i s on the trivial bundle."""
    mat = A[i - 1]
    rows = []
    for a in range(s.rank):
        acc = s.polys[a].partial(i)
        for b in range(s.rank):
            acc = acc + mat[a][b] * s.polys[b]
        rows.append(acc)
    return PolySection(rows)


def symmetrized_covariant_jet(s, l, A):
    """J^l s on coordinate fields: the symmetrization (1/l!) Σ_σ ∇_{i_σ(1)} ⋯
    ∇_{i_σ(l)} s, as a map from l-tuples of coordinate indices.  The base
    connection is the flat coordinate one, so iterated derivatives are plain
    compositions."""
    m = s.nvars
    out = {}
    for tup in product(range(1, m + 1), repeat=l):
        acc = PolySection.zero(m, s.rank)
        for sigma in permutations(range(l)):
            cur = s
            for slot in reversed(sigma):
                cur = covariant_derivative(cur, tup[slot], A)
            acc = acc + cur
        out[tup] = acc.scale(Fraction(1, factorial(l)))
    return out
