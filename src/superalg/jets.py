"""Differential operators with polynomial coefficients on trivial bundles,
iterated commutators, principal symbols, jets, and the factorization of an
order-k operator through the k-jet at a point.

An operator may act along a polynomial map φ: ℝ^m → ℝ^n, taking sections
over the target to sections over the source, Σ_α P_α(x) · (∂^α s)(φ(x)):
the form of a supersmooth map in prop:supermaps-are-diffops.  Commutators
multiply by f on the target and by f ∘ φ on the source, so every operation
here holds along a map as it does along the identity.

Sections and operators are LinCombs with sparse Poly-valued terms: a
section keys each nonzero component by its index, an operator each nonzero
matrix entry P_α[i][j] by (α, i, j).  So +, −, scale and == are LinComb's,
and operands of another rank, ring or map raise ValueError under == as
under +.  Constructors and JSON keep the dense {α: rank_out × rank_in
matrix} form.

A k-jet at p is its vector of Taylor coefficients ∂^β s(p)/β! for |β| ≤ k,
graded-lex β-major with the rank inner; jet_operator realizes the same
layout as a differential operator, and factor_through_jet reads D̂_p with
D(s)(p) = D̂_p · jet^k_p s straight off D's coefficients."""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod

from . import decode
from .lincomb import LinComb, add_term
from .poly import Poly, multi_binom
from .scalars import MultiDegree, cleared, iter_multidegrees


class PolySection(LinComb):
    """Section of the trivial rank-r bundle: terms maps a component index
    in 0..rank-1 to its nonzero Poly, and polys lists all rank components,
    zeros included."""

    __slots__ = ("nvars", "rank")
    _DIMS = ("nvars", "rank")

    def __init__(self, polys):
        polys = tuple(polys)
        if not polys:
            raise ValueError("rank must be positive")
        nv = polys[0].nvars
        if any(p.nvars != nv for p in polys):
            raise ValueError("components live in different rings")
        self.nvars = nv
        self.rank = len(polys)
        self.terms = {j: p for j, p in enumerate(polys) if p}

    @property
    def polys(self):
        zero = Poly.zero(self.nvars)
        return tuple(self.terms.get(j, zero) for j in range(self.rank))

    def evaluate(self, point):
        return [p.evaluate(point) for p in self.polys]

    def to_json(self):
        return [p.to_json() for p in self.polys]

    @classmethod
    def from_json(cls, nvars, data):
        return cls([Poly.from_json(nvars, p) for p in decode.items(data, "section")])

    def __repr__(self):
        return "(" + ", ".join(repr(p) for p in self.polys) + ")"


class PolyDiffOp(LinComb):
    """Σ_α P_α(x) ∂^α between trivial bundles over the same base, or, along a
    polynomial map φ = (φ_1, …, φ_n): ℝ^m → ℝ^n, Σ_α P_α(x) · (∂^α s)(φ(x))
    from sections over the target to sections over the source.  α indexes
    the nvars target variables, and each P_α is a rank_out × rank_in matrix
    of polynomials on φ's source ring of src_nvars variables; phi is the
    tuple of the φ_i, None for the identity.

    terms maps (α, i, j) to the nonzero entry P_α[i][j], and matrix(α) is
    the dense P_α.  Operators of another target or source ring, map or rank
    are refused by ==, + and − alike."""

    __slots__ = ("nvars", "src_nvars", "phi", "rank_in", "rank_out")
    # src_nvars before phi: two maps are compared only once their
    # polynomials are known to live in one ring
    _DIMS = ("nvars", "src_nvars", "phi", "rank_in", "rank_out")

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
            for i, row in enumerate(mat):
                for j, p in enumerate(row):
                    if p.nvars != src:
                        raise ValueError("coefficient is not on the source ring")
                    if p:
                        out[alpha, i, j] = p
        self.terms = out

    @classmethod
    def zero(cls, nvars, rank_in, rank_out):
        return cls(nvars, rank_in, rank_out, {})

    @classmethod
    def diagonal(cls, f, alpha, rank=1, phi=None):
        """f·∂^α on each of the rank components, along phi: P_α = f·I and no
        other term.  f lives on the source ring."""
        alpha = MultiDegree(alpha)
        return cls(len(alpha), rank, rank, phi=phi)._like(
            {(alpha, i, i): f for i in range(rank)} if f else {})

    @classmethod
    def identity(cls, nvars, rank):
        return cls.multiplication(Poly.constant(nvars, 1), rank)

    @classmethod
    def multiplication(cls, f, rank=1):
        return cls.diagonal(f, (0,) * f.nvars, rank)

    @classmethod
    def pullback(cls, phi, rank=1):
        """s ↦ s ∘ φ, the order-0 operator along φ."""
        return cls.diagonal(Poly.constant(phi[0].nvars, 1), (0,) * len(phi), rank, phi)

    @classmethod
    def coordinate_partial(cls, nvars, i, rank=1):
        alpha = (1 if t == i - 1 else 0 for t in range(nvars))
        return cls.diagonal(Poly.constant(nvars, 1), alpha, rank)

    @property
    def order(self):
        """Structural order max |α|; -1 for the zero operator."""
        return max((sum(a) for a, _, _ in self.terms), default=-1)

    def matrix(self, alpha):
        """The dense rank_out × rank_in coefficient matrix P_α."""
        zero = Poly.zero(self.src_nvars)
        get = self.terms.get
        return [[get((alpha, i, j), zero) for j in range(self.rank_in)]
                for i in range(self.rank_out)]

    def _pulled(self, f):
        """f ∘ φ: a target-ring polynomial on the source ring."""
        return f if self.phi is None else f.compose(self.phi)

    def apply(self, s):
        """Entry (α, i, j) adds P_α[i][j] · (∂^α s_j ∘ φ) to component i;
        each pulled-back partial is built once."""
        if s.rank != self.rank_in or s.nvars != self.nvars:
            raise ValueError("section has the wrong shape")
        zero = Poly.zero(self.nvars)
        partials = {}
        out = {}
        for (alpha, i, j), p in self.terms.items():
            ds = partials.get((alpha, j))
            if ds is None:
                ds = partials[alpha, j] = self._pulled(s.terms.get(j, zero).partial_multi(alpha))
            add_term(out, i, p * ds)
        return PolySection._raw(self.src_nvars, self.rank_out, out)

    def _leibniz(self, f, alpha):
        """[(γ, C(α, γ) · ∂^(α−γ) f ∘ φ)] over γ ≤ α, zero factors left out."""
        out = []
        for gamma in iter_leq(alpha):
            df = f.partial_multi(MultiDegree(a - g for a, g in zip(alpha, gamma)))
            if df:
                out.append((gamma, self._pulled(df).scale(multi_binom(alpha, gamma))))
        return out

    def compose_multiplication(self, f):
        """D ∘ (f·): generalized Leibniz on each ∂^α, each ∂^γ f pulled back
        along φ once per α."""
        factors = {}
        terms = {}
        for (alpha, i, j), p in self.terms.items():
            if alpha not in factors:
                factors[alpha] = self._leibniz(f, alpha)
            for gamma, c in factors[alpha]:
                add_term(terms, (gamma, i, j), c * p)
        return self._like(terms)

    def multiplication_compose(self, f):
        """(f ∘ φ ·) ∘ D."""
        f = self._pulled(f)
        return self._like({k: f * p for k, p in self.terms.items()} if f else {})

    def to_json(self):
        if self.phi is not None:
            raise ValueError("only operators along the identity have a JSON form")
        alphas = sorted({a for a, _, _ in self.terms}, key=lambda a: (sum(a), a))
        return [{"alpha": list(a), "matrix": [[p.to_json() for p in row] for row in self.matrix(a)]}
                for a in alphas]

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
    if any(alpha != zero_alpha for alpha, _, _ in sym.terms):
        raise RuntimeError("internal invariant violated: symbol has positive order")
    return sym.matrix(zero_alpha)


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
    terms = [(j, e) for j, poly in s.terms.items() for e in poly.terms]
    d, nums = cleared([c for poly in s.terms.values() for c in poly.terms.values()])
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
    terms = {}
    for pos, beta in enumerate(basis):
        coeff = Poly.constant(nvars, Fraction(1, prod(map(factorial, beta))))
        for j in range(rank):
            terms[beta, pos * rank + j, j] = coeff
    return PolyDiffOp.zero(nvars, rank, len(basis) * rank)._like(terms)


def factor_through_jet(D, k, p, basis=None):
    """The matrix through which D factors at p: D(s)(p) = D̂_p · coeffs(jet^k_p s).
    Columns follow the graded-lex jet coefficient layout, rank-in entries per
    multidegree.  Since ∂^α (x − p)^β at p is β!·δ_αβ, column (β, j) is
    β!·P_β(p)[:, j], and zero when β is not a term of D.  basis, when given,
    is jet_multidegrees(D.nvars, k), as for jet.  Along φ, p is a point of
    the source and the matrix acts on the jet at φ(p): D(s)(p) =
    D̂_p · coeffs(jet^k_{φ(p)} s)."""
    if len(p) != D.src_nvars:
        raise ValueError("point needs %d coordinates" % D.src_nvars)
    if D.order > k:
        raise ValueError("operator order %d exceeds jet order %d" % (D.order, k))
    if basis is None:
        basis = jet_multidegrees(D.nvars, k)
    pos = {beta: t for t, beta in enumerate(basis)}
    rows = [[Fraction(0)] * (len(basis) * D.rank_in) for _ in range(D.rank_out)]
    # p is cleared once, for the value of every entry
    b, xs = cleared([Fraction(x) for x in p])
    for (beta, i, j), q in D.terms.items():
        rows[i][pos[beta] * D.rank_in + j] = prod(map(factorial, beta)) * q._at_cleared(b, xs)
    return rows


def covariant_derivative(s, i, A):
    """∇_{∂_i} s = ∂_i s + A_i s on the trivial bundle."""
    m, r = s.nvars, s.rank
    nabla = PolyDiffOp.coordinate_partial(m, i, r) + PolyDiffOp(m, r, r, {(0,) * m: A[i - 1]})
    return nabla.apply(s)


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
