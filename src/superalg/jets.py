"""Differential operators with polynomial coefficients on trivial bundles,
iterated commutators, principal symbols, jets, and the factorization of an
order-k operator through the k-jet at a point."""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from .poly import Poly, multi_binom
from .scalars import MultiDegree, iter_multidegrees


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
        return cls([Poly.from_json(nvars, p) for p in data])

    def __repr__(self):
        return "(" + ", ".join(repr(p) for p in self.polys) + ")"


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_scale_poly(f, a):
    return [[f * x for x in row] for row in a]


class PolyDiffOp:
    """Σ_α P_α(x) ∂^α between trivial bundles over the same base."""

    __slots__ = ("nvars", "rank_in", "rank_out", "terms")

    def __init__(self, nvars, rank_in, rank_out, terms=None):
        self.nvars = nvars
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
                    if p.nvars != nvars:
                        raise ValueError("coefficient in the wrong ring")
            if any(not p.is_zero() for row in mat for p in row):
                out[alpha] = mat
        self.terms = out

    @classmethod
    def zero(cls, nvars, rank_in, rank_out):
        return cls(nvars, rank_in, rank_out, {})

    @classmethod
    def identity(cls, nvars, rank):
        one = Poly.constant(nvars, 1)
        zero = Poly.zero(nvars)
        mat = [[one if i == j else zero for j in range(rank)] for i in range(rank)]
        return cls(nvars, rank, rank, {MultiDegree((0,) * nvars): mat})

    @classmethod
    def multiplication(cls, f, rank=1):
        zero = Poly.zero(f.nvars)
        mat = [[f if i == j else zero for j in range(rank)] for i in range(rank)]
        return cls(f.nvars, rank, rank, {MultiDegree((0,) * f.nvars): mat})

    @classmethod
    def coordinate_partial(cls, nvars, i, rank=1):
        one = Poly.constant(nvars, 1)
        zero = Poly.zero(nvars)
        mat = [[one if a == b else zero for b in range(rank)] for a in range(rank)]
        alpha = MultiDegree(1 if t == i - 1 else 0 for t in range(nvars))
        return cls(nvars, rank, rank, {alpha: mat})

    @property
    def order(self):
        """Structural order max |α|; -1 for the zero operator."""
        return max((sum(a) for a in self.terms), default=-1)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PolyDiffOp):
            return NotImplemented
        return (self.nvars, self.rank_in, self.rank_out) == \
            (other.nvars, other.rank_in, other.rank_out) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if (self.nvars, self.rank_in, self.rank_out) != \
                (other.nvars, other.rank_in, other.rank_out):
            raise ValueError("operator shapes differ")
        terms = {a: [row[:] for row in m] for a, m in self.terms.items()}
        zero = Poly.zero(self.nvars)
        for a, m in other.terms.items():
            if a in terms:
                terms[a] = _mat_add(terms[a], m)
            else:
                terms[a] = m
        return PolyDiffOp(self.nvars, self.rank_in, self.rank_out, terms)

    def scale(self, c):
        return PolyDiffOp(self.nvars, self.rank_in, self.rank_out,
                          {a: [[p.scale(c) for p in row] for row in m]
                           for a, m in self.terms.items()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def apply(self, s):
        if s.rank != self.rank_in or s.nvars != self.nvars:
            raise ValueError("section has the wrong shape")
        out = PolySection.zero(self.nvars, self.rank_out)
        for alpha, mat in self.terms.items():
            ds = s.partial_multi(alpha)
            rows = []
            for i in range(self.rank_out):
                acc = Poly.zero(self.nvars)
                for j in range(self.rank_in):
                    acc = acc + mat[i][j] * ds.polys[j]
                rows.append(acc)
            out = out + PolySection(rows)
        return out

    def compose_multiplication(self, f):
        """D ∘ (f·): generalized Leibniz on each ∂^α."""
        terms = {}
        for alpha, mat in self.terms.items():
            for gamma in iter_leq(alpha):
                b = multi_binom(alpha, gamma)
                df = f.partial_multi(MultiDegree(a - g for a, g in zip(alpha, gamma)))
                if df.is_zero():
                    continue
                add = _mat_scale_poly(df.scale(b), mat)
                if gamma in terms:
                    terms[gamma] = _mat_add(terms[gamma], add)
                else:
                    terms[gamma] = add
        return PolyDiffOp(self.nvars, self.rank_in, self.rank_out, terms)

    def multiplication_compose(self, f):
        """(f·) ∘ D."""
        return PolyDiffOp(self.nvars, self.rank_in, self.rank_out,
                          {a: _mat_scale_poly(f, m) for a, m in self.terms.items()})

    def to_json(self):
        rows = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a)):
            rows.append({"alpha": list(alpha),
                         "matrix": [[p.to_json() for p in row] for row in self.terms[alpha]]})
        return rows

    @classmethod
    def from_json(cls, nvars, rank_in, rank_out, data):
        if not isinstance(data, list):
            raise ValueError("expected a list of operator terms")
        terms = {}
        for row in data:
            if not isinstance(row, dict) or not {"alpha", "matrix"} <= set(row):
                raise ValueError("each term needs alpha and matrix")
            alpha = MultiDegree(row["alpha"])
            if alpha in terms:
                raise ValueError("duplicate derivative multidegree %s" % (alpha,))
            terms[alpha] = [[Poly.from_json(nvars, p) for p in mrow]
                            for mrow in row["matrix"]]
        return cls(nvars, rank_in, rank_out, terms)


def iter_leq(alpha):
    """All multidegrees γ ≤ α slotwise."""
    ranges = [range(a + 1) for a in alpha]
    for tup in product(*ranges):
        yield MultiDegree(tup)


def commutator(D, f):
    """[D, f·] = D∘(f·) − (f·)∘D, order drops by one."""
    if f.nvars != D.nvars:
        raise ValueError("function in the wrong ring")
    return D.compose_multiplication(f) - D.multiplication_compose(f)


def iterated_commutator(D, fs):
    """Closed form Σ_{A⊆K} (−1)^{|A|} f_A · D ∘ (f_{K∖A}·)."""
    out = PolyDiffOp.zero(D.nvars, D.rank_in, D.rank_out)
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
    z = Poly.zero(D.nvars)
    return [[z] * D.rank_in for _ in range(D.rank_out)]


class JetClass:
    """k-jet of a section at a rational point, stored by the canonical
    truncated Taylor representative (total degree ≤ k in x − p)."""

    __slots__ = ("point", "order", "rep")

    def __init__(self, point, order, rep):
        self.point = tuple(Fraction(x) for x in point)
        self.order = order
        self.rep = rep

    def __eq__(self, other):
        if not isinstance(other, JetClass):
            return NotImplemented
        return (self.point, self.order, self.rep) == (other.point, other.order, other.rep)

    __hash__ = None

    def coefficients(self):
        """Taylor coefficients stacked over the graded-lex multidegree basis."""
        out = []
        for beta in jet_multidegrees(len(self.point), self.order):
            fact = 1
            for b in beta:
                for t in range(1, b + 1):
                    fact *= t
            for p in self.rep.polys:
                out.append(p.partial_multi(beta).evaluate(self.point) / fact)
        return out

    def __repr__(self):
        return "jet^%d at %s: %r" % (self.order, self.point, self.rep)


def jet_multidegrees(nvars, k):
    """Graded-lex basis of Sym^{≤k}: all |β| ≤ k."""
    return [MultiDegree(b) for d in range(k + 1)
            for b in sorted(iter_multidegrees(nvars, d))]


def jet(s, k, p):
    """Taylor truncation of s at p to total degree k."""
    m = s.nvars
    p = [Fraction(x) for x in p]
    shifted = [Poly.variable(m, i + 1) + Poly.constant(m, c) for i, c in enumerate(p)]
    reps = []
    for poly in s.polys:
        at_p = poly.compose(shifted)          # now centered: variables are x - p
        cut = at_p.truncate(k)
        back = [Poly.variable(m, i + 1) - Poly.constant(m, c) for i, c in enumerate(p)]
        reps.append(cut.compose(back))
    return JetClass(p, k, PolySection(reps))


def jet_operator(nvars, rank, k):
    """The k-jet prolongation s ↦ (∂^β s / β!)_{|β| ≤ k} as a differential
    operator of order k into the stacked coefficient bundle (graded-lex
    layout, matching JetClass.coefficients at each base point)."""
    basis = jet_multidegrees(nvars, k)
    zero = Poly.zero(nvars)
    terms = {}
    for pos, beta in enumerate(basis):
        fact = 1
        for b in beta:
            for t in range(1, b + 1):
                fact *= t
        coeff = Poly.constant(nvars, Fraction(1, fact))
        mat = [[zero] * rank for _ in range(len(basis) * rank)]
        for j in range(rank):
            mat[pos * rank + j][j] = coeff
        terms[beta] = mat
    return PolyDiffOp(nvars, rank, len(basis) * rank, terms)


def factor_through_jet(D, k, p):
    """The matrix through which D factors at p: D(s)(p) = D̂_p · coeffs(jet^k_p s).
    Columns follow the graded-lex jet coefficient layout, rank-in entries per
    multidegree."""
    if D.order > k:
        raise ValueError("operator order %d exceeds jet order %d" % (D.order, k))
    m = D.nvars
    p = [Fraction(x) for x in p]
    cols = []
    for beta in jet_multidegrees(m, k):
        base = Poly.constant(m, 1)
        for i, b in enumerate(beta):
            var = Poly.variable(m, i + 1) - Poly.constant(m, p[i])
            for _ in range(b):
                base = base * var
        for j in range(D.rank_in):
            s = PolySection([base if t == j else Poly.zero(m)
                             for t in range(D.rank_in)])
            cols.append(D.apply(s).evaluate(p))
    return [[cols[c][r] for c in range(len(cols))] for r in range(D.rank_out)]


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
    fact = 1
    for t in range(1, l + 1):
        fact *= t
    for tup in product(range(1, m + 1), repeat=l):
        acc = PolySection.zero(m, s.rank)
        for sigma in permutations(range(l)):
            cur = s
            for slot in reversed(sigma):
                cur = covariant_derivative(cur, tup[slot], A)
            acc = acc + cur
        out[tup] = acc.scale(Fraction(1, fact))
    return out


class PolyOpAlong:
    """Operator along a polynomial map φ: ℝ^m → ℝ^n, from sections over the
    target to sections over the source: Σ_α P_α(x) · (∂^α s)(φ(x))."""

    __slots__ = ("src_nvars", "dst_nvars", "phi", "rank_in", "rank_out", "terms")

    def __init__(self, phi, rank_in, rank_out, terms=None):
        phi = tuple(phi)
        if not phi:
            raise ValueError("target needs at least one coordinate")
        m = phi[0].nvars
        if any(c.nvars != m for c in phi):
            raise ValueError("map components live in different rings")
        self.src_nvars = m
        self.dst_nvars = len(phi)
        self.phi = phi
        self.rank_in = rank_in
        self.rank_out = rank_out
        out = {}
        for alpha, mat in (terms or {}).items():
            alpha = MultiDegree(alpha)
            if len(alpha) != self.dst_nvars:
                raise ValueError("derivative multidegree indexes target variables")
            if len(mat) != rank_out or any(len(row) != rank_in for row in mat):
                raise ValueError("coefficient matrix must be %d x %d" % (rank_out, rank_in))
            if any(p.nvars != m for row in mat for p in row):
                raise ValueError("coefficients are source-side polynomials")
            if any(not p.is_zero() for row in mat for p in row):
                out[alpha] = [list(row) for row in mat]
        self.terms = out

    @classmethod
    def pullback(cls, phi, rank=1):
        m = phi[0].nvars
        one = Poly.constant(m, 1)
        zero = Poly.zero(m)
        mat = [[one if i == j else zero for j in range(rank)] for i in range(rank)]
        return cls(phi, rank, rank, {MultiDegree((0,) * len(phi)): mat})

    @property
    def order(self):
        return max((sum(a) for a in self.terms), default=-1)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PolyOpAlong):
            return NotImplemented
        return self.src_nvars == other.src_nvars and \
            (self.phi, self.rank_in, self.rank_out) == \
            (other.phi, other.rank_in, other.rank_out) and self.terms == other.terms

    __hash__ = None

    def apply(self, s):
        if s.rank != self.rank_in or s.nvars != self.dst_nvars:
            raise ValueError("section has the wrong shape")
        out = PolySection.zero(self.src_nvars, self.rank_out)
        for alpha, mat in self.terms.items():
            ds = s.partial_multi(alpha)
            pulled = [p.compose(list(self.phi)) for p in ds.polys]
            rows = []
            for i in range(self.rank_out):
                acc = Poly.zero(self.src_nvars)
                for j in range(self.rank_in):
                    acc = acc + mat[i][j] * pulled[j]
                rows.append(acc)
            out = out + PolySection(rows)
        return out


def commutator_along(Phi, f):
    """[Φ, f](η) = Φ(f·η) − (f∘φ)·Φ(η) as a new operator along the same map."""
    if f.nvars != Phi.dst_nvars:
        raise ValueError("function lives on the target")
    terms = {}
    for alpha, mat in Phi.terms.items():
        for gamma in iter_leq(alpha):
            if gamma == alpha:
                continue  # cancels against (f∘φ)·Φ
            b = multi_binom(alpha, gamma)
            df = f.partial_multi(MultiDegree(a - g for a, g in zip(alpha, gamma)))
            if df.is_zero():
                continue
            pulled = df.compose(list(Phi.phi)).scale(b)
            add = _mat_scale_poly(pulled, mat)
            if gamma in terms:
                terms[gamma] = _mat_add(terms[gamma], add)
            else:
                terms[gamma] = add
    return PolyOpAlong(Phi.phi, Phi.rank_in, Phi.rank_out, terms)
