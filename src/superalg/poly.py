"""Exact polynomials over the rationals in a fixed number of variables."""

from fractions import Fraction
from math import comb
from operator import add

from .lincomb import LinComb, add_term
from .scalars import MultiDegree, format_scalar, parse_scalar

_new = tuple.__new__


class Poly(LinComb):
    """Finite support map from exponent vectors to rational coefficients."""

    __slots__ = ("nvars",)
    _DIMS = ("nvars",)

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        out = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            exps = MultiDegree(exps)
            if len(exps) != nvars:
                raise ValueError("exponent vector needs %d slots" % nvars)
            out[exps] = c
        self.terms = out

    @classmethod
    def constant(cls, nvars, c):
        c = Fraction(c)
        return cls._raw(nvars, {MultiDegree((0,) * nvars): c} if c else {})

    @classmethod
    def variable(cls, nvars, i):
        if not 1 <= i <= nvars:
            raise ValueError("variable index %d out of range" % i)
        exps = MultiDegree(1 if t == i - 1 else 0 for t in range(nvars))
        return cls._raw(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        return cls(nvars, {MultiDegree(exps): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                add_term(terms, _new(MultiDegree, map(add, ka, kb)), va * vb)
        return Poly._raw(self.nvars, terms)

    def __pow__(self, n):
        out = Poly.constant(self.nvars, 1)
        for _ in range(n):
            out = out * self
        return out

    def partial(self, i):
        """d/dx_i."""
        terms = {}
        for exps, c in self.terms.items():
            e = exps[i - 1]
            if e:
                down = MultiDegree(x - 1 if t == i - 1 else x for t, x in enumerate(exps))
                terms[down] = terms.get(down, 0) + e * c
        return Poly._raw(self.nvars, terms)

    def partial_multi(self, alpha):
        out = self
        for i, a in enumerate(alpha, start=1):
            for _ in range(a):
                out = out.partial(i)
        return out

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError("point needs %d coordinates" % self.nvars)
        point = [Fraction(x) for x in point]
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                v *= x ** e
            total += v
        return total

    def compose(self, args):
        """Substitute args[i] for variable i+1; args live in a common ring."""
        if len(args) != self.nvars:
            raise ValueError("need %d substitution polynomials" % self.nvars)
        nv = args[0].nvars if args else 0
        out = Poly.zero(nv)
        for exps, c in self.terms.items():
            term = Poly.constant(nv, c)
            for arg, e in zip(args, exps):
                if e:
                    term = term * arg ** e
            out = out + term
        return out

    def total_degree(self):
        """-1 on the zero polynomial."""
        return max((sum(k) for k in self.terms), default=-1)

    def truncate(self, k):
        """Drop monomials of total degree above k."""
        return Poly._raw(self.nvars, {e: c for e, c in self.terms.items() if sum(e) <= k})

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return [{"exps": list(e), "coeff": format_scalar(c)} for e, c in items]

    @classmethod
    def from_json(cls, nvars, data):
        if not isinstance(data, list):
            raise ValueError("expected a list of terms")
        terms = {}
        for row in data:
            if not isinstance(row, dict) or not {"exps", "coeff"} <= set(row):
                raise ValueError("each term needs exps and coeff")
            exps = MultiDegree(row["exps"])
            if exps in terms:
                raise ValueError("duplicate exponent vector %s" % (exps,))
            terms[exps] = parse_scalar(row["coeff"])
        return cls(nvars, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            mono = "*".join("x%d^%d" % (i, e) for i, e in enumerate(exps, 1) if e)
            bits.append(str(c) if not mono else "%s*%s" % (c, mono))
        return " + ".join(bits)


def multi_binom(alpha, beta):
    """Product of per-slot binomial coefficients; 0 unless beta <= alpha."""
    out = 1
    for a, b in zip(alpha, beta):
        if b > a:
            return 0
        out *= comb(a, b)
    return out
