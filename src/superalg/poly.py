"""Exact polynomials over the rationals in a fixed number of variables."""

from fractions import Fraction
from math import comb
from operator import add

from . import decode
from .lincomb import LinComb, add_term
from .scalars import MultiDegree, cleared, format_scalar

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
                # slot i is nonzero, so the lowered vector is still valid
                down = _new(MultiDegree, exps[:i - 1] + (e - 1,) + exps[i:])
                terms[down] = terms.get(down, 0) + e * c
        return Poly._raw(self.nvars, terms)

    def partial_multi(self, alpha):
        out = self
        for i, a in enumerate(alpha, start=1):
            for _ in range(a):
                out = out.partial(i)
        return out

    def evaluate(self, point):
        """Summed on ints: the point is cleared once to (b, ints) and the
        value taken by _at_cleared."""
        if len(point) != self.nvars:
            raise ValueError("point needs %d coordinates" % self.nvars)
        return self._at_cleared(*cleared([Fraction(x) for x in point]))

    def _at_cleared(self, b, xs):
        """The value at the point xs / b, given cleared: the coefficients
        are cleared to (d, ints), term e is scaled by b^(top − |e|), top the
        total degree, and one Fraction is built, the sum over d·b^top."""
        d, nums = cleared(self.terms.values())
        top = max(map(sum, self.terms), default=0)
        total = 0
        for exps, n in zip(self.terms, nums):
            n *= b ** (top - sum(exps))
            for x, e in zip(xs, exps):
                n *= x ** e
            total += n
        return Fraction(total, d * b ** top)

    def compose(self, args):
        """Substitute args[i] for variable i+1; args live in a common ring.

        Each argument's powers are built once per call, by the same repeated
        multiplication as **, and shared by every term that needs them."""
        if len(args) != self.nvars:
            raise ValueError("need %d substitution polynomials" % self.nvars)
        nv = args[0].nvars if args else 0
        powers = [[Poly.constant(nv, 1)] for _ in args]
        out = Poly.zero(nv)
        for exps, c in self.terms.items():
            term = Poly.constant(nv, c)
            for arg, pw, e in zip(args, powers, exps):
                if e:
                    while len(pw) <= e:
                        pw.append(pw[-1] * arg)
                    term = term * pw[e]
            out = out + term
        return out

    def total_degree(self):
        """-1 on the zero polynomial."""
        return max((sum(k) for k in self.terms), default=-1)

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return [{"exps": list(e), "coeff": format_scalar(c)} for e, c in items]

    @classmethod
    def from_json(cls, nvars, data):
        def read(exps, coeff):
            return decode.exponents(exps, "exps", nvars), decode.scalar(coeff, "coeff")
        return cls(nvars, decode.terms(data, "polynomial", read, "exps", "coeff"))

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
