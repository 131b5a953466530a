"""Exterior algebra of a based n-dimensional space over the rationals.

Elements are stored as maps from strictly increasing index tuples to nonzero
rational coefficients.  All signs come from explicit inversion counting on
concatenated index sequences; the graded-commutativity sign (-1)^(pq) is a
consequence, never an input.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import decode
from .lincomb import LinComb, add_term, contract, merge_sign
from .scalars import IndexSet, format_scalar


class NotInvertibleError(ValueError):
    pass


@dataclass(frozen=True)
class ExtSpace:
    dim: int
    names: tuple = ()

    def __post_init__(self):
        if not isinstance(self.dim, int) or not 1 <= self.dim <= 62:
            raise ValueError("dim must be an integer in 1..62, got %r" % (self.dim,))
        if not self.names:
            object.__setattr__(self, "names", tuple("dv%d" % i for i in range(1, self.dim + 1)))
        else:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != self.dim:
                raise ValueError("need %d generator names, got %d" % (self.dim, len(self.names)))

    def basis(self, degree=None):
        """Index sets of the monomial basis, one degree or all of them."""
        degrees = range(self.dim + 1) if degree is None else [degree]
        for k in degrees:
            for c in combinations(range(1, self.dim + 1), k):
                yield IndexSet(c)


def ds_space(q):
    """The space of q odd codirections, generators named ds1, ..., dsq."""
    return ExtSpace(q, tuple("ds%d" % i for i in range(1, q + 1)))


class ExtElem(LinComb):
    __slots__ = ("space",)
    _DIMS = ("space",)

    def __init__(self, space, terms=None):
        self.space = space
        clean = {}
        for k, v in (terms or {}).items():
            v = Fraction(v)
            if not v:
                continue
            k = IndexSet(k)
            if k and k[-1] > space.dim:
                raise ValueError("index %d out of range for dim %d" % (k[-1], space.dim))
            clean[k] = v
        self.terms = clean

    @classmethod
    def unit(cls, space, coeff=1):
        c = Fraction(coeff)
        return cls._raw(space, {IndexSet(()): c} if c else {})

    @classmethod
    def generator(cls, space, i):
        if not 1 <= i <= space.dim:
            raise ValueError("generator index %d out of range" % i)
        return cls._raw(space, {IndexSet((i,)): Fraction(1)})

    @classmethod
    def monomial(cls, space, indices, coeff=1):
        c = Fraction(coeff)
        if not c:
            return cls.zero(space)
        k = IndexSet(indices)
        if k and k[-1] > space.dim:
            raise ValueError("index out of range")
        return cls._raw(space, {k: c})

    def __mul__(self, other):
        if isinstance(other, ExtElem):
            return self.wedge(other)
        return self.scale(other)

    def wedge(self, other):
        self._check(other)
        terms = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k, s = merge_sign(ka, kb)
                if k is not None:
                    add_term(terms, k, va * vb if s > 0 else -(va * vb))
        return ExtElem._raw(self.space, terms)

    def insert(self, v):
        """Interior product v ⌟ self for v given by its coefficients over the
        basis dual to the generators; degree -1 derivation."""
        if len(v) != self.space.dim:
            raise ValueError("vector needs %d coefficients" % self.space.dim)
        v = [Fraction(c) for c in v]
        terms = {}
        for k, coeff in self.terms.items():
            for i in k:
                if v[i - 1]:
                    nk, sign = contract(k, i)
                    add_term(terms, nk, sign * v[i - 1] * coeff)
        return ExtElem._raw(self.space, terms)

    def augmentation(self):
        return Fraction(self.terms.get((), 0))

    def filtration_degree(self):
        # largest k with self in Λ^{≥k}; n+1 for 0 by convention
        if not self.terms:
            return self.space.dim + 1
        return min(len(k) for k in self.terms)

    def degree_part(self, k):
        return ExtElem._raw(self.space, {ks: v for ks, v in self.terms.items() if len(ks) == k})

    def parity_part(self, parity):
        p = decode.integer(parity, "parity", 0, 1)
        return ExtElem._raw(self.space, {ks: v for ks, v in self.terms.items() if len(ks) % 2 == p})

    def invert_unit(self):
        eps = self.augmentation()
        if not eps:
            raise NotInvertibleError("element has zero augmentation, not a unit")
        # self = eps(1 + m) with m nilpotent: inverse by finite geometric series
        m = (self - ExtElem.unit(self.space, eps)).scale(Fraction(1) / eps)
        acc = ExtElem.unit(self.space)
        p = ExtElem.unit(self.space)
        while True:
            p = p.wedge(m).scale(-1)
            if p.is_zero():
                break
            acc = acc + p
        return acc.scale(Fraction(1) / eps)

    def coeff(self, indices):
        return Fraction(self.terms.get(tuple(indices), 0))

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return [{"coeff": format_scalar(v), "ext": list(k)} for k, v in items]

    @classmethod
    def from_json(cls, space, data):
        def read(coeff, ext):
            return decode.index_set(ext, "ext", space.dim), decode.scalar(coeff, "coeff")
        return cls(space, decode.terms(data, "exterior element", read, "coeff", "ext"))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k, v in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            mono = "^".join(self.space.names[i - 1] for i in k) if k else "1"
            bits.append("%s*%s" % (format_scalar(v), mono))
        return " + ".join(bits)


def invert_unit(a):
    return a.invert_unit()
