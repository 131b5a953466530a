"""Sparse linear combinations and the sign rules of exterior monomials.

Every element class of the package is a finite map from monomial keys to
nonzero coefficients, together with the dimensions of the space it lives in.
LinComb holds the plumbing they share; a subclass names its dimension slots
in _DIMS and adds its constructors, products and JSON form.

Exterior monomials are IndexSet keys, strictly increasing tuples of 1-based
generator indices.  merge_sign, contract and replace are the only routines
that reorder them, and sym_ext_terms is the one product loop of Sym ⊗ Λ.
"""

from fractions import Fraction
from operator import add, attrgetter

from .scalars import IndexSet, MultiDegree

_new = tuple.__new__


def merge_sign(a, b):
    """Wedge of two exterior monomials: (a ∧ b as an IndexSet, sign).

    The sign is that of the inversions of the concatenation a + b, counted
    by one linear walk; a shared index kills the product, giving (None, 0).
    Both inputs must be strictly increasing, so the result is built
    without revalidation.
    """
    out = []
    i = j = inv = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            inv += la - i
            j += 1
        else:
            return None, 0
    out.extend(a[i:])
    out.extend(b[j:])
    return _new(IndexSet, out), -1 if inv & 1 else 1


def contract(key, i):
    """Interior product of generator i with an exterior monomial.

    Returns (key without i, (-1)^position of i), or (None, 0) when i is absent.
    """
    if i not in key:
        return None, 0
    t = key.index(i)
    return _new(IndexSet, key[:t] + key[t + 1:]), -1 if t & 1 else 1


def replace(key, i, j):
    """Contract generator i, then wedge generator j on the left.

    The result and product sign of the two steps, or (None, 0) when i is
    absent or j survives in the rest.
    """
    rest, s1 = contract(key, i)
    if rest is None:
        return None, 0
    out, s2 = merge_sign((j,), rest)
    return out, s1 * s2


def add_term(terms, key, c):
    """terms[key] += c, dropping the key when the sum vanishes.

    Coefficients may be anything with + and truth value zero, such as
    Fractions or Polys.
    """
    old = terms.get(key)
    if old is not None:
        c = old + c
    if c:
        terms[key] = c
    elif old is not None:
        del terms[key]


class LinComb:
    """Finite sum of monomials with exact coefficients.

    terms maps monomial keys to nonzero coefficients; the slots named in
    _DIMS fix the ambient space.  Operands of +, - and == must have the
    same type and the same ambient dimensions.
    """

    __slots__ = ("terms",)
    _DIMS = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # reads the ambient dimensions that _check compares
        cls._dims_of = attrgetter(*cls._DIMS)

    @classmethod
    def _raw(cls, *args):
        # internal: the _DIMS values, then terms already canonical
        e = object.__new__(cls)
        for name, value in zip(cls._DIMS, args):
            setattr(e, name, value)
        e.terms = args[-1]
        return e

    @classmethod
    def zero(cls, *dims):
        return cls._raw(*dims, {})

    def _like(self, terms):
        # internal: an element of the same space, terms already canonical
        e = object.__new__(type(self))
        for name in self._DIMS:
            setattr(e, name, getattr(self, name))
        e.terms = terms
        return e

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if type(other) is not type(self) or self._dims_of(other) != self._dims_of(self):
            raise ValueError("operands live in different %s spaces" % type(self).__name__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            add_term(terms, k, v)
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return self._like({})
        return self._like({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)


def sym_ext_terms(ta, tb):
    """Product in Sym ⊗ Λ of two term maps on (MultiDegree, IndexSet) keys:
    exponent vectors add and the exterior monomials wedge with their sign."""
    out = {}
    for (e1, k1), c1 in ta.items():
        for (e2, k2), c2 in tb.items():
            key, sign = merge_sign(k1, k2)
            if key is None:
                continue
            add_term(out, (_new(MultiDegree, map(add, e1, e2)), key),
                     c1 * c2 if sign > 0 else -(c1 * c2))
    return out


def sym_ext_product(a, b):
    """a * b for elements of one Sym ⊗ Λ algebra."""
    a._check(b)
    return a._like(sym_ext_terms(a.terms, b.terms))
