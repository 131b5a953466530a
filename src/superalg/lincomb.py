"""Sparse linear combinations and the sign rules of exterior monomials.

Every element class of the package is a finite map from monomial keys to
nonzero coefficients, together with the dimensions of the space it lives in.
LinComb holds the plumbing they share; a subclass names its dimension slots
in _DIMS and adds its constructors, products and JSON form.

Exterior monomials are IndexSet keys, strictly increasing tuples of 1-based
generator indices.  merge_sign, contract and replace are the only routines
that reorder them.

sym_ext_ints is the one product loop of Sym ⊗ Λ, and it runs on packed int
keys with int coefficients.  A term x^e ds_A of Sym(n) ⊗ Λ(q) packs into one
int: the odd bitmask of A in the low q bits (bit a - 1 for ds_a), and the
exponent e_i in field i of width w above it (pack_key, unpack_key); the unit
packs to 0.  When the
masks of two terms are disjoint, their product key is the plain sum of their
keys, as long as w holds every exponent of the product; mask_sign gives the
sign.  sym_ext_terms wraps the loop for rational term maps on
(MultiDegree, IndexSet) keys.
"""

from fractions import Fraction
from operator import attrgetter

from .scalars import IndexSet, MultiDegree, cleared

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
        # an int stays an int: Fraction * int and Poly * int are exact
        if not isinstance(c, int):
            c = Fraction(c)
        if not c:
            return self._like({})
        if c == 1:
            return self._like(dict(self.terms))
        if c == -1:
            return -self
        return self._like({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)


def cleared_terms(terms):
    """A term map of rationals over one denominator: (d, {key: int}),
    in lowest terms when the coefficients are (see scalars.cleared)."""
    d, ints = cleared(terms.values())
    return d, dict(zip(terms, ints))


def mask_sign(ma, mb):
    """Sign of ds_A ∧ ds_B against ds_(A ∪ B) for disjoint odd bitmasks ma
    and mb: the parity of the pairs (a in A, b in B) with a > b, the
    inversions merge_sign counts."""
    inv = 0
    while mb:
        low = mb & -mb
        # the bits of ma above the lowest bit of mb
        inv += (ma & -(low << 1)).bit_count()
        mb ^= low
    return -1 if inv & 1 else 1


def pack_key(exps, key, q, w):
    """The packed int of x^exps ds_key with q mask bits and fields of w bits."""
    k = 0
    for a in key:
        k |= 1 << (a - 1)
    shift = q
    for e in exps:
        k |= e << shift
        shift += w
    return k


def unpack_key(k, n, q, w):
    """(MultiDegree, IndexSet) of a packed key with n fields of w bits above
    q mask bits; pack_key undone."""
    key = _new(IndexSet, [a for a in range(1, q + 1) if k >> (a - 1) & 1])
    k >>= q
    field = (1 << w) - 1
    return _new(MultiDegree, [k >> (i * w) & field for i in range(n)]), key


def last_factor(key, q, w):
    """The packed generator at the right end of the nonzero monomial key:
    its highest odd generator, or with none, the coordinate of its highest
    nonzero exponent field.  key minus it is the rest of the monomial."""
    mask = key & ((1 << q) - 1)
    if mask:
        return 1 << (mask.bit_length() - 1)
    return 1 << (q + (key.bit_length() - 1 - q) // w * w)


def pack_terms(terms, q, w):
    """A term map on (MultiDegree, IndexSet) keys with packed keys."""
    return {pack_key(e, k, q, w): c for (e, k), c in terms.items()}


def _by_mask(terms, low):
    # {mask: [(key, c), ...]}, the terms grouped by their odd bitmask
    groups = {}
    for k, c in terms.items():
        groups.setdefault(k & low, []).append((k, c))
    return groups


def sym_ext_ints(ta, tb, q):
    """Product in Sym ⊗ Λ(q) of two term maps on packed keys with int
    coefficients: exponents add and the odd monomials wedge with their sign.
    The fields must be wide enough for every exponent of the product.  No
    zero coefficient is kept.  On the int parts of two cleared pairs
    (da, ta) and (db, tb), the product is the pair (da * db, result).

    Each operand's terms are grouped by odd bitmask, so the overlap test and
    mask_sign run once per pair of masks, and two terms of disjoint masks
    multiply into the key k1 + k2, with the sign folded into the left
    coefficient."""
    low = (1 << q) - 1
    out = {}
    get = out.get
    gb = _by_mask(tb, low).items()
    for m1, g1 in _by_mask(ta, low).items():
        for m2, g2 in gb:
            if m1 & m2:
                continue
            negate = mask_sign(m1, m2) < 0
            for k1, c1 in g1:
                if negate:
                    c1 = -c1
                for k2, c2 in g2:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def max_degree(terms):
    """Largest total degree in a term map on (MultiDegree, IndexSet) keys,
    0 when it is empty."""
    return max((sum(e) for e, _ in terms), default=0)


def sym_ext_terms(ta, tb):
    """The Sym ⊗ Λ product of two rational term maps on (MultiDegree,
    IndexSet) keys, fraction-free: each operand is cleared to ints over one
    denominator and packed, with fields as wide as the product's total
    degree, and one Fraction is built per surviving key."""
    if not ta or not tb:
        return {}
    n = len(next(iter(ta))[0])
    q = max((k[-1] for t in (ta, tb) for _, k in t if k), default=0)
    w = (max_degree(ta) + max_degree(tb)).bit_length()
    da, ia = cleared_terms(pack_terms(ta, q, w))
    db, ib = cleared_terms(pack_terms(tb, q, w))
    d = da * db
    return {unpack_key(k, n, q, w): Fraction(v, d) for k, v in sym_ext_ints(ia, ib, q).items()}


def sym_ext_product(a, b):
    """a * b for elements of one Sym ⊗ Λ algebra."""
    a._check(b)
    return a._like(sym_ext_terms(a.terms, b.terms))
