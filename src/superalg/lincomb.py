"""Sparse linear combinations and the sign rules of exterior monomials.

Every element class of the package is a finite map from monomial keys to
nonzero coefficients, together with the dimensions of the space it lives in.
LinComb holds the plumbing they share; a subclass names its dimension slots
in _DIMS and adds its constructors, products and JSON form.  A key may be
compound: a superderivation keys its terms by (exterior monomial, target
generator), a differential operator by (multi-index, row, column).

Exterior monomials are IndexSet keys, strictly increasing tuples of 1-based
generator indices.  merge_sign and contract are the only routines that
reorder them.

The int cores of Sym ⊗ Λ (sym_ext_ints, supermaps) and of the super de Rham
forms (sderham) key a monomial by one int, laid out by KeyLayout: from the
low bits up, one bitmask per block of exterior generators (bit i - 1 of a
block for its generator i), then fields of w bits for the exponents.  A term
x^e ds_A of Sym(n) ⊗ Λ(q) has blocks (q,) and n fields; the unit packs to 0.
A sum of two keys whose masks are disjoint is the key of the merged masks
and the summed fields, as long as w holds every summed field, and mask_sign
gives the sign of the merge.  So each caller bounds the largest field value
its keys can reach and builds its layout with KeyLayout.fitting, and the
layout clears a rational term map to ints over one denominator on packed
keys (cleared) and turns ints back into Fractions on unpacked keys
(rationals).  sym_ext_ints is the one product loop of Sym ⊗ Λ, and
sym_ext_terms wraps it for rational term maps on (MultiDegree, IndexSet)
keys.
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


class KeyLayout:
    """Where the parts of a monomial sit in its int key.

    From the low bits up: one bitmask per entry of blocks, of that many
    bits (lows[j] selects block j), then nfields fields of w bits (shifts
    holds their offsets, field their all-ones value).  Keys of one layout
    add field by field as long as every field stays in 0..2^w - 1.
    """

    __slots__ = ("blocks", "nfields", "w", "field", "lows", "shifts", "_bits")

    def __init__(self, blocks, nfields, w):
        self.blocks, self.nfields, self.w = blocks, nfields, w
        self.field = (1 << w) - 1
        offsets = [sum(blocks[:j]) for j in range(len(blocks) + 1)]
        self.lows = tuple(((1 << b) - 1) << o for b, o in zip(blocks, offsets))
        self.shifts = tuple(offsets[-1] + i * w for i in range(nfields))
        # per block, (generator index, its bit) in increasing order
        self._bits = tuple(tuple((i, 1 << (o + i - 1)) for i in range(1, b + 1))
                           for b, o in zip(blocks, offsets))

    @classmethod
    def fitting(cls, blocks, nfields, top):
        """The layout whose fields hold every value up to top: w is the bit
        length of top."""
        return cls(blocks, nfields, top.bit_length())

    def pack(self, fields, *sets):
        """The key of the field values and one IndexSet per block."""
        k = 0
        for key, bits in zip(sets, self._bits):
            for a in key:
                k |= bits[a - 1][1]
        for v, s in zip(fields, self.shifts):
            k |= v << s
        return k

    def unpack(self, key):
        """(MultiDegree of the fields, one IndexSet per block): pack undone.
        For blocks (q,), the (MultiDegree, IndexSet) key of a Sym ⊗ Λ term."""
        field = self.field
        return (_new(MultiDegree, [key >> s & field for s in self.shifts]),
                *[_new(IndexSet, [i for i, bit in bits if key & bit]) for bits in self._bits])

    def last_factor(self, key):
        """The packed generator at the right end of the nonzero key: its
        highest mask bit, or with none, the unit of its highest nonzero
        field.  key minus it is the rest of the monomial."""
        base = sum(self.blocks)
        mask = key & ((1 << base) - 1)
        if mask:
            return 1 << (mask.bit_length() - 1)
        return 1 << (base + (key.bit_length() - 1 - base) // self.w * self.w)

    def cleared(self, terms):
        """(d, {key: int}) of a rational term map on unpacked keys: the
        coefficients cleared to ints over one denominator d, in lowest terms
        when they are (see scalars.cleared), each under its packed key."""
        d, ints = cleared(terms.values())
        pack = self.pack
        return d, {pack(*k): v for k, v in zip(terms, ints)}

    def rationals(self, d, ints):
        """{unpacked key: Fraction(v, d)} of the nonzero entries of
        {key: int}: cleared undone."""
        unpack = self.unpack
        return {unpack(k): Fraction(v, d) for k, v in ints.items() if v}


def by_mask(terms, low):
    # {mask: [(key, c), ...]}, the terms grouped by their odd bitmask
    groups = {}
    for k, c in terms.items():
        groups.setdefault(k & low, []).append((k, c))
    return groups


def sym_ext_ints(ta, tb, lay):
    """Product in Sym ⊗ Λ of two term maps on keys packed in lay (blocks
    (q,)) with int coefficients: exponents add and the odd monomials wedge
    with their sign.  The fields must be wide enough for every exponent of
    the product.  No
    zero coefficient is kept.  On the int parts of two cleared pairs
    (da, ta) and (db, tb), the product is the pair (da * db, result).

    Each operand's terms are grouped by odd bitmask, so the overlap test and
    mask_sign run once per pair of masks, and two terms of disjoint masks
    multiply into the key k1 + k2, with the sign folded into the left
    coefficient."""
    low = lay.lows[0]
    out = {}
    get = out.get
    gb = by_mask(tb, low).items()
    for m1, g1 in by_mask(ta, low).items():
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
    lay = KeyLayout.fitting((q,), n, max_degree(ta) + max_degree(tb))
    da, ia = lay.cleared(ta)
    db, ib = lay.cleared(tb)
    return lay.rationals(da * db, sym_ext_ints(ia, ib, lay))


def sym_ext_product(a, b):
    """a * b for elements of one Sym ⊗ Λ algebra."""
    a._check(b)
    return a._like(sym_ext_terms(a.terms, b.terms))
