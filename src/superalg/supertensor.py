"""Free supertensor words, twisted symmetric-group actions, and normal forms.

A supervector space (V0|V1) has even generators (free-commuting in the
supersymmetric quotient, anticommuting in the superexterior one) and odd
generators (the other way around).  The two quotients are realised by
explicit normal-form maps whose correctness is *tested* against invariance
under the twisted actions, never assumed.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import decode
from .lincomb import LinComb, add_term, contract, sym_ext_product, sym_ext_terms
from .scalars import (
    EVEN,
    IndexSet,
    MultiDegree,
    Parity,
    format_scalar,
    inversion_sign,
    iter_multidegrees,
    relative_signature,
    signature,
)


@dataclass(frozen=True)
class SuperSpace:
    even_dim: int
    odd_dim: int
    even_names: tuple = ()
    odd_names: tuple = ()

    def __post_init__(self):
        if self.even_dim < 0 or self.odd_dim < 0:
            raise ValueError("dimensions must be non-negative")
        if not self.even_names:
            object.__setattr__(self, "even_names",
                               tuple("v%d" % i for i in range(1, self.even_dim + 1)))
        if not self.odd_names:
            object.__setattr__(self, "odd_names",
                               tuple("s%d" % i for i in range(1, self.odd_dim + 1)))
        if len(self.even_names) != self.even_dim or len(self.odd_names) != self.odd_dim:
            raise ValueError("name count does not match dimensions")


class TensorWord:
    """coeff * (g_1 ⊗ ... ⊗ g_k), each factor a (parity, index) generator."""

    __slots__ = ("space", "factors", "coeff")

    def __init__(self, space, factors, coeff=1):
        self.space = space
        facs = []
        for p, i in factors:
            p = Parity(p)
            dim = space.odd_dim if p else space.even_dim
            if not 1 <= i <= dim:
                raise ValueError("generator %d out of range for %s block" % (i, p.to_json()))
            facs.append((p, i))
        self.factors = tuple(facs)
        self.coeff = Fraction(coeff)

    @property
    def rank(self):
        return len(self.factors)

    @property
    def parity(self):
        return Parity.of(sum(1 for p, _ in self.factors if p))

    def odd_positions(self):
        return [pos for pos, (p, _) in enumerate(self.factors, start=1) if p]

    def __eq__(self, other):
        if not isinstance(other, TensorWord):
            return NotImplemented
        return (self.space == other.space and self.factors == other.factors
                and self.coeff == other.coeff)

    __hash__ = None

    def __repr__(self):
        if not self.factors:
            return "%s*1" % format_scalar(self.coeff)
        names = []
        for p, i in self.factors:
            names.append(self.space.odd_names[i - 1] if p else self.space.even_names[i - 1])
        return "%s*%s" % (format_scalar(self.coeff), "⊗".join(names))


def odd_signature(sigma, word):
    """sgn⁻σ(word): relative signature of σ with respect to the odd positions."""
    if len(sigma) != word.rank:
        raise ValueError("permutation degree %d != word rank %d" % (len(sigma), word.rank))
    return relative_signature(sigma, word.odd_positions())


def _reposition(sigma, word):
    # place factor i at slot sigma(i)
    out = [None] * word.rank
    for i, f in enumerate(word.factors, start=1):
        out[sigma(i) - 1] = f
    return tuple(out)


def act_sym(sigma, word):
    s = odd_signature(sigma, word)
    return TensorWord(word.space, _reposition(sigma, word), s * word.coeff)


def act_alt(sigma, word):
    s = odd_signature(sigma, word) * signature(sigma)
    return TensorWord(word.space, _reposition(sigma, word), s * word.coeff)


def _block_indices(word):
    evens = [i for p, i in word.factors if not p]
    odds = [i for p, i in word.factors if p]
    return evens, odds


def normalize_supersym(word):
    """Class of the word in Sym(V0|V1) ≅ Sym V0 ⊗ Λ V1.

    Evens sort freely, odds sort with the inversion sign, a repeated odd
    generator kills the word.  Even-odd crossings carry no sign (the
    symmetric twisted action is sign-free there)."""
    evens, odds = _block_indices(word)
    elem = SuperSymElem.zero(word.space)
    if len(set(odds)) != len(odds):
        return elem
    sign = inversion_sign(odds)
    deg = [0] * word.space.even_dim
    for i in evens:
        deg[i - 1] += 1
    key = (MultiDegree(deg), IndexSet(sorted(odds)))
    return SuperSymElem(word.space, {key: sign * word.coeff})


def normalize_superext(word):
    """Class of the word in Λ(V0|V1) ≅ Λ V0 ⊗ Sym V1.

    Evens anticommute (repeated even kills the word), odds commute, and each
    odd-before-even crossing contributes −1: that is what makes the
    alternating twisted action descend to the quotient."""
    evens, odds = _block_indices(word)
    elem = SuperExtElem.zero(word.space)
    if len(set(evens)) != len(evens):
        return elem
    crossings = 0
    seen_odd = 0
    for p, _ in word.factors:
        if p:
            seen_odd += 1
        else:
            crossings += seen_odd
    sign = inversion_sign(evens) * (-1 if crossings % 2 else 1)
    deg = [0] * word.space.odd_dim
    for i in odds:
        deg[i - 1] += 1
    key = (IndexSet(sorted(evens)), MultiDegree(deg))
    return SuperExtElem(word.space, {key: sign * word.coeff})


def _read_monomials(data, sym_field, sym_dim, ext_field, ext_dim):
    """(Sym exponent vector, Λ index set, coefficient) of each JSON monomial.

    The Sym list may repeat indices and come in any order.  Monomials are
    tensor words that may meet on one normal-form key, so repeated keys are
    the caller's to sum."""
    for item in decode.items(data, "terms"):
        decode.fields(item, "monomial", "coeff", "even", "odd")
        deg = [0] * sym_dim
        for g in decode.indices(item[sym_field], sym_field, sym_dim):
            deg[g - 1] += 1
        yield (MultiDegree(deg), decode.index_set(item[ext_field], ext_field, ext_dim),
               decode.scalar(item["coeff"], "coeff"))


class SuperSymElem(LinComb):
    """Element of Sym(V0|V1): keys are (MultiDegree on evens, IndexSet on odds)."""

    __slots__ = ("space",)
    _DIMS = ("space",)

    def __init__(self, space, terms=None):
        self.space = space
        self.terms = {k: Fraction(v) for k, v in (terms or {}).items() if v}

    # supercommutative product: Sym factors add, Λ factors merge with sign
    mul = sym_ext_product

    def __mul__(self, other):
        if isinstance(other, SuperSymElem):
            return self.mul(other)
        return self.scale(other)

    def to_json(self):
        items = sorted(self.terms.items(),
                       key=lambda kv: (sum(kv[0][0]) + len(kv[0][1]), kv[0]))
        out = []
        for (d, k), v in items:
            even = [i + 1 for i, e in enumerate(d) for _ in range(e)]
            out.append({"coeff": format_scalar(v), "even": even, "odd": list(k)})
        return out

    @classmethod
    def from_json(cls, space, data):
        terms = {}
        for deg, key, c in _read_monomials(data, "even", space.even_dim,
                                           "odd", space.odd_dim):
            add_term(terms, (deg, key), c)
        return cls(space, terms)


def _swap(terms):
    return {(b, a): c for (a, b), c in terms.items()}


class SuperExtElem(LinComb):
    """Element of Λ(V0|V1): keys are (IndexSet on evens, MultiDegree on odds).

    The parity of a monomial is the parity of its Λ factor."""

    __slots__ = ("space",)
    _DIMS = ("space",)

    def __init__(self, space, terms=None):
        self.space = space
        self.terms = {k: Fraction(v) for k, v in (terms or {}).items() if v}

    @classmethod
    def unit(cls, space, coeff=1):
        return cls(space, {(IndexSet(()), MultiDegree((0,) * space.odd_dim)): coeff})

    def wedge(self, other):
        # Λ V0 ⊗ Sym V1 is the Sym ⊗ Λ algebra with the key halves swapped;
        # the Sym factor is even, so the swap costs no sign
        self._check(other)
        return self._like(_swap(sym_ext_terms(_swap(self.terms), _swap(other.terms))))

    def __mul__(self, other):
        if isinstance(other, SuperExtElem):
            return self.wedge(other)
        return self.scale(other)

    def parity_part(self, parity):
        p = int(parity) % 2
        return self._like({k: v for k, v in self.terms.items() if len(k[0]) % 2 == p})

    def insert(self, parity, coeffs):
        """Interior product by a homogeneous vector: even vectors contract the
        Λ factor (alternating signs), odd vectors differentiate the Sym factor."""
        parity = Parity(parity)
        want = self.space.even_dim if parity == EVEN else self.space.odd_dim
        if len(coeffs) != want:
            raise ValueError("vector needs %d coefficients" % want)
        coeffs = [Fraction(c) for c in coeffs]
        terms = {}
        for (k, d), v in self.terms.items():
            if parity == EVEN:
                for g in k:
                    if coeffs[g - 1]:
                        nk, sign = contract(k, g)
                        add_term(terms, (nk, d), sign * coeffs[g - 1] * v)
            else:
                for j in range(len(d)):
                    if d[j] and coeffs[j]:
                        nd = list(d)
                        nd[j] -= 1
                        add_term(terms, (k, MultiDegree(nd)), d[j] * coeffs[j] * v)
        return self._like(terms)

    def to_json(self):
        items = sorted(self.terms.items(),
                       key=lambda kv: (len(kv[0][0]) + sum(kv[0][1]), kv[0]))
        out = []
        for (k, d), v in items:
            odd = [i + 1 for i, e in enumerate(d) for _ in range(e)]
            out.append({"coeff": format_scalar(v), "even": list(k), "odd": odd})
        return out

    @classmethod
    def from_json(cls, space, data):
        terms = {}
        for deg, key, c in _read_monomials(data, "odd", space.odd_dim,
                                           "even", space.even_dim):
            add_term(terms, (key, deg), c)
        return cls(space, terms)


def super_wedge(a, b):
    return a.wedge(b)


def super_insert(parity, coeffs, a):
    return a.insert(parity, coeffs)


def supersym_basis(space, k):
    """Normal-form basis keys of Sym^k(V0|V1)."""
    for b in range(min(k, space.odd_dim) + 1):
        a = k - b
        for d in iter_multidegrees(space.even_dim, a):
            for ks in combinations(range(1, space.odd_dim + 1), b):
                yield (d, IndexSet(ks))


def superext_basis(space, k):
    """Normal-form basis keys of Λ^k(V0|V1)."""
    for a in range(min(k, space.even_dim) + 1):
        b = k - a
        for ks in combinations(range(1, space.even_dim + 1), a):
            for d in iter_multidegrees(space.odd_dim, b):
                yield (IndexSet(ks), d)
