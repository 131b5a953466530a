"""Free supertensor words, twisted symmetric-group actions, and normal forms.

A supervector space (V0|V1) has even generators (free-commuting in the
supersymmetric quotient, anticommuting in the superexterior one) and odd
generators (the other way around).  The two quotients are realised by
explicit normal-form maps whose correctness is *tested* against invariance
under the twisted actions, never assumed.  Both quotients are free
supercommutative algebras, so their elements are PolySuperFunc values.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import decode
from .cartan import ext_contract, sym_contract
from .lincomb import add_term
from .scalars import (
    EVEN,
    IndexSet,
    MultiDegree,
    Parity,
    format_scalar,
    inversion_sign,
    iter_multidegrees,
    relative_signature,
)
from .supermaps import PolySuperFunc


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
    s = odd_signature(sigma, word) * sigma.signature
    return TensorWord(word.space, _reposition(sigma, word), s * word.coeff)


def _block_indices(word):
    evens = [i for p, i in word.factors if not p]
    odds = [i for p, i in word.factors if p]
    return evens, odds


def normalize_supersym(word):
    """Class of the word in Sym(V0|V1) ≅ Sym V0 ⊗ Λ V1, a PolySuperFunc on
    the even_dim even and odd_dim odd generators.

    Evens sort freely, odds sort with the inversion sign, a repeated odd
    generator kills the word.  Even-odd crossings carry no sign (the
    symmetric twisted action is sign-free there)."""
    evens, odds = _block_indices(word)
    p, q = word.space.even_dim, word.space.odd_dim
    if len(set(odds)) != len(odds):
        return PolySuperFunc.zero(p, q)
    deg = [0] * p
    for i in evens:
        deg[i - 1] += 1
    return PolySuperFunc.monomial(p, q, deg, sorted(odds), inversion_sign(odds) * word.coeff)


def normalize_superext(word):
    """Class of the word in Λ(V0|V1) ≅ Λ V0 ⊗ Sym V1, a PolySuperFunc whose
    Sym factor is on the odd_dim odd generators and whose Λ factor is on the
    even_dim even ones.

    Evens anticommute (repeated even kills the word), odds commute, and each
    odd-before-even crossing contributes −1: that is what makes the
    alternating twisted action descend to the quotient."""
    evens, odds = _block_indices(word)
    p, q = word.space.even_dim, word.space.odd_dim
    if len(set(evens)) != len(evens):
        return PolySuperFunc.zero(q, p)
    crossings = 0
    seen_odd = 0
    for par, _ in word.factors:
        if par:
            seen_odd += 1
        else:
            crossings += seen_odd
    sign = inversion_sign(evens) * (-1 if crossings % 2 else 1)
    deg = [0] * q
    for i in odds:
        deg[i - 1] += 1
    return PolySuperFunc.monomial(q, p, deg, sorted(evens), sign * word.coeff)


def _fields(kind):
    # the JSON fields naming the Sym and the Λ generators of each quotient
    return ("even", "odd") if kind == "sym" else ("odd", "even")


def tensor_to_json(kind, f):
    """Canonical JSON terms of an element of the kind ('sym' or 'ext')
    quotient: the Sym generators listed with repeats, sorted by total degree,
    then by the even half of the key, then by the odd half."""
    sym_field, ext_field = _fields(kind)

    def order(term):
        d, k = term
        return (d.total + len(k),) + ((d, k) if kind == "sym" else (k, d))

    return [{"coeff": format_scalar(f.terms[(d, k)]),
             sym_field: [i + 1 for i, e in enumerate(d) for _ in range(e)],
             ext_field: list(k)}
            for d, k in sorted(f.terms, key=order)]


def tensor_from_json(kind, space, data):
    """Read the JSON terms of an element of the kind quotient of space.

    The Sym list may repeat indices and come in any order.  Monomials are
    tensor words that may meet on one normal-form key, so repeated keys are
    summed."""
    sym_field, ext_field = _fields(kind)
    sym_dim, ext_dim = ((space.even_dim, space.odd_dim) if kind == "sym"
                        else (space.odd_dim, space.even_dim))
    terms = {}
    for item in decode.items(data, "terms"):
        decode.fields(item, "monomial", "coeff", "even", "odd")
        deg = [0] * sym_dim
        for g in decode.indices(item[sym_field], sym_field, sym_dim):
            deg[g - 1] += 1
        key = (MultiDegree(deg), decode.index_set(item[ext_field], ext_field, ext_dim))
        add_term(terms, key, decode.scalar(item["coeff"], "coeff"))
    return PolySuperFunc(sym_dim, ext_dim, terms)


def super_insert(parity, coeffs, a):
    """Interior product of a vector of the given parity with an element a of
    Λ(V0|V1): an even vector contracts the Λ factor (alternating signs), an
    odd vector differentiates the Sym factor."""
    parity = Parity(parity)
    along, dim = (ext_contract, a.odd_dim) if parity == EVEN else (sym_contract, a.nvars)
    if len(coeffs) != dim:
        raise ValueError("vector needs %d coefficients" % dim)
    out = a._like({})
    for i, c in enumerate(coeffs, start=1):
        c = Fraction(c)
        if c:
            out = out + along(i, a).scale(c)
    return out


def supersym_basis(space, k):
    """Normal-form basis keys of Sym^k(V0|V1)."""
    for b in range(min(k, space.odd_dim) + 1):
        a = k - b
        for d in iter_multidegrees(space.even_dim, a):
            for ks in combinations(range(1, space.odd_dim + 1), b):
                yield (d, IndexSet(ks))


def superext_basis(space, k):
    """Normal-form basis keys of Λ^k(V0|V1): (odd exponents, even index set)."""
    for a in range(min(k, space.even_dim) + 1):
        b = k - a
        for ks in combinations(range(1, space.even_dim + 1), a):
            for d in iter_multidegrees(space.odd_dim, b):
                yield (d, IndexSet(ks))
