"""Exact scalars, parities, index sets, multidegrees and permutation signs.

Scalars are plain fractions.Fraction values; everything downstream assumes
exact rational arithmetic and zero-tolerance equality.  Basis indices are
1-based throughout.
"""

from enum import IntEnum
from fractions import Fraction
from itertools import combinations
from math import comb


def parse_scalar(s):
    """Parse "p/q" or "p" (string or int) into a Fraction."""
    if isinstance(s, bool):
        raise ValueError("scalar must be a string like 'p/q', got a bool")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError("bad scalar %r: %s" % (s, e)) from None
    raise ValueError("scalar must be a string like 'p/q', got %r" % (s,))


def format_scalar(q):
    q = Fraction(q)
    return str(q)


class Parity(IntEnum):
    EVEN = 0
    ODD = 1

    def __add__(self, other):
        return Parity((int(self) + int(other)) % 2)

    __radd__ = __add__

    @classmethod
    def of(cls, degree):
        return cls(degree % 2)

    @property
    def sign(self):
        # (-1)^parity
        return -1 if self else 1

    def to_json(self):
        return "odd" if self else "even"

    @classmethod
    def from_json(cls, s):
        if s == "even":
            return cls.EVEN
        if s == "odd":
            return cls.ODD
        raise ValueError("parity must be 'even' or 'odd', got %r" % (s,))


EVEN = Parity.EVEN
ODD = Parity.ODD


class IndexSet(tuple):
    """Strictly increasing tuple of 1-based basis indices."""

    def __new__(cls, indices=()):
        t = tuple(indices)
        prev = 0
        for i in t:
            if isinstance(i, bool) or not isinstance(i, int):
                raise ValueError("indices must be integers: %r" % (t,))
            if i <= prev:
                raise ValueError(("indices are 1-based: %r" if i < 1 else
                                  "indices must be strictly increasing: %r") % (t,))
            prev = i
        return super().__new__(cls, t)

    @property
    def degree(self):
        return len(self)


class MultiDegree(tuple):
    """Exponent vector for a fixed list of Sym generators."""

    def __new__(cls, exponents=()):
        t = tuple(exponents)
        for e in t:
            if isinstance(e, bool) or not isinstance(e, int):
                raise ValueError("exponents must be integers: %r" % (t,))
            if e < 0:
                raise ValueError("exponents must be non-negative: %r" % (t,))
        return super().__new__(cls, t)

    @property
    def total(self):
        return sum(self)


def iter_multidegrees(nvars, total):
    """All exponent vectors of length nvars summing to total, lex order."""
    if nvars == 0:
        if total == 0:
            yield MultiDegree(())
        return
    for first in range(total, -1, -1):
        for rest in iter_multidegrees(nvars - 1, total - first):
            yield MultiDegree((first,) + tuple(rest))


def sym_dim(nvars, degree):
    # dim Sym^degree of an nvars-dimensional space
    if degree < 0:
        return 0
    return comb(nvars + degree - 1, degree) if nvars > 0 else (1 if degree == 0 else 0)


class Permutation(tuple):
    """Permutation of {1..k} stored as the image tuple (sigma(1),...,sigma(k))."""

    def __new__(cls, images):
        t = tuple(images)
        if sorted(t) != list(range(1, len(t) + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (len(t), t))
        return super().__new__(cls, t)

    def __call__(self, i):
        return self[i - 1]

    @classmethod
    def identity(cls, k):
        return cls(range(1, k + 1))

    def compose(self, other):
        # (self ∘ other)(i) = self(other(i))
        if len(self) != len(other):
            raise ValueError("size mismatch")
        return Permutation(tuple(self[other[i] - 1] for i in range(len(self))))

    def inverse(self):
        inv = [0] * len(self)
        for i, img in enumerate(self, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    @property
    def signature(self):
        return inversion_sign(self)


def inversion_sign(seq):
    """(-1)^(number of inversions) of a sequence of distinct comparables."""
    inv = 0
    s = list(seq)
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if s[i] > s[j]:
                inv += 1
    return -1 if inv % 2 else 1


def signature(sigma):
    return inversion_sign(sigma)


def relative_signature(sigma, A):
    """Sign of the permutation that sorts (sigma(a_1),...,sigma(a_r)), a_i in A sorted.

    +1 when A has at most one element.
    """
    k = len(sigma)
    a_sorted = sorted(A)
    if a_sorted and not (1 <= a_sorted[0] and a_sorted[-1] <= k):
        raise ValueError("A must be a subset of 1..%d, got %r" % (k, sorted(A)))
    if len(a_sorted) != len(set(a_sorted)):
        raise ValueError("A has repeated elements: %r" % (sorted(A),))
    return inversion_sign([sigma(a) for a in a_sorted])


def shuffle_representative(sigma, B, C):
    """Factor sigma = shuffle ∘ tau with tau in S_B x S_C and the shuffle
    monotone increasing on B and on C.  Returns (tau, shuffle)."""
    k = len(sigma)
    B, C = sorted(B), sorted(C)
    if sorted(B + C) != list(range(1, k + 1)):
        raise ValueError("B, C must partition 1..%d" % k)
    # tau^-1 sends the i-th element of the block to the block element whose
    # sigma-value has rank i; then sigma∘tau^-1 is sorted on each block.
    tau_inv = [0] * k
    for block in (B, C):
        by_value = sorted(block, key=lambda a: sigma(a))
        for slot, src in zip(block, by_value):
            tau_inv[slot - 1] = src
    tau = Permutation(tau_inv).inverse()
    shuffle = sigma.compose(tau.inverse())
    return tau, shuffle


def iter_shuffles(p, q):
    """All (p,q)-shuffles in S_{p+q}: sigma increasing on 1..p and on p+1..p+q."""
    k = p + q
    for first_images in combinations(range(1, k + 1), p):
        rest = [i for i in range(1, k + 1) if i not in first_images]
        yield Permutation(first_images + tuple(rest))
