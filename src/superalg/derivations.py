"""Derivations and superderivations of the exterior algebra of a based space.

A superderivation is an element of ΛV* ⊗ V (`lemma:derivations-isomorphism`):
a LinComb of one parity whose term (ω, s) ↦ c sends generator s to c·ω.
Applying it, composing two and their superbracket all expand the graded
Leibniz rule in place, into one output dict, with no intermediate element
built.  The classification splits an ungraded derivation into a
generator-image part with odd-degree images and a left-multiplication part
encoded by a single odd form.
"""

from fractions import Fraction

from . import decode
from .exterior import ExtElem
from .lincomb import LinComb, add_term, merge_sign
from .scalars import EVEN, IndexSet, Parity


def _leibniz_terms(groups, parity, items):
    """The Leibniz expansion over the (key, coeff) pairs of items of the
    generator images groups, {s: {ω: c}}, the image replacing the t-th factor
    of a monomial carrying the sign (−1)^(parity·t).  An image term ω of
    degree |ω| moves to the front past the t factors before it,
    head ∧ ω ∧ tail = (−1)^(t·|ω|) ω ∧ rest with rest the key less its t-th
    index, so each (term, slot, image term) is one merge_sign call and one
    Fraction product."""
    terms = {}
    for key, coeff in items:
        for t, s in enumerate(key):
            image = groups.get(s)
            if image is None:
                continue
            c = -coeff if parity & t & 1 else coeff
            rest = key[:t] + key[t + 1:]
            for k, v in image.items():
                out, sg = merge_sign(k, rest)
                if out is not None:
                    add_term(terms, out, c * v if (sg < 0) == bool(t & len(k) & 1) else -(c * v))
    return terms


def _leibniz(space, images, parity, a):
    """_leibniz_terms of a list of image ExtElems over a, as an ExtElem."""
    groups = {s: im.terms for s, im in enumerate(images, start=1) if im.terms}
    return ExtElem._raw(space, _leibniz_terms(groups, parity, a.terms.items()))


class SuperDerivation(LinComb):
    """Graded-Leibniz operator on ΛV*, kept as its terms {(ω, s): c} in
    ΛV* ⊗ V: generator s goes to the sum of c·ω over its terms.

    Parity bookkeeping follows the operator convention: an odd operator has
    even-degree images (it flips the degree parity of the generators), an
    even operator has odd-degree images.  Every element has one parity, the
    zero map included, so + and == refuse operands of different parity."""

    __slots__ = ("space", "parity", "_groups")
    _DIMS = ("space", "parity")

    def __init__(self, space, parity, images):
        self.space = space
        self.parity = Parity(parity)
        images = tuple(images)
        if len(images) != space.dim:
            raise ValueError("need %d generator images" % space.dim)
        if any(im.space != space for im in images):
            raise ValueError("image lives in the wrong space")
        self.terms = {(k, s): c for s, im in enumerate(images, start=1)
                      for k, c in im.terms.items()}
        if any(len(k) % 2 == self.parity for k, _ in self.terms):
            raise ValueError("a %s superderivation needs images of %s degree"
                             % (self.parity.to_json(), "even" if self.parity else "odd"))

    @classmethod
    def _raw(cls, space, parity, terms):
        # the parity is stored as a Parity on every path, so it adds in Z/2
        e = object.__new__(cls)
        e.space, e.terms = space, terms
        e.parity = parity if type(parity) is Parity else Parity(parity)
        return e

    @classmethod
    def from_terms(cls, space, terms, parity=None):
        """The superderivation of a term map {(ω, s): c}.  Its parity is read
        off the Λ-degrees, |ω| + 1 mod 2; it must be given for the zero map,
        and a parity given for any other map must agree."""
        out = {}
        for (key, s), c in terms.items():
            c = Fraction(c)
            if not c:
                continue
            key = IndexSet(key)
            if key and key[-1] > space.dim or not 1 <= s <= space.dim:
                raise ValueError("term %r out of range for dim %d" % ((key, s), space.dim))
            out[(key, s)] = c
        degrees = {len(k) % 2 for k, _ in out}
        if len(degrees) > 1:
            raise ValueError("mixed Λ-degree parity has no derivation parity")
        if degrees:
            read = Parity.of(degrees.pop() + 1)
            if parity is not None and Parity(parity) != read:
                raise ValueError("a %s superderivation needs images of %s degree"
                                 % (Parity(parity).to_json(), "even" if parity else "odd"))
            parity = read
        elif parity is None:
            raise ValueError("the zero map needs a parity")
        return cls._raw(space, parity, out)

    def _targets(self):
        # {s: {ω: c}}, built on first use; the terms never change
        if not hasattr(self, "_groups"):
            self._groups = groups = {}
            for (k, s), c in self.terms.items():
                groups.setdefault(s, {})[k] = c
        return self._groups

    @property
    def images(self):
        """The generator images, one new ExtElem per generator."""
        groups = self._targets()
        return tuple(ExtElem._raw(self.space, dict(groups.get(s, ())))
                     for s in range(1, self.space.dim + 1))

    def __call__(self, a):
        if a.space != self.space:
            raise ValueError("argument lives in the wrong space")
        return ExtElem._raw(self.space, _leibniz_terms(self._targets(), int(self.parity),
                                                       a.terms.items()))

    def lambda_degrees(self):
        return sorted({len(k) for k, _ in self.terms})

    def degree_part(self, deg):
        """The terms whose ω has exterior degree deg, of the same parity."""
        return self._like({kt: v for kt, v in self.terms.items() if len(kt[0]) == deg})

    def to_json(self):
        return {"parity": self.parity.to_json(),
                "images": [im.to_json() for im in self.images]}

    @classmethod
    def from_json(cls, space, data):
        parity, images = decode.fields(data, "superderivation", "parity", "images")
        images = [ExtElem.from_json(space, im) for im in decode.items(images, "images", space.dim)]
        return cls(space, Parity.from_json(parity), images)


def comp_product(a, b):
    """The composition a∘b, by the product (ω⊗s)·(ω̃⊗s̃) = ω ∧ (s ⌟ ω̃) ⊗ s̃
    on ΛV* ⊗ V: a applied to each term of b, kept under that term's target.
    Its parity is a.parity + b.parity.  Not associative."""
    if a.space != b.space:
        raise ValueError("operands live in different spaces")
    groups, parity = a._targets(), int(a.parity)
    terms = {}
    for (kb, s), cb in b.terms.items():
        for k, c in _leibniz_terms(groups, parity, ((kb, cb),)).items():
            add_term(terms, (k, s), c)
    return SuperDerivation._raw(a.space, a.parity + b.parity, terms)


def ungraded_extend(space, images, a):
    """Plain-Leibniz (ungraded) expansion of arbitrary generator images."""
    return _leibniz(space, images, 0, a)


def build_DF(space, images):
    """The even superderivation Σ_μ F(dv_μ) ∧ (v_μ ⌟ ·) from odd-degree images."""
    return SuperDerivation(space, EVEN, images)


def number_operator(space):
    return build_DF(space, tuple(ExtElem.generator(space, i) for i in range(1, space.dim + 1)))


class DerivationClassification:
    """Split of an ungraded derivation: odd-image part plus the odd form eta
    encoding the even-image (left multiplication) part."""

    __slots__ = ("space", "f_minus", "eta")

    def __init__(self, space, f_minus, eta):
        self.space = space
        self.f_minus = tuple(f_minus)
        self.eta = eta

    def __eq__(self, other):
        if not isinstance(other, DerivationClassification):
            return NotImplemented
        return (self.space == other.space and self.f_minus == other.f_minus
                and self.eta == other.eta)

    __hash__ = None


def _eta_to_beta(space, eta):
    # beta = (n - N + 1)^-1 eta, graded piece by graded piece; the top piece
    # of eta acts as zero on positive degrees and is already quotiented away
    n = space.dim
    beta = ExtElem.zero(space)
    for k in range(1, n, 2):
        beta = beta + eta.degree_part(k).scale(Fraction(1, n - k))
    return beta


def classify(space, images):
    """Split generator images into the odd part and the eta form of the
    left-multiplication even part; eta is reduced modulo top degree when n is odd."""
    f_minus = []
    eta = ExtElem.zero(space)
    for mu, im in enumerate(images, start=1):
        f_minus.append(im.parity_part(1))
        v = [0] * space.dim
        v[mu - 1] = 1
        eta = eta - im.parity_part(0).insert(v)
    if space.dim % 2 == 1:
        eta = eta - eta.degree_part(space.dim)
    return DerivationClassification(space, f_minus, eta)


def reconstruct(classification):
    """Generator images of the derivation encoded by a classification."""
    space = classification.space
    beta = _eta_to_beta(space, classification.eta)
    images = []
    for mu in range(1, space.dim + 1):
        images.append(classification.f_minus[mu - 1] + beta.wedge(ExtElem.generator(space, mu)))
    return images


def apply_classified(classification, a):
    """Apply the classified derivation: the odd-image part extends by plain
    Leibniz and the eta part multiplies the odd-degree component by beta."""
    space = classification.space
    out = ungraded_extend(space, classification.f_minus, a)
    beta = _eta_to_beta(space, classification.eta)
    return out + beta.wedge(a.parity_part(1))


def dimension_of_derivation_space(n, graded="all"):
    if n < 1:
        raise ValueError("n must be at least 1")
    if graded == "Z":
        return n * n
    if graded == "Z2":
        return n * 2 ** (n - 1)
    if graded == "all":
        dim_lambda_minus = 2 ** (n - 1)
        top_overlap = 1 if n % 2 == 1 else 0
        return n * 2 ** (n - 1) + dim_lambda_minus - top_overlap
    raise ValueError("graded must be one of all, Z2, Z")


def dimension_of_superderivation_space(n):
    return n * 2 ** n


def superbracket(D1, D2):
    """⟦D1, D2⟧ = D1∘D2 − (−1)^{|D1||D2|} D2∘D1."""
    sign = -1 if int(D1.parity) * int(D2.parity) % 2 else 1
    return comp_product(D1, D2) - comp_product(D2, D1).scale(sign)


def insertion_derivation(space, nu):
    """The odd superderivation with images δ_{μν}·1; equals v_ν ⌟ · as an operator."""
    return SuperDerivation.from_terms(space, {((), nu): 1})
