"""Derivations and superderivations of the exterior algebra of a based space.

A (super)derivation is stored by its generator images only; applying it
expands the graded Leibniz rule in place, into one output dict, with no
intermediate element built.  The classification splits an ungraded
derivation into a generator-image part with odd-degree images and a
left-multiplication part encoded by a single odd form.
"""

from fractions import Fraction

from . import decode
from .exterior import ExtElem
from .lincomb import add_term, merge_sign
from .scalars import EVEN, ODD, Parity


def _leibniz(space, images, parity, a):
    """Expand the generator images over a by the Leibniz rule, the image
    replacing the t-th factor of a monomial carrying the sign (−1)^(parity·t).
    An image term ω of degree |ω| moves to the front past the t factors
    before it, head ∧ ω ∧ tail = (−1)^(t·|ω|) ω ∧ rest with rest the key less
    its t-th index, so each (term of a, slot, image term) is one merge_sign
    call and one Fraction product."""
    images = [im.terms for im in images]
    terms = {}
    for key, coeff in a.terms.items():
        for t in range(len(key)):
            c = -coeff if parity & t & 1 else coeff
            rest = key[:t] + key[t + 1:]
            for k, v in images[key[t] - 1].items():
                out, s = merge_sign(k, rest)
                if out is not None:
                    add_term(terms, out, c * v if (s < 0) == bool(t & len(k) & 1) else -(c * v))
    return ExtElem._raw(space, terms)


class SuperDerivation:
    """Graded-Leibniz operator on ΛV* determined by generator images.

    Parity bookkeeping follows the operator convention: an odd operator has
    even-degree images (it flips the degree parity of the generators), an
    even operator has odd-degree images."""

    __slots__ = ("space", "parity", "images")

    def __init__(self, space, parity, images):
        self.space = space
        self.parity = Parity(parity)
        images = tuple(images)
        if len(images) != space.dim:
            raise ValueError("need %d generator images" % space.dim)
        bad = int(self.parity)
        for im in images:
            if im.space != space:
                raise ValueError("image lives in the wrong space")
            if not im.parity_part(bad).is_zero():
                raise ValueError("a %s superderivation needs images of %s degree"
                                 % (self.parity.to_json(), "even" if self.parity else "odd"))
        self.images = images

    def __call__(self, a):
        if a.space != self.space:
            raise ValueError("argument lives in the wrong space")
        return _leibniz(self.space, self.images, int(self.parity), a)

    def __eq__(self, other):
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        if self.space != other.space or self.images != other.images:
            return False
        # the zero operator sits in both parity components
        return self.parity == other.parity or all(im.is_zero() for im in self.images)

    __hash__ = None

    def __add__(self, other):
        if self.parity != other.parity or self.space != other.space:
            raise ValueError("can only add superderivations of equal parity")
        return SuperDerivation(self.space, self.parity,
                               tuple(a + b for a, b in zip(self.images, other.images)))

    def scale(self, c):
        return SuperDerivation(self.space, self.parity,
                               tuple(im.scale(c) for im in self.images))

    def to_json(self):
        return {"parity": self.parity.to_json(),
                "images": [im.to_json() for im in self.images]}

    @classmethod
    def from_json(cls, space, data):
        parity, images = decode.fields(data, "superderivation", "parity", "images")
        images = [ExtElem.from_json(space, im) for im in decode.items(images, "images", space.dim)]
        return cls(space, Parity.from_json(parity), images)


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
    """⟦D1, D2⟧ = D1∘D2 − (−1)^{|D1||D2|} D2∘D1, returned by generator images."""
    if D1.space != D2.space:
        raise ValueError("operands live in different spaces")
    space = D1.space
    sign = -1 if int(D1.parity) * int(D2.parity) % 2 else 1
    images = []
    for mu in range(1, space.dim + 1):
        g = ExtElem.generator(space, mu)
        images.append(D1(D2(g)) - D2(D1(g)).scale(sign))
    return SuperDerivation(space, D1.parity + D2.parity, images)


def insertion_derivation(space, nu):
    """The odd superderivation with images δ_{μν}·1; equals v_ν ⌟ · as an operator."""
    images = [ExtElem.unit(space) if mu == nu else ExtElem.zero(space)
              for mu in range(1, space.dim + 1)]
    return SuperDerivation(space, ODD, images)
