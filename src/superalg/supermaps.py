"""Polynomial morphisms between superfunction algebras.

A superfunction on a patch with m even and p odd directions is a
polynomial on Q^m with values in the exterior algebra on p odd
generators.  A morphism into that algebra is pinned down by the images
of the target coordinates (even superfunctions) and of the target odd
generators (odd superfunctions); it extends uniquely as a unital
algebra map.  Substituting nilpotents for coordinates makes every such
morphism a differential operator along its base map, of order bounded
by half the odd rank of the output algebra.
"""

from fractions import Fraction
from itertools import combinations
import random

from .exterior import ExtElem, ExtSpace
from .lincomb import LinComb, add_term, sym_ext_product
from .poly import Poly
from .scalars import IndexSet, MultiDegree, format_scalar, parse_scalar


def _ext_space(p):
    return ExtSpace(p, tuple("ds%d" % i for i in range(1, p + 1)))


class PolySuperFunc(LinComb):
    """Polynomial coefficients attached to exterior monomials.

    Terms map (exponent vector, index set) to a rational coefficient.
    The parity of a term is the parity of its exterior degree.
    """

    __slots__ = ("nvars", "odd_dim")
    _DIMS = ("nvars", "odd_dim")

    def __init__(self, nvars, odd_dim, terms=None):
        self.nvars = nvars
        self.odd_dim = odd_dim
        out = {}
        for (exps, key), c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            exps = MultiDegree(exps)
            if len(exps) != nvars:
                raise ValueError("exponent vector needs %d slots" % nvars)
            key = IndexSet(key)
            if key and key[-1] > odd_dim:
                raise ValueError("odd index %d out of range" % key[-1])
            out[(exps, key)] = c
        self.terms = out

    @classmethod
    def constant(cls, nvars, odd_dim, c):
        c = Fraction(c)
        key = (MultiDegree((0,) * nvars), IndexSet())
        return cls._raw(nvars, odd_dim, {key: c} if c else {})

    @classmethod
    def unit(cls, nvars, odd_dim):
        return cls.constant(nvars, odd_dim, 1)

    @classmethod
    def from_poly(cls, p, odd_dim):
        empty = IndexSet()
        return cls._raw(p.nvars, odd_dim, {(e, empty): c for e, c in p.terms.items()})

    @classmethod
    def coordinate(cls, nvars, odd_dim, j):
        return cls.from_poly(Poly.variable(nvars, j), odd_dim)

    @classmethod
    def odd_generator(cls, nvars, odd_dim, a):
        if not 1 <= a <= odd_dim:
            raise ValueError("odd generator index %d out of range" % a)
        key = (MultiDegree((0,) * nvars), IndexSet((a,)))
        return cls._raw(nvars, odd_dim, {key: Fraction(1)})

    @classmethod
    def monomial(cls, nvars, odd_dim, exps, key, coeff=1):
        return cls(nvars, odd_dim, {(MultiDegree(exps), IndexSet(key)): coeff})

    __mul__ = sym_ext_product

    def __pow__(self, n):
        out = PolySuperFunc.unit(self.nvars, self.odd_dim)
        for _ in range(n):
            out = out * self
        return out

    def epsilon(self):
        """Forget every term carrying odd generators."""
        return Poly(self.nvars, {e: c for (e, k), c in self.terms.items() if not k})

    def lambda_degrees(self):
        return sorted({len(k) for (_, k) in self.terms})

    def degree_part(self, r):
        return PolySuperFunc._raw(self.nvars, self.odd_dim,
                                  {t: c for t, c in self.terms.items() if len(t[1]) == r})

    def truncate_lambda(self, r):
        """Drop terms of exterior degree above r."""
        return PolySuperFunc._raw(self.nvars, self.odd_dim,
                                  {t: c for t, c in self.terms.items() if len(t[1]) <= r})

    def filtration_degree(self):
        """Least exterior degree present; odd_dim + 1 on zero."""
        return min((len(k) for (_, k) in self.terms), default=self.odd_dim + 1)

    def is_even(self):
        return all(len(k) % 2 == 0 for (_, k) in self.terms)

    def is_odd(self):
        return all(len(k) % 2 == 1 for (_, k) in self.terms)

    def at_point(self, point):
        """Evaluate the polynomial coefficients, leaving an exterior element."""
        if len(point) != self.nvars:
            raise ValueError("point needs %d coordinates" % self.nvars)
        point = [Fraction(x) for x in point]
        space = _ext_space(self.odd_dim)
        out = ExtElem.zero(space)
        for (exps, key), c in self.terms.items():
            for x, e in zip(point, exps):
                c = c * x ** e
            if c:
                out = out + ExtElem.monomial(space, key, c)
        return out

    def to_json(self):
        items = sorted(self.terms, key=lambda t: (len(t[1]), t[1], t[0].total, t[0]))
        return [{"exps": list(e), "ext": list(k), "coeff": format_scalar(self.terms[(e, k)])}
                for e, k in items]

    @classmethod
    def from_json(cls, nvars, odd_dim, data):
        if not isinstance(data, list):
            raise ValueError("superfunction JSON must be a list of terms")
        terms = {}
        for item in data:
            if not isinstance(item, dict) or set(item) != {"exps", "ext", "coeff"}:
                raise ValueError("superfunction term needs exps, ext and coeff")
            for field in ("exps", "ext"):
                v = item[field]
                if not isinstance(v, list) or any(
                        isinstance(x, bool) or not isinstance(x, int) for x in v):
                    raise ValueError("superfunction term %s must be a list of integers, got %r"
                                     % (field, v))
            key = (MultiDegree(item["exps"]), IndexSet(item["ext"]))
            if key in terms:
                raise ValueError("duplicate term %r" % (key,))
            terms[key] = parse_scalar(item["coeff"])
        return cls(nvars, odd_dim, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (exps, key) in sorted(self.terms, key=lambda t: (len(t[1]), t[1], t[0])):
            c = self.terms[(exps, key)]
            mono = [format_scalar(c)]
            mono += ["x%d^%d" % (i, e) if e > 1 else "x%d" % i
                     for i, e in enumerate(exps, start=1) if e]
            mono += ["ds%d" % a for a in key]
            bits.append("*".join(mono))
        return " + ".join(bits)


class SuperMapData:
    """A unital algebra morphism, given by generator images.

    coord_images[j] is where target coordinate j + 1 goes (even),
    odd_images[a] is where target odd generator a + 1 goes (odd).
    Parity violations are rejected at construction time.  The images of
    target monomials are memoized per instance as apply_map meets them,
    so the generator images are treated as immutable after construction.
    """

    __slots__ = ("coord_images", "odd_images", "source_nvars", "source_odd",
                 "_mono_images")

    def __init__(self, coord_images, odd_images):
        coord_images = tuple(coord_images)
        odd_images = tuple(odd_images)
        if not coord_images and not odd_images:
            raise ValueError("morphism data needs at least one image")
        shapes = {(g.nvars, g.odd_dim) for g in coord_images + odd_images}
        if len(shapes) != 1:
            raise ValueError("images live on different source algebras")
        ((self.source_nvars, self.source_odd),) = shapes
        for j, g in enumerate(coord_images, start=1):
            if not g.is_even():
                raise ValueError("coordinate image %d has odd-degree terms" % j)
        for a, g in enumerate(odd_images, start=1):
            if not g.is_odd():
                raise ValueError("generator image %d has even-degree terms" % a)
        self.coord_images = coord_images
        self.odd_images = odd_images
        one = ((0,) * len(coord_images), ())
        self._mono_images = {one: PolySuperFunc.unit(self.source_nvars, self.source_odd)}

    def _monomial_image(self, exps, key):
        """Image of the target monomial x^exps * ds_key, memoized.

        A new entry is one product with a cached neighbour: the last odd
        generator is split off on the right, which keeps the left-to-right
        order of the odd images, and once none is left the last nonzero
        exponent is lowered by one.  The chain down to a cached entry is
        walked iteratively, so high degrees never recurse.  The returned
        element is shared and must not be mutated.
        """
        table = self._mono_images
        mono = (exps, key)
        chain = []
        while mono not in table:
            exps, key = mono
            if key:
                chain.append((mono, self.odd_images[key[-1] - 1]))
                mono = (exps, key[:-1])
            else:
                j = max(i for i, e in enumerate(exps) if e)
                chain.append((mono, self.coord_images[j]))
                mono = (exps[:j] + (exps[j] - 1,) + exps[j + 1:], key)
        img = table[mono]
        for mono, factor in reversed(chain):
            img = img * factor
            table[mono] = img
        return img

    @property
    def target_nvars(self):
        return len(self.coord_images)

    @property
    def target_odd(self):
        return len(self.odd_images)

    def base_map(self):
        """Polynomial components of the induced map on even coordinates."""
        return tuple(g.epsilon() for g in self.coord_images)

    @classmethod
    def identity(cls, nvars, odd_dim):
        coords = [PolySuperFunc.coordinate(nvars, odd_dim, j) for j in range(1, nvars + 1)]
        odds = [PolySuperFunc.odd_generator(nvars, odd_dim, a) for a in range(1, odd_dim + 1)]
        return cls(coords, odds)

    def to_json(self):
        return {"coord_images": [g.to_json() for g in self.coord_images],
                "odd_images": [g.to_json() for g in self.odd_images]}

    @classmethod
    def from_json(cls, source_nvars, source_odd, data):
        if not isinstance(data, dict) or set(data) != {"coord_images", "odd_images"}:
            raise ValueError("morphism JSON needs coord_images and odd_images")
        for name, v in (("source_nvars", source_nvars), ("source_odd", source_odd)):
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValueError("%s must be a non-negative integer, got %r" % (name, v))
        coords = [PolySuperFunc.from_json(source_nvars, source_odd, d)
                  for d in data["coord_images"]]
        odds = [PolySuperFunc.from_json(source_nvars, source_odd, d)
                for d in data["odd_images"]]
        return cls(coords, odds)

    def __repr__(self):
        return "SuperMapData(%d|%d -> %d|%d)" % (
            self.source_nvars, self.source_odd, self.target_nvars, self.target_odd)


def apply_map(phi, f):
    """Push a target superfunction through the morphism.

    Unital multiplicative substitution; nilpotency of the odd images
    truncates everything after finitely many terms.  The map is linear,
    so the result is the coefficient-weighted sum of the memoized
    monomial images, collected in a fresh element.
    """
    if f.nvars != phi.target_nvars or f.odd_dim != phi.target_odd:
        raise ValueError("superfunction does not live on the target algebra")
    out = {}
    for (exps, key), c in f.terms.items():
        for k, v in phi._monomial_image(exps, key).terms.items():
            add_term(out, k, c * v)
    return PolySuperFunc._raw(phi.source_nvars, phi.source_odd, out)


def pull_function(phi, f):
    """Compose a polynomial on the target coordinates with the base map."""
    if f.nvars != phi.target_nvars:
        raise ValueError("polynomial does not live on the target coordinates")
    return f.compose(list(phi.base_map()))


def commutator_defect(phi, f):
    """Image of a base function minus its pullback; no degree-0 part."""
    img = apply_map(phi, PolySuperFunc.from_poly(f, phi.target_odd))
    return img - PolySuperFunc.from_poly(pull_function(phi, f), phi.source_odd)


def twisted_commutator(phi, f, eta):
    """Value of the commutator with multiplication by a base function."""
    lifted = PolySuperFunc.from_poly(f, phi.target_odd)
    pulled = PolySuperFunc.from_poly(pull_function(phi, f), phi.source_odd)
    return apply_map(phi, lifted * eta) - pulled * apply_map(phi, eta)


def iterated_twisted_commutator(phi, fs, eta):
    """Nested twisted commutators, fs[0] innermost, applied to eta."""
    if not fs:
        return apply_map(phi, eta)
    last = fs[-1]
    lifted = PolySuperFunc.from_poly(last, phi.target_odd)
    pulled = PolySuperFunc.from_poly(pull_function(phi, last), phi.source_odd)
    return (iterated_twisted_commutator(phi, fs[:-1], lifted * eta)
            - pulled * iterated_twisted_commutator(phi, fs[:-1], eta))


def _random_poly(rng, nvars, max_degree=2):
    terms = {}
    for exps in _all_exponents(nvars, max_degree):
        c = rng.randint(-3, 3)
        if c:
            terms[MultiDegree(exps)] = Fraction(c)
    return Poly(nvars, terms)


def _all_exponents(nvars, max_degree):
    if nvars == 0:
        return [()]
    out = []
    for head in range(max_degree + 1):
        for tail in _all_exponents(nvars - 1, max_degree - head):
            out.append((head,) + tail)
    return out


def _random_superfunc(rng, nvars, odd_dim, max_degree=1):
    f = PolySuperFunc.zero(nvars, odd_dim)
    for r in range(odd_dim + 1):
        for key in combinations(range(1, odd_dim + 1), r):
            coeff = _random_poly(rng, nvars, max_degree)
            mono = PolySuperFunc.monomial(nvars, odd_dim, (0,) * nvars, key)
            f = f + PolySuperFunc.from_poly(coeff, odd_dim) * mono
    return f


class OrderBoundReport:

    __slots__ = ("depth", "trials", "failures", "passed")

    def __init__(self, depth, trials, failures):
        self.depth = depth
        self.trials = trials
        self.failures = tuple(failures)
        self.passed = not self.failures


def order_bound_check(phi, trials=6, seed=0):
    """Iterated twisted commutators of maximal depth vanish identically.

    Each commutator multiplies by a defect with no exterior-degree-0
    part, and those defects are even, so floor(p/2) + 1 of them overflow
    the exterior algebra on the p odd generators of the output side.
    Both routes are taken: the nested definition on a random argument
    and the product of defects times the morphism.
    """
    depth = phi.source_odd // 2 + 1
    rng = random.Random(seed)
    n, q = phi.target_nvars, phi.target_odd
    failures = []
    for t in range(trials):
        fs = [_random_poly(rng, n) for _ in range(depth)]
        prod = PolySuperFunc.unit(phi.source_nvars, phi.source_odd)
        for f in fs:
            prod = prod * commutator_defect(phi, f)
        eta = _random_superfunc(rng, n, q)
        nested = iterated_twisted_commutator(phi, fs, eta)
        if nested != prod * apply_map(phi, eta):
            failures.append(("route-mismatch", t))
        if not prod.is_zero() or not nested.is_zero():
            failures.append(("nonvanishing", t))
    return OrderBoundReport(depth, trials, failures)


class FiltrationReport:

    __slots__ = ("failures", "passed")

    def __init__(self, failures):
        self.failures = tuple(failures)
        self.passed = not self.failures


def filtration_check(phi):
    """Images of exterior-degree-r monomials keep filtration degree >= r."""
    n, q = phi.target_nvars, phi.target_odd
    probes = [(0,) * n]
    probes += [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
    failures = []
    for r in range(q + 1):
        for key in combinations(range(1, q + 1), r):
            for exps in probes:
                mono = PolySuperFunc.monomial(n, q, exps, key)
                if apply_map(phi, mono).filtration_degree() < r:
                    failures.append((MultiDegree(exps), IndexSet(key)))
    return FiltrationReport(failures)


def induced_grade_map(phi, k):
    """The morphism on exterior degree k, modulo degree above k.

    Returns a map from degree-k index sets of the target to degree-k
    superfunctions on the source; coefficients stay polynomial in the
    base coordinates.
    """
    n, q = phi.target_nvars, phi.target_odd
    out = {}
    for key in combinations(range(1, q + 1), k):
        img = apply_map(phi, PolySuperFunc.monomial(n, q, (0,) * n, key))
        out[IndexSet(key)] = img.degree_part(k)
    return out


def aux_codifferential(phi, f, point):
    """Exterior-degree-2 defect of a base function, evaluated at a point.

    A derivation in f along the base map: constants go to zero and
    products obey the twisted Leibniz rule.
    """
    return commutator_defect(phi, f).degree_part(2).at_point(point)


def order_zero_criterion(phi):
    """True when no truncation defect survives in any degree.

    Coordinates must pull back on the nose (no exterior correction in
    any even degree) and odd generators must land in pure degree one.
    Equivalent to the morphism being the exterior lift of a bundle map,
    and strictly stronger than linearity over the base functions alone:
    degree-3 junk in a generator image is invisible to commutators with
    base functions.
    """
    for g in phi.coord_images:
        if any(key for (_, key) in g.terms):
            return False
    for g in phi.odd_images:
        if any(len(key) != 1 for (_, key) in g.terms):
            return False
    return True
