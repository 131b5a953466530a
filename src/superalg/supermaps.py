"""Polynomial morphisms between superfunction algebras.

A superfunction on a patch with m even and p odd directions is a
polynomial on Q^m with values in the exterior algebra on p odd
generators.  A morphism into that algebra is pinned down by the images
of the target coordinates (even superfunctions) and of the target odd
generators (odd superfunctions); it extends uniquely as a unital
algebra map.  Substituting nilpotents for coordinates makes every such
morphism a differential operator along its base map, of order bounded
by half the odd rank of the output algebra.

The substitution and the commutator checks run on cleared pairs
(d, {key: int}), the rational term map divided by d, on Sym ⊗ Λ keys packed
by a lincomb.KeyLayout.  Each map keeps one layout for its target algebra
and one for its source algebra, and widens both, re-keying its memos, before
a call that images a target element of higher total degree (_widen): a
target field never exceeds that degree T, and a source field never exceeds
T·max(Dc, 1) + q·Do, for Dc and Do the largest total degrees of the
coordinate and odd images and q the target odd rank.  The memo holds the
images of pure monomials, x^e or θ^K, only: Σ_K g_K θ^K, each g_K free of
odd generators, goes to Σ_K φ(g_K)·φ(θ^K), summed one odd mask at a time
(_nested_ints); nested twisted commutators take the place of φ(g_K) one
level at a time, each level a linear map memoized on pure even keys.
Products go through lincomb.sym_ext_ints and sums through _combine, over the
lcm of the denominators.  Every pair is kept in lowest terms, and the
packing is injective at fixed widths, so two pairs are equal exactly when
the superfunctions they stand for are.  Terms are packed where an element
enters, and unpacked, one Fraction per term, only where a result is returned.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
import random

from . import decode
from .exterior import ExtElem, ds_space
from .lincomb import KeyLayout, LinComb, by_mask, max_degree, sym_ext_ints, sym_ext_product
from .poly import Poly
from .scalars import IndexSet, MultiDegree, format_scalar, iter_multidegrees


class PolySuperFunc(LinComb):
    """The free supercommutative algebra Sym(nvars) ⊗ Λ(odd_dim): polynomial
    coefficients attached to exterior monomials.

    Terms map (exponent vector, index set) to a rational coefficient.
    The parity of a term is the parity of its exterior degree.  Besides
    superfunctions, this one class holds the Cartan complex Sym V ⊗ Λ W
    (cartan) and both supertensor quotients (supertensor).
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
        return cls(nvars, odd_dim, {(tuple(exps), tuple(key)): coeff})

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

    def bidegree_part(self, k, l):
        """The terms of polynomial degree k and exterior degree l."""
        return self._like({t: c for t, c in self.terms.items()
                           if t[0].total == k and len(t[1]) == l})

    def bidegrees(self):
        return sorted({(exps.total, len(key)) for exps, key in self.terms})

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
        space = ds_space(self.odd_dim)
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
        def read(exps, ext, coeff):
            key = (decode.exponents(exps, "exps", nvars), decode.index_set(ext, "ext", odd_dim))
            return key, decode.scalar(coeff, "coeff")
        return cls(nvars, odd_dim,
                   decode.terms(data, "superfunction", read, "exps", "ext", "coeff"))

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
    pure target monomials are memoized per instance as they are met, as
    cleared pairs on packed source keys under packed target keys, in the
    one pair of layouts the map keeps, wide enough for the largest total
    degree _degree imaged so far; _pulled memoizes the products of the
    coordinate bodies (the epsilon parts of their images) in the same way.
    The generator images are packed at construction and treated as
    immutable after it.
    """

    __slots__ = ("coord_images", "odd_images", "source_nvars", "source_odd",
                 "_source_bound", "_degree", "_layouts", "_mono_images", "_pulled")

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
        # a source field of an image of total degree T is at most
        # T * max(Dc, 1) + q * Do (see the module docstring)
        dc, do = (max((max_degree(g.terms) for g in images), default=0)
                  for images in (coord_images, odd_images))
        self._source_bound = max(dc, 1), len(odd_images) * do
        # the unit goes to the unit, key 0 in any layout
        n, q = len(coord_images), len(odd_images)
        self._degree = 0
        self._layouts = KeyLayout((q,), n, 0), KeyLayout((self.source_odd,), self.source_nvars, 0)
        self._mono_images, self._pulled = {0: (1, {0: 1})}, {0: (1, {0: 1})}
        self._widen(1)
        target, source = self._layouts
        zero = (0,) * n
        for j, g in enumerate(coord_images):
            key = target.pack(zero[:j] + (1,) + zero[j + 1:], ())
            self._mono_images[key] = source.cleared(g.terms)
            self._pulled[key] = source.cleared({t: c for t, c in g.terms.items() if not t[1]})
        for a, g in enumerate(odd_images, start=1):
            self._mono_images[target.pack(zero, (a,))] = source.cleared(g.terms)

    def _widen(self, degree):
        """Make the target and source layouts wide enough for a call that
        images target elements of total degree at most degree; widening
        re-keys both memos, and their entries carry over."""
        if degree <= self._degree:
            return
        self._degree = degree
        old_t, old_s = self._layouts
        c, o = self._source_bound
        target = KeyLayout.fitting(old_t.blocks, old_t.nfields, degree)
        source = KeyLayout.fitting(old_s.blocks, old_s.nfields, degree * c + o)
        if (target.w, source.w) == (old_t.w, old_s.w):
            return
        self._mono_images, self._pulled = (
            {target.pack(*old_t.unpack(k)):
                (d, {source.pack(*old_s.unpack(s)): v for s, v in img.items()})
             for k, (d, img) in table.items()} for table in (self._mono_images, self._pulled))
        self._layouts = target, source

    def _monomial_image(self, key, table=None):
        """Image of the target monomial packed as key, memoized in table (by
        default the map's own memo) as (d, {key: int}) in lowest terms: the
        image's coefficients are the ints over d.

        Keys are pure, x^e or theta^K.  A new entry is one int product with
        a cached neighbour: the highest nonzero exponent field of x^e is
        lowered by one, or the highest odd generator of theta^K is split off
        on the right, which keeps the order of the odd images.  The chain
        down to a cached entry is walked iteratively, so high degrees never
        recurse.  The returned dict is shared and must not be mutated.
        """
        table = self._mono_images if table is None else table
        target, source = self._layouts
        chain = []
        while key not in table:
            g = target.last_factor(key)
            chain.append((key, g))
            key -= g
        pair = table[key]
        for key, g in reversed(chain):
            pair = table[key] = _product(pair, table[g], source)
        return pair

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
        names = ("coord_images", "odd_images")
        return cls(*[[PolySuperFunc.from_json(source_nvars, source_odd, d)
                      for d in decode.items(images, name)]
                     for images, name in zip(decode.fields(data, "morphism", *names), names)])

    def __repr__(self):
        return "SuperMapData(%d|%d -> %d|%d)" % (
            self.source_nvars, self.source_odd, self.target_nvars, self.target_odd)


def _lowest(d, ints):
    """A cleared pair (d, {key: int}) with no zero int, in lowest terms."""
    g = gcd(d, *ints.values())
    if g > 1:
        d //= g
        ints = {k: v // g for k, v in ints.items()}
    return d, ints


def _product(a, b, lay):
    """Product of two cleared pairs on keys packed in lay, in lowest terms
    (sym_ext_ints keeps no zero)."""
    return _lowest(a[0] * b[0], sym_ext_ints(a[1], b[1], lay))


def _combine(weighted, d=1):
    """The sum of c * pair over the (int c, cleared pair) of weighted, over d,
    as one cleared pair in lowest terms, taken over the lcm of the pairs'
    denominators."""
    den = lcm(*[e for _, (e, _) in weighted])   # a list, as in scalars.cleared
    out = {}
    get = out.get
    for c, (e, img) in weighted:
        m = c * (den // e)
        for k, v in img.items():
            out[k] = get(k, 0) + m * v
    return _lowest(den * d, {k: v for k, v in out.items() if v})


def _nested_ints(phi, factors, eta):
    """Nested twisted commutators on cleared pairs: factors[-1] outermost,
    each a _base_factor pair (lifted, pulled), applied to the target pair
    eta; with no factor, the image of eta.  Level j is the linear map
    N_j(g) = N_{j-1}(f_j g) - (f_j o phi_0) N_{j-1}(g), N_0 the image and
    f_j = factors[j - 1] lifted to (d, {k: c_k}); on a pure even key x^e it
    is (sum c_k N_{j-1}(x^(e+k)) - d (f_j o phi_0) N_{j-1}(x^e)) / d, x^(e+k)
    packed as key + k, memoized per level for this call.  The factors are
    even, so on eta = sum of g_K theta^K, each g_K free of odd generators,
    the value is the sum of N_top(g_K) times phi(theta^K)."""
    target, source = phi._layouts
    levels = [phi._mono_images] + [{} for _ in factors]

    def column(j, key):
        pair = levels[j].get(key)
        if pair is None:
            if not j:
                return phi._monomial_image(key)
            (d, lifted), pulled = factors[j - 1]
            pair = levels[j][key] = _combine(
                [(c, column(j - 1, key + k)) for k, c in lifted.items()]
                + [(-d, _product(pulled, column(j - 1, key), source))], d)
        return pair

    tops = [(m, _combine([(c, column(len(factors), k ^ m)) for k, c in group], eta[0]))
            for m, group in by_mask(eta[1], target.lows[0]).items()]
    return _combine([(1, _product(pair, phi._monomial_image(m), source) if m else pair)
                     for m, pair in tops])


def _check_target(phi, f):
    if f.nvars != phi.target_nvars or f.odd_dim != phi.target_odd:
        raise ValueError("superfunction does not live on the target algebra")


def apply_map(phi, f):
    """Push a target superfunction through the morphism.

    Unital multiplicative substitution; nilpotency of the odd images
    truncates everything after finitely many terms.  The input is cleared
    and packed, _nested_ints sums its monomial images on ints, and one
    Fraction is built per surviving key of the result.
    """
    _check_target(phi, f)
    phi._widen(max_degree(f.terms))
    target, source = phi._layouts
    return PolySuperFunc._raw(phi.source_nvars, phi.source_odd,
                              source.rationals(*_nested_ints(phi, (), target.cleared(f.terms))))


def _base_factor(phi, f):
    """A base function f as the cleared pairs (f on the target algebra,
    f composed with the base map on the source algebra); the second is
    summed from the memo of body products, independent of the image memo."""
    empty = IndexSet()
    d, lifted = phi._layouts[0].cleared({(e, empty): c for e, c in f.terms.items()})
    return (d, lifted), _combine([(c, phi._monomial_image(k, phi._pulled))
                                  for k, c in lifted.items()], d)


def pull_function(phi, f):
    """Compose a polynomial on the target coordinates with the base map; into
    0|q, f is a constant."""
    if f.nvars != phi.target_nvars:
        raise ValueError("polynomial does not live on the target coordinates")
    phi._widen(max(f.total_degree(), 0))
    pulled = phi._layouts[1].rationals(*_base_factor(phi, f)[1])
    return Poly._raw(phi.source_nvars, {e: c for (e, _), c in pulled.items()})


def _widen_for_commutators(phi, fs, eta):
    # the largest element imaged is the product of eta with every f
    phi._widen(sum(max(f.total_degree(), 0) for f in fs) + max_degree(eta.terms))


def iterated_twisted_commutator(phi, fs, eta):
    """Nested twisted commutators, fs[0] innermost, applied to eta."""
    _check_target(phi, eta)
    _widen_for_commutators(phi, fs, eta)
    factors = [_base_factor(phi, f) for f in fs]
    target, source = phi._layouts
    nested = _nested_ints(phi, factors, target.cleared(eta.terms))
    return PolySuperFunc._raw(phi.source_nvars, phi.source_odd, source.rationals(*nested))


def twisted_commutator(phi, f, eta):
    """Value of the commutator with multiplication by a base function."""
    return iterated_twisted_commutator(phi, [f], eta)


def commutator_defect(phi, f):
    """Image of a base function minus its pullback; no degree-0 part."""
    return twisted_commutator(phi, f, PolySuperFunc.unit(phi.target_nvars, phi.target_odd))


def _random_poly(rng, nvars, max_degree=2):
    return Poly(nvars, {exps: rng.randint(-3, 3) for exps in _all_exponents(nvars, max_degree)})


def _all_exponents(nvars, max_degree):
    # the exponent vectors of total degree <= max_degree in increasing lex order
    return sorted(e for tot in range(max_degree + 1) for e in iter_multidegrees(nvars, tot))


def _random_superfunc(rng, nvars, odd_dim, max_degree=1):
    # one _random_poly coefficient per exterior monomial, drawn in the same order
    exps = _all_exponents(nvars, max_degree)
    keys = [k for r in range(odd_dim + 1) for k in combinations(range(1, odd_dim + 1), r)]
    return PolySuperFunc(nvars, odd_dim, {(e, k): rng.randint(-3, 3) for k in keys for e in exps})


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
    Both routes run on a random argument: the nested definition, one linear
    level at a time (_nested_ints), and the defects' product times its image.

    Both run on cleared pairs in lowest terms.  Each trial draws its base
    functions and argument first, widens the map's keys for their product,
    and lifts and pulls back each base function once.
    """
    depth = phi.source_odd // 2 + 1
    rng = random.Random(seed)
    n, q = phi.target_nvars, phi.target_odd
    # the unit of either algebra, key 0 at any width
    unit = 1, {0: 1}
    failures = []
    for t in range(trials):
        fs = [_random_poly(rng, n) for _ in range(depth)]
        eta = _random_superfunc(rng, n, q)
        _widen_for_commutators(phi, fs, eta)
        factors = [_base_factor(phi, f) for f in fs]
        target, source = phi._layouts
        prod = unit
        for factor in factors:
            prod = _product(prod, _nested_ints(phi, [factor], unit), source)
        eta = target.cleared(eta.terms)
        nested = _nested_ints(phi, factors, eta)
        if nested != _product(prod, _nested_ints(phi, (), eta), source):
            failures.append(("route-mismatch", t))
        if prod[1] or nested[1]:
            failures.append(("nonvanishing", t))
    return OrderBoundReport(depth, trials, failures)


class FiltrationReport:

    __slots__ = ("failures", "passed")

    def __init__(self, failures):
        self.failures = tuple(failures)
        self.passed = not self.failures


def filtration_check(phi):
    """Images of exterior-degree-r monomials keep filtration degree >= r; a
    zero image lies in every filtration degree.  An image's filtration
    degree is the least popcount of the odd masks of its packed keys."""
    n, q = phi.target_nvars, phi.target_odd
    # the layouts hold total degree 1 from construction on
    target, source = phi._layouts
    low = source.lows[0]
    probes = [(0,) * n]
    probes += [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
    failures = []
    for r in range(q + 1):
        for key in combinations(range(1, q + 1), r):
            for exps in probes:
                img = _nested_ints(phi, (), (1, {target.pack(exps, key): 1}))[1]
                if img and min((k & low).bit_count() for k in img) < r:
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
