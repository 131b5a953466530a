"""The (non-associative) composition algebra on Λ S* ⊗ S, its polynomial
version over Sym V*, and the degree-by-degree straightening solver.

A family of commuting odd superderivations with injective degree-zero part
is conjugated to its constant part by a generator substitution G; the solver
finds G one exterior degree at a time, each step being an exact linear solve
whose right-hand side is certified closed before solving.
"""

from fractions import Fraction
from itertools import combinations

from .derivations import SuperDerivation, superbracket
from .exterior import ExtElem, ExtSpace
from .lincomb import LinComb, add_term, contract, merge_sign
from .linalg import nullspace, rank, rref, solve
from .scalars import IndexSet, MultiDegree, format_scalar, parse_scalar


def _ds_space(q):
    return ExtSpace(q, tuple("ds%d" % i for i in range(1, q + 1)))


class CompElem(LinComb):
    """Element of Λ S* ⊗ S: finite sum of (index set, target generator) terms."""

    __slots__ = ("dim",)
    _DIMS = ("dim",)

    def __init__(self, dim, terms=None):
        self.dim = dim
        out = {}
        for (key, s), c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            key = IndexSet(key)
            if key and key[-1] > dim:
                raise ValueError("index out of range")
            if not 1 <= s <= dim:
                raise ValueError("target generator %d out of range" % s)
            out[(key, s)] = c
        self.terms = out

    @classmethod
    def monomial(cls, dim, key, s, coeff=1):
        return cls(dim, {(tuple(key), s): coeff})

    def lambda_degrees(self):
        return sorted({len(k) for k, _ in self.terms})

    def degree_part(self, deg):
        return CompElem._raw(self.dim,
                             {kt: v for kt, v in self.terms.items() if len(kt[0]) == deg})

    def is_lambda_homogeneous(self):
        return len(self.lambda_degrees()) <= 1

    def has_pure_degree_parity(self, parity):
        return all(len(k) % 2 == parity for k, _ in self.terms)

    def to_json(self):
        rows = []
        for (key, s) in sorted(self.terms, key=lambda kt: (len(kt[0]), kt[0], kt[1])):
            rows.append({"coeff": format_scalar(self.terms[(key, s)]),
                         "ext": list(key), "s": s})
        return rows

    @classmethod
    def from_json(cls, dim, data):
        if not isinstance(data, list):
            raise ValueError("expected a list of terms")
        terms = {}
        for row in data:
            if not isinstance(row, dict) or not {"coeff", "ext", "s"} <= set(row):
                raise ValueError("each term needs coeff, ext, s")
            s = row["s"]
            if isinstance(s, bool) or not isinstance(s, int):
                raise ValueError("term field s must be an integer, got %r" % (s,))
            key = (IndexSet(row["ext"]), s)
            if key in terms:
                raise ValueError("duplicate term %s" % (key,))
            terms[key] = parse_scalar(row["coeff"])
        return cls(dim, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (key, s) in sorted(self.terms, key=lambda kt: (len(kt[0]), kt[0], kt[1])):
            ext = "^".join("ds%d" % i for i in key) or "1"
            bits.append("%s*%s@s%d" % (self.terms[(key, s)], ext, s))
        return " + ".join(bits)


def comp_product(a, b):
    """(ω⊗s)·(ω̃⊗s̃) = ω ∧ (s ⌟ ω̃) ⊗ s̃, extended bilinearly.  Not associative."""
    a._check(b)
    terms = {}
    for (ka, sa), ca in a.terms.items():
        for (kb, sb), cb in b.terms.items():
            mid, sgn1 = contract(kb, sa)
            if mid is None:
                continue
            key, sgn2 = merge_sign(ka, mid)
            if key is not None:
                add_term(terms, (key, sb), sgn1 * sgn2 * ca * cb)
    return a._like(terms)


def comp_bracket(a, b):
    """a·b − (−1)^{(|σ|+1)(|σ̂|+1)} b·a on Λ-homogeneous elements; matches the
    superbracket of the corresponding superderivations."""
    if not (a.is_lambda_homogeneous() and b.is_lambda_homogeneous()):
        raise ValueError("bracket needs Λ-homogeneous operands")
    da = (a.lambda_degrees() or [0])[0]
    db = (b.lambda_degrees() or [0])[0]
    sign = -1 if ((da + 1) * (db + 1)) % 2 else 1
    return comp_product(a, b) - comp_product(b, a).scale(sign)


def psi(a):
    """The superderivation of Λ S* with generator images ds_ν ↦ Σ ω (over the
    terms ω⊗s_ν of a).  Needs all Λ-degrees of one parity."""
    degs = a.lambda_degrees()
    if len({d % 2 for d in degs}) > 1:
        raise ValueError("mixed Λ-degree parity has no derivation parity")
    parity = (degs[0] + 1) % 2 if degs else 1
    space = _ds_space(a.dim)
    images = [ExtElem.zero(space) for _ in range(a.dim)]
    for (key, s), c in a.terms.items():
        images[s - 1] = images[s - 1] + ExtElem.monomial(space, key, c)
    return SuperDerivation(space, parity, images)


class PolyCompElem(LinComb):
    """Element of Sym V* ⊗ Λ S* ⊗ S."""

    __slots__ = ("sym_dim", "dim")
    _DIMS = ("sym_dim", "dim")

    def __init__(self, sym_dim, dim, terms=None):
        self.sym_dim = sym_dim
        self.dim = dim
        out = {}
        for (alpha, key, s), c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            alpha = MultiDegree(alpha)
            key = IndexSet(key)
            if len(alpha) != sym_dim:
                raise ValueError("multidegree needs %d slots" % sym_dim)
            if (key and key[-1] > dim) or not 1 <= s <= dim:
                raise ValueError("index out of range")
            out[(alpha, key, s)] = c
        self.terms = out


def poly_comp_product(a, b):
    """Polynomial coefficients multiply, the composition parts compose."""
    a._check(b)
    terms = {}
    for (aa, ka, sa), ca in a.terms.items():
        for (ab, kb, sb), cb in b.terms.items():
            mid, sgn1 = contract(kb, sa)
            if mid is None:
                continue
            key, sgn2 = merge_sign(ka, mid)
            if key is not None:
                t = (MultiDegree(x + y for x, y in zip(aa, ab)), key, sb)
                add_term(terms, t, sgn1 * sgn2 * ca * cb)
    return a._like(terms)


class OddFamily:
    """One odd superderivation of Λ S* per basis vector of V, each stored as
    an element of Λ₊ S* ⊗ S (even exterior degrees only)."""

    __slots__ = ("dim_v", "dim_s", "comps")

    def __init__(self, dim_v, dim_s, comps):
        comps = tuple(comps)
        if len(comps) != dim_v:
            raise ValueError("need one component per basis vector of V")
        for comp in comps:
            if comp.dim != dim_s:
                raise ValueError("component lives in the wrong space")
            if not comp.has_pure_degree_parity(0):
                raise ValueError("components must sit in even exterior degrees")
        self.dim_v = dim_v
        self.dim_s = dim_s
        self.comps = comps

    def __eq__(self, other):
        if not isinstance(other, OddFamily):
            return NotImplemented
        return (self.dim_v, self.dim_s, self.comps) == \
            (other.dim_v, other.dim_s, other.comps)

    __hash__ = None

    def f_matrix(self):
        """pr∘D: the constant part, as a dim_s x dim_v matrix."""
        f = [[Fraction(0)] * self.dim_v for _ in range(self.dim_s)]
        for i, comp in enumerate(self.comps):
            for (key, s), c in comp.terms.items():
                if not key:
                    f[s - 1][i] = c
        return f

    def as_superderivation(self, i):
        return psi(self.comps[i - 1])

    def as_poly(self, mu=None):
        """The family as Σ_i dv_i ⊗ D_i, optionally one exterior level 2μ."""
        terms = {}
        for i, comp in enumerate(self.comps):
            alpha = MultiDegree(1 if t == i else 0 for t in range(self.dim_v))
            src = comp if mu is None else comp.degree_part(2 * mu)
            for (key, s), c in src.terms.items():
                terms[(alpha, key, s)] = c
        return PolyCompElem(self.dim_v, self.dim_s, terms)

    def to_json(self):
        return {"dim_v": self.dim_v, "dim_s": self.dim_s,
                "components": [c.to_json() for c in self.comps]}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or not {"dim_v", "dim_s", "components"} <= set(data):
            raise ValueError("expected keys dim_v, dim_s, components")
        n, q = int(data["dim_v"]), int(data["dim_s"])
        if not isinstance(data["components"], list) or len(data["components"]) != n:
            raise ValueError("need %d components" % n)
        return cls(n, q, [CompElem.from_json(q, c) for c in data["components"]])


def family_is_commuting(fam):
    """D·D = 0 in the polynomial composition algebra; by polarization this is
    the vanishing of all pairwise superbrackets."""
    D = fam.as_poly()
    return poly_comp_product(D, D).is_zero()


class Straightening:
    """Generator images ds_ν ↦ ds_ν + (odd higher-degree corrections)."""

    __slots__ = ("dim_s", "images")

    def __init__(self, dim_s, images):
        images = tuple(images)
        if len(images) != dim_s:
            raise ValueError("need one image per generator")
        space = _ds_space(dim_s)
        for nu, im in enumerate(images, start=1):
            if im.space != space:
                raise ValueError("image lives in the wrong space")
            if im.degree_part(1) != ExtElem.generator(space, nu):
                raise ValueError("degree-1 part must be the identity substitution")
            if any(len(k) % 2 == 0 for k in im.terms):
                raise ValueError("images must have odd exterior degrees")
        self.dim_s = dim_s
        self.images = images

    @property
    def space(self):
        return self.images[0].space

    def __eq__(self, other):
        if not isinstance(other, Straightening):
            return NotImplemented
        return self.dim_s == other.dim_s and self.images == other.images

    __hash__ = None

    def component(self, mu):
        """G_μ as a CompElem (exterior degree 2μ+1)."""
        terms = {}
        for nu, im in enumerate(self.images, start=1):
            for key, c in im.degree_part(2 * mu + 1).terms.items():
                terms[(key, nu)] = c
        return CompElem(self.dim_s, terms)

    def apply_to_monomial(self, key):
        """Multiplicative extension on ds_key."""
        out = ExtElem.unit(self.space)
        for k in key:
            out = out.wedge(self.images[k - 1])
        return out

    def to_json(self):
        return {"dim_s": self.dim_s, "images": [im.to_json() for im in self.images]}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or not {"dim_s", "images"} <= set(data):
            raise ValueError("expected keys dim_s, images")
        q = int(data["dim_s"])
        space = _ds_space(q)
        return cls(q, [ExtElem.from_json(space, im) for im in data["images"]])


def identity_straightening(q):
    space = _ds_space(q)
    return Straightening(q, [ExtElem.generator(space, nu) for nu in range(1, q + 1)])


def level_operator_columns(f_mat, q, mu):
    """Sparse columns of composition-by-D₀ from Λ^{2μ+1} S* ⊗ S into
    V* ⊗ Λ^{2μ} S* ⊗ S, both sides in their monomial bases."""
    n = len(f_mat[0]) if f_mat else 0
    src = [(IndexSet(K), t) for K in combinations(range(1, q + 1), 2 * mu + 1)
           for t in range(1, q + 1)]
    dst = [(i, IndexSet(L), t) for i in range(1, n + 1)
           for L in combinations(range(1, q + 1), 2 * mu) for t in range(1, q + 1)]
    dst_index = {key: r for r, key in enumerate(dst)}
    cols = []
    for (K, t) in src:
        col = {}
        for s in K:
            rest, sgn = contract(K, s)
            for i in range(1, n + 1):
                c = f_mat[s - 1][i - 1]
                if c:
                    r = dst_index[(i, rest, t)]
                    col[r] = col.get(r, 0) + sgn * c
        cols.append({r: v for r, v in col.items() if v})
    return src, dst, cols


def _kernel_rows(f_mat, q, mu, src_index):
    """Coefficient rows spanning Λ^{2μ+1}(ker f*) ⊗ S inside the unknown space."""
    n = len(f_mat[0]) if f_mat else 0
    f_star = [[f_mat[muu][i] for muu in range(q)] for i in range(n)]  # n x q
    kernel = nullspace(f_star, ncols=q)
    if len(kernel) < 2 * mu + 1:
        return []
    space = _ds_space(q)
    kvecs = []
    for v in kernel:
        e = ExtElem.zero(space)
        for nu, c in enumerate(v, start=1):
            if c:
                e = e + ExtElem.generator(space, nu).scale(c)
        kvecs.append(e)
    rows = []
    for pick in combinations(range(len(kvecs)), 2 * mu + 1):
        w = ExtElem.unit(space)
        for p in pick:
            w = w.wedge(kvecs[p])
        if w.is_zero():
            continue
        for t in range(1, q + 1):
            row = [Fraction(0)] * len(src_index)
            for key, c in w.terms.items():
                row[src_index[(key, t)]] = c
            rows.append(row)
    return rows


def _canonicalize(sol, kernel_rows):
    if not kernel_rows:
        return sol
    R, pivots = rref(kernel_rows)
    out = list(sol)
    for r, c in enumerate(pivots):
        f = out[c]
        if f:
            out = [x - f * y for x, y in zip(out, R[r])]
    return out


def straighten(fam):
    """Solve the level equations D₀·G_μ = −(D_μ·G₀ + … + D₁·G_{μ−1}) in order.

    Preconditions: the family commutes and its constant part is injective.
    Each right-hand side is certified closed (composition with D₀ vanishes)
    before its solve; a failure there or an inconsistent system means a broken
    internal invariant, not bad input."""
    if not family_is_commuting(fam):
        raise ValueError("family is not commuting")
    n, q = fam.dim_v, fam.dim_s
    f_mat = fam.f_matrix()
    if rank(f_mat) != n:
        raise ValueError("constant part is not injective")
    space = _ds_space(q)
    images = [ExtElem.generator(space, nu) for nu in range(1, q + 1)]
    D0 = fam.as_poly(0)
    g_parts = {0: identity_straightening(q).component(0)}
    for mu in range(1, q + 1):
        rhs_poly = PolyCompElem.zero(n, q)
        for nu in range(1, mu + 1):
            if 2 * nu > q or 2 * (mu - nu) + 1 > q:
                continue
            gk = g_parts.get(mu - nu)
            if gk is None or gk.is_zero():
                continue
            gk_poly = PolyCompElem(n, q, {(MultiDegree((0,) * n), key, s): c
                                          for (key, s), c in gk.terms.items()})
            rhs_poly = rhs_poly - poly_comp_product(fam.as_poly(nu), gk_poly)
        if not poly_comp_product(D0, rhs_poly).is_zero():
            raise RuntimeError("internal invariant violated: right-hand side not closed")
        if 2 * mu + 1 > q:
            if not rhs_poly.is_zero():
                raise RuntimeError("internal invariant violated: unsolvable level %d" % mu)
            continue
        src, dst, cols = level_operator_columns(f_mat, q, mu)
        rows = [[Fraction(0)] * len(src) for _ in dst]
        for c, col in enumerate(cols):
            for r, v in col.items():
                rows[r][c] = v
        rhs = [Fraction(0)] * len(dst)
        dst_index = {key: r for r, key in enumerate(dst)}
        for (alpha, key, s), c in rhs_poly.terms.items():
            i = next(t for t, a in enumerate(alpha, start=1) if a)
            rhs[dst_index[(i, key, s)]] = c
        sol = solve(rows, rhs)
        if sol is None:
            raise RuntimeError("internal invariant violated: inconsistent level %d" % mu)
        src_index = {key: c for c, key in enumerate(src)}
        sol = _canonicalize(sol, _kernel_rows(f_mat, q, mu, src_index))
        terms = {}
        for (K, t), c in zip(src, sol):
            if c:
                terms[(K, t)] = c
                images[t - 1] = images[t - 1] + ExtElem.monomial(space, K, c)
        g_parts[mu] = CompElem(q, terms)
    return Straightening(q, images)


class StraighteningReport:

    __slots__ = ("passed", "failures")

    def __init__(self, failures):
        self.failures = tuple(failures)
        self.passed = not self.failures


def verify_straightening(fam, g):
    """Exact check of D_v(G σ) = G(f(v) ⌟ σ) on every basis vector of V and
    every exterior monomial σ, with G extended as a unital algebra morphism."""
    if fam.dim_s != g.dim_s:
        raise ValueError("family and straightening sizes differ")
    q = fam.dim_s
    f_mat = fam.f_matrix()
    space = g.space
    failures = []
    for i in range(1, fam.dim_v + 1):
        D = fam.as_superderivation(i)
        for size in range(q + 1):
            for K in combinations(range(1, q + 1), size):
                lhs = D(g.apply_to_monomial(K))
                rhs = ExtElem.zero(space)
                for s in K:
                    rest, sgn = contract(K, s)
                    c = f_mat[s - 1][i - 1]
                    if c:
                        rhs = rhs + g.apply_to_monomial(rest).scale(sgn * c)
                if lhs != rhs:
                    failures.append((i, K))
    return StraighteningReport(failures)
