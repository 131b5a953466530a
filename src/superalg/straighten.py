"""The (non-associative) composition algebra on Λ S* ⊗ S and the
degree-by-degree straightening solver.

A family of commuting odd superderivations with injective degree-zero part
is conjugated to its constant part by a generator substitution G; the solver
finds G one exterior degree at a time, each step being an exact linear solve
whose right-hand side is certified closed before solving.
"""

from fractions import Fraction
from itertools import combinations

from . import decode
from .derivations import SuperDerivation
from .exterior import ExtElem, ds_space
from .lincomb import LinComb, add_term, contract, merge_sign
from .linalg import nullspace, rank, reduced, solve, transpose
from .scalars import IndexSet, format_scalar


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
        def read(coeff, ext, s):
            key = (decode.index_set(ext, "ext", dim), decode.integer(s, "s", 1, dim))
            return key, decode.scalar(coeff, "coeff")
        return cls(dim, decode.terms(data, "component", read, "coeff", "ext", "s"))

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
    return SuperDerivation(ds_space(a.dim), parity, _target_images(a.dim, a.terms))


def _target_images(q, terms):
    """For each ν = 1..q, the ExtElem Σ c·ω over the terms (ω, ν) ↦ c of a
    CompElem term map: ds_ν's image under psi and under a Straightening."""
    space = ds_space(q)
    groups = [{} for _ in range(q)]
    for (key, s), c in terms.items():
        groups[s - 1][key] = c
    return [ExtElem._raw(space, g) for g in groups]


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

    def to_json(self):
        return {"dim_v": self.dim_v, "dim_s": self.dim_s,
                "components": [c.to_json() for c in self.comps]}

    @classmethod
    def from_json(cls, data):
        n, q, comps = decode.fields(data, "odd family", "dim_v", "dim_s", "components")
        n, q = decode.integer(n, "dim_v", 1), decode.integer(q, "dim_s", 1, 62)
        return cls(n, q, [CompElem.from_json(q, c)
                          for c in decode.items(comps, "components", n)])


def _square_vanishes(a, b):
    """Σ_ij dv_i dv_j ⊗ a_i·b_j = 0 in Sym² V* ⊗ (Λ S* ⊗ S), for equally long
    lists a, b of CompElem indexed by a basis of V.  As dv_i dv_j = dv_j dv_i,
    this is a_i·b_i = 0 for each i and a_i·b_j + a_j·b_i = 0 for i < j."""
    for i in range(len(a)):
        if not comp_product(a[i], b[i]).is_zero():
            return False
        for j in range(i + 1, len(a)):
            if not (comp_product(a[i], b[j]) + comp_product(a[j], b[i])).is_zero():
                return False
    return True


def family_is_commuting(fam):
    """D·D = 0 for D = Σ_i dv_i ⊗ D_i; by polarization this is the vanishing
    of all pairwise superbrackets."""
    return _square_vanishes(fam.comps, fam.comps)


class Straightening:
    """Generator images ds_ν ↦ ds_ν + (odd higher-degree corrections).

    The images are immutable after construction, so each G(ds_K) is built
    once per instance and kept in _memo, which == and to_json ignore."""

    __slots__ = ("dim_s", "images", "_memo")

    def __init__(self, dim_s, images):
        images = tuple(images)
        if len(images) != dim_s:
            raise ValueError("need one image per generator")
        space = ds_space(dim_s)
        for nu, im in enumerate(images, start=1):
            if im.space != space:
                raise ValueError("image lives in the wrong space")
            if im.degree_part(1) != ExtElem.generator(space, nu):
                raise ValueError("degree-1 part must be the identity substitution")
            if any(len(k) % 2 == 0 for k in im.terms):
                raise ValueError("images must have odd exterior degrees")
        self.dim_s = dim_s
        self.images = images
        self._memo = {(): ExtElem.unit(space)}

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
        """Multiplicative extension on ds_key, key strictly increasing in
        1..dim_s and checked on a memo miss only.  A new entry is the one
        wedge G(ds_K[:-1]) ∧ G(ds_K[-1]), factors left to right; it is shared."""
        key = tuple(key)
        out = self._memo.get(key)
        if out is None:
            head = self.apply_to_monomial(key[:-1])
            last, prev = key[-1], key[-2] if len(key) > 1 else 0
            if type(last) is not int or not prev < last <= self.dim_s:
                raise ValueError("%r is not strictly increasing in 1..%d" % (key, self.dim_s))
            out = self._memo[key] = head.wedge(self.images[last - 1])
        return out

    def apply(self, x):
        """Linear extension of apply_to_monomial to an exterior element."""
        terms = {}
        for key, c in x.terms.items():
            for k, v in self.apply_to_monomial(key).terms.items():
                add_term(terms, k, c * v)
        return ExtElem._raw(self.space, terms)

    def to_json(self):
        return {"dim_s": self.dim_s, "images": [im.to_json() for im in self.images]}

    @classmethod
    def from_json(cls, data):
        q, images = decode.fields(data, "straightening", "dim_s", "images")
        space = ds_space(decode.integer(q, "dim_s", 1, 62))
        return cls(q, [ExtElem.from_json(space, im) for im in decode.items(images, "images", q)])


def identity_straightening(q):
    space = ds_space(q)
    return Straightening(q, [ExtElem.generator(space, nu) for nu in range(1, q + 1)])


def subst_inverse_image(g, nu):
    """G⁻¹(ds_ν), certified by applying G to it."""
    # unipotent fixpoint iteration: x <- ds_nu - (G - id)(x)
    target = ExtElem.generator(g.space, nu)
    x = target
    for _ in range(g.dim_s // 2 + 1):
        x = target - (g.apply(x) - x)
    if g.apply(x) != target:
        raise ValueError("substitution inverse did not converge at ds%d" % nu)
    return x


def conjugated_family(f_mat, g):
    """The family v ↦ G ∘ (f(v) ⌟) ∘ G⁻¹ as generator-image data; it commutes
    by construction and its constant part is the q x n matrix f."""
    q = g.dim_s
    n = len(f_mat[0]) if f_mat else 0
    ginv = [subst_inverse_image(g, nu) for nu in range(1, q + 1)]
    comps = []
    for i in range(n):
        fcol = [f_mat[mu][i] for mu in range(q)]
        terms = {}
        for nu in range(1, q + 1):
            img = g.apply(ginv[nu - 1].insert(fcol))
            for key, c in img.terms.items():
                terms[(key, nu)] = c
        comps.append(CompElem(q, terms))
    return OddFamily(n, q, comps)


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
    """Sparse coefficient rows spanning Λ^{2μ+1}(ker f*) ⊗ S inside the unknown space."""
    kernel = nullspace(transpose(f_mat), ncols=q)
    if len(kernel) < 2 * mu + 1:
        return []
    space = ds_space(q)
    kvecs = [ExtElem(space, {(nu,): c for nu, c in enumerate(v, start=1)}) for v in kernel]
    rows = []
    for pick in combinations(range(len(kvecs)), 2 * mu + 1):
        w = ExtElem.unit(space)
        for p in pick:
            w = w.wedge(kvecs[p])
        if w.is_zero():
            continue
        for t in range(1, q + 1):
            rows.append({src_index[(key, t)]: c for key, c in w.terms.items()})
    return rows


def _canonicalize(sol, kernel_rows):
    """sol reduced modulo the span of the sparse kernel_rows: the one
    representative with zeros at the pivots of their reduced echelon form."""
    for p, row in reduced(kernel_rows).items():
        f = sol[p]
        if f:
            for c, v in row.items():
                sol[c] -= f * v
    return sol


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
    D0 = [comp.degree_part(0) for comp in fam.comps]
    g_parts = {0: identity_straightening(q).component(0)}
    for mu in range(1, q + 1):
        # the right side Σ_i dv_i ⊗ rhs_parts[i]
        rhs_parts = [CompElem.zero(q)] * n
        for nu in range(1, mu + 1):
            if 2 * nu > q or 2 * (mu - nu) + 1 > q:
                continue
            gk = g_parts.get(mu - nu)
            if gk is None or gk.is_zero():
                continue
            rhs_parts = [r - comp_product(comp.degree_part(2 * nu), gk)
                         for r, comp in zip(rhs_parts, fam.comps)]
        if not _square_vanishes(D0, rhs_parts):
            raise RuntimeError("internal invariant violated: right-hand side not closed")
        if 2 * mu + 1 > q:
            if not all(r.is_zero() for r in rhs_parts):
                raise RuntimeError("internal invariant violated: unsolvable level %d" % mu)
            continue
        src, dst, cols = level_operator_columns(f_mat, q, mu)
        rows = [{} for _ in dst]
        for c, col in enumerate(cols):
            for r, v in col.items():
                rows[r][c] = v
        rhs = [0] * len(dst)
        dst_index = {key: r for r, key in enumerate(dst)}
        for i, part in enumerate(rhs_parts, start=1):
            for (key, s), c in part.terms.items():
                rhs[dst_index[(i, key, s)]] = c
        sol = solve(rows, rhs, len(src))
        if sol is None:
            raise RuntimeError("internal invariant violated: inconsistent level %d" % mu)
        src_index = {key: c for c, key in enumerate(src)}
        sol = _canonicalize(sol, _kernel_rows(f_mat, q, mu, src_index))
        g_parts[mu] = CompElem(q, {kt: c for kt, c in zip(src, sol) if c})
    return Straightening(q, _target_images(q, {kt: c for part in g_parts.values()
                                               for kt, c in part.terms.items()}))


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
    f_mat = fam.f_matrix()
    sigmas = [(K, ExtElem.monomial(g.space, K)) for K in g.space.basis()]
    failures = []
    for i in range(1, fam.dim_v + 1):
        D = fam.as_superderivation(i)
        fcol = [row[i - 1] for row in f_mat]
        for K, sigma in sigmas:
            if D(g.apply_to_monomial(K)) != g.apply(sigma.insert(fcol)):
                failures.append((i, K))
    return StraighteningReport(failures)
