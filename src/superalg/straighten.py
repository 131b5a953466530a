"""Commuting odd families of superderivations of Λ S* and the
degree-by-degree straightening solver.

Composing two superderivations is the non-associative product
(ω⊗s)·(ω̃⊗s̃) = ω ∧ (s ⌟ ω̃) ⊗ s̃ on Λ S* ⊗ S (derivations.comp_product).
A family of commuting odd superderivations with injective degree-zero part
is conjugated to its constant part by a generator substitution G; the solver
finds G one exterior degree at a time, each step being an exact linear solve
whose right-hand side is certified closed before solving.
"""

from fractions import Fraction
from itertools import combinations

from . import decode
from .derivations import SuperDerivation, comp_product
from .exterior import ExtElem, ds_space
from .lincomb import add_term, contract
from .linalg import nullspace, rank, reduced, solve, transpose
from .scalars import EVEN, ODD, IndexSet, format_scalar


def _insertion(space, fcol):
    """The odd superderivation f ⌟ ·: generator ds_ν goes to the scalar f_ν."""
    return SuperDerivation.from_terms(space, {((), nu): c for nu, c in enumerate(fcol, 1)}, ODD)


class OddFamily:
    """One odd superderivation of Λ S* per basis vector of V, each an
    element of Λ₊ S* ⊗ S (even exterior degrees only)."""

    __slots__ = ("dim_v", "dim_s", "comps")

    def __init__(self, dim_v, dim_s, comps):
        comps = tuple(comps)
        if len(comps) != dim_v:
            raise ValueError("need one component per basis vector of V")
        space = ds_space(dim_s)
        for comp in comps:
            if comp.space != space:
                raise ValueError("component lives in the wrong space")
            if comp.parity != ODD:
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
        return [[comp.terms.get(((), s), Fraction(0)) for comp in self.comps]
                for s in range(1, self.dim_s + 1)]

    def to_json(self):
        return {"dim_v": self.dim_v, "dim_s": self.dim_s, "components": [
            [{"coeff": format_scalar(comp.terms[kt]), "ext": list(kt[0]), "s": kt[1]}
             for kt in sorted(comp.terms, key=lambda kt: (len(kt[0]), kt))]
            for comp in self.comps]}

    @classmethod
    def from_json(cls, data):
        n, q, comps = decode.fields(data, "odd family", "dim_v", "dim_s", "components")
        n, q = decode.integer(n, "dim_v", 1), decode.integer(q, "dim_s", 1, 62)
        def read(coeff, ext, s):
            key = (decode.index_set(ext, "ext", q), decode.integer(s, "s", 1, q))
            return key, decode.scalar(coeff, "coeff")
        maps = [decode.terms(c, "component", read, "coeff", "ext", "s")
                for c in decode.items(comps, "components", n)]
        if any(len(k) % 2 for t in maps for (k, _), c in t.items() if c):
            raise ValueError("components must sit in even exterior degrees")
        space = ds_space(q)
        return cls(n, q, [SuperDerivation.from_terms(space, t, ODD) for t in maps])


def _square_vanishes(a, b):
    """Σ_ij dv_i dv_j ⊗ a_i·b_j = 0 in Sym² V* ⊗ (Λ S* ⊗ S), for equally long
    lists a, b of superderivations indexed by a basis of V.  As
    dv_i dv_j = dv_j dv_i, this is a_i·b_i = 0 for each i and
    a_i·b_j + a_j·b_i = 0 for i < j."""
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
        """G_μ, the even superderivation of exterior degree 2μ+1."""
        return SuperDerivation(self.space, EVEN, [im.degree_part(2 * mu + 1) for im in self.images])

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
        insert = _insertion(g.space, [f_mat[mu][i] for mu in range(q)])
        comps.append(SuperDerivation(g.space, ODD, [g.apply(insert(x)) for x in ginv]))
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
    space = ds_space(q)
    # D_parts[nu] lists the degree-2ν parts of the components
    D_parts = [[comp.degree_part(2 * nu) for comp in fam.comps] for nu in range(q // 2 + 1)]
    g_parts = {0: identity_straightening(q).component(0)}
    for mu in range(1, q + 1):
        # the right side Σ_i dv_i ⊗ rhs_parts[i]
        rhs_parts = [SuperDerivation.zero(space, ODD)] * n
        for nu in range(1, mu + 1):
            if 2 * nu > q or 2 * (mu - nu) + 1 > q:
                continue
            gk = g_parts.get(mu - nu)
            if gk is None or gk.is_zero():
                continue
            rhs_parts = [r - comp_product(part, gk) for r, part in zip(rhs_parts, D_parts[nu])]
        if not _square_vanishes(D_parts[0], rhs_parts):
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
        g_parts[mu] = SuperDerivation.from_terms(space, dict(zip(src, sol)), EVEN)
    return Straightening(q, sum(g_parts.values(), SuperDerivation.zero(space, EVEN)).images)


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
    for i, D in enumerate(fam.comps, start=1):
        insert = _insertion(g.space, [row[i - 1] for row in f_mat])
        for K, sigma in sigmas:
            if D(g.apply_to_monomial(K)) != g.apply(insert(sigma)):
                failures.append((i, K))
    return StraighteningReport(failures)
