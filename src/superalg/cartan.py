"""The bigraded algebra Sym V ⊗ Λ W with its contraction/multiplication
calculus: the degree-shifting boundary operators attached to linear maps
F: V → W and G: W → V, their anticommutator, exact homology tables, and the
twisted shift operators attached to an endomorphism.

Elements are finite sums of (multidegree, index set) monomials.  The Sym
factor is polynomial, so everything is accessed through explicit degree
cutoffs; no operator here ever needs the infinite tail.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .lincomb import LinComb, add_term, contract, merge_sign, replace, sym_ext_product
from .linalg import invert, mat_mul, rank, rref, sparse_rank
from .scalars import IndexSet, MultiDegree, iter_multidegrees, sym_dim


def as_matrix(rows, nrows, ncols):
    mat = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(mat) != nrows or any(len(r) != ncols for r in mat):
        raise ValueError("expected a %dx%d matrix" % (nrows, ncols))
    return mat


class BigradedElem(LinComb):

    __slots__ = ("sym_dim", "ext_dim")
    _DIMS = ("sym_dim", "ext_dim")

    def __init__(self, sym_dim_, ext_dim, terms=None):
        self.sym_dim = sym_dim_
        self.ext_dim = ext_dim
        out = {}
        for (alpha, key), c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            alpha = MultiDegree(alpha)
            key = IndexSet(key)
            if len(alpha) != sym_dim_:
                raise ValueError("multidegree needs %d slots" % sym_dim_)
            if key and key[-1] > ext_dim:
                raise ValueError("index out of range")
            out[(alpha, key)] = c
        self.terms = out

    @classmethod
    def unit(cls, n, m, coeff=1):
        return cls.monomial(n, m, (0,) * n, (), coeff)

    @classmethod
    def monomial(cls, n, m, alpha, key, coeff=1):
        return cls(n, m, {(tuple(alpha), tuple(key)): coeff})

    # algebra product: Sym degrees add, the Λ factors wedge
    mul = sym_ext_product

    def __mul__(self, other):
        if isinstance(other, BigradedElem):
            return self.mul(other)
        return self.scale(other)

    def bidegree_part(self, k, l):
        return BigradedElem._raw(
            self.sym_dim, self.ext_dim,
            {key: v for key, v in self.terms.items()
             if key[0].total == k and len(key[1]) == l})

    def bidegrees(self):
        return sorted({(alpha.total, len(key)) for alpha, key in self.terms})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (alpha, key) in sorted(self.terms, key=lambda t: (t[0].total, len(t[1]), t)):
            sym = "*".join("v%d^%d" % (i + 1, e) if e > 1 else "v%d" % (i + 1)
                           for i, e in enumerate(alpha) if e)
            ext = "^".join("w%d" % i for i in key)
            label = "*".join(x for x in (sym, ext) if x) or "1"
            bits.append("%s*%s" % (self.terms[(alpha, key)], label))
        return " + ".join(bits)


def sym_multiply(i, x):
    """v_i · on the Sym factor."""
    terms = {}
    for (alpha, key), c in x.terms.items():
        na = MultiDegree(alpha[t] + (1 if t == i - 1 else 0) for t in range(len(alpha)))
        terms[(na, key)] = terms.get((na, key), 0) + c
    return x._like({k: v for k, v in terms.items() if v})


def sym_contract(mu, x):
    """dv_mu ⌟ on the Sym factor (the partial derivative pairing)."""
    terms = {}
    for (alpha, key), c in x.terms.items():
        a = alpha[mu - 1]
        if not a:
            continue
        na = MultiDegree(alpha[t] - (1 if t == mu - 1 else 0) for t in range(len(alpha)))
        terms[(na, key)] = terms.get((na, key), 0) + a * c
    return x._like({k: v for k, v in terms.items() if v})


def ext_wedge(i, x):
    """w_i ∧ on the Λ factor."""
    terms = {}
    for (alpha, key), c in x.terms.items():
        nk, sign = merge_sign((i,), key)
        if nk is not None:
            add_term(terms, (alpha, nk), sign * c)
    return x._like(terms)


def ext_contract(mu, x):
    """dw_mu ⌟ on the Λ factor (alternating interior product)."""
    terms = {}
    for (alpha, key), c in x.terms.items():
        nk, sign = contract(key, mu)
        if nk is not None:
            add_term(terms, (alpha, nk), sign * c)
    return x._like(terms)


def _shape_FG(mat, x, direction):
    if direction == "F":
        m, n = len(mat), len(mat[0]) if mat else 0
        if n != x.sym_dim or m != x.ext_dim:
            raise ValueError("F must map the Sym side into the Λ side")
    else:
        n, m = len(mat), len(mat[0]) if mat else 0
        if n != x.sym_dim or m != x.ext_dim:
            raise ValueError("G must map the Λ side into the Sym side")


def d_F(F, x):
    """Σ_mu dv_mu ⌟ ⊗ F(v_mu) ∧; bidegree (-1, +1)."""
    _shape_FG(F, x, "F")
    out = BigradedElem.zero(x.sym_dim, x.ext_dim)
    for mu in range(1, x.sym_dim + 1):
        y = sym_contract(mu, x)
        if y.is_zero():
            continue
        for i in range(1, x.ext_dim + 1):
            c = F[i - 1][mu - 1]
            if c:
                out = out + ext_wedge(i, y).scale(c)
    return out


def d_star_G(G, x):
    """Σ_mu G(w_mu) · ⊗ dw_mu ⌟; bidegree (+1, -1)."""
    _shape_FG(G, x, "G")
    out = BigradedElem.zero(x.sym_dim, x.ext_dim)
    for mu in range(1, x.ext_dim + 1):
        y = ext_contract(mu, x)
        if y.is_zero():
            continue
        for j in range(1, x.sym_dim + 1):
            c = G[j - 1][mu - 1]
            if c:
                out = out + sym_multiply(j, y).scale(c)
    return out


def delta(F, G, x):
    """Anticommutator d_F d*_G + d*_G d_F."""
    return d_F(F, d_star_G(G, x)) + d_star_G(G, d_F(F, x))


def sym_derivation(M, x):
    """Derivation of the Sym factor extending the endomorphism M of V."""
    n = x.sym_dim
    out = BigradedElem.zero(n, x.ext_dim)
    for nu in range(1, n + 1):
        y = sym_contract(nu, x)
        if y.is_zero():
            continue
        for j in range(1, n + 1):
            c = M[j - 1][nu - 1]
            if c:
                out = out + sym_multiply(j, y).scale(c)
    return out


def ext_derivation(M, x):
    """Plain derivation of the Λ factor extending the endomorphism M of W."""
    m = x.ext_dim
    terms = {}
    for (alpha, key), c in x.terms.items():
        for mu in key:
            for i in range(1, m + 1):
                cm = M[i - 1][mu - 1]
                if not cm:
                    continue
                nk, sign = replace(key, mu, i)
                if nk is not None:
                    add_term(terms, (alpha, nk), sign * cm * c)
    return x._like(terms)


def delta_via_derivations(F, G, x):
    """The right side of the anticommutator identity: der_{GF} ⊗ id + id ⊗ der_{FG}."""
    GF = mat_mul(G, F)
    FG = mat_mul(F, G)
    return sym_derivation(GF, x) + ext_derivation(FG, x)


def bigraded_basis(n, m, k, l):
    if k < 0 or l < 0 or l > m:
        return []
    return [(MultiDegree(alpha), IndexSet(key))
            for alpha in iter_multidegrees(n, k)
            for key in combinations(range(1, m + 1), l)]


def operator_columns(op, n, m, src_kl, dst_kl):
    """Sparse columns of an operator A^{src} -> A^{dst}, one dict per source
    basis monomial.  Raises if the operator leaves the declared target."""
    dst_index = {key: i for i, key in enumerate(bigraded_basis(n, m, *dst_kl))}
    cols = []
    for (alpha, key) in bigraded_basis(n, m, *src_kl):
        y = op(BigradedElem.monomial(n, m, alpha, key))
        col = {}
        for t, c in y.terms.items():
            if t not in dst_index:
                raise ValueError("operator output escapes bidegree %s" % (dst_kl,))
            col[dst_index[t]] = c
        cols.append(col)
    return cols


def dF_columns_direct(F, n, m, k, l):
    """Second, index-level assembly of the d_F matrix on A^{k,l}; kept
    independent of the operator applicator on purpose."""
    dst_index = {key: i for i, key in enumerate(bigraded_basis(n, m, k - 1, l + 1))}
    cols = []
    for (alpha, key) in bigraded_basis(n, m, k, l):
        col = {}
        for mu in range(n):
            a = alpha[mu]
            if not a:
                continue
            na = tuple(alpha[t] - (1 if t == mu else 0) for t in range(n))
            for i in range(1, m + 1):
                c = F[i - 1][mu]
                nk, sign = merge_sign((i,), key)
                if not c or nk is None:
                    continue
                row = dst_index[(MultiDegree(na), nk)]
                col[row] = col.get(row, 0) + sign * a * c
        cols.append({r: v for r, v in col.items() if v})
    return cols


def _dim_A(n, m, k, l):
    if k < 0 or l < 0 or l > m:
        return 0
    return sym_dim(n, k) * comb(m, l)


def homology_dims(F, k_max, l_max, assembler="applicator"):
    """dim H^{k,l}(d_F) over 0 <= k <= k_max, 0 <= l <= l_max, exactly."""
    m, n = len(F), len(F[0]) if F else 0
    F = as_matrix(F, m, n)

    def columns(k, l):
        if _dim_A(n, m, k, l) == 0 or _dim_A(n, m, k - 1, l + 1) == 0:
            return None
        if assembler == "direct":
            return dF_columns_direct(F, n, m, k, l)
        return operator_columns(lambda x: d_F(F, x), n, m, (k, l), (k - 1, l + 1))

    ranks = {}

    def rank_at(k, l):
        if (k, l) not in ranks:
            cols = columns(k, l)
            ranks[(k, l)] = 0 if cols is None else sparse_rank(cols)
        return ranks[(k, l)]

    table = []
    for k in range(k_max + 1):
        row = []
        for l in range(l_max + 1):
            row.append(_dim_A(n, m, k, l) - rank_at(k, l) - rank_at(k + 1, l - 1))
        table.append(row)
    return table


def predicted_homology_dims(F, k_max, l_max):
    """Sym^k(ker F) ⊗ Λ^l(coker F) dimension table."""
    m, n = len(F), len(F[0]) if F else 0
    r = rank(F)
    ker, coker = n - r, m - r
    return [[sym_dim(ker, k) * comb(coker, l) for l in range(l_max + 1)]
            for k in range(k_max + 1)]


def dstar_homology_dims(G, k_max, l_max):
    """dim H^{k,l}(d*_G), same conventions; d*_G has bidegree (+1, -1)."""
    n, m = len(G), len(G[0]) if G else 0
    G = as_matrix(G, n, m)

    def columns(k, l):
        if _dim_A(n, m, k, l) == 0 or _dim_A(n, m, k + 1, l - 1) == 0:
            return None
        return operator_columns(lambda x: d_star_G(G, x), n, m, (k, l), (k + 1, l - 1))

    ranks = {}

    def rank_at(k, l):
        if (k, l) not in ranks:
            cols = columns(k, l)
            ranks[(k, l)] = 0 if cols is None else sparse_rank(cols)
        return ranks[(k, l)]

    table = []
    for k in range(k_max + 1):
        row = []
        for l in range(l_max + 1):
            row.append(_dim_A(n, m, k, l) - rank_at(k, l) - rank_at(k - 1, l + 1))
        table.append(row)
    return table


def predicted_dstar_homology_dims(G, k_max, l_max):
    """Sym^k(coker G) ⊗ Λ^l(ker G)."""
    n, m = len(G), len(G[0]) if G else 0
    r = rank(G)
    return [[sym_dim(n - r, k) * comb(m - r, l) for l in range(l_max + 1)]
            for k in range(k_max + 1)]


def twisted_shift_left(A, x):
    """A◁ = Σ_mu ds_mu · ⊗ A(s_mu) ⌟; bidegree (+1, -1) on Sym S* ⊗ Λ S*."""
    q = x.sym_dim
    if x.ext_dim != q or len(A) != q or any(len(r) != q for r in A):
        raise ValueError("twisted shifts need a square matrix on Sym S* ⊗ Λ S*")
    out = BigradedElem.zero(q, q)
    for mu in range(1, q + 1):
        acc = BigradedElem.zero(q, q)
        for nu in range(1, q + 1):
            c = A[nu - 1][mu - 1]
            if c:
                acc = acc + ext_contract(nu, x).scale(c)
        if not acc.is_zero():
            out = out + sym_multiply(mu, acc)
    return out


def twisted_shift_right(A, x):
    """A▷ = Σ_mu A(s_mu) ⌟ ⊗ ds_mu ∧; bidegree (-1, +1)."""
    q = x.sym_dim
    if x.ext_dim != q or len(A) != q or any(len(r) != q for r in A):
        raise ValueError("twisted shifts need a square matrix on Sym S* ⊗ Λ S*")
    out = BigradedElem.zero(q, q)
    for mu in range(1, q + 1):
        acc = BigradedElem.zero(q, q)
        for nu in range(1, q + 1):
            c = A[nu - 1][mu - 1]
            if c:
                acc = acc + sym_contract(nu, x).scale(c)
        if not acc.is_zero():
            out = out + ext_wedge(mu, acc)
    return out


def sym_transport(A, x):
    """Σ_mu ds_mu · (A s_mu) ⌟ on the Sym factor (degree 0)."""
    q = x.sym_dim
    out = BigradedElem.zero(q, x.ext_dim)
    for mu in range(1, q + 1):
        for nu in range(1, q + 1):
            c = A[nu - 1][mu - 1]
            if c:
                out = out + sym_multiply(mu, sym_contract(nu, x)).scale(c)
    return out


def ext_transport(A, x):
    """Σ_mu ds_mu ∧ (A s_mu) ⌟ on the Λ factor (degree 0)."""
    q = x.ext_dim
    out = BigradedElem.zero(x.sym_dim, q)
    for mu in range(1, q + 1):
        for nu in range(1, q + 1):
            c = A[nu - 1][mu - 1]
            if c:
                out = out + ext_wedge(mu, ext_contract(nu, x)).scale(c)
    return out


def retraction_for(F):
    """A linear G: W → V with G F equal to the projector onto the pivot-column
    complement of ker F.  Feeds the exactness identity for the anticommutator."""
    m, n = len(F), len(F[0]) if F else 0
    Fm = [list(map(Fraction, row)) for row in F]
    _, pivots = rref(Fm)
    J = pivots  # 0-based columns spanning a complement of the kernel
    img = [[Fm[i][j] for j in J] for i in range(m)]  # image basis, m x r
    cols = [list(col) for col in zip(*img)] if J else []
    # extend the image basis to all of W with standard vectors
    chosen = []
    for i in range(m):
        e = [Fraction(1) if t == i else Fraction(0) for t in range(m)]
        if rank(cols + chosen + [e]) > len(cols) + len(chosen):
            chosen.append(e)
        if len(cols) + len(chosen) == m:
            break
    M = [list(row) for row in zip(*(cols + chosen))]  # m x m invertible
    Minv = invert(M)
    R = [[Fraction(0)] * m for _ in range(n)]
    for t, j in enumerate(J):
        R[j][t] = Fraction(1)
    return as_matrix(mat_mul(R, Minv), n, m)
