"""The bigraded algebra Sym V ⊗ Λ W with its contraction/multiplication
calculus: the degree-shifting boundary operators attached to linear maps
F: V → W and G: W → V, their anticommutator, and exact homology tables.
The twisted shifts A▷ and A◁ of an endomorphism A of S, on Sym S* ⊗ Λ S*,
are the boundary maps d_F and d*_G of the transpose F = G = Aᵗ, and the two
transports are the derivations of Aᵗ; each is computed through that operator.

Elements are PolySuperFunc values on n Sym and m Λ generators: finite sums
of (multidegree, index set) monomials.  The Sym factor is polynomial, so
everything is accessed through explicit degree cutoffs; no operator here
ever needs the infinite tail.

A homology table ranks the blocks of its boundary map bidegree by bidegree.
One block assembler serves the whole table: it clears the matrix to ints
once, and builds the index maps and move tables of each Sym degree k and
each Λ degree l on first use; each block then only scatters products of
those tables into its rows.  Nothing outlives the table.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

from .lincomb import add_term, contract, merge_sign
from .linalg import echelon, invert, mat_mul, rank, sparse_rank, transpose
from .scalars import IndexSet, MultiDegree, cleared, iter_multidegrees, sym_dim
from .supermaps import PolySuperFunc

_new = tuple.__new__


def as_matrix(rows, nrows, ncols):
    mat = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(mat) != nrows or any(len(r) != ncols for r in mat):
        raise ValueError("expected a %dx%d matrix" % (nrows, ncols))
    return mat


def sym_multiply(i, x):
    """v_i · on the Sym factor."""
    # one image monomial per monomial, so nothing collects or cancels
    terms = {}
    for (alpha, key), c in x.terms.items():
        terms[(_new(MultiDegree, alpha[:i - 1] + (alpha[i - 1] + 1,) + alpha[i:]), key)] = c
    return x._like(terms)


def sym_contract(mu, x):
    """dv_mu ⌟ on the Sym factor (the partial derivative pairing)."""
    # one image monomial per surviving monomial, as in sym_multiply
    terms = {}
    for (alpha, key), c in x.terms.items():
        a = alpha[mu - 1]
        if a:
            terms[(_new(MultiDegree, alpha[:mu - 1] + (a - 1,) + alpha[mu:]), key)] = a * c
    return x._like(terms)


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
        if n != x.nvars or m != x.odd_dim:
            raise ValueError("F must map the Sym side into the Λ side")
    else:
        n, m = len(mat), len(mat[0]) if mat else 0
        if n != x.nvars or m != x.odd_dim:
            raise ValueError("G must map the Λ side into the Sym side")


def _raise_lower(M, raise_, lower, nraise, nlower, x):
    """Σ_{i, mu} M[i][mu] · raise_i ∘ lower_mu (x), for i = 1..nraise and
    mu = 1..nlower."""
    terms = {}
    for mu in range(1, nlower + 1):
        y = lower(mu, x)
        if y.is_zero():
            continue
        for i in range(1, nraise + 1):
            c = M[i - 1][mu - 1]
            if c:
                for key, v in raise_(i, y).terms.items():
                    add_term(terms, key, c * v)
    return x._like(terms)


def d_F(F, x):
    """Σ_mu dv_mu ⌟ ⊗ F(v_mu) ∧; bidegree (-1, +1)."""
    _shape_FG(F, x, "F")
    return _raise_lower(F, ext_wedge, sym_contract, x.odd_dim, x.nvars, x)


def d_star_G(G, x):
    """Σ_mu G(w_mu) · ⊗ dw_mu ⌟; bidegree (+1, -1)."""
    _shape_FG(G, x, "G")
    return _raise_lower(G, sym_multiply, ext_contract, x.nvars, x.odd_dim, x)


def delta(F, G, x):
    """Anticommutator d_F d*_G + d*_G d_F."""
    return d_F(F, d_star_G(G, x)) + d_star_G(G, d_F(F, x))


def sym_derivation(M, x):
    """Derivation of the Sym factor extending the endomorphism M of V:
    Σ_{j, nu} M[j][nu] v_j · ∘ dv_nu ⌟."""
    return _raise_lower(M, sym_multiply, sym_contract, x.nvars, x.nvars, x)


def ext_derivation(M, x):
    """Plain derivation of the Λ factor extending the endomorphism M of W:
    Σ_{i, mu} M[i][mu] w_i ∧ ∘ dw_mu ⌟."""
    return _raise_lower(M, ext_wedge, ext_contract, x.odd_dim, x.odd_dim, x)


def delta_via_derivations(F, G, x):
    """The right side of the anticommutator identity: der_{GF} ⊗ id + id ⊗ der_{FG}."""
    GF = mat_mul(G, F)
    FG = mat_mul(F, G)
    return sym_derivation(GF, x) + ext_derivation(FG, x)


def _keys(m, l):
    return list(combinations(range(1, m + 1), l)) if 0 <= l <= m else []


def bigraded_basis(n, m, k, l):
    return [(MultiDegree(alpha), IndexSet(key))
            for alpha in iter_multidegrees(n, k) for key in _keys(m, l)]


def operator_columns(op, n, m, src_kl, dst_kl):
    """Sparse columns of an operator A^{src} -> A^{dst}, one dict per source
    basis monomial.  Raises if the operator leaves the declared target."""
    dst_index = {key: i for i, key in enumerate(bigraded_basis(n, m, *dst_kl))}
    cols = []
    for (alpha, key) in bigraded_basis(n, m, *src_kl):
        y = op(PolySuperFunc.monomial(n, m, alpha, key))
        col = {}
        for t, c in y.terms.items():
            if t not in dst_index:
                raise ValueError("operator output escapes bidegree %s" % (dst_kl,))
            col[dst_index[t]] = c
        cols.append(col)
    return cols


def _block_assembler(F, n, m, direction):
    """The boundary_block(F, n, m, k, l, direction) of one matrix and
    direction, as a function of (k, l).  Built once per assembler: the int
    coefficient matrix, and on first use the index maps of each Sym degree k
    and Λ degree l, the Sym move table of each k and the Λ move table of
    each l.  Built once per block: only its rows."""
    if direction == "F":
        coeff = transpose(as_matrix(F, m, n))
        dk, dl = -1, 1
    elif direction == "G":
        coeff = as_matrix(F, n, m)
        dk, dl = 1, -1
    else:
        raise ValueError("direction must be 'F' or 'G'")
    ints = cleared(x for row in coeff for x in row)[1]
    coeff = [ints[s * m:(s + 1) * m] for s in range(n)]  # coeff[sym][ext]

    @cache
    def alphas(k):
        return {a: t for t, a in enumerate(iter_multidegrees(n, k))}

    @cache
    def keys(l):
        return {key: t for t, key in enumerate(_keys(m, l))}

    @cache
    def sym_moves(k):
        # (Sym generator, factor, target multidegree index) per source
        # multidegree: dv_s ⌟ x^a = a_s x^(a - e_s), v_s · x^a = x^(a + e_s)
        dst = alphas(k + dk)
        return [[(s, alpha[s] if dk < 0 else 1,
                  dst[alpha[:s] + (alpha[s] + dk,) + alpha[s + 1:]])
                 for s in range(n) if dk > 0 or alpha[s]] for alpha in alphas(k)]

    @cache
    def ext_moves(l):
        # per source index set and Sym generator s: (target key index,
        # sign * coeff[s][i]) for each Λ generator i it moves, zeros dropped,
        # the sign (-1)^t for i at position t of the target or source key
        dst = keys(l + dl)
        table = []
        for key in keys(l):
            if dl > 0:
                hits = [(i, bisect_left(key, i)) for i in range(1, m + 1) if i not in key]
                hits = [(i, t, key[:t] + (i,) + key[t:]) for i, t in hits]
            else:
                hits = [(i, t, key[:t] + key[t + 1:]) for t, i in enumerate(key)]
            table.append([[(dst[nk], -cs[i - 1] if t & 1 else cs[i - 1])
                           for i, t, nk in hits if cs[i - 1]] for cs in coeff])
        return table

    def block(k, l):
        width = len(keys(l + dl))
        rows = [{} for _ in range(len(alphas(k + dk)) * width)]
        col = 0
        for smoves in sym_moves(k):
            for emoves in ext_moves(l):
                for s, a, t in smoves:
                    offset = t * width
                    for e, c in emoves[s]:
                        rows[offset + e][col] = a * c
                col += 1
        return rows

    return block


def boundary_block(F, n, m, k, l, direction):
    """Sparse int rows of d_F (direction "F", F an m x n matrix) from
    A^{k,l} to A^{k-1,l+1}, or of d*_G (direction "G", F the n x m matrix G)
    from A^{k,l} to A^{k+1,l-1}: one {column: int} dict per monomial of the
    target in bigraded_basis order, columns in the basis order of the source.

    The matrix is scaled by the lcm of its denominators, which leaves every
    rank unchanged.  A term of either operator is a move on the Sym factor
    (dv_mu ⌟ or v_j ·) times a move on the Λ factor (w_i ∧ or dw_mu ⌟), and
    the pair of moves fixes the target monomial, so no entry is collected.
    By target rows, echelon takes about half the steps it takes by columns.
    One block of _block_assembler, whose tables a homology table shares
    across its blocks."""
    return _block_assembler(F, n, m, direction)(k, l)


def _dim_A(n, m, k, l):
    if k < 0 or l < 0 or l > m:
        return 0
    return sym_dim(n, k) * comb(m, l)


def _homology_table(F, n, m, k_max, l_max, direction):
    """dim A^{k,l} less the ranks of the boundary map of the direction out of
    (k, l) and into it.  One _block_assembler builds every block, so the int
    matrix is cleared once per table and each degree's move table is built
    once, while each block builds only its rows."""
    dk, dl = (-1, 1) if direction == "F" else (1, -1)
    block = _block_assembler(F, n, m, direction)
    ranks = {}

    def rank_at(k, l):
        if (k, l) not in ranks:
            if _dim_A(n, m, k, l) == 0 or _dim_A(n, m, k + dk, l + dl) == 0:
                ranks[(k, l)] = 0
            else:
                ranks[(k, l)] = sparse_rank(block(k, l))
        return ranks[(k, l)]

    return [[_dim_A(n, m, k, l) - rank_at(k, l) - rank_at(k - dk, l - dl)
             for l in range(l_max + 1)] for k in range(k_max + 1)]


def homology_table_size(m, n, k_max, l_max):
    """The basis elements of every bidegree homology_dims reads for an m x n
    F, counted without building any: the table 0 <= k <= k_max,
    0 <= l <= l_max, the sources (k_max + 1, l) of the maps out of degree
    k_max + 1, and the targets (k, l_max + 1) of the maps into it, each
    block counted only when both its ends are nonzero, as _homology_table
    skips the others.  A sum of sym_dim(n, k) over k <= K is
    sym_dim(n + 1, K)."""
    def ext(l):  # the dims of Λ^0 .. Λ^l of W
        return sum(comb(m, t) for t in range(min(l, m) + 1))

    size = sym_dim(n + 1, k_max) * ext(l_max)
    if n and l_max < m:
        size += sym_dim(n + 1, k_max - 1) * comb(m, l_max + 1)
    if l_max:
        size += sym_dim(n, k_max + 1) * ext(min(l_max - 1, m - 1))
    return size


def homology_dims(F, k_max, l_max):
    """dim H^{k,l}(d_F) over 0 <= k <= k_max, 0 <= l <= l_max, exactly."""
    m, n = len(F), len(F[0]) if F else 0
    return _homology_table(F, n, m, k_max, l_max, "F")


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
    return _homology_table(G, n, m, k_max, l_max, "G")


def predicted_dstar_homology_dims(G, k_max, l_max):
    """Sym^k(coker G) ⊗ Λ^l(ker G)."""
    n, m = len(G), len(G[0]) if G else 0
    r = rank(G)
    return [[sym_dim(n - r, k) * comb(m - r, l) for l in range(l_max + 1)]
            for k in range(k_max + 1)]


def _checked_transpose(A, x):
    """Aᵗ, once A is known to be a square matrix on the S of x = Sym S* ⊗ Λ S*."""
    q = x.nvars
    if x.odd_dim != q or len(A) != q or any(len(r) != q for r in A):
        raise ValueError("twisted shifts need a square matrix on Sym S* ⊗ Λ S*")
    return transpose(A)


def twisted_shift_left(A, x):
    """A◁ = Σ_mu ds_mu · ⊗ A(s_mu) ⌟ = d*_G with G = Aᵗ; bidegree (+1, -1)."""
    return d_star_G(_checked_transpose(A, x), x)


def twisted_shift_right(A, x):
    """A▷ = Σ_mu A(s_mu) ⌟ ⊗ ds_mu ∧ = d_F with F = Aᵗ; bidegree (-1, +1)."""
    return d_F(_checked_transpose(A, x), x)


def sym_transport(A, x):
    """Σ_mu ds_mu · (A s_mu) ⌟ on the Sym factor: the derivation of Aᵗ."""
    return sym_derivation(transpose(A), x)


def ext_transport(A, x):
    """Σ_mu ds_mu ∧ (A s_mu) ⌟ on the Λ factor: the derivation of Aᵗ."""
    return ext_derivation(transpose(A), x)


def retraction_for(F):
    """A linear G: W → V with G F equal to the projector onto the pivot-column
    complement of ker F.  Feeds the exactness identity for the anticommutator."""
    m, n = len(F), len(F[0]) if F else 0
    J = sorted(echelon(dict(enumerate(row)) for row in F))  # e_j, j in J, span V / ker F
    cols = [[Fraction(F[i][j]) for i in range(m)] for j in J]  # image basis
    # complete it to a basis of W with the e_i at which no image vector ends:
    # the non-pivots of its echelon with the columns in reversed order
    ends = echelon({m - 1 - i: v for i, v in enumerate(col)} for col in cols)
    chosen = [[Fraction(int(t == i)) for t in range(m)]
              for i in range(m) if m - 1 - i not in ends]
    Minv = invert(transpose(cols + chosen))
    G = [[0] * m for _ in range(n)]
    for t, j in enumerate(J):
        G[j] = Minv[t]
    return as_matrix(G, n, m)
