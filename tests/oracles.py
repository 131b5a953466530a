"""Slow independent oracles shared by the test modules.

Everything here recomputes expected values from first principles, without
going through the package's own data structures.  The boundary-operator
and twisted-shift oracles are the exception: they compose the package's
Sym ⊗ Λ elements, but add whole elements term by term instead of collecting
into one dict, and sum each operator from its own definition rather than
through the boundary map it equals.  The super de Rham oracles likewise work
on the package's SuperForm and Poly elements: curvature_by_components sums
the coefficients of R = dA + A^A from partials and products, super_d_direct
applies the super exterior derivative term by term in Poly arithmetic, and the
cohomology and Delta oracles rank the images of one SuperForm per basis
monomial in Fraction, through the fiberwise shifts written here on tuple
keys (shift_direct), and the supermap commutator oracles multiply whole
PolySuperFunc elements through apply_map, with base functions pulled back
by Fraction Poly substitution (pull_function_direct).  The Lie superalgebra
oracle reads brackets through LieSuperData.bracket and sums dense Fraction
vectors.  The jet oracles work in Poly arithmetic: one shifts, truncates
and shifts back, the other applies the operator to every basis section
(x − p)^β.  The exterior oracles multiply whole ExtElem elements with
ExtElem.wedge: leibniz_by_wedges builds head ∧ image ∧ tail for every slot,
and the straightening oracles wedge the generator images left to right
without a memo.  comp_product_by_pairs composes two superderivations on
their term maps in Λ S* ⊗ S, one contraction and one wedge per pair of
terms, and replace is super_d_direct's own contract-then-wedge step.
fraction_evaluate evaluates a Poly in Fraction.
echelon_eager is the integer echelon as it removed a row's content after
every step; linalg.echelon must store the same primitive rows.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd
from operator import add
import random

from superalg.cartan import ext_contract, ext_wedge
from superalg.exterior import ExtElem
from superalg.jets import PolySection, jet_multidegrees
from superalg.liesuper import LieCheckReport
from superalg.lincomb import add_term, contract, merge_sign
from superalg.poly import Poly
from superalg.scalars import IndexSet, MultiDegree, cleared, iter_multidegrees
from superalg.sderham import DeltaComponentReport, DeltaReport, SuperForm
from superalg.supermaps import (
    OrderBoundReport,
    PolySuperFunc,
    _random_poly,
    _random_superfunc,
    apply_map,
)


def fraction_sparse_rank(rows):
    """Rank of a sparse rational matrix given as dicts col -> value, by an
    incremental echelon computed entirely in Fraction.  The nonempty rows
    are taken shortest first, which keeps the fill-in of the long ones
    small."""
    pivots = {}
    rank_ = 0
    rows = [{c: Fraction(v) for c, v in r.items() if v} for r in rows]
    for row in sorted(filter(None, rows), key=len):
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = 1 / row[c]
                pivots[c] = {cc: vv * inv for cc, vv in row.items()}
                rank_ += 1
                break
            f = row.pop(c)
            for cc, vv in piv.items():
                if cc == c:
                    continue
                nv = row.get(cc, 0) - f * vv
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    return rank_


def echelon_eager(rows):
    """linalg.echelon as it was with content removal after every step: the
    same row order, clearing and reduction, but the row divided by its
    content at the head of every step, so it is primitive whenever a pivot
    is looked up."""
    todo = [r for r in rows if r][::-1]
    todo.sort(key=len)
    pivots = {}
    for r in todo:
        row = {c: v for c, v in r.items() if v}
        if not all(type(v) is int for v in row.values()):
            row = dict(zip(row, cleared(row.values())[1]))
        while row:
            g = gcd(*row.values())
            if g > 1:
                row = {cc: vv // g for cc, vv in row.items()}
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            f = row.pop(c)
            pc = piv[c]
            g = gcd(f, pc)
            a, p = f // g, pc // g
            if p != 1:
                for cc in row:
                    row[cc] *= p
            for cc, vv in piv.items():
                if cc == c:
                    continue
                nv = row.get(cc, 0) - a * vv
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    return pivots


def fraction_rref(rows):
    """Reduced row echelon form with least-index pivots, by dense
    Gauss-Jordan elimination in Fraction.  Returns (matrix, pivot_cols)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    if not m:
        return m, pivots
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def fraction_sym_ext_terms(ta, tb):
    """Product in Sym ⊗ Λ of two term maps on (MultiDegree, IndexSet) keys,
    computed entirely in Fraction, one accumulation per pair of terms."""
    out = {}
    for (e1, k1), c1 in ta.items():
        for (e2, k2), c2 in tb.items():
            key, sign = merge_sign(k1, k2)
            if key is None:
                continue
            add_term(out, (MultiDegree(map(add, e1, e2)), key),
                     c1 * c2 if sign > 0 else -(c1 * c2))
    return out


def echelon_nullity(rows, ncols):
    """Nullity of a sparse rational matrix given as dicts col -> value."""
    return ncols - fraction_sparse_rank(rows)


def _sym_multiply(i, x):
    """v_i · on the Sym factor, collecting into a fresh dict."""
    terms = {}
    for (alpha, key), c in x.terms.items():
        na = MultiDegree(alpha[t] + (1 if t == i - 1 else 0) for t in range(len(alpha)))
        terms[(na, key)] = terms.get((na, key), 0) + c
    return x._like({k: v for k, v in terms.items() if v})


def _sym_contract(mu, x):
    """dv_mu ⌟ on the Sym factor, collecting into a fresh dict."""
    terms = {}
    for (alpha, key), c in x.terms.items():
        a = alpha[mu - 1]
        if not a:
            continue
        na = MultiDegree(alpha[t] - (1 if t == mu - 1 else 0) for t in range(len(alpha)))
        terms[(na, key)] = terms.get((na, key), 0) + a * c
    return x._like({k: v for k, v in terms.items() if v})


def composed_d_F(F, x):
    """d_F as a sum of whole elements: one contract, wedge, scale and
    addition per (mu, i)."""
    out = PolySuperFunc.zero(x.nvars, x.odd_dim)
    for mu in range(1, x.nvars + 1):
        y = _sym_contract(mu, x)
        if y.is_zero():
            continue
        for i in range(1, x.odd_dim + 1):
            c = F[i - 1][mu - 1]
            if c:
                out = out + ext_wedge(i, y).scale(c)
    return out


def composed_d_star_G(G, x):
    """d*_G as a sum of whole elements: one contract, multiply, scale and
    addition per (mu, j)."""
    out = PolySuperFunc.zero(x.nvars, x.odd_dim)
    for mu in range(1, x.odd_dim + 1):
        y = ext_contract(mu, x)
        if y.is_zero():
            continue
        for j in range(1, x.nvars + 1):
            c = G[j - 1][mu - 1]
            if c:
                out = out + _sym_multiply(j, y).scale(c)
    return out


def _square_on_S(A, x):
    q = x.nvars
    if x.odd_dim != q or len(A) != q or any(len(r) != q for r in A):
        raise ValueError("twisted shifts need a square matrix on Sym S* ⊗ Λ S*")
    return q


def shift_left_loop(A, x):
    """A◁ = Σ_mu ds_mu · ⊗ A(s_mu) ⌟, summed from its definition."""
    q = _square_on_S(A, x)
    out = PolySuperFunc.zero(q, q)
    for mu in range(1, q + 1):
        acc = PolySuperFunc.zero(q, q)
        for nu in range(1, q + 1):
            c = A[nu - 1][mu - 1]
            if c:
                acc = acc + ext_contract(nu, x).scale(c)
        if not acc.is_zero():
            out = out + _sym_multiply(mu, acc)
    return out


def shift_right_loop(A, x):
    """A▷ = Σ_mu A(s_mu) ⌟ ⊗ ds_mu ∧, summed from its definition."""
    q = _square_on_S(A, x)
    out = PolySuperFunc.zero(q, q)
    for mu in range(1, q + 1):
        acc = PolySuperFunc.zero(q, q)
        for nu in range(1, q + 1):
            c = A[nu - 1][mu - 1]
            if c:
                acc = acc + _sym_contract(nu, x).scale(c)
        if not acc.is_zero():
            out = out + ext_wedge(mu, acc)
    return out


def sym_transport_loop(A, x):
    """Σ_mu ds_mu · (A s_mu) ⌟ on the Sym factor, summed from its definition."""
    q = x.nvars
    out = PolySuperFunc.zero(q, x.odd_dim)
    for mu in range(1, q + 1):
        for nu in range(1, q + 1):
            c = A[nu - 1][mu - 1]
            if c:
                out = out + _sym_multiply(mu, _sym_contract(nu, x)).scale(c)
    return out


def ext_transport_loop(A, x):
    """Σ_mu ds_mu ∧ (A s_mu) ⌟ on the Λ factor, summed from its definition."""
    q = x.odd_dim
    out = PolySuperFunc.zero(x.nvars, q)
    for mu in range(1, q + 1):
        for nu in range(1, q + 1):
            c = A[nu - 1][mu - 1]
            if c:
                out = out + ext_wedge(mu, ext_contract(nu, x)).scale(c)
    return out


def recursive_multidegrees(nvars, total):
    """All exponent vectors of length nvars summing to total, in decreasing
    lex order, by recursion on the first exponent."""
    if nvars == 0:
        if total == 0:
            yield MultiDegree(())
        return
    for first in range(total, -1, -1):
        for rest in recursive_multidegrees(nvars - 1, total - first):
            yield MultiDegree((first,) + tuple(rest))


def combination_multidegrees(nvars, total):
    """All exponent vectors of length nvars summing to total, in decreasing
    lex order, counted up from sorted index tuples in increasing lex order."""
    if total < 0:
        return
    for combo in combinations_with_replacement(range(nvars), total):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield MultiDegree(exps)


def wedge_mono(a, b):
    """Product of two sorted index tuples: (sorted union, sign) or (None, 0)."""
    if set(a) & set(b):
        return None, 0
    seq = list(a) + list(b)
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return tuple(sorted(seq)), (-1) ** inv


def _bump(row, c, v):
    nv = row.get(c, 0) + v
    if nv:
        row[c] = nv
    else:
        row.pop(c, None)


def _superfunc_mul(a, b):
    """Product of superfunctions given as dicts (exps, odd index tuple) -> value."""
    out = {}
    for (e1, k1), c1 in a.items():
        for (e2, k2), c2 in b.items():
            key, sign = wedge_mono(k1, k2)
            if key is not None:
                _bump(out, (tuple(x + y for x, y in zip(e1, e2)), key), sign * c1 * c2)
    return out


def naive_apply_map(coord_images, odd_images, source_nvars, f):
    """Image of f under the unital algebra map sending target coordinate j + 1
    to coord_images[j] and target odd generator a + 1 to odd_images[a].

    All superfunctions are dicts (exps, odd index tuple) -> value.  Each term
    of f is expanded as the plain product of one image per factor: coordinates
    first, then the odd generators in increasing order, left to right.
    """
    out = {}
    for (exps, key), c in f.items():
        term = {((0,) * source_nvars, ()): Fraction(c)}
        for j, e in enumerate(exps):
            for _ in range(e):
                term = _superfunc_mul(term, coord_images[j])
        for a in key:
            term = _superfunc_mul(term, odd_images[a - 1])
        for k, v in term.items():
            _bump(out, k, v)
    return out


def pull_function_direct(phi, f):
    """f composed with the base map by Fraction Poly substitution of the
    bodies of the coordinate images; into 0|q, f is a constant."""
    if not phi.coord_images:
        return Poly.constant(phi.source_nvars, f.evaluate(()))
    return f.compose(list(phi.base_map()))


def commutator_defect_direct(phi, f):
    """Image of a base function minus its pullback, as whole elements."""
    img = apply_map(phi, PolySuperFunc.from_poly(f, phi.target_odd))
    return img - PolySuperFunc.from_poly(pull_function_direct(phi, f), phi.source_odd)


def iterated_twisted_commutator_direct(phi, fs, eta):
    """Nested twisted commutators, fs[0] innermost, applied to eta, in
    Fraction elements: every level of the recursion lifts and pulls back its
    own f and multiplies whole PolySuperFuncs."""
    if not fs:
        return apply_map(phi, eta)
    last = fs[-1]
    lifted = PolySuperFunc.from_poly(last, phi.target_odd)
    pulled = PolySuperFunc.from_poly(pull_function_direct(phi, last), phi.source_odd)
    return (iterated_twisted_commutator_direct(phi, fs[:-1], lifted * eta)
            - pulled * iterated_twisted_commutator_direct(phi, fs[:-1], eta))


def order_bound_check_direct(phi, trials=6, seed=0):
    """order_bound_check on Fraction elements, drawing the same random base
    functions and argument per trial: the defect product times apply_map
    against the nested commutators."""
    depth = phi.source_odd // 2 + 1
    rng = random.Random(seed)
    n, q = phi.target_nvars, phi.target_odd
    failures = []
    for t in range(trials):
        fs = [_random_poly(rng, n) for _ in range(depth)]
        prod = PolySuperFunc.unit(phi.source_nvars, phi.source_odd)
        for f in fs:
            prod = prod * commutator_defect_direct(phi, f)
        eta = _random_superfunc(rng, n, q)
        nested = iterated_twisted_commutator_direct(phi, fs, eta)
        if nested != prod * apply_map(phi, eta):
            failures.append(("route-mismatch", t))
        if not prod.is_zero() or not nested.is_zero():
            failures.append(("nonvanishing", t))
    return OrderBoundReport(depth, trials, failures)


def filtration_failures_direct(phi):
    """filtration_check's failures from the Fraction images: the probes
    1, x_j times each odd monomial ds_K whose image has a term of exterior
    degree below |K|."""
    n, q = phi.target_nvars, phi.target_odd
    probes = [(0,) * n] + [tuple(int(t == j) for t in range(n)) for j in range(n)]
    return [(MultiDegree(e), IndexSet(k))
            for r in range(q + 1) for k in combinations(range(1, q + 1), r) for e in probes
            if any(len(key) < r for _, key in apply_map(phi, PolySuperFunc.monomial(n, q, e, k)).terms)]


def leibniz_solution_dim(n, mode):
    """Dimension of the space of operators on the rank-n exterior algebra
    solving the Leibniz linear system, set up over the full matrix space.

    mode 'plain' imposes D(ab) = D(a)b + aD(b) with no further constraint;
    'Z2' and 'Z' add parity resp. degree preservation; 'even' and 'odd' are
    the two homogeneous superderivation systems (signed Leibniz for 'odd',
    plus the matching operator-parity constraint).
    """
    monos = [()]
    for k in range(1, n + 1):
        monos.extend(combinations(range(1, n + 1), k))
    idx = {mono: i for i, mono in enumerate(monos)}
    m = len(monos)

    def col(target, source):
        return idx[target] * m + idx[source]

    rows = []
    for A in monos:
        s_a = -1 if (mode == "odd" and len(A) % 2) else 1
        set_a = set(A)
        for B in monos:
            set_b = set(B)
            ab, s_ab = wedge_mono(A, B)
            for C in monos:
                set_c = set(C)
                row = {}
                if ab is not None:
                    _bump(row, col(C, ab), s_ab)
                if set_b <= set_c:
                    k1 = tuple(i for i in C if i not in set_b)
                    _, s1 = wedge_mono(k1, B)
                    _bump(row, col(k1, A), -s1)
                if set_a <= set_c:
                    k2 = tuple(i for i in C if i not in set_a)
                    _, s2 = wedge_mono(A, k2)
                    _bump(row, col(k2, B), -s_a * s2)
                if row:
                    rows.append(row)
    for C in monos:
        for K in monos:
            drop = False
            if mode in ("Z2", "even"):
                drop = (len(C) - len(K)) % 2 == 1
            elif mode == "Z":
                drop = len(C) != len(K)
            elif mode == "odd":
                drop = (len(C) - len(K)) % 2 == 0
            if drop:
                rows.append({col(C, K): 1})
    return echelon_nullity(rows, m * m)


def _bump_slot(sym, alpha, delta):
    return MultiDegree(e + delta if t == alpha - 1 else e for t, e in enumerate(sym))


def curvature_by_components(conn):
    """R = dA + A^A component by component: the coefficient of dx_i dx_j,
    i < j, in R_gb is d_i A_gb,j - d_j A_gb,i + sum_k (A_gk,i A_kb,j -
    A_gk,j A_kb,i), with no wedge of forms."""
    m, n = conn.dim_base, conn.dim_odd
    out = [[{} for _ in range(n)] for _ in range(n)]
    for g in range(1, n + 1):
        for b in range(1, n + 1):
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    p = conn.entry(g, b, j).partial(i) - conn.entry(g, b, i).partial(j)
                    for k in range(1, n + 1):
                        p = p + conn.entry(g, k, i) * conn.entry(k, b, j) \
                              - conn.entry(g, k, j) * conn.entry(k, b, i)
                    if not p.is_zero():
                        out[g - 1][b - 1][IndexSet((i, j))] = p
    return out


def replace(key, i, j):
    """Contract generator i, then wedge generator j on the left: the result
    and product sign of the two steps, or (None, 0) when i is absent or j
    survives in the rest."""
    rest, s1 = contract(key, i)
    if rest is None:
        return None, 0
    out, s2 = merge_sign((j,), rest)
    return out, s1 * s2


def super_d_direct(conn, omega):
    """The super exterior derivative applied term by term in Poly arithmetic.

    Per term f dx_A ds^b ds_C the three pieces act as
      dx_i ^ (coefficient derivative + dual connection action on sym and ext),
      (-1)^(a+b) sym-shift of each ext slot with the alternating contraction sign,
      (-1)^(a+b-1) curvature shift moving a sym slot into ext under R's 2-form.
    """
    if (conn.dim_base, conn.dim_odd) != (omega.dim_base, omega.dim_odd):
        raise ValueError("connection and form dimensions differ")
    m, n = omega.dim_base, omega.dim_odd
    curv = conn.curvature
    acc = {}
    for (dxs, sym, ext), f in omega.terms.items():
        a = len(dxs)
        b = sym.total
        # twisted exterior derivative
        for i in range(1, m + 1):
            nk, msign = merge_sign((i,), dxs)
            if nk is None:
                continue
            dp = f.partial(i)
            if not dp.is_zero():
                add_term(acc, (nk, sym, ext), dp.scale(msign))
            for al in range(1, n + 1):
                e = sym[al - 1]
                if not e:
                    continue
                for be in range(1, n + 1):
                    c = conn.entry(al, be, i)
                    if c.is_zero():
                        continue
                    nsym = _bump_slot(_bump_slot(sym, al, -1), be, 1)
                    add_term(acc, (nk, nsym, ext), (f * c).scale(-e * msign))
            for g in ext:
                for be in range(1, n + 1):
                    c = conn.entry(g, be, i)
                    if c.is_zero():
                        continue
                    next_, ssign = replace(ext, g, be)
                    if next_ is None:
                        continue
                    add_term(acc, (nk, sym, next_), (f * c).scale(-ssign * msign))
        # identity left shift, ext slot to sym
        nsign = -1 if (a + b) % 2 else 1
        for mu in ext:
            next_, csign = contract(ext, mu)
            add_term(acc, (dxs, _bump_slot(sym, mu, 1), next_), f.scale(nsign * csign))
        # curvature right shift, sym slot to ext under the 2-form
        if b:
            rsign = -1 if (a + b - 1) % 2 else 1
            for mu in range(1, n + 1):
                next_, isign = merge_sign((mu,), ext)
                if next_ is None:
                    continue
                for nu in range(1, n + 1):
                    e = sym[nu - 1]
                    if not e:
                        continue
                    two = curv[nu - 1][mu - 1]
                    if not two:
                        continue
                    nsym = _bump_slot(sym, nu, -1)
                    for dkey, rp in two.items():
                        nk, msign = merge_sign(dkey, dxs)
                        if nk is None:
                            continue
                        add_term(acc, (nk, nsym, next_),
                                 (f * rp).scale(rsign * e * msign * isign))
    return SuperForm(m, n, acc)


def shift_direct(omega, side, number_signed=False):
    """A fiberwise shift of a SuperForm on its tuple keys.  side "left"
    contracts each ds_mu of the ext block into sym slot mu with the sign of
    its position; side "right" moves one ds^mu of the sym block onto the
    front of the ext block, times its multiplicity and the wedge sign.
    number_signed multiplies the image of a term of form degree p by
    (-1)^(p-1)."""
    acc = {}
    for (dxs, sym, ext), f in omega.terms.items():
        if number_signed and not (len(dxs) + sym.total) % 2:
            f = -f
        if side == "left":
            for mu in ext:
                rest, sign = contract(ext, mu)
                add_term(acc, (dxs, _bump_slot(sym, mu, 1), rest), f.scale(sign))
        else:
            for mu, e in enumerate(sym, 1):
                rest, sign = merge_sign((mu,), ext)
                if e and rest is not None:
                    add_term(acc, (dxs, _bump_slot(sym, mu, -1), rest), f.scale(e * sign))
    return SuperForm(omega.dim_base, omega.dim_odd, acc)


def form_vector(omega):
    """{(dxs, sym, ext, exps): Fraction} of a superform."""
    return {(dxs, sym, ext, exps): c for (dxs, sym, ext), p in omega.terms.items()
            for exps, c in p.terms.items()}


def _basis_forms(m, n, dx_degrees, sym_degree_of, poly_cut, ext_sizes):
    out = []
    for a in dx_degrees:
        for dxs in combinations(range(1, m + 1), a):
            for sym in iter_multidegrees(n, sym_degree_of(a)):
                for c in ext_sizes:
                    for ext in combinations(range(1, n + 1), c):
                        for tot in range(poly_cut + 1):
                            for exps in iter_multidegrees(m, tot):
                                out.append(SuperForm.monomial(m, n, dxs, sym, ext).mul_poly(
                                    Poly.monomial(m, exps)))
    return out


def _degree_forms(m, n, k, poly_cut):
    return _basis_forms(m, n, range(min(m, k) + 1), lambda a: k - a, poly_cut, range(n + 1))


def cohomology_dims_direct(conn, k, poly_cut):
    """cohomology_dims by ranking super_d_direct of one SuperForm per basis
    monomial in Fraction.  The image is taken from degree k - 1 forms at the
    slack-widened cutoff poly_cut + (k + n + 1)(1 + 2g) + 1, g the degree of
    the connection, not at cohomology_dims's poly_cut + 1, so agreement also
    checks that the narrower block holds every primitive the wide one does."""
    m, n = conn.dim_base, conn.dim_odd
    if k < 0:
        return 0
    basis_k = _degree_forms(m, n, k, poly_cut)
    ker_dim = len(basis_k) - fraction_sparse_rank(
        form_vector(super_d_direct(conn, w)) for w in basis_k)
    if k == 0:
        return ker_dim
    allowed = set().union(*(form_vector(w) for w in basis_k))
    g = max([p.total_degree() for row in conn.comps for cell in row for p in cell] + [0])
    slack = (k + n + 1) * (1 + 2 * g) + 1
    images = [form_vector(super_d_direct(conn, w))
              for w in _degree_forms(m, n, k - 1, poly_cut + slack)]
    outside = [{key: v for key, v in row.items() if key not in allowed} for row in images]
    return ker_dim - (fraction_sparse_rank(images) - fraction_sparse_rank(outside))


def homotopy_primitive(omega):
    """A primitive of a closed superform of degree >= 1, from the homotopies.

    Theta = {d, T} acts as lambda = |sym| + |ext| on each monomial, so the
    part omega_lambda with lambda > 0 is d(T omega_lambda / lambda), T the
    number-signed right shift.  The pure base part (lambda = 0) is d of its
    radial homotopy K: x^e dx_I goes to (1 / (|e| + |I|)) times the
    contraction of the Euler field sum x_i d/dx_i into it, raising the
    coefficient degree by one."""
    m, n = omega.dim_base, omega.dim_odd
    parts = {}
    for (dxs, sym, ext), f in omega.terms.items():
        parts.setdefault(sym.total + len(ext), {})[(dxs, sym, ext)] = f
    out = SuperForm.zero(m, n)
    for lam, terms in parts.items():
        if lam:
            out = out + shift_direct(SuperForm(m, n, terms), "right", True).scale(Fraction(1, lam))
            continue
        acc = {}
        for (dxs, sym, ext), f in terms.items():
            for exps, c in f.terms.items():
                for r, i in enumerate(dxs):
                    rest = tuple(j for j in dxs if j != i)
                    x = Poly.monomial(m, tuple(e + (t == i - 1) for t, e in enumerate(exps)),
                                      c * (-1) ** r / (sum(exps) + len(dxs)))
                    add_term(acc, (rest, sym, ext), x)
        out = out + SuperForm(m, n, acc)
    return out


def delta_kernel_check_direct(conn, total_degree_cut, poly_cut):
    """delta_kernel_check on SuperForms: Theta = super_d_direct T + T super_d_direct
    per basis monomial, compared as elements, ranked in Fraction."""
    m, n = conn.dim_base, conn.dim_odd
    comps = []
    for a in range(min(m, total_degree_cut) + 1):
        for b in range(total_degree_cut - a + 1):
            for c in range(n + 1):
                basis = _basis_forms(m, n, (a,), lambda _a: b, poly_cut, (c,))
                if not basis:
                    continue
                lam = b + c
                images = [super_d_direct(conn, shift_direct(w, "right", True))
                          + shift_direct(super_d_direct(conn, w), "right", True) for w in basis]
                braces = [shift_direct(shift_direct(w, "right"), "left")
                          + shift_direct(shift_direct(w, "left"), "right") for w in basis]
                scalar = all(img == w.scale(lam) for img, w in zip(images, basis))
                dim = len(basis)
                comps.append(DeltaComponentReport(
                    a=a, b=b, c=c, dim=dim, theta_scalar=scalar,
                    eigenvalue=lam if scalar else None,
                    kernel_dim=dim - fraction_sparse_rank(form_vector(i) for i in images),
                    expected_kernel_dim=dim if (b == 0 and c == 0) else 0,
                    printed_delta_zero=all(i == br for i, br in zip(images, braces))))
    return DeltaReport(comps)


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vscale(c, a):
    return tuple(c * x for x in a)


def _jacobi_defect(L, i, j, k):
    # ⟦L_i,⟦L_j,L_k⟧⟧ − ⟦⟦L_i,L_j⟧,L_k⟧ − (−1)^{|i||j|}⟦L_j,⟦L_i,L_k⟧⟧
    out = (Fraction(0),) * L.dim
    for l, c in enumerate(L.bracket(j, k), start=1):
        if c:
            out = _vadd(out, _vscale(c, L.bracket(i, l)))
    for l, c in enumerate(L.bracket(i, j), start=1):
        if c:
            out = _vadd(out, _vscale(-c, L.bracket(l, k)))
    sign = -1 if L.parity(i) * L.parity(j) else 1
    for l, c in enumerate(L.bracket(i, k), start=1):
        if c:
            out = _vadd(out, _vscale(-sign * c, L.bracket(j, l)))
    return out


def fraction_check_lie_superalgebra(L):
    """check_lie_superalgebra by dense Fraction vectors over every basis pair
    and triple, failures in the same order."""
    failures = []
    minus_ok = plus_ok = True
    dim = L.dim
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            cij, cji = L.bracket(i, j), L.bracket(j, i)
            s = -1 if L.parity(i) * L.parity(j) else 1
            if any(_vadd(cij, _vscale(s, cji))):
                minus_ok = False
                failures.append(("superalternating", i, j))
            if any(_vadd(cij, _vscale(-s, cji))):
                plus_ok = False
    jacobi_ok = True
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                if any(_jacobi_defect(L, i, j, k)):
                    jacobi_ok = False
                    failures.append(("jacobi", i, j, k))
    convention = {(True, True): "both", (True, False): "minus",
                  (False, True): "plus", (False, False): "neither"}[(minus_ok, plus_ok)]
    return LieCheckReport(minus_ok, jacobi_ok, convention, tuple(failures))


def jet_by_composition(s, k, p):
    """Taylor coefficients of the k-jet of s at p, by composing s with x + p,
    dropping monomials above degree k, composing back with x − p, and
    differentiating that representative once per multidegree."""
    m = s.nvars
    p = [Fraction(x) for x in p]
    shifted = [Poly.variable(m, i + 1) + Poly.constant(m, c) for i, c in enumerate(p)]
    back = [Poly.variable(m, i + 1) - Poly.constant(m, c) for i, c in enumerate(p)]
    reps = []
    for poly in s.polys:
        at_p = poly.compose(shifted)
        cut = Poly(m, {e: c for e, c in at_p.terms.items() if sum(e) <= k})
        reps.append(cut.compose(back))
    out = []
    for beta in jet_multidegrees(m, k):
        fact = 1
        for b in beta:
            for t in range(1, b + 1):
                fact *= t
        for rep in reps:
            out.append(rep.partial_multi(beta).evaluate(p) / fact)
    return out


def factor_through_jet_by_apply(D, k, p):
    """factor_through_jet by applying D to every basis section (y − q)^β e_j,
    q = φ(p) the image of the source point p (q = p with no map), and
    evaluating at p."""
    if D.order > k:
        raise ValueError("operator order %d exceeds jet order %d" % (D.order, k))
    m = D.nvars
    p = [Fraction(x) for x in p]
    q = p if D.phi is None else [fraction_evaluate(c, p) for c in D.phi]
    cols = []
    for beta in jet_multidegrees(m, k):
        base = Poly.constant(m, 1)
        for i, b in enumerate(beta):
            var = Poly.variable(m, i + 1) - Poly.constant(m, q[i])
            for _ in range(b):
                base = base * var
        for j in range(D.rank_in):
            s = PolySection([base if t == j else Poly.zero(m)
                             for t in range(D.rank_in)])
            cols.append(D.apply(s).evaluate(p))
    return [[cols[c][r] for c in range(len(cols))] for r in range(D.rank_out)]


def leibniz_by_wedges(space, images, parity, a):
    """The Leibniz expansion of generator images over a, one slot at a time:
    head ∧ image ∧ tail as whole wedges, head carrying (−1)^(parity·t)."""
    out = ExtElem.zero(space)
    for key, coeff in a.terms.items():
        for t in range(len(key)):
            img = images[key[t] - 1]
            if img.is_zero():
                continue
            sign = -1 if (parity * t) % 2 else 1
            head = ExtElem.monomial(space, key[:t], sign * coeff)
            tail = ExtElem.monomial(space, key[t + 1:])
            out = out + head.wedge(img).wedge(tail)
    return out


def comp_product_by_pairs(ta, tb):
    """The product (ω⊗s)·(ω̃⊗s̃) = ω ∧ (s ⌟ ω̃) ⊗ s̃ of two term maps
    {(ω, s): c}, one contraction and one wedge per pair of terms, on any
    Λ-degrees: a mixed term map has no derivation parity, and the pairs
    need none."""
    terms = {}
    for (ka, sa), ca in ta.items():
        for (kb, sb), cb in tb.items():
            mid, sgn1 = contract(kb, sa)
            if mid is None:
                continue
            key, sgn2 = merge_sign(ka, mid)
            if key is not None:
                add_term(terms, (key, sb), sgn1 * sgn2 * ca * cb)
    return terms


def apply_DF_sum(space, images, a):
    """The defining sum Σ_μ F(dv_μ) ∧ (v_μ ⌟ a) of build_DF."""
    out = ExtElem.zero(space)
    for mu in range(1, space.dim + 1):
        v = [0] * space.dim
        v[mu - 1] = 1
        out = out + images[mu - 1].wedge(a.insert(v))
    return out


def straightening_monomial(g, key):
    """G(ds_key) as the product of the generator images, left to right."""
    out = ExtElem.unit(g.space)
    for k in key:
        out = out.wedge(g.images[k - 1])
    return out


def straightening_apply(g, x):
    """G(x) as the linear extension of straightening_monomial."""
    out = ExtElem.zero(g.space)
    for key, c in x.terms.items():
        out = out + straightening_monomial(g, key).scale(c)
    return out


def fraction_evaluate(poly, point):
    """The value of a Poly at a point, term by term in Fraction."""
    point = [Fraction(x) for x in point]
    total = Fraction(0)
    for exps, c in poly.terms.items():
        v = c
        for x, e in zip(point, exps):
            v *= x ** e
        total += v
    return total
