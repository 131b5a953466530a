"""Superdifferential forms on a split polynomial patch and the super exterior derivative.

The model is R^m with a trivial rank-n odd bundle.  A superform is a sum of
terms  f(x) dx_A ds^b ds_C  where dx_A is an exterior monomial in the base
codirections, ds^b a symmetric monomial in the odd codirections (these carry
total form degree), and ds_C an exterior monomial in the same odd codirections
(superfunction content, no form degree).  Everything is bigraded by
(form degree, Z2 parity) = (|A| + |b|, |b| + |C| mod 2), and the wedge is
supercommutative for that bigrading.

An odd connection d + A turns the split model into a supermanifold chart with
straightened odd directions; super_d is the conjugated exterior derivative,
assembled from the twisted exterior derivative plus number-signed shift and
curvature-shift pieces.  super_d_by_fields evaluates the same operator through
the Koszul-type double sum over generator vector fields, and the two routes
cross-validate each other.
"""

from fractions import Fraction
from itertools import combinations

from .lincomb import LinComb, add_term, contract, merge_sign, replace
from .scalars import IndexSet, MultiDegree, iter_multidegrees, inversion_sign
from .poly import Poly
from .supermaps import PolySuperFunc
from .linalg import sparse_rank


def _sym_bump(sym, alpha, delta):
    return MultiDegree(e + (delta if k == alpha - 1 else 0) for k, e in enumerate(sym))


class SuperForm(LinComb):
    """Superdifferential form with exact Poly coefficients.

    terms maps (dxs: IndexSet, sym: MultiDegree, ext: IndexSet) to a Poly in
    the m base coordinates.  dxs ranges over 1..m, sym has length n, ext
    ranges over 1..n.
    """

    __slots__ = ("dim_base", "dim_odd")
    _DIMS = ("dim_base", "dim_odd")

    def __init__(self, dim_base, dim_odd, terms=None):
        m = int(dim_base)
        n = int(dim_odd)
        if m < 0 or n < 0:
            raise ValueError("dimensions must be non-negative")
        self.dim_base = m
        self.dim_odd = n
        clean = {}
        for key, p in (terms or {}).items():
            dxs, sym, ext = key
            dxs = IndexSet(dxs)
            sym = MultiDegree(sym)
            ext = IndexSet(ext)
            if dxs and dxs[-1] > m:
                raise ValueError("dx index out of range")
            if len(sym) != n:
                raise ValueError("sym multidegree has wrong length")
            if ext and ext[-1] > n:
                raise ValueError("ext index out of range")
            if not isinstance(p, Poly):
                p = Poly.constant(m, p)
            if p.nvars != m:
                raise ValueError("coefficient has wrong number of variables")
            add_term(clean, (dxs, sym, ext), p)
        self.terms = clean

    @classmethod
    def monomial(cls, m, n, dxs, sym, ext, coeff=1):
        return cls(m, n, {(IndexSet(dxs), MultiDegree(sym), IndexSet(ext)): coeff})

    @classmethod
    def from_poly(cls, p, n):
        zero_sym = MultiDegree((0,) * n)
        return cls(p.nvars, n, {(IndexSet(), zero_sym, IndexSet()): p})

    @classmethod
    def from_superfunc(cls, g):
        """Embed a superfunction as a degree-0 form (ext content only)."""
        zero_sym = MultiDegree((0,) * g.odd_dim)
        terms = {}
        for (exps, key), c in g.terms.items():
            add_term(terms, (IndexSet(), zero_sym, key), Poly.monomial(g.nvars, exps, c))
        return cls._raw(g.nvars, g.odd_dim, terms)

    def superfunc_part(self):
        """The (0, 0, *) part as a PolySuperFunc."""
        out = {}
        for (dxs, sym, ext), p in self.terms.items():
            if dxs or sym.total:
                continue
            for exps, c in p.terms.items():
                out[(exps, ext)] = out.get((exps, ext), Fraction(0)) + c
        return PolySuperFunc(self.dim_base, self.dim_odd, out)

    def mul_poly(self, q):
        acc = {}
        for k, p in self.terms.items():
            add_term(acc, k, p * q)
        return SuperForm._raw(self.dim_base, self.dim_odd, acc)

    def wedge(self, other):
        """Supercommutative product; all three factor pairs carry their signs.

        Moving the second term's dx block past the first term's sym block and
        the second term's sym block past the first term's ext block each cost
        a sign per crossing; the two exterior merges contribute inversion
        signs; symmetric degrees add.
        """
        self._check(other)
        acc = {}
        for (a1, b1, c1), f1 in self.terms.items():
            for (a2, b2, c2), f2 in other.terms.items():
                na, s1 = merge_sign(a1, a2)
                if na is None:
                    continue
                nc, s2 = merge_sign(c1, c2)
                if nc is None:
                    continue
                sgn = s1 * s2
                if (b1.total * len(a2) + len(c1) * b2.total) % 2:
                    sgn = -sgn
                nb = MultiDegree(x + y for x, y in zip(b1, b2))
                add_term(acc, (na, nb, nc), (f1 * f2).scale(sgn))
        return SuperForm._raw(self.dim_base, self.dim_odd, acc)

    def form_degrees(self):
        return sorted({len(a) + b.total for (a, b, _c) in self.terms})

    def form_degree(self):
        degs = self.form_degrees()
        if len(degs) > 1:
            raise ValueError("form is not degree homogeneous")
        return degs[0] if degs else None

    def parities(self):
        return sorted({(b.total + len(c)) % 2 for (_a, b, c) in self.terms})

    def bidegrees(self):
        return sorted({(len(a), b.total) for (a, b, _c) in self.terms})

    def bidegree_part(self, a_deg, b_deg):
        keep = {k: p for k, p in self.terms.items()
                if len(k[0]) == a_deg and k[1].total == b_deg}
        return SuperForm._raw(self.dim_base, self.dim_odd, keep)

    def to_json(self):
        out = []
        for (dxs, sym, ext) in sorted(self.terms, key=lambda k: (len(k[0]), k[0], tuple(k[1]), len(k[2]), k[2])):
            out.append({"dxs": list(dxs), "sym": list(sym), "ext": list(ext),
                        "coeff": self.terms[(dxs, sym, ext)].to_json()})
        return out

    @classmethod
    def from_json(cls, m, n, data):
        if not isinstance(data, list):
            raise ValueError("superform JSON must be a list of terms")
        terms = {}
        for item in data:
            if not isinstance(item, dict) or set(item) != {"dxs", "sym", "ext", "coeff"}:
                raise ValueError("superform term needs keys dxs/sym/ext/coeff")
            key = (IndexSet(item["dxs"]), MultiDegree(item["sym"]), IndexSet(item["ext"]))
            if key in terms:
                raise ValueError("duplicate superform key")
            terms[key] = Poly.from_json(m, item["coeff"])
        return cls(m, n, terms)

    def __repr__(self):
        if not self.terms:
            return "SuperForm(0)"
        bits = []
        for (dxs, sym, ext), p in sorted(self.terms.items()):
            tag = []
            if dxs:
                tag.append("dx" + "".join(str(i) for i in dxs))
            if sym.total:
                tag.append("ds^" + str(tuple(sym)))
            if ext:
                tag.append("dsE" + "".join(str(i) for i in ext))
            bits.append("(%r)%s" % (p, "*".join(tag)))
        return "SuperForm[" + " + ".join(bits) + "]"


class OddConnection:
    """Connection d + A on the trivial odd bundle over R^m.

    comps[g][b][i] is the Poly coefficient of dx_{i+1} in the 1-form A with
    nabla_i s_{b+1} = sum_g comps[g][b][i] s_{g+1}.
    """

    __slots__ = ("dim_base", "dim_odd", "comps")

    def __init__(self, dim_base, dim_odd, comps):
        m = int(dim_base)
        n = int(dim_odd)
        if len(comps) != n or any(len(row) != n for row in comps):
            raise ValueError("connection matrix must be n x n")
        clean = []
        for row in comps:
            crow = []
            for cell in row:
                if len(cell) != m:
                    raise ValueError("each entry needs one Poly per base coordinate")
                ps = []
                for p in cell:
                    if not isinstance(p, Poly):
                        p = Poly.constant(m, p)
                    if p.nvars != m:
                        raise ValueError("connection coefficient has wrong nvars")
                    ps.append(p)
                crow.append(tuple(ps))
            clean.append(tuple(crow))
        self.dim_base = m
        self.dim_odd = n
        self.comps = tuple(clean)

    @classmethod
    def zero(cls, m, n):
        z = Poly.zero(m)
        return cls(m, n, [[[z] * m for _ in range(n)] for _ in range(n)])

    def entry(self, gamma, beta, i):
        return self.comps[gamma - 1][beta - 1][i - 1]

    def is_flat_zero(self):
        return all(p.is_zero() for row in self.comps for cell in row for p in cell)

    def max_degree(self):
        degs = [p.total_degree() for row in self.comps for cell in row for p in cell]
        return max([d for d in degs if d >= 0], default=-1)

    def to_json(self):
        return {"dim_base": self.dim_base, "dim_odd": self.dim_odd,
                "entries": [[[p.to_json() for p in cell] for cell in row]
                            for row in self.comps]}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or set(data) != {"dim_base", "dim_odd", "entries"}:
            raise ValueError("connection JSON needs dim_base/dim_odd/entries")
        m = int(data["dim_base"])
        n = int(data["dim_odd"])
        ent = data["entries"]
        if len(ent) != n or any(len(r) != n for r in ent):
            raise ValueError("connection entries must form an n x n matrix")
        comps = [[[Poly.from_json(m, pj) for pj in cell] for cell in row] for row in ent]
        return cls(m, n, comps)

    def __repr__(self):
        return "OddConnection(%d|%d)" % (self.dim_base, self.dim_odd)


def curvature(conn):
    """R = dA + A^A as an n x n matrix of base 2-forms {IndexSet (i,j): Poly}."""
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


def base_d(m, comp):
    """Plain exterior derivative of a base form {dx IndexSet: Poly} on R^m."""
    out = {}
    for key, p in comp.items():
        for i in range(1, m + 1):
            dp = p.partial(i)
            if dp.is_zero():
                continue
            nk, sgn = merge_sign((i,), key)
            if nk is None:
                continue
            add_term(out, nk, dp.scale(sgn))
    return out


def base_wedge(c1, c2):
    out = {}
    for k1, p1 in c1.items():
        for k2, p2 in c2.items():
            nk, sgn = merge_sign(k1, k2)
            if nk is None:
                continue
            add_term(out, nk, (p1 * p2).scale(sgn))
    return out


def twisted_d(conn, omega):
    """Twisted exterior derivative of an odd-bundle-valued base form.

    omega is a list of n components, each a {dx IndexSet: Poly} form; the
    result is d omega + A wedge omega componentwise.
    """
    m, n = conn.dim_base, conn.dim_odd
    if len(omega) != n:
        raise ValueError("section needs one component per odd generator")
    out = [base_d(m, comp) for comp in omega]
    for g in range(1, n + 1):
        for b in range(1, n + 1):
            a_form = {IndexSet((i,)): conn.entry(g, b, i) for i in range(1, m + 1)
                      if not conn.entry(g, b, i).is_zero()}
            if a_form:
                for key, p in base_wedge(a_form, omega[b - 1]).items():
                    add_term(out[g - 1], key, p)
    return out


def curvature_apply(curv, omega):
    """Matrix of 2-forms applied to a bundle-valued form: (R omega)_g = sum R_gb ^ omega_b."""
    n = len(curv)
    out = [{} for _ in range(n)]
    for g in range(n):
        for b in range(n):
            if curv[g][b]:
                for key, p in base_wedge(curv[g][b], omega[b]).items():
                    add_term(out[g], key, p)
    return out


def twisted_d_end(conn, mat):
    """Twisted derivative of an endomorphism-valued form: d mat + A^mat - (-1)^deg mat^A.

    mat is n x n of {dx IndexSet: Poly}.  With mat = curvature this is the
    Bianchi identity and must vanish.
    """
    m, n = conn.dim_base, conn.dim_odd
    out = [[base_d(m, mat[g][b]) for b in range(n)] for g in range(n)]
    a_forms = [[{IndexSet((i,)): conn.entry(g + 1, b + 1, i) for i in range(1, m + 1)
                 if not conn.entry(g + 1, b + 1, i).is_zero()}
                for b in range(n)] for g in range(n)]
    for g in range(n):
        for b in range(n):
            for k in range(n):
                for key, p in base_wedge(a_forms[g][k], mat[k][b]).items():
                    add_term(out[g][b], key, p)
                # per-term degree sign for the right wedge
                for mk, mp in mat[g][k].items():
                    sgn0 = -1 if len(mk) % 2 else 1
                    for ak, ap in a_forms[k][b].items():
                        nk, sgn = merge_sign(mk, ak)
                        if nk is None:
                            continue
                        add_term(out[g][b], nk, (mp * ap).scale(-sgn0 * sgn))
    return out


def super_d(conn, omega):
    """The super exterior derivative: twisted d plus number-signed shift pieces.

    Per term f dx_A ds^b ds_C the three pieces act as
      dx_i ^ (coefficient derivative + dual connection action on sym and ext),
      (-1)^(a+b) sym-shift of each ext slot with the alternating contraction sign,
      (-1)^(a+b-1) curvature shift moving a sym slot into ext under R's 2-form.
    The (-1)^a factors are the operator of numbers; the extra (-1)^b factors
    are the Koszul crossing signs of the odd shift factors past the sym block.
    """
    if (conn.dim_base, conn.dim_odd) != (omega.dim_base, omega.dim_odd):
        raise ValueError("connection and form dimensions differ")
    m, n = omega.dim_base, omega.dim_odd
    curv = None
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
                    nsym = _sym_bump(_sym_bump(sym, al, -1), be, 1)
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
            add_term(acc, (dxs, _sym_bump(sym, mu, 1), next_), f.scale(nsign * csign))
        # curvature right shift, sym slot to ext under the 2-form
        if b:
            if curv is None:
                curv = curvature(conn)
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
                    nsym = _sym_bump(sym, nu, -1)
                    for dkey, rp in two.items():
                        nk, msign = merge_sign(dkey, dxs)
                        if nk is None:
                            continue
                        add_term(acc, (nk, nsym, next_),
                             (f * rp).scale(rsign * e * msign * isign))
    return SuperForm._raw(m, n, acc)


class SuperVectorFieldGen:
    """Generator vector field on the split model.

    kind "x" is a coordinate field (acts through the connection as nabla_i),
    kind "s" an odd generator (acts as the contraction s_j).  An optional
    superfunction coefficient scales the field from the left.
    """

    __slots__ = ("kind", "index", "coeff")

    def __init__(self, kind, index, coeff=None):
        if kind not in ("x", "s"):
            raise ValueError("field kind must be 'x' or 's'")
        self.kind = kind
        self.index = int(index)
        if self.index < 1:
            raise ValueError("field index is 1-based")
        if coeff is not None and not isinstance(coeff, PolySuperFunc):
            raise TypeError("field coefficient must be a PolySuperFunc")
        self.coeff = coeff

    def bare_parity(self):
        return 0 if self.kind == "x" else 1

    def is_bare(self):
        return self.coeff is None

    def __repr__(self):
        base = "d/dx%d" % self.index if self.kind == "x" else "s%d" % self.index
        return base if self.coeff is None else "(%r)*%s" % (self.coeff, base)


def field_apply(conn, field, g):
    """Action of a generator field on a superfunction.

    Coordinate fields differentiate the Poly part and rotate the ext part by
    the dual connection; odd generators contract.  A coefficient multiplies
    the result from the left.
    """
    m, n = g.nvars, g.odd_dim
    out = {}
    if field.kind == "x":
        i = field.index
        if i > m:
            raise ValueError("coordinate index out of range")
        for (exps, key), c in g.terms.items():
            p = Poly.monomial(m, exps, c).partial(i)
            for e2, c2 in p.terms.items():
                out[(e2, key)] = out.get((e2, key), Fraction(0)) + c2
            for g in key:
                for be in range(1, n + 1):
                    ap = conn.entry(g, be, i)
                    if ap.is_zero():
                        continue
                    nk, ssign = replace(key, g, be)
                    if nk is None:
                        continue
                    prod = Poly.monomial(m, exps, -c * ssign) * ap
                    for e2, c2 in prod.terms.items():
                        out[(e2, nk)] = out.get((e2, nk), Fraction(0)) + c2
    else:
        j = field.index
        if j > n:
            raise ValueError("odd generator index out of range")
        for (exps, key), c in g.terms.items():
            nk, sgn = contract(key, j)
            if nk is None:
                continue
            out[(exps, nk)] = out.get((exps, nk), Fraction(0)) + sgn * c
    res = PolySuperFunc(m, n, out)
    if field.coeff is not None:
        res = field.coeff * res
    return res


def bracket_fields(conn, f1, f2):
    """Superbracket of two bare generator fields as coefficiented generators.

    Two coordinate fields bracket to the vertical curvature derivation, a
    coordinate field and an odd generator to the covariant derivative of the
    section, two odd generators to zero.
    """
    m, n = conn.dim_base, conn.dim_odd
    if not (f1.is_bare() and f2.is_bare()):
        raise ValueError("brackets are only taken between bare generators")
    if f1.kind == "s" and f2.kind == "s":
        return []
    if f1.kind == "x" and f2.kind == "s":
        out = []
        for g in range(1, n + 1):
            p = conn.entry(g, f2.index, f1.index)
            if not p.is_zero():
                out.append(SuperVectorFieldGen("s", g, PolySuperFunc.from_poly(p, n)))
        return out
    if f1.kind == "s" and f2.kind == "x":
        # odd-even superbracket flips with a plain minus
        return [SuperVectorFieldGen(f.kind, f.index, -f.coeff)
                for f in bracket_fields(conn, f2, f1)]
    # two coordinate fields: vertical derivation of the curvature matrix
    i, j = f1.index, f2.index
    if i == j:
        return []
    curv = curvature(conn)
    key = IndexSet((min(i, j), max(i, j)))
    flip = -1 if i > j else 1
    out = []
    for be in range(1, n + 1):
        for ga in range(1, n + 1):
            p = curv[be - 1][ga - 1].get(key)
            if p is None:
                continue
            coeff = PolySuperFunc(m, n, {(e, IndexSet((ga,))): -flip * c
                                         for e, c in p.terms.items()})
            out.append(SuperVectorFieldGen("s", be, coeff))
    return out


def evaluate(omega, fields):
    """Evaluate a degree-homogeneous superform on generator fields.

    Coefficients move out to the left in argument order, each crossing the
    preceding bare arguments only; the bare tuple is then stably sorted to
    even-first order (odd over even crossings count); dx factors pair with
    coordinate fields by determinant sign and sym factors with odd generators
    by multiset multiplicities.
    """
    m, n = omega.dim_base, omega.dim_odd
    k = len(fields)
    for (dxs, sym, _ext) in omega.terms:
        if len(dxs) + sym.total != k:
            raise ValueError("arity mismatch: form degree differs from field count")
    bare_par = [f.bare_parity() for f in fields]
    # coefficients move out left to right, crossing only the preceding bare
    # arguments; the form itself contributes no sign (first-slot extractions
    # are sign-free)
    fixed_sign = 1
    prefactor = None
    for s, f in enumerate(fields):
        if f.coeff is None:
            continue
        g = f.coeff
        if g.is_zero():
            return PolySuperFunc.zero(m, n)
        if g.is_even():
            pg = 0
        elif g.is_odd():
            pg = 1
        else:
            raise ValueError("field coefficient must have homogeneous parity")
        if pg and sum(bare_par[:s]) % 2:
            fixed_sign = -fixed_sign
        prefactor = g if prefactor is None else prefactor * g
    # stable even-first interleave sign on the bare tuple
    inter = sum(1 for t in range(k) for u in range(t + 1, k)
                if bare_par[t] and not bare_par[u])
    if inter % 2:
        fixed_sign = -fixed_sign
    evens = [f.index for f in fields if f.kind == "x"]
    odds = [f.index for f in fields if f.kind == "s"]
    total = PolySuperFunc.zero(m, n)
    for (dxs, sym, ext), p in omega.terms.items():
        if len(dxs) != len(evens) or sym.total != len(odds):
            continue
        if len(set(evens)) != len(evens) or IndexSet(sorted(set(evens))) != dxs:
            continue
        det = inversion_sign(evens)
        count = [0] * n
        for j in odds:
            count[j - 1] += 1
        if MultiDegree(count) != sym:
            continue
        perm = 1
        for e in sym:
            for r in range(2, e + 1):
                perm *= r
        # pairing a symmetric power of odd codirections against odd arguments
        # reverses the slot order, a triangular sign
        b_tot = sym.total
        tri = -1 if (b_tot * (b_tot - 1) // 2) % 2 else 1
        sgn = fixed_sign * det * perm * tri
        piece = PolySuperFunc(m, n, {(e, ext): c * sgn for e, c in p.terms.items()})
        total = total + piece
    if prefactor is not None:
        total = prefactor * total
    return total


def super_d_by_fields(conn, omega, fields):
    """The super exterior derivative through the Koszul double sum.

    Weights are the shuffle signs sgn/sgn- for moving one or two arguments to
    the front; the bracket sum enters with a minus.  All fields must be bare
    generators.  Cross-validates evaluate(super_d(omega)).
    """
    m, n = omega.dim_base, omega.dim_odd
    deg = omega.form_degree()
    if deg is None:
        deg = -1    # zero form: any arity works, result is zero
    if deg >= 0 and len(fields) != deg + 1:
        raise ValueError("need form degree + 1 fields")
    for f in fields:
        if not f.is_bare():
            raise ValueError("fields must be bare generators")
    par = [f.bare_parity() for f in fields]
    kk = len(fields)
    total = PolySuperFunc.zero(m, n)
    for mu in range(kk):
        rest = fields[:mu] + fields[mu + 1:]
        w = -1 if mu % 2 else 1
        if par[mu] and sum(par[:mu]) % 2:
            w = -w
        val = evaluate(omega, rest)
        total = total + field_apply(conn, fields[mu], val).scale(w)
    for nu in range(kk):
        for mu in range(nu + 1, kk):
            w = -1 if (nu + mu - 1) % 2 else 1
            adj = par[nu] * sum(par[:nu]) + par[mu] * (sum(par[:mu]) - par[nu])
            if adj % 2:
                w = -w
            rest = [f for t, f in enumerate(fields) if t not in (nu, mu)]
            for br in bracket_fields(conn, fields[nu], fields[mu]):
                val = evaluate(omega, [br] + rest)
                total = total - val.scale(w)
    return total


def shift_left_plain(omega):
    """Fiberwise ds_mu multiplication tensor contraction, no crossing signs."""
    acc = {}
    for (dxs, sym, ext), f in omega.terms.items():
        for mu in ext:
            next_, csign = contract(ext, mu)
            add_term(acc, (dxs, _sym_bump(sym, mu, 1), next_), f.scale(csign))
    return SuperForm._raw(omega.dim_base, omega.dim_odd, acc)


def shift_right_plain(omega):
    """Fiberwise sym contraction tensor ds_mu wedge, no crossing signs."""
    acc = {}
    for (dxs, sym, ext), f in omega.terms.items():
        for mu in range(1, omega.dim_odd + 1):
            e = sym[mu - 1]
            if not e:
                continue
            next_, isign = merge_sign((mu,), ext)
            if next_ is None:
                continue
            add_term(acc, (dxs, _sym_bump(sym, mu, -1), next_), f.scale(e * isign))
    return SuperForm._raw(omega.dim_base, omega.dim_odd, acc)


def shift_right_signed(omega):
    """(-1)^N right shift with the Koszul crossing signs, the T of the Delta lemma."""
    acc = {}
    for (dxs, sym, ext), f in omega.terms.items():
        sgn = -1 if (len(dxs) + sym.total - 1) % 2 else 1
        for mu in range(1, omega.dim_odd + 1):
            e = sym[mu - 1]
            if not e:
                continue
            next_, isign = merge_sign((mu,), ext)
            if next_ is None:
                continue
            add_term(acc, (dxs, _sym_bump(sym, mu, -1), next_), f.scale(sgn * e * isign))
    return SuperForm._raw(omega.dim_base, omega.dim_odd, acc)


def theta_apply(conn, omega):
    """The anticommutator {super_d, (-1)^N id-rightshift}."""
    return super_d(conn, shift_right_signed(omega)) + shift_right_signed(super_d(conn, omega))


def delta_printed_apply(conn, omega):
    """The printed difference {d, (-1)^N id-right} - {id-left, id-right}."""
    braces = shift_left_plain(shift_right_plain(omega)) + shift_right_plain(shift_left_plain(omega))
    return theta_apply(conn, omega) - braces


class DeltaComponentReport:
    __slots__ = ("a", "b", "c", "dim", "theta_scalar", "eigenvalue",
                 "kernel_dim", "expected_kernel_dim", "printed_delta_zero")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class DeltaReport:
    def __init__(self, components):
        self.components = components

    @property
    def passed(self):
        return all(c.theta_scalar and c.kernel_dim == c.expected_kernel_dim
                   for c in self.components)

    @property
    def printed_delta_vanishes(self):
        return all(c.printed_delta_zero for c in self.components)

    @property
    def eigenvalues(self):
        return sorted({c.eigenvalue for c in self.components if c.eigenvalue is not None})

    def as_dict(self):
        return {"passed": self.passed,
                "printed_delta_vanishes": self.printed_delta_vanishes,
                "eigenvalues": self.eigenvalues,
                "components": [c.as_dict() for c in self.components]}


def _component_basis(m, n, a, b, c, poly_cut):
    for dxs in combinations(range(1, m + 1), a):
        for sym in _sym_degrees(n, b):
            for ext in combinations(range(1, n + 1), c):
                for tot in range(poly_cut + 1):
                    for exps in iter_multidegrees(m, tot):
                        yield IndexSet(dxs), sym, IndexSet(ext), exps


def _sym_degrees(n, b):
    return list(iter_multidegrees(n, b))


def _form_to_vec(omega):
    vec = {}
    for (dxs, sym, ext), p in omega.terms.items():
        for exps, coef in p.terms.items():
            vec[(dxs, tuple(sym), ext, tuple(exps))] = coef
    return vec


def delta_kernel_check(conn, total_degree_cut, poly_cut):
    """Assemble the Delta operator on each homogeneous component and check its kernel.

    For every component (a, b, c) with a + b <= total_degree_cut and Poly
    coefficients of degree <= poly_cut this measures whether the
    anticommutator {d, (-1)^N id-right} acts as the scalar b + c (kernel
    exactly the pure (a, 0, 0) forms) and whether the printed difference
    against {id-left, id-right} vanishes identically.
    """
    m, n = conn.dim_base, conn.dim_odd
    comps = []
    for a in range(min(m, total_degree_cut) + 1):
        for b in range(total_degree_cut - a + 1):
            for c in range(n + 1):
                basis = list(_component_basis(m, n, a, b, c, poly_cut))
                if not basis:
                    continue
                lam = b + c
                scalar = True
                zero_printed = True
                rows = []
                for (dxs, sym, ext, exps) in basis:
                    elem = SuperForm._raw(m, n, {(dxs, sym, ext): Poly.monomial(m, exps)})
                    img = theta_apply(conn, elem)
                    if not delta_printed_apply(conn, elem).is_zero():
                        zero_printed = False
                    if img != elem.scale(lam):
                        scalar = False
                    rows.append(_form_to_vec(img))
                rank = sparse_rank(rows)
                dim = len(basis)
                expected = dim if (b == 0 and c == 0) else 0
                comps.append(DeltaComponentReport(
                    a=a, b=b, c=c, dim=dim,
                    theta_scalar=scalar,
                    eigenvalue=lam if scalar else None,
                    kernel_dim=dim - rank,
                    expected_kernel_dim=expected,
                    printed_delta_zero=zero_printed))
    return DeltaReport(comps)


def _degree_basis(m, n, k, poly_cut):
    """Basis keys of all total-degree-k components with Poly degree <= poly_cut."""
    out = []
    for a in range(min(m, k) + 1):
        b = k - a
        for dxs in combinations(range(1, m + 1), a):
            for sym in _sym_degrees(n, b):
                for csize in range(n + 1):
                    for ext in combinations(range(1, n + 1), csize):
                        for tot in range(poly_cut + 1):
                            for exps in iter_multidegrees(m, tot):
                                out.append((IndexSet(dxs), sym, IndexSet(ext), exps))
    return out


def cohomology_dims(conn, k, poly_cut, slack=None):
    """dim H^k of super_d with polynomial coefficient cutoffs.

    Kernel is taken on total degree k with coefficients of degree <= poly_cut;
    the image is taken from degree k - 1 forms with a slack-widened cutoff so
    that every primitive that exists polynomially is in range.  The expected
    answer is 1 for k = 0 and 0 for k >= 1.
    """
    m, n = conn.dim_base, conn.dim_odd
    if k < 0:
        return 0
    g = max(conn.max_degree(), 0)
    if slack is None:
        slack = (k + n + 1) * (1 + 2 * g) + 1
    basis_k = _degree_basis(m, n, k, poly_cut)
    rows = []
    for (dxs, sym, ext, exps) in basis_k:
        elem = SuperForm._raw(m, n, {(dxs, sym, ext): Poly.monomial(m, exps)})
        rows.append(_form_to_vec(super_d(conn, elem)))
    ker_dim = len(basis_k) - sparse_rank(rows)
    if k == 0:
        return ker_dim
    allowed = set(basis_k)
    im_rows = []
    for (dxs, sym, ext, exps) in _degree_basis(m, n, k - 1, poly_cut + slack):
        elem = SuperForm._raw(m, n, {(dxs, sym, ext): Poly.monomial(m, exps)})
        im_rows.append(_form_to_vec(super_d(conn, elem)))
    im_rank = sparse_rank(im_rows)
    outside = [{kk: v for kk, v in row.items() if kk not in allowed} for row in im_rows]
    im_in_cut = im_rank - sparse_rank(outside)
    return ker_dim - im_in_cut
