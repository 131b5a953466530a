"""Superdifferential forms on a split polynomial patch and the super exterior derivative.

The model is R^m with a trivial rank-n odd bundle.  A superform is a sum of
terms  f(x) dx_A ds^b ds_C  where dx_A is an exterior monomial in the base
codirections, ds^b a symmetric monomial in the odd codirections (these carry
total form degree), and ds_C an exterior monomial in the same odd codirections
(superfunction content, no form degree).  Everything is bigraded by
(form degree, Z2 parity) = (|A| + |b|, |b| + |C| mod 2), and the wedge is
supercommutative for that bigrading.

An odd connection d + A turns the split model into a supermanifold chart
with straightened odd directions.  Base forms {IndexSet: Poly} have one
calculus, base_d and the matrix wedge, in which R = dA + A^A and the twisted
derivatives are written.  super_d is the conjugated exterior
derivative, assembled from the twisted exterior derivative plus number-signed
shift and curvature-shift pieces; super_d_by_fields evaluates it through the
Koszul-type double sum over generator vector fields, which act through
cartan's Sym ⊗ Λ moves, and the two routes cross-validate each other.

The operator is written once, as monomial_column: the image of one basis
monomial x^e dx_A ds^b ds_C as an int vector, scaled by the per-connection
integer D, the lcm of the denominators of A and R = dA + A^A.  It is first
order, d(f·w) = df ^ w + f·dw, so the column of x^e times a form part is
that part's column, built once per connection and width, translated by e,
plus the derivative of x^e.  super_d is its linear extension divided by D;
cohomology_dims ranks the columns themselves, and delta_kernel_check
composes them with the number-signed right shift T on int vectors, since
scaling by D changes no rank and no equality.  The homotopy Theta = {d, T}
= (b + c)·id bounds primitives, so cohomology_dims takes its image block
one coefficient degree above the cutoff.

The columns, the shifts and the ranked rows all key a basis monomial by one
int in a lincomb.KeyLayout with blocks (n, m) and n + m fields: the ext
mask of C, the dx mask of A, then the n entries of b and the m exponents of
e.  A wedge with dx_i sets a bit, a shift or connection move adds or
subtracts field units, and every sign is the popcount parity of a masked
part of the key.  Each caller bounds its fields by the largest exponent of
its forms plus conn.max_exponent, the most one application of the operator
adds, and by its largest sym entry plus 1, as the operator and the left
shift raise a sym entry by at most 1.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, lcm, prod

from . import decode
from .cartan import ext_contract, ext_wedge, sym_contract
from .lincomb import KeyLayout, LinComb, add_term, mask_sign, merge_sign
from .scalars import IndexSet, MultiDegree, iter_multidegrees, inversion_sign, sym_dim
from .poly import Poly
from .supermaps import PolySuperFunc
from .linalg import sparse_rank

_new = tuple.__new__


class SuperForm(LinComb):
    """Superdifferential form with exact Poly coefficients.

    terms maps (dxs: IndexSet, sym: MultiDegree, ext: IndexSet) to a Poly in
    the m base coordinates.  dxs ranges over 1..m, sym has length n, ext
    ranges over 1..n.
    """

    __slots__ = ("dim_base", "dim_odd")
    _DIMS = ("dim_base", "dim_odd")

    def __init__(self, m, n, terms=None):
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
        def read(dxs, sym, ext, coeff):
            key = (decode.index_set(dxs, "dxs", m), decode.exponents(sym, "sym", n),
                   decode.index_set(ext, "ext", n))
            return key, Poly.from_json(m, coeff)
        return cls(m, n, decode.terms(data, "superform", read, "dxs", "sym", "ext", "coeff"))

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
    nabla_i s_{b+1} = sum_g comps[g][b][i] s_{g+1}.  A connection is never
    changed after it is built, so its curvature R = dA + A^A is computed
    once, here, and kept in the curvature slot, which bracket_fields and
    pack_tables (for r_ints) read; callers must not mutate it.

    Next to it sit the int tables that monomial_column reads: scale is D,
    the lcm of the denominators of the coefficients of A and R;
    max_exponent is the largest exponent in any term of A or R, the most an
    exponent grows under the operator.  a_ints and r_ints hold D·A and D·R
    for keys packed in a layout of field width `width`, each term as
    (packed exponent offset, int), and view is the _form_view of that
    layout; pack_tables(lay) rebuilds them when a column of another width
    is asked for.  a_ints[i] is (dx bit, mask of
    the lower dx bits, offset of the field of x_(i+1), rows) with rows[g]
    listing (ext bit of b, sym unit of b minus that of g, terms) for each
    nonzero A_(g+1)(b+1) in dx_(i+1); r_ints[g][b] lists (2-bit dx mask,
    terms) for the 2-forms of R_(g+1)(b+1).  form_low masks the form part
    of a key, the bits below its exponent fields, and forms memoizes the
    monomial_column of each form part; pack_tables empties it on each change
    of width.
    """

    __slots__ = ("dim_base", "dim_odd", "comps", "curvature", "scale", "max_exponent",
                 "width", "view", "a_ints", "r_ints", "form_low", "forms")

    def __init__(self, m, n, comps):
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
        self.curvature = curvature(self)
        polys = [p for row in clean for cell in row for p in cell]
        polys += [p for row in self.curvature for two in row for p in two.values()]
        self.scale = lcm(*(c.denominator for p in polys for c in p.terms.values()))
        self.max_exponent = max((e for p in polys for exps in p.terms for e in exps), default=0)
        self.width = self.view = self.a_ints = self.r_ints = self.form_low = self.forms = None

    def pack_tables(self, lay):
        """Build view, a_ints, r_ints and form_low for keys packed in lay and
        start an empty forms memo, unless they already are."""
        if lay.w == self.width:
            return
        n, scale = self.dim_odd, self.scale
        zero = (0,) * n
        units = [1 << s for s in lay.shifts[:n]]

        def ints(p):
            return tuple((lay.pack(zero + e), c.numerator * (scale // c.denominator))
                         for e, c in p.terms.items())

        self.a_ints = tuple(
            (lay.pack((), (), (i + 1,)), lay.pack((), (), range(1, i + 1)), s,
             tuple(tuple((lay.pack((), (b + 1,)), units[b] - units[g], ints(cell[i]))
                         for b, cell in enumerate(row) if not cell[i].is_zero())
                   for g, row in enumerate(self.comps)))
            for i, s in enumerate(lay.shifts[n:]))
        self.r_ints = tuple(tuple(tuple((lay.pack((), (), key), ints(p)) for key, p in two.items())
                                  for two in row)
                            for row in self.curvature)
        self.width, self.view = lay.w, _form_view(lay)
        self.form_low, self.forms = (1 << sum(lay.blocks) + n * lay.w) - 1, {}

    @classmethod
    def zero(cls, m, n):
        z = Poly.zero(m)
        return cls(m, n, [[[z] * m for _ in range(n)] for _ in range(n)])

    def entry(self, gamma, beta, i):
        return self.comps[gamma - 1][beta - 1][i - 1]

    def to_json(self):
        return {"dim_base": self.dim_base, "dim_odd": self.dim_odd,
                "entries": [[[p.to_json() for p in cell] for cell in row]
                            for row in self.comps]}

    @classmethod
    def from_json(cls, data):
        m, n, entries = decode.fields(data, "connection", "dim_base", "dim_odd", "entries")
        m, n = decode.integer(m, "dim_base"), decode.integer(n, "dim_odd")
        comps = [[[Poly.from_json(m, p)
                   for p in decode.items(cell, "entries[%d][%d]" % (g, b), m)]
                  for b, cell in enumerate(decode.items(row, "entries[%d]" % g, n))]
                 for g, row in enumerate(decode.items(entries, "entries", n))]
        return cls(m, n, comps)

    def __repr__(self):
        return "OddConnection(%d|%d)" % (self.dim_base, self.dim_odd)


def curvature(conn):
    """R = dA + A^A, A^A the matrix wedge of the 1-forms of A, as an n x n
    matrix of base 2-forms {IndexSet (i,j): Poly}.  OddConnection calls this
    once per connection and keeps the result as conn.curvature; every other
    caller gets a fresh matrix."""
    a = _one_forms(conn)
    return [[_form_sum(base_d(conn.dim_base, f), w) for f, w in zip(*rows)]
            for rows in zip(a, _mat_wedge(a, a))]


def _one_forms(conn):
    """A as an n x n matrix of base 1-forms {IndexSet (i,): Poly}."""
    return [[{IndexSet((i,)): p for i, p in enumerate(cell, start=1) if not p.is_zero()}
             for cell in row] for row in conn.comps]


def _form_sum(*forms):
    out = {}
    for form in forms:
        for key, p in form.items():
            add_term(out, key, p)
    return out


def _mat_wedge(P, Q):
    """(P ^ Q)_gb = sum_k P_gk ^ Q_kb for matrices of base forms, lists of rows."""
    return [[_form_sum(*(base_wedge(p, Q[k][b]) for k, p in enumerate(row)))
             for b in range(len(Q[0]))] for row in P]


def base_d(m, comp):
    """Plain exterior derivative of a base form {dx IndexSet: Poly} on R^m."""
    out = {}
    for key, p in comp.items():
        for i in range(1, m + 1):
            nk, sgn = merge_sign((i,), key)
            if nk is not None:
                add_term(out, nk, p.partial(i).scale(sgn))
    return out


def base_wedge(c1, c2):
    """The wedge of two base forms {dx IndexSet: Poly}."""
    out = {}
    for k1, p1 in c1.items():
        for k2, p2 in c2.items():
            nk, sgn = merge_sign(k1, k2)
            if nk is not None:
                add_term(out, nk, (p1 * p2).scale(sgn))
    return out


def twisted_d(conn, omega):
    """Twisted exterior derivative of an odd-bundle-valued base form.

    omega is a list of n components, each a {dx IndexSet: Poly} form; the
    result is d omega + A wedge omega componentwise.
    """
    if len(omega) != conn.dim_odd:
        raise ValueError("section needs one component per odd generator")
    aw = _mat_wedge(_one_forms(conn), [[w] for w in omega])
    return [_form_sum(base_d(conn.dim_base, w), row[0]) for w, row in zip(omega, aw)]


def curvature_apply(curv, omega):
    """Matrix of 2-forms applied to a bundle-valued form: (R omega)_g = sum R_gb ^ omega_b."""
    return [row[0] for row in _mat_wedge(curv, [[w] for w in omega])]


def twisted_d_end(conn, mat):
    """Twisted derivative of an endomorphism-valued form: d mat + A^mat - (-1)^deg mat^A.

    mat is n x n of {dx IndexSet: Poly}; the sign of the last wedge is taken
    term by term, by the degree of each term of mat.  With mat = curvature
    this is the Bianchi identity and must vanish.
    """
    a = _one_forms(conn)
    signed = [[{k: p.scale(1 if len(k) % 2 else -1) for k, p in f.items()} for f in row]
              for row in mat]
    return [[_form_sum(base_d(conn.dim_base, f), x, y) for f, x, y in zip(*rows)]
            for rows in zip(mat, _mat_wedge(a, mat), _mat_wedge(signed, a))]


def _form_view(lay):
    """(ext mask, dx mask, all-ones field, offsets of the n sym fields) of a
    layout with blocks (n, m): what the column and shift loops read."""
    return (*lay.lows, lay.field, lay.shifts[:lay.blocks[0]])


def _left_shifts(key, view):
    """The plain left shift of one packed monomial, contracting each ds_mu
    out of the ext mask into sym entry mu: (new key, contraction sign), the
    sign the parity of the ext bits below mu."""
    ext_low, _dx_low, _field, sym_shifts = view
    ext = key & ext_low
    mask = ext
    while mask:
        low = mask & -mask
        mask ^= low
        yield (key - low + (1 << sym_shifts[low.bit_length() - 1]),
               -1 if (ext & (low - 1)).bit_count() & 1 else 1)


def _right_shifts(key, view):
    """The plain right shift of one packed monomial, moving one ds^mu out of
    sym entry mu onto the front of the ext mask: (new key, multiplicity times
    wedge sign) for each mu it can move."""
    ext_low, _dx_low, field, sym_shifts = view
    ext = key & ext_low
    for mu, s in enumerate(sym_shifts):
        e = key >> s & field
        bit = 1 << mu
        if e and not ext & bit:
            yield key - (1 << s) + bit, -e if (ext & (bit - 1)).bit_count() & 1 else e


def monomial_column(conn, key, lay):
    """D times the super exterior derivative of the one basis monomial packed
    as key in lay, as {packed key: int} with no zero entry, D = conn.scale.

    The three pieces act as
      dx_i ^ (coefficient derivative + dual connection action on sym and ext),
      (-1)^(a+b) sym-shift of each ext slot with the alternating contraction sign,
      (-1)^(a+b-1) curvature shift moving a sym slot into ext under R's 2-form,
    with a = |dxs| and b = |sym|.  The (-1)^a factors are the operator of
    numbers; the extra (-1)^b factors are the Koszul crossing signs of the
    odd shift factors past the sym block.  On the key, dx_i ^ sets bit i
    with the sign of the dx bits below it; the derivative, the sym moves and
    the shifts add or subtract field units; replacing or contracting an ext
    generator flips mask bits with the parity of the bits below; the
    curvature 2-form's sign against dx_A is mask_sign.  The connection and
    curvature pieces read conn.a_ints and conn.r_ints, packed for lay.w, so
    every entry is an int.  lay must hold every field of the column: see
    the module docstring.

    All but the derivative is linear over functions of x: the column of
    x^e·w, w the form part dx_A ds^b ds_C of the key, is w's column shifted
    by the key's exponent fields X, plus e_i·D·dx_i ^ w·x^(e - unit_i) for
    each dx_i outside A.  w's column, built at X = 0 where the derivative
    vanishes, is kept in conn.forms and returned itself when X = 0: callers
    must not mutate a column.  No term cancels: a derivative term has field
    i at e_i - 1, a shifted one every field >= e, and two derivative terms
    differ in their dx bit.
    """
    conn.pack_tables(lay)
    ext_low, dx_low, field, sym_shifts = view = conn.view
    n, scale = conn.dim_odd, conn.scale
    x = key & ~conn.form_low
    form = key ^ x
    col = conn.forms.get(form)
    if col is None:
        ext = form & ext_low
        sym = [form >> s & field for s in sym_shifts]
        a, b = (form & dx_low).bit_count(), sum(sym)
        col = {}
        get = col.get
        # dual connection action of the twisted exterior derivative
        for bit, below, _eshift, rows in conn.a_ints:
            if form & bit:
                continue
            nk = form | bit
            msign = -1 if (form & below).bit_count() & 1 else 1
            for al, e in enumerate(sym):
                if not e or not rows[al]:
                    continue
                f = -e * msign
                for _bit, move, terms in rows[al]:
                    base = nk + move
                    for off, c in terms:
                        k2 = base + off
                        col[k2] = get(k2, 0) + f * c
            mask = ext
            while mask:
                low = mask & -mask
                mask ^= low
                rest = ext ^ low
                csign = (ext & (low - 1)).bit_count()
                for bbit, _move, terms in rows[low.bit_length() - 1]:
                    if rest & bbit:
                        continue
                    f = msign if (csign + (rest & (bbit - 1)).bit_count()) & 1 else -msign
                    base = nk - low + bbit
                    for off, c in terms:
                        k2 = base + off
                        col[k2] = get(k2, 0) + f * c
        # identity left shift, ext slot to sym
        nsign = -scale if (a + b) % 2 else scale
        for k2, csign in _left_shifts(form, view):
            col[k2] = get(k2, 0) + nsign * csign
        # curvature right shift, sym slot to ext under the 2-form
        if b:
            rsign = -1 if (a + b - 1) % 2 else 1
            dxs = form & dx_low
            r_ints = conn.r_ints
            for mu in range(n):
                mbit = 1 << mu
                if ext & mbit:
                    continue
                isign = -rsign if (ext & (mbit - 1)).bit_count() & 1 else rsign
                for nu, e in enumerate(sym):
                    two = r_ints[nu][mu]
                    if not e or not two:
                        continue
                    moved = form + mbit - (1 << sym_shifts[nu])
                    for dmask, terms in two:
                        if form & dmask:
                            continue
                        f = isign * e * mask_sign(dmask, dxs)
                        base = moved + dmask
                        for off, c in terms:
                            k2 = base + off
                            col[k2] = get(k2, 0) + f * c
        col = conn.forms[form] = {k: v for k, v in col.items() if v}
    if not x:
        return col
    out = {k + x: v for k, v in col.items()}
    # coefficient derivative of the twisted exterior derivative
    for bit, below, eshift, _rows in conn.a_ints:
        e = key >> eshift & field
        if e and not key & bit:
            out[(key | bit) - (1 << eshift)] = (-e if (key & below).bit_count() & 1 else e) * scale
    return out


def super_d(conn, omega):
    """The super exterior derivative: the linear extension of monomial_column.

    The coefficients of omega are cleared to ints over one denominator and
    its monomials packed, the columns of its monomials summed with those
    ints, and the sum divided by that denominator times conn.scale once.
    """
    m, n = omega.dim_base, omega.dim_odd
    if (conn.dim_base, conn.dim_odd) != (m, n):
        raise ValueError("connection and form dimensions differ")
    max_exp = max((e for f in omega.terms.values() for exps in f.terms for e in exps), default=0)
    max_sym = max((e for (_a, sym, _c) in omega.terms for e in sym), default=0)
    lay = KeyLayout.fitting((n, m), n + m, max(max_exp + conn.max_exponent, max_sym + 1))
    den, ints = lay.cleared({(sym + exps, ext, dxs): c
                             for (dxs, sym, ext), f in omega.terms.items()
                             for exps, c in f.terms.items()})
    acc = {}
    get = acc.get
    for key, c in ints.items():
        for k2, v in monomial_column(conn, key, lay).items():
            acc[k2] = get(k2, 0) + c * v
    terms = {}
    for (fields, ext, dxs), c in lay.rationals(den * conn.scale, acc).items():
        key = (dxs, _new(MultiDegree, fields[:n]), ext)
        terms.setdefault(key, {})[_new(MultiDegree, fields[n:])] = c
    return SuperForm._raw(m, n, {key: Poly._raw(m, t) for key, t in terms.items()})


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
        if isinstance(index, bool) or not isinstance(index, int):
            raise ValueError("field index must be an integer: %r" % (index,))
        if index < 1:
            raise ValueError("field index is 1-based")
        self.kind = kind
        self.index = index
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

    A coordinate field acts as nabla_i = d/dx_i - sum_(gamma, beta)
    A_(gamma beta),i · ds_beta ^ (ds_gamma ⌟ ·): cartan's sym_contract on
    the Poly part, the dual connection through ext_contract and ext_wedge on
    the ext part.  An odd generator s_j acts as ext_contract(j, ·).  A
    coefficient multiplies the result from the left.
    """
    m, n = g.nvars, g.odd_dim
    if field.kind == "x":
        i = field.index
        if i > m:
            raise ValueError("coordinate index out of range")
        res = sym_contract(i, g)
        for gam, be in product(range(1, n + 1), repeat=2):
            ap = conn.entry(gam, be, i)
            if not ap.is_zero():
                res = res - PolySuperFunc.from_poly(ap, n) * ext_wedge(be, ext_contract(gam, g))
    else:
        if field.index > n:
            raise ValueError("odd generator index out of range")
        res = ext_contract(field.index, g)
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
    curv = conn.curvature
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
        perm = prod(map(factorial, sym))
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


def delta_kernel_check(conn, total_degree_cut, poly_cut):
    """Assemble the Delta operator on each homogeneous component and check its kernel.

    For every component (a, b, c) with a + b <= total_degree_cut and Poly
    coefficients of degree <= poly_cut this measures whether the
    anticommutator Theta = {d, T}, T = (-1)^(p-1) id-right on forms of
    degree p, acts as the scalar b + c (kernel exactly the pure (a, 0, 0)
    forms).  The printed difference Theta - {id-left, id-right} vanishes
    exactly when it does: by the Koszul Euler identity the brace is
    (b + c)·id on every monomial of the component, so printed_delta_zero
    is the same comparison.

    Each basis monomial's image is composed on int vectors from the
    monomial columns, D·Theta = T∘(D·d) + (D·d)∘T, summed into one dict
    and compared with D·(b + c) times the monomial.  T of a key is its
    _right_shifts, kept in a table of this call, with its number sign; every
    key of a column has form degree a + b + 1, so T of the column takes one
    sign per component.  The terms of T are basis monomials of another
    component, so a memo builds each column once.  If every row is D·lambda
    times its own key, lambda = b + c, the rank is dim (or 0 if lambda = 0):
    distinct keys scaled by one nonzero int are independent.  sparse_rank
    ranks only a component with some other row.
    """
    m, n = conn.dim_base, conn.dim_odd
    scale = conn.scale
    lay = KeyLayout.fitting((n, m), n + m, max(poly_cut + conn.max_exponent, total_degree_cut + 1))
    view = _form_view(lay)
    memo, shifts = {}, {}

    def column(key):
        col = memo.get(key)
        if col is None:
            col = memo[key] = monomial_column(conn, key, lay)
        return col

    def right(key):
        t = shifts.get(key)
        if t is None:
            t = shifts[key] = tuple(_right_shifts(key, view))
        return t

    tails = _basis_tails(lay, poly_cut)
    comps = []
    for a in range(min(m, total_degree_cut) + 1):
        for b in range(total_degree_cut - a + 1):
            tsign = 1 if (a + b) % 2 else -1
            heads = _basis_heads(lay, a, b)
            for c in range(n + 1):
                basis = [hk | tk for hk in heads for tk in tails[c]]
                if not basis:
                    continue
                lam, scalar, rows = b + c, True, []
                for key in basis:
                    img = {}
                    get = img.get
                    for k2, v in column(key).items():
                        v *= -tsign
                        for k3, t in right(k2):
                            img[k3] = get(k3, 0) + t * v
                    for tkey, t in right(key):
                        t *= tsign
                        for k2, v in column(tkey).items():
                            img[k2] = get(k2, 0) + t * v
                    img = {k: v for k, v in img.items() if v}
                    if img != ({key: scale * lam} if lam else {}):
                        scalar = False
                    rows.append(img)
                dim = len(basis)
                rank = (dim if lam else 0) if scalar else sparse_rank(rows)
                comps.append(DeltaComponentReport(
                    a=a, b=b, c=c, dim=dim,
                    theta_scalar=scalar,
                    eigenvalue=lam if scalar else None,
                    kernel_dim=dim - rank,
                    expected_kernel_dim=dim if (b == 0 and c == 0) else 0,
                    printed_delta_zero=scalar))
    return DeltaReport(comps)


def _basis_heads(lay, a, b):
    """The packed heads dx_A ds^b of basis keys with |A| = a and |b| = b."""
    n, m = lay.blocks
    return [lay.pack(sym, (), dxs) for dxs in combinations(range(1, m + 1), a)
            for sym in iter_multidegrees(n, b)]


def _basis_tails(lay, poly_cut):
    """Per size c, the packed tails ds_C x^e of basis keys with |C| = c and
    Poly degree <= poly_cut; a basis key is a head | a tail."""
    n, m = lay.blocks
    zero = (0,) * n
    exps = [lay.pack(zero + e) for tot in range(poly_cut + 1) for e in iter_multidegrees(m, tot)]
    return [[lay.pack((), ext) | xk for ext in combinations(range(1, n + 1), c) for xk in exps]
            for c in range(n + 1)]


def _degree_basis(lay, k, poly_cut):
    """The packed basis keys of total degree k and Poly degree <= poly_cut."""
    tails = [tk for part in _basis_tails(lay, poly_cut) for tk in part]
    return [hk | tk for a in range(min(lay.blocks[1], k) + 1)
            for hk in _basis_heads(lay, a, k - a) for tk in tails]


def _basis_count(m, n, k, poly_cut, cumulative=False):
    """len(_degree_basis(lay, k, poly_cut)), lay of blocks (n, m), without
    building it; with cumulative, the count of all total degrees 0..k
    together (a sum of sym_dim(n, b) over b <= B is sym_dim(n + 1, B))."""
    if k < 0:
        return 0
    sym_n = n + 1 if cumulative else n
    return (sum(comb(m, a) * sym_dim(sym_n, k - a) for a in range(min(m, k) + 1))
            * 2 ** n * comb(m + poly_cut, poly_cut))


def assembled_count(conn, op, k, poly_cut, weighted=False):
    """The number of basis monomials whose columns cohomology_dims (op
    "cohomology") or delta_kernel_check (op "delta") builds for these
    arguments, counted without building any.  With weighted, a monomial of
    the cohomology image block counts once plus once per term of A, since
    the image rank fills in with the terms of A."""
    m, n = conn.dim_base, conn.dim_odd
    if op == "delta":
        return _basis_count(m, n, k, poly_cut, cumulative=True)
    if op != "cohomology":
        raise ValueError("op must be 'delta' or 'cohomology'")
    weight = (1 + sum(len(p.terms) for row in conn.comps for cell in row for p in cell)
              if weighted else 1)
    return _basis_count(m, n, k, poly_cut) + weight * _basis_count(m, n, k - 1, poly_cut + 1)


def cohomology_dims(conn, k, poly_cut):
    """dim H^k of super_d with polynomial coefficient cutoffs.

    Kernel is taken on total degree k with coefficients of degree <= poly_cut,
    the image from degree k - 1 forms of coefficient degree <= poly_cut + 1,
    which holds a primitive of every exact form in the cutoff.  Theta =
    {d, T} is (b + c)·id and commutes with d, so a closed form's part with
    lambda = b + c > 0 is d(T w / lambda), T leaving coefficients alone, and
    its pure base part (lambda = 0, where d is the base d) is d of its radial
    homotopy, whose coefficients are one degree higher.  The expected answer
    is 1 for k = 0 and 0 for k >= 1.  Both ranks are taken on the int
    monomial columns, which are D times those of super_d.
    """
    m, n = conn.dim_base, conn.dim_odd
    if k < 0:
        return 0
    image_cut = poly_cut + 1 if k else poly_cut
    # one layout for both blocks, whose keys are compared
    lay = KeyLayout.fitting((n, m), n + m, max(image_cut + conn.max_exponent, k + 1))
    basis_k = _degree_basis(lay, k, poly_cut)
    rows = [monomial_column(conn, key, lay) for key in basis_k]
    ker_dim = len(basis_k) - sparse_rank(rows)
    if k == 0:
        return ker_dim
    allowed = set(basis_k)
    im_rows = [monomial_column(conn, key, lay) for key in _degree_basis(lay, k - 1, image_cut)]
    im_rank = sparse_rank(im_rows)
    outside = [{kk: v for kk, v in row.items() if kk not in allowed} for row in im_rows]
    im_in_cut = im_rank - sparse_rank(outside)
    return ker_dim - im_in_cut
