"""Batch verification front end: JSON inputs, canonical JSON or TSV reports.

Every randomized check derives its own generator from the global --seed as

    sub_seed = (seed * 1099511628211 + fnv1a64(check_name)) mod 2**64

so a failing check is reproducible on its own; the sub-seed is printed in the
check detail.  Reports list checks sorted by name and are rendered
canonically, making runs with identical inputs and seed byte-identical.

Exit codes: 0 every check passed, 1 some check failed, 2 malformed input
(message carries the location), 3 an input violated a module precondition.
"""

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from .cartan import (
    BigradedElem,
    ext_transport,
    homology_dims,
    predicted_homology_dims,
    sym_transport,
    twisted_shift_left,
    twisted_shift_right,
)
from .derivations import (
    DerivationClassification,
    apply_classified,
    classify,
    dimension_of_derivation_space,
    dimension_of_superderivation_space,
    reconstruct,
    ungraded_extend,
)
from .exterior import ExtElem, ExtSpace, augmentation, invert_unit
from .jets import (
    PolyDiffOp,
    PolySection,
    factor_through_jet,
    iterated_commutator,
    jet,
    nested_commutator,
)
from .liesuper import (
    LieSuperData,
    RepAndForm,
    build_from_rho_B,
    check_lie_superalgebra,
    check_structure_conditions,
)
from .linalg import mat_mul
from .poly import Poly
from .scalars import IndexSet, MultiDegree, Permutation, parse_scalar, sym_dim
from .sderham import (
    OddConnection,
    SuperForm,
    SuperVectorFieldGen,
    cohomology_dims,
    delta_kernel_check,
    evaluate,
    super_d,
    super_d_by_fields,
)
from .straighten import (
    CompElem,
    OddFamily,
    Straightening,
    family_is_commuting,
    identity_straightening,
    straighten,
    verify_straightening,
)
from .supermaps import (
    PolySuperFunc,
    SuperMapData,
    apply_map,
    filtration_check,
    order_bound_check,
    order_zero_criterion,
    pull_function,
)
from .supertensor import (
    SuperExtElem,
    SuperSpace,
    SuperSymElem,
    TensorWord,
    act_alt,
    act_sym,
    normalize_superext,
    normalize_supersym,
    superext_basis,
    supersym_basis,
)

FNV_PRIME = 1099511628211
ROUNDS = {"small": 4, "medium": 12}


def fnv1a64(name):
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * FNV_PRIME) % 2 ** 64
    return h


def sub_seed(seed, check_name):
    return (seed * FNV_PRIME + fnv1a64(check_name)) % 2 ** 64


class InputError(Exception):
    def __init__(self, message, location=""):
        super().__init__(message)
        self.location = location


class PreconditionError(Exception):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Command:
    name: str
    paths: dict
    params: dict
    seed: int = 0
    budget: str = "small"
    out: str = "json"
    quiet: bool = False


# ---------------------------------------------------------------- plumbing

def load_json(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(str(e), path) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(e.msg, "%s: line %d column %d" % (path, e.lineno, e.colno)) from None


def parsed(fn, path, *args):
    """Run a module from_json, turning its ValueError into a located InputError."""
    try:
        return fn(*args)
    except (ValueError, TypeError, KeyError) as e:
        raise InputError(str(e) or repr(e), path) from None


def scalar_entry(x, path, where):
    if isinstance(x, bool):
        raise InputError("expected a number or 'p/q' string at %s" % where, path)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parsed(parse_scalar, path, x)
    raise InputError("expected a number or 'p/q' string at %s" % where, path)


def parse_matrix(path, data):
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise InputError("expected a non-empty list of rows", path)
    width = len(data[0])
    rows = []
    for r, row in enumerate(data):
        if len(row) != width:
            raise InputError("row %d has length %d, expected %d" % (r, len(row), width), path)
        rows.append([scalar_entry(x, path, "row %d column %d" % (r, c))
                     for c, x in enumerate(row)])
    return rows


def need_keys(data, keys, path):
    if not isinstance(data, dict) or not set(keys) <= set(data):
        raise InputError("expected an object with keys %s" % "/".join(keys), path)


def int_field(data, key, path):
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError("%s must be an integer" % key, path)
    return v


# ------------------------------------------------------- random inputs

def rand_poly(rng, m, max_deg=2, terms=2):
    out = Poly.zero(m)
    for _ in range(terms):
        exps = [0] * m
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(m)] += 1
        out = out + Poly.monomial(m, exps, Fraction(rng.randint(-3, 3)))
    return out


def rand_ext(rng, space, max_terms=3, parity=None):
    out = ExtElem.zero(space)
    for _ in range(max_terms):
        sizes = [k for k in range(space.dim + 1) if parity is None or k % 2 == parity]
        k = rng.choice(sizes)
        key = sorted(rng.sample(range(1, space.dim + 1), k))
        out = out + ExtElem.monomial(space, key, Fraction(rng.randint(-3, 3)))
    return out


def rand_superfunc(rng, m, n, parity=None, max_deg=1, terms=2):
    out = PolySuperFunc.zero(m, n)
    for _ in range(terms):
        exps = [0] * m
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(m)] += 1
        sizes = [k for k in range(n + 1) if parity is None or k % 2 == parity]
        key = sorted(rng.sample(range(1, n + 1), rng.choice(sizes)))
        out = out + PolySuperFunc.monomial(m, n, exps, key, Fraction(rng.randint(-2, 2)))
    return out


def rand_connection(rng, m, n, entries=2, max_deg=1):
    z = Poly.zero(m)
    comps = [[[z] * m for _ in range(n)] for _ in range(n)]
    for _ in range(entries):
        g, b, i = rng.randint(1, n), rng.randint(1, n), rng.randint(1, m)
        comps[g - 1][b - 1] = list(comps[g - 1][b - 1])
        comps[g - 1][b - 1][i - 1] = rand_poly(rng, m, max_deg, 1)
    return OddConnection(m, n, comps)


def rand_superform_homog(rng, m, n, deg, terms=2):
    data = {}
    for _ in range(terms):
        a = rng.randint(max(0, deg - 2 * n), min(m, deg))
        dxs = IndexSet(sorted(rng.sample(range(1, m + 1), a)))
        sym = [0] * n
        for _ in range(deg - a):
            sym[rng.randrange(n)] += 1
        ext = IndexSet(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        key = (dxs, MultiDegree(sym), ext)
        if key not in data:
            data[key] = rand_poly(rng, m, 1, 1)
    return SuperForm(m, n, data)


def rand_bigraded(rng, n, m, terms=3):
    out = BigradedElem.zero(n, m)
    for _ in range(terms):
        alpha = [0] * n
        for _ in range(rng.randint(0, 2)):
            alpha[rng.randrange(n)] += 1
        key = sorted(rng.sample(range(1, m + 1), rng.randint(0, m)))
        out = out + BigradedElem.monomial(n, m, alpha, key, Fraction(rng.randint(-2, 2)))
    return out


def rand_frac_matrix(rng, rows, cols, lo=-2, hi=2):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


# ----------------------------------------------------------- subcommands

def _cmd_cp_homology(cmd):
    path = cmd.paths["F"]
    F = parse_matrix(path, load_json(path))
    kmax, lmax = cmd.params["kmax"], cmd.params["lmax"]
    if kmax < 0 or lmax < 0:
        raise PreconditionError("kmax and lmax must be non-negative")
    computed = homology_dims(F, kmax, lmax)
    predicted = predicted_homology_dims(F, kmax, lmax)
    checks = [CheckResult("homology-matches-prediction", computed == predicted,
                          "bidegrees up to (%d,%d)" % (kmax, lmax))]
    return checks, {"computed": computed, "predicted": predicted}


def _cmd_derivation_classify(cmd):
    path = cmd.paths["input"]
    data = load_json(path)
    need_keys(data, ("images",), path)
    imgs = data["images"]
    if not isinstance(imgs, list) or not imgs:
        raise InputError("images must be a non-empty list", path)
    space = parsed(ExtSpace, path, len(imgs))
    images = [parsed(ExtElem.from_json, path, space, d) for d in imgs]
    split = classify(space, images)
    rebuilt = reconstruct(split)
    same_class = classify(space, rebuilt) == split
    # the projection fixes the input exactly when it defines a derivation
    is_derivation = rebuilt == images
    action_ok = all(
        ungraded_extend(space, images, ExtElem.monomial(space, key)) ==
        apply_classified(split, ExtElem.monomial(space, key))
        for key in space.basis())
    checks = [
        CheckResult("classified-action-matches-input", action_ok,
                    "all %d basis monomials" % 2 ** space.dim),
        CheckResult("images-define-ungraded-derivation", is_derivation),
        CheckResult("reconstruction-gives-same-class", same_class),
    ]
    payload = {"odd_part_images": [e.to_json() for e in split.f_minus],
               "even_part_form": split.eta.to_json(),
               "reconstructed_images": [e.to_json() for e in rebuilt]}
    return checks, payload


def _cmd_sder_dims(cmd):
    nmax = cmd.params["nmax"]
    if nmax < 1:
        raise PreconditionError("nmax must be at least 1")
    rows, doubling, excess = [], True, True
    for n in range(1, nmax + 1):
        z = dimension_of_derivation_space(n, "Z")
        z2 = dimension_of_derivation_space(n, "Z2")
        full = dimension_of_derivation_space(n, "all")
        sup = dimension_of_superderivation_space(n)
        rows.append({"n": n, "z_graded": z, "z2_graded": z2,
                     "ungraded": full, "super": sup})
        doubling = doubling and sup == 2 * z2
        excess = excess and full - z2 == 2 ** (n - 1) - (1 if n % 2 else 0)
    checks = [
        CheckResult("super-dimension-doubles-even-graded", doubling, "n <= %d" % nmax),
        CheckResult("ungraded-excess-counts-odd-forms", excess, "n <= %d" % nmax),
    ]
    return checks, {"dimensions": rows}


def _cmd_lie_check(cmd):
    path = cmd.paths["input"]
    L = parsed(LieSuperData.from_json, path, load_json(path))
    rep = check_lie_superalgebra(L)
    checks = [
        CheckResult("super-jacobi", rep.super_jacobi,
                    "%d defect triples" % sum(1 for f in rep.failures if f[0] == "jacobi")),
        CheckResult("superalternating", rep.superalternating,
                    "sign convention: %s" % rep.convention),
    ]
    payload = {"dim": L.dim, "even_dim": L.even_dim, "odd_dim": L.odd_dim,
               "failures": [str(f) for f in rep.failures]}
    return checks, payload


def _cmd_tensor_normalize(cmd):
    path = cmd.paths["input"]
    data = load_json(path)
    need_keys(data, ("even_dim", "odd_dim", "kind", "terms"), path)
    p = int_field(data, "even_dim", path)
    q = int_field(data, "odd_dim", path)
    kind = data["kind"]
    if kind not in ("sym", "ext"):
        raise InputError("kind must be 'sym' or 'ext'", path)
    space = parsed(SuperSpace, path, p, q)
    cls = SuperSymElem if kind == "sym" else SuperExtElem
    elem = parsed(cls.from_json, path, space, data["terms"])
    normal = elem.to_json()
    roundtrip = cls.from_json(space, normal) == elem
    dims_ok = True
    for k in range(5):
        want_sym = sum(sym_dim(p, a) * comb(q, k - a) for a in range(k + 1))
        want_ext = sum(comb(p, a) * sym_dim(q, k - a) for a in range(k + 1))
        dims_ok = dims_ok and sum(1 for _ in supersym_basis(space, k)) == want_sym \
            and sum(1 for _ in superext_basis(space, k)) == want_ext
    checks = [
        CheckResult("basis-dimensions-match-binomial-sums", dims_ok, "ranks 0..4"),
        CheckResult("normal-form-roundtrips", roundtrip),
    ]
    return checks, {"normal_form": normal, "kind": kind}


def _cmd_straighten(cmd):
    path = cmd.paths["family"]
    fam = parsed(OddFamily.from_json, path, load_json(path))
    if not family_is_commuting(fam):
        raise PreconditionError("family does not commute")
    try:
        g = straighten(fam)
    except ValueError as e:
        raise PreconditionError(str(e)) from None
    rep = verify_straightening(fam, g)
    checks = [CheckResult("straightening-satisfies-insertion-rule", rep.passed,
                          "%d failures" % len(rep.failures))]
    return checks, {"straightening": g.to_json()}


def _cmd_jet_factor(cmd):
    path = cmd.paths["input"]
    data = load_json(path)
    need_keys(data, ("nvars", "rank_in", "rank_out", "op"), path)
    m = int_field(data, "nvars", path)
    rin = int_field(data, "rank_in", path)
    rout = int_field(data, "rank_out", path)
    D = parsed(PolyDiffOp.from_json, path, m, rin, rout, data["op"])
    k = cmd.params["order"]
    if k < 0:
        raise PreconditionError("jet order must be non-negative")
    if D.order > k:
        raise PreconditionError("operator order %d exceeds jet order %d" % (D.order, k))
    seed = sub_seed(cmd.seed, "jet-factor")
    rng = random.Random(seed)
    npts = ROUNDS[cmd.budget]
    ok = True
    for _ in range(npts):
        pt = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        hat = factor_through_jet(D, k, pt)
        for _ in range(2):
            s = PolySection([rand_poly(rng, m, k + 1, 2) for _ in range(rin)])
            coeffs = jet(s, k, pt).coefficients()
            want = [sum((hat[r][c] * coeffs[c] for c in range(len(coeffs))), Fraction(0))
                    for r in range(rout)]
            ok = ok and D.apply(s).evaluate(pt) == want
    checks = [CheckResult("operator-factors-through-jet", ok,
                          "sub-seed %d, %d points x 2 sections" % (seed, npts))]
    return checks, {"order": D.order, "jet_order": k}


def _cmd_supermap_check(cmd):
    path = cmd.paths["input"]
    data = load_json(path)
    need_keys(data, ("source_nvars", "source_odd", "map"), path)
    sn = int_field(data, "source_nvars", path)
    so = int_field(data, "source_odd", path)
    phi = parsed(SuperMapData.from_json, path, sn, so, data["map"])
    trials = ROUNDS[cmd.budget]
    ob_seed = sub_seed(cmd.seed, "supermap-order-bound")
    ob = order_bound_check(phi, trials=trials, seed=ob_seed)
    fl = filtration_check(phi)
    eps_seed = sub_seed(cmd.seed, "supermap-epsilon")
    rng = random.Random(eps_seed)
    eps_ok = True
    for _ in range(trials):
        f = rand_poly(rng, phi.target_nvars, 2, 2)
        img = apply_map(phi, PolySuperFunc.from_poly(f, phi.target_odd))
        eps_ok = eps_ok and img.epsilon() == pull_function(phi, f)
    checks = [
        CheckResult("base-projection-intertwines", eps_ok,
                    "sub-seed %d, %d polynomials" % (eps_seed, trials)),
        CheckResult("filtration-preserved", fl.passed,
                    "%d failures" % len(fl.failures)),
        CheckResult("order-bound-vanishing", ob.passed,
                    "sub-seed %d, defect depth %d" % (ob_seed, ob.depth)),
    ]
    payload = {"order_zero_criterion": bool(order_zero_criterion(phi)),
               "source": [phi.source_nvars, phi.source_odd],
               "target": [phi.target_nvars, phi.target_odd]}
    return checks, payload


def _cmd_sderham(cmd):
    path = cmd.paths["conn"]
    conn = parsed(OddConnection.from_json, path, load_json(path))
    op = cmd.params["op"]
    k, cutoff = cmd.params["k"], cmd.params["cutoff"]
    if cutoff < 0:
        raise PreconditionError("cutoff must be non-negative")
    if op == "d":
        fpath = cmd.paths.get("form")
        if fpath is None:
            raise InputError("--form is required for --op d", "--form")
        w = parsed(SuperForm.from_json, fpath,
                   conn.dim_base, conn.dim_odd, load_json(fpath))
        out = super_d(conn, w)
        checks = [CheckResult("d-squared-vanishes", super_d(conn, out).is_zero())]
        return checks, {"result": out.to_json()}
    if op == "delta":
        if k < 0:
            raise PreconditionError("k must be non-negative")
        rep = delta_kernel_check(conn, k, cutoff)
        checks = [
            CheckResult("kernel-is-pure-base-forms", rep.passed,
                        "degree cut %d, coefficient cut %d" % (k, cutoff)),
            CheckResult("printed-difference-vanishes", rep.printed_delta_vanishes),
        ]
        return checks, rep.as_dict()
    # cohomology
    if k < 0:
        raise PreconditionError("k must be non-negative")
    dim = cohomology_dims(conn, k, cutoff)
    expected = 1 if k == 0 else 0
    checks = [CheckResult("cohomology-matches-expected", dim == expected,
                          "degree %d, coefficient cut %d" % (k, cutoff))]
    return checks, {"dim": dim, "expected": expected}


# ----------------------------------------------------------- fuzz suite

def _fuzz_cartan_homology(rng, rounds):
    for _ in range(rounds):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        F = rand_frac_matrix(rng, m, n)
        if homology_dims(F, 2, 2) != predicted_homology_dims(F, 2, 2):
            return False, "matrix %r" % (F,)
    return True, "%d matrices, dims <= 3" % rounds


def _fuzz_cartan_shifts(rng, rounds):
    n = 3
    for _ in range(rounds):
        A = rand_frac_matrix(rng, n, n)
        B = rand_frac_matrix(rng, n, n)
        x = rand_bigraded(rng, n, n)
        z = BigradedElem.zero(n, n)
        left = twisted_shift_left(A, twisted_shift_left(B, x)) \
            + twisted_shift_left(B, twisted_shift_left(A, x))
        right = twisted_shift_right(A, twisted_shift_right(B, x)) \
            + twisted_shift_right(B, twisted_shift_right(A, x))
        mixed = twisted_shift_right(A, twisted_shift_left(B, x)) \
            + twisted_shift_left(B, twisted_shift_right(A, x))
        want = sym_transport(mat_mul(A, B), x) + ext_transport(mat_mul(B, A), x)
        if not (left == z and right == z and mixed == want):
            return False, "matrices %r, %r" % (A, B)
    return True, "%d pairs, dim 3" % rounds


def _fuzz_derivation_roundtrip(rng, rounds):
    for _ in range(rounds):
        n = rng.randint(1, 4)
        space = ExtSpace(n)
        f_minus = [rand_ext(rng, space, parity=1) for _ in range(n)]
        eta = rand_ext(rng, space, parity=1)
        if n % 2 == 1:
            eta = eta - eta.degree_part(n)
        split = DerivationClassification(space, f_minus, eta)
        images = reconstruct(split)
        if classify(space, images) != split:
            return False, "class drift at n=%d" % n
        for _ in range(3):
            a = rand_ext(rng, space)
            if ungraded_extend(space, images, a) != apply_classified(split, a):
                return False, "action mismatch at n=%d" % n
    return True, "%d derivations, n <= 4" % rounds


def _fuzz_exterior_inverse(rng, rounds):
    space = ExtSpace(4)
    done = 0
    while done < rounds:
        a = rand_ext(rng, space)
        if augmentation(a) == 0:
            continue
        done += 1
        if invert_unit(a).wedge(a) != ExtElem.unit(space):
            return False, "left inverse failed"
        if a.wedge(invert_unit(a)) != ExtElem.unit(space):
            return False, "right inverse failed"
    return True, "%d invertible elements, dim 4" % rounds


def _rand_diffop(rng, m, rank, order):
    terms = {}
    for _ in range(2):
        alpha = [0] * m
        for _ in range(rng.randint(0, order)):
            alpha[rng.randrange(m)] += 1
        terms[MultiDegree(alpha)] = [[rand_poly(rng, m, 1, 1) for _ in range(rank)]
                                     for _ in range(rank)]
    return PolyDiffOp(m, rank, rank, terms)


def _fuzz_jets_commutators(rng, rounds):
    for _ in range(rounds):
        m = rng.randint(1, 2)
        D = _rand_diffop(rng, m, rng.randint(1, 2), 2)
        fs = [rand_poly(rng, m, 1, 2) for _ in range(rng.randint(1, 3))]
        if iterated_commutator(D, fs) != nested_commutator(D, fs):
            return False, "closed form differs from nesting"
        killers = [rand_poly(rng, m, 1, 2) for _ in range(D.order + 1)]
        if any(not p.is_zero() for row in
               iterated_commutator(D, killers).terms.values() for p in row):
            return False, "order-%d operator survived %d commutators" % (D.order, D.order + 1)
    return True, "%d operators, order <= 2" % rounds


def _fuzz_jets_factorization(rng, rounds):
    for _ in range(rounds):
        m = rng.randint(1, 2)
        D = _rand_diffop(rng, m, 1, 2)
        k = max(D.order, 0)
        pt = [Fraction(rng.randint(-2, 2)) for _ in range(m)]
        hat = factor_through_jet(D, k, pt)
        s = PolySection([rand_poly(rng, m, k + 1, 2)])
        coeffs = jet(s, k, pt).coefficients()
        want = [sum((hat[r][c] * coeffs[c] for c in range(len(coeffs))), Fraction(0))
                for r in range(len(hat))]
        if D.apply(s).evaluate(pt) != want:
            return False, "factorization failed at %r" % (pt,)
    return True, "%d operators" % rounds


def _rand_rep_data(rng):
    if rng.random() < 0.5:
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        even = None
        m1 = rand_frac_matrix(rng, q, q)
        rho = [m1]
        for _ in range(p - 1):
            c0, c1 = rng.randint(-2, 2), rng.randint(-2, 2)
            rho.append([[c1 * m1[i][j] + (c0 if i == j else 0) for j in range(q)]
                        for i in range(q)])
    else:
        p, q = 2, 2
        even = [[(0, 0), (0, 1)], [(0, -1), (0, 0)]]
        t = rng.randint(-2, 2)
        rho = [[[1, 0], [0, 0]], [[0, t], [0, 0]]]
    B = [[None] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            vec = tuple(Fraction(rng.randint(-2, 2)) for _ in range(p))
            B[i][j] = vec
            B[j][i] = vec
    return RepAndForm(p, q, rho, B, even)


def _fuzz_lie_biconditional(rng, rounds):
    for _ in range(rounds):
        data = _rand_rep_data(rng)
        built = build_from_rho_B(data)
        if check_structure_conditions(data).passed != check_lie_superalgebra(built).passed:
            return False, "structure conditions disagree with the built bracket"
    return True, "%d representation-and-form inputs" % rounds


def _apply_subst(g, x):
    out = ExtElem.zero(g.space)
    for key, c in x.terms.items():
        out = out + g.apply_to_monomial(key).scale(c)
    return out


def _rand_commuting_family(rng, n, q):
    """Conjugate the pure insertion family by a unipotent substitution."""
    space = identity_straightening(q).space
    images = []
    for nu in range(1, q + 1):
        im = ExtElem.generator(space, nu)
        if q >= 3 and rng.random() < 0.7:
            key = sorted(rng.sample(range(1, q + 1), 3))
            im = im + ExtElem.monomial(space, key, Fraction(rng.randint(-2, 2)))
        images.append(im)
    g = Straightening(q, images)
    cols = rng.sample(range(q), n)
    f_mat = [[Fraction(0)] * n for _ in range(q)]
    for i, r in enumerate(cols):
        f_mat[r][i] = Fraction(rng.choice([1, 2, -1]))
    ginv = []
    for nu in range(1, q + 1):
        target = ExtElem.generator(space, nu)
        x = target
        for _ in range(q // 2 + 1):
            x = target - (_apply_subst(g, x) - x)
        ginv.append(x)
    comps = []
    for i in range(n):
        fcol = [f_mat[mu][i] for mu in range(q)]
        terms = {}
        for nu in range(1, q + 1):
            img = _apply_subst(g, ginv[nu - 1].insert(fcol))
            for key, c in img.terms.items():
                terms[(key, nu)] = c
        comps.append(CompElem(q, terms))
    return OddFamily(n, q, comps)


def _fuzz_straighten(rng, rounds):
    for _ in range(rounds):
        q = rng.randint(2, 4)
        n = rng.randint(1, min(2, q))
        fam = _rand_commuting_family(rng, n, q)
        if not family_is_commuting(fam):
            return False, "generator produced a non-commuting family"
        rep = verify_straightening(fam, straighten(fam))
        if not rep.passed:
            return False, "insertion rule failed on %d monomials" % len(rep.failures)
    return True, "%d families, dim <= 4" % rounds


def _rand_supermap(rng):
    n, q = rng.randint(1, 2), rng.randint(1, 2)
    sn, sq = rng.randint(1, 2), rng.randint(1, 3)
    coords = []
    for _ in range(n):
        f = rand_superfunc(rng, sn, sq, parity=0, max_deg=1)
        coords.append(f + PolySuperFunc.coordinate(sn, sq, rng.randint(1, sn)))
    odds = []
    for _ in range(q):
        f = rand_superfunc(rng, sn, sq, parity=1, max_deg=1)
        odds.append(f + PolySuperFunc.odd_generator(sn, sq, rng.randint(1, sq)))
    return SuperMapData(coords, odds)


def _fuzz_supermaps(rng, rounds):
    for _ in range(rounds):
        phi = _rand_supermap(rng)
        if not order_bound_check(phi, trials=2, seed=rng.randrange(2 ** 32)).passed:
            return False, "order bound violated by %r" % phi
        f = rand_poly(rng, phi.target_nvars, 2, 2)
        img = apply_map(phi, PolySuperFunc.from_poly(f, phi.target_odd))
        if img.epsilon() != pull_function(phi, f):
            return False, "base projection does not intertwine"
    return True, "%d morphisms" % rounds


def _fuzz_supertensor(rng, rounds):
    space = SuperSpace(2, 2)
    for _ in range(rounds):
        k = rng.randint(0, 4)
        factors = [(rng.randint(0, 1), rng.randint(1, 2)) for _ in range(k)]
        w = TensorWord(space, factors, Fraction(rng.randint(-3, 3)))
        images = list(range(1, k + 1))
        rng.shuffle(images)
        sigma = Permutation(images)
        if normalize_supersym(act_sym(sigma, w)) != normalize_supersym(w):
            return False, "symmetric action does not descend"
        if normalize_superext(act_alt(sigma, w)) != normalize_superext(w):
            return False, "alternating action does not descend"
    return True, "%d words, rank <= 4" % rounds


def _fuzz_sderham_routes(rng, rounds):
    m, n = 2, 2
    for _ in range(rounds):
        conn = rand_connection(rng, m, n) if rng.random() < 0.7 \
            else OddConnection.zero(m, n)
        deg = rng.randint(1, 2)
        w = rand_superform_homog(rng, m, n, deg)
        fields = []
        for _ in range(deg + 1):
            if rng.random() < 0.5:
                fields.append(SuperVectorFieldGen("x", rng.randint(1, m)))
            else:
                fields.append(SuperVectorFieldGen("s", rng.randint(1, n)))
        if super_d_by_fields(conn, w, fields) != evaluate(super_d(conn, w), fields):
            return False, "double sum disagrees with the operator route"
        if not super_d(conn, super_d(conn, w)).is_zero():
            return False, "d squared is nonzero"
    return True, "%d forms, both routes" % rounds


def _fuzz_sderham_cohomology(rng, rounds):
    for _ in range(max(2, rounds // 2)):
        conn = rand_connection(rng, 2, 1, entries=1)
        if cohomology_dims(conn, 0, 2) != 1:
            return False, "constants missing in degree 0"
        if cohomology_dims(conn, 1, 1) != 0:
            return False, "nonzero first cohomology"
    return True, "%d random connections" % max(2, rounds // 2)


FUZZ_CHECKS = {
    "cartan-homology-prediction": _fuzz_cartan_homology,
    "cartan-twisted-shift-braces": _fuzz_cartan_shifts,
    "derivations-classify-roundtrip": _fuzz_derivation_roundtrip,
    "exterior-unit-inverse": _fuzz_exterior_inverse,
    "jets-commutator-closed-form": _fuzz_jets_commutators,
    "jets-factor-through-jet": _fuzz_jets_factorization,
    "lie-structure-biconditional": _fuzz_lie_biconditional,
    "sderham-two-routes-agree": _fuzz_sderham_routes,
    "sderham-polynomial-cohomology": _fuzz_sderham_cohomology,
    "straighten-random-families": _fuzz_straighten,
    "supermaps-order-and-base": _fuzz_supermaps,
    "supertensor-actions-descend": _fuzz_supertensor,
}


def _cmd_fuzz_all(cmd):
    rounds = ROUNDS[cmd.budget]
    checks = []
    for name in sorted(FUZZ_CHECKS):
        seed = sub_seed(cmd.seed, name)
        ok, detail = FUZZ_CHECKS[name](random.Random(seed), rounds)
        checks.append(CheckResult(name, ok, "sub-seed %d: %s" % (seed, detail)))
    return checks, {"budget": cmd.budget, "rounds": rounds}


HANDLERS = {
    "cp-homology": _cmd_cp_homology,
    "derivation-classify": _cmd_derivation_classify,
    "sder-dims": _cmd_sder_dims,
    "lie-check": _cmd_lie_check,
    "tensor-normalize": _cmd_tensor_normalize,
    "straighten": _cmd_straighten,
    "jet-factor": _cmd_jet_factor,
    "supermap-check": _cmd_supermap_check,
    "sderham": _cmd_sderham,
    "fuzz-all": _cmd_fuzz_all,
}


# ------------------------------------------------------------- rendering

def _tsv_payload(prefix, value, lines):
    dump = lambda x: json.dumps(x, sort_keys=True)
    if isinstance(value, dict):
        for k in sorted(value):
            _tsv_payload("%s.%s" % (prefix, k) if prefix else str(k), value[k], lines)
    elif isinstance(value, list) and value and all(isinstance(v, list) for v in value):
        for i, row in enumerate(value):
            lines.append("%s[%d]\t%s" % (prefix, i, "\t".join(dump(x) for x in row)))
    elif isinstance(value, list):
        lines.append("%s\t%s" % (prefix, "\t".join(dump(x) for x in value)))
    else:
        lines.append("%s\t%s" % (prefix, dump(value)))


def render_report(report, out):
    if out == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    lines = ["check\tstatus\tdetail"]
    for c in report["checks"]:
        lines.append("%s\t%s\t%s" % (c["name"], "PASS" if c["passed"] else "FAIL",
                                     c["detail"]))
    for key in sorted(report):
        if key in ("checks", "command", "seed", "passed"):
            continue
        _tsv_payload(key, report[key], lines)
    lines.append("passed\t%s" % json.dumps(report["passed"]))
    return "\n".join(lines) + "\n"


def run(cmd):
    """Execute one command; returns (exit code, stdout text, stderr text)."""
    try:
        checks, payload = HANDLERS[cmd.name](cmd)
    except InputError as e:
        loc = " [%s]" % e.location if e.location else ""
        return 2, "", "error: malformed input: %s%s\n" % (e, loc)
    except PreconditionError as e:
        return 3, "", "error: precondition failed: %s\n" % e
    checks = sorted(checks, key=lambda c: c.name)
    report = {"command": cmd.name, "seed": cmd.seed,
              "passed": all(c.passed for c in checks),
              "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                         for c in checks]}
    for key, value in payload.items():
        report[key] = value
    text = "" if cmd.quiet else render_report(report, cmd.out)
    return (0 if report["passed"] else 1), text, ""


# -------------------------------------------------------------- argparse

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="64-bit seed deriving every random stream")
    common.add_argument("--budget", choices=("small", "medium"), default="small",
                        help="iteration budget for randomized checks")
    common.add_argument("--out", choices=("json", "tsv"), default="json",
                        help="report format")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the report, keep the exit code")
    parser = argparse.ArgumentParser(
        prog="superalg",
        description="exact-arithmetic checks for exterior superalgebra data")
    sub = parser.add_subparsers(dest="command", required=True)

    cp = sub.add_parser("cp-homology", parents=[common],
                        help="bigraded homology of an interior-product boundary map")
    cp.add_argument("matrix", nargs="?", help="matrix JSON (rows of 'p/q' entries)")
    cp.add_argument("--F", dest="f_flag", help="matrix JSON, same as the positional")
    cp.add_argument("--kmax", type=int, default=3)
    cp.add_argument("--lmax", type=int, default=3)

    dc = sub.add_parser("derivation-classify", parents=[common],
                        help="split a derivation and reconstruct it")
    dc.add_argument("path", help="JSON with an images list of exterior elements")

    sd = sub.add_parser("sder-dims", parents=[common],
                        help="derivation space dimension table")
    sd.add_argument("--nmax", type=int, default=4)

    lc = sub.add_parser("lie-check", parents=[common],
                        help="verify structure constants form a Lie superalgebra")
    lc.add_argument("path", help="structure constants JSON")

    tn = sub.add_parser("tensor-normalize", parents=[common],
                        help="normal form in the super symmetric or exterior quotient")
    tn.add_argument("path", help="JSON with even_dim/odd_dim/kind/terms")

    stn = sub.add_parser("straighten", parents=[common],
                         help="solve a commuting odd family to insertion form")
    stn.add_argument("--family", required=True, help="family JSON")

    jf = sub.add_parser("jet-factor", parents=[common],
                        help="factor a differential operator through a jet prolongation")
    jf.add_argument("path", help="JSON with nvars/rank_in/rank_out/op")
    jf.add_argument("--order", type=int, required=True, help="jet order k")

    sm = sub.add_parser("supermap-check", parents=[common],
                        help="order bound and base compatibility of a superalgebra morphism")
    sm.add_argument("path", help="JSON with source_nvars/source_odd/map")

    sdr = sub.add_parser("sderham", parents=[common],
                         help="super exterior derivative diagnostics")
    sdr.add_argument("--conn", required=True, help="odd connection JSON")
    sdr.add_argument("--op", required=True, choices=("d", "delta", "cohomology"))
    sdr.add_argument("--k", type=int, default=1,
                     help="total form degree (cohomology) or degree cut (delta)")
    sdr.add_argument("--cutoff", type=int, default=2,
                     help="polynomial coefficient degree cut")
    sdr.add_argument("--form", help="superform JSON, required for --op d")

    sub.add_parser("fuzz-all", parents=[common],
                   help="randomized identity suite across every module")
    return parser


def command_from_args(args):
    paths, params = {}, {}
    if args.command == "cp-homology":
        if (args.matrix is None) == (args.f_flag is None):
            raise InputError("pass the matrix either positionally or via --F", "--F")
        paths["F"] = args.matrix or args.f_flag
        params["kmax"], params["lmax"] = args.kmax, args.lmax
    elif args.command in ("derivation-classify", "lie-check",
                          "tensor-normalize", "supermap-check"):
        paths["input"] = args.path
    elif args.command == "sder-dims":
        params["nmax"] = args.nmax
    elif args.command == "straighten":
        paths["family"] = args.family
    elif args.command == "jet-factor":
        paths["input"] = args.path
        params["order"] = args.order
    elif args.command == "sderham":
        paths["conn"] = args.conn
        if args.form is not None:
            paths["form"] = args.form
        params["op"] = args.op
        params["k"], params["cutoff"] = args.k, args.cutoff
    return Command(name=args.command, paths=paths, params=params,
                   seed=args.seed % 2 ** 64, budget=args.budget,
                   out=args.out, quiet=args.quiet)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cmd = command_from_args(args)
    except InputError as e:
        sys.stderr.write("error: malformed input: %s\n" % e)
        return 2
    code, text, err = run(cmd)
    if text:
        sys.stdout.write(text)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
