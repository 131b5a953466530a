"""Batch verification front end: JSON inputs, canonical JSON or TSV reports.

Every randomized check derives its own generator from the global --seed as

    sub_seed = (seed * 1099511628211 + fnv1a64(check_name)) mod 2**64

and the sub-seed is printed in the check detail.  A failing fuzz-all check
re-runs on its own as FUZZ_CHECKS[name](random.Random(sub_seed),
ROUNDS[budget]), which returns the (passed, detail) pair behind its report
line.  Reports list checks sorted by name and are rendered canonically,
making runs with identical inputs and seed byte-identical.

Exit codes: 0 every check passed, 1 some check failed, 2 malformed input
(message carries the location), 3 an input violated a module precondition.
"""

import argparse
import functools
import json
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul
from pathlib import Path

from . import decode
from .cartan import (
    ext_transport,
    homology_dims,
    homology_table_size,
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
from .exterior import ExtElem, ExtSpace, invert_unit
from .jets import (
    PolyDiffOp,
    PolySection,
    factor_through_jet,
    iterated_commutator,
    jet,
    jet_multidegrees,
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
from .lincomb import add_term
from .poly import Poly
from .scalars import IndexSet, MultiDegree, Permutation, sym_dim
from .sderham import (
    OddConnection,
    SuperForm,
    SuperVectorFieldGen,
    assembled_count,
    cohomology_dims,
    delta_kernel_check,
    evaluate,
    super_d,
    super_d_by_fields,
)
from .straighten import (
    OddFamily,
    Straightening,
    conjugated_family,
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
    SuperSpace,
    TensorWord,
    act_alt,
    act_sym,
    normalize_superext,
    normalize_supersym,
    superext_basis,
    supersym_basis,
    tensor_from_json,
    tensor_to_json,
)

FNV_PRIME = 1099511628211
ROUNDS = {"small": 4, "medium": 12}
# check_lie_superalgebra visits every basis triple and sums products of two
# nonzero brackets, so its time grows as dim**3 on a sparse table and about as
# dim**5 on a dense one, and lie-check refuses a larger total dimension, or
# more nonzero bracket coefficients.  On tables with every coefficient
# nonzero that parity allows (2-CPU host, CPU time): 8|8 (2,048 nonzero)
# takes 0.12 s, 12|12 (6,912) 0.76 s, 20|0 (8,000) 0.89 s, 24|0 (13,824)
# 2.7 s, 16|16 (16,384) 3.0 s and 32|0 (32,768) 14 s; a 32|0 table whose two
# halves bracket into each other (8,192) takes 0.63 s, and gl(3|3), of
# dimension 36 with 420 nonzero, 0.04 s.  The slowest table timed that both
# limits allow, 36|0 with every [L_i, L_j], j <= 15, the sum of L_1 .. L_15
# (8,100), takes 1.6-1.9 s through lie-check; 1.35 s at 32|0, 2.0 s at 48|0.
LIE_MAX_DIM = 36
LIE_MAX_COEFFS = 8192
# tensor-normalize enumerates every basis word of ranks 0..4, about dim**4 of
# them, and derivation-classify acts on all 2**n basis monomials of n images.
TENSOR_MAX_DIM = 32
DERIVATION_MAX_IMAGES = 12
# straighten's level solves grow steeply with dim_s: a one-vector family takes
# about 0.01 s at 7 odd generators, 0.02 s at 8 and 0.04 s at 9 (2-CPU host).
STRAIGHTEN_MAX_ODD = 7
# cp-homology ranks a block per bidegree of its table, and the blocks out of
# degree kmax + 1 and into l = lmax + 1 next to it, so it refuses a table
# whose bidegrees span more basis elements (cartan.homology_table_size).  The
# count tracks the time loosely.  Timed on a few random half-integer F each
# (2-CPU host, CPU time, min of 3 runs per F), so the ranges are samples and
# not bounds: another F can take longer.  The 5x5 table with k, l <= 5 spans
# 14,574 and took 0.78-0.83 s, 6x6 with k, l <= 3 spans 6,720 and took
# 0.29-0.47 s, 8x8 with k <= 3, l <= 2 spans 11,595 and took 5.4-5.9 s, 7x7
# with k, l <= 3 spans 15,030 and took 7.2-10.6 s, and the refused 9x9 with
# k <= 2, l <= 3 spans 16,000 and took 11.8-15.1 s.  The limit, 121², is the
# span of a 1x2 F with kmax 120 and lmax 0.
HOMOLOGY_MAX_DIM = 14641
# sderham --op cohomology and --op delta build one column per basis monomial
# (sderham.assembled_count: for cohomology, the degree k basis and the degree
# k - 1 basis at cutoff + 1) and rank them, so they refuse more monomials.
# The image rank fills in with the terms of A, so cohomology counts each
# image monomial once per term of A plus once; a zero connection counts
# what it builds.  Every cohomology shape under the limit with m, n <= 4,
# k <= 6 and cutoff <= 5 was timed (2-CPU host, CPU time) on the zero
# connection, on connections with every entry a degree-1 Poly with no zero
# coefficient (dense) and on random ones with up to 8 entries of degree <= 2:
# with k >= 1 the slowest took 0.015-0.019 s (zero 4|4, k = 2, cutoff 1,
# 4,480), and at k = 0 on dense connections up to the limit 0.095-0.10 s
# (3|4, cutoff 10, 4,576).  Dense 4|4 with k = 2 and cutoff 0 builds 1,152
# monomials and took 8.7-8.8 s, nearly all of it ranking the image block; it
# counts 205,952.  The slowest dense --op delta run found under the limit is
# 3|3 with k = 4 and cutoff 1 (4,128 monomials, 0.17-0.28 s, the first run
# the slowest as it builds the connection's form columns).  Each time is
# the min-max of 3 runs, 2 for dense 4|4.
SDERHAM_MAX_DIM = 5000
# supermap-check's order bound images a random argument spanning 2**q exterior
# monomials through p // 2 + 1 nested commutators, one memoized level at a
# time, into an algebra spanning 2**p (source odd rank p, target odd rank q),
# so it refuses a larger p + q.  Criterion-9 shaped maps 1|p -> 2|q (2-CPU
# host, --budget small, CPU time): p + q = 10 takes 0.013-0.06 s (1|1 -> 2|9
# the slowest, 1|6 -> 2|4 0.045 s at --budget medium), and above the limit
# 1|9 -> 2|4 takes 0.05 s and 1|4 -> 2|10 0.23 s.
SUPERMAP_MAX_ODD = 10
# Each random argument of the order bound is a degree-2 polynomial in the n
# target coordinates, so its time also grows steeply with n, and
# supermap-check refuses a larger target even rank.  Criterion-9 shaped maps
# 1|p -> n|q (2-CPU host, --budget small): 1|4 -> n|2 takes 0.006 s at n = 2,
# 0.015 s at 3, 0.04 s at 4, 0.26 s at 6 and 1.1 s at 8; the slowest at n = 3
# with p + q = 10 is 1|9 -> 3|1 (0.15 s), and 1|8 -> 4|2 takes 0.94 s.
SUPERMAP_MAX_EVEN = 3
# jet-factor's factoring matrix has rank_out rows of C(m + k, k)·rank_in
# entries, so it refuses a larger one, or m or k at the limit.  The time also
# grows with m and, through the Taylor coefficients' size, with k (2-CPU host,
# --budget small, one jet basis per job): at the limit m = 1998, k = 1 takes
# 0.8 s (1.7 s at medium), m = 1, k = 1998 1.1 s, the zero operator from
# rank 1 to 2000 0.17 s, and m = 2, k = 61 or m = 61, k = 2 0.1 s; above it,
# m = 8, k = 8 (12,870) takes 0.6 s, m = 1, k = 4999 5.2 s, m = 300, k = 2
# (45,451) 3.5 s and the zero operator from rank 1 to 10**5 8 s.
JET_MAX_DIM = 2000
# sder-dims prints closed-form dimensions of about n·2^n, whose digits grow
# with n: nmax 100 takes 0.5 ms and prints 11 KB, 1,000 takes 11 ms and
# prints 522 KB, 10,000 takes 2.9 s and prints 46 MB, and from about 14,300
# a dimension has more digits than Python converts to a string.
SDER_DIMS_MAX_N = 100


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
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise InputError(str(e), path) from None


@contextmanager
def parsed(path):
    """Turn a ValueError of the input readers into an InputError located at path."""
    try:
        yield
    except ValueError as e:
        raise InputError(str(e), path) from None


def parse_matrix(data):
    if not decode.items(data, "matrix"):
        raise ValueError("matrix must have at least one row")
    width = len(decode.items(data[0], "row 0"))
    return [[decode.scalar(x, "row %d column %d" % (r, c))
             for c, x in enumerate(decode.items(row, "row %d" % r, width))]
            for r, row in enumerate(data)]


# ------------------------------------------------------- random inputs

def rand_poly(rng, m, max_deg=2, terms=2):
    out = {}
    for _ in range(terms):
        exps = [0] * m
        for _ in range(rng.randint(0, max_deg) if m else 0):
            exps[rng.randrange(m)] += 1
        add_term(out, MultiDegree(exps), Fraction(rng.randint(-3, 3)))
    return Poly._raw(m, out)


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


def rand_frac_matrix(rng, rows, cols, lo=-2, hi=2):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


# ----------------------------------------------------------- subcommands

def _cmd_cp_homology(args):
    if (args.matrix is None) == (args.f_flag is None):
        raise InputError("pass the matrix either positionally or via --F")
    path = args.f_flag if args.matrix is None else args.matrix
    with parsed(path):
        F = parse_matrix(load_json(path))
    kmax, lmax = args.kmax, args.lmax
    if kmax < 0 or lmax < 0:
        raise PreconditionError("kmax and lmax must be non-negative")
    size = homology_table_size(len(F), len(F[0]), kmax, lmax)
    if size > HOMOLOGY_MAX_DIM:
        raise PreconditionError("the table spans %d basis elements, above the limit of %d"
                                % (size, HOMOLOGY_MAX_DIM))
    computed = homology_dims(F, kmax, lmax)
    predicted = predicted_homology_dims(F, kmax, lmax)
    checks = [CheckResult("homology-matches-prediction", computed == predicted,
                          "bidegrees up to (%d,%d)" % (kmax, lmax))]
    return checks, {"computed": computed, "predicted": predicted}


def _cmd_derivation_classify(args):
    with parsed(args.path):
        (images,) = decode.fields(load_json(args.path), "derivation input", "images")
        n = decode.integer(len(decode.items(images, "images")), "number of images", 1)
        if n > DERIVATION_MAX_IMAGES:
            raise PreconditionError("%d images, above the limit of %d"
                                    % (n, DERIVATION_MAX_IMAGES))
        space = ExtSpace(n)
        images = [ExtElem.from_json(space, d) for d in images]
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


def _cmd_sder_dims(args):
    nmax = args.nmax
    if not 1 <= nmax <= SDER_DIMS_MAX_N:
        raise PreconditionError("nmax must be in 1..%d, got %d" % (SDER_DIMS_MAX_N, nmax))
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


def _cmd_lie_check(args):
    with parsed(args.path):
        L = LieSuperData.from_json(load_json(args.path))
    if L.dim > LIE_MAX_DIM:
        raise PreconditionError("even_dim + odd_dim is %d, above the limit of %d"
                                % (L.dim, LIE_MAX_DIM))
    coeffs = sum(1 for vec in L.brackets.values() for c in vec if c)
    if coeffs > LIE_MAX_COEFFS:
        raise PreconditionError("the brackets have %d nonzero coefficients, above the limit of %d"
                                % (coeffs, LIE_MAX_COEFFS))
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


def _cmd_tensor_normalize(args):
    with parsed(args.path):
        p, q, kind, terms = decode.fields(load_json(args.path), "tensor input",
                                          "even_dim", "odd_dim", "kind", "terms")
        if kind not in ("sym", "ext"):
            raise ValueError("kind must be 'sym' or 'ext', got %.40r" % (kind,))
        space = SuperSpace(decode.integer(p, "even_dim"), decode.integer(q, "odd_dim"))
        elem = tensor_from_json(kind, space, terms)
    if p + q > TENSOR_MAX_DIM:
        raise PreconditionError("even_dim + odd_dim is %d, above the limit of %d"
                                % (p + q, TENSOR_MAX_DIM))
    normal = tensor_to_json(kind, elem)
    roundtrip = tensor_from_json(kind, space, normal) == elem
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


def _cmd_straighten(args):
    with parsed(args.family):
        fam = OddFamily.from_json(load_json(args.family))
    if fam.dim_s > STRAIGHTEN_MAX_ODD:
        raise PreconditionError("dim_s is %d, above the limit of %d"
                                % (fam.dim_s, STRAIGHTEN_MAX_ODD))
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


def _jet_factorization_holds(D, k, pt, hat, s, basis):
    """D(s)(pt) == hat · (coefficients of the k-jet of s at pt)."""
    coeffs = jet(s, k, pt, basis).coefficients()
    return D.apply(s).evaluate(pt) == [sum(map(mul, row, coeffs), Fraction(0))
                                       for row in hat]


def _base_projection_intertwines(rng, phi):
    """epsilon(phi^* f) == f ∘ phi on the base, for one random f."""
    f = rand_poly(rng, phi.target_nvars, 2, 2)
    img = apply_map(phi, PolySuperFunc.from_poly(f, phi.target_odd))
    return img.epsilon() == pull_function(phi, f)


def _cmd_jet_factor(args):
    with parsed(args.path):
        m, rin, rout, op = decode.fields(load_json(args.path), "jet-factor input",
                                         "nvars", "rank_in", "rank_out", "op")
        m, rin, rout = (decode.integer(m, "nvars"), decode.integer(rin, "rank_in", 1),
                        decode.integer(rout, "rank_out", 1))
        D = PolyDiffOp.from_json(m, rin, rout, op)
    k = args.order
    if k < 0:
        raise PreconditionError("jet order must be non-negative")
    if D.order > k:
        raise PreconditionError("operator order %d exceeds jet order %d" % (D.order, k))
    # C(m + k, k) > max(m, k) unless m or k is 0, where the run still walks m
    # coordinates and k degrees; either way comb only sees small arguments
    if max(m, k) >= JET_MAX_DIM or comb(m + k, k) * rin * rout > JET_MAX_DIM:
        raise PreconditionError("the factoring matrix of a %d-jet in %d variables from rank %d "
                                "to rank %d has more than %d entries"
                                % (k, m, rin, rout, JET_MAX_DIM))
    seed = sub_seed(args.seed, "jet-factor")
    rng = random.Random(seed)
    npts = ROUNDS[args.budget]
    # one jet basis serves every point's factoring matrix and jets
    basis = jet_multidegrees(m, k)
    ok = True
    for _ in range(npts):
        pt = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        hat = factor_through_jet(D, k, pt, basis)
        for _ in range(2):
            s = PolySection([rand_poly(rng, m, k + 1, 2) for _ in range(rin)])
            ok = ok and _jet_factorization_holds(D, k, pt, hat, s, basis)
    checks = [CheckResult("operator-factors-through-jet", ok,
                          "sub-seed %d, %d points x 2 sections" % (seed, npts))]
    return checks, {"order": D.order, "jet_order": k}


def _cmd_supermap_check(args):
    with parsed(args.path):
        sn, so, phi = decode.fields(load_json(args.path), "supermap input",
                                    "source_nvars", "source_odd", "map")
        phi = SuperMapData.from_json(decode.integer(sn, "source_nvars"),
                                     decode.integer(so, "source_odd"), phi)
    odd = phi.source_odd + phi.target_odd
    if odd > SUPERMAP_MAX_ODD:
        raise PreconditionError("source_odd plus the number of odd_images is %d, above the "
                                "limit of %d" % (odd, SUPERMAP_MAX_ODD))
    if phi.target_nvars > SUPERMAP_MAX_EVEN:
        raise PreconditionError("the number of coord_images is %d, above the limit of %d"
                                % (phi.target_nvars, SUPERMAP_MAX_EVEN))
    trials = ROUNDS[args.budget]
    ob_seed = sub_seed(args.seed, "supermap-order-bound")
    ob = order_bound_check(phi, trials=trials, seed=ob_seed)
    fl = filtration_check(phi)
    eps_seed = sub_seed(args.seed, "supermap-epsilon")
    rng = random.Random(eps_seed)
    eps_ok = all(_base_projection_intertwines(rng, phi) for _ in range(trials))
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


def _cmd_sderham(args):
    with parsed(args.conn):
        conn = OddConnection.from_json(load_json(args.conn))
    op, k, cutoff = args.op, args.k, args.cutoff
    if cutoff < 0:
        raise PreconditionError("cutoff must be non-negative")
    if op == "d":
        if args.form is None:
            raise InputError("--form is required for --op d", "--form")
        with parsed(args.form):
            w = SuperForm.from_json(conn.dim_base, conn.dim_odd, load_json(args.form))
        out = super_d(conn, w)
        checks = [CheckResult("d-squared-vanishes", super_d(conn, out).is_zero())]
        return checks, {"result": out.to_json()}
    if k < 0:
        raise PreconditionError("k must be non-negative")
    size = assembled_count(conn, op, k, cutoff, weighted=True)
    if size > SDERHAM_MAX_DIM:
        raise PreconditionError("--op %s assembles %d weighted basis monomials, above the"
                                " limit of %d" % (op, size, SDERHAM_MAX_DIM))
    if op == "delta":
        rep = delta_kernel_check(conn, k, cutoff)
        checks = [
            CheckResult("kernel-is-pure-base-forms", rep.passed,
                        "degree cut %d, coefficient cut %d" % (k, cutoff)),
            CheckResult("printed-difference-vanishes", rep.printed_delta_vanishes),
        ]
        return checks, rep.as_dict()
    # cohomology
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
        x = rand_superfunc(rng, n, n, max_deg=2, terms=3)
        z = PolySuperFunc.zero(n, n)
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
        if a.augmentation() == 0:
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
        if not iterated_commutator(D, killers).is_zero():
            return False, "order-%d operator survived %d commutators" % (D.order, D.order + 1)
    return True, "%d operators, order <= 2" % rounds


def _fuzz_jets_factorization(rng, rounds):
    for _ in range(rounds):
        m = rng.randint(1, 2)
        D = _rand_diffop(rng, m, 1, 2)
        k = max(D.order, 0)
        pt = [Fraction(rng.randint(-2, 2)) for _ in range(m)]
        basis = jet_multidegrees(m, k)
        hat = factor_through_jet(D, k, pt, basis)
        s = PolySection([rand_poly(rng, m, k + 1, 2)])
        if not _jet_factorization_holds(D, k, pt, hat, s, basis):
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
    return conjugated_family(f_mat, g)


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
        if not _base_projection_intertwines(rng, phi):
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


def _cmd_fuzz_all(args):
    rounds = ROUNDS[args.budget]
    checks = []
    for name in sorted(FUZZ_CHECKS):
        seed = sub_seed(args.seed, name)
        ok, detail = FUZZ_CHECKS[name](random.Random(seed), rounds)
        checks.append(CheckResult(name, ok, "sub-seed %d: %s" % (seed, detail)))
    return checks, {"budget": args.budget, "rounds": rounds}


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


def run(args):
    """Execute one parsed command line, its seed already reduced mod 2**64;
    returns (exit code, stdout text, stderr text)."""
    try:
        checks, payload = args.handler(args)
    except InputError as e:
        loc = " [%s]" % e.location if e.location else ""
        return 2, "", "error: malformed input: %s%s\n" % (e, loc)
    except PreconditionError as e:
        return 3, "", "error: precondition failed: %s\n" % e
    checks = sorted(checks, key=lambda c: c.name)
    report = {"command": args.command, "seed": args.seed,
              "passed": all(c.passed for c in checks),
              "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                         for c in checks]}
    for key, value in payload.items():
        report[key] = value
    text = "" if args.quiet else render_report(report, args.out)
    return (0 if report["passed"] else 1), text, ""


# -------------------------------------------------------------- argparse

# Built on first use and kept for the process: argparse returns a fresh
# namespace from every parse, so no option carries over between main calls.
@functools.cache
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
    cp.set_defaults(handler=_cmd_cp_homology)

    dc = sub.add_parser("derivation-classify", parents=[common],
                        help="split a derivation and reconstruct it")
    dc.add_argument("path", help="JSON with an images list of exterior elements")
    dc.set_defaults(handler=_cmd_derivation_classify)

    sd = sub.add_parser("sder-dims", parents=[common],
                        help="derivation space dimension table")
    sd.add_argument("--nmax", type=int, default=4)
    sd.set_defaults(handler=_cmd_sder_dims)

    lc = sub.add_parser("lie-check", parents=[common],
                        help="verify structure constants form a Lie superalgebra")
    lc.add_argument("path", help="structure constants JSON")
    lc.set_defaults(handler=_cmd_lie_check)

    tn = sub.add_parser("tensor-normalize", parents=[common],
                        help="normal form in the super symmetric or exterior quotient")
    tn.add_argument("path", help="JSON with even_dim/odd_dim/kind/terms")
    tn.set_defaults(handler=_cmd_tensor_normalize)

    stn = sub.add_parser("straighten", parents=[common],
                         help="solve a commuting odd family to insertion form")
    stn.add_argument("--family", required=True, help="family JSON")
    stn.set_defaults(handler=_cmd_straighten)

    jf = sub.add_parser("jet-factor", parents=[common],
                        help="factor a differential operator through a jet prolongation")
    jf.add_argument("path", help="JSON with nvars/rank_in/rank_out/op")
    jf.add_argument("--order", type=int, required=True, help="jet order k")
    jf.set_defaults(handler=_cmd_jet_factor)

    sm = sub.add_parser("supermap-check", parents=[common],
                        help="order bound and base compatibility of a superalgebra morphism")
    sm.add_argument("path", help="JSON with source_nvars/source_odd/map")
    sm.set_defaults(handler=_cmd_supermap_check)

    sdr = sub.add_parser("sderham", parents=[common],
                         help="super exterior derivative diagnostics")
    sdr.add_argument("--conn", required=True, help="odd connection JSON")
    sdr.add_argument("--op", required=True, choices=("d", "delta", "cohomology"))
    sdr.add_argument("--k", type=int, default=1,
                     help="total form degree (cohomology) or degree cut (delta)")
    sdr.add_argument("--cutoff", type=int, default=2,
                     help="polynomial coefficient degree cut")
    sdr.add_argument("--form", help="superform JSON, required for --op d")
    sdr.set_defaults(handler=_cmd_sderham)

    fz = sub.add_parser("fuzz-all", parents=[common],
                        help="randomized identity suite across every module")
    fz.set_defaults(handler=_cmd_fuzz_all)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.seed %= 2 ** 64
    code, text, err = run(args)
    if text:
        sys.stdout.write(text)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
