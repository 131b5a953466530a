"""End-to-end requirement gate.

Each test exercises one of the eleven headline requirements at full scale,
entirely in exact rational arithmetic, and prints a single timing line.
Random inputs come from fixed-seed generators so the gate is reproducible.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

from famgen import pull_back_straightening, relabel_family
from oracles import leibniz_solution_dim

from superalg.cartan import (
    ext_transport,
    homology_dims,
    predicted_homology_dims,
    sym_transport,
    twisted_shift_left,
    twisted_shift_right,
)
from superalg.derivations import (
    DerivationClassification,
    apply_classified,
    classify,
    dimension_of_derivation_space,
    dimension_of_superderivation_space,
    reconstruct,
    ungraded_extend,
)
from superalg.exterior import ExtElem, ExtSpace
from superalg.jets import (
    PolyDiffOp,
    PolySection,
    factor_through_jet,
    iterated_commutator,
    jet,
    nested_commutator,
)
from superalg.liesuper import (
    RepAndForm,
    build_from_rho_B,
    check_lie_superalgebra,
    check_structure_conditions,
)
from superalg.poly import Poly
from superalg.scalars import IndexSet, MultiDegree, Permutation, sym_dim
from superalg.sderham import (
    OddConnection,
    SuperForm,
    SuperVectorFieldGen,
    cohomology_dims,
    delta_kernel_check,
    evaluate,
    super_d,
    super_d_by_fields,
)
from superalg.straighten import (
    Straightening,
    conjugated_family,
    family_is_commuting,
    identity_straightening,
    straighten,
    verify_straightening,
)
from superalg.supermaps import (
    PolySuperFunc,
    SuperMapData,
    apply_map,
    order_bound_check,
    order_zero_criterion,
    pull_function,
)
from superalg.supertensor import (
    SuperSpace,
    TensorWord,
    act_alt,
    act_sym,
    normalize_superext,
    normalize_supersym,
    superext_basis,
    supersym_basis,
)


def finish(num, label, limit, t0, detail=""):
    elapsed = time.monotonic() - t0
    print("criterion %2d PASS %5.2fs/%3ds  %s %s" % (num, elapsed, limit, label, detail))
    assert elapsed < limit


def rand_fraction(rng):
    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 1, 2]))


def rand_poly(rng, m, max_deg=2, terms=2):
    out = Poly.zero(m)
    for _ in range(terms):
        exps = [0] * m
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(m)] += 1
        out = out + Poly.monomial(m, exps, Fraction(rng.randint(-3, 3)))
    return out


def rand_ext(rng, space, parity=None, terms=3):
    out = ExtElem.zero(space)
    for _ in range(terms):
        sizes = [k for k in range(space.dim + 1) if parity is None or k % 2 == parity]
        key = sorted(rng.sample(range(1, space.dim + 1), rng.choice(sizes)))
        out = out + ExtElem.monomial(space, key, rand_fraction(rng))
    return out


# 1. brute-force Leibniz solve vs the closed dimension formulas, n = 1..4

def test_criterion_01_derivation_dimensions():
    t0 = time.monotonic()
    for n in range(1, 5):
        odd_forms = 2 ** (n - 1) - (1 if n % 2 else 0)
        assert leibniz_solution_dim(n, "plain") == n * 2 ** (n - 1) + odd_forms
        assert leibniz_solution_dim(n, "plain") == dimension_of_derivation_space(n, "all")
        sder = leibniz_solution_dim(n, "even") + leibniz_solution_dim(n, "odd")
        assert sder == n * 2 ** n == dimension_of_superderivation_space(n)
    finish(1, "derivation dimension formulas", 10, t0, "n <= 4")


# 2. split-and-rebuild fixes 200 random plain derivations exactly

def test_criterion_02_classification_roundtrip():
    t0 = time.monotonic()
    rng = random.Random(0xC2)
    spaces = [ExtSpace(n) for n in range(1, 5)]
    for _ in range(200):
        space = rng.choice(spaces)
        f_minus = [rand_ext(rng, space, parity=1) for _ in range(space.dim)]
        eta = rand_ext(rng, space, parity=1)
        if space.dim % 2 == 1:
            # top-degree forms act as zero: quotient them out of the class data
            eta = eta - eta.degree_part(space.dim)
        cls_ = DerivationClassification(space, f_minus, eta)
        images = reconstruct(cls_)
        assert classify(space, images) == cls_
        assert reconstruct(classify(space, images)) == images
        a = rand_ext(rng, space)
        assert ungraded_extend(space, images, a) == apply_classified(cls_, a)
    finish(2, "classification roundtrip", 10, t0, "200 maps, n <= 4")


# 3. bigraded homology equals the closed product formula, 50 random maps

def test_criterion_03_bigraded_homology():
    t0 = time.monotonic()
    rng = random.Random(0xC3)
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        F = [[rand_fraction(rng) for _ in range(n)] for _ in range(m)]
        assert homology_dims(F, 4, 4) == predicted_homology_dims(F, 4, 4)
    finish(3, "bigraded homology prediction", 60, t0, "50 maps, dims <= 4, k,l <= 4")


# 4. same-side shift brackets vanish, the mixed bracket transports, and the
#    identity-matrix bracket counts total degree

def test_criterion_04_twisted_shift_identities():
    t0 = time.monotonic()
    rng = random.Random(0xC4)

    def mat_mul(a, b):
        d = len(a)
        return [[sum((a[i][t] * b[t][j] for t in range(d)), Fraction(0))
                 for j in range(d)] for i in range(d)]

    for _ in range(50):
        d = rng.randint(2, 4)
        A = [[rand_fraction(rng) for _ in range(d)] for _ in range(d)]
        B = [[rand_fraction(rng) for _ in range(d)] for _ in range(d)]
        x = PolySuperFunc.zero(d, d)
        for _ in range(3):
            alpha = [0] * d
            for _ in range(rng.randint(0, 2)):
                alpha[rng.randrange(d)] += 1
            key = sorted(rng.sample(range(1, d + 1), rng.randint(0, d)))
            x = x + PolySuperFunc.monomial(d, d, alpha, key, rand_fraction(rng))
        zero = PolySuperFunc.zero(d, d)
        assert twisted_shift_left(A, twisted_shift_left(B, x)) \
            + twisted_shift_left(B, twisted_shift_left(A, x)) == zero
        assert twisted_shift_right(A, twisted_shift_right(B, x)) \
            + twisted_shift_right(B, twisted_shift_right(A, x)) == zero
        mixed = twisted_shift_right(A, twisted_shift_left(B, x)) \
            + twisted_shift_left(B, twisted_shift_right(A, x))
        assert mixed == sym_transport(mat_mul(A, B), x) + ext_transport(mat_mul(B, A), x)
        ident = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
        euler = twisted_shift_right(ident, twisted_shift_left(ident, x)) \
            + twisted_shift_left(ident, twisted_shift_right(ident, x))
        for k in range(4):
            for l in range(d + 1):
                assert euler.bidegree_part(k, l) == x.bidegree_part(k, l).scale(k + l)
    finish(4, "twisted shift identities", 30, t0, "50 pairs, dim <= 4")


# 5. commuting odd families straighten; small-kernel solves are unique

def test_criterion_05_straightening():
    t0 = time.monotonic()
    rng = random.Random(0xC5)

    def rand_subst(q):
        space = identity_straightening(q).space
        cubic = list(combinations(range(1, q + 1), 3))
        images = []
        for nu in range(1, q + 1):
            im = ExtElem.generator(space, nu)
            for key in rng.sample(cubic, min(len(cubic), rng.randint(0, 2))):
                im = im + ExtElem.monomial(space, key, rand_fraction(rng))
            images.append(im)
        return Straightening(q, images)

    def rand_injective(q, n):
        f = [[Fraction(0)] * n for _ in range(q)]
        for i, row in enumerate(rng.sample(range(q), n)):
            f[row][i] = Fraction(rng.choice([1, -1, 2]))
        return f

    for _ in range(30):
        q = rng.randint(2, 4)
        n = rng.randint(1, 2)
        fam = conjugated_family(rand_injective(q, n), rand_subst(q))
        assert family_is_commuting(fam)
        g = straighten(fam)
        assert verify_straightening(fam, g).passed
        if q - n <= 2:
            # kernel of the dual constant map too small for gauge freedom:
            # an independent solve after relabeling must agree exactly
            perm = list(range(1, q + 1))
            rng.shuffle(perm)
            other = straighten(relabel_family(fam, tuple(perm)))
            assert pull_back_straightening(other, tuple(perm)) == g
    finish(5, "straightening solver", 60, t0, "30 families, dim S <= 4")


# 6. quotient dimensions match the binomial sums; twisted actions descend

def test_criterion_06_supertensor_quotients():
    t0 = time.monotonic()
    rng = random.Random(0xC6)
    for p in range(1, 4):
        for q in range(1, 4):
            space = SuperSpace(p, q)
            for k in range(5):
                want_sym = sum(sym_dim(p, a) * comb(q, k - a) for a in range(k + 1))
                want_ext = sum(comb(p, a) * sym_dim(q, k - a) for a in range(k + 1))
                assert sum(1 for _ in supersym_basis(space, k)) == want_sym
                assert sum(1 for _ in superext_basis(space, k)) == want_ext
                for sigma in permutations(range(1, k + 1)):
                    for _ in range(2):
                        factors = []
                        for _ in range(k):
                            par = rng.randint(0, 1)
                            factors.append((par, rng.randint(1, p if par == 0 else q)))
                        w = TensorWord(space, factors, rand_fraction(rng))
                        s = Permutation(list(sigma))
                        assert normalize_supersym(act_sym(s, w)) == normalize_supersym(w)
                        assert normalize_superext(act_alt(s, w)) == normalize_superext(w)
    finish(6, "supertensor quotients", 20, t0, "dims <= 3, rank <= 4, all sigma")


# 7. representation-and-form conditions hold iff the built bracket is a
#    Lie superalgebra, 100 random inputs

def test_criterion_07_lie_biconditional():
    t0 = time.monotonic()
    rng = random.Random(0xC7)
    agreed_pass = 0
    for _ in range(100):
        if rng.random() < 0.5:
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            even = None
            m1 = [[rand_fraction(rng) for _ in range(q)] for _ in range(q)]
            rho = [m1]
            for _ in range(p - 1):
                c0, c1 = rng.randint(-2, 2), rng.randint(-2, 2)
                rho.append([[c1 * m1[i][j] + (c0 if i == j else 0)
                             for j in range(q)] for i in range(q)])
        else:
            p, q = 2, 2
            even = [[(0, 0), (0, 1)], [(0, -1), (0, 0)]]
            t = rng.randint(-2, 2)
            rho = [[[1, 0], [0, 0]], [[0, t], [0, 0]]]
        B = [[None] * q for _ in range(q)]
        for i in range(q):
            for j in range(i, q):
                vec = tuple(rand_fraction(rng) for _ in range(p))
                B[i][j] = vec
                B[j][i] = vec
        data = RepAndForm(p, q, rho, B, even)
        lhs = check_structure_conditions(data).passed
        rhs = check_lie_superalgebra(build_from_rho_B(data)).passed
        assert lhs == rhs
        agreed_pass += lhs
    finish(7, "Lie superalgebra biconditional", 30, t0,
           "100 inputs, %d satisfied both routes" % agreed_pass)


# 8. commutator closed form, order counting, and jet factorization

def test_criterion_08_jets():
    t0 = time.monotonic()
    rng = random.Random(0xC8)

    def rand_op(m, rank, order):
        terms = {}
        for _ in range(2):
            alpha = [0] * m
            for _ in range(rng.randint(0, order)):
                alpha[rng.randrange(m)] += 1
            terms[MultiDegree(alpha)] = [[rand_poly(rng, m, 1, 1) for _ in range(rank)]
                                         for _ in range(rank)]
        return PolyDiffOp(m, rank, rank, terms)

    for k in range(1, 5):
        m = rng.randint(1, 2)
        D = rand_op(m, rng.randint(1, 2), 2)
        fs = [rand_poly(rng, m, 1, 2) for _ in range(k)]
        assert iterated_commutator(D, fs) == nested_commutator(D, fs)
    for _ in range(10):
        m = rng.randint(1, 2)
        D = rand_op(m, 1, 2)
        killers = [rand_poly(rng, m, 1, 2) for _ in range(D.order + 1)]
        wiped = iterated_commutator(D, killers)
        assert wiped.is_zero()
    for _ in range(20):
        m = rng.randint(1, 2)
        D = rand_op(m, rng.randint(1, 2), 2)
        k = D.order
        for _ in range(10):
            pt = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
            hat = factor_through_jet(D, k, pt)
            s = PolySection([rand_poly(rng, m, k + 1, 2) for _ in range(D.rank_in)])
            coeffs = jet(s, k, pt).coefficients()
            want = [sum((hat[r][c] * coeffs[c] for c in range(len(coeffs))), Fraction(0))
                    for r in range(D.rank_out)]
            assert D.apply(s).evaluate(pt) == want
    finish(8, "jet calculus", 30, t0, "20 operators x 10 points")


# 9. morphism order bound, base intertwining, and the order-zero criterion
#    against a behavioral module-morphism probe, 50 random morphisms

def graded_module_morphism_probe(phi, fs, etas):
    m, p = phi.source_nvars, phi.source_odd
    n, q = phi.target_nvars, phi.target_odd
    probes = [Poly.variable(n, j) for j in range(1, n + 1)] + list(fs)
    for f in probes:
        pulled = PolySuperFunc.from_poly(pull_function(phi, f), p)
        for eta in [PolySuperFunc.unit(n, q)] + list(etas):
            if apply_map(phi, PolySuperFunc.from_poly(f, q) * eta) != \
                    pulled * apply_map(phi, eta):
                return False
    for r in range(q + 1):
        for key in combinations(range(1, q + 1), r):
            img = apply_map(phi, PolySuperFunc.monomial(n, q, (0,) * n, key))
            if img != img.degree_part(r):
                return False
    return True


def test_criterion_09_supermaps():
    t0 = time.monotonic()
    rng = random.Random(0xC9)

    def rand_superfunc(rng, m, n, terms=2):
        out = PolySuperFunc.zero(m, n)
        for _ in range(terms):
            exps = [0] * m
            for _ in range(rng.randint(0, 1)):
                exps[rng.randrange(m)] += 1
            key = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
            out = out + PolySuperFunc.monomial(m, n, exps, key, Fraction(rng.randint(-2, 2)))
        return out

    def rand_map(p):
        m, n, q = 1, 2, 2
        coords = []
        for _ in range(n):
            img = PolySuperFunc.from_poly(rand_poly(rng, m, 1, 2), p)
            if p >= 2 and rng.random() < 0.5:
                key = sorted(rng.sample(range(1, p + 1), 2))
                img = img + PolySuperFunc.from_poly(rand_poly(rng, m, 1, 1), p) \
                    * PolySuperFunc.monomial(m, p, (0,) * m, key)
            coords.append(img)
        odds = []
        for _ in range(q):
            img = PolySuperFunc.zero(m, p)
            for b in range(1, p + 1):
                img = img + PolySuperFunc.from_poly(rand_poly(rng, m, 1, 1), p) \
                    * PolySuperFunc.monomial(m, p, (0,) * m, (b,))
            if p >= 3 and rng.random() < 0.5:
                key = sorted(rng.sample(range(1, p + 1), 3))
                img = img + PolySuperFunc.monomial(m, p, (0,) * m, key,
                                                   rng.randint(-2, 2))
            odds.append(img)
        return SuperMapData(coords, odds)

    order_zero_count = 0
    for trial in range(50):
        p = rng.randint(1, 4)
        phi = rand_map(p)
        assert order_bound_check(phi, trials=2, seed=trial).passed
        for _ in range(2):
            f = rand_poly(rng, phi.target_nvars, 2, 2)
            img = apply_map(phi, PolySuperFunc.from_poly(f, phi.target_odd))
            assert img.epsilon() == pull_function(phi, f)
        fs = [rand_poly(rng, 2, 1, 2) for _ in range(2)]
        etas = [rand_superfunc(rng, 2, 2) for _ in range(2)]
        flag = order_zero_criterion(phi)
        assert flag == graded_module_morphism_probe(phi, fs, etas)
        order_zero_count += flag
    finish(9, "supermap morphism checks", 30, t0,
           "50 maps, odd source <= 4, %d of order zero" % order_zero_count)


# 10. square-zero differential both routes, plus polynomial cohomology

def rand_connection(rng, m, n, entries=3, max_deg=2):
    z = Poly.zero(m)
    comps = [[[z] * m for _ in range(n)] for _ in range(n)]
    for _ in range(entries):
        g, b, i = rng.randint(1, n), rng.randint(1, n), rng.randint(1, m)
        comps[g - 1][b - 1] = list(comps[g - 1][b - 1])
        comps[g - 1][b - 1][i - 1] = rand_poly(rng, m, max_deg, 1)
    return OddConnection(m, n, comps)


def rand_form(rng, m, n, deg):
    terms = {}
    for _ in range(2):
        a = rng.randint(max(0, deg - 2 * n), min(m, deg))
        dxs = IndexSet(sorted(rng.sample(range(1, m + 1), a)))
        sym = [0] * n
        for _ in range(deg - a):
            sym[rng.randrange(n)] += 1
        ext = IndexSet(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        key = (dxs, MultiDegree(sym), ext)
        if key not in terms:
            terms[key] = rand_poly(rng, m, 2, 2)
    return SuperForm(m, n, terms)


def test_criterion_10_super_derham():
    t0 = time.monotonic()
    rng = random.Random(0xCA)
    # d squared vanishes, flat and curved
    for m in (1, 2):
        for n in (1, 2, 3):
            for conn in [OddConnection.zero(m, n)] + \
                    [rand_connection(rng, m, n) for _ in range(4)]:
                for _ in range(3):
                    w = rand_form(rng, m, n, rng.randint(0, 2))
                    assert super_d(conn, super_d(conn, w)).is_zero()
    # operator route equals the direct multilinear sum on every generator tuple
    for _ in range(20):
        m, n = rng.randint(1, 2), rng.randint(1, 3)
        conn = rand_connection(rng, m, n) if rng.random() < 0.7 \
            else OddConnection.zero(m, n)
        deg = rng.randint(0, 2)
        w = rand_form(rng, m, n, deg)
        dw = super_d(conn, w)
        gens = [SuperVectorFieldGen("x", i) for i in range(1, m + 1)] + \
               [SuperVectorFieldGen("s", j) for j in range(1, n + 1)]
        for tup in product(gens, repeat=deg + 1):
            assert super_d_by_fields(conn, w, list(tup)) == evaluate(dw, list(tup))
    # polynomial cohomology is one dimension in degree zero, zero above
    for m, n in ((1, 1), (2, 1), (2, 2)):
        for conn in [OddConnection.zero(m, n), rand_connection(rng, m, n, 2, 1)]:
            assert cohomology_dims(conn, 0, 2) == 1
            assert cohomology_dims(conn, 1, 2) == 0
            assert cohomology_dims(conn, 2, 1) == 0
    finish(10, "super de Rham operator", 120, t0,
           "m <= 2, n <= 3, both routes, cohomology")


# 11. the number-operator anticommutator kills exactly the pure base forms

def test_criterion_11_delta_kernel():
    t0 = time.monotonic()
    rng = random.Random(0xCB)
    for m in (1, 2):
        for n in (1, 2):
            for conn in [OddConnection.zero(m, n)] + \
                    [rand_connection(rng, m, n, 2, 1) for _ in range(2)]:
                rep = delta_kernel_check(conn, 2, 2)
                assert rep.passed
                assert rep.printed_delta_vanishes
                assert 0 in rep.eigenvalues
                for comp in rep.components:
                    pure = comp.b == 0 and comp.c == 0
                    assert comp.expected_kernel_dim == (comp.dim if pure else 0)
                    assert comp.kernel_dim == comp.expected_kernel_dim
    finish(11, "number operator kernel", 60, t0, "m <= 2, n <= 2, flat and curved")
