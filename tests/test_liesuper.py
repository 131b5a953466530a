from fractions import Fraction
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import fraction_check_lie_superalgebra
from strat import small_fractions
from superalg.linalg import mat_mul, solve
from superalg.liesuper import (
    LieSuperData,
    RepAndForm,
    build_from_rho_B,
    check_lie_superalgebra,
    check_structure_conditions,
    endo_superalgebra,
    even_part_is_lie_algebra,
    semidirect,
)


def test_abelian_passes():
    L = LieSuperData(2, 1, {})
    rep = check_lie_superalgebra(L)
    assert rep.passed
    assert rep.convention == "both"
    assert rep.failures == ()


def test_one_one_square_example():
    # X even, s odd, [[s,s]] = X: passes
    L = LieSuperData(1, 1, {(2, 2): (1, 0)})
    assert check_lie_superalgebra(L).passed


def test_one_one_with_action_fails_at_sss():
    # adding [[X,s]] = s (and the antisymmetric partner) breaks Jacobi at (s,s,s)
    L = LieSuperData(1, 1, {(2, 2): (1, 0), (1, 2): (0, 1), (2, 1): (0, -1)})
    rep = check_lie_superalgebra(L)
    assert rep.superalternating
    assert not rep.super_jacobi
    assert ("jacobi", 2, 2, 2) in rep.failures
    assert not rep.passed


def test_convention_reporting():
    plus_only = LieSuperData(1, 0, {(1, 1): (1,)})
    assert check_lie_superalgebra(plus_only).convention == "plus"
    minus_only = LieSuperData(2, 0, {(1, 2): (0, 1), (2, 1): (0, -1)})
    assert check_lie_superalgebra(minus_only).convention == "minus"


def test_parity_additivity_enforced():
    with pytest.raises(ValueError):
        LieSuperData(1, 1, {(2, 2): (0, 1)})  # odd-odd bracket cannot be odd
    with pytest.raises(ValueError):
        LieSuperData(1, 1, {(1, 2): (1, 0)})


def zero_B(p, q):
    return tuple(tuple((Fraction(0),) * p for _ in range(q)) for _ in range(q))


def test_build_trivial_is_abelian():
    data = RepAndForm(1, 1, [[[0]]], zero_B(1, 1))
    L = build_from_rho_B(data)
    assert L.brackets == {}
    assert check_lie_superalgebra(L).passed


def test_build_with_zero_rho_passes():
    data = RepAndForm(1, 2, [[[0, 0], [0, 0]]],
                      (((Fraction(1),), (Fraction(2),)), ((Fraction(2),), (Fraction(0),))))
    L = build_from_rho_B(data)
    assert check_lie_superalgebra(L).passed
    assert check_structure_conditions(data).passed
    assert L.bracket(2, 2) == (Fraction(1), 0, 0)
    assert L.bracket(2, 3) == (Fraction(2), 0, 0)


def test_build_identity_action_fails():
    data = RepAndForm(1, 1, [[[1]]], (((Fraction(1),),),))
    L = build_from_rho_B(data)
    assert L.bracket(1, 2) == (0, Fraction(1))
    assert L.bracket(2, 1) == (0, Fraction(-1))
    rep = check_lie_superalgebra(L)
    assert not rep.passed
    sc = check_structure_conditions(data)
    assert not sc.cubic_term_vanishes
    assert not sc.passed


def test_structure_conditions_rotation_example():
    rot = [[[0, -1], [1, 0]]]
    data = RepAndForm(1, 2, rot, zero_B(1, 2))
    assert check_structure_conditions(data).passed
    assert check_lie_superalgebra(build_from_rho_B(data)).passed


def test_rep_validation():
    with pytest.raises(ValueError):
        RepAndForm(1, 2, [[[0, 0], [0, 0]]],
                   (((Fraction(1),), (Fraction(2),)), ((Fraction(3),), (Fraction(0),))))
    # non-commuting matrices cannot represent an abelian algebra
    bad = RepAndForm(2, 2, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]], zero_B(2, 2))
    with pytest.raises(ValueError):
        build_from_rho_B(bad)
    # even brackets failing antisymmetry
    with pytest.raises(ValueError, match="not antisymmetric"):
        build_from_rho_B(RepAndForm(1, 1, [[[0]]], zero_B(1, 1),
                                    (((Fraction(1),),),)))
    # antisymmetric even brackets failing Jacobi: [e1,e2] = e2 - e3,
    # [e1,e3] = e1 - e2, [e2,e3] = -e1 - e2 + e3
    even = [[(0, 0, 0), (0, 1, -1), (1, -1, 0)],
            [(0, -1, 1), (0, 0, 0), (-1, -1, 1)],
            [(-1, 1, 0), (1, 1, -1), (0, 0, 0)]]
    with pytest.raises(ValueError, match="Jacobi"):
        build_from_rho_B(RepAndForm(3, 1, [[[0]]] * 3, zero_B(3, 1), even))


def _rep_of(L):
    """(ρ, B) and the even brackets read off a superalgebra's bracket table:
    ρ(X_a) is ad X_a on the odd part, B the bracket of two odd vectors."""
    p, q = L.even_dim, L.odd_dim
    even = [[L.bracket(a, b)[:p] for b in range(1, p + 1)] for a in range(1, p + 1)]
    rho = [[[L.bracket(a, p + b)[p + g] for b in range(1, q + 1)] for g in range(q)]
           for a in range(1, p + 1)]
    B = [[L.bracket(p + al, p + be)[:p] for be in range(1, q + 1)] for al in range(1, q + 1)]
    return RepAndForm(p, q, rho, B, even)


def _from_matrices(even, odd):
    """The Lie superalgebra spanned by homogeneous square supermatrices, even
    ones first, under ⟦A,B⟧ = AB − (−1)^{|A||B|}BA; each bracket is solved
    for its coordinates in that basis, and a span not closed under the
    bracket raises."""
    basis = list(even) + list(odd)
    parity = [0] * len(even) + [1] * len(odd)
    n = len(basis[0])
    entries = [(r, c) for r in range(n) for c in range(n)]
    rows = [{t: Fraction(M[r][c]) for t, M in enumerate(basis) if M[r][c]} for r, c in entries]
    table = {}
    for a, A in enumerate(basis):
        for b, B in enumerate(basis):
            sign = -1 if parity[a] * parity[b] else 1
            AB, BA = mat_mul(A, B), mat_mul(B, A)
            coords = solve(rows, [AB[r][c] - sign * BA[r][c] for r, c in entries], len(basis))
            if coords is None:
                raise ValueError("the span is not closed under the supercommutator")
            table[(a + 1, b + 1)] = coords
    return LieSuperData(len(even), len(odd), table)


def _unit(n, r, c):
    return [[int((i, j) == (r, c)) for j in range(1, n + 1)] for i in range(1, n + 1)]


def _sum(*mats):
    return [[sum(row) for row in zip(*rows)] for rows in zip(*mats)]


def _matrix_units(p, q):
    """The even and the odd matrix units of gl(p|q), in endo_superalgebra's order."""
    n = p + q
    blk = [0] * p + [1] * q
    units = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    return ([_unit(n, r, c) for r, c in units if blk[r - 1] == blk[c - 1]],
            [_unit(n, r, c) for r, c in units if blk[r - 1] != blk[c - 1]])


@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (1, 2)])
def test_gl_pq_is_built_from_its_rho_and_B(p, q):
    # the even part gl(p) ⊕ gl(q) is not abelian for p or q above 1
    L = endo_superalgebra(p, q)
    rep = _rep_of(L)
    assert check_structure_conditions(rep).passed
    assert build_from_rho_B(rep) == L
    assert _from_matrices(*_matrix_units(p, q)) == L


def test_semidirect_examples():
    gl1 = RepAndForm(1, 1, [[[1]]], zero_B(1, 1))
    L = semidirect(gl1)
    assert L.bracket(1, 2) == (0, Fraction(1))
    assert L.bracket(2, 2) == (0, 0)
    assert check_lie_superalgebra(L).passed

    nil = RepAndForm(2, 2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]], zero_B(2, 2))
    Ln = semidirect(nil)
    assert check_lie_superalgebra(Ln).passed
    assert even_part_is_lie_algebra(Ln)


def test_endo_superalgebra():
    with pytest.raises(ValueError):
        endo_superalgebra(0, 0)

    triv = endo_superalgebra(1, 0)
    assert (triv.even_dim, triv.odd_dim) == (1, 0)
    assert check_lie_superalgebra(triv).passed

    L = endo_superalgebra(1, 1)
    assert L.dim == 4
    # units: E11, E22 even (1, 2); E12, E21 odd (3, 4); anticommutator of the odd pair
    assert L.bracket(3, 4) == (Fraction(1), Fraction(1), 0, 0)
    rep = check_lie_superalgebra(L)
    assert rep.passed
    assert rep.convention == "minus"

    L21 = endo_superalgebra(2, 1)
    assert L21.dim == 9
    assert (L21.even_dim, L21.odd_dim) == (5, 4)
    assert check_lie_superalgebra(L21).passed
    assert even_part_is_lie_algebra(L21)


small = st.integers(-3, 3)


@st.composite
def rep_and_forms(draw):
    family = draw(st.sampled_from(["abelian", "solvable"]))
    if family == "abelian":
        p = draw(st.integers(1, 3))
        q = draw(st.integers(1, 3))
        even = None
        if draw(st.booleans()):
            rho = [[[Fraction(0)] * q for _ in range(q)] for _ in range(p)]
        else:
            m1 = [[Fraction(draw(small)) for _ in range(q)] for _ in range(q)]
            mats = [m1]
            for _ in range(p - 1):
                c0, c1 = draw(small), draw(small)
                mats.append([[c1 * m1[i][j] + (c0 if i == j else 0) for j in range(q)]
                             for i in range(q)])
            rho = mats
    else:
        # [X1,X2] = X2 with its 2-dim standard action, B then usually obstructs
        p, q = 2, 2
        even = [[(0, 0), (0, 1)], [(0, -1), (0, 0)]]
        t = draw(small)
        rho = [[[1, 0], [0, 0]], [[0, t], [0, 0]]]
    B = [[None] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            vec = tuple(Fraction(draw(small)) for _ in range(p))
            B[i][j] = vec
            B[j][i] = vec
    return RepAndForm(p, q, rho, B, even)


@settings(max_examples=80, deadline=None)
@given(rep_and_forms())
def test_structure_conditions_iff_jacobi(data):
    built = build_from_rho_B(data)
    assert check_lie_superalgebra(built).superalternating
    assert check_structure_conditions(data).passed == check_lie_superalgebra(built).passed


def test_json_roundtrip():
    L = LieSuperData(1, 1, {(2, 2): (Fraction(1, 2), 0)})
    blob = L.to_json()
    assert blob == {"even_dim": 1, "odd_dim": 1,
                    "brackets": [{"i": 2, "j": 2, "coeffs": ["1/2", "0"]}]}
    assert LieSuperData.from_json(blob) == L
    with pytest.raises(ValueError):
        LieSuperData.from_json({"even_dim": 1, "odd_dim": 1})
    with pytest.raises(ValueError):
        LieSuperData.from_json({"even_dim": 1, "odd_dim": 1,
                                "brackets": [{"i": 2, "j": 2, "coeffs": ["1/2", "0"]},
                                             {"i": 2, "j": 2, "coeffs": ["0", "0"]}]})


def sl_1_2():
    """sl(1|2), the supertrace-zero 3x3 supermatrices with a 1|2 block split:
    even E11+E22, E11+E33, E23, E32 and odd E12, E13, E21, E31."""
    E = lambda r, c: _unit(3, r, c)
    even = [_sum(E(1, 1), E(2, 2)), _sum(E(1, 1), E(3, 3)), E(2, 3), E(3, 2)]
    odd = [E(1, 2), E(1, 3), E(2, 1), E(3, 1)]
    return _from_matrices(even, odd)


def test_sl_1_2_is_a_lie_superalgebra():
    L = sl_1_2()
    assert (L.even_dim, L.odd_dim) == (4, 4)
    # ⟦E12, E21⟧ = E11 + E22, the first even basis vector
    assert L.bracket(5, 7) == (1, 0, 0, 0, 0, 0, 0, 0)
    rep = check_lie_superalgebra(L)
    assert rep.passed and rep.convention == "minus"
    assert rep == fraction_check_lie_superalgebra(L)
    assert even_part_is_lie_algebra(L)
    assert check_structure_conditions(_rep_of(L)).passed
    assert build_from_rho_B(_rep_of(L)) == L


def test_gl_3_2_passes_quickly():
    L = endo_superalgebra(3, 2)
    assert L.dim == 25
    t0 = time.perf_counter()
    assert check_lie_superalgebra(L).passed
    assert time.perf_counter() - t0 < 0.2


def osp_1_2(scale_11=1):
    """osp(1|2) as a RepAndForm: sl2 with basis H, E, F ([H,E] = 2E,
    [H,F] = -2F, [E,F] = H) on its defining representation with weight
    vectors e1, e2, and the equivariant pairing B(e1,e1) = -2E,
    B(e1,e2) = H, B(e2,e2) = 2F.  scale_11 rescales the one entry B(e1,e1)."""
    f = Fraction
    brackets = [[(0, 0, 0), (0, 2, 0), (0, 0, -2)],
                [(0, -2, 0), (0, 0, 0), (1, 0, 0)],
                [(0, 0, 2), (-1, 0, 0), (0, 0, 0)]]
    rho = [[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]
    B = [[(0, f(-2 * scale_11), 0), (1, 0, 0)],
         [(1, 0, 0), (0, 0, 2)]]
    return RepAndForm(3, 2, rho, B, brackets)


def test_osp_1_2_satisfies_both_sides_of_the_biconditional():
    data = osp_1_2()
    assert check_structure_conditions(data).passed
    assert check_lie_superalgebra(build_from_rho_B(data)).passed


def test_osp_1_2_with_one_entry_rescaled_fails_both_sides():
    data = osp_1_2(scale_11=2)
    rep = check_structure_conditions(data)
    assert not rep.passed and not rep.equivariant
    assert not check_lie_superalgebra(build_from_rho_B(data)).passed


# coefficients in lowest terms with numerator and denominator near 10**30
huge_fractions = st.builds(lambda a, b, sign: Fraction(sign * (10 ** 30 + a), 10 ** 30 + b),
                           st.integers(-9, 9), st.integers(-9, 9), st.sampled_from((1, -1)))


@st.composite
def bracket_tables(draw):
    """Parity-respecting tables up to dimension 4: random brackets, each stored
    one-sided or with its superantisymmetric partner, or gl(1|1) or gl(2|1)
    scaled by one coefficient (still a Lie superalgebra)."""
    coeff = st.one_of(st.just(Fraction(0)), small_fractions(), huge_fractions)
    if draw(st.booleans()):
        L = endo_superalgebra(*draw(st.sampled_from([(1, 1), (2, 1)])))
        c = draw(coeff.filter(bool))
        return LieSuperData(L.even_dim, L.odd_dim,
                            {ij: [c * x for x in vec] for ij, vec in L.brackets.items()})
    p = draw(st.integers(0, 2))
    q = draw(st.integers(1 if p == 0 else 0, 2))
    dim = p + q

    def parity(i):
        return 0 if i <= p else 1
    table = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            kind = draw(st.sampled_from(["none", "one-sided", "antisymmetric"]))
            if kind == "none" or (i, j) in table:
                continue
            target = (parity(i) + parity(j)) % 2
            vec = [draw(coeff) if parity(l) == target else Fraction(0)
                   for l in range(1, dim + 1)]
            if kind == "antisymmetric":
                s = -1 if parity(i) * parity(j) else 1
                partner = [-s * c for c in vec]
                if i == j and partner != vec:
                    continue  # an even basis vector brackets to zero with itself
                table[(j, i)] = partner
            table[(i, j)] = vec
    return LieSuperData(p, q, table)


@settings(max_examples=150, deadline=None)
@given(bracket_tables())
def test_int_check_matches_fraction_oracle(L):
    assert check_lie_superalgebra(L) == fraction_check_lie_superalgebra(L)
