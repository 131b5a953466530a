from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from famgen import pull_back_straightening, relabel_family
from oracles import comp_product_by_pairs, straightening_apply, straightening_monomial
from strat import small_fractions

from superalg.cartan import d_star_G
from superalg.derivations import SuperDerivation, superbracket
from superalg.exterior import ExtElem, ds_space
from superalg.linalg import rank, transpose
from superalg.lincomb import add_term
from superalg.scalars import EVEN, ODD, IndexSet, MultiDegree, Parity
from superalg.straighten import (
    OddFamily,
    Straightening,
    comp_product,
    conjugated_family,
    family_is_commuting,
    identity_straightening,
    level_operator_columns,
    straighten,
    subst_inverse_image,
    verify_straightening,
)
from superalg.supermaps import PolySuperFunc

from itertools import combinations


def mono(q, key, s, coeff=1):
    """The superderivation of Λ S*, dim S = q, sending ds_s to coeff·ds_key."""
    return SuperDerivation.from_terms(ds_space(q), {(key, s): coeff})


def all_pairs(q):
    return [(IndexSet(K), s)
            for size in range(q + 1)
            for K in combinations(range(1, q + 1), size)
            for s in range(1, q + 1)]


@st.composite
def term_maps(draw, q, degrees=None):
    """Up to four terms {(ω, s): c} of Λ S* ⊗ S, dim S = q, with |ω| in
    degrees, or of any Λ-degree."""
    pairs = [p for p in all_pairs(q) if degrees is None or len(p[0]) in degrees]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
    return {p: draw(small_fractions()) for p in picked}


@st.composite
def comp_elems(draw, q, degrees=None):
    """A superderivation with terms of Λ-degree in degrees, which share one
    parity; with no degrees given, that parity is drawn."""
    if degrees is None:
        degrees = range(draw(st.sampled_from([0, 1]), label="degree parity"), q + 1, 2)
    terms = draw(term_maps(q, degrees))
    return SuperDerivation.from_terms(ds_space(q), terms, Parity.of(min(degrees) + 1))


def split_by_parity(q, terms):
    """The two superderivations of a term map's even and odd Λ-degree parts."""
    return [SuperDerivation.from_terms(ds_space(q), {kt: c for kt, c in terms.items()
                                                     if len(kt[0]) % 2 == d}, Parity.of(d + 1))
            for d in (0, 1)]


@st.composite
def substitutions(draw, q):
    space = identity_straightening(q).space
    cubic = list(combinations(range(1, q + 1), 3))
    images = []
    for nu in range(1, q + 1):
        im = ExtElem.generator(space, nu)
        if cubic:
            for key in draw(st.lists(st.sampled_from(cubic), max_size=2, unique=True)):
                im = im + ExtElem.monomial(space, key, draw(small_fractions()))
        images.append(im)
    return Straightening(q, images)


@st.composite
def injective_maps(draw, q, n):
    while True:
        f = [[Fraction(draw(st.integers(-2, 2))) for _ in range(n)] for _ in range(q)]
        if rank(f) == n:
            return f


def test_product_frozen_examples():
    assert comp_product(mono(2, (), 1), mono(2, (1,), 2)) == mono(2, (), 2)
    assert comp_product(mono(2, (), 1), mono(2, (2,), 2)).is_zero()
    x = comp_product(mono(3, (1, 2), 1), mono(3, (1, 3), 2))
    # ds1^ds2 wedge (s1 -| ds1^ds3) = ds1^ds2^ds3
    assert x == mono(3, (1, 2, 3), 2)
    with pytest.raises(ValueError):
        comp_product(mono(2, (), 1), mono(3, (), 1))


def test_product_not_associative():
    a, b = mono(2, (), 1), mono(2, (), 2)
    c = mono(2, (1, 2), 1)
    left = comp_product(comp_product(a, b), c)
    right = comp_product(a, comp_product(b, c))
    assert left.is_zero()
    assert right == mono(2, (), 1, -1)


@given(data=st.data(), t=small_fractions())
def test_product_bilinear(data, t):
    degrees = data.draw(st.sampled_from([(0, 2), (1, 3)]), label="degrees")
    a, b, c = (data.draw(comp_elems(3, degrees), label=name) for name in "abc")
    assert comp_product(a + b, c) == comp_product(a, c) + comp_product(b, c)
    assert comp_product(a, b + c) == comp_product(a, b) + comp_product(a, c)
    assert comp_product(a.scale(t), b) == comp_product(a, b).scale(t)


@given(data=st.data())
def test_product_degree_bookkeeping(data):
    q = 4
    da = data.draw(st.integers(0, q), label="deg a")
    db = data.draw(st.integers(1, q), label="deg b")
    a = data.draw(comp_elems(q, degrees={da}), label="a")
    b = data.draw(comp_elems(q, degrees={db}), label="b")
    prod = comp_product(a, b)
    assert prod.lambda_degrees() in ([], [da + db - 1])
    assert prod.parity == a.parity + b.parity


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_product_matches_pairwise_oracle(data):
    # the Leibniz route against one contraction and one wedge per pair of
    # terms: on each pair of one-parity parts, and summed over the parts of
    # two term maps of mixed Λ-degrees
    q = data.draw(st.integers(1, 4), label="dim S")
    ta = data.draw(term_maps(q), label="a")
    tb = data.draw(term_maps(q), label="b")
    total = {}
    for a in split_by_parity(q, ta):
        for b in split_by_parity(q, tb):
            prod = comp_product(a, b)
            assert prod.terms == comp_product_by_pairs(a.terms, b.terms)
            assert prod.parity == a.parity + b.parity
            for k, v in prod.terms.items():
                add_term(total, k, v)
    assert total == comp_product_by_pairs(ta, tb)


def test_bracket_needs_homogeneous_operands():
    # a term map of mixed Λ-degree parity is no superderivation, and
    # superderivations of two parities do not add
    with pytest.raises(ValueError, match="mixed Λ-degree parity"):
        SuperDerivation.from_terms(ds_space(2), {((), 1): 1, ((1,), 1): 1})
    with pytest.raises(ValueError):
        mono(2, (), 1) + mono(2, (1,), 1)


def test_bracket_frozen_example():
    a = mono(3, (1, 2), 1)
    b = mono(3, (), 2)
    assert superbracket(a, b) == mono(3, (1,), 1, -1)
    assert superbracket(mono(2, (), 1), mono(2, (), 1)).is_zero()


@given(data=st.data())
@settings(max_examples=60)
def test_bracket_matches_superderivation_bracket(data):
    q = 3
    da = data.draw(st.integers(0, q), label="deg a")
    db = data.draw(st.integers(0, q), label="deg b")
    a = data.draw(comp_elems(q, degrees={da}), label="a")
    b = data.draw(comp_elems(q, degrees={db}), label="b")
    sign = -1 if (da + 1) * (db + 1) % 2 else 1
    want = comp_product_by_pairs(a.terms, b.terms)
    for k, v in comp_product_by_pairs(b.terms, a.terms).items():
        add_term(want, k, -sign * v)
    br = superbracket(a, b)
    assert br.terms == want
    assert br.parity == a.parity + b.parity


def test_term_map_constructor_frozen():
    D = mono(2, (), 1)
    space = D.space
    assert D.parity is ODD
    assert D(ExtElem.generator(space, 1)) == ExtElem.unit(space)
    assert D(ExtElem.generator(space, 2)).is_zero()
    assert D.images == (ExtElem.unit(space), ExtElem.zero(space))
    assert mono(2, (1,), 2, Fraction(1, 2)).parity is EVEN
    with pytest.raises(ValueError, match="zero map needs a parity"):
        SuperDerivation.from_terms(space, {((), 1): 0})
    with pytest.raises(ValueError, match="an? even superderivation needs images of odd degree"):
        SuperDerivation.from_terms(space, {((), 1): 1}, EVEN)
    assert SuperDerivation.from_terms(space, {((), 1): 1}, ODD) == D
    # the parity is a Parity on every path, so it adds in Z/2
    for zero in (SuperDerivation.zero(space, 1), SuperDerivation.from_terms(space, {}, 1)):
        assert zero.parity is ODD and zero.parity + D.parity is EVEN
        assert comp_product(zero, D).parity is EVEN
    # zeros of two parities are two elements, and == refuses to compare them
    with pytest.raises(ValueError):
        SuperDerivation.zero(space, ODD) == SuperDerivation.zero(space, EVEN)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_commuting_check_matches_pairwise_brackets(data):
    n, q = 2, 3
    comps = [data.draw(comp_elems(q, degrees={0, 2}), label="comp%d" % i)
             for i in range(n)]
    fam = OddFamily(n, q, comps)
    gens = [ExtElem.generator(ds_space(q), nu) for nu in range(1, q + 1)]
    # odd D_i, D_j commute when D_i D_j + D_j D_i kills every generator
    pairwise = all((Di(Dj(g)) + Dj(Di(g))).is_zero()
                   for i, Di in enumerate(fam.comps) for Dj in fam.comps[i:] for g in gens)
    assert family_is_commuting(fam) == pairwise


def test_commuting_check_sees_cross_terms_frozen():
    # each component squares to zero, but the two do not anticommute, so
    # only the i < j cross term of the square can reject the family
    comps = [mono(3, (), 1), mono(3, (1, 2), 3)]
    for c in comps:
        assert comp_product(c, c).is_zero()
    assert not (comp_product(comps[0], comps[1]) + comp_product(comps[1], comps[0])).is_zero()
    assert not family_is_commuting(OddFamily(2, 3, comps))


@given(data=st.data())
@settings(max_examples=40)
def test_left_multiplication_squares_to_product_square(data):
    q = 4
    x = data.draw(comp_elems(q, degrees={0, 2}), label="x")
    y = data.draw(comp_elems(q), label="y")
    lhs = comp_product(x, comp_product(x, y))
    assert lhs == comp_product(comp_product(x, x), y)


def test_left_multiplication_boundary_frozen():
    # X with X·X = 0 on the even part: composition with X is a boundary map
    q = 4
    x = mono(q, (1, 2), 1)
    assert comp_product(x, x).is_zero()
    for key, s in all_pairs(q):
        y = mono(q, key, s)
        assert comp_product(x, comp_product(x, y)).is_zero()


def test_family_validation():
    with pytest.raises(ValueError):
        OddFamily(2, 3, [mono(3, (), 1)])
    with pytest.raises(ValueError):
        OddFamily(1, 3, [mono(3, (1,), 1)])
    fam = OddFamily(1, 3, [mono(3, (), 2, Fraction(1, 2))])
    assert fam.f_matrix() == [[0], [Fraction(1, 2)], [0]]


def test_level_operator_matches_bigraded_boundary():
    # composition with the constant part is the polynomial boundary operator
    # tensored with the identity on the target spots
    q, n, mu = 4, 2, 1
    f = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(1)],
         [Fraction(0), Fraction(-1)], [Fraction(3), Fraction(2)]]
    src, dst, cols = level_operator_columns(f, q, mu)
    G = transpose(f)
    zero_alpha = MultiDegree((0,) * n)
    for c, (K, t) in enumerate(src):
        got = {dst[r]: v for r, v in cols[c].items()}
        img = d_star_G(G, PolySuperFunc.monomial(n, q, zero_alpha, K))
        want = {}
        for (alpha, L), v in img.terms.items():
            i = next(j for j, a in enumerate(alpha, start=1) if a)
            want[(i, L, t)] = v
        assert got == want


def test_straighten_pure_insertions_is_identity():
    fam = OddFamily(2, 3, [mono(3, (), 1), mono(3, (), 2)])
    assert family_is_commuting(fam)
    g = straighten(fam)
    assert g == identity_straightening(3)
    assert verify_straightening(fam, g).passed


def test_straighten_worked_example():
    comp = mono(3, (), 1) + mono(3, (2, 3), 1)
    fam = OddFamily(1, 3, [comp])
    g = straighten(fam)
    space = g.space
    assert g.images[0] == ExtElem.generator(space, 1) - ExtElem.monomial(space, (1, 2, 3))
    assert g.images[1] == ExtElem.generator(space, 2)
    assert g.images[2] == ExtElem.generator(space, 3)
    assert g.component(1) == mono(3, (1, 2, 3), 1, -1)
    assert verify_straightening(fam, g).passed


def test_straighten_preconditions():
    bad = OddFamily(1, 2, [mono(2, (), 1) + mono(2, (1, 2), 2)])
    assert not family_is_commuting(bad)
    with pytest.raises(ValueError, match="commuting"):
        straighten(bad)
    flat = OddFamily(2, 2, [mono(2, (), 1), mono(2, (), 1)])
    with pytest.raises(ValueError, match="injective"):
        straighten(flat)


def test_verify_locates_failing_monomial():
    comp = mono(3, (), 1) + mono(3, (2, 3), 1)
    fam = OddFamily(1, 3, [comp])
    report = verify_straightening(fam, identity_straightening(3))
    assert not report.passed
    assert (1, (1,)) in report.failures


def test_verify_accepts_kernel_top_perturbation():
    # adding a top wedge of ker f* to an image keeps the postcondition
    fam = OddFamily(1, 4, [mono(4, (), 1)])
    g = straighten(fam)
    images = list(g.images)
    images[1] = images[1] + ExtElem.monomial(g.space, (2, 3, 4), Fraction(5, 3))
    perturbed = Straightening(4, images)
    assert verify_straightening(fam, perturbed).passed


@given(data=st.data())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
def test_conjugated_families_straighten(data):
    q = data.draw(st.integers(3, 4), label="dim S")
    n = data.draw(st.integers(1, 2), label="dim V")
    f = data.draw(injective_maps(q, n), label="f")
    g0 = data.draw(substitutions(q), label="subst")
    fam = conjugated_family(f, g0)
    assert family_is_commuting(fam)
    assert fam.f_matrix() == f
    g = straighten(fam)
    assert verify_straightening(fam, g).passed
    if q - n <= 2:
        # kernel too small for corrections to differ: solving after a basis
        # relabeling must land on the same substitution
        perm = tuple(data.draw(st.permutations(range(1, q + 1)), label="perm"))
        other = straighten(relabel_family(fam, perm))
        assert pull_back_straightening(other, perm) == g


def all_keys(q):
    return [K for size in range(q + 1) for K in combinations(range(1, q + 1), size)]


@st.composite
def deep_substitutions(draw, q):
    """ds_ν plus up to two corrections each, of exterior degree 3 or 5."""
    space = identity_straightening(q).space
    odd = [K for K in all_keys(q) if len(K) in (3, 5)]
    images = []
    for nu in range(1, q + 1):
        terms = {(nu,): 1}
        if odd:
            for key in draw(st.lists(st.sampled_from(odd), max_size=2, unique=True)):
                terms[key] = draw(small_fractions())
        images.append(ExtElem(space, terms))
    return Straightening(q, images)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_memo_entries_are_left_to_right_products(data):
    q = data.draw(st.integers(1, 6), label="dim S")
    g = data.draw(deep_substitutions(q), label="G")
    for K in data.draw(st.permutations(all_keys(q)), label="order"):
        assert g.apply_to_monomial(K) == straightening_monomial(g, K)
    # each key twice: a second ask reads the memo
    for K in all_keys(q):
        assert g.apply_to_monomial(K) == straightening_monomial(g, K)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_apply_matches_linear_oracle(data):
    q = data.draw(st.integers(1, 5), label="dim S")
    g = data.draw(deep_substitutions(q), label="G")
    x = ExtElem(g.space, data.draw(st.dictionaries(st.sampled_from(all_keys(q)),
                                                   small_fractions(), max_size=5), label="x"))
    assert g.apply(x) == straightening_apply(g, x)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_subst_inverse_image_certifies(data):
    q = data.draw(st.integers(1, 6), label="dim S")
    g = data.draw(deep_substitutions(q), label="G")
    for nu in range(1, q + 1):
        x = subst_inverse_image(g, nu)
        assert straightening_apply(g, x) == ExtElem.generator(g.space, nu)


@pytest.mark.parametrize("key", [(0,), (4,), (2, 1), (1, 1), (1, 2, 2), (1, 4), (True,)])
def test_apply_to_monomial_rejects_bad_keys(key):
    with pytest.raises(ValueError, match="strictly increasing in 1..3"):
        identity_straightening(3).apply_to_monomial(key)


def test_straighten_output_shape():
    g0 = identity_straightening(4)
    images = list(g0.images)
    images[0] = images[0] + ExtElem.monomial(g0.space, (1, 2, 3), Fraction(1, 2))
    fam = conjugated_family([[Fraction(1)], [Fraction(0)], [Fraction(0)], [Fraction(0)]],
                            Straightening(4, images))
    g = straighten(fam)
    for im in g.images:
        assert all(len(k) % 2 == 1 for k in im.terms)
    assert verify_straightening(fam, g).passed


def test_straighten_canonical_representative_frozen():
    # ker f* has dimension 3, so the level-1 solution is defined only modulo
    # Λ³(ker f*) ⊗ S; the answer is the representative with zeros at the
    # pivots of that space's reduced echelon form, not the substitution the
    # family was built from
    g0 = identity_straightening(4)
    images = list(g0.images)
    images[0] = images[0] - ExtElem.monomial(g0.space, (1, 2, 3))
    images[1] = images[1] - ExtElem.monomial(g0.space, (1, 3, 4))
    f = [[Fraction(c)] for c in (1, 0, 1, 2)]
    fam = conjugated_family(f, Straightening(4, images))
    g = straighten(fam)
    half = Fraction(-1, 2)
    assert g.images[0] == (ExtElem.generator(g.space, 1)
                           + ExtElem.monomial(g.space, (1, 2, 4), half)
                           + ExtElem.monomial(g.space, (2, 3, 4), half))
    assert g.images[1:] == tuple(images[1:])
    assert verify_straightening(fam, g).passed


def test_straighten_above_the_cli_limit():
    # dim_s 8 is above the CLI's cap of 7; the API still solves it exactly
    fam = OddFamily(1, 8, [mono(8, (), 1)])
    g = straighten(fam)
    assert g == identity_straightening(8)
    assert verify_straightening(fam, g).passed
    g0 = identity_straightening(8)
    images = list(g0.images)
    images[0] = images[0] + ExtElem.monomial(g0.space, (1, 2, 3), Fraction(1, 2))
    images[4] = images[4] + ExtElem.monomial(g0.space, (2, 6, 7), -3)
    f = [[Fraction(int(mu == 0))] for mu in range(8)]
    fam = conjugated_family(f, Straightening(8, images))
    g = straighten(fam)
    assert g.component(1) != SuperDerivation.zero(g.space, EVEN)
    assert verify_straightening(fam, g).passed


def test_straightening_type_validation():
    space = identity_straightening(2).space
    with pytest.raises(ValueError, match="degree-1"):
        Straightening(2, [ExtElem.generator(space, 2), ExtElem.generator(space, 2)])
    with pytest.raises(ValueError, match="odd"):
        Straightening(2, [ExtElem.generator(space, 1) + ExtElem.monomial(space, (1, 2)),
                          ExtElem.generator(space, 2)])


def test_json_roundtrips():
    comp = mono(3, (), 1) + mono(3, (2, 3), 1, Fraction(-1, 2))
    fam = OddFamily(1, 3, [comp])
    blob = fam.to_json()
    assert blob == {"dim_v": 1, "dim_s": 3, "components": [[
        {"coeff": "1", "ext": [], "s": 1},
        {"coeff": "-1/2", "ext": [2, 3], "s": 1},
    ]]}
    assert OddFamily.from_json(blob) == fam
    g = straighten(fam)
    assert Straightening.from_json(g.to_json()) == g
    with pytest.raises(ValueError):
        OddFamily.from_json({"dim_v": 1, "dim_s": 3})

    def family(*components):
        return {"dim_v": len(components), "dim_s": 2, "components": list(components)}
    with pytest.raises(ValueError, match="duplicate term"):
        OddFamily.from_json(family([{"coeff": "1", "ext": [], "s": 1},
                                    {"coeff": "2", "ext": [], "s": 1}]))
    with pytest.raises(ValueError, match="component must be a list"):
        OddFamily.from_json(family({"coeff": "1"}))
    # an odd-degree term, alone or beside an even one, is refused after
    # every component has decoded; a zero coefficient drops its term first
    for comp in ([{"coeff": "1", "ext": [1], "s": 1}],
                 [{"coeff": "1", "ext": [], "s": 1}, {"coeff": "1", "ext": [2], "s": 2}]):
        with pytest.raises(ValueError, match="even exterior degrees"):
            OddFamily.from_json(family(comp))
        with pytest.raises(ValueError, match="duplicate term"):
            OddFamily.from_json(family(comp, [{"coeff": "1", "ext": [], "s": 1}] * 2))
    zero_odd = family([{"coeff": "0", "ext": [1], "s": 1}])
    assert OddFamily.from_json(zero_odd).comps[0] == SuperDerivation.zero(ds_space(2), ODD)
