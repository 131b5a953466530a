from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import combination_multidegrees, recursive_multidegrees
from superalg.scalars import (
    EVEN,
    ODD,
    IndexSet,
    MultiDegree,
    Parity,
    Permutation,
    format_scalar,
    iter_multidegrees,
    iter_shuffles,
    parse_scalar,
    relative_signature,
    shuffle_representative,
    sym_dim,
)


def cycle_sign(sigma):
    # independent oracle: sign = (-1)^(k - number of cycles)
    k = len(sigma)
    seen = [False] * (k + 1)
    cycles = 0
    for start in range(1, k + 1):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = sigma(i)
    return -1 if (k - cycles) % 2 else 1


permutations_st = st.integers(1, 6).flatmap(
    lambda k: st.permutations(list(range(1, k + 1))).map(Permutation)
)


def test_scalar_roundtrip():
    assert parse_scalar("3/2") == Fraction(3, 2)
    assert parse_scalar("-7") == Fraction(-7)
    assert parse_scalar(5) == Fraction(5)
    assert format_scalar(Fraction(3, 2)) == "3/2"
    assert format_scalar(Fraction(4, 2)) == "2"
    with pytest.raises(ValueError):
        parse_scalar("1/0")
    with pytest.raises(ValueError):
        parse_scalar("abc")
    with pytest.raises(ValueError):
        parse_scalar(True)


def test_parity_group_law():
    assert EVEN + EVEN == EVEN
    assert EVEN + ODD == ODD
    assert ODD + ODD == EVEN
    assert Parity.of(3) == ODD
    assert Parity.of(10) == EVEN
    assert ODD.sign == -1 and EVEN.sign == 1
    assert Parity.from_json("odd") == ODD
    assert ODD.to_json() == "odd"
    with pytest.raises(ValueError):
        Parity.from_json("banana")


def test_index_set_validation():
    assert IndexSet((1, 3, 5)) == (1, 3, 5)
    assert IndexSet(()).degree == 0
    with pytest.raises(ValueError):
        IndexSet((3, 1))
    with pytest.raises(ValueError):
        IndexSet((1, 1))
    with pytest.raises(ValueError):
        IndexSet((0, 2))


def test_multidegree():
    assert MultiDegree((2, 0, 1)).total == 3
    with pytest.raises(ValueError):
        MultiDegree((1, -1))
    degs = list(iter_multidegrees(3, 2))
    assert len(degs) == sym_dim(3, 2) == 6
    assert len(set(degs)) == 6
    assert all(d.total == 2 for d in degs)
    assert sym_dim(0, 0) == 1 and sym_dim(0, 2) == 0


def test_multidegrees_match_the_recursive_enumeration():
    for nvars in range(8):
        for total in range(-1, 6):
            got = list(iter_multidegrees(nvars, total))
            assert got == list(recursive_multidegrees(nvars, total))
            assert all(type(d) is MultiDegree for d in got)
            assert len(got) == sym_dim(nvars, total)


def test_odometer_matches_the_combination_walk():
    for nvars in range(6):
        for total in range(-2, 9):
            got = list(iter_multidegrees(nvars, total))
            assert got == list(combination_multidegrees(nvars, total))
    assert list(iter_multidegrees(0, 0)) == [()]
    assert list(iter_multidegrees(0, 3)) == list(iter_multidegrees(4, -1)) == []
    assert list(iter_multidegrees(1, 10000)) == [(10000,)]


def test_signature_examples():
    assert Permutation((1, 2, 3)).signature == 1
    assert Permutation((2, 1)).signature == -1
    # 1->2, 2->3, 3->1 has two inversions
    assert Permutation((2, 3, 1)).signature == 1


@given(permutations_st)
def test_signature_matches_cycle_oracle(sigma):
    assert sigma.signature == cycle_sign(sigma)


@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.permutations(list(range(1, k + 1))).map(Permutation),
    st.permutations(list(range(1, k + 1))).map(Permutation))))
def test_signature_homomorphism(pair):
    a, b = pair
    assert a.compose(b).signature == a.signature * b.signature


def test_permutation_basics():
    s = Permutation((3, 1, 2))
    assert s(1) == 3
    assert s.inverse().compose(s) == Permutation.identity(3)
    assert s.compose(s.inverse()) == Permutation.identity(3)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_relative_signature_examples():
    s = Permutation((2, 3, 1))
    assert relative_signature(s, []) == 1
    assert relative_signature(s, [2]) == 1
    assert relative_signature(Permutation((2, 1)), [1, 2]) == -1
    assert relative_signature(s, [1, 2]) == 1
    assert relative_signature(s, [1, 3]) == -1  # images (2,1)
    with pytest.raises(ValueError):
        relative_signature(s, [0, 1])
    with pytest.raises(ValueError):
        relative_signature(s, [4])


@given(permutations_st, st.data())
def test_relative_signature_invariance_under_fixing(sigma, data):
    k = len(sigma)
    A = data.draw(st.sets(st.integers(1, k), max_size=k))
    rest = [i for i in range(1, k + 1) if i not in A]
    # rho permutes the complement of A and fixes A pointwise
    rho_rest = data.draw(st.permutations(rest)) if rest else []
    images = [0] * k
    for a in A:
        images[a - 1] = a
    for src, img in zip(rest, rho_rest):
        images[src - 1] = img
    rho = Permutation(images)
    assert relative_signature(sigma.compose(rho), A) == relative_signature(sigma, A)


@given(permutations_st, st.data())
def test_shuffle_factorisation(sigma, data):
    k = len(sigma)
    B = sorted(data.draw(st.sets(st.integers(1, k), max_size=k)))
    C = [i for i in range(1, k + 1) if i not in B]
    tau, shuf = shuffle_representative(sigma, B, C)
    assert shuf.compose(tau) == sigma
    # tau preserves the blocks
    assert sorted(tau(b) for b in B) == list(B)
    assert sorted(tau(c) for c in C) == list(C)
    # the shuffle is monotone on each block
    for block in (B, C):
        imgs = [shuf(b) for b in block]
        assert imgs == sorted(imgs)


def test_shuffle_examples():
    ident = Permutation.identity(3)
    tau, shuf = shuffle_representative(ident, [1, 2], [3])
    assert tau == ident and shuf == ident
    tau, shuf = shuffle_representative(Permutation((2, 1, 3)), [1, 2], [3])
    assert tau == Permutation((2, 1, 3))
    assert shuf == ident
    tau, shuf = shuffle_representative(Permutation((2, 1)), [1], [2])
    assert tau == Permutation.identity(2)
    assert shuf == Permutation((2, 1))
    with pytest.raises(ValueError):
        shuffle_representative(ident, [1], [2])


def test_iter_shuffles():
    shufs = list(iter_shuffles(2, 2))
    assert len(shufs) == 6
    assert len(set(shufs)) == 6
    for s in shufs:
        assert s(1) < s(2) and s(3) < s(4)
