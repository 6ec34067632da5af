"""Element arithmetic, height/exponent, Ulm invariants, subgroup machinery.

Expected values are recomputed here from first principles (brute-force scans
over the finite group) rather than trusted from the implementation.
"""
import itertools

import pytest
from hypothesis import given, strategies as st

from pgroups import (
    GroupSpec,
    GroupTooLargeError,
    INF,
    InvalidInputError,
    MismatchedParentError,
    NonIncreasingExponentsError,
    NonPrimeError,
    Subgroup,
    ZeroMultiplicityError,
    add,
    block_subgroup,
    enumerate_elements,
    exponent,
    full_subgroup,
    fundamental_subgroup,
    height,
    make_group,
    neg,
    smul,
    subgroup_generated,
    subgroup_leq,
    subgroup_meet,
    subgroup_sum,
    ulm_invariants,
    zero_subgroup,
)


def brute_power_subgroup(G, k):
    """p^k G as a raw element set, by scaling every element."""
    return {smul(G.p**k, x) for x in enumerate_elements(G)}


def brute_height(x):
    """Largest k with x in p^k G (INF for zero), found by scanning."""
    if x.is_zero():
        return INF
    G = x.group
    k = 0
    while x in brute_power_subgroup(G, k + 1):
        k += 1
    return k


def brute_exponent(x):
    n = 0
    y = x
    while not y.is_zero():
        y = smul(x.group.p, y)
        n += 1
    return n


# --- construction and validation -------------------------------------------


def test_make_group_validates_prime():
    with pytest.raises(NonPrimeError):
        make_group(4, [(1, 1)])
    with pytest.raises(NonPrimeError):
        make_group(1, [(1, 1)])


def test_make_group_validates_shape():
    with pytest.raises(NonIncreasingExponentsError):
        make_group(2, [(2, 1), (2, 1)])
    with pytest.raises(NonIncreasingExponentsError):
        make_group(2, [(3, 1), (1, 1)])
    with pytest.raises(ZeroMultiplicityError):
        make_group(2, [(1, 0)])
    with pytest.raises(InvalidInputError):
        make_group(2, [])


@pytest.mark.parametrize(
    "p,pairs,order,rank,exp",
    [
        (2, [(2, 1), (4, 1)], 2**6, 2, 4),
        (3, [(2, 1), (4, 1)], 3**6, 2, 4),
        (2, [(1, 2), (2, 1)], 2**4, 3, 2),
        (5, [(3, 1)], 5**3, 1, 3),
    ],
)
def test_order_rank_exponent(p, pairs, order, rank, exp):
    G = make_group(p, pairs)
    assert G.order == order
    assert G.rank == rank
    assert G.exponent == exp
    assert len(enumerate_elements(G)) == order


def test_coordinate_layout():
    G = make_group(2, [(1, 2), (3, 1)])
    assert G.coordinate_exponents == (1, 1, 3)
    assert G.coordinate_moduli == (2, 2, 8)


def test_json_roundtrip(G2):
    data = G2.to_json()
    assert data == {
        "p": 2,
        "components": [
            {"exponent": 2, "multiplicity": 1},
            {"exponent": 4, "multiplicity": 1},
        ],
    }
    assert GroupSpec.from_json(data) == G2


def test_enumeration_cap():
    G = make_group(2, [(21, 1)])
    with pytest.raises(GroupTooLargeError):
        enumerate_elements(G)
    assert len(enumerate_elements(G, max_order=2**21)) == 2**21


# --- arithmetic --------------------------------------------------------------


class TestArithmetic:
    def test_add_is_coordinatewise_mod_moduli(self, G2):
        x = G2.element((3, 11))
        y = G2.element((2, 9))
        assert add(x, y).coords == (1, 4)

    def test_neg_cancels(self, G2):
        for x in enumerate_elements(G2):
            assert add(x, neg(x)).is_zero()

    def test_smul_matches_repeated_add(self, small24):
        for x in enumerate_elements(small24):
            acc = small24.zero()
            for c in range(1, 7):
                acc = add(acc, x)
                assert smul(c, x) == acc

    def test_mixed_parents_rejected(self, G2, G3):
        with pytest.raises(MismatchedParentError):
            add(G2.zero(), G3.zero())

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_smul_distributes(self, c, d):
        G = make_group(3, [(1, 1), (2, 1)])
        x = G.element((1, 2))
        assert smul(c + d, x) == add(smul(c, x), smul(d, x))


# --- height and exponent ------------------------------------------------------


def test_height_against_brute_force(small248):
    for x in enumerate_elements(small248):
        assert height(x) == brute_height(x)


def test_exponent_against_brute_force(small248):
    for x in enumerate_elements(small248):
        assert exponent(x) == brute_exponent(x)


def test_height_of_zero_is_inf(G2):
    assert height(G2.zero()) == INF
    assert INF > 10**9 and not (INF < 5) and INF == INF


def test_known_heights(G2):
    # G2 = Z(4) (+) Z(16); generator orders 4 and 16.
    a, b = G2.generator(0), G2.generator(1)
    assert height(a) == 0 and exponent(a) == 2
    assert height(b) == 0 and exponent(b) == 4
    assert height(smul(2, a)) == 1
    assert height(smul(8, b)) == 3
    assert height(add(smul(2, a), smul(4, b))) == 1


@given(st.integers(0, 7), st.integers(0, 31))
def test_height_superadditive(c0, c1):
    # min-of-heights bound for sums; equality when heights differ.
    G = make_group(2, [(3, 1), (5, 1)])
    x = G.element((c0, c1))
    y = G.element((c1 % 8, c0))
    hs = height(add(x, y))
    assert hs >= min(height(x), height(y))
    if height(x) != height(y):
        assert hs == min(height(x), height(y))


def test_multiplying_by_p_raises_height(small248):
    p = small248.p
    for x in enumerate_elements(small248):
        y = smul(p, x)
        if not y.is_zero():
            assert height(y) > height(x)


# --- Ulm invariants -----------------------------------------------------------


def brute_ulm(G):
    socle = [x for x in enumerate_elements(G) if smul(G.p, x).is_zero()]
    dims = []
    for k in range(G.exponent + 1):
        layer = brute_power_subgroup(G, k)
        count = sum(1 for x in socle if x in layer)
        dims.append(count)
    out = []
    for k in range(G.exponent):
        ratio = dims[k] // dims[k + 1]
        out.append(ratio.bit_length() - 1 if G.p == 2 else round(_log(ratio, G.p)))
    return tuple(out)


def _log(n, p):
    k = 0
    while n > 1:
        n //= p
        k += 1
    return k


@pytest.mark.parametrize("fixture", ["G2", "G3", "small24", "small28", "small224"])
def test_ulm_against_brute_force(fixture, request):
    G = request.getfixturevalue(fixture)
    assert ulm_invariants(G) == brute_ulm(G)


def test_ulm_reference_values(G2):
    assert ulm_invariants(G2) == (0, 1, 0, 1)


def test_ulm_total_is_rank():
    G = make_group(2, [(1, 3), (2, 1), (4, 2)])
    assert sum(ulm_invariants(G)) == G.rank == 6


# --- subgroups ----------------------------------------------------------------


def test_subgroup_from_set_requires_zero(small24):
    # closure is the caller's promise; absence of zero is always caught
    a = small24.generator(1)
    with pytest.raises(InvalidInputError):
        Subgroup(small24, {a})
    H = Subgroup(small24, {small24.zero(), a, smul(2, a), smul(3, a)})
    assert H.order == 4


def test_subgroup_constructor_checks_like_subgroup_from_set():
    G = make_group(2, [(1, 1), (2, 1)])
    with pytest.raises(InvalidInputError, match="zero element"):
        Subgroup(G, [])
    with pytest.raises(InvalidInputError, match="zero element"):
        Subgroup(G, [G.element([1, 0])])
    assert Subgroup(G, [G.element([1, 0]), G.zero()]).order == 2


@pytest.mark.parametrize(
    "other, coords",
    [
        ((3, [(1, 1), (2, 1)]), (0, 5)),  # same rank: once reduced into G as (0, 1)
        ((2, [(1, 1), (2, 1), (3, 1)]), (0, 0, 1)),  # another rank
    ],
)
def test_subgroup_constructor_refuses_elements_of_another_group(other, coords):
    G = make_group(2, [(1, 1), (2, 1)])
    stranger = make_group(*other).element(coords)
    with pytest.raises(MismatchedParentError):
        Subgroup(G, [G.zero(), stranger])
    with pytest.raises(MismatchedParentError):
        Subgroup(G, {G.zero(), stranger})


def test_subgroup_generated(small24):
    a = small24.generator(1)
    H = subgroup_generated(small24, [a])
    assert H.order == 4
    assert smul(3, a) in H


def test_block_subgroup_orders(G2):
    # alpha = (1, 2) cuts <pa> (+) <p^2 b>: orders 2 and 4.
    H = block_subgroup(G2, (1, 2))
    assert H.order == 8
    assert H.block_shifts == (1, 2)


def test_full_and_zero(G2):
    assert full_subgroup(G2).order == 64
    assert zero_subgroup(G2).order == 1
    assert subgroup_leq(zero_subgroup(G2), full_subgroup(G2))


def test_meet_and_sum_against_sets(G2):
    H = block_subgroup(G2, (0, 3))
    K = block_subgroup(G2, (1, 1))
    meet = subgroup_meet(H, K)
    total = subgroup_sum(H, K)
    hs, ks = set(H), set(K)
    assert set(meet) == hs & ks
    assert set(total) == {add(x, y) for x in hs for y in ks}


def test_subgroup_leq_is_set_containment(G2):
    H = block_subgroup(G2, (1, 2))
    K = block_subgroup(G2, (1, 1))
    assert subgroup_leq(H, K)
    assert not subgroup_leq(K, H)


# --- the fundamental family p^kappa G [p^n] ------------------------------------


def brute_fundamental(G, kappa, n):
    layer = brute_power_subgroup(G, kappa)
    return {x for x in layer if smul(G.p**n, x).is_zero()}


@pytest.mark.parametrize("kappa", range(5))
@pytest.mark.parametrize("n", range(5))
def test_fundamental_matches_brute_force(G2, kappa, n):
    H = fundamental_subgroup(G2, kappa, n)
    assert set(H) == brute_fundamental(G2, kappa, n)


def test_fundamental_reference_orders(G2):
    # the nine distinct members on the running example
    want = {
        (0, 4): 64,  # G
        (0, 3): 32,  # G[p^3]
        (0, 2): 16,  # G[p^2]
        (1, 3): 16,  # pG
        (1, 2): 8,  # pG[p^2]
        (0, 1): 4,  # G[p]
        (2, 2): 4,  # p^2G
        (3, 1): 2,  # p^3G
        (4, 0): 1,  # 0
    }
    for (kappa, n), order in want.items():
        assert fundamental_subgroup(G2, kappa, n).order == order


def test_fundamental_carries_block_form(G2):
    H = fundamental_subgroup(G2, 1, 2)
    assert H.block_shifts == (1, 2)
    assert H == block_subgroup(G2, (1, 2))


def test_fundamental_rejects_negative(G2):
    with pytest.raises(InvalidInputError):
        fundamental_subgroup(G2, -1, 2)


def test_fundamental_antitone_in_kappa_monotone_in_n(small248):
    e = small248.exponent
    for n in range(e + 1):
        for kappa in range(e):
            big = fundamental_subgroup(small248, kappa, n)
            small = fundamental_subgroup(small248, kappa + 1, n)
            assert subgroup_leq(small, big)
    for kappa in range(e + 1):
        for n in range(e):
            low = fundamental_subgroup(small248, kappa, n)
            high = fundamental_subgroup(small248, kappa, n + 1)
            assert subgroup_leq(low, high)


def test_block_subgroups_build_no_group_table(monkeypatch):
    """A block subgroup is a grid over the packing's moduli and strides, so it
    never needs the table of every element: p^0 G[p] of Z(2) (+) Z(2^19) has
    order 4, while the table would hold 2^20 rows."""
    import pgroups.groups

    def refuse(*args, **kwargs):
        raise AssertionError("built the group table")

    monkeypatch.setattr(pgroups.groups, "_table", refuse)
    G = make_group(2, [(1, 1), (19, 1)])
    H = fundamental_subgroup(G, 0, 1)
    assert (H.order, H.block_shifts) == (4, (0, 18))
    assert H.indices.tolist() == [0, 2**18, 2**19, 2**19 + 2**18]
    Z = zero_subgroup(G)
    assert (Z.order, Z.indices.tolist()) == (1, [0])
