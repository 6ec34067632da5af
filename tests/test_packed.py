"""The packed representation against element-by-element oracles.

Subgroups are sorted index arrays over one table per group, and ideals sorted
index arrays over one ring shape; indicator cuts, heights and exponents are
read from the group's table.  The oracles here use only ``enumerate_elements``,
``ind_of``, ``height``, ``exponent``, ``smul``, ``add`` and
``subgroup_generated``, which work one ``Element`` at a time.
"""
import random

import numpy as np
import pytest

from pgroups import (
    INF,
    Indicator,
    MismatchedParentError,
    Subgroup,
    add,
    dagger_subgroup,
    enumerate_admissible,
    enumerate_elements,
    exponent,
    full_subgroup,
    height,
    ideal_generated,
    ideal_leq,
    ideal_meet,
    ideal_sum,
    identity_endo,
    ind_of,
    indicator_subgroup,
    indicator_universe,
    is_admissible,
    make_group,
    precedes,
    smul,
    subgroup_from_set,
    subgroup_generated,
    subgroup_leq,
    subgroup_meet,
    subgroup_sum,
    zero_subgroup,
)
from pgroups.groups import _subgroup, _table

PACKED_GROUPS = {
    "Z2+Z4": (2, [(1, 1), (2, 1)]),
    "Z2+Z8": (2, [(1, 1), (3, 1)]),
    "Z4^2": (2, [(2, 2)]),
    "Z2^2+Z4": (2, [(1, 2), (2, 1)]),
    "Z3+Z9": (3, [(1, 1), (2, 1)]),
    "Z5+Z25": (5, [(1, 1), (2, 1)]),
    "Z32": (2, [(5, 1)]),
}


@pytest.fixture(params=sorted(PACKED_GROUPS), scope="module")
def packed_group(request):
    return make_group(*PACKED_GROUPS[request.param])


def coord_set(H):
    return {x.coords for x in H}


def random_subgroups(G, count, seed):
    """Seeded subgroups, each generated by up to three random elements."""
    elements = enumerate_elements(G)
    rng = random.Random(seed)
    return [
        subgroup_generated(G, rng.sample(elements, rng.randrange(4)))
        for _ in range(count)
    ]


def test_indicator_subgroup_matches_ind_of_scan(packed_group):
    G = packed_group
    elements = enumerate_elements(G)
    inds = [ind_of(a) for a in elements]
    e = G.exponent
    # every indicator with entries up to e and length up to e + 1, plus a few
    # with entries far past the exponent
    sigmas = indicator_universe(e + 1) + [Indicator((0, 7, 100)), Indicator((e + 3,))]
    assert set(enumerate_admissible(G)) <= set(sigmas)
    assert any(not is_admissible(G, s) for s in sigmas)
    for sigma in sigmas:
        expected = [a.coords for a, t in zip(elements, inds) if precedes(sigma, t)]
        got = indicator_subgroup(G, sigma)
        assert [a.coords for a in got.elements] == expected, sigma


def test_indicator_subgroup_scans_only_the_given_elements(packed_group):
    G = packed_group
    elements = enumerate_elements(G)
    some = [a for i, a in enumerate(elements) if i % 3 == 0]
    for sigma in enumerate_admissible(G):
        got = indicator_subgroup(G, sigma, elements=some)
        assert coord_set(got) == {a.coords for a in some if precedes(sigma, ind_of(a))}


def test_height_table_matches_height_of_multiples(packed_group):
    G = packed_group
    table = _table(G)
    e = G.exponent
    elements = enumerate_elements(G)
    assert [tuple(c) for c in table.coords.tolist()] == [a.coords for a in elements]
    assert table.heights.shape == (e + 1, G.order)
    for i, a in enumerate(elements):
        for k in range(e + 1):
            h = height(smul(G.p**k, a))
            assert table.heights[k, i] == (e if h is INF else h), (a, k)
        assert table.exponents[i] == exponent(a), a


def test_sum_meet_leq_match_set_arithmetic(packed_group):
    G = packed_group
    subs = random_subgroups(G, 12, seed=4)
    for H, K in zip(subs, subs[1:] + subs[:1]):
        h, k = coord_set(H), coord_set(K)
        sumset = {add(G.element(x), G.element(y)).coords for x in h for y in k}
        assert coord_set(subgroup_sum(H, K)) == sumset
        assert coord_set(subgroup_meet(H, K)) == h & k
        assert subgroup_leq(H, K) == (h <= k)
        assert subgroup_leq(subgroup_meet(H, K), H)
    assert any(subgroup_leq(H, K) for H in subs for K in subs if H != K)
    assert any(not subgroup_leq(H, K) for H in subs for K in subs)


def test_constructions_agree_and_hash_alike(packed_group):
    G = packed_group
    for H in random_subgroups(G, 8, seed=9):
        members = list(H.elements)
        built = [
            Subgroup(G, list(reversed(members))),
            subgroup_from_set(G, members + members[:2]),
            _subgroup(G, np.array(H.indices)),
            subgroup_generated(G, members),
        ]
        for K in built:
            assert K == H and hash(K) == hash(H)
            assert list(K.elements) == members
            assert all(x in K for x in members)
        outside = [x for x in enumerate_elements(G) if x.coords not in coord_set(H)]
        assert not any(x in H for x in outside)


def test_elements_come_out_in_lexicographic_order(packed_group):
    G = packed_group
    for H in random_subgroups(G, 5, seed=2):
        coords = [x.coords for x in H.elements]
        assert coords == sorted(coords) and len(coords) == H.order == len(set(coords))


def test_subgroups_of_different_groups_are_never_equal():
    Z4 = make_group(2, [(2, 1)])
    Z2sq = make_group(2, [(1, 2)])
    # identical index bytes: 0..3 in both groups
    assert full_subgroup(Z4).indices.tolist() == full_subgroup(Z2sq).indices.tolist()
    assert full_subgroup(Z4) != full_subgroup(Z2sq)
    assert zero_subgroup(Z4) != zero_subgroup(Z2sq)
    assert len({full_subgroup(Z4), full_subgroup(Z2sq)}) == 2
    assert Z2sq.element([1, 0]) not in full_subgroup(Z4)
    with pytest.raises(MismatchedParentError):
        subgroup_sum(full_subgroup(Z4), zero_subgroup(Z2sq))
    with pytest.raises(MismatchedParentError):
        subgroup_leq(full_subgroup(Z4), zero_subgroup(Z2sq))


def test_ideals_share_the_packed_equality():
    Z4 = make_group(2, [(2, 1)])
    Z2sq = make_group(2, [(1, 2)])
    zero4, zero22 = (dagger_subgroup(G, zero_subgroup(G)) for G in (Z4, Z2sq))
    # identical index bytes: the zero ideal of each ring, and the zero subgroup
    assert zero4.indices.tolist() == zero22.indices.tolist() == [0]
    assert zero_subgroup(Z4).indices.tolist() == [0]
    assert zero4 != zero22 and hash(zero4) != hash(zero22)
    assert len({zero4, zero22}) == 2
    assert zero4 != zero_subgroup(Z4) and zero_subgroup(Z4) != zero4
    assert hash(zero4) != hash(zero_subgroup(Z4))
    assert len({zero4, zero_subgroup(Z4)}) == 2
    # generators take no part in equality
    assert ideal_generated(Z4, []) == zero4
    for op in (ideal_sum, ideal_meet, ideal_leq):
        with pytest.raises(MismatchedParentError):
            op(zero4, zero22)


def test_indices_and_tables_are_read_only(G2):
    H = full_subgroup(G2)
    with pytest.raises(ValueError):
        H.indices[0] = 1
    I = ideal_generated(G2, [identity_endo(G2)])
    assert I.indices.dtype == np.int64 and I.size == 2**10
    with pytest.raises(ValueError):
        I.indices[0] = 1
    table = _table(G2)
    for arr in (table.coords, table.valuations, table.heights, table.exponents):
        with pytest.raises(ValueError):
            arr.reshape(-1)[0] = 1
