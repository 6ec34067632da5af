"""Indicator order, admissibility, realizability, and the cut-out subgroups."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pgroups import (
    REFERENCE_ADMISSIBLE_COUNT,
    GroupTooLargeError,
    INF,
    IndexOutOfRangeError,
    Indicator,
    InvalidInputError,
    TOP,
    admissible_glb,
    admissible_lub,
    enumerate_admissible,
    enumerate_elements,
    has_gap_at,
    height,
    ind_max,
    ind_min,
    ind_of,
    indicator_subgroup,
    indicator_universe,
    is_admissible,
    is_realizable,
    make_group,
    min_admissible,
    precedes,
    run_claims,
    smul,
    ulm_invariants,
)
from pgroups import indicators as indicators_module
from pgroups import groups as groups_module
from pgroups.indicators import _cut_order, _padded, _pair_bounds, _precedes_matrix
from pgroups.indicators import _sorted_indicators
from ring_family import FAMILY

indicators = st.sets(st.integers(0, 5), max_size=5).map(
    lambda s: Indicator(tuple(sorted(s)))
)


def oracle_indicator(x):
    """Height sequence of x, px, p^2 x, ... up to vanishing."""
    seq = []
    y = x
    while not y.is_zero():
        seq.append(height(y))
        y = smul(x.group.p, y)
    return tuple(seq)


# --- the Indicator type -------------------------------------------------------


def test_entries_must_strictly_increase():
    with pytest.raises(InvalidInputError):
        Indicator((1, 1))
    with pytest.raises(InvalidInputError):
        Indicator((3, 1))
    with pytest.raises(InvalidInputError):
        Indicator((-1,))


def test_top_is_empty():
    assert TOP.entries == ()
    assert TOP.length == 0
    assert str(TOP) == "(inf)"
    assert str(Indicator((1, 3))) == "(1,3,inf)"


def test_json_roundtrip():
    sigma = Indicator((0, 2, 3))
    assert Indicator.from_json(sigma.to_json()) == sigma


@pytest.mark.parametrize(
    "entries", [["1", 2.7], [1.0], [True], [0, "2"], "12", None, [[1]]]
)
def test_json_entries_are_integers_not_coerced(entries):
    with pytest.raises(InvalidInputError):
        Indicator.from_json({"entries": entries})


def test_bool_entries_are_rejected():
    with pytest.raises(InvalidInputError):
        Indicator((True,))
    with pytest.raises(InvalidInputError):
        Indicator((0, True))


# --- ind_of -------------------------------------------------------------------


def test_ind_of_matches_height_sequence(small248):
    for x in enumerate_elements(small248):
        assert ind_of(x).entries == oracle_indicator(x)


def test_ind_of_zero_is_top(G2):
    assert ind_of(G2.zero()) == TOP


def test_ind_of_strictly_increases(G2):
    for x in enumerate_elements(G2):
        ent = ind_of(x).entries
        assert all(a < b for a, b in itertools.pairwise(ent))
        # position i of the sequence records the height of p^i x, which is
        # at least i because each multiplication by p raises height.
        assert all(ent[i] >= i for i in range(len(ent)))


def test_known_indicators(G2):
    a, b = G2.generator(0), G2.generator(1)
    assert ind_of(a).entries == (0, 1)
    assert ind_of(b).entries == (0, 1, 2, 3)
    assert ind_of(smul(2, b)).entries == (1, 2, 3)
    assert ind_of(smul(2, a)).entries == (1,)
    # a + pb: heights 0, then min(1,2) = 1, then the a-part is gone and
    # 8b sits at height 3
    assert ind_of(G2.element((1, 2))).entries == (0, 1, 3)
    # a + p^2 b instead dies entirely at p^2
    assert ind_of(G2.element((1, 4))).entries == (0, 1)


# --- the refinement order -----------------------------------------------------


def test_precedes_definition():
    assert precedes(Indicator((1, 3)), Indicator((1,)))
    assert not precedes(Indicator((1,)), Indicator((1, 3)))
    assert precedes(Indicator((0, 1, 2, 3)), TOP)
    assert precedes(Indicator((1, 2)), Indicator((1, 3)))
    assert not precedes(Indicator((1, 4)), Indicator((1, 3)))


@given(indicators)
def test_precedes_reflexive(s):
    assert precedes(s, s)


@given(indicators, indicators)
def test_precedes_antisymmetric(s, t):
    if precedes(s, t) and precedes(t, s):
        assert s == t


@given(indicators, indicators, indicators)
def test_precedes_transitive(s, t, u):
    if precedes(s, t) and precedes(t, u):
        assert precedes(s, u)


@given(indicators, indicators)
def test_ind_min_is_meet(s, t):
    m = ind_min(s, t)
    assert precedes(m, s) and precedes(m, t)


@given(indicators, indicators, indicators)
def test_ind_min_is_greatest(s, t, r):
    if precedes(r, s) and precedes(r, t):
        assert precedes(r, ind_min(s, t))


@given(indicators, indicators)
def test_ind_max_is_join(s, t):
    j = ind_max(s, t)
    assert precedes(s, j) and precedes(t, j)


@given(indicators, indicators, indicators)
def test_ind_max_is_least(s, t, r):
    if precedes(s, r) and precedes(t, r):
        assert precedes(ind_max(s, t), r)


def test_min_max_documented_cases():
    assert ind_min(Indicator((1,)), Indicator((0, 3))) == Indicator((0, 3))
    assert ind_max(Indicator((0, 1)), Indicator((1, 3))) == Indicator((1, 3))
    assert ind_max(Indicator((2,)), TOP) == TOP
    assert ind_min(Indicator((2,)), TOP) == Indicator((2,))


def test_has_gap_bounds():
    sigma = Indicator((0, 2))
    assert has_gap_at(sigma, 0)
    assert not has_gap_at(Indicator((0, 1)), 0)
    with pytest.raises(IndexOutOfRangeError):
        has_gap_at(sigma, 1)
    with pytest.raises(IndexOutOfRangeError):
        has_gap_at(TOP, 0)


# --- admissibility and realizability -------------------------------------------


def oracle_admissible(G, sigma):
    e = G.exponent
    u = ulm_invariants(G)
    if sigma.length > e or any(v >= e for v in sigma.entries):
        return False
    pairs = zip(sigma.entries, sigma.entries[1:])
    return all(b == a + 1 or u[a] != 0 for a, b in pairs)


@pytest.mark.parametrize(
    "fixture", ["G2", "G3", "small24", "small28", "small224", "small248"]
)
def test_enumerate_admissible_against_recount(fixture, request):
    G = request.getfixturevalue(fixture)
    everything = indicator_universe(G.exponent)
    expected = {s for s in everything if oracle_admissible(G, s)}
    assert enumerate_admissible(G) == expected
    for sigma in everything:
        assert is_admissible(G, sigma) == (sigma in expected)


def test_admissible_count_on_example(G2, G3):
    assert len(enumerate_admissible(G2)) == REFERENCE_ADMISSIBLE_COUNT
    assert len(enumerate_admissible(G3)) == REFERENCE_ADMISSIBLE_COUNT


def test_admissible_count_small(small28, small248):
    assert len(enumerate_admissible(small28)) == 8
    assert len(enumerate_admissible(small248)) == 8


def test_admissible_count_cyclic():
    # Z(p^3): every strictly increasing tuple in {0,1,2} without a gap at a
    # vanished invariant; u = (0, 0, 1).
    G = make_group(5, [(3, 1)])
    assert len(enumerate_admissible(G)) == 7
    assert sum(1 for s in enumerate_admissible(G) if is_realizable(G, s)) == 4


def test_realizability_is_witnessed_by_elements(G2):
    realized = {ind_of(x) for x in enumerate_elements(G2)}
    for sigma in indicator_universe(G2.exponent):
        assert is_realizable(G2, sigma) == (sigma in realized)


def test_realizable_reference_set(G2):
    want = {
        (),
        (1,),
        (3,),
        (0, 1),
        (1, 3),
        (2, 3),
        (0, 1, 3),
        (1, 2, 3),
        (0, 1, 2, 3),
    }
    got = {
        s.entries for s in enumerate_admissible(G2) if is_realizable(G2, s)
    }
    assert got == want


def test_realizable_implies_admissible_not_conversely(G2):
    adm = enumerate_admissible(G2)
    real = {s for s in adm if is_realizable(G2, s)}
    assert real < adm
    # (2,) is admissible (no interior gap) but u_2 = 0 kills realizability
    assert Indicator((2,)) in adm - real


def test_min_admissible(G2, small248):
    for G in (G2, small248):
        bottom = min_admissible(G)
        assert bottom.entries == tuple(range(G.exponent))
        assert is_admissible(G, bottom)
        for sigma in enumerate_admissible(G):
            assert precedes(bottom, sigma)


def test_universe_size_is_power_of_two():
    for bound in range(6):
        assert len(indicator_universe(bound)) == 2**bound


# --- subgroups cut out by indicators --------------------------------------------


def oracle_cut(G, sigma):
    return {x for x in enumerate_elements(G) if precedes(sigma, ind_of(x))}


@pytest.mark.parametrize("entries", [(), (1,), (3,), (0, 1), (1, 3), (1, 2, 3)])
def test_indicator_subgroup_matches_filter(G2, entries):
    sigma = Indicator(entries)
    assert set(indicator_subgroup(G2, sigma)) == oracle_cut(G2, sigma)


def test_indicator_subgroup_is_actually_a_subgroup(small248):
    from pgroups import add

    for sigma in enumerate_admissible(small248):
        H = indicator_subgroup(small248, sigma)
        members = set(H)
        for x in members:
            assert add(x, x) in members and smul(-1, x) in members


def test_cut_of_min_admissible_is_everything(G2):
    assert indicator_subgroup(G2, min_admissible(G2)).order == G2.order


@pytest.mark.parametrize("G", FAMILY[:12], ids=lambda G: G.describe())
def test_cut_order_counts_block_by_block(G, monkeypatch):
    """The chunked count of a cut, in blocks of a few elements that need not
    divide |G|, is the order of the cut scanned off the whole table."""
    monkeypatch.setattr(groups_module, "_SCAN_BYTES", 5 * G.rank * (16 + G.exponent))
    for sigma in enumerate_admissible(G):
        assert _cut_order(G, sigma) == indicator_subgroup(G, sigma).order


def test_cut_order_keeps_the_enumeration_cap():
    G = make_group(2, [(21, 1)])
    with pytest.raises(GroupTooLargeError, match="2097152 exceeds enumeration cap 1048576"):
        _cut_order(G, min_admissible(G))


#: The two reports on Z(2) (+) Z(2^19), as the whole-table scans rendered them.
BOTTOM_AND_PAIR_BOUNDS = [
    '{"checked":"58996 unordered pairs","claim_id":"admissible-pair-bounds",'
    '"group":"Z(2) (+) Z(2^19)","status":"refuted","witnesses":['
    '{"missing":"glb","sigma":[1],"tau":[2,3]},{"missing":"glb","sigma":[1],"tau":[3,4]},'
    '{"missing":"glb","sigma":[1],"tau":[4,5]},{"missing":"glb","sigma":[1],"tau":[5,6]},'
    '{"missing":"glb","sigma":[1],"tau":[6,7]}]}',
    '{"checked":"344 admissible indicators","claim_id":"min-admissible-bottom",'
    '"group":"Z(2) (+) Z(2^19)","status":"verified","witnesses":[]}',
]


def test_bottom_and_pair_bounds_keep_no_table():
    """``min-admissible-bottom`` counts its cut block by block and
    ``admissible-pair-bounds`` reads its pairs block by block, so on a group
    of 2**20 elements with 344 admissible indicators neither holds a table
    of the elements or of the pairs; building both took a 145 MB peak."""
    G = make_group(2, [(1, 1), (19, 1)])
    tracemalloc.start()
    try:
        reports = run_claims(G, ids=["min-admissible-bottom", "admissible-pair-bounds"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert [r.render() for r in reports] == BOTTOM_AND_PAIR_BOUNDS


def test_cut_of_top_is_zero(G2):
    assert indicator_subgroup(G2, TOP).order == 1


def test_cut_reference_orders(G2):
    # the nine distinct fully invariant subgroups of the running example
    want = {
        (): 1,
        (3,): 2,
        (1,): 4,
        (2, 3): 4,
        (1, 3): 8,
        (0, 1): 16,
        (1, 2, 3): 16,
        (0, 1, 3): 32,
        (0, 1, 2, 3): 64,
    }
    for entries, order in want.items():
        assert indicator_subgroup(G2, Indicator(entries)).order == order


def test_cuts_are_antitone(G2):
    adm = enumerate_admissible(G2)
    for s, t in itertools.product(adm, repeat=2):
        if precedes(s, t):
            big = indicator_subgroup(G2, s)
            small = indicator_subgroup(G2, t)
            assert set(small) <= set(big)


# --- bounds within the admissible family ----------------------------------------


def test_admissible_bounds_on_example(G2):
    adm = enumerate_admissible(G2)
    # closed under the plain lattice operations here, so bounds always exist
    for s, t in itertools.combinations(adm, 2):
        glb = admissible_glb(G2, s, t, universe=adm)
        lub = admissible_lub(G2, s, t, universe=adm)
        assert glb is not None and lub is not None
        assert precedes(glb, s) and precedes(glb, t)
        assert precedes(s, lub) and precedes(t, lub)


def test_admissible_glb_can_vanish():
    # u_1 = 0 makes (1,3) inadmissible, and no admissible lower bound of
    # (1) and (2,3) dominates all the others.
    G = make_group(2, [(1, 1), (3, 1), (4, 1)])
    assert ulm_invariants(G) == (1, 0, 1, 1)
    s, t = Indicator((1,)), Indicator((2, 3))
    assert not is_admissible(G, ind_min(s, t))
    assert admissible_glb(G, s, t) is None


def test_admissible_lub_can_vanish():
    G = make_group(2, [(1, 1), (3, 1), (4, 1)])
    s, t = Indicator((0, 3)), Indicator((1, 2))
    assert admissible_lub(G, s, t) is None


# --- endo action refines indicators ----------------------------------------------


def test_endo_monotone_exhaustive(small24):
    (report,) = run_claims(small24, ids=["endo-indicator-monotone"])
    assert report.status == "verified"
    assert report.witnesses == []
    assert "32 endomorphisms" in report.checked


# the family holds every ring within 2**12, the verify benchmark's nine groups
# among them; the last group has pairs with no glb and pairs with no lub
BOUND_GROUPS = FAMILY + [make_group(2, [(1, 1), (3, 1), (4, 1)])]


@pytest.mark.parametrize("G", BOUND_GROUPS, ids=lambda G: G.describe())
def test_pair_bounds_match_glb_and_lub(G, monkeypatch):
    adm = _sorted_indicators(enumerate_admissible(G))
    universe = set(adm)
    pairs = list(itertools.combinations(adm, 2))
    glb, lub = _pair_bounds(adm)
    assert glb.tolist() == [admissible_glb(G, s, t, universe=universe) is not None for s, t in pairs]
    assert lub.tolist() == [admissible_lub(G, s, t, universe=universe) is not None for s, t in pairs]
    if G is BOUND_GROUPS[-1]:
        assert not glb.all() and not lub.all()
    # blocks of seven pairs, the last one short, give the same arrays
    monkeypatch.setattr(indicators_module, "_PAIR_BLOCK_BYTES", 7 * len(adm))
    blocked = _pair_bounds(adm)
    assert blocked[0].tolist() == glb.tolist() and blocked[1].tolist() == lub.tolist()


def test_precedes_matrix_is_precedes():
    universe = indicator_universe(6)
    P = _precedes_matrix(universe)
    assert P.tolist() == [[precedes(s, t) for t in universe] for s in universe]


def test_padded_min_and_max_are_ind_min_and_ind_max():
    """On the padded rows the pointwise min is the entrywise min, and the max
    truncated at the shorter length is the entrywise max."""
    universe = indicator_universe(5)
    A, top = _padded(universe)
    assert top == 5 and A.shape == (len(universe), 5)
    for i, s in enumerate(universe):
        for j, t in enumerate(universe):
            for got, want in ((np.minimum, ind_min), (np.maximum, ind_max)):
                row = got(A[i], A[j])
                assert row[row < top].tolist() == list(want(s, t).entries)
                assert (row[(row < top).sum():] == top).all()
