"""The grid of fundamental subgroups, its index formulas, and rising paths."""
import itertools

import pytest

from pgroups import (
    REFERENCE_ADMISSIBLE_COUNT,
    IndexOutOfRangeError,
    Indicator,
    InvalidInputError,
    NoAliasError,
    NotAdmissibleError,
    RisingPath,
    add,
    alias,
    build_matrix,
    entry_join,
    entry_meet,
    enumerate_admissible,
    enumerate_elements,
    enumerate_rising_paths,
    indicator_subgroup,
    indicator_to_path,
    make_group,
    path_tally,
    path_to_indicator,
    quartering,
    run_claims,
    sigma_sum,
    smul,
    subgroup_leq,
    subgroup_meet,
    subgroup_sum,
)


@pytest.fixture(scope="module")
def M2(G2):
    return build_matrix(G2)


def claim_reports(G, *ids):
    """``{claim id: report}`` of ``run_claims`` on these ids."""
    return {r.claim_id: r for r in run_claims(G, ids=list(ids))}


def claim_report(G, claim_id):
    return claim_reports(G, claim_id)[claim_id]


def brute_cell(G, i, j):
    """Elements of height >= j killed by p^i, by direct scan."""
    pj = {smul(G.p**j, x) for x in enumerate_elements(G)}
    return {x for x in pj if smul(G.p**i, x).is_zero()}


# --- the grid itself ----------------------------------------------------------


def test_every_cell_matches_brute_force(M2, G2):
    for i, j in M2.cells():
        assert set(M2.entry(i, j)) == brute_cell(G2, i, j)


def test_cell_indexing(M2):
    assert M2.entry(4, 0).order == 64
    assert M2.entry(3, 0).order == 32
    with pytest.raises(IndexOutOfRangeError):
        M2.entry(0, 0)
    with pytest.raises(IndexOutOfRangeError):
        M2.entry(5, 0)
    with pytest.raises(IndexOutOfRangeError):
        M2.entry(1, 4)


def test_display_and_marker_columns(M2):
    # one display column per block; markers at the socle heights 2-1, 4-1
    assert M2.display_cols == (0, 1)
    assert M2.marker_cols == (1, 3)


def test_marker_columns_three_blocks(small248):
    M = build_matrix(small248)
    assert M.display_cols == (0, 1, 2)
    assert M.marker_cols == (0, 1, 2)


def test_monotone_everywhere(M2, small248):
    assert claim_report(M2.group, "matrix-monotone").status == "verified"
    assert claim_report(small248, "matrix-monotone").status == "verified"


def test_distinctness_fails_by_recount(M2):
    # recount coincidences over display columns independently
    cells = [(i, j) for i in range(1, 5) for j in M2.display_cols]
    collisions = [
        (a, b)
        for a, b in itertools.combinations(cells, 2)
        if set(M2.entry(*a)) == set(M2.entry(*b))
    ]
    report = claim_report(M2.group, "matrix-distinct-entries")
    assert (report.status == "refuted") == bool(collisions)
    assert len(report.witnesses) == len(collisions)
    # the socle row repeats: G[p] = pG[p] because u_0 = 0
    assert ((1, 0), (1, 1)) in collisions


# --- meet and join formulas ----------------------------------------------------


def test_meet_formula_is_exact(M2):
    for a, b in itertools.combinations(M2.cells(), 2):
        cell, formula = entry_meet(M2, a, b)
        assert cell == (min(a[0], b[0]), max(a[1], b[1]))
        assert formula == subgroup_meet(M2.entry(*a), M2.entry(*b))


def test_join_formula_bounds_but_overshoots(M2):
    overshoots = 0
    for a, b in itertools.combinations(M2.cells(), 2):
        A, B = M2.entry(*a), M2.entry(*b)
        _, formula = entry_join(M2, a, b)
        explicit = subgroup_sum(A, B)
        assert subgroup_leq(A, formula) and subgroup_leq(B, formula)
        assert subgroup_leq(explicit, formula)
        if formula != explicit:
            overshoots += 1
    assert overshoots > 0  # the index formula is not exact on this group


def test_join_overshoot_witness(M2):
    # (1,1) + (2,3): the formula lands on (2,1) = pG[p^2] of order 8 but the
    # honest sum G[p] + p^3G is only the socle.
    A, B = M2.entry(1, 1), M2.entry(2, 3)
    _, formula = entry_join(M2, (1, 1), (2, 3))
    assert formula.order == 8
    assert subgroup_sum(A, B).order == 4


def test_check_join_meet_reports(M2):
    reports = claim_reports(M2.group, "matrix-meet-formula", "matrix-join-formula")
    meet_rep, join_rep = reports["matrix-meet-formula"], reports["matrix-join-formula"]
    assert meet_rep.claim_id == "matrix-meet-formula"
    assert meet_rep.status == "verified"
    assert join_rep.claim_id == "matrix-join-formula"
    assert join_rep.status == "refuted"
    assert join_rep.witnesses


# --- quartering -----------------------------------------------------------------


def test_quartering_buckets_partition(M2):
    for i, j in M2.cells():
        buckets = quartering(M2, i, j)
        tagged = buckets["se"] + buckets["nw"] + buckets["other"]
        assert sorted(tagged) == sorted(M2.cells() + [(i, j)])  # anchor twice
        assert (i, j) in buckets["se"] and (i, j) in buckets["nw"]


def test_quartering_containments_hold(M2):
    reports = claim_reports(M2.group, "quartering-containments", "quartering-incomparability")
    contain, incomp = reports["quartering-containments"], reports["quartering-incomparability"]
    assert contain.claim_id == "quartering-containments"
    assert contain.status == "verified"
    # distant cells can still coincide, so blanket incomparability fails
    assert incomp.claim_id == "quartering-incomparability"
    assert incomp.status == "refuted"


def test_quartering_incomparability_witness(M2):
    # cell (2,3) = p^3G sits inside the socle-row anchor (1,0) = G[p]
    # even though it lies in neither index quadrant of it.
    buckets = quartering(M2, 1, 0)
    assert (2, 3) in buckets["other"]
    assert subgroup_leq(M2.entry(2, 3), M2.entry(1, 0))


# --- alias ----------------------------------------------------------------------


def test_alias_resolves_socle_row(M2):
    # G[p] at (1,0) equals pG[p] at marker column 1
    assert alias(M2, 1, 0) == 1
    assert alias(M2, 1, 2) == 3  # p^2G[p] = p^3G[p] = p^3G


def test_alias_rejects_marker_column(M2):
    with pytest.raises(InvalidInputError):
        alias(M2, 1, 1)


def test_alias_missing_above_socle(M2):
    # G[p^2] at (2,0) equals no marker-column cell to its right
    with pytest.raises(NoAliasError):
        alias(M2, 2, 0)


def test_check_alias_matches_recount(M2, small28):
    for M in (M2, build_matrix(small28)):
        failures = []
        total = 0
        for i, j in M.cells():
            if j in M.marker_cols or M.entry(i, j).order == 1:
                continue
            total += 1
            hits = [
                l
                for l in M.marker_cols
                if l > j and set(M.entry(i, l)) == set(M.entry(i, j))
            ]
            if not hits:
                failures.append([i, j])
        report = claim_report(M.group, "alias-to-marker")
        assert (report.status == "refuted") == bool(failures)
        assert [w["cell"] for w in report.witnesses] == failures
        assert report.checked == f"{total} nonzero non-marker cells"


# --- rising paths ---------------------------------------------------------------


def test_path_shape_validation():
    RisingPath(((1, 0), (2, 2), (3, 3)))
    with pytest.raises(InvalidInputError):
        RisingPath(())
    with pytest.raises(InvalidInputError):
        RisingPath(((1, 0), (3, 1)))  # skips a row
    with pytest.raises(InvalidInputError):
        RisingPath(((1, 1), (2, 1)))  # column stalls


def test_path_indicator_roundtrip_all(M2):
    for P in enumerate_rising_paths(M2):
        sigma = path_to_indicator(P, group=M2.group)
        assert indicator_to_path(M2, sigma, start_row=P.start_row) == P
    for sigma in enumerate_admissible(M2.group):
        if sigma.length == 0:
            continue
        assert path_to_indicator(indicator_to_path(M2, sigma)) == sigma
    assert claim_report(M2.group, "path-roundtrip").status == "verified"


def test_inadmissible_paths_rejected(M2):
    # (0,2) jumps over 1 and u_0 = 0 on this group
    with pytest.raises(NotAdmissibleError):
        indicator_to_path(M2, Indicator((0, 2)))
    with pytest.raises(NotAdmissibleError):
        path_to_indicator(RisingPath(((1, 0), (2, 2))), group=M2.group)
    with pytest.raises(NotAdmissibleError):
        indicator_to_path(M2, Indicator(()))
    # too long to start at row 2
    with pytest.raises(NotAdmissibleError):
        indicator_to_path(M2, Indicator((0, 1, 2, 3)), start_row=2)


def test_path_census(M2):
    # one path per admissible nonempty indicator and fitting start row:
    # sum over lengths l of count(l) * (e - l + 1)
    adm = enumerate_admissible(M2.group)
    by_len = {}
    for s in adm:
        by_len[s.length] = by_len.get(s.length, 0) + 1
    assert by_len == {0: 1, 1: 4, 2: 4, 3: 3, 4: 1}
    expected_total = sum(
        count * (4 - length + 1) for length, count in by_len.items() if length
    )
    paths = enumerate_rising_paths(M2)
    assert len(paths) == expected_total == 35
    assert path_tally(M2) == {1: 16, 2: 12, 3: 6, 4: 1}


def test_paths_are_deduplicated_and_sorted(M2):
    paths = enumerate_rising_paths(M2)
    assert len(set(paths)) == len(paths)
    keys = [(len(P), P.start_row, P.columns) for P in paths]
    assert keys == sorted(keys)


# --- the cell sum along an indicator ---------------------------------------------


def brute_sum(G, M, sigma):
    total = {G.zero()}
    for t, v in enumerate(sigma.entries):
        cell = set(M.entry(t + 1, v))
        total = {add(x, y) for x in total for y in cell}
    return total


def test_sigma_sum_matches_brute_force(M2, G2):
    for sigma in enumerate_admissible(G2):
        assert set(sigma_sum(G2, sigma)) == brute_sum(G2, M2, sigma)


def sigma_sum_verdicts(G):
    """``{sigma: (equal, contained)}`` over the admissible indicators, read
    off the two ``sigma-sum-*`` reports, which list every failing indicator;
    the equality report's ``checked`` text gives their count."""
    reports = claim_reports(G, "sigma-sum-equality", "sigma-sum-containment")
    eq, cont = reports["sigma-sum-equality"], reports["sigma-sum-containment"]
    admissible = enumerate_admissible(G)
    assert eq.checked == cont.checked == f"{len(admissible)} admissible indicators"
    unequal = {tuple(w["indicator"]) for w in eq.witnesses}
    outside = {tuple(w["indicator"]) for w in cont.witnesses}
    return {s: (s.entries not in unequal, s.entries not in outside) for s in admissible}


def test_sigma_sum_verdicts_against_recount(M2, G2):
    verdicts = sigma_sum_verdicts(G2)
    assert len(verdicts) == REFERENCE_ADMISSIBLE_COUNT
    for sigma, (equal, contained) in verdicts.items():
        total = brute_sum(G2, M2, sigma)
        target = set(indicator_subgroup(G2, sigma))
        assert equal == (total == target)
        assert contained == (total <= target)
        assert contained  # the one-sided inclusion never fails


def test_sigma_sum_known_split(G2):
    verdicts = sigma_sum_verdicts(G2)
    equal_ones = {s.entries for s, (eq, _) in verdicts.items() if eq}
    assert equal_ones == {(), (0,), (1,), (2,), (3,), (1, 2)}


def test_verify_sigma_sum_reports(G2):
    reports = claim_reports(G2, "sigma-sum-equality", "sigma-sum-containment")
    eq, cont = reports["sigma-sum-equality"], reports["sigma-sum-containment"]
    assert eq.claim_id == "sigma-sum-equality"
    assert eq.status == "refuted"
    missing = {
        (tuple(w["indicator"]), tuple(w["element_missing_from_sum"]))
        for w in eq.witnesses
    }
    # (1,3) sums to the socle but pG[p^2] also holds p^2 b
    assert ((1, 3), (0, 4)) in missing
    assert cont.claim_id == "sigma-sum-containment"
    assert cont.status == "verified"


def test_path_chain_direction_fails(G2):
    # G(sigma) is not contained in the path cells; e.g. (0,1) cuts G[p^2]
    # but the first path cell is only G[p].
    report = claim_report(G2, "path-subgroup-chain")
    assert report.status == "refuted"
    cells = [w["cell"] for w in report.witnesses if w["indicator"] == [0, 1]]
    assert cells[0] == [1, 0]
    # ... and the reverse containment is the verified sigma-sum half
    assert claim_report(G2, "sigma-sum-containment").status == "verified"


# --- a second shape, for contrast -------------------------------------------------


def test_grid_on_three_blocks(small248):
    M = build_matrix(small248)
    for i, j in M.cells():
        assert set(M.entry(i, j)) == brute_cell(small248, i, j)
    meet_rep = claim_report(M.group, "matrix-meet-formula")
    assert meet_rep.status == "verified"
