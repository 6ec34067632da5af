"""Fully invariant subgroups: normal forms, enumeration, and the Hasse data.

The independent oracle enumerates *all* subgroups of a small group (a
subgroup needs at most rank-of-G generators) and keeps those stable under
every endomorphism.
"""
import itertools
import json
import subprocess
import sys

import pytest

from pgroups import (
    REFERENCE_ADMISSIBLE_COUNT,
    REFERENCE_FI_NODE_COUNT,
    REFERENCE_LATTICE_STATS,
    FILattice,
    InvalidInputError,
    NotFullyInvariantError,
    UnknownFormatError,
    apply,
    block_subgroup,
    canonical_fi_form,
    enumerate_admissible,
    enumerate_elements,
    enumerate_endos,
    enumerate_fi_subgroups,
    fi_closure,
    hasse_export,
    indicator_subgroup,
    is_valid_fi_form,
    lattice_stats,
    make_group,
    run_claims,
    subgroup_generated,
    subgroup_leq,
    subgroup_name,
)

from conftest import own_pgroups_env


def brute_fi_subgroups(G):
    """Every endomorphism-stable subgroup, from scratch."""
    elements = enumerate_elements(G)
    subs = {subgroup_generated(G, [])}
    for gens in itertools.combinations_with_replacement(elements, G.rank):
        subs.add(subgroup_generated(G, gens))
    endos = enumerate_endos(G)
    stable = []
    for H in subs:
        members = set(H)
        if all(apply(h, f) in members for f in endos for h in members):
            stable.append(H)
    return {frozenset(e.coords for e in H) for H in stable}


# --- normal forms ---------------------------------------------------------------


def test_valid_forms_on_example(G2):
    # chain conditions: nondecreasing, step bounded by the exponent step (2)
    assert is_valid_fi_form(G2, (0, 0))
    assert is_valid_fi_form(G2, (1, 3))
    assert is_valid_fi_form(G2, (2, 4))
    assert not is_valid_fi_form(G2, (1, 0))  # decreasing
    assert not is_valid_fi_form(G2, (0, 3))  # grows faster than exponents
    assert not is_valid_fi_form(G2, (0, 5))  # exceeds block exponent
    assert not is_valid_fi_form(G2, (0,))  # wrong arity


def test_valid_forms_are_exactly_the_nodes(G2):
    forms = [
        alpha
        for alpha in itertools.product(range(3), range(5))
        if is_valid_fi_form(G2, alpha)
    ]
    assert len(forms) == REFERENCE_FI_NODE_COUNT
    lattice = enumerate_fi_subgroups(G2)
    assert {canonical_fi_form(G2, H) for H in lattice.nodes} == set(forms)


def test_canonical_form_roundtrip(G2):
    for alpha in itertools.product(range(3), range(5)):
        if not is_valid_fi_form(G2, alpha):
            continue
        assert canonical_fi_form(G2, block_subgroup(G2, alpha)) == alpha


def test_canonical_form_rejects_non_fi(G2, small24):
    b_only = subgroup_generated(G2, [G2.generator(1)])
    with pytest.raises(NotFullyInvariantError, match="chain conditions"):
        canonical_fi_form(G2, b_only)
    diagonal = subgroup_generated(small24, [small24.element((1, 1))])
    with pytest.raises(NotFullyInvariantError, match="not a sum of shifted blocks"):
        canonical_fi_form(small24, diagonal)


def test_subgroup_names(G2):
    lattice = enumerate_fi_subgroups(G2)
    by_order = {}
    for H in lattice.nodes:
        by_order.setdefault(H.order, set()).add(subgroup_name(G2, H))
    assert by_order == {
        1: {"0"},
        2: {"p^3G"},
        4: {"G[p]", "p^2G"},
        8: {"pG[p^2]"},
        16: {"G[p^2]", "pG"},
        32: {"G[p^3]"},
        64: {"G"},
    }


def test_name_for_non_fi_subgroup(G2):
    H = subgroup_generated(G2, [G2.generator(1)])
    assert subgroup_name(G2, H) == "subgroup of order 16"


# --- enumeration against the brute-force oracle -----------------------------------


@pytest.mark.parametrize("fixture", ["small24", "small28", "small39", "small224"])
def test_enumeration_matches_brute_force(fixture, request):
    G = request.getfixturevalue(fixture)
    lattice = enumerate_fi_subgroups(G)
    got = {frozenset(e.coords for e in H) for H in lattice.nodes}
    assert got == brute_fi_subgroups(G)


@pytest.mark.parametrize(
    "fixture,count",
    [
        ("G2", 9),
        ("small24", 4),
        ("small28", 6),
        ("small39", 4),
        ("small224", 4),
        ("small248", 8),
        ("homocyclic44", 3),
    ],
)
def test_node_counts(fixture, count, request):
    G = request.getfixturevalue(fixture)
    assert enumerate_fi_subgroups(G).node_count == count


def test_nodes_sorted_and_distinct(G2):
    lattice = enumerate_fi_subgroups(G2)
    orders = [H.order for H in lattice.nodes]
    assert orders == sorted(orders)
    assert len(set(lattice.nodes)) == lattice.node_count


# --- Hasse edges and stats ---------------------------------------------------------


def test_hasse_edges_are_transitive_reduction(G2):
    lattice = enumerate_fi_subgroups(G2)
    nodes = lattice.nodes
    n = len(nodes)
    leq = [[subgroup_leq(nodes[i], nodes[j]) for j in range(n)] for i in range(n)]
    expected = set()
    for i, j in itertools.permutations(range(n), 2):
        if not leq[i][j]:
            continue
        if any(leq[i][k] and leq[k][j] for k in range(n) if k not in (i, j)):
            continue
        expected.add((i, j))
    assert set(lattice.hasse_edges) == expected


def test_stats_on_example(G2):
    # longest chain 0 < p^3G < p^2G (or G[p]) < pG[p^2] < pG (or G[p^2])
    # < G[p^3] < G has seven nodes; G[p]/p^2G and G[p^2]/pG are incomparable.
    lattice = enumerate_fi_subgroups(G2)
    assert lattice_stats(lattice) == REFERENCE_LATTICE_STATS


def test_stats_elementary_abelian_rank_two():
    G = make_group(2, [(1, 2)])
    lattice = enumerate_fi_subgroups(G)
    assert lattice.node_count == 2  # just 0 and G
    assert lattice_stats(lattice) == (2, 1)


def test_stats_homocyclic(homocyclic44):
    # a single chain 0 < pG < G
    lattice = enumerate_fi_subgroups(homocyclic44)
    assert lattice_stats(lattice) == (3, 1)


# --- indicator labels ----------------------------------------------------------------


def test_every_node_is_an_indicator_cut(G2):
    lattice = enumerate_fi_subgroups(G2)
    assert all(labels for labels in lattice.sigma_labels)
    labelled = sum(len(labels) for labels in lattice.sigma_labels)
    assert labelled == REFERENCE_ADMISSIBLE_COUNT


ROSTER = ["G2", "G3", "small24", "small28", "small39", "small224", "small248", "homocyclic44"]


@pytest.mark.parametrize("fixture", ROSTER)
def test_each_admissible_indicator_labels_one_node(fixture, request):
    G = request.getfixturevalue(fixture)
    lattice = enumerate_fi_subgroups(G)
    labels = [s for node_labels in lattice.sigma_labels for s in node_labels]
    assert sorted(labels, key=str) == sorted(enumerate_admissible(G), key=str)
    for H, node_labels in zip(lattice.nodes, lattice.sigma_labels):
        assert all(indicator_subgroup(G, s) == H for s in node_labels)


def test_coverage_witnesses_ignore_the_hash_seed():
    # a forged lattice: the block sums of Z(4) + Z(16) with a first shift
    # other than 1, so three fully invariant nodes are missing and four block
    # sums that are not fully invariant are extra; FILattice refuses those,
    # so the forgery sets its fields past the constructor, and the claim
    # reads it in place of the lattice
    script = """
import itertools
from pgroups import FILattice, claims, make_group, run_claims
G = make_group(2, [(2, 1), (4, 1)])
shifts = tuple(a for a in itertools.product(range(3), range(5)) if a[0] != 1)
forged = object.__new__(FILattice)
fields = {"group": G, "shifts": shifts, "hasse_edges": (), "sigma_labels": ((),) * len(shifts)}
for name, value in fields.items():
    object.__setattr__(forged, name, value)
claims.enumerate_fi_subgroups = lambda group: forged
(report,) = run_claims(G, ids=["indicator-coverage"])
print(report.render())
"""
    outputs = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=own_pgroups_env(PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(done.stdout)
    assert json.loads(outputs[0])["status"] == "refuted"
    assert outputs[0] == outputs[1]


def test_lattice_refuses_nodes_that_are_not_fi_shifts(G2, small24):
    L = enumerate_fi_subgroups(G2)
    # the positional call of the subgroup-holding lattice
    with pytest.raises(InvalidInputError, match="lattice node 0"):
        FILattice(G2, L.nodes, L.hasse_edges, L.sigma_labels)
    for bad in ([1, 3], (1,), (1, 3, 4), (1.0, 3), (True, 3), (0, 4), (3, 4)):
        with pytest.raises(InvalidInputError):
            FILattice(G2, (bad,), (), ((),))
    assert FILattice(G2, L.shifts, L.hasse_edges, L.sigma_labels) == L
    with pytest.raises(InvalidInputError):
        FILattice(small24, L.shifts, L.hasse_edges, L.sigma_labels)


def test_label_multiplicities(G2):
    lattice = enumerate_fi_subgroups(G2)
    mult = {
        subgroup_name(G2, H): len(labels)
        for H, labels in zip(lattice.nodes, lattice.sigma_labels)
    }
    assert mult == {
        "0": 1,
        "p^3G": 2,  # (2,inf) and (3,inf)
        "G[p]": 2,  # (0,inf) and (1,inf)
        "p^2G": 1,
        "pG[p^2]": 2,  # (1,2,inf) and (1,3,inf)
        "G[p^2]": 1,
        "pG": 1,
        "G[p^3]": 2,  # (0,1,2,inf) and (0,1,3,inf)
        "G": 1,
    }


def test_indicator_coverage_report(G2, small248):
    for G in (G2, small248):
        (report,) = run_claims(G, ids=["indicator-coverage"])
        assert report.claim_id == "indicator-coverage"
        assert report.status == "verified"


# --- closures -------------------------------------------------------------------------


def test_fi_closure_of_generators(G2):
    a, b = G2.generator(0), G2.generator(1)
    assert fi_closure(G2, a).order == 16  # G(ind a) = G[p^2]
    assert fi_closure(G2, b).order == 64
    assert fi_closure(G2, G2.element((0, 8))).order == 2
    assert fi_closure(G2, G2.zero()).order == 1


def test_fi_closure_is_minimal(small24):
    lattice = enumerate_fi_subgroups(small24)
    for x in enumerate_elements(small24):
        H = fi_closure(small24, x)
        for node in lattice.nodes:
            if x in node:
                assert subgroup_leq(H, node)


# --- exports --------------------------------------------------------------------------


def test_hasse_json_schema(G2):
    lattice = enumerate_fi_subgroups(G2)
    data = json.loads(hasse_export(lattice, format="json"))
    assert len(data["nodes"]) == 9
    assert all({"id", "alpha", "sigmas", "order"} <= n.keys() for n in data["nodes"])
    assert sorted(map(tuple, data["edges"])) == sorted(lattice.hasse_edges)
    by_alpha = {tuple(n["alpha"]): n["order"] for n in data["nodes"]}
    assert by_alpha[(2, 4)] == 1 and by_alpha[(0, 0)] == 64 and by_alpha[(1, 2)] == 8


def test_hasse_dot_output(G2):
    dot = hasse_export(enumerate_fi_subgroups(G2), format="dot")
    assert dot.startswith("digraph fi_lattice {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -> ") == len(enumerate_fi_subgroups(G2).hasse_edges)
    assert 'label="G[p]' in dot


def test_hasse_unknown_format(G2):
    with pytest.raises(UnknownFormatError):
        hasse_export(enumerate_fi_subgroups(G2), format="yaml")


def test_fundamental_containment_report(G2):
    (report,) = run_claims(G2, ids=["fundamental-containment"])
    assert report.claim_id == "fundamental-containment"
    assert report.status == "verified"
