"""Ideals built from the ring's r^2 basis against the whole-ring sweeps they
replace.

``enumerate_ideals`` lists the ideals from their shift system, its oracle
``endos._ideal_census`` seeds with the multiples ``p^v b`` of the basis
matrices, and ``dagger_subgroup`` and ``special_ideals`` give block shift
matrices whose members are read off the basis one digit at a time
(``EndoRing.basis_grid``).  The
oracles here are the definitions over every member of End(G): one principal
ideal per member, the members whose rows lie in ``H``, and the members
scaled by or killed by ``p^n``.  They must agree on every ring within the
ideal budget for p in {2, 3, 5, 7}.

The dagger suite answers from the shift forms alone and builds no member
set.  The census, the row spans and the whole-ring filter are only the
oracles of ``dagger-well-defined``, a claim of its own, which must notice a
loosened pullback or pushforward law and a census set off its grid.
"""
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pgroups import dagger_subgroup, enumerate_fi_subgroups, enumerate_ideals
from pgroups import make_group, run_claims, special_ideals
from pgroups import claims, endos, groups
from pgroups.endos import get_ring
from pgroups.groups import _members, _packing
from ring_family import DAGGER_SUITE, FAMILY

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _verify_groups():
    """The nine groups of the benchmark's ``verify`` workload."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [make_group(p, pairs) for p, pairs in module.SMALL_RING_GROUPS]


def members(ring):
    return ring.decode(np.arange(ring.size))


def sweep_ideals(G):
    """The member sets of one principal ideal per distinct sandwich set of
    each member, then of the pairwise-sum fixpoint, sorted by size, then
    members."""
    ring = get_ring(G)
    products = (np.unique(endos._sandwich_products(ring, f[None])) for f in members(ring))
    seeds = {prods.tobytes(): prods for prods in products}
    spans = (ring.endo_span(s) for s in seeds.values())
    found = [S.tolist() for S in endos._sum_closure(ring, spans)]
    return sorted(found, key=lambda x: (len(x), x))


@pytest.mark.parametrize("G", FAMILY, ids=lambda G: G.describe())
def test_basis_ideals_match_the_whole_ring(G):
    assert [I.indices.tolist() for I in enumerate_ideals(G)] == sweep_ideals(G)
    ring = get_ring(G)
    mats = members(ring)
    rows = mats @ _packing(G)[1]
    for H in enumerate_fi_subgroups(G).nodes:
        inside = np.flatnonzero(_members(rows, H.indices).all(axis=1))
        assert np.array_equal(dagger_subgroup(G, H).indices, inside)
    for n in range(G.exponent + 2):
        scaled = mats * G.p**n % ring.moduli
        power, torsion = special_ideals(G, n)
        assert np.array_equal(power.indices, np.unique(ring.pack_endos(scaled)))
        killed = np.flatnonzero((scaled == 0).all(axis=(1, 2)))
        assert np.array_equal(torsion.indices, killed)


def test_census_spans_one_ideal_per_basis_multiple(monkeypatch):
    G = make_group(2, [(2, 1), (4, 1)])  # |End| = 1024
    real, calls = endos._sandwich_products, []

    def counting(ring, mats):
        calls.extend(mats)
        return real(ring, mats)

    monkeypatch.setattr(endos, "_sandwich_products", counting)
    endos._ideal_census(G)
    assert len(calls) <= 14  # the sweep over every member made 1024


def test_galois_suite_spans_only_its_oracle_rows(monkeypatch):
    G = make_group(2, [(2, 1), (4, 1)])
    nodes, ideals = enumerate_fi_subgroups(G).nodes, enumerate_ideals(G)
    census = endos._ideal_census(G)
    real, calls = groups._span, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (groups, endos, claims):
        monkeypatch.setattr(module, "_span", counting)
    assert len(run_claims(G, ids=DAGGER_SUITE)) == 12
    assert calls == []
    # the census is the oracle's own input, built above: count only the
    # spans of the checks against it
    monkeypatch.setattr(claims, "_ideal_census", lambda G, max_ideals=None: census)
    (report,) = run_claims(G, ids=["dagger-well-defined"])
    assert report.status == "verified"
    # at most one row span per ideal; the pair loops over packed sets made 1264
    assert len(calls) <= len(ideals) + len(nodes)


def test_galois_suite_builds_no_member_set(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dagger suite built a member set")

    banned = [groups.block_subgroup, groups._span, endos._ideal_census]
    for name, module in list(sys.modules.items()):
        if name == "pgroups" or name.startswith("pgroups."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in banned):
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(endos.Ideal, "indices", property(refuse))
    for G in _verify_groups():
        ids = [r.claim_id for r in run_claims(G, ids=DAGGER_SUITE)]
        assert len(ids) == 12 and "dagger-well-defined" not in ids, G.describe()


@pytest.mark.parametrize("law", ["_pushforward", "_pullback"])
def test_dagger_well_defined_catches_a_loosened_law(monkeypatch, law):
    G = make_group(2, [(2, 1), (4, 1)])
    real = getattr(endos, law)

    def loosened(*args):
        out = np.array(real(*args))
        first = (Ellipsis, 0) if law == "_pushforward" else (Ellipsis, 0, 0)
        out[first] = np.maximum(out[first] - 1, 0)  # the first shift of each
        return out

    monkeypatch.setattr(endos, law, loosened)
    (report,) = run_claims(G, ids=["dagger-well-defined"])
    assert report.status == "refuted"
    assert report.checked == "9 subgroups, 32 ideals"


def test_dagger_well_defined_catches_a_census_set_off_its_grid(monkeypatch):
    G = make_group(2, [(2, 1), (4, 1)])
    census = endos._ideal_census(G)
    top = census[-1]
    census[-1] = endos.Ideal(G, top.indices[:-1])  # End(G) less one member
    assert census[-1] == top  # same shifts, so only the member sets differ
    monkeypatch.setattr(claims, "_ideal_census", lambda G, max_ideals=None: census)
    (report,) = run_claims(G, ids=["dagger-well-defined"])
    assert report.witnesses[0] == {"ideal_size": top.size, "failure": "not a grid"}


def test_dagger_well_defined_names_each_nodes_failures_in_order(monkeypatch):
    G = make_group(2, [(1, 1), (2, 1)])
    nodes = enumerate_fi_subgroups(G).nodes
    assert [H.order for H in nodes] == [1, 2, 4, 8]
    # shift matrices that are no ideal's: the first fails the products on
    # both sides, the second only those with the basis on the left
    forged = {nodes[0]: [[0, 2], [1, 0]], nodes[3]: [[0, 1], [1, 2]]}
    real = claims.dagger_subgroup

    def forging(G, H):
        return endos._ideal(G, forged[H]) if H in forged else real(G, H)

    monkeypatch.setattr(claims, "dagger_subgroup", forging)
    (report,) = run_claims(G, ids=["dagger-well-defined"])
    assert report.status == "refuted"
    assert report.witnesses == [
        {"subgroup_order": 1, "failure": "pullback"},
        {"subgroup_order": 1, "failure": "right-mult"},
        {"subgroup_order": 1, "failure": "left-mult"},
        {"subgroup_order": 8, "failure": "pullback"},
        {"subgroup_order": 8, "failure": "left-mult"},
    ]


def test_dagger_well_defined_and_rank_bound_their_tables():
    """With the ideal budget raised to a ring of 2**15 endomorphisms, the
    node checks hold tables of nodes by endomorphisms, never of nodes by
    endomorphisms by coordinates, and the census sorts its ideals without a
    list of each one's members."""
    G = make_group(2, [(1, 1), (2, 1), (4, 1)])
    tracemalloc.start()
    try:
        reports = run_claims(
            G, ids=["dagger-well-defined", "rank-subadditivity"], max_ideals=2**15
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2**20
    assert [(r.status, r.checked) for r in reports] == [
        ("verified", "12 subgroups, 115 ideals"),
        ("verified", "stride-256 sample: 128 endomorphisms pairwise"),
    ]


def test_census_ideals_read_their_shifts_block_by_block():
    """``Ideal(group, indices)`` reduces the gcd of its members' entries over
    blocks of ``endos._DECODE_ROWS`` members, so the census of a ring of
    2**15 endomorphisms never decodes the whole ring at once: measured 7.29 MB
    peak, against 7.96 MB when every member was decoded in one array."""
    G = make_group(2, [(1, 1), (2, 1), (4, 1)])
    tracemalloc.start()
    try:
        (report,) = run_claims(G, ids=["dagger-well-defined"], max_ideals=2**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.6 * 2**20
    assert (report.status, report.checked) == ("verified", "12 subgroups, 115 ideals")
    ring = get_ring(G)
    members = np.arange(0, ring.size, 3)  # a member set over several blocks
    assert members.size > endos._DECODE_ROWS
    expected = endos._entry_shifts(G, ring.decode(members))
    assert np.array_equal(endos.Ideal(G, members).shifts, expected)
