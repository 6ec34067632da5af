"""The ideals of End(G) listed from their closed shift system, against the
census and brute force.

``endos._difference_solutions`` closes a difference-constraint system once
and lists its integer solutions.  Its clients and oracles here:

* the ideal system (``endos._ideal_system``), whose listing
  ``enumerate_ideals`` must equal the census ``endos._ideal_census`` shift
  for shift, member for member and in order on every ring of
  ``ring_family.FAMILY``;
* the fully invariant system ``lattice._fi_system``, whose solutions must be
  the nodes of ``enumerate_fi_subgroups`` on the family and the stream pool;
* small random systems, against the filter of every point of their box.

``ideal_generated`` closes its generators' least entry valuations in closed
form; it must equal the member set that their sandwich products span, on the
whole family, and build no ring while it runs.  ``dagger_subgroup`` tests full
invariance by the normal form (``canonical_fi_form``), which must accept
exactly the subgroups that the basis scan ``EndoRing.is_fully_invariant``
accepts.

``pgroups endo`` is served from the listing, so it must never call the census
or the daggers, and must print what the census-based table printed.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import itertools
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import numpy as np

from pgroups import (
    Endo,
    NotFullyInvariantError,
    block_subgroup,
    canonical_fi_form,
    dagger_ideal,
    dagger_subgroup,
    enumerate_elements,
    enumerate_fi_subgroups,
    enumerate_ideals,
    find_dagger_collision,
    ideal_generated,
    make_group,
    principal_ideal,
    run_claims,
    subgroup_generated,
    subgroup_sum,
)
from pgroups import endos, groups
from pgroups.cli import main
from pgroups.endos import (
    Ideal,
    _cached_ring,
    _difference_solutions,
    _ideal_census,
    _sandwich_products,
    ideal_shifts,
    pullback_size,
)
from pgroups.lattice import FILattice, _fi_system, _shift_name
from ring_family import FAMILY

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


W = _workloads()
POOL = [make_group(p, pairs) for p, pairs in W.query_group_pool()]


def _ids(G):
    return G.describe()


@pytest.mark.parametrize("G", FAMILY, ids=_ids)
def test_listing_is_the_census(G):
    listed, census = enumerate_ideals(G), _ideal_census(G)
    assert [I.shifts.tolist() for I in listed] == [I.shifts.tolist() for I in census]
    assert [I.indices.tolist() for I in listed] == [I.indices.tolist() for I in census]


@pytest.mark.parametrize("G", list(dict.fromkeys(FAMILY + POOL)), ids=_ids)
def test_fi_system_lists_the_lattice_nodes(G):
    solutions = {tuple(x) for x in _difference_solutions(*_fi_system(G)).tolist()}
    assert solutions == set(enumerate_fi_subgroups(G).shifts)


def test_solutions_are_the_filtered_box():
    rng = random.Random(20231103)
    for _ in range(300):
        n = rng.randint(1, 4)
        lo = [rng.randint(-2, 2) for _ in range(n)]
        hi = [a + rng.randint(-1, 3) for a in lo]
        rows = [
            (rng.randrange(n), rng.randrange(n), rng.randint(-2, 2))
            for _ in range(rng.randint(0, 5))
        ]
        box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        expected = [
            list(x) for x in box if all(x[b] - x[a] <= c for a, b, c in rows)
        ]
        got = _difference_solutions(lo, hi, rows)
        assert got.shape == (len(expected), n)
        assert got.tolist() == expected, (lo, hi, rows)


def test_the_listing_needs_no_ring_and_grows_with_the_ideals():
    # ring of 2^22 with 93 ideals, and four distinct exponents with 924,
    # far above the census's budget; multiplicities never change the count
    assert len(ideal_shifts(make_group(2, [(1, 1), (19, 1)]))) == 93
    assert len(ideal_shifts(make_group(2, [(1, 1), (2, 1), (3, 1), (4, 1)]))) == 924
    assert len(ideal_shifts(make_group(3, [(1, 3), (2, 3), (3, 3)]))) == 62


@pytest.mark.parametrize("G", FAMILY, ids=_ids)
def test_pullback_size_is_the_dagger(G):
    for alpha in enumerate_fi_subgroups(G).shifts:
        H = block_subgroup(G, alpha)
        assert pullback_size(G, alpha) == dagger_subgroup(G, H).size


def spanned_ideal(G, gens):
    """The oracle of ``ideal_generated``: the member set that the sandwich
    products of the generators span."""
    ring = _cached_ring(G)
    seeds = [np.zeros(1, dtype=np.int64)]
    seeds += [_sandwich_products(ring, np.array([f.matrix])).reshape(-1) for f in gens]
    return Ideal(G, ring.endo_span(np.concatenate(seeds)))


@pytest.mark.parametrize("G", FAMILY, ids=_ids)
def test_generated_ideal_is_the_spanned_member_set(G):
    ring = _cached_ring(G)
    mults = np.unique(ring.basis_multiples().reshape(-1, G.rank, G.rank), axis=0)
    singles = [[Endo(G, tuple(map(tuple, m)))] for m in mults.tolist()]
    rng = random.Random(f"{G.describe()}-pairs")
    pairs = [
        [ring.endo_of_index(rng.randrange(ring.size)) for _ in range(2)] for _ in range(8)
    ]
    for gens in [[]] + singles + pairs:
        got = ideal_generated(G, gens)
        assert got.shifts.tolist() == spanned_ideal(G, gens).shifts.tolist(), gens
        assert list(got.generators) == gens


def test_generation_and_the_pullback_build_no_ring(monkeypatch):
    G = make_group(2, [(2, 1), (4, 1)])
    f, g = endos.scalar_endo(G, 4), endos.make_endo(G, [[0, 0], [1, 2]])
    nodes = enumerate_fi_subgroups(G).nodes

    def answers():
        I = ideal_generated(G, [f, g])
        return [
            ideal_generated(G, []).shifts.tolist(),
            I.shifts.tolist(),
            I.to_json(),
            principal_ideal(G, g).shifts.tolist(),
            [J.shifts.tolist() for J in find_dagger_collision(G)],
            [dagger_subgroup(G, H).shifts.tolist() for H in nodes],
        ]

    expected = answers()

    def refuse(*args, **kwargs):
        raise AssertionError("a closed form reached the ring")

    for name in ("_cached_ring", "get_ring", "_sandwich_products"):
        monkeypatch.setattr(endos, name, refuse)
    assert answers() == expected


@pytest.mark.parametrize(
    "pairs",
    [[(1, 2)], [(1, 1), (2, 1)], [(1, 1), (3, 1)], [(2, 1), (4, 1)], [(1, 2), (2, 1)]],
    ids=str,
)
@pytest.mark.parametrize("p", [2, 3])
def test_the_normal_form_decides_full_invariance(p, pairs):
    G = make_group(p, pairs)
    ring = _cached_ring(G)
    cyclic = {subgroup_generated(G, [a]) for a in enumerate_elements(G)}
    subgroups = cyclic | {subgroup_sum(H, K) for H, K in itertools.combinations(cyclic, 2)}
    verdicts = set()
    for H in subgroups:
        try:
            canonical_fi_form(G, H)
            by_form = True
        except NotFullyInvariantError:
            by_form = False
        assert by_form == ring.is_fully_invariant(H), H.block_shifts
        verdicts.add(by_form)
    assert verdicts == {True, False}


def test_dagger_well_defined_catches_a_wrong_kernel_row(monkeypatch):
    G = make_group(2, [(2, 1), (4, 1)])
    real = endos._ideal_system
    lo, hi, rows = real(G)
    k = len(G.components)
    # w_11 <= w_01 + λ_10: loosened by one, it admits sets that are no ideal
    at = rows.index((0 * k + 1, 1 * k + 1, 0))

    def loosened(group):
        lo, hi, rows = real(group)
        a, b, c = rows[at]
        return lo, hi, rows[:at] + [(a, b, c + 1)] + rows[at + 1 :]

    monkeypatch.setattr(endos, "_ideal_system", loosened)
    assert len(ideal_shifts(G)) > len(_ideal_census(G)) == 32
    (report,) = run_claims(G, ids=["dagger-well-defined"])
    assert report.status == "refuted"
    assert report.witnesses[0] == {
        "failure": "listing",
        "listed": len(ideal_shifts(G)),
        "census": 32,
    }


def census_endo_table(G):
    """The ``endo`` table as it was computed from the census: the ideals
    grouped by their image subgroup, and each node's pullback."""
    ideals = _ideal_census(G)
    L = enumerate_fi_subgroups(G)
    by_image = Counter(dagger_ideal(G, I) for I in ideals)
    rows = [
        (_shift_name(G, a), H.order, by_image[H], dagger_subgroup(G, H).size)
        for a, H in zip(L.shifts, L.nodes)
    ]
    return len(ideals), rows


def endo_lines(group_json):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["endo", group_json]) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("G", FAMILY, ids=_ids)
def test_endo_prints_the_census_table(G):
    count, rows = census_endo_table(G)
    lines = endo_lines(W.group_json(G.p, G.components))
    assert lines[2] == f"two-sided ideals: {count}"
    printed = [line.split() for line in lines[6:]]
    assert [row[-3:] for row in printed] == [[str(x) for x in row[1:]] for row in rows]
    assert [" ".join(row[:-3]) for row in printed] == [row[0] for row in rows]


def test_endo_never_calls_the_census(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("endo reached the census, a dagger or the group table")

    banned = [getattr(endos, name) for name in (
        "_ideal_census", "_sum_closure", "_sandwich_products", "enumerate_ideals",
        "dagger_ideal", "dagger_subgroup",
    )] + [groups._table]
    for name, module in list(sys.modules.items()):
        if name == "pgroups" or name.startswith("pgroups."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in banned):
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(FILattice, "nodes", property(refuse))
    counts = []
    for G in FAMILY + POOL:
        lines = endo_lines(W.group_json(G.p, G.components))
        counts += [line for line in lines if line.startswith("two-sided ideals")]
    assert len(counts) == len(FAMILY) + sum(
        endos.ring_order(G) <= endos.DEFAULT_MAX_IDEAL_RING_ORDER for G in POOL
    )
