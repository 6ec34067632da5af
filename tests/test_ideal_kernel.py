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

from pgroups import (
    block_subgroup,
    dagger_ideal,
    dagger_subgroup,
    enumerate_fi_subgroups,
    enumerate_ideals,
    make_group,
    run_claims,
)
from pgroups import endos, groups
from pgroups.cli import main
from pgroups.endos import _difference_solutions, _ideal_census, ideal_shifts, pullback_size
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
