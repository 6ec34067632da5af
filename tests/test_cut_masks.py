"""The table cuts of ``verify`` read as one ``[indicator, element]`` mask.

``ClaimContext.cut_masks`` scans the heights once for every admissible
indicator (``indicators._cut_masks``), and ``indicator-antitone`` and
``indicator-coverage`` read containment, equality and orders off its rows.
Here, on every group of ``ring_family.FAMILY`` and of the benchmark's stream
pool: each row is the cut that ``indicator_subgroup`` builds for one
indicator, and ``_cut_order`` counts it; ``indicator-antitone`` keeps the
witnesses of the pair loop over those subgroups, in row-major order; neither
runner calls the one-indicator oracles any more; and the orbit sums of
``indicator-coverage``, held as member bitmasks, are still spanned as
subgroups when the orbits alone do not give every node.
"""
from __future__ import annotations

import importlib.util
import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pgroups.claims
from pgroups import enumerate_fi_subgroups, indicator_subgroup, make_group, run_claims
from pgroups import subgroup_leq
from pgroups.claims import ClaimContext
from pgroups.groups import _grid, _packing, _subgroup
from pgroups.indicators import _cut_order
from ring_family import FAMILY

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _pool():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [make_group(p, pairs) for p, pairs in module.query_group_pool()]


POOL = _pool()
GROUPS = list(dict.fromkeys(FAMILY + POOL))


def _ids(G):
    return f"{G.p}:" + ",".join(f"{n}x{m}" for n, m in G.components)


def test_the_groups_are_the_family_and_the_pool():
    assert len(POOL) == 53
    assert len(GROUPS) > len(FAMILY)


@pytest.mark.parametrize("G", GROUPS, ids=_ids)
def test_each_mask_row_is_the_cut_of_its_indicator(G):
    ctx = ClaimContext(G)
    masks = ctx.cut_masks
    assert masks.shape == (len(ctx.admissible), G.order) and masks.dtype == bool
    for sigma, row in zip(ctx.admissible, masks):
        assert np.array_equal(np.flatnonzero(row), indicator_subgroup(G, sigma).indices)
        assert np.count_nonzero(row) == _cut_order(G, sigma)
    assert list(ctx.cuts) == ctx.admissible
    assert all(H == indicator_subgroup(G, s) for s, H in ctx.cuts.items())


def _everywhere(inds):
    return np.ones((len(inds),) * 2, dtype=bool)


def test_antitone_witnesses_follow_the_pair_loop(monkeypatch):
    """With the precedes matrix all true, every ordered pair is tested, so
    the report lists the first five pairs (sigma, tau), in row-major order,
    whose cut of tau does not lie in the cut of sigma."""
    monkeypatch.setattr(pgroups.claims, "_precedes_matrix", _everywhere)
    refuted = 0
    for G in FAMILY[::3] + POOL[::4]:
        adm = ClaimContext(G).admissible
        cuts = [indicator_subgroup(G, s) for s in adm]
        expected = [
            {"sigma": list(adm[i].entries), "tau": list(adm[j].entries)}
            for i, j in itertools.permutations(range(len(adm)), 2)
            if not subgroup_leq(cuts[j], cuts[i])
        ][:5]
        (report,) = run_claims(G, ids=["indicator-antitone"])
        assert report.witnesses == expected
        refuted += bool(expected)
    assert refuted > 10


@pytest.mark.parametrize("G", FAMILY[::5] + POOL[::5], ids=_ids)
def test_mask_runners_call_no_one_indicator_oracle(G, monkeypatch):
    """``indicator-antitone`` and ``indicator-coverage`` read the cuts off
    the mask and realizability off the Ulm invariants: the subgroup and
    realizability of one indicator at a time are never asked for."""

    def refuse(*args, **kwargs):
        raise AssertionError("a mask runner called a one-indicator oracle")

    banned = [pgroups.indicators.indicator_subgroup, pgroups.indicators.is_realizable]
    for name, module in list(sys.modules.items()):
        if name == "pgroups" or name.startswith("pgroups."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in banned):
                    monkeypatch.setattr(module, attr, refuse)
    reports = run_claims(G, ids=["indicator-antitone", "indicator-coverage"])
    assert [r.status for r in reports] == ["verified", "verified"]


def _irreducible(G) -> set:
    """The block shifts of the join-irreducible nodes: one lower cover each."""
    lattice = enumerate_fi_subgroups(G)
    below = Counter(j for _, j in lattice.hasse_edges)
    return {lattice.shifts[j] for j, n in below.items() if n == 1}


NOT_CHAINS = [G for G in POOL if len(_irreducible(G)) < enumerate_fi_subgroups(G).node_count - 1]


def test_some_pool_lattices_are_not_chains():
    assert len(NOT_CHAINS) > 10


@pytest.mark.parametrize("G", NOT_CHAINS[::3], ids=_ids)
def test_coverage_sums_orbits_it_is_not_given(G):
    """Every node is the orbit of some element, so on the whole table the
    closure of ``indicator-coverage`` forms no sum.  Given only the orbits
    of 0 and of the elements whose orbit is a join-irreducible node, it must
    span every other node as a sum of those (Birkhoff): the same verdict,
    node count included."""
    ctx = ClaimContext(G)
    irreducible = _irreducible(G)
    moduli, strides = _packing(G)
    steps = ctx.orbit_steps
    keep = [
        x
        for x, row in enumerate(steps)
        if x == 0 or _subgroup(G, _grid(row, moduli, strides)).block_shifts in irreducible
    ]
    (full,) = pgroups.claims._run_indicator_coverage(ClaimContext(G))
    ctx.__dict__["orbit_steps"] = steps[keep]
    (found,) = pgroups.claims._run_indicator_coverage(ctx)
    nodes = enumerate_fi_subgroups(G).node_count
    assert found == full == ([], f"{len(ctx.admissible)} admissible indicators vs {nodes} nodes")
