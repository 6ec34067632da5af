"""Fully invariant subgroups served as block shifts, against packed sets.

Every lattice node and every fundamental cell is a block sum
``p^a_1 B_1 (+) ... (+) p^a_k B_k``, so the lattice, the fundamental matrix and
the ``analyze``/``lattice``/``matrix`` commands work on shift vectors: a cut
is :func:`cut_shifts`, one block sum lies in another iff its shifts are
entrywise at least the other's, a sum is the entrywise min, a meet the max.
The oracles here are the cuts scanned off the height table, the order of the
nodes by their element lists, the packed ``subgroup_sum``, ``subgroup_meet``
and ``subgroup_leq`` on every pair, the O(n^3) transitive reduction of the
containment table, the chain and antichain statistics computed from it, the
valuations of a subgroup's members read off the group table, and the
``is_admissible`` filter of every candidate indicator, and the name search
that the per-group name table replaced.  They run over the
benchmark's stream pool, its nine ``verify`` groups and every group of
``ring_family.FAMILY``.
"""
from __future__ import annotations

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

import pgroups
from pgroups import ClaimContext, block_subgroup, build_matrix, cut_shifts
from pgroups import enumerate_admissible
from pgroups import enumerate_fi_subgroups, indicator_subgroup, indicator_universe
from pgroups import is_admissible, lattice_stats, make_group
from pgroups import subgroup_leq, subgroup_meet, subgroup_sum
from pgroups.cli import main
from pgroups.groups import Subgroup, _fundamental_shifts, _subgroup, _table
from pgroups.lattice import _power, _shift_name, _strictly_below
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


def _groups():
    pairs = list(W.query_group_pool()) + list(W.SMALL_RING_GROUPS)
    out = {make_group(p, pairs): None for p, pairs in pairs}
    out.update(dict.fromkeys(FAMILY))
    return list(out)


GROUPS = _groups()


def packed_leq(nodes) -> list[list[bool]]:
    return [[subgroup_leq(H, K) for K in nodes] for H in nodes]


def transitive_reduction(leq) -> list[tuple[int, int]]:
    n = len(leq)
    return sorted(
        (i, j)
        for i, j in itertools.permutations(range(n), 2)
        if leq[i][j]
        and not any(leq[i][k] and leq[k][j] for k in range(n) if k not in (i, j))
    )


def stats_from_table(L, leq) -> tuple[int, int]:
    """Longest chain by a DP over the covers, widest antichain as the nodes
    less a maximum matching over strict containments (Dilworth)."""
    n = L.node_count
    depth = [1] * n
    for i in sorted(range(n), key=lambda i: L.nodes[i].order, reverse=True):
        for a, j in L.hasse_edges:
            if a == i:
                depth[i] = max(depth[i], depth[j] + 1)
    match_right = [None] * n

    def try_assign(u, seen):
        for v in range(n):
            if leq[u][v] and u != v and not seen[v]:
                seen[v] = True
                if match_right[v] is None or try_assign(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    matched = sum(try_assign(u, [False] * n) for u in range(n))
    return max(depth), n - matched


def test_the_pool_is_the_one_described():
    assert len(GROUPS) == 66
    assert sum(enumerate_fi_subgroups(G).node_count for G in GROUPS) == 446


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_shift_order_matches_packed_containment(G):
    L = enumerate_fi_subgroups(G)
    leq = packed_leq(L.nodes)
    below = _strictly_below(L.shifts)
    n = L.node_count
    assert below.shape == (n, n)
    assert [[bool(below[i, j]) for j in range(n)] for i in range(n)] == [
        [leq[i][j] and i != j for j in range(n)] for i in range(n)
    ]
    assert list(L.hasse_edges) == transitive_reduction(leq)
    assert lattice_stats(L) == stats_from_table(L, leq)


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_block_subgroup_holds_the_table_reading(G):
    for alpha in itertools.product(*(range(n + 1) for n, _ in G.components)):
        H = block_subgroup(G, alpha)
        assert H.block_shifts == alpha
        assert _subgroup(G, H.indices).block_shifts == alpha


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_cut_shifts_are_the_table_cut(G):
    for sigma in enumerate_admissible(G):
        H = block_subgroup(G, cut_shifts(G, sigma))
        assert H == indicator_subgroup(G, sigma), sigma


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_node_order_is_the_order_by_elements(G):
    L = enumerate_fi_subgroups(G)
    assert list(L.nodes) == sorted(L.nodes, key=lambda H: (H.order, H.indices.tolist()))
    assert L.orders == [H.order for H in L.nodes]


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_shift_arithmetic_is_packed_arithmetic_on_cells(G):
    M = build_matrix(G)
    cells = {M.cell_shifts(i, j): M.entry(i, j) for i, j in M.cells()}
    for (a, H), (b, K) in itertools.combinations(cells.items(), 2):
        assert block_subgroup(G, tuple(map(min, a, b))) == subgroup_sum(H, K)
        assert block_subgroup(G, tuple(map(max, a, b))) == subgroup_meet(H, K)
        assert all(x >= y for x, y in zip(a, b)) == subgroup_leq(H, K)
        assert all(y >= x for x, y in zip(a, b)) == subgroup_leq(K, H)


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_a_cut_lies_in_a_cell_iff_its_shifts_dominate(G):
    M = build_matrix(G)
    for sigma, cut in ClaimContext(G).cuts.items():
        for i, j in M.cells():
            alpha = M.cell_shifts(i, j)
            inside = all(c >= a for c, a in zip(cut.block_shifts, alpha))
            assert inside == subgroup_leq(cut, M.entry(i, j)), (sigma, i, j)


@pytest.mark.parametrize(
    "G", [G for G in GROUPS if G.exponent <= 12], ids=lambda G: G.describe()
)
def test_admissible_indicators_are_generated_directly(G):
    candidates = indicator_universe(G.exponent)
    assert enumerate_admissible(G) == {s for s in candidates if is_admissible(G, s)}


def looped_shift_name(G, alpha):
    """The name search that ``lattice._shift_names`` replaced: every named
    form tried in preference order, for each name asked."""
    e = G.exponent
    exps = [n for n, _ in G.components]
    if all(a == ni for a, ni in zip(alpha, exps)):
        return "0"
    if all(a == 0 for a in alpha):
        return "G"
    tried = [(kappa, e) for kappa in range(1, e + 1)] + [(0, n) for n in range(1, e + 1)]
    tried += itertools.product(range(1, e + 1), repeat=2)
    for kappa, n in tried:
        if alpha == _fundamental_shifts(G, kappa, n):
            return f"{_power(kappa)}G" + ("" if n == e else f"[{_power(n)}]")
    blocks = enumerate(zip(alpha, exps), start=1)
    return " (+) ".join(f"{_power(a)}B{i}" for i, (a, ni) in blocks if a < ni)


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.describe())
def test_shift_name_table_matches_the_loop(G):
    # every block sum, fully invariant or not, so the fallback is covered too
    for alpha in itertools.product(*(range(n + 1) for n, _ in G.components)):
        assert _shift_name(G, alpha) == looped_shift_name(G, alpha), alpha


def test_shape_commands_read_no_element(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("elements of the group were read")

    for name, module in list(sys.modules.items()):
        if name.startswith("pgroups") and getattr(module, "_table", None) is _table:
            monkeypatch.setattr(module, "_table", refuse)
    monkeypatch.setattr(Subgroup, "_hold", refuse)
    assert pgroups.groups._table is refuse
    for p, pairs in W.query_group_pool():
        group = W.group_json(p, pairs)
        for argv in (
            ["analyze", group],
            ["lattice", group],
            ["lattice", group, "--format", "dot"],
            ["matrix", group],
            ["matrix", group, "--format", "json"],
        ):
            assert main(argv) == 0, argv
    capsys.readouterr()
