"""The fully invariant lattice ordered by block shifts, against packed sets.

Every lattice node is a block sum ``p^a_1 B_1 (+) ... (+) p^a_k B_k``, so the
lattice reads its containment off the node shifts (one block sum lies in
another iff its shifts are entrywise at least the other's) and its covers off
that matrix.  The oracles here are the packed ``subgroup_leq`` on every pair
of nodes, the O(n^3) transitive reduction of that table, the chain and
antichain statistics computed from it, and the valuations of a subgroup's
members read off the group table.  They run over the benchmark's stream pool,
its nine ``verify`` groups and every group of ``ring_family.FAMILY``.
"""
from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import pytest

from pgroups import block_subgroup, enumerate_fi_subgroups, lattice_stats, make_group
from pgroups import subgroup_leq
from pgroups.groups import _subgroup
from pgroups.lattice import _strictly_below
from ring_family import FAMILY

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _groups():
    W = _workloads()
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
    below = _strictly_below(L.nodes)
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
