"""The lattice of fully invariant subgroups.

A subgroup is fully invariant when every endomorphism maps it into itself.
For a bounded p-group each such subgroup decomposes across the homocyclic
blocks as

    p^a1 B_1  (+)  p^a2 B_2  (+)  ...  (+)  p^ak B_k

where the shifts satisfy ``a_i <= a_j <= a_i + (n_j - n_i)`` for ``i < j``
(shifts may not decrease, and may not grow faster than the block exponents).
That normal form is what :func:`canonical_fi_form` recovers and validates.

Enumeration works from the other end: the smallest fully invariant subgroup
containing a single element is its orbit under the full endomorphism ring
(already a subgroup), and arbitrary ones are sums of those, so a pairwise-sum
fixpoint over single-element closures finds every node.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .endos import _cached_ring
from .errors import (
    CanonicalFormMismatchError,
    InvalidInputError,
    NotFullyInvariantError,
    UnknownFormatError,
)
from .groups import Element, GroupSpec, Subgroup, block_subgroup, subgroup_leq
from .groups import _grid, _join, _join_closure, _subgroup, _table
from .indicators import Indicator, enumerate_admissible, indicator_subgroup
from .reports import ClaimReport


def is_valid_fi_form(G: GroupSpec, alpha: tuple[int, ...]) -> bool:
    """Do these block shifts define a fully invariant subgroup?

    Requires 0 <= a_i <= n_i per block, shifts non-decreasing, and the gap
    between consecutive shifts no larger than the gap between exponents.
    """
    if len(alpha) != len(G.components):
        return False
    exps = [n for n, _ in G.components]
    for a, n in zip(alpha, exps):
        if not 0 <= a <= n:
            return False
    for i in range(len(alpha) - 1):
        lo, hi = alpha[i], alpha[i + 1]
        if hi < lo or hi > lo + (exps[i + 1] - exps[i]):
            return False
    return True


def _block_shifts_of(G: GroupSpec, H: Subgroup) -> tuple[int, ...]:
    """Least p-valuation seen in each homocyclic block (n_i if block unused)."""
    # zero coordinates count as their exponent, so an unused block gives n_i
    lowest = _table(G).valuations[H.indices].min(axis=0)
    starts = np.cumsum([0] + [m for _, m in G.components[:-1]])
    return tuple(int(v) for v in np.minimum.reduceat(lowest, starts))


def canonical_fi_form(G: GroupSpec, H: Subgroup) -> tuple[int, ...]:
    """The block-shift normal form of a fully invariant subgroup.

    Raises :class:`NotFullyInvariantError` when ``H`` is not fully invariant
    (either it is not a plain block sum, or its shifts break the chain
    conditions).  If ``H`` arrived with a stored form that disagrees with the
    recomputed one, that is data corruption: :class:`CanonicalFormMismatchError`.
    """
    if H.group != G:
        raise InvalidInputError("subgroup belongs to a different group")
    alpha = _block_shifts_of(G, H)
    if block_subgroup(G, alpha) != H:
        raise NotFullyInvariantError(
            f"subgroup of order {H.order} is not a sum of shifted blocks"
        )
    if not is_valid_fi_form(G, alpha):
        raise NotFullyInvariantError(
            f"block shifts {alpha} violate the chain conditions"
        )
    if H.fi_form is not None and tuple(H.fi_form) != alpha:
        raise CanonicalFormMismatchError(
            f"stored form {H.fi_form} != recomputed {alpha}"
        )
    return alpha


def subgroup_name(G: GroupSpec, H: Subgroup) -> str:
    """Stable display name: 0, G, p^k G, G[p^n], p^k G[p^n], or a block sum.

    Preference order keeps names minimal: the whole group and zero first,
    then pure powers, then pure torsion layers, then two-parameter forms,
    and finally an explicit block decomposition for fully invariant
    subgroups that are none of the above.
    """
    try:
        alpha = canonical_fi_form(G, H)
    except NotFullyInvariantError:
        return f"subgroup of order {H.order}"
    e = G.exponent
    exps = [n for n, _ in G.components]

    def form(kappa: int, n: int) -> tuple[int, ...]:
        return tuple(min(max(kappa, ni - n), ni) for ni in exps)

    if all(a == ni for a, ni in zip(alpha, exps)):
        return "0"
    if all(a == 0 for a in alpha):
        return "G"
    for kappa in range(1, e + 1):
        if alpha == form(kappa, e):
            return f"p^{kappa}G" if kappa > 1 else "pG"
    for n in range(1, e + 1):
        if alpha == form(0, n):
            return f"G[p^{n}]" if n > 1 else "G[p]"
    for kappa in range(1, e + 1):
        for n in range(1, e + 1):
            if alpha == form(kappa, n):
                k_str = f"p^{kappa}G" if kappa > 1 else "pG"
                n_str = f"[p^{n}]" if n > 1 else "[p]"
                return k_str + n_str
    parts = []
    for i, (a, ni) in enumerate(zip(alpha, exps), start=1):
        if a == ni:
            continue  # this block contributes nothing
        if a == 0:
            parts.append(f"B{i}")
        elif a == 1:
            parts.append(f"pB{i}")
        else:
            parts.append(f"p^{a}B{i}")
    return " (+) ".join(parts)


def fi_closure(G: GroupSpec, a: Element) -> Subgroup:
    """Smallest fully invariant subgroup containing ``a``: its orbit under
    every endomorphism (the orbit is additively closed, so no extra sweep).

    >>> from .groups import make_group
    >>> G = make_group(2, [(2, 1), (4, 1)])
    >>> fi_closure(G, G.element([0, 8])).order    # orbit of p^3 b
    2
    """
    if a.group != G:
        raise InvalidInputError("element belongs to a different group")
    ring = _cached_ring(G)
    return _subgroup(G, ring.orbit_indices(ring.element_index(a)))


@dataclass(frozen=True)
class FILattice:
    """All fully invariant subgroups plus their covering relation.

    ``nodes`` are sorted by (order, element list); ``hasse_edges`` hold index
    pairs ``(i, j)`` meaning node i is covered by node j (transitive
    reduction of containment); ``sigma_labels[i]`` lists every admissible
    indicator that cuts out node i, sorted by (length, entries).
    """

    group: GroupSpec
    nodes: tuple[Subgroup, ...]
    hasse_edges: tuple[tuple[int, int], ...]
    sigma_labels: tuple[tuple[Indicator, ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def index_of(self, H: Subgroup) -> int:
        for i, node in enumerate(self.nodes):
            if node == H:
                return i
        raise InvalidInputError("subgroup is not a lattice node")

    def names(self) -> list[str]:
        return [subgroup_name(self.group, H) for H in self.nodes]


def enumerate_fi_subgroups(G: GroupSpec) -> FILattice:
    """Single-element orbits (each distinct one built once, from its steps; no
    ring budget applies), then a pairwise-sum fixpoint, then covers."""
    steps = np.unique(_cached_ring(G).orbit_steps(slice(None)), axis=0)
    found = _join_closure((_subgroup(G, _grid(G, s)) for s in steps), _join)
    subs = sorted(found, key=lambda H: (H.order, H.indices.tolist()))
    # containment matrix -> transitive reduction (distinct nodes, so <= with
    # i != j is already strict)
    n = len(subs)
    leq = [[subgroup_leq(subs[i], subs[j]) for j in range(n)] for i in range(n)]
    edges = []
    for i, j in itertools.permutations(range(n), 2):
        if not leq[i][j]:
            continue
        between = any(
            leq[i][k] and leq[k][j] for k in range(n) if k != i and k != j
        )
        if not between:
            edges.append((i, j))
    node_of = {H: i for i, H in enumerate(subs)}
    by_node: dict[int, list[Indicator]] = {}
    for sigma in enumerate_admissible(G):
        i = node_of.get(indicator_subgroup(G, sigma))
        if i is not None:
            by_node.setdefault(i, []).append(sigma)
    labels = tuple(
        tuple(sorted(by_node.get(i, []), key=lambda s: (s.length, s.entries)))
        for i in range(n)
    )
    return FILattice(
        group=G,
        nodes=tuple(subs),
        hasse_edges=tuple(sorted(edges)),
        sigma_labels=labels,
    )


def lattice_stats(L: FILattice) -> tuple[int, int]:
    """(nodes on a longest chain, size of a widest antichain).

    The chain length is a DP over the cover DAG; the antichain width comes
    from the chain-decomposition duality (minimum chain cover via bipartite
    matching over strict containments).
    """
    n = L.node_count
    children = [[] for _ in range(n)]
    for i, j in L.hasse_edges:
        children[i].append(j)
    depth = [1] * n
    for i in sorted(range(n), key=lambda i: L.nodes[i].order, reverse=True):
        for j in children[i]:
            depth[i] = max(depth[i], depth[j] + 1)
    longest = max(depth) if n else 0

    strict = [
        [subgroup_leq(L.nodes[i], L.nodes[j]) and i != j for j in range(n)]
        for i in range(n)
    ]
    # filter out equalities (distinct nodes are never equal, so i != j suffices)
    match_right: list[int | None] = [None] * n

    def try_assign(u: int, seen: list[bool]) -> bool:
        for v in range(n):
            if strict[u][v] and not seen[v]:
                seen[v] = True
                if match_right[v] is None or try_assign(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    matched = 0
    for u in range(n):
        if try_assign(u, [False] * n):
            matched += 1
    widest = n - matched
    return longest, widest


def hasse_export(L: FILattice, format: str = "json") -> str:
    """Serialize the lattice for external tools (``json`` or ``dot``).

    JSON nodes carry the block-shift form (``alpha``), every indicator that
    cuts the node out (``sigmas``), and the order; edges are covering pairs.
    """
    names = L.names()
    if format == "json":
        nodes = []
        for i, H in enumerate(L.nodes):
            nodes.append(
                {
                    "id": i,
                    "alpha": list(canonical_fi_form(L.group, H)),
                    "sigmas": [list(s.entries) for s in L.sigma_labels[i]],
                    "order": H.order,
                }
            )
        payload = {
            "nodes": nodes,
            "edges": [list(e) for e in L.hasse_edges],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if format == "dot":
        lines = ["digraph fi_lattice {", "  rankdir=BT;"]
        for i, H in enumerate(L.nodes):
            sigmas = ", ".join(str(s) for s in L.sigma_labels[i])
            label = f"{names[i]}\\n|H| = {H.order}\\n{sigmas}"
            lines.append(f'  n{i} [label="{label}"];')
        for i, j in L.hasse_edges:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)
    raise UnknownFormatError(f"unknown export format {format!r}")


def verify_indicator_coverage(G: GroupSpec, lattice: FILattice | None = None) -> ClaimReport:
    """Every fully invariant subgroup is cut out by an admissible indicator,
    and distinct admissible indicators cut out distinct subgroups exactly
    when the indicator is realizable."""
    from .indicators import is_realizable

    if lattice is None:
        lattice = enumerate_fi_subgroups(G)
    by_sigma = {s: indicator_subgroup(G, s) for s in enumerate_admissible(G)}
    node_set = set(lattice.nodes)
    cut_out = set(by_sigma.values())
    witnesses = []
    for H in node_set - cut_out:
        witnesses.append({"missing_subgroup_order": H.order})
    for H in cut_out - node_set:
        witnesses.append({"extra_subgroup_order": H.order})
    realizable = {s for s in by_sigma if is_realizable(G, s)}
    distinct = len({by_sigma[s] for s in realizable})
    if distinct != len(realizable):
        witnesses.append(
            {"realizable": len(realizable), "distinct_subgroups": distinct}
        )
    return ClaimReport(
        claim_id="indicator-coverage",
        status="refuted" if witnesses else "verified",
        group=G.describe(),
        witnesses=witnesses[:5],
        checked=f"{len(by_sigma)} admissible indicators vs {len(node_set)} nodes",
    )


def check_fundamental_containment(G: GroupSpec) -> ClaimReport:
    """Each indicator-cut subgroup sits inside the fundamental subgroup named
    by its first entry and its length."""
    from .groups import fundamental_subgroup

    witnesses = []
    count = 0
    for sigma in enumerate_admissible(G):
        if not sigma.entries:
            continue
        count += 1
        cut = indicator_subgroup(G, sigma)
        outer = fundamental_subgroup(G, sigma.entries[0], len(sigma.entries))
        if not subgroup_leq(cut, outer):
            witnesses.append({"indicator": str(sigma)})
    return ClaimReport(
        claim_id="fundamental-containment",
        status="refuted" if witnesses else "verified",
        group=G.describe(),
        witnesses=witnesses,
        checked=f"{count} nonempty admissible indicators",
    )
