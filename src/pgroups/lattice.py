"""The lattice of fully invariant subgroups.

A subgroup is fully invariant when every endomorphism maps it into itself.
For a bounded p-group each such subgroup decomposes across the homocyclic
blocks as

    p^a1 B_1  (+)  p^a2 B_2  (+)  ...  (+)  p^ak B_k

where the shifts satisfy ``a_i <= a_j <= a_i + (n_j - n_i)`` for ``i < j``
(shifts may not decrease, and may not grow faster than the block exponents).
That normal form is what :func:`canonical_fi_form` recovers and validates.

Enumeration reads the lattice off the group's shape: every fully invariant
subgroup is the cut ``G(sigma)`` of an admissible indicator (Kaplansky), whose
block shifts are :func:`pgroups.indicators.cut_shifts`.  So a node is its shift
vector: one node lies in another iff its shifts are entrywise at least the
other's, and the covers are the strict containments with no node strictly
between.  The ``indicator-coverage`` claim (:mod:`pgroups.claims`) checks
the nodes against the cuts scanned off the height table and against an
independent oracle: the smallest fully invariant subgroup containing a single
element is its orbit under the full endomorphism ring, read off the exponents
with no ring (:func:`pgroups.groups._orbit_steps`, also :func:`fi_closure`);
arbitrary ones are sums of those, and closing the orbits under sums
(:func:`pgroups.groups._join_closure`) finds every node.  The module builds
on :mod:`pgroups.groups` and :mod:`pgroups.indicators` only.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, NotFullyInvariantError, UnknownFormatError
from .groups import Element, GroupSpec, Subgroup, _is_int, block_subgroup
from .groups import _block_order, _fundamental_shifts, _grid, _orbit_steps, _packing
from .groups import _subgroup, _within
from .indicators import Indicator, _admissible, cut_shifts


def _fi_system(G: GroupSpec) -> tuple:
    """``(lo, hi, rows)`` of the fully invariant block shifts, row ``(a, b, c)``
    being ``a_b - a_a <= c`` (:func:`pgroups.endos._difference_solutions`):
    ``0 <= a_i <= n_i`` and ``a_i <= a_(i+1) <= a_i + n_(i+1) - n_i``."""
    exps = [n for n, _ in G.components]
    rows = [(i + 1, i, 0) for i in range(len(exps) - 1)]
    rows += [(i, i + 1, m - n) for i, (n, m) in enumerate(zip(exps, exps[1:]))]
    return [0] * len(exps), exps, rows


def is_valid_fi_form(G: GroupSpec, alpha: tuple[int, ...]) -> bool:
    """Do these block shifts define a fully invariant subgroup, i.e. solve
    :func:`_fi_system`?"""
    return _solves(_fi_system(G), alpha)


def _solves(system: tuple, alpha: tuple[int, ...]) -> bool:
    """Do the shifts ``alpha`` solve ``system`` (:func:`_fi_system`)?"""
    lo, hi, rows = system
    return (
        len(alpha) == len(lo)
        and all(a <= x <= b for a, x, b in zip(lo, alpha, hi))
        and all(alpha[b] - alpha[a] <= c for a, b, c in rows)
    )


def canonical_fi_form(G: GroupSpec, H: Subgroup) -> tuple[int, ...]:
    """The block-shift normal form of a fully invariant subgroup.

    Raises :class:`NotFullyInvariantError` when ``H`` is not fully invariant
    (either it is not a plain block sum, or its shifts break the chain
    conditions).
    """
    if H.group != G:
        raise InvalidInputError("subgroup belongs to a different group")
    alpha = H.block_shifts
    # H lies in the block sum of its shifts, each the least valuation in its
    # block, so the two are equal exactly when their orders are
    if _block_order(G, alpha) != H.order:
        raise NotFullyInvariantError(
            f"subgroup of order {H.order} is not a sum of shifted blocks"
        )
    if not is_valid_fi_form(G, alpha):
        raise NotFullyInvariantError(
            f"block shifts {alpha} violate the chain conditions"
        )
    return alpha


def subgroup_name(G: GroupSpec, H: Subgroup) -> str:
    """Stable display name of a fully invariant subgroup (:func:`_shift_name`)."""
    try:
        return _shift_name(G, canonical_fi_form(G, H))
    except NotFullyInvariantError:
        return f"subgroup of order {H.order}"


def _power(k: int) -> str:
    """``p^k`` as names print it: empty for ``k = 0``, ``p`` for ``k = 1``."""
    return "" if k == 0 else ("p" if k == 1 else f"p^{k}")


def _shift_name(G: GroupSpec, alpha: tuple[int, ...]) -> str:
    """Name of the block sum with shifts ``alpha``: 0, G, p^k G, G[p^n],
    p^k G[p^n] (:func:`_shift_names`), or else an explicit block
    decomposition for fully invariant subgroups that are none of those."""
    name = _shift_names(G).get(tuple(alpha))
    if name is not None:
        return name
    blocks = enumerate(zip(alpha, (n for n, _ in G.components)), start=1)
    return " (+) ".join(f"{_power(a)}B{i}" for i, (a, ni) in blocks if a < ni)


@lru_cache(maxsize=64)
def _shift_names(G: GroupSpec) -> dict[tuple[int, ...], str]:
    """``{shifts: name}`` for the named block sums of ``G``, built once per
    group.  Where several names fit, the first in preference order is kept,
    which keeps names minimal: the whole group and zero first, then pure
    powers, then pure torsion layers, then two-parameter forms."""
    e = G.exponent
    exps = tuple(n for n, _ in G.components)
    names = {exps: "0", (0,) * len(exps): "G"}
    tried = [(kappa, e) for kappa in range(1, e + 1)] + [(0, n) for n in range(1, e + 1)]
    tried += itertools.product(range(1, e + 1), repeat=2)
    kappas, ns = np.array(tried).T
    for (kappa, n), alpha in zip(tried, _fundamental_shifts(G, kappas[:, None], ns[:, None])):
        name = f"{_power(kappa)}G" + ("" if n == e else f"[{_power(n)}]")
        names.setdefault(tuple(alpha.tolist()), name)
    return names


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
    return _subgroup(G, _grid(_orbit_steps(G, a.coords), *_packing(G)))


@dataclass(frozen=True)
class FILattice:
    """All fully invariant subgroups plus their covering relation.

    ``shifts[i]`` are node i's block shifts, sorted by (order, reversed
    shifts), which is (order, element list); ``nodes`` builds the subgroups
    on each access and keeps none, so a lattice holds no member set.
    ``hasse_edges`` hold sorted index pairs ``(i, j)`` meaning node
    i is covered by node j (transitive reduction of containment);
    ``sigma_labels[i]`` lists every admissible indicator that cuts out node i,
    sorted by (length, entries).  Each node's shifts must be a tuple of ints
    in fully invariant form (:func:`is_valid_fi_form`), or construction raises
    :class:`InvalidInputError`.
    """

    group: GroupSpec
    shifts: tuple[tuple[int, ...], ...]
    hasse_edges: tuple[tuple[int, int], ...]
    sigma_labels: tuple[tuple[Indicator, ...], ...]

    def __post_init__(self):
        k = len(self.group.components)
        system = _fi_system(self.group)
        for i, alpha in enumerate(self.shifts):
            if not (
                isinstance(alpha, tuple) and all(map(_is_int, alpha)) and _solves(system, alpha)
            ):
                raise InvalidInputError(
                    f"lattice node {i} is not the block shifts of a fully"
                    f" invariant subgroup: expected a tuple of {k} ints"
                    " in fully invariant form"
                )

    @property
    def node_count(self) -> int:
        return len(self.shifts)

    @property
    def orders(self) -> list[int]:
        return [_block_order(self.group, a) for a in self.shifts]

    @property
    def nodes(self) -> tuple[Subgroup, ...]:
        return tuple(block_subgroup(self.group, a) for a in self.shifts)

    def names(self) -> list[str]:
        return [_shift_name(self.group, a) for a in self.shifts]


def _strictly_below(shifts) -> np.ndarray:
    """``[i, j]``: block sum ``i`` lies in block sum ``j != i``, i.e. its
    shifts are entrywise at least j's."""
    alpha = np.array(shifts).reshape(len(shifts), -1)
    return _within(alpha, alpha) & ~np.eye(len(alpha), dtype=bool)


@lru_cache(maxsize=32)
def enumerate_fi_subgroups(G: GroupSpec) -> FILattice:
    """The distinct cuts ``G(sigma)`` of the admissible indicators, as block
    shifts, each labelled by the indicators that cut it out, then covers: the
    strict containments with no node strictly between.  No subgroup is built,
    so the lattice is kept per group: its size follows the exponents, not
    |G|."""
    by_cut: dict[tuple[int, ...], list[Indicator]] = {}
    for sigma in _admissible(G):
        by_cut.setdefault(cut_shifts(G, sigma), []).append(sigma)
    shifts = sorted(by_cut, key=lambda a: (_block_order(G, a), a[::-1]))
    strict = _strictly_below(shifts).astype(np.int64)
    covers = (strict > 0) & (strict @ strict == 0)
    return FILattice(
        group=G,
        shifts=tuple(shifts),
        hasse_edges=tuple(map(tuple, np.argwhere(covers).tolist())),
        sigma_labels=tuple(tuple(by_cut[a]) for a in shifts),
    )


def lattice_stats(L: FILattice) -> tuple[int, int]:
    """(nodes on a longest chain, size of a widest antichain).

    The chain length is a DP over the cover DAG; the antichain width comes
    from the chain-decomposition duality (minimum chain cover via bipartite
    matching over strict containments).
    """
    n = L.node_count
    depth = [1] * n
    # the covers are sorted and each goes up in order, to a higher index
    for i, j in reversed(L.hasse_edges):
        depth[i] = max(depth[i], depth[j] + 1)
    longest = max(depth) if n else 0

    above = [np.flatnonzero(row).tolist() for row in _strictly_below(L.shifts)]
    match_right: list[int | None] = [None] * n

    def try_assign(u: int, seen: list[bool]) -> bool:
        for v in above[u]:
            if not seen[v]:
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
    orders = L.orders
    if format == "json":
        nodes = []
        for i, alpha in enumerate(L.shifts):
            nodes.append(
                {
                    "id": i,
                    "alpha": list(alpha),
                    "sigmas": [list(s.entries) for s in L.sigma_labels[i]],
                    "order": orders[i],
                }
            )
        payload = {
            "nodes": nodes,
            "edges": [list(e) for e in L.hasse_edges],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if format == "dot":
        lines = ["digraph fi_lattice {", "  rankdir=BT;"]
        for i, name in enumerate(L.names()):
            sigmas = ", ".join(str(s) for s in L.sigma_labels[i])
            label = f"{name}\\n|H| = {orders[i]}\\n{sigmas}"
            lines.append(f'  n{i} [label="{label}"];')
        for i, j in L.hasse_edges:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)
    raise UnknownFormatError(f"unknown export format {format!r}")
