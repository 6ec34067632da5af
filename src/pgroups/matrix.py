"""The grid of fundamental subgroups ``p^j G [p^i]`` and rising paths over it.

Rows are indexed by the bound ``i`` (1 at the bottom up to exp(G)), columns
by the height shift ``j`` (0 through exp(G)-1), so the cell at ``(i, j)``
holds the subgroup of elements of height at least ``j`` killed by ``p^i``.
Entries weakly shrink left-to-right and weakly grow bottom-to-top.

Two distinguished column sets are tracked:

* ``display_cols`` — the first k columns (one per homocyclic component),
  the classical compact rendering of the grid;
* ``marker_cols`` — the socle heights ``n_i - 1``, the columns where new
  height values actually appear.  The alias operation resolves a non-marker
  column to the next marker column holding the same subgroup, when one
  exists.

Every cell is a block sum, held by its block shifts, and the checks read
them: one cell lies in another iff its shifts are entrywise at least the
other's, a sum is the entrywise min, a meet the max.  ``FundMatrix.entry``
builds a cell's subgroup for callers that need elements; the checks against
indicator cuts use the cuts scanned off the height table.

A rising path climbs one row per step with strictly increasing columns; its
column sequence is an indicator, and the path is admissible under exactly
the indicator gap condition.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InvalidInputError,
    NoAliasError,
    NotAdmissibleError,
)
from .groups import GroupSpec, Subgroup, block_subgroup, subgroup_leq
from .groups import _block_leq, _block_order, _fundamental_shifts, _packing, _within
from .indicators import Indicator, enumerate_admissible, is_admissible
from .reports import ClaimReport, _verdict


@dataclass(frozen=True, eq=False)
class FundMatrix:
    """The full e x e grid of fundamental subgroups of one group, held by the
    block shifts of its cells (read-only, shape ``(e, e, k)``)."""

    group: GroupSpec
    shifts: np.ndarray  # shifts[i-1, j] = block shifts of cell (i, j)
    display_cols: tuple[int, ...]
    marker_cols: tuple[int, ...]

    @property
    def exponent(self) -> int:
        return self.group.exponent

    def cell_shifts(self, i: int, j: int) -> tuple[int, ...]:
        """Cell ``(i, j)``'s shifts: row ``i`` in ``[1, e]``, column ``j`` in ``[0, e-1]``."""
        e = self.exponent
        if not (1 <= i <= e and 0 <= j < e):
            raise IndexOutOfRangeError(f"cell ({i},{j}) outside [1,{e}] x [0,{e - 1}]")
        return tuple(self.shifts[i - 1, j].tolist())

    def entry(self, i: int, j: int) -> Subgroup:
        """Cell ``(i, j)`` as a block subgroup."""
        return block_subgroup(self.group, self.cell_shifts(i, j))

    def cells(self) -> list[tuple[int, int]]:
        """All (row, column) index pairs, row-major from the bottom row."""
        e = self.exponent
        return [(i, j) for i in range(1, e + 1) for j in range(e)]


@lru_cache(maxsize=32)
def build_matrix(G: GroupSpec) -> FundMatrix:
    """The grid's block shifts, read off the shape: no subgroup is built, so
    the grid is kept per group.

    >>> from .groups import make_group
    >>> M = build_matrix(make_group(2, [(2, 1), (4, 1)]))
    >>> M.cell_shifts(3, 0)      # elements killed by p^3
    (0, 1)
    """
    e = G.exponent
    shifts = np.array(
        [[_fundamental_shifts(G, j, i) for j in range(e)] for i in range(1, e + 1)],
        dtype=np.int64,
    )
    shifts.setflags(write=False)
    display = tuple(range(len(G.components)))
    markers = tuple(n - 1 for n, _ in G.components)
    return FundMatrix(group=G, shifts=shifts, display_cols=display, marker_cols=markers)


def _formula_cells(a, b):
    """The cells that the meet and join formulas give for cells ``a`` and
    ``b``: ``(min rows, max cols)`` and ``(max rows, min cols)``.  A cell's
    row and column may be arrays, one entry per pair of cells."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return (lo[0], hi[1]), (hi[0], lo[1])


def entry_meet(M: FundMatrix, cell_a: tuple[int, int], cell_b: tuple[int, int]):
    """Index-formula meet: cell ``(min rows, max cols)``.

    Returns ``((i, j), subgroup)``.  This formula is exact: intersecting the
    two membership conditions conjoins them.
    """
    target = tuple(map(int, _formula_cells(cell_a, cell_b)[0]))
    return target, M.entry(*target)


def entry_join(M: FundMatrix, cell_a: tuple[int, int], cell_b: tuple[int, int]):
    """Index-formula join candidate: cell ``(max rows, min cols)``.

    Always an upper bound of both cells, but not always the exact sum —
    compare against :func:`pgroups.groups.subgroup_sum` before trusting it.
    """
    target = tuple(map(int, _formula_cells(cell_a, cell_b)[1]))
    return target, M.entry(*target)


def quartering(M: FundMatrix, i: int, j: int) -> dict[str, list[tuple[int, int]]]:
    """Partition the grid relative to ``(i, j)`` by index position.

    ``se``: rows <= i and columns >= j (these are always contained in the
    cell); ``nw``: rows >= i and columns <= j (these always contain it);
    ``other``: the remaining two quadrants.  The anchor cell itself sits in
    both ``se`` and ``nw``; every other cell lands in exactly one bucket.
    """
    M.cell_shifts(i, j)  # validates indices
    buckets: dict[str, list[tuple[int, int]]] = {"se": [], "nw": [], "other": []}
    for k, l in M.cells():
        if k <= i and l >= j:
            buckets["se"].append((k, l))
        if k >= i and l <= j:
            buckets["nw"].append((k, l))
        if not (k <= i and l >= j) and not (k >= i and l <= j):
            buckets["other"].append((k, l))
    return buckets


def alias(M: FundMatrix, i: int, j: int) -> int:
    """Least marker column ``l > j`` whose cell equals cell ``(i, j)``.

    The requested column must not itself be a marker column.  Raises
    :class:`NoAliasError` when the cell is zero or when no marker column to
    the right holds the same subgroup (which does happen above the socle
    row).
    """
    cell = M.cell_shifts(i, j)
    if j in M.marker_cols:
        raise InvalidInputError(f"column {j} is already a marker column")
    if _block_order(M.group, cell) == 1:
        raise NoAliasError(f"cell ({i},{j}) is the zero subgroup")
    for l in M.marker_cols:
        if l > j and M.cell_shifts(i, l) == cell:
            return l
    raise NoAliasError(f"no marker column right of {j} matches cell ({i},{j})")


# --------------------------------------------------------------------------
# rising paths


@dataclass(frozen=True)
class RisingPath:
    """A nonempty staircase: one row up per step, columns strictly increasing."""

    cells: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.cells:
            raise InvalidInputError("a rising path needs at least one cell")
        for (i, j), (k, l) in itertools.pairwise(self.cells):
            if k != i + 1:
                raise InvalidInputError("path rows must climb by exactly one")
            if l <= j:
                raise InvalidInputError("path columns must strictly increase")

    @property
    def start_row(self) -> int:
        return self.cells[0][0]

    @property
    def columns(self) -> tuple[int, ...]:
        return tuple(j for _, j in self.cells)

    def __len__(self) -> int:
        return len(self.cells)


def path_to_indicator(path: RisingPath, group: GroupSpec | None = None) -> Indicator:
    """The column sequence of the path, read as an indicator.

    When ``group`` is given, the path must satisfy the gap condition there
    (a column jump of more than one from column ``v`` needs a nonzero Ulm
    invariant at ``v``), else :class:`NotAdmissibleError` is raised.
    """
    sigma = Indicator(path.columns)
    if group is not None and not is_admissible(group, sigma):
        raise NotAdmissibleError(
            f"path columns {path.columns} break the gap condition on {group.describe()}"
        )
    return sigma


def indicator_to_path(M: FundMatrix, sigma: Indicator, start_row: int = 1) -> RisingPath:
    """The staircase visiting ``(start_row + t, sigma_t)``.

    Requires ``sigma`` nonempty, admissible for the group, and short enough
    to fit above ``start_row``.
    """
    if sigma.length == 0:
        raise NotAdmissibleError("the empty indicator has no path")
    if not is_admissible(M.group, sigma):
        raise NotAdmissibleError(f"{sigma} is not admissible for {M.group.describe()}")
    e = M.exponent
    if start_row < 1 or start_row + sigma.length - 1 > e:
        raise NotAdmissibleError(
            f"path of length {sigma.length} does not fit starting at row {start_row}"
        )
    return RisingPath(tuple((start_row + t, v) for t, v in enumerate(sigma.entries)))


def enumerate_rising_paths(M: FundMatrix) -> list[RisingPath]:
    """Every admissible rising path over the full grid, single cells included.

    Deterministic order: by length, then start row, then columns.
    """
    e = M.exponent
    paths = []
    for sigma in enumerate_admissible(M.group):
        if sigma.length == 0:
            continue
        for start in range(1, e - sigma.length + 2):
            paths.append(indicator_to_path(M, sigma, start))
    paths.sort(key=lambda P: (len(P), P.start_row, P.columns))
    return paths


def path_tally(M: FundMatrix) -> dict[int, int]:
    """Number of admissible rising paths per length."""
    return dict(Counter(map(len, enumerate_rising_paths(M))))


# --------------------------------------------------------------------------
# the indicator row-sum


def sigma_sum(G: GroupSpec, sigma: Indicator) -> Subgroup:
    """Sum of the cells selected by an indicator: row t+1 at column sigma_t.

    Entries at or beyond exp(G) would select the zero subgroup; such entries
    cannot occur in admissible indicators, so they simply contribute nothing.
    The empty indicator yields the zero subgroup.
    """
    M = build_matrix(G)
    zero = tuple(n for n, _ in G.components)
    cells = [M.cell_shifts(t + 1, v) for t, v in enumerate(sigma.entries) if v < G.exponent]
    return block_subgroup(G, tuple(map(min, zip(zero, *cells))))


def sigma_sum_verdicts(G: GroupSpec, cuts: dict):
    """For every indicator of ``cuts`` (``{sigma: G(sigma)}``, the table cuts
    of :attr:`pgroups.claims.ClaimContext.cuts`): does the cell sum equal G(sigma)?

    Returns ``{sigma: (equal, sum_contained_in_G_sigma)}`` from explicit set
    comparisons.
    """
    out = {}
    for sigma, target in cuts.items():
        total = sigma_sum(G, sigma)
        out[sigma] = (total == target, subgroup_leq(total, target))
    return out


def verify_sigma_sum(G: GroupSpec, cuts: dict) -> list[ClaimReport]:
    """Two reports over the table cuts ``cuts``: exact equality of the cell
    sum with G(sigma) per indicator, and the one-sided containment of the sum
    in G(sigma).  An equality witness names the least element of G(sigma)
    missing from the sum, in packed (lexicographic) order."""
    name = G.describe()
    moduli, strides = _packing(G)
    eq_witnesses = []
    cont_witnesses = []
    for sigma, target in cuts.items():
        total = sigma_sum(G, sigma)
        if total != target:
            missing = np.setdiff1d(target.indices, total.indices)[0]
            eq_witnesses.append(
                {
                    "indicator": list(sigma.entries),
                    "sum_order": total.order,
                    "subgroup_order": target.order,
                    "element_missing_from_sum": (missing // strides % moduli).tolist(),
                }
            )
        if not subgroup_leq(total, target):
            cont_witnesses.append({"indicator": list(sigma.entries)})
    checked = f"{len(cuts)} admissible indicators"
    return [
        _verdict("sigma-sum-equality", name, eq_witnesses, checked),
        _verdict("sigma-sum-containment", name, cont_witnesses, checked),
    ]


# --------------------------------------------------------------------------
# claim checks over the grid


def check_monotone(M: FundMatrix) -> ClaimReport:
    """Rows weakly shrink left-to-right; columns weakly grow with the bound."""
    e = M.exponent
    S = M.shifts
    # [i-1, j]: cell (i, j+1) is not in cell (i, j), then cell (i, j) not in (i+1, j)
    across = ~(S[:, 1:] >= S[:, :-1]).all(axis=-1)
    up = ~(S[:-1] >= S[1:]).all(axis=-1)
    witnesses = [{"cells": [[i + 1, j + 1], [i + 1, j]]} for i, j in np.argwhere(across).tolist()]
    witnesses += [{"cells": [[i + 1, j], [i + 2, j]]} for i, j in np.argwhere(up).tolist()]
    return _verdict(
        "matrix-monotone",
        M.group.describe(),
        witnesses,
        f"{e * e} cells, all adjacent comparisons",
    )


def check_distinct(M: FundMatrix) -> ClaimReport:
    """Pairwise distinctness of cells over the display columns."""
    witnesses = []
    cells = [(i, j) for i in range(1, M.exponent + 1) for j in M.display_cols]
    for a, b in itertools.combinations(cells, 2):
        if M.cell_shifts(*a) == M.cell_shifts(*b):
            witnesses.append({"cells": [list(a), list(b)]})
    return _verdict(
        "matrix-distinct-entries",
        M.group.describe(),
        witnesses,
        f"{len(cells)} display cells, all pairs",
    )


def check_join_meet(M: FundMatrix) -> list[ClaimReport]:
    """Compare both index formulas against the sum (shift min) and
    intersection (shift max) of every unordered pair of cells."""
    G, e = M.group, M.exponent
    cells = M.cells()
    S = M.shifts.reshape(e * e, -1)
    a, b = np.triu_indices(e * e, 1)  # itertools.combinations order
    # (row - 1, column) of both cells of each pair; the formulas commute with the shift
    meet_cell, join_cell = _formula_cells(np.divmod(a, e), np.divmod(b, e))
    meet_at = np.ravel_multi_index(meet_cell, (e, e))
    join_at = np.ravel_multi_index(join_cell, (e, e))
    sums = np.minimum(S[a], S[b])
    meet_bad = (S[meet_at] != np.maximum(S[a], S[b])).any(axis=-1)
    join_bad = (S[join_at] != sums).any(axis=-1)
    meet_witnesses = [
        {"cells": [list(cells[x]), list(cells[y])]} for x, y in zip(a[meet_bad], b[meet_bad])
    ]
    join_witnesses = [
        {
            "cells": [list(cells[x]), list(cells[y])],
            "formula_cell": list(cells[t]),
            "formula_order": _block_order(G, S[t].tolist()),
            "sum_order": _block_order(G, total.tolist()),
        }
        for x, y, t, total in zip(a[join_bad], b[join_bad], join_at[join_bad], sums[join_bad])
    ]
    name = G.describe()
    checked = f"{len(cells) * (len(cells) - 1) // 2} cell pairs"
    return [
        _verdict("matrix-meet-formula", name, meet_witnesses, checked),
        _verdict("matrix-join-formula", name, join_witnesses, checked),
    ]


def check_quartering(M: FundMatrix) -> list[ClaimReport]:
    """SE cells must be contained, NW cells must contain, remaining cells are
    claimed incomparable; the first two always hold, the third is checked
    honestly and can fail when distant cells coincide.

    Containment is one :func:`pgroups.groups._within` over the stacked cell
    shifts.  Witnesses follow the centers in :meth:`FundMatrix.cells` order,
    then each center's ``se``, ``nw`` and ``other`` cells in
    :func:`quartering` order."""
    e = M.exponent
    cells = M.cells()
    row, col = np.divmod(np.arange(e * e), e)  # (row - 1, column) of each cell
    S = M.shifts.reshape(e * e, -1)
    inside = _within(S, S)  # [x, y]: cell x lies in cell y
    # [center, cell]
    se = (row[None] <= row[:, None]) & (col[None] >= col[:, None])
    nw = (row[None] >= row[:, None]) & (col[None] <= col[:, None])
    contain_bad = np.stack((se & ~inside.T, nw & ~inside), axis=1)
    incomp_bad = ~se & ~nw & (inside | inside.T)
    buckets = ("se", "nw")
    contain_witnesses = [
        {"center": list(cells[c]), "cell": list(cells[x]), "bucket": buckets[b]}
        for c, b, x in np.argwhere(contain_bad)[:5].tolist()
    ]
    incomp_witnesses = [
        {"center": list(cells[c]), "cell": list(cells[x])}
        for c, x in np.argwhere(incomp_bad)[:5].tolist()
    ]
    name = M.group.describe()
    checked = f"{e * e} centers, full grid per center"
    return [
        _verdict("quartering-containments", name, contain_witnesses, checked),
        _verdict("quartering-incomparability", name, incomp_witnesses, checked),
    ]


def check_alias(M: FundMatrix) -> ClaimReport:
    """Every nonzero non-marker cell should alias to a marker column on its
    right; cells where no marker column matches are witnesses."""
    witnesses = []
    total = 0
    for i, j in M.cells():
        if j in M.marker_cols:
            continue
        if _block_order(M.group, M.cell_shifts(i, j)) == 1:
            continue
        total += 1
        try:
            alias(M, i, j)
        except NoAliasError:
            witnesses.append({"cell": [i, j]})
    return _verdict(
        "alias-to-marker",
        M.group.describe(),
        witnesses,
        f"{total} nonzero non-marker cells",
    )


def check_path_roundtrip(M: FundMatrix) -> ClaimReport:
    """indicator -> path -> indicator is the identity for every admissible
    indicator and every start row; path -> indicator -> path likewise."""
    witnesses = []
    count = 0
    for P in enumerate_rising_paths(M):
        count += 1
        sigma = path_to_indicator(P)
        back = indicator_to_path(M, sigma, start_row=P.start_row)
        if back != P:
            witnesses.append({"columns": list(P.columns), "start_row": P.start_row})
    for sigma in enumerate_admissible(M.group):
        if sigma.length == 0:
            continue
        P = indicator_to_path(M, sigma)
        if path_to_indicator(P) != sigma:
            witnesses.append({"indicator": list(sigma.entries)})
    return _verdict(
        "path-roundtrip",
        M.group.describe(),
        witnesses,
        f"{count} paths and all admissible indicators",
    )


def path_chain_check(G: GroupSpec, cuts: dict) -> ClaimReport:
    """Test whether each table cut G(sigma) of ``cuts`` sits inside every
    cell on sigma's rising path.

    That containment direction fails in general (already on the smallest
    two-block groups); the true direction is the reverse one — every path
    cell sits inside G(sigma) — which is exactly the containment half of
    :func:`verify_sigma_sum`.
    """
    M = build_matrix(G)
    witnesses = []
    checked = 0
    for s, sub in cuts.items():
        for t, v in enumerate(s.entries):
            checked += 1
            cell = M.cell_shifts(t + 1, v)
            if not _block_leq(sub.block_shifts, cell):
                witnesses.append(
                    {
                        "indicator": list(s.entries),
                        "cell": [t + 1, v],
                        "subgroup_order": sub.order,
                        "cell_order": _block_order(G, cell),
                    }
                )
    return _verdict(
        "path-subgroup-chain",
        G.describe(),
        witnesses[:5],
        f"{checked} path cells",
        "reverse containment (cells inside G(sigma)) is the verified half",
    )
