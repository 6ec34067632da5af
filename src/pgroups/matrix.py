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

Every cell is a block sum, held by its block shifts: one cell lies in
another iff its shifts are entrywise at least the other's, a sum is the
entrywise min, a meet the max.  ``FundMatrix.entry`` builds a cell's
subgroup for callers that need elements.  The claims about the grid are
checked in :mod:`pgroups.claims`.

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
from .groups import GroupSpec, Subgroup, block_subgroup
from .groups import _block_order, _fundamental_shifts
from .indicators import Indicator, enumerate_admissible, is_admissible


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
    # [i - 1, j]: row i, column j
    shifts = _fundamental_shifts(G, np.arange(e)[:, None], np.arange(1, e + 1)[:, None, None])
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
