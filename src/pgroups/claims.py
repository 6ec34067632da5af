"""Claim registry: every mechanically checkable statement, keyed by stable id.

Each check is its runner, registered where it is defined by ``_claim(*ids)``:
a generator that yields what it found on each of its claims, ``(witnesses,
checked)`` or ``(witnesses, checked, note)``, in the order of ``ids``, and
slices its own witness lists.  Only the registry turns those into reports.
A runner checks several claims only where they share work beyond the
context and the process caches (one scan, one array of pairs).  Runners
share a :class:`ClaimContext` that lazily materializes the admissible
indicators and their table cuts (one ``[indicator, element]`` mask, and
subgroups built off it only for the runners that read members), the orbit
steps and element classes and the ideal listing under the caller's budgets.
Only ``dagger-well-defined`` holds member sets of End(G), the oracles of the
shift forms.  A budget overrun, or a ``_Skip``
raised by a runner whose claims do not apply to the group, downgrades every
claim of that runner to ``skipped`` rather than failing the whole run.

``run_claims`` is the single entry point used by the CLI ``verify``
subcommand and by the test suite.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import (
    BudgetExceededError,
    GroupTooLargeError,
    IncomparableContextError,
    InvalidInputError,
    NoAliasError,
    RingTooLargeError,
)
from .groups import (
    DEFAULT_MAX_GROUP_ORDER,
    DEFAULT_MAX_SUBGROUP_SIZE,
    Element,
    GroupSpec,
    _bits,
    _block_leq,
    _block_order,
    _fundamental_shifts,
    _grid,
    _grid_rows,
    _join_closure,
    _orbit_steps,
    _packing,
    _span,
    _subgroup,
    _table,
    _valuations,
    _within,
    block_subgroup,
    subgroup_leq,
    ulm_invariants,
)
from .indicators import (
    Indicator,
    _admissible,
    _cut_masks,
    _cut_order,
    _padded,
    _pair_bounds,
    _precedes_matrix,
    enumerate_admissible,
    ind_of,
    indicator_subgroup,
    is_admissible,
    is_realizable,
    min_admissible,
    precedes,
)
from .matrix import (
    _formula_cells,
    alias,
    build_matrix,
    enumerate_rising_paths,
    indicator_to_path,
    path_tally,
    path_to_indicator,
    sigma_sum,
)
from .lattice import _shift_name, canonical_fi_form, enumerate_fi_subgroups
from .endos import (
    DEFAULT_MAX_IDEAL_RING_ORDER,
    DEFAULT_MAX_RING_ORDER,
    MAX_ACTION_ENTRIES,
    _blocks,
    _cached_ring,
    _digit_steps,
    _ideal,
    _ideal_census,
    _image_ranks,
    _image_shifts,
    _log_size,
    _pullback,
    _pushforward,
    dagger_ideal,
    dagger_subgroup,
    enumerate_ideals,
    find_dagger_collision,
    get_ring,
    ideal_generated,
    ideal_leq,
    ring_order,
    special_ideals,
)
from .reports import ClaimReport, _verdict
from .symbolic import (
    Ordinal,
    SymbolicIdealDescriptor,
    basic_seq_to_ulm,
    basic_sequence_of_group,
    check_ulm_criterion,
    descriptor_leq,
    ulm_sequence_of_group,
    ulm_to_basic_seq,
)
from .reference import (
    REFERENCE_PATH_TALLY,
    REFERENCE_PATH_TOTAL,
    REFERENCE_TABLE,
    reference_collision_generators,
    ulm_accept_example,
    ulm_reject_example,
)

#: Exhaustive transitivity checking is quadratic in |G| (one boolean per
#: ordered pair of elements), so it is restricted to small groups.
TRANSITIVITY_MAX_ORDER = 64


@dataclass
class ClaimContext:
    """Shared lazy state for one request under fixed budgets: each artifact is
    built on first use and kept for the request only (the admissible
    indicators, the lattice and the matrix have process caches of the
    shape).  The table cuts are one mask, :attr:`cut_masks`, which
    ``indicator-antitone`` and ``indicator-coverage`` read directly;
    :attr:`cuts` builds their subgroups for the runners that need members."""

    group: GroupSpec
    max_ring: int = DEFAULT_MAX_RING_ORDER
    max_ideals: int = DEFAULT_MAX_IDEAL_RING_ORDER

    @cached_property
    def admissible(self) -> list[Indicator]:
        """Admissible indicators in the fixed (length, entries) order."""
        return list(_admissible(self.group))

    @cached_property
    def cut_masks(self) -> np.ndarray:
        """``[i, x]``: element ``x`` lies in the table cut of
        ``admissible[i]``, all cuts scanned off the heights at once
        (:func:`pgroups.indicators._cut_masks`).  The bottom cut is G itself,
        so a group over the subgroup cap is refused before any scan."""
        G, cap = self.group, DEFAULT_MAX_SUBGROUP_SIZE
        if G.order > cap:
            raise GroupTooLargeError(f"subgroup with {G.order} elements exceeds cap {cap}")
        return _cut_masks(_table(G).heights, G.exponent, self.admissible)

    @cached_property
    def cuts(self) -> dict:
        """The table cut of each admissible indicator as a subgroup, read off
        :attr:`cut_masks`, for the runners that read members or block shifts."""
        G, masks = self.group, self.cut_masks
        return {s: _subgroup(G, np.flatnonzero(row)) for s, row in zip(self.admissible, masks)}

    @cached_property
    def orbit_steps(self) -> np.ndarray:
        """``[x, t]``: the step of coordinate ``t`` of the orbit of element
        ``x`` of the table (:func:`pgroups.groups._orbit_steps`)."""
        return _orbit_steps(self.group, _table(self.group).coords)

    @cached_property
    def element_classes(self) -> tuple:
        """Elements grouped by orbit steps and height-table column: ``keys``
        (one row per class), ``kind[x]`` (x's class) and the class indicators.
        Each element has one packed key: its orbit steps less one in the
        group's packing (each step divides its modulus), then the heights
        below exp(G), its indicator, as the set bits of ``e`` more bits."""
        G, e = self.group, self.group.exponent
        t, steps = _table(G), self.orbit_steps
        below = ((t.heights < e) << t.heights.astype(np.int64)).sum(axis=0)
        _, first, kind = np.unique(
            (steps - 1) @ t.strides << e | below, return_index=True, return_inverse=True
        )
        keys = np.hstack((steps[first], t.heights.T[first]))
        inds = [Indicator(tuple(h for h in col if h < e)) for col in keys[:, G.rank :].tolist()]
        return keys, kind, inds

    def ring(self):
        """The ring, refused over ``max_ring`` and from 2**63 (:func:`get_ring`):
        for the runners that walk End(G) or list its ideals."""
        return get_ring(self.group, max_ring=self.max_ring)

    @cached_property
    def ideals(self) -> list:
        self.ring()  # refuses a ring over max_ring
        return enumerate_ideals(self.group, max_ideals=self.max_ideals)


class _Skip(Exception):
    """Raised by a runner whose claims do not apply to the group; the message
    is the reason every one of its reports gives."""


#: What a runner found on one claim: ``(witnesses, checked)`` or
#: ``(witnesses, checked, note)``.
_Found = Union[tuple[list, str], tuple[list, str, str]]


@dataclass(frozen=True)
class _Runner:
    ids: tuple[str, ...]
    fn: Callable[[ClaimContext], Iterator[_Found]]


#: Filled by ``_claim`` in definition order, which decides the runner that
#: first fills each of ``ClaimContext``'s cached artifacts.
_RUNNERS: list[_Runner] = []


def _claim(*ids: str):
    """Register a runner of the claims ``ids``: it yields what it found on
    each, in the order of ``ids``."""

    def register(fn: Callable[[ClaimContext], Iterator[_Found]]):
        _RUNNERS.append(_Runner(ids, fn))
        return fn

    return register


# --------------------------------------------------------------------------
# indicator-order checks


@_claim("indicator-antitone")
def _run_indicator_antitone(ctx: ClaimContext) -> Iterator[_Found]:
    """Refinement of indicators reverses containment of the cut-out subgroups.

    The order is one matrix (:func:`pgroups.indicators._precedes_matrix`),
    and so is containment: cut ``j`` escapes cut ``i`` when its mask row
    (:attr:`ClaimContext.cut_masks`) has a member outside row ``i``'s, read
    for all pairs at once, 64 elements at a time, off the rows packed into
    words.  Pairs are read in row-major order, the order of
    ``itertools.permutations``: a cut contains itself, so the diagonal gives
    no witness."""
    adm = ctx.admissible
    packed = np.packbits(ctx.cut_masks, axis=1)
    words = np.zeros((len(adm), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    escapes = np.zeros((len(adm),) * 2, dtype=bool)  # [i, j]: cut j escapes cut i
    for word in np.ascontiguousarray(words.view(np.uint64).T):
        escapes |= (word & ~word[:, None]) != 0
    wit = [
        {"sigma": list(adm[i].entries), "tau": list(adm[j].entries)}
        for i, j in np.argwhere(_precedes_matrix(adm) & escapes)[:5].tolist()
    ]
    yield (
        wit,
        f"{len(adm) * (len(adm) - 1)} ordered admissible pairs",
        "one direction only; distinct indicators can cut out equal subgroups",
    )


@_claim("min-admissible-bottom")
def _run_min_admissible_bottom(ctx: ClaimContext) -> Iterator[_Found]:
    """The dense indicator (0,...,e-1) is admissible, below everything, and
    cuts out the whole group."""
    G = ctx.group
    bottom = min_admissible(G)
    wit = []
    if not is_admissible(G, bottom):
        wit.append({"failure": "not admissible", "bottom": list(bottom.entries)})
    for s in ctx.admissible:
        if not precedes(bottom, s):
            wit.append({"failure": "not below", "sigma": list(s.entries)})
    # the cut's order counted over the heights: no subgroup of order |G|
    if _cut_order(G, bottom) != G.order:
        wit.append({"failure": "does not cut out G"})
    yield wit[:5], f"{len(ctx.admissible)} admissible indicators"


@_claim("admissible-minmax-closure")
def _run_admissible_minmax_closure(ctx: ClaimContext) -> Iterator[_Found]:
    """Stated: pointwise min/max of admissible indicators stays admissible.

    Both results keep entries below exp(G) and length at most exp(G), so they
    are admissible exactly when they are among ``ctx.admissible``.  On the
    padded rows (:func:`pgroups.indicators._padded`) they are the entrywise
    min and max, looked up among the admissible rows by their bytes; pairs
    are read in the order of ``itertools.combinations``, min before max."""
    adm = ctx.admissible
    A, top = _padded(adm)
    n, width = A.shape
    i, j = np.triu_indices(n, 1)
    # row 2k is the min of pair k, row 2k + 1 its max
    got = np.stack((np.minimum(A[i], A[j]), np.maximum(A[i], A[j])), axis=1).reshape(-1, width)
    row = np.dtype((np.void, A.itemsize * width))
    outside = ~np.isin(got.view(row).reshape(-1), A.view(row).reshape(-1))
    wit = [
        {
            "op": ("min", "max")[f % 2],
            "sigma": list(adm[i[f // 2]].entries),
            "tau": list(adm[j[f // 2]].entries),
            "result": got[f][got[f] < top].tolist(),
        }
        for f in np.flatnonzero(outside)[:5].tolist()
    ]
    yield wit, f"{n * (n - 1) // 2} unordered pairs"


@_claim("admissible-pair-bounds")
def _run_admissible_pair_bounds(ctx: ClaimContext) -> Iterator[_Found]:
    """Stated: every admissible pair has a greatest admissible lower bound
    and a least admissible upper bound (:func:`admissible_glb` and
    :func:`admissible_lub`, read off one precedes matrix by
    :func:`pgroups.indicators._pair_bounds`)."""
    adm = ctx.admissible
    glb, lub = _pair_bounds(adm)
    wit = []
    for (s, t), has_glb, has_lub in zip(itertools.combinations(adm, 2), glb, lub):
        if not has_glb:
            wit.append({"missing": "glb", "sigma": list(s.entries), "tau": list(t.entries)})
        if not has_lub:
            wit.append({"missing": "lub", "sigma": list(s.entries), "tau": list(t.entries)})
    n = len(adm)
    yield wit[:5], f"{n * (n - 1) // 2} unordered pairs"


@_claim("segment-realizability")
def _run_segment_realizability(ctx: ClaimContext) -> Iterator[_Found]:
    """Stated: every contiguous segment of a realizable indicator is realizable."""
    G = ctx.group
    wit = []
    realizable = [s for s in ctx.admissible if is_realizable(G, s)]
    for s in realizable:
        n = s.length
        for i in range(n):
            for j in range(i + 1, n + 1):
                seg = Indicator(s.entries[i:j])
                if not is_realizable(G, seg):
                    wit.append(
                        {"indicator": list(s.entries), "segment": list(seg.entries)}
                    )
    yield wit[:5], f"all segments of {len(realizable)} realizable indicators"


@_claim("indicator-subgroups-invariant")
def _run_indicator_subgroups_invariant(ctx: ClaimContext) -> Iterator[_Found]:
    """Every indicator subgroup is fully invariant."""
    cuts = ctx.cuts  # refused over the subgroup cap before the shape is built
    ring = _cached_ring(ctx.group)  # the shape only: no ring budget
    wit = []
    for s, H in cuts.items():
        if not ring.is_fully_invariant(H):
            wit.append({"sigma": list(s.entries), "order": H.order})
    yield wit[:5], f"{len(ctx.admissible)} admissible indicators"


@_claim("fi-closure-indicator")
def _run_fi_closure_indicator(ctx: ClaimContext) -> Iterator[_Found]:
    """The smallest fully invariant subgroup containing ``a`` is exactly the
    subgroup cut out by a's own indicator.

    Elements are grouped by their orbit steps and their column of the height
    table, whose entries below exp(G) are their indicator
    (:meth:`ClaimContext.element_classes`); the orbit is built once per class,
    and the cut is the context's table cut."""
    G = ctx.group
    cuts = ctx.cuts  # an element's indicator is realizable, so admissible
    t = _table(G)
    keys, kind, inds = ctx.element_classes
    orders = {}  # key number -> (orbit order, cut order), where the two differ
    for k, key in enumerate(keys):
        orbit, cut = _grid(key[: G.rank], t.moduli, t.strides), cuts[inds[k]]
        if not np.array_equal(orbit, cut.indices):
            orders[k] = (orbit.size, cut.order)
    wit = [
        {
            "element": t.coords[x].tolist(),
            "orbit_order": orders[kind[x]][0],
            "indicator_subgroup_order": orders[kind[x]][1],
        }
        for x in np.flatnonzero(np.isin(kind, list(orders)))[:5]
    ]
    yield wit, f"{G.order} elements"


@_claim("indicator-transitivity")
def _run_indicator_transitivity(ctx: ClaimContext) -> Iterator[_Found]:
    """If ind(a) refines ind(b), some endomorphism maps a onto b.

    Elements fall into classes by their orbit steps and their column of the
    height table, as for ``fi-closure-indicator``.  ``precedes`` is one matrix
    over the classes (:func:`pgroups.indicators._precedes_matrix`) and each
    class's orbit is a mask row over the elements (:func:`_grid_rows`), so
    the ``|G|^2`` pairs are one array, read in row-major order."""
    G = ctx.group
    if G.order > TRANSITIVITY_MAX_ORDER:
        raise _Skip(f"|G| = {G.order} exceeds the quadratic-orbit bound {TRANSITIVITY_MAX_ORDER}")
    t = _table(G)
    keys, kind, inds = ctx.element_classes
    refines = _precedes_matrix(inds)
    # [class, element]: the element lies in the class's orbit
    in_orbit = _grid_rows(G, _valuations(G, keys[:, : G.rank]))
    missed = refines[kind[:, None], kind[None, :]] & ~in_orbit[kind]
    wit = [
        {"from": t.coords[i].tolist(), "to": t.coords[j].tolist()}
        for i, j in np.argwhere(missed)[:5]
    ]
    yield wit, f"{G.order}^2 ordered pairs"


# --------------------------------------------------------------------------
# fundamental-subgroup and matrix checks


@_claim("fundamental-order-iff")
def _run_fundamental_order_iff(ctx: ClaimContext) -> Iterator[_Found]:
    """Stated: containment of two-parameter subgroups holds exactly when the
    parameters are ordered (deeper height, smaller torsion bound); read off
    their block shifts, all pairs at once, in the order of
    ``itertools.product``."""
    G = ctx.group
    e = G.exponent
    kappa, n = np.divmod(np.arange(e * e), e)
    n += 1
    cells = np.stack((kappa, n), axis=1).tolist()
    rule = (kappa[:, None] >= kappa[None]) & (n[:, None] <= n[None])
    F = _fundamental_shifts(G, kappa[:, None], n[:, None])
    actual = _within(F, F)
    wit = [
        {
            "left": cells[a],
            "right": cells[b],
            "parameter_rule": bool(rule[a, b]),
            "containment": bool(actual[a, b]),
        }
        for a, b in np.argwhere(rule != actual)[:5].tolist()
    ]
    yield wit, f"{len(cells)}^2 parameter pairs"


@_claim("matrix-monotone")
def _run_matrix_monotone(ctx: ClaimContext) -> Iterator[_Found]:
    """Rows of the grid weakly shrink left-to-right; columns weakly grow with
    the bound."""
    M = build_matrix(ctx.group)
    e = M.exponent
    S = M.shifts
    # [i-1, j]: cell (i, j+1) is not in cell (i, j), then cell (i, j) not in (i+1, j)
    across = ~(S[:, 1:] >= S[:, :-1]).all(axis=-1)
    up = ~(S[:-1] >= S[1:]).all(axis=-1)
    wit = [{"cells": [[i + 1, j + 1], [i + 1, j]]} for i, j in np.argwhere(across).tolist()]
    wit += [{"cells": [[i + 1, j], [i + 2, j]]} for i, j in np.argwhere(up).tolist()]
    yield wit, f"{e * e} cells, all adjacent comparisons"


@_claim("matrix-distinct-entries")
def _run_matrix_distinct_entries(ctx: ClaimContext) -> Iterator[_Found]:
    """Pairwise distinctness of cells over the display columns."""
    M = build_matrix(ctx.group)
    wit = []
    cells = [(i, j) for i in range(1, M.exponent + 1) for j in M.display_cols]
    for a, b in itertools.combinations(cells, 2):
        if M.cell_shifts(*a) == M.cell_shifts(*b):
            wit.append({"cells": [list(a), list(b)]})
    yield wit, f"{len(cells)} display cells, all pairs"


@_claim("matrix-meet-formula", "matrix-join-formula")
def _run_matrix_meet_join(ctx: ClaimContext) -> Iterator[_Found]:
    """Compare both index formulas (:func:`pgroups.matrix.entry_meet` and
    :func:`pgroups.matrix.entry_join`) against the sum (shift min) and
    intersection (shift max) of every unordered pair of cells."""
    G = ctx.group
    M = build_matrix(G)
    e = M.exponent
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
    meet_wit = [
        {"cells": [list(cells[x]), list(cells[y])]} for x, y in zip(a[meet_bad], b[meet_bad])
    ]
    join_wit = [
        {
            "cells": [list(cells[x]), list(cells[y])],
            "formula_cell": list(cells[t]),
            "formula_order": _block_order(G, S[t].tolist()),
            "sum_order": _block_order(G, total.tolist()),
        }
        for x, y, t, total in zip(a[join_bad], b[join_bad], join_at[join_bad], sums[join_bad])
    ]
    checked = f"{len(cells) * (len(cells) - 1) // 2} cell pairs"
    yield meet_wit, checked
    yield join_wit, checked


@_claim("quartering-containments", "quartering-incomparability")
def _run_quartering(ctx: ClaimContext) -> Iterator[_Found]:
    """SE cells must be contained, NW cells must contain, remaining cells are
    claimed incomparable; the first two always hold, the third is checked
    honestly and can fail when distant cells coincide.

    Containment is one :func:`pgroups.groups._within` over the stacked cell
    shifts.  Witnesses follow the centers in
    :meth:`pgroups.matrix.FundMatrix.cells` order, then each center's ``se``,
    ``nw`` and ``other`` cells in :func:`pgroups.matrix.quartering` order."""
    M = build_matrix(ctx.group)
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
    contain_wit = [
        {"center": list(cells[c]), "cell": list(cells[x]), "bucket": buckets[b]}
        for c, b, x in np.argwhere(contain_bad)[:5].tolist()
    ]
    incomp_wit = [
        {"center": list(cells[c]), "cell": list(cells[x])}
        for c, x in np.argwhere(incomp_bad)[:5].tolist()
    ]
    checked = f"{e * e} centers, full grid per center"
    yield contain_wit, checked
    yield incomp_wit, checked


@_claim("alias-to-marker")
def _run_alias_to_marker(ctx: ClaimContext) -> Iterator[_Found]:
    """Every nonzero non-marker cell should alias to a marker column on its
    right; cells where no marker column matches are witnesses."""
    M = build_matrix(ctx.group)
    wit = []
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
            wit.append({"cell": [i, j]})
    yield wit, f"{total} nonzero non-marker cells"


@_claim("path-roundtrip")
def _run_path_roundtrip(ctx: ClaimContext) -> Iterator[_Found]:
    """indicator -> path -> indicator is the identity for every admissible
    indicator and every start row; path -> indicator -> path likewise."""
    M = build_matrix(ctx.group)
    wit = []
    count = 0
    for P in enumerate_rising_paths(M):
        count += 1
        sigma = path_to_indicator(P)
        back = indicator_to_path(M, sigma, start_row=P.start_row)
        if back != P:
            wit.append({"columns": list(P.columns), "start_row": P.start_row})
    for sigma in enumerate_admissible(M.group):
        if sigma.length == 0:
            continue
        P = indicator_to_path(M, sigma)
        if path_to_indicator(P) != sigma:
            wit.append({"indicator": list(sigma.entries)})
    yield wit, f"{count} paths and all admissible indicators"


@_claim("path-realization")
def _run_path_realization(ctx: ClaimContext) -> Iterator[_Found]:
    """Stated: the column sequence of every rising path is the indicator of
    some element."""
    paths = enumerate_rising_paths(build_matrix(ctx.group))
    seen = dict.fromkeys(map(path_to_indicator, paths))  # in order of first use
    wit = [{"columns": list(s.entries)} for s in seen if not is_realizable(ctx.group, s)]
    yield wit[:5], f"{len(paths)} paths, {len(seen)} distinct column sequences"


@_claim("path-count-accounting")
def _run_path_count_accounting(ctx: ClaimContext) -> Iterator[_Found]:
    """The bundled per-length path tally, against exhaustive enumeration."""
    if ctx.group.components != ((2, 1), (4, 1)):
        raise _Skip("tally is bundled for the Z(p^2)+Z(p^4) shape only")
    computed = path_tally(build_matrix(ctx.group))
    wit = []
    if computed != REFERENCE_PATH_TALLY or sum(computed.values()) != REFERENCE_PATH_TOTAL:
        wit.append(
            {
                "listed_by_length": {str(k): v for k, v in REFERENCE_PATH_TALLY.items()},
                "listed_total": REFERENCE_PATH_TOTAL,
                "computed_by_length": {str(k): v for k, v in computed.items()},
                "computed_total": sum(computed.values()),
            }
        )
    yield (
        wit,
        "exhaustive rising-path enumeration",
        "listed tally counts column sequences by largest column, not paths",
    )


@_claim("reference-table-rows")
def _run_reference_table_rows(ctx: ClaimContext) -> Iterator[_Found]:
    """Each bundled table row: does its indicator cut out the listed subgroup?"""
    G = ctx.group
    if G.components != ((2, 1), (4, 1)):
        raise _Skip("table is bundled for the Z(p^2)+Z(p^4) shape only")
    wit = []
    annotation_ok = True
    for row in REFERENCE_TABLE:
        cut = indicator_subgroup(G, Indicator(row.indicator))
        listed = block_subgroup(G, row.listed_shifts)
        shifts = canonical_fi_form(G, cut)
        if cut != listed:
            wit.append(
                {
                    "indicator": list(row.indicator),
                    "listed_name": row.listed_name,
                    "listed_shifts": list(row.listed_shifts),
                    "computed_name": _shift_name(G, shifts),
                    "computed_shifts": list(shifts),
                }
            )
        if shifts != row.expected_shifts:
            annotation_ok = False
    note = (
        "corrected rows match the recomputation"
        if annotation_ok
        else "bundled corrections disagree with recomputation"
    )
    yield wit[:5], f"{len(REFERENCE_TABLE)} rows", note


# --------------------------------------------------------------------------
# endomorphism-ring checks


@_claim("endo-height-exponent", "endo-indicator-monotone")
def _run_endo_action(ctx: ClaimContext) -> Iterator[_Found]:
    """One scan of every (endomorphism, element) pair, in blocks
    (:meth:`pgroups.endos.EndoRing.action_chunks`); each claim keeps its
    first five failures in scan order.

    Endomorphisms never lower height nor raise exponent.  They also refine
    indicators, ``ind(a) precedes ind(a f)``, which is equivalent to
    ``height(p^k a) <= height(p^k af)`` for every k below exp(G) (the length
    condition falls out of the infinite height of vanished multiples).
    The scan is refused above ``MAX_ACTION_ENTRIES`` pairs.  An element's
    heights are its class's (:meth:`ClaimContext.element_classes`), so each
    claim is read off one table over pairs of classes.
    """
    G = ctx.group
    ring = ctx.ring()
    pairs = ring.size * G.order
    if pairs > MAX_ACTION_ENTRIES:
        raise RingTooLargeError(
            f"{ring.size} endomorphisms x {G.order} elements = {pairs} pairs"
            f" exceeds cap {MAX_ACTION_ENTRIES}"
        )
    keys, kind, _ = ctx.element_classes
    col, e = keys[:, G.rank :], G.exponent  # each class's column of heights
    ex = (col < e).sum(axis=1)
    # [a, b]: an image of class a of an element of class b fails the claim
    height_fails = (col[:, None, 0] < col[None, :, 0]) | (ex[:, None] > ex[None, :])
    monotone_fails = (col[:, None, :e] < col[None, :, :e]).any(axis=2)
    # (endomorphism, element, image) of each claim's failures
    heights, monotone = [], []
    for start, block in ring.action_chunks():
        image = kind[block]
        for fails, failing in ((heights, height_fails), (monotone, monotone_fails)):
            f_offs, xs = np.nonzero(failing[image, kind])
            for f_off, x in zip(f_offs, xs[: 5 - len(fails)]):
                fails.append((start + int(f_off), int(x), int(block[f_off, x])))
        if len(heights) >= 5 and len(monotone) >= 5:
            break

    coords = _table(G).coords

    def pair(f: int, x: int) -> dict:
        return {"endomorphism": ring.decode(f).tolist(), "element": coords[x].tolist()}

    def indicator(x: int) -> list:
        return list(ind_of(Element(G, tuple(coords[x].tolist()))).entries)

    n, m = ring.size, G.order
    height_wit = [{**pair(f, x), "image": coords[y].tolist()} for f, x, y in heights]
    monotone_wit = [
        {**pair(f, x), "indicator": indicator(x), "image_indicator": indicator(y)}
        for f, x, y in monotone
    ]
    yield height_wit, f"{n} endomorphisms x {m} elements"
    yield monotone_wit, f"{m} elements x {n} endomorphisms"


@_claim("rank-subadditivity")
def _run_rank_subadditivity(ctx: ClaimContext) -> Iterator[_Found]:
    """Image rank of a sum of endomorphisms is at most the sum of the ranks.

    Rank here is the number of cyclic summands of the image, read off the
    generator matrices (:func:`_image_ranks`); the sum's matrix is the
    entrywise sum of the two, so its index digits are the digitwise sums.
    The pairs' sums take few distinct values, and each is ranked once.
    """
    G = ctx.group
    ring = ctx.ring()
    size = ring.size
    step = max(1, math.ceil(size / 128))
    sel = np.arange(0, size, step, dtype=np.int64)
    mats = ring.decode(sel)
    # pairs in itertools.combinations order, which fixes the witness order
    i, j = np.triu_indices(len(sel), 1)
    ranks = _image_ranks(G, mats)
    radix, strides = ring._endo_radix, ring._endo_strides
    digits = sel[:, None] // strides % radix
    sums, at = np.unique((digits[i] + digits[j]) % radix @ strides, return_inverse=True)
    totals = _image_ranks(G, ring.decode(sums))[at]
    wit = [
        {
            "f": ring.endo_of_index(int(sel[i[k]])).to_json()["matrix"],
            "g": ring.endo_of_index(int(sel[j[k]])).to_json()["matrix"],
            "rank_sum": int(ranks[i[k]] + ranks[j[k]]),
            "rank_of_sum": int(totals[k]),
        }
        for k in np.flatnonzero(totals > ranks[i] + ranks[j])[:5]
    ]
    mode = "exhaustive" if step == 1 else f"stride-{step} sample"
    yield wit, f"{mode}: {len(sel)} endomorphisms pairwise"


def _least_outside(G: GroupSpec, w, v) -> list | None:
    """The least member (as a matrix) of the ideal with shifts ``w`` outside
    the one with ``v``, or None: the single entry ``p^w_st`` at the last
    (least significant) coordinate pair, row-major, whose block has
    ``w_st < v_st``."""
    _, mults, _ = _blocks(G)
    w, v = (np.repeat(np.repeat(a, mults, axis=0), mults, axis=1) for a in (w, v))
    below = np.argwhere(w < v)
    if not len(below):
        return None
    i, j = below[-1].tolist()
    least = [[0] * G.rank for _ in range(G.rank)]
    least[i][j] = G.p ** int(w[i, j])
    return least


@_claim(
    "power-ideal-dagger",
    "power-subgroup-dagger",
    "socle-ideal-dagger",
    "socle-subgroup-dagger",
)
def _run_fun_identities(ctx: ClaimContext) -> Iterator[_Found]:
    """For every n up to exp(G), the four identities tying the power and
    torsion ideals to the power and torsion subgroups, in block shifts:

    * image of ``p^n E``      == ``p^n G``        (holds)
    * preimage of ``p^n G``   == ``p^n E``        (fails off homocyclic groups)
    * image of ``E[p^n]``     == ``G[p^n]``       (holds)
    * preimage of ``G[p^n]``  == ``E[p^n]``       (holds)
    """
    G = ctx.group
    e = G.exponent
    power_ideal, power_subgroup, socle_ideal, socle_subgroup = [], [], [], []
    for n in range(e + 1):
        powerE, torsionE = special_ideals(G, n)
        powerG = _fundamental_shifts(G, n, e)  # p^n G
        torsionG = _fundamental_shifts(G, 0, n)  # G[p^n]
        if _image_shifts(G, powerE) != powerG:
            power_ideal.append({"n": n})
        got = _ideal(G, _pullback(G, powerG))
        if got != powerE:
            power_subgroup.append(
                {
                    "n": n,
                    "preimage_size": got.size,
                    "scaled_ring_size": powerE.size,
                    "endo_outside_scaled_ring": _least_outside(G, got.shifts, powerE.shifts),
                }
            )
        if _image_shifts(G, torsionE) != torsionG:
            socle_ideal.append({"n": n})
        if _ideal(G, _pullback(G, torsionG)) != torsionE:
            socle_subgroup.append({"n": n})
    for wit in (power_ideal, power_subgroup, socle_ideal, socle_subgroup):
        yield wit, f"all n in [0, {e}]"


@_claim("dagger-well-defined")
def _run_dagger_well_defined(ctx: ClaimContext) -> Iterator[_Found]:
    """The ideal listing and both dagger maps agree with the exhaustive
    oracles on every object.  The listed ideals must be the census's
    (:func:`pgroups.endos._ideal_census`), in order; each census ideal the
    grid of its shifts, and its pushforward the span of its members' rows and
    fully invariant; each node's pullback the whole-ring filter of the
    endomorphisms whose rows lie in the node, closed under products with the
    basis on both sides.  The rows of every endomorphism are decoded once.
    Outside the census only the row spans call :func:`_span`, once per
    distinct row set, and a pushforward shared by several ideals is tested
    for full invariance once.  The nodes are checked together, in tables of
    nodes by endomorphisms."""
    G = ctx.group
    ideals = ctx.ideals  # refuses a ring over max_ring or max_ideals first
    census = _ideal_census(G, max_ideals=ctx.max_ideals)
    nodes = enumerate_fi_subgroups(G).nodes
    ring = _cached_ring(G)
    moduli, strides = _packing(G)
    rows = ring.decode(np.arange(ring.size)) @ strides  # [f, s]: row s of f, packed
    wit = []
    if list(ideals) != list(census):
        wit.append({"failure": "listing", "listed": len(ideals), "census": len(census)})
    grids = _digit_steps(G, np.array([I.shifts for I in census]))
    spans, invariant = {}, {}  # by row set, by pushforward
    for I, steps in zip(census, grids):
        if not np.array_equal(ring.basis_grid(steps), I.indices):
            wit.append({"ideal_size": I.size, "failure": "not a grid"})
        down = dagger_ideal(G, I)
        seen = np.unique(rows[I.indices])
        key = seen.tobytes()
        if key not in spans:
            spans[key] = _span(seen, moduli, strides)
        if not np.array_equal(spans[key], down.indices):
            wit.append({"ideal_size": I.size, "failure": "pushforward"})
        if down not in invariant:
            invariant[down] = ring.is_fully_invariant(down)
        if not invariant[down]:
            wit.append({"ideal_size": I.size})
    # [h, f]: every row of f lies in node h; f lies in h's pullback
    ups = [dagger_subgroup(G, H) for H in nodes]
    member = np.zeros((len(nodes), G.order), dtype=bool)
    pulled = np.zeros((len(nodes), ring.size), dtype=bool)
    for h, (H, up) in enumerate(zip(nodes, ups)):
        member[h, H.indices] = True
        pulled[h, up.indices] = True
    inside = member[:, rows[:, 0]]
    for s in range(1, G.rank):
        inside &= member[:, rows[:, s]]
    steps = _digit_steps(G, np.array([up.shifts for up in ups]))
    # the grid is spanned by the steps_k basis[k]; if their products with
    # the basis on both sides lie in it, so do its products with every
    # sum of basis matrices
    basis = ring.basis
    gens = steps[:, :, None, None] * basis % moduli  # [h, k]: steps_k basis[k]
    failed = [np.any(inside != pulled, axis=1)]
    for prod in (np.matmul(gens[:, :, None], basis), np.matmul(basis[:, None], gens[:, None])):
        packed = ring.pack_endos(prod.reshape(-1, ring.rank, ring.rank) % moduli)
        closed = np.take_along_axis(pulled, packed.reshape(len(nodes), -1), axis=1)
        failed.append(~closed.all(axis=1))
    for H, bad in zip(nodes, np.transpose(failed)):
        for failure in itertools.compress(("pullback", "right-mult", "left-mult"), bad):
            wit.append({"subgroup_order": H.order, "failure": failure})
    yield wit[:5], f"{len(nodes)} subgroups, {len(ideals)} ideals"


def _row_masks(rows: np.ndarray) -> list[int]:
    """The member bitmask (:func:`pgroups.groups._bits`) of each mask row,
    read off the rows packed to bits."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _same(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return (A == B).all(axis=-1)


def _pairwise(ufunc, A: np.ndarray) -> np.ndarray:
    """``[i, j]``: ``ufunc(A[i], A[j])``."""
    return ufunc(A[:, None], A[None])


@_claim(
    "dagger-order",
    "dagger-sum-preservation",
    "dagger-intersection-preservation",
    "subgroup-double-dagger-deflation",
    "fi-dagger-closed",
    "ideal-double-dagger-deflation",
    "ideal-double-dagger-inflation",
    "dagger-triple",
    "dagger-closed-equivalences",
    "closed-lattice-isomorphism",
    "dagger-class-structure",
    "fundamental-dagger-closed",
)
def _run_galois_suite(ctx: ClaimContext) -> Iterator[_Found]:
    """The dagger suite: order/meet/join preservation, closure behavior and
    class structure of the two dagger maps, exhaustively over the fully
    invariant lattice and the listed ideals, in valuations: a node by its
    block shifts, an ideal by its block shift matrix (flattened), with sums,
    meets and containment as the entrywise min, max and ``>=`` on both
    sides, and the two maps as :func:`pgroups.endos._pullback` and
    :func:`pgroups.endos._pushforward`.  Pairs are read off in row-major
    order, the order of ``itertools.product`` and ``combinations``.
    """
    ideals = ctx.ideals  # refuses a ring over max_ring or max_ideals first
    G = ctx.group
    W = np.array([I.shifts for I in ideals])
    L = enumerate_fi_subgroups(G)
    k = len(G.components)

    def pull(alpha) -> np.ndarray:  # _pullback, its matrices flattened
        w = _pullback(G, alpha)
        return w.reshape(w.shape[:-2] + (k * k,))

    C = np.array(L.shifts).reshape(-1, k)
    flat = W.reshape(-1, k * k)
    up, down = pull(C), _pushforward(W)
    orders = L.orders
    sizes = [G.p ** int(x) for x in _log_size(G, W)]

    def pairs(mask, side: str) -> list:
        of = orders if side == "subgroup" else sizes
        return [{"pair": [of[i], of[j]], "side": side} for i, j in np.argwhere(mask)]

    # order preservation, both directions
    order_wit = pairs(_within(C, C) & ~_within(up, up), "subgroup")
    order_wit += pairs(_within(flat, flat) & ~_within(down, down), "ideal")
    yield order_wit[:5], "all ordered pairs on both sides"

    # meet/join preservation over unordered pairs
    node_upper = np.triu(np.ones((len(C), len(C)), dtype=bool), 1)
    ideal_upper = np.triu(np.ones((len(W), len(W)), dtype=bool), 1)
    sum_wit, meet_wit = [], []
    for op, wit in ((np.minimum, sum_wit), (np.maximum, meet_wit)):
        pulled = pull(_pairwise(op, C))
        wit += pairs(~_same(pulled, _pairwise(op, up)) & node_upper, "subgroup")
    image_of_sum = _pushforward(_pairwise(np.minimum, W))
    image_sums = _pairwise(np.minimum, down)
    sum_wit += pairs(~_same(image_of_sum, image_sums) & ideal_upper, "ideal")
    image_of_meet = _pushforward(_pairwise(np.maximum, W))
    meet_of_images = _pairwise(np.maximum, down)
    meet_wit += [
        {
            "pair": [sizes[i], sizes[j]],
            "side": "ideal",
            "image_of_meet_order": _block_order(G, image_of_meet[i, j].tolist()),
            "meet_of_images_order": _block_order(G, meet_of_images[i, j].tolist()),
        }
        for i, j in np.argwhere(~_same(image_of_meet, meet_of_images) & ideal_upper)
    ]
    checked = "all unordered pairs on both sides"
    yield sum_wit[:5], checked
    yield meet_wit[:5], checked

    # closure behavior
    back_up = _pushforward(_pullback(G, C))  # each node's double dagger
    back_of = pull(down)  # each ideal's double dagger
    fi_closed, closed = _same(back_up, C), _same(back_of, flat)
    deflates = (back_up >= C).all(axis=1)
    sub_defl_wit = [{"subgroup_order": orders[i]} for i in np.flatnonzero(~deflates)]
    fi_closed_wit = [
        {"subgroup_order": orders[i], "closure_order": _block_order(G, back_up[i].tolist())}
        for i in np.flatnonzero(~fi_closed)
    ]
    checked = f"{len(C)} fully invariant subgroups"
    yield sub_defl_wit, checked
    yield fi_closed_wit, checked
    ideal_defl_wit = []
    for i in np.flatnonzero(~(back_of >= flat).all(axis=1))[:5]:
        closure = back_of[i].reshape(k, k)
        ideal_defl_wit.append(
            {
                "ideal_size": sizes[i],
                "closure_size": G.p ** int(_log_size(G, closure)),
                "endo_in_closure_only": _least_outside(G, closure, W[i]),
            }
        )
    inflates = (flat >= back_of).all(axis=1)
    ideal_infl_wit = [{"ideal_size": sizes[i]} for i in np.flatnonzero(~inflates)[:5]]
    checked = f"{len(W)} ideals"
    yield ideal_defl_wit, checked
    yield ideal_infl_wit, checked
    triple_wit = [
        {"ideal_size": sizes[i], "side": "ideal"}
        for i in np.flatnonzero(~_same(_pushforward(_pullback(G, down)), down))
    ] + [
        {"subgroup_order": orders[i], "side": "subgroup"}
        for i in np.flatnonzero(~_same(pull(back_up), up))
    ]
    yield triple_wit[:5], "both composites on every object"

    # closed-object equivalences and the lattice isomorphism between them
    image_of = _same(down[:, None], C[None])  # [ideal, node]: the node is its image
    is_image = image_of.any(axis=0)
    is_preimage = _same(flat[:, None], up[None]).any(axis=1)
    equiv_wit = [
        {"subgroup_order": orders[i]} for i in np.flatnonzero(fi_closed != is_image)
    ]
    equiv_wit += [{"ideal_size": sizes[i]} for i in np.flatnonzero(closed != is_preimage)]
    yield equiv_wit[:5], "closedness vs membership in the opposite map's range"
    c = np.flatnonzero(closed)
    iso = _within(flat[c], flat[c]) != _within(down[c], down[c])
    iso_wit = [{"pair": [sizes[c[i]], sizes[c[j]]]} for i, j in np.argwhere(iso)]
    if len(c) != len(C):
        iso_wit.append({"closed_ideals": len(c), "fully_invariant_subgroups": len(C)})
    yield iso_wit[:5], f"{len(c)} closed ideals vs {len(C)} subgroups"

    # preimage classes: closed under sums, with a unique closed maximum
    class_wit = []
    for h, order in enumerate(orders):
        cls = np.flatnonzero(image_of[:, h])
        if not cls.size:
            class_wit.append({"subgroup_order": order, "failure": "empty class"})
            continue
        sums = _pushforward(_pairwise(np.minimum, W[cls]))
        leaves = int(np.triu(~_same(sums, C[h]), 1).sum())
        class_wit += [{"subgroup_order": order, "failure": "sum leaves class"}] * leaves
        tops = cls[closed[cls]]
        if len(tops) != 1:
            class_wit.append({"subgroup_order": order, "closed_members": len(tops)})
        else:
            top, best = cls[np.argmax([sizes[i] for i in cls])], tops[0]
            if top != best or not (flat[cls] >= flat[best]).all():
                class_wit.append({"subgroup_order": order, "failure": "not maximum"})
    yield class_wit[:5], f"{len(W)} ideals grouped by image"

    # fundamental subgroups are closed
    e = G.exponent
    cells = [(n, kappa) for n in range(1, e + 1) for kappa in range(e)]
    n, kappa = np.array(cells).T
    F = _fundamental_shifts(G, kappa[:, None], n[:, None])
    back = _pushforward(_pullback(G, F))
    fund_wit = [{"cell": list(cells[i])} for i in np.flatnonzero(~_same(back, F))]
    yield fund_wit[:5], f"all {e * e} fundamental subgroups"


@_claim("collision-recipe")
def _run_collision_recipe(ctx: ClaimContext) -> Iterator[_Found]:
    """Non-homocyclic groups admit two distinct ideals with equal image;
    homocyclic groups do not."""
    G = ctx.group
    homocyclic = len(G.components) == 1
    if homocyclic and ring_order(G) > ctx.max_ideals:
        raise _Skip(
            f"|End(G)| = {ring_order(G)} exceeds the ideal-enumeration cap"
            f" {ctx.max_ideals} needed to certify absence"
        )
    got = find_dagger_collision(G, ideals=ctx.ideals if homocyclic else None)
    wit = []
    if homocyclic:
        if got is not None:
            I, J = got
            wit.append({"unexpected_pair_sizes": [I.size, J.size]})
        yield wit, "exhaustive ideal enumeration"
        return
    if got is None:
        wit.append({"failure": "no pair found"})
    else:
        I, J = got
        if I == J:
            wit.append({"failure": "pair not distinct"})
        elif _image_shifts(G, I) != _image_shifts(G, J):
            wit.append({"failure": "images differ", "sizes": [I.size, J.size]})
    yield wit, "constructed pair validated"


@_claim("named-collision-pair")
def _run_named_collision_pair(ctx: ClaimContext) -> Iterator[_Found]:
    """The bundled pair: both ideals are claimed to push forward to the socle."""
    G = ctx.group
    if G.components != ((2, 1), (4, 1)):
        raise _Skip("pair is bundled for the Z(p^2)+Z(p^4) shape only")
    f, g = reference_collision_generators(G)
    I = ideal_generated(G, [f])
    J = ideal_generated(G, [g])
    socle = _fundamental_shifts(G, 0, 1)
    wit = []
    for label, ideal in (("scalar p^3", I), ("diag(p, p^3)", J)):
        img = _image_shifts(G, ideal)
        if img != socle:
            wit.append(
                {
                    "generator": label,
                    "image_shifts": list(img),
                    "image_order": _block_order(G, img),
                    "socle_order": _block_order(G, socle),
                }
            )
    yield (
        wit,
        "both bundled generators pushed forward",
        "the diagonal generator does reach the socle; the scalar one stops"
        " at the top power subgroup",
    )


@_claim("homocyclic-ideal-chain")
def _run_homocyclic_ideal_chain(ctx: ClaimContext) -> Iterator[_Found]:
    """Homocyclic groups: the ideals are exactly the scaled rings p^k E."""
    G = ctx.group
    if len(G.components) > 1:
        raise _Skip("applies to homocyclic groups only")
    n = G.components[0][0]
    ideals = ctx.ideals
    wit = []
    if len(ideals) != n + 1:
        wit.append({"ideal_count": len(ideals), "expected": n + 1})
    if {special_ideals(G, k)[0] for k in range(n + 1)} != set(ideals):
        wit.append({"failure": "ideal set differs from the scaled rings"})
    for I, J in itertools.combinations(ideals, 2):
        if not (ideal_leq(I, J) or ideal_leq(J, I)):
            wit.append({"incomparable_sizes": [I.size, J.size]})
    yield wit[:5], f"{len(ideals)} ideals vs p^k E for k in [0, {n}]"


# --------------------------------------------------------------------------
# lattice and symbolic checks


@_claim("indicator-coverage")
def _run_indicator_coverage(ctx: ClaimContext) -> Iterator[_Found]:
    """Every fully invariant subgroup is cut out by an admissible indicator,
    and distinct admissible indicators cut out distinct subgroups exactly
    when the indicator is realizable.

    The lattice is read off the shape, so its nodes are checked against
    independent oracles: every sum of single-element orbits, closed over the
    orbits (:func:`_join_closure`, each sum spanned by :func:`_span`), and
    the table cuts (:attr:`ClaimContext.cut_masks`), each of which must be
    the node its indicator labels.  The distinct orbits are found by packing
    each element's orbit steps into one index; the orbits and the nodes are
    mask rows over the table (:func:`_grid_rows`).  Every set is then its member bitmask, read
    off its row packed to bits, so nodes, cuts and sums are compared as
    integers.  The realizable indicators are read off the Ulm invariants: an
    admissible indicator is realizable exactly when the Ulm invariant at its
    last entry is nonzero."""
    G, adm = ctx.group, ctx.admissible
    cuts = _row_masks(ctx.cut_masks)  # refused over the subgroup cap before the table
    lattice = enumerate_fi_subgroups(G)
    t = _table(G)
    # every step divides its modulus, so step - 1 is a digit of the packing
    # and each distinct row of steps one packed index
    seen = np.zeros(G.order, dtype=bool)
    seen[(ctx.orbit_steps - 1) @ t.strides] = True
    steps = np.flatnonzero(seen)[:, None] // t.strides % t.moduli + 1
    orbits = _grid_rows(G, _valuations(G, steps))
    size = -(-G.order // 8)

    def members(mask: int) -> np.ndarray:
        packed = np.frombuffer(mask.to_bytes(size, "little"), dtype=np.uint8)
        return np.flatnonzero(np.unpackbits(packed, bitorder="little"))

    def join(s: int, a: int) -> int:
        """The sum of two subgroups, by member bitmasks: the smaller spanned
        from the larger."""
        if s.bit_count() < a.bit_count():
            s, a = a, s
        return _bits(_span(members(a), t.moduli, t.strides, span=members(s)))

    sums = set(_join_closure(_row_masks(orbits), join, lambda mask: mask))
    mults = [m for _, m in G.components]
    nodes = _row_masks(_grid_rows(G, np.repeat(np.array(lattice.shifts), mults, axis=1)))
    listed = set(nodes)
    wit = [{"missing_subgroup_order": n} for n in sorted(m.bit_count() for m in sums - listed)]
    wit += [{"extra_subgroup_order": n} for n in sorted(m.bit_count() for m in listed - sums)]
    label_at = {s.entries: h for h, labels in enumerate(lattice.sigma_labels) for s in labels}
    wit += [
        {"indicator": list(s.entries), "cut_order": cut.bit_count()}
        for s, cut in zip(adm, cuts)
        if s.entries not in label_at or nodes[label_at[s.entries]] != cut
    ]
    u = ulm_invariants(G)
    realizable = [cut for s, cut in zip(adm, cuts) if not s.entries or u[s.entries[-1]]]
    distinct = len(set(realizable))
    if distinct != len(realizable):
        wit.append({"realizable": len(realizable), "distinct_subgroups": distinct})
    yield wit[:5], f"{len(adm)} admissible indicators vs {len(sums)} nodes"


@_claim("fundamental-containment")
def _run_fundamental_containment(ctx: ClaimContext) -> Iterator[_Found]:
    """Each table cut sits inside the fundamental subgroup named by its first
    entry and its length."""
    G = ctx.group
    named = [(sigma, cut) for sigma, cut in ctx.cuts.items() if sigma.entries]
    first, length = np.array([(s.entries[0], s.length) for s, _ in named]).reshape(-1, 2).T
    outer = _fundamental_shifts(G, first[:, None], length[:, None])
    wit = [
        {"indicator": str(sigma)}
        for (sigma, cut), alpha in zip(named, outer)
        if not _block_leq(cut.block_shifts, alpha)
    ]
    yield wit, f"{len(named)} nonempty admissible indicators"


@_claim("path-subgroup-chain")
def _run_path_subgroup_chain(ctx: ClaimContext) -> Iterator[_Found]:
    """Test whether each table cut G(sigma) sits inside every cell on sigma's
    rising path.

    That containment direction fails in general (already on the smallest
    two-block groups); the true direction is the reverse one — every path
    cell sits inside G(sigma) — which is exactly ``sigma-sum-containment``.
    """
    G = ctx.group
    M = build_matrix(G)
    wit = []
    checked = 0
    for s, sub in ctx.cuts.items():
        for t, v in enumerate(s.entries):
            checked += 1
            cell = M.cell_shifts(t + 1, v)
            if not _block_leq(sub.block_shifts, cell):
                wit.append(
                    {
                        "indicator": list(s.entries),
                        "cell": [t + 1, v],
                        "subgroup_order": sub.order,
                        "cell_order": _block_order(G, cell),
                    }
                )
    yield (
        wit[:5],
        f"{checked} path cells",
        "reverse containment (cells inside G(sigma)) is the verified half",
    )


@_claim("sigma-sum-equality", "sigma-sum-containment")
def _run_sigma_sum(ctx: ClaimContext) -> Iterator[_Found]:
    """Over the table cuts: exact equality of the cell sum
    (:func:`pgroups.matrix.sigma_sum`) with G(sigma) per indicator, and the
    one-sided containment of the sum in G(sigma).  An equality witness names
    the least element of G(sigma) missing from the sum, in packed
    (lexicographic) order."""
    G, cuts = ctx.group, ctx.cuts
    moduli, strides = _packing(G)
    eq_wit = []
    cont_wit = []
    for sigma, target in cuts.items():
        total = sigma_sum(G, sigma)
        if total != target:
            missing = np.setdiff1d(target.indices, total.indices)[0]
            eq_wit.append(
                {
                    "indicator": list(sigma.entries),
                    "sum_order": total.order,
                    "subgroup_order": target.order,
                    "element_missing_from_sum": (missing // strides % moduli).tolist(),
                }
            )
        if not subgroup_leq(total, target):
            cont_wit.append({"indicator": list(sigma.entries)})
    checked = f"{len(cuts)} admissible indicators"
    yield eq_wit, checked
    yield cont_wit, checked


@_claim("descriptor-rule-as-stated", "descriptor-rule-empirical")
def _run_descriptor_rule(ctx: ClaimContext) -> Iterator[_Found]:
    """Compare every two-parameter subgroup pair with a context-free
    symbolic verdict (:func:`pgroups.symbolic.descriptor_leq`) against the
    true containment of their pullback ideals.

    Descriptors carry the rank cap aleph_0, which filters nothing at finite
    scale (every image rank is finite), so the comparison isolates the
    subgroup-parameter direction of the stated rule.  Both orders are read
    off block shifts, the ideals' as the pullbacks' shift matrices, all pairs
    at once (:func:`pgroups.groups._within`); the stated rule is evaluated
    pair by pair, in row-major order.
    """
    G = ctx.group
    e = G.exponent
    descs = [
        SymbolicIdealDescriptor(kappa=Ordinal(0, k), n=n)
        for k in range(e)
        for n in range(1, e + 1)
    ]
    kappa, n = np.array([(d.kappa.r, d.n) for d in descs]).T
    shifts = _fundamental_shifts(G, kappa[:, None], n[:, None])
    pulled = _pullback(G, shifts).reshape(len(descs), -1)
    ideal_order = _within(pulled, pulled).tolist()
    subgroup_order = _within(shifts, shifts).tolist()
    stated_wit = []
    empirical_wit = []
    count = 0
    for i, a in enumerate(descs):
        for j, b in enumerate(descs):
            try:
                stated = descriptor_leq(a, b)
            except IncomparableContextError:
                continue
            count += 1
            truth = ideal_order[i][j]
            if stated != truth and len(stated_wit) < 5:
                stated_wit.append(
                    {"a": str(a), "b": str(b), "stated": stated, "actual": truth}
                )
            preserving = subgroup_order[i][j]
            if truth != preserving and len(empirical_wit) < 5:
                empirical_wit.append(
                    {
                        "a": str(a),
                        "b": str(b),
                        "subgroup_leq": preserving,
                        "ideal_leq": truth,
                    }
                )
    checked = f"{count} comparable descriptor pairs"
    yield stated_wit, checked
    yield empirical_wit, checked


@_claim("ulm-position-indexing")
def _run_ulm_position_indexing(ctx: ClaimContext) -> Iterator[_Found]:
    """Positions of the nonzero Ulm values vs the component exponents.

    As stated, the multiplicity of the ``p^n`` component should appear at
    position ``n``; the actual nonzero values sit one step earlier, at
    ``n - 1`` (the value at position ``kappa`` counts summands of exponent
    ``kappa + 1``).  Expect a refutation on every group, with the shifted
    indexing confirmed in the witnesses.
    """
    G = ctx.group
    u = ulm_invariants(G)
    wit = []
    shifted_ok = True
    for n, m in G.components:
        stated = u[n] if n < len(u) else 0
        if stated != m:
            wit.append({"exponent": n, "stated_position_value": stated, "multiplicity": m})
        if u[n - 1] != m:
            shifted_ok = False
    note = (
        "values sit at position (exponent - 1), confirming the off-by-one"
        if shifted_ok
        else "shifted indexing fails too"
    )
    yield wit[:5], f"{len(G.components)} components", note if wit else ""


@_claim("ulm-criterion-examples")
def _run_ulm_criterion_examples(ctx: ClaimContext) -> Iterator[_Found]:
    """The two canonical sequences behave as published, and the group's own
    bounded sequence is vacuously fine."""
    wit = []
    rej = check_ulm_criterion(ulm_reject_example())
    if rej.status != "refuted":
        wit.append({"failure": "reject example accepted"})
    elif rej.witnesses[0]["kappa"] != {"q": 0, "r": 0}:
        wit.append({"failure": "wrong witness", "kappa": rej.witnesses[0]["kappa"]})
    acc = check_ulm_criterion(ulm_accept_example())
    if acc.status != "verified":
        wit.append({"failure": "accept example rejected", "witnesses": acc.witnesses})
    own = check_ulm_criterion(ulm_sequence_of_group(ctx.group))
    if own.status != "verified":
        wit.append({"failure": "bounded sequence rejected"})
    yield (
        wit,
        "reject + accept examples and this group's sequence",
        "the two examples are group-independent",
    )


@_claim("basic-roundtrip")
def _run_basic_roundtrip(ctx: ClaimContext) -> Iterator[_Found]:
    """Group -> block presentation -> Ulm sequence commutes and inverts."""
    G = ctx.group
    wit = []
    u = ulm_sequence_of_group(G)
    b = basic_sequence_of_group(G)
    forward = basic_seq_to_ulm(b)
    if forward != u:
        wit.append({"failure": "forward translation", "got": forward.to_json()})
    back = ulm_to_basic_seq(u)
    if back != b:
        wit.append({"failure": "inverse translation", "got": back.to_json()})
    yield wit, "both directions on this group"


# --------------------------------------------------------------------------
# registry


def all_claim_ids() -> list[str]:
    """Every registered claim id, sorted."""
    return sorted(cid for r in _RUNNERS for cid in r.ids)


def run_claims(
    G: GroupSpec,
    ids: Optional[list[str]] = None,
    max_group: Optional[int] = None,
    max_ring: Optional[int] = None,
    max_ideals: Optional[int] = None,
) -> list[ClaimReport]:
    """Run the registered checks on ``G`` and return reports sorted by id.

    ``ids=None`` runs everything.  A runner whose prerequisites exceed the
    ring or ideal budget, or whose claims do not apply to ``G``, yields
    ``skipped`` reports; a group larger than ``max_group`` is rejected
    outright.  Each report's ``timing`` is its runner's: claims checked by
    one runner share one number.
    """
    group_cap = DEFAULT_MAX_GROUP_ORDER if max_group is None else max_group
    if G.order > group_cap:
        raise GroupTooLargeError(f"|G| = {G.order} exceeds cap {group_cap}")
    known = set(all_claim_ids())
    wanted = known if ids is None else set(ids)
    unknown = wanted - known
    if unknown:
        raise InvalidInputError(f"unknown claim ids: {sorted(unknown)}")
    ctx = ClaimContext(
        group=G,
        max_ring=DEFAULT_MAX_RING_ORDER if max_ring is None else max_ring,
        max_ideals=DEFAULT_MAX_IDEAL_RING_ORDER if max_ideals is None else max_ideals,
    )
    name = G.describe()
    out: list[ClaimReport] = []
    for runner in _RUNNERS:
        if wanted.isdisjoint(runner.ids):
            continue
        start = perf_counter()
        try:
            found, skip = list(runner.fn(ctx)), None
        except (BudgetExceededError, _Skip) as exc:
            found, skip = [None] * len(runner.ids), str(exc)
        elapsed = perf_counter() - start
        for cid, f in zip(runner.ids, found, strict=True):
            if cid in wanted:
                out.append(
                    ClaimReport(cid, "skipped", name, checked=skip, timing=elapsed)
                    if f is None
                    else _verdict(cid, name, *f, timing=elapsed)
                )
    out.sort(key=lambda r: r.claim_id)
    return out
