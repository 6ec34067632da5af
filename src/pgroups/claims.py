"""Claim registry: every mechanically checkable statement, keyed by stable id.

Each runner is registered where it is defined: ``_claim(id)`` for a runner of
one claim, which returns what it found and gets its report built, and
``_suite(*ids)`` for a runner that returns its reports itself.  Runners share
a :class:`ClaimContext` that lazily materializes the admissible indicators and
their table cuts, the element classes and the ideal listing under the caller's
budgets.  Only ``dagger-well-defined`` holds member sets of End(G), the
oracles of the shift forms.  A budget overrun, or a ``_Skip`` raised by a
runner whose claims do not apply to the group, downgrades every claim of that
runner to ``skipped`` rather than failing the whole run.

``run_claims`` is the single entry point used by the CLI ``verify``
subcommand and by the test suite.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from time import perf_counter
from typing import Callable, Optional, Union

import numpy as np

from .errors import BudgetExceededError, GroupTooLargeError, InvalidInputError
from .groups import (
    DEFAULT_MAX_GROUP_ORDER,
    DEFAULT_MAX_SUBGROUP_SIZE,
    GroupSpec,
    _bits,
    _block_order,
    _fundamental_shifts,
    _grid,
    _orbit_steps,
    _table,
    _within,
    block_subgroup,
)
from .indicators import (
    Indicator,
    _cut_order,
    _padded,
    _pair_bounds,
    _precedes_matrix,
    _sorted_indicators,
    enumerate_admissible,
    indicator_subgroup,
    is_admissible,
    is_realizable,
    min_admissible,
    precedes,
)
from .matrix import (
    build_matrix,
    check_alias,
    check_distinct,
    check_join_meet,
    check_monotone,
    check_path_roundtrip,
    check_quartering,
    enumerate_rising_paths,
    path_chain_check,
    path_tally,
    path_to_indicator,
    verify_sigma_sum,
)
from .lattice import (
    _shift_name,
    canonical_fi_form,
    check_fundamental_containment,
    enumerate_fi_subgroups,
    verify_indicator_coverage,
)
from .endos import (
    DEFAULT_MAX_IDEAL_RING_ORDER,
    DEFAULT_MAX_RING_ORDER,
    _cached_ring,
    _endo_action_claims,
    _galois_reports,
    _ideal_census,
    _image_ranks,
    _image_shifts,
    _well_defined_witnesses,
    enumerate_ideals,
    find_dagger_collision,
    get_ring,
    ideal_generated,
    ideal_leq,
    ring_order,
    special_ideals,
    verify_descriptor_rule,
    verify_fun_identities,
)
from .reports import ClaimReport, _verdict
from .symbolic import (
    check_ulm_criterion,
    check_ulm_position_indexing,
    basic_seq_to_ulm,
    basic_sequence_of_group,
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
    built on first use and kept (the lattice and matrix have process caches)."""

    group: GroupSpec
    max_ring: int = DEFAULT_MAX_RING_ORDER
    max_ideals: int = DEFAULT_MAX_IDEAL_RING_ORDER

    @cached_property
    def admissible(self) -> list[Indicator]:
        """Admissible indicators in the fixed (length, entries) order."""
        return _sorted_indicators(enumerate_admissible(self.group))

    @cached_property
    def cuts(self) -> dict:
        """The table cut of each admissible indicator, scanned once.  The
        bottom cut is G itself, so a group over the subgroup cap is refused
        before any scan."""
        G, cap = self.group, DEFAULT_MAX_SUBGROUP_SIZE
        if G.order > cap:
            raise GroupTooLargeError(f"subgroup with {G.order} elements exceeds cap {cap}")
        return {s: indicator_subgroup(G, s) for s in self.admissible}

    @cached_property
    def element_classes(self) -> tuple:
        """Elements grouped by orbit steps and height-table column: ``keys``
        (one row per class), ``kind[x]`` (x's class) and the class indicators."""
        G = self.group
        t = _table(G)
        keys, kind = np.unique(
            np.hstack((_orbit_steps(G, t.coords), t.heights.T)), axis=0, return_inverse=True
        )
        inds = [Indicator(tuple(h[h < G.exponent].tolist())) for h in keys[:, G.rank :]]
        return keys, kind.reshape(-1), inds

    def ring(self):
        """The ring, refused over ``max_ring``: for work that walks End(G)."""
        return get_ring(self.group, max_ring=self.max_ring)

    @cached_property
    def ideals(self) -> list:
        self.ring()  # refuses a ring over max_ring
        return enumerate_ideals(self.group, max_ideals=self.max_ideals)


def _report(ctx: ClaimContext, claim_id: str, witnesses: list, checked: str, note: str = "") -> ClaimReport:
    return _verdict(claim_id, ctx.group.describe(), witnesses[:5], checked, note)


def _skip(ctx: ClaimContext, claim_id: str, reason: str) -> ClaimReport:
    return ClaimReport(
        claim_id=claim_id, status="skipped", group=ctx.group.describe(), checked=reason
    )


class _Skip(Exception):
    """Raised by a runner whose claims do not apply to the group; the message
    is the reason every one of its reports gives."""


@dataclass(frozen=True)
class _Runner:
    ids: tuple[str, ...]
    fn: Callable[[ClaimContext], list[ClaimReport]]


#: Filled by ``_suite`` and ``_claim`` in definition order, which decides the
#: runner that first fills each of ``ClaimContext``'s cached artifacts.
_RUNNERS: list[_Runner] = []

#: What a one-claim runner found: ``(witnesses, checked)`` or
#: ``(witnesses, checked, note)``.
_Found = Union[tuple[list, str], tuple[list, str, str]]


def _suite(*ids: str):
    """Register a runner that returns the reports of ``ids`` itself."""

    def register(fn: Callable[[ClaimContext], list[ClaimReport]]):
        _RUNNERS.append(_Runner(ids, fn))
        return fn

    return register


def _claim(claim_id: str):
    """Register a runner of one claim; its report is built from what it found."""

    def register(fn: Callable[[ClaimContext], _Found]):
        _suite(claim_id)(lambda ctx: [_report(ctx, claim_id, *fn(ctx))])
        return fn

    return register


# --------------------------------------------------------------------------
# indicator-order checks


@_claim("indicator-antitone")
def _run_indicator_antitone(ctx: ClaimContext) -> _Found:
    """Refinement of indicators reverses containment of the cut-out subgroups.

    The order is one matrix (:func:`pgroups.indicators._precedes_matrix`);
    containment is read off the member bitmasks of the table cuts.  Pairs are
    read in row-major order, the order of ``itertools.permutations``: a cut
    contains itself, so the diagonal gives no witness."""
    adm = ctx.admissible
    bits = [_bits(ctx.cuts[s].indices) for s in adm]
    wit = [
        {"sigma": list(adm[i].entries), "tau": list(adm[j].entries)}
        for i, j in np.argwhere(_precedes_matrix(adm)).tolist()
        if bits[j] & ~bits[i]
    ]
    return (
        wit,
        f"{len(adm) * (len(adm) - 1)} ordered admissible pairs",
        "one direction only; distinct indicators can cut out equal subgroups",
    )


@_claim("min-admissible-bottom")
def _run_min_admissible_bottom(ctx: ClaimContext) -> _Found:
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
    return wit, f"{len(ctx.admissible)} admissible indicators"


@_claim("admissible-minmax-closure")
def _run_admissible_minmax_closure(ctx: ClaimContext) -> _Found:
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
    return wit, f"{n * (n - 1) // 2} unordered pairs"


@_claim("admissible-pair-bounds")
def _run_admissible_pair_bounds(ctx: ClaimContext) -> _Found:
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
    return wit, f"{n * (n - 1) // 2} unordered pairs"


@_claim("segment-realizability")
def _run_segment_realizability(ctx: ClaimContext) -> _Found:
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
    return wit, f"all segments of {len(realizable)} realizable indicators"


@_claim("indicator-subgroups-invariant")
def _run_indicator_subgroups_invariant(ctx: ClaimContext) -> _Found:
    """Every indicator subgroup is fully invariant."""
    cuts = ctx.cuts  # refused over the subgroup cap before the shape is built
    ring = _cached_ring(ctx.group)  # the shape only: no ring budget
    wit = []
    for s, H in cuts.items():
        if not ring.is_fully_invariant(H):
            wit.append({"sigma": list(s.entries), "order": H.order})
    return wit, f"{len(ctx.admissible)} admissible indicators"


@_claim("fi-closure-indicator")
def _run_fi_closure_indicator(ctx: ClaimContext) -> _Found:
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
    return wit, f"{G.order} elements"


@_claim("indicator-transitivity")
def _run_indicator_transitivity(ctx: ClaimContext) -> _Found:
    """If ind(a) refines ind(b), some endomorphism maps a onto b.

    Elements fall into classes by their orbit steps and their column of the
    height table, as for ``fi-closure-indicator``.  ``precedes`` is one matrix
    over the classes (:func:`pgroups.indicators._precedes_matrix`) and each
    class's orbit is tested against every element, so the ``|G|^2`` pairs
    are one array, read in row-major order."""
    G = ctx.group
    if G.order > TRANSITIVITY_MAX_ORDER:
        raise _Skip(f"|G| = {G.order} exceeds the quadratic-orbit bound {TRANSITIVITY_MAX_ORDER}")
    t = _table(G)
    keys, kind, inds = ctx.element_classes
    refines = _precedes_matrix(inds)
    # [class, element]: the element lies in the class's orbit
    in_orbit = (t.coords[None] % keys[:, None, : G.rank] == 0).all(axis=2)
    missed = refines[kind[:, None], kind[None, :]] & ~in_orbit[kind]
    wit = [
        {"from": t.coords[i].tolist(), "to": t.coords[j].tolist()}
        for i, j in np.argwhere(missed)
    ]
    return wit, f"{G.order}^2 ordered pairs"


# --------------------------------------------------------------------------
# fundamental-subgroup and matrix checks


@_claim("fundamental-order-iff")
def _run_fundamental_order_iff(ctx: ClaimContext) -> _Found:
    """Stated: containment of two-parameter subgroups holds exactly when the
    parameters are ordered (deeper height, smaller torsion bound); read off
    their block shifts, all pairs at once, in the order of
    ``itertools.product``."""
    G = ctx.group
    e = G.exponent
    cells = [(k, n) for k in range(e) for n in range(1, e + 1)]
    kappa, n = np.array(cells).T
    rule = (kappa[:, None] >= kappa[None]) & (n[:, None] <= n[None])
    F = np.array([_fundamental_shifts(G, *c) for c in cells])
    actual = _within(F, F)
    wit = [
        {
            "left": list(cells[a]),
            "right": list(cells[b]),
            "parameter_rule": bool(rule[a, b]),
            "containment": bool(actual[a, b]),
        }
        for a, b in np.argwhere(rule != actual)[:5].tolist()
    ]
    return wit, f"{len(cells)}^2 parameter pairs"


@_suite(
    "matrix-monotone",
    "matrix-distinct-entries",
    "matrix-meet-formula",
    "matrix-join-formula",
    "quartering-containments",
    "quartering-incomparability",
    "alias-to-marker",
    "path-roundtrip",
)
def _run_matrix_suite(ctx: ClaimContext) -> list[ClaimReport]:
    M = build_matrix(ctx.group)
    out = [check_monotone(M), check_distinct(M), *check_join_meet(M), *check_quartering(M)]
    return out + [check_alias(M), check_path_roundtrip(M)]


@_claim("path-realization")
def _run_path_realization(ctx: ClaimContext) -> _Found:
    """Stated: the column sequence of every rising path is the indicator of
    some element."""
    paths = enumerate_rising_paths(build_matrix(ctx.group))
    seen = dict.fromkeys(map(path_to_indicator, paths))  # in order of first use
    wit = [{"columns": list(s.entries)} for s in seen if not is_realizable(ctx.group, s)]
    return wit, f"{len(paths)} paths, {len(seen)} distinct column sequences"


@_claim("path-count-accounting")
def _run_path_count_accounting(ctx: ClaimContext) -> _Found:
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
    return (
        wit,
        "exhaustive rising-path enumeration",
        "listed tally counts column sequences by largest column, not paths",
    )


@_claim("reference-table-rows")
def _run_reference_table_rows(ctx: ClaimContext) -> _Found:
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
    return wit, f"{len(REFERENCE_TABLE)} rows", note


# --------------------------------------------------------------------------
# endomorphism-ring checks


@_suite("endo-height-exponent", "endo-indicator-monotone")
def _run_endo_action(ctx: ClaimContext) -> list[ClaimReport]:
    return _endo_action_claims(ctx.group, max_ring=ctx.max_ring)


@_claim("rank-subadditivity")
def _run_rank_subadditivity(ctx: ClaimContext) -> _Found:
    """Image rank of a sum of endomorphisms is at most the sum of the ranks.

    Rank here is the number of cyclic summands of the image, read off the
    generator matrices (:func:`_image_ranks`); the sum's matrix is the
    entrywise sum of the two.
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
    totals = _image_ranks(G, (mats[i] + mats[j]) % ring.moduli)
    wit = [
        {
            "f": ring.endo_of_index(int(sel[i[k]])).to_json()["matrix"],
            "g": ring.endo_of_index(int(sel[j[k]])).to_json()["matrix"],
            "rank_sum": int(ranks[i[k]] + ranks[j[k]]),
            "rank_of_sum": int(totals[k]),
        }
        for k in np.flatnonzero(totals > ranks[i] + ranks[j])
    ]
    mode = "exhaustive" if step == 1 else f"stride-{step} sample"
    return wit, f"{mode}: {len(sel)} endomorphisms pairwise"


@_suite(
    "power-ideal-dagger",
    "power-subgroup-dagger",
    "socle-ideal-dagger",
    "socle-subgroup-dagger",
)
def _run_fun_identities(ctx: ClaimContext) -> list[ClaimReport]:
    ctx.ring()  # the README's --max-ring gate; the identities read no ring
    return verify_fun_identities(ctx.group)


@_claim("dagger-well-defined")
def _run_dagger_well_defined(ctx: ClaimContext) -> _Found:
    """The ideal listing and both dagger maps agree with the census, the
    listed ideals' members and the nodes as block subgroups
    (:func:`pgroups.endos._well_defined_witnesses`)."""
    G = ctx.group
    ideals = ctx.ideals  # refuses a ring over max_ring or max_ideals first
    census = _ideal_census(G, max_ideals=ctx.max_ideals)
    nodes = enumerate_fi_subgroups(G).nodes
    wit = _well_defined_witnesses(_cached_ring(G), nodes, ideals, census)
    return wit, f"{len(nodes)} subgroups, {len(ideals)} ideals"


@_suite(
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
def _run_galois_suite(ctx: ClaimContext) -> list[ClaimReport]:
    ideals = ctx.ideals  # refuses a ring over max_ring or max_ideals first
    return _galois_reports(ctx.group, np.array([I.shifts for I in ideals]))


@_claim("collision-recipe")
def _run_collision_recipe(ctx: ClaimContext) -> _Found:
    """Non-homocyclic groups admit two distinct ideals with equal image;
    homocyclic groups do not."""
    G = ctx.group
    homocyclic = len(G.components) == 1
    if homocyclic and ring_order(G) > ctx.max_ideals:
        raise _Skip(
            f"|End(G)| = {ring_order(G)} exceeds the ideal-enumeration cap"
            f" {ctx.max_ideals} needed to certify absence"
        )
    ctx.ring()
    got = find_dagger_collision(G, ideals=ctx.ideals if homocyclic else None)
    wit = []
    if homocyclic:
        if got is not None:
            I, J = got
            wit.append({"unexpected_pair_sizes": [I.size, J.size]})
        return wit, "exhaustive ideal enumeration"
    if got is None:
        wit.append({"failure": "no pair found"})
    else:
        I, J = got
        if I == J:
            wit.append({"failure": "pair not distinct"})
        elif _image_shifts(G, I) != _image_shifts(G, J):
            wit.append({"failure": "images differ", "sizes": [I.size, J.size]})
    return wit, "constructed pair validated"


@_claim("named-collision-pair")
def _run_named_collision_pair(ctx: ClaimContext) -> _Found:
    """The bundled pair: both ideals are claimed to push forward to the socle."""
    G = ctx.group
    if G.components != ((2, 1), (4, 1)):
        raise _Skip("pair is bundled for the Z(p^2)+Z(p^4) shape only")
    f, g = reference_collision_generators(G)
    ctx.ring()
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
    return (
        wit,
        "both bundled generators pushed forward",
        "the diagonal generator does reach the socle; the scalar one stops"
        " at the top power subgroup",
    )


@_claim("homocyclic-ideal-chain")
def _run_homocyclic_ideal_chain(ctx: ClaimContext) -> _Found:
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
    return wit, f"{len(ideals)} ideals vs p^k E for k in [0, {n}]"


# --------------------------------------------------------------------------
# lattice and symbolic checks


@_suite("indicator-coverage")
def _run_indicator_coverage(ctx: ClaimContext) -> list[ClaimReport]:
    return [verify_indicator_coverage(ctx.group, ctx.cuts)]


@_suite(
    "fundamental-containment",
    "path-subgroup-chain",
    "sigma-sum-equality",
    "sigma-sum-containment",
)
def _run_fundamental_containment(ctx: ClaimContext) -> list[ClaimReport]:
    G, cuts = ctx.group, ctx.cuts
    out = [check_fundamental_containment(G, cuts), path_chain_check(G, cuts)]
    return out + verify_sigma_sum(G, cuts)


@_suite("descriptor-rule-as-stated", "descriptor-rule-empirical")
def _run_descriptor_rule(ctx: ClaimContext) -> list[ClaimReport]:
    ctx.ring()  # the README's --max-ring gate; the rule reads no ring
    return verify_descriptor_rule(ctx.group)


@_suite("ulm-position-indexing")
def _run_ulm_position_indexing(ctx: ClaimContext) -> list[ClaimReport]:
    return [check_ulm_position_indexing(ctx.group)]


@_claim("ulm-criterion-examples")
def _run_ulm_criterion_examples(ctx: ClaimContext) -> _Found:
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
    return (
        wit,
        "reject + accept examples and this group's sequence",
        "the two examples are group-independent",
    )


@_claim("basic-roundtrip")
def _run_basic_roundtrip(ctx: ClaimContext) -> _Found:
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
    return wit, "both directions on this group"


# --------------------------------------------------------------------------
# registry


def all_claim_ids() -> list[str]:
    """Every registered claim id, sorted."""
    out = []
    for r in _RUNNERS:
        out.extend(r.ids)
    return sorted(out)


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
    outright.
    """
    group_cap = DEFAULT_MAX_GROUP_ORDER if max_group is None else max_group
    if G.order > group_cap:
        raise GroupTooLargeError(f"|G| = {G.order} exceeds cap {group_cap}")
    wanted = set(all_claim_ids() if ids is None else ids)
    unknown = wanted - set(all_claim_ids())
    if unknown:
        raise InvalidInputError(f"unknown claim ids: {sorted(unknown)}")
    ctx = ClaimContext(
        group=G,
        max_ring=DEFAULT_MAX_RING_ORDER if max_ring is None else max_ring,
        max_ideals=DEFAULT_MAX_IDEAL_RING_ORDER if max_ideals is None else max_ideals,
    )
    out: list[ClaimReport] = []
    for runner in _RUNNERS:
        if wanted.isdisjoint(runner.ids):
            continue
        start = perf_counter()
        try:
            reports = runner.fn(ctx)
        except (BudgetExceededError, _Skip) as exc:
            reports = [_skip(ctx, cid, str(exc)) for cid in runner.ids]
        elapsed = perf_counter() - start
        for r in reports:
            if r.claim_id in wanted:
                out.append(replace(r, timing=elapsed))
    out.sort(key=lambda r: r.claim_id)
    return out
