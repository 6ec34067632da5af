"""Claim registry: every mechanically checkable statement, keyed by stable id.

Each runner produces one or more :class:`ClaimReport`s for a single group.
Runners share a :class:`ClaimContext` that lazily materializes the expensive
artifacts (admissible indicators, fundamental matrix, fully invariant lattice,
the endomorphism ring and its ideal lattice) under the caller's budgets; a budget
overrun downgrades every claim of that runner to ``skipped`` rather than
failing the whole run.

``run_claims`` is the single entry point used by the CLI ``verify``
subcommand and by the test suite.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExceededError, GroupTooLargeError, InvalidInputError
from .groups import (
    DEFAULT_MAX_GROUP_ORDER,
    GroupSpec,
    _grid,
    _table,
    block_subgroup,
    enumerate_elements,
    fundamental_subgroup,
    subgroup_leq,
)
from .indicators import (
    Indicator,
    admissible_glb,
    admissible_lub,
    check_endo_monotone,
    enumerate_admissible,
    ind_max,
    ind_min,
    ind_of,
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
    canonical_fi_form,
    check_fundamental_containment,
    enumerate_fi_subgroups,
    subgroup_name,
    verify_indicator_coverage,
)
from .endos import (
    DEFAULT_MAX_IDEAL_RING_ORDER,
    DEFAULT_MAX_RING_ORDER,
    _cached_ring,
    dagger_ideal,
    enumerate_ideals,
    find_dagger_collision,
    get_ring,
    ideal_generated,
    ideal_leq,
    ring_order,
    special_ideals,
    verify_fun_identities,
    verify_galois_suite,
)
from .reports import ClaimReport
from .symbolic import (
    check_ulm_criterion,
    check_ulm_position_indexing,
    basic_seq_to_ulm,
    basic_sequence_of_group,
    ulm_sequence_of_group,
    ulm_to_basic_seq,
    verify_descriptor_rule,
)
from .reference import (
    REFERENCE_PATH_TALLY,
    REFERENCE_PATH_TOTAL,
    REFERENCE_TABLE,
    reference_collision_generators,
    ulm_accept_example,
    ulm_reject_example,
)

#: Exhaustive transitivity checking is quadratic in |G| with an orbit
#: computation per element, so it is restricted to small groups.
TRANSITIVITY_MAX_ORDER = 64


@dataclass
class ClaimContext:
    """Shared lazy state for one group under fixed budgets."""

    group: GroupSpec
    max_ring: int = DEFAULT_MAX_RING_ORDER
    max_ideals: int = DEFAULT_MAX_IDEAL_RING_ORDER
    _admissible: Optional[list] = field(default=None, repr=False)
    _matrix: Optional[object] = field(default=None, repr=False)
    _lattice: Optional[object] = field(default=None, repr=False)
    _ideals: Optional[list] = field(default=None, repr=False)

    def admissible(self) -> list[Indicator]:
        """Admissible indicators in the fixed (length, entries) order."""
        if self._admissible is None:
            self._admissible = sorted(
                enumerate_admissible(self.group), key=lambda s: (s.length, s.entries)
            )
        return self._admissible

    def matrix(self):
        if self._matrix is None:
            self._matrix = build_matrix(self.group)
        return self._matrix

    def ring(self):
        """The ring, refused over ``max_ring``: for work that walks End(G)."""
        return get_ring(self.group, max_ring=self.max_ring)

    def lattice(self):
        if self._lattice is None:
            self._lattice = enumerate_fi_subgroups(self.group)
        return self._lattice

    def ideals(self) -> list:
        if self._ideals is None:
            self.ring()  # refuses a ring over max_ring
            self._ideals = enumerate_ideals(self.group, max_ring=self.max_ideals)
        return self._ideals


def _report(ctx: ClaimContext, claim_id: str, witnesses: list, checked: str, note: str = "") -> ClaimReport:
    return ClaimReport(
        claim_id=claim_id,
        status="refuted" if witnesses else "verified",
        group=ctx.group.describe(),
        witnesses=witnesses[:5],
        checked=checked,
        note=note,
    )


def _skip(ctx: ClaimContext, claim_id: str, reason: str) -> ClaimReport:
    return ClaimReport(
        claim_id=claim_id, status="skipped", group=ctx.group.describe(), checked=reason
    )


# --------------------------------------------------------------------------
# indicator-order checks


def _run_indicator_antitone(ctx: ClaimContext) -> list[ClaimReport]:
    """Refinement of indicators reverses containment of the cut-out subgroups."""
    G = ctx.group
    adm = ctx.admissible()
    subs = {s: indicator_subgroup(G, s) for s in adm}
    wit = []
    for s, t in itertools.permutations(adm, 2):
        if precedes(s, t) and not subgroup_leq(subs[t], subs[s]):
            wit.append({"sigma": list(s.entries), "tau": list(t.entries)})
    return [
        _report(
            ctx,
            "indicator-antitone",
            wit,
            f"{len(adm) * (len(adm) - 1)} ordered admissible pairs",
            note="one direction only; distinct indicators can cut out equal subgroups",
        )
    ]


def _run_min_admissible_bottom(ctx: ClaimContext) -> list[ClaimReport]:
    """The dense indicator (0,...,e-1) is admissible, below everything, and
    cuts out the whole group."""
    G = ctx.group
    bottom = min_admissible(G)
    wit = []
    if not is_admissible(G, bottom):
        wit.append({"failure": "not admissible", "bottom": list(bottom.entries)})
    for s in ctx.admissible():
        if not precedes(bottom, s):
            wit.append({"failure": "not below", "sigma": list(s.entries)})
    if indicator_subgroup(G, bottom).order != G.order:
        wit.append({"failure": "does not cut out G"})
    return [
        _report(
            ctx,
            "min-admissible-bottom",
            wit,
            f"{len(ctx.admissible())} admissible indicators",
        )
    ]


def _run_admissible_minmax_closure(ctx: ClaimContext) -> list[ClaimReport]:
    """Stated: pointwise min/max of admissible indicators stays admissible."""
    G = ctx.group
    adm = ctx.admissible()
    wit = []
    for s, t in itertools.combinations(adm, 2):
        lo = ind_min(s, t)
        if not is_admissible(G, lo):
            wit.append(
                {
                    "op": "min",
                    "sigma": list(s.entries),
                    "tau": list(t.entries),
                    "result": list(lo.entries),
                }
            )
        hi = ind_max(s, t)
        if not is_admissible(G, hi):
            wit.append(
                {
                    "op": "max",
                    "sigma": list(s.entries),
                    "tau": list(t.entries),
                    "result": list(hi.entries),
                }
            )
    n = len(adm)
    return [
        _report(
            ctx, "admissible-minmax-closure", wit, f"{n * (n - 1) // 2} unordered pairs"
        )
    ]


def _run_admissible_pair_bounds(ctx: ClaimContext) -> list[ClaimReport]:
    """Stated: every admissible pair has a greatest admissible lower bound
    and a least admissible upper bound."""
    G = ctx.group
    adm = ctx.admissible()
    universe = set(adm)
    wit = []
    for s, t in itertools.combinations(adm, 2):
        if admissible_glb(G, s, t, universe=universe) is None:
            wit.append({"missing": "glb", "sigma": list(s.entries), "tau": list(t.entries)})
        if admissible_lub(G, s, t, universe=universe) is None:
            wit.append({"missing": "lub", "sigma": list(s.entries), "tau": list(t.entries)})
    n = len(adm)
    return [
        _report(
            ctx, "admissible-pair-bounds", wit, f"{n * (n - 1) // 2} unordered pairs"
        )
    ]


def _run_segment_realizability(ctx: ClaimContext) -> list[ClaimReport]:
    """Stated: every contiguous segment of a realizable indicator is realizable."""
    G = ctx.group
    wit = []
    realizable = [s for s in ctx.admissible() if is_realizable(G, s)]
    for s in realizable:
        n = s.length
        for i in range(n):
            for j in range(i + 1, n + 1):
                seg = Indicator(s.entries[i:j])
                if not is_realizable(G, seg):
                    wit.append(
                        {"indicator": list(s.entries), "segment": list(seg.entries)}
                    )
    return [
        _report(
            ctx,
            "segment-realizability",
            wit,
            f"all segments of {len(realizable)} realizable indicators",
        )
    ]


def _run_indicator_subgroups_invariant(ctx: ClaimContext) -> list[ClaimReport]:
    """Every indicator subgroup is fully invariant."""
    G = ctx.group
    ring = _cached_ring(G)  # the shape only: no ring budget
    wit = []
    for s in ctx.admissible():
        H = indicator_subgroup(G, s)
        if not ring.is_fully_invariant(H):
            wit.append({"sigma": list(s.entries), "order": H.order})
    return [
        _report(
            ctx,
            "indicator-subgroups-invariant",
            wit,
            f"{len(ctx.admissible())} admissible indicators",
        )
    ]


def _run_fi_closure_indicator(ctx: ClaimContext) -> list[ClaimReport]:
    """The smallest fully invariant subgroup containing ``a`` is exactly the
    subgroup cut out by a's own indicator.

    Elements are grouped by their orbit steps and their column of the height
    table, whose entries below exp(G) are their indicator; the orbit and the
    cut are built once per group of elements."""
    G = ctx.group
    t = _table(G)
    steps = _cached_ring(G).orbit_steps(slice(None))  # the shape only: no ring budget
    rows = np.hstack((steps, t.heights.T))
    keys, kind = np.unique(rows, axis=0, return_inverse=True)
    orders = {}  # key number -> (orbit order, cut order), where the two differ
    for k, key in enumerate(keys):
        orbit, h = _grid(G, key[: G.rank]), key[G.rank :]
        cut = indicator_subgroup(G, Indicator(tuple(h[h < G.exponent].tolist())))
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
    return [_report(ctx, "fi-closure-indicator", wit, f"{G.order} elements")]


def _run_indicator_transitivity(ctx: ClaimContext) -> list[ClaimReport]:
    """If ind(a) refines ind(b), some endomorphism maps a onto b."""
    G = ctx.group
    if G.order > TRANSITIVITY_MAX_ORDER:
        return [
            _skip(
                ctx,
                "indicator-transitivity",
                f"|G| = {G.order} exceeds the quadratic-orbit bound {TRANSITIVITY_MAX_ORDER}",
            )
        ]
    ring = _cached_ring(G)  # the shape only: no ring budget
    elements = enumerate_elements(G)
    inds = [ind_of(a) for a in elements]
    wit = []
    for i, a in enumerate(elements):
        in_orbit = np.zeros(len(elements), dtype=bool)
        in_orbit[ring.orbit_indices(i)] = True
        for j, b in enumerate(elements):
            if precedes(inds[i], inds[j]) and not in_orbit[j]:
                wit.append({"from": list(a.coords), "to": list(b.coords)})
    return [
        _report(
            ctx, "indicator-transitivity", wit, f"{len(elements)}^2 ordered pairs"
        )
    ]


# --------------------------------------------------------------------------
# fundamental-subgroup and matrix checks


def _run_fundamental_order_iff(ctx: ClaimContext) -> list[ClaimReport]:
    """Stated: containment of two-parameter subgroups holds exactly when the
    parameters are ordered (deeper height, smaller torsion bound)."""
    G = ctx.group
    e = G.exponent
    cells = [(k, n) for k in range(e) for n in range(1, e + 1)]
    subs = {c: fundamental_subgroup(G, *c) for c in cells}
    wit = []
    for c1, c2 in itertools.product(cells, repeat=2):
        rule = c1[0] >= c2[0] and c1[1] <= c2[1]
        actual = subgroup_leq(subs[c1], subs[c2])
        if rule != actual:
            wit.append(
                {
                    "left": list(c1),
                    "right": list(c2),
                    "parameter_rule": rule,
                    "containment": actual,
                }
            )
    return [
        _report(ctx, "fundamental-order-iff", wit, f"{len(cells)}^2 parameter pairs")
    ]


def _run_matrix_suite(ctx: ClaimContext) -> list[ClaimReport]:
    M = ctx.matrix()
    G = ctx.group
    out = [check_monotone(M), check_distinct(M)]
    out.extend(check_join_meet(M))
    out.extend(check_quartering(M))
    out.append(check_alias(M))
    out.append(check_path_roundtrip(M))
    out.append(path_chain_check(G, matrix=M))
    out.extend(verify_sigma_sum(G, matrix=M))
    return out


def _run_path_realization(ctx: ClaimContext) -> list[ClaimReport]:
    """Stated: the column sequence of every rising path is the indicator of
    some element."""
    G = ctx.group
    M = ctx.matrix()
    wit = []
    paths = enumerate_rising_paths(M)
    seen = set()
    for path in paths:
        sigma = path_to_indicator(path)
        if sigma in seen:
            continue
        seen.add(sigma)
        if not is_realizable(G, sigma):
            wit.append({"columns": list(sigma.entries)})
    return [
        _report(
            ctx,
            "path-realization",
            wit,
            f"{len(paths)} paths, {len(seen)} distinct column sequences",
        )
    ]


def _run_path_count_accounting(ctx: ClaimContext) -> list[ClaimReport]:
    """The bundled per-length path tally, against exhaustive enumeration."""
    G = ctx.group
    if G.components != ((2, 1), (4, 1)):
        return [
            _skip(
                ctx,
                "path-count-accounting",
                "tally is bundled for the Z(p^2)+Z(p^4) shape only",
            )
        ]
    computed = path_tally(ctx.matrix())
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
    return [
        _report(
            ctx,
            "path-count-accounting",
            wit,
            "exhaustive rising-path enumeration",
            note="listed tally counts column sequences by largest column, not paths",
        )
    ]


def _run_reference_table_rows(ctx: ClaimContext) -> list[ClaimReport]:
    """Each bundled table row: does its indicator cut out the listed subgroup?"""
    G = ctx.group
    if G.components != ((2, 1), (4, 1)):
        return [
            _skip(
                ctx,
                "reference-table-rows",
                "table is bundled for the Z(p^2)+Z(p^4) shape only",
            )
        ]
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
                    "computed_name": subgroup_name(G, cut),
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
    return [
        _report(ctx, "reference-table-rows", wit, f"{len(REFERENCE_TABLE)} rows", note)
    ]


# --------------------------------------------------------------------------
# endomorphism-ring checks


def _run_endo_monotone(ctx: ClaimContext) -> list[ClaimReport]:
    return [check_endo_monotone(ctx.group, max_ring=ctx.max_ring)]


def _run_endo_height_exponent(ctx: ClaimContext) -> list[ClaimReport]:
    """Endomorphisms never decrease height and never increase exponent."""
    G = ctx.group
    ring = ctx.ring()
    n = G.order
    table = _table(G)
    h, ex = table.heights[0], table.exponents
    wit = []
    for start, block in ring.action_chunks():
        bad = (h[block] < h[None, :]) | (ex[block] > ex[None, :])
        if not bad.any():
            continue
        for f_off, j in zip(*np.nonzero(bad)):
            wit.append(
                {
                    "endomorphism": ring.endo_of_index(start + int(f_off)).to_json()[
                        "matrix"
                    ],
                    "element": list(ring.element_of_index(int(j)).coords),
                    "image": list(ring.element_of_index(int(block[f_off, j])).coords),
                }
            )
            if len(wit) >= 5:
                break
        if len(wit) >= 5:
            break
    return [
        _report(
            ctx,
            "endo-height-exponent",
            wit,
            f"{ring.size} endomorphisms x {n} elements",
        )
    ]


def _run_rank_subadditivity(ctx: ClaimContext) -> list[ClaimReport]:
    """Image rank of a sum of endomorphisms is at most the sum of the ranks.

    Rank here is the p-log of the image's socle size, read off the action
    rows; the sum's row is the pointwise element sum of the two rows.
    """
    G = ctx.group
    ring = ctx.ring()
    ex = _table(G).exponents

    def row_rank(row: np.ndarray) -> int:
        socle = int((ex[np.unique(row)] <= 1).sum())
        return round(math.log(socle, G.p))

    size = ring.size
    step = max(1, math.ceil(size / 128))
    sel = np.arange(0, size, step, dtype=np.int64)
    rows = ring.action_rows(sel)
    ranks = [row_rank(rows[i]) for i in range(len(sel))]
    wit = []
    for i, j in itertools.combinations(range(len(sel)), 2):
        total = row_rank(ring.add_element_indices(rows[i], rows[j]))
        if total > ranks[i] + ranks[j]:
            wit.append(
                {
                    "f": ring.endo_of_index(int(sel[i])).to_json()["matrix"],
                    "g": ring.endo_of_index(int(sel[j])).to_json()["matrix"],
                    "rank_sum": ranks[i] + ranks[j],
                    "rank_of_sum": total,
                }
            )
    mode = "exhaustive" if step == 1 else f"stride-{step} sample"
    return [
        _report(
            ctx,
            "rank-subadditivity",
            wit,
            f"{mode}: {len(sel)} endomorphisms pairwise",
        )
    ]


def _run_fun_identities(ctx: ClaimContext) -> list[ClaimReport]:
    ctx.ring()  # daggers need the full ring
    return verify_fun_identities(ctx.group)


def _run_galois_suite(ctx: ClaimContext) -> list[ClaimReport]:
    return verify_galois_suite(ctx.group, nodes=ctx.lattice().nodes, ideals=ctx.ideals())


def _run_collision_recipe(ctx: ClaimContext) -> list[ClaimReport]:
    """Non-homocyclic groups admit two distinct ideals with equal image;
    homocyclic groups do not."""
    G = ctx.group
    homocyclic = len(G.components) == 1
    if homocyclic and ring_order(G) > ctx.max_ideals:
        return [
            _skip(
                ctx,
                "collision-recipe",
                f"|End(G)| = {ring_order(G)} exceeds the ideal-enumeration cap"
                f" {ctx.max_ideals} needed to certify absence",
            )
        ]
    ctx.ring()
    got = find_dagger_collision(G)
    wit = []
    if homocyclic:
        if got is not None:
            I, J = got
            wit.append({"unexpected_pair_sizes": [I.size, J.size]})
        checked = "exhaustive ideal enumeration"
    else:
        if got is None:
            wit.append({"failure": "no pair found"})
        else:
            I, J = got
            if I == J:
                wit.append({"failure": "pair not distinct"})
            elif dagger_ideal(G, I) != dagger_ideal(G, J):
                wit.append({"failure": "images differ", "sizes": [I.size, J.size]})
        checked = "constructed pair validated"
    return [_report(ctx, "collision-recipe", wit, checked)]


def _run_named_collision_pair(ctx: ClaimContext) -> list[ClaimReport]:
    """The bundled pair: both ideals are claimed to push forward to the socle."""
    G = ctx.group
    if G.components != ((2, 1), (4, 1)):
        return [
            _skip(
                ctx,
                "named-collision-pair",
                "pair is bundled for the Z(p^2)+Z(p^4) shape only",
            )
        ]
    f, g = reference_collision_generators(G)
    I = ideal_generated(G, [f], max_ring=ctx.max_ring)
    J = ideal_generated(G, [g], max_ring=ctx.max_ring)
    socle = fundamental_subgroup(G, 0, 1)
    img_i = dagger_ideal(G, I)
    img_j = dagger_ideal(G, J)
    wit = []
    for label, img in (("scalar p^3", img_i), ("diag(p, p^3)", img_j)):
        if img != socle:
            wit.append(
                {
                    "generator": label,
                    "image_shifts": list(canonical_fi_form(G, img)),
                    "image_order": img.order,
                    "socle_order": socle.order,
                }
            )
    return [
        _report(
            ctx,
            "named-collision-pair",
            wit,
            "both bundled generators pushed forward",
            note="the diagonal generator does reach the socle; the scalar one stops"
            " at the top power subgroup",
        )
    ]


def _run_homocyclic_ideal_chain(ctx: ClaimContext) -> list[ClaimReport]:
    """Homocyclic groups: the ideals are exactly the scaled rings p^k E."""
    G = ctx.group
    if len(G.components) > 1:
        return [
            _skip(ctx, "homocyclic-ideal-chain", "applies to homocyclic groups only")
        ]
    n = G.components[0][0]
    ideals = ctx.ideals()
    wit = []
    if len(ideals) != n + 1:
        wit.append({"ideal_count": len(ideals), "expected": n + 1})
    if {special_ideals(G, k)[0] for k in range(n + 1)} != set(ideals):
        wit.append({"failure": "ideal set differs from the scaled rings"})
    for I, J in itertools.combinations(ideals, 2):
        if not (ideal_leq(I, J) or ideal_leq(J, I)):
            wit.append({"incomparable_sizes": [I.size, J.size]})
    return [
        _report(
            ctx,
            "homocyclic-ideal-chain",
            wit,
            f"{len(ideals)} ideals vs p^k E for k in [0, {n}]",
        )
    ]


# --------------------------------------------------------------------------
# lattice and symbolic checks


def _run_indicator_coverage(ctx: ClaimContext) -> list[ClaimReport]:
    return [verify_indicator_coverage(ctx.group, lattice=ctx.lattice())]


def _run_fundamental_containment(ctx: ClaimContext) -> list[ClaimReport]:
    return [check_fundamental_containment(ctx.group)]


def _run_descriptor_rule(ctx: ClaimContext) -> list[ClaimReport]:
    ctx.ring()  # daggers need the full ring
    return verify_descriptor_rule(ctx.group)


def _run_ulm_position_indexing(ctx: ClaimContext) -> list[ClaimReport]:
    return [check_ulm_position_indexing(ctx.group)]


def _run_ulm_criterion_examples(ctx: ClaimContext) -> list[ClaimReport]:
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
    return [
        _report(
            ctx,
            "ulm-criterion-examples",
            wit,
            "reject + accept examples and this group's sequence",
            note="the two examples are group-independent",
        )
    ]


def _run_basic_roundtrip(ctx: ClaimContext) -> list[ClaimReport]:
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
    return [_report(ctx, "basic-roundtrip", wit, "both directions on this group")]


# --------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class _Runner:
    ids: tuple[str, ...]
    fn: Callable[[ClaimContext], list[ClaimReport]]


_RUNNERS: tuple[_Runner, ...] = (
    _Runner(("indicator-antitone",), _run_indicator_antitone),
    _Runner(("min-admissible-bottom",), _run_min_admissible_bottom),
    _Runner(("admissible-minmax-closure",), _run_admissible_minmax_closure),
    _Runner(("admissible-pair-bounds",), _run_admissible_pair_bounds),
    _Runner(("segment-realizability",), _run_segment_realizability),
    _Runner(("indicator-subgroups-invariant",), _run_indicator_subgroups_invariant),
    _Runner(("fi-closure-indicator",), _run_fi_closure_indicator),
    _Runner(("indicator-transitivity",), _run_indicator_transitivity),
    _Runner(("fundamental-order-iff",), _run_fundamental_order_iff),
    _Runner(
        (
            "matrix-monotone",
            "matrix-distinct-entries",
            "matrix-meet-formula",
            "matrix-join-formula",
            "quartering-containments",
            "quartering-incomparability",
            "alias-to-marker",
            "path-roundtrip",
            "path-subgroup-chain",
            "sigma-sum-equality",
            "sigma-sum-containment",
        ),
        _run_matrix_suite,
    ),
    _Runner(("path-realization",), _run_path_realization),
    _Runner(("path-count-accounting",), _run_path_count_accounting),
    _Runner(("reference-table-rows",), _run_reference_table_rows),
    _Runner(("endo-indicator-monotone",), _run_endo_monotone),
    _Runner(("endo-height-exponent",), _run_endo_height_exponent),
    _Runner(("rank-subadditivity",), _run_rank_subadditivity),
    _Runner(
        (
            "power-ideal-dagger",
            "power-subgroup-dagger",
            "socle-ideal-dagger",
            "socle-subgroup-dagger",
        ),
        _run_fun_identities,
    ),
    _Runner(
        (
            "dagger-well-defined",
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
        ),
        _run_galois_suite,
    ),
    _Runner(("collision-recipe",), _run_collision_recipe),
    _Runner(("named-collision-pair",), _run_named_collision_pair),
    _Runner(("homocyclic-ideal-chain",), _run_homocyclic_ideal_chain),
    _Runner(("indicator-coverage",), _run_indicator_coverage),
    _Runner(("fundamental-containment",), _run_fundamental_containment),
    _Runner(
        ("descriptor-rule-as-stated", "descriptor-rule-empirical"), _run_descriptor_rule
    ),
    _Runner(("ulm-position-indexing",), _run_ulm_position_indexing),
    _Runner(("ulm-criterion-examples",), _run_ulm_criterion_examples),
    _Runner(("basic-roundtrip",), _run_basic_roundtrip),
)


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
    ring or ideal budget yields ``skipped`` reports; a group larger than
    ``max_group`` is rejected outright.
    """
    group_cap = DEFAULT_MAX_GROUP_ORDER if max_group is None else max_group
    if G.order > group_cap:
        raise GroupTooLargeError(f"|G| = {G.order} exceeds cap {group_cap}")
    if ids is not None:
        unknown = set(ids) - set(all_claim_ids())
        if unknown:
            raise InvalidInputError(f"unknown claim ids: {sorted(unknown)}")
        wanted = set(ids)
    else:
        wanted = set(all_claim_ids())
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
        except BudgetExceededError as exc:
            reports = [_skip(ctx, cid, str(exc)) for cid in runner.ids]
        elapsed = perf_counter() - start
        for r in reports:
            if r.claim_id in wanted:
                out.append(replace(r, timing=elapsed))
    out.sort(key=lambda r: r.claim_id)
    return out
