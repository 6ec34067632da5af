"""Acceptance gate: nine pinned criteria, one verdict line each.

Each test prints exactly one ``criterion N: PASS/FAIL`` line into the
terminal summary (via the ``acceptance_log`` fixture), carrying the measured
numbers next to the pinned tolerances.  Oracles here are coded from scratch
on purpose — set arithmetic on explicit coordinate tuples — so a regression
in the package cannot hide inside the checker.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product

import pytest

from pgroups import (
    Indicator,
    Ordinal,
    add,
    apply,
    build_matrix,
    check_ulm_criterion,
    dagger_ideal,
    entry_join,
    entry_meet,
    enumerate_admissible,
    enumerate_elements,
    enumerate_endos,
    find_dagger_collision,
    indicator_subgroup,
    indicator_to_path,
    load_allowlist,
    make_group,
    path_to_indicator,
    principal_ideal,
    reference_collision_generators,
    reference_group,
    ring_order,
    run_claims,
    subgroup_generated,
    subgroup_name,
    ulm_sequence_of_group,
    unexpected_refutations,
)
from pgroups.cli import main
from pgroups.reference import (
    REFERENCE_TABLE,
    ulm_accept_example,
    ulm_reject_example,
)

from conftest import own_pgroups_env
from ring_family import DAGGER_SUITE, FUN_IDENTITIES

RING_GATE = 2**12

#: The groups every "on every test group" clause ranges over.
ROSTER = [
    make_group(2, [(1, 1), (2, 1)]),  # Z(2) + Z(4)
    make_group(2, [(1, 1), (3, 1)]),  # Z(2) + Z(8)
    make_group(3, [(1, 1), (2, 1)]),  # Z(3) + Z(9)
    make_group(2, [(1, 2), (2, 1)]),  # Z(2)^2 + Z(4)
    make_group(2, [(1, 1), (2, 1), (3, 1)]),  # Z(2) + Z(4) + Z(8)
    make_group(2, [(2, 1), (4, 1)]),  # the running example
    make_group(3, [(2, 1), (4, 1)]),  # same shape, odd p
    make_group(2, [(2, 2)]),  # homocyclic
]
NAMED_FIVE = ROSTER[:5]


@pytest.fixture
def criterion(acceptance_log):
    @contextmanager
    def _criterion(number, title):
        info = {}
        try:
            yield info
        except BaseException as exc:
            first = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
            acceptance_log.append(f"criterion {number} ({title}): FAIL — {first}")
            raise
        acceptance_log.append(
            f"criterion {number} ({title}): PASS — {info.get('detail', 'ok')}"
        )

    return _criterion


def coord_set(subgroup):
    return frozenset(x.coords for x in subgroup)


def set_sum(G, A, B):
    """Elementwise sum of two coordinate sets (subgroup sum, done by hand)."""
    return frozenset(
        add(G.element(a), G.element(b)).coords for a in A for b in B
    )


def shift_span(G, shifts):
    """All sums of multiples of ``p^shift_i`` per coordinate, by brute loops."""
    moduli = G.coordinate_moduli
    gens = [
        tuple(G.p**s if k == i else 0 for k in range(len(moduli)))
        for i, s in enumerate(shifts)
    ]
    out = frozenset([G.zero().coords])
    for gen, m in zip(gens, moduli):
        out = frozenset(
            add(G.element(x), G.element(tuple(c * t % m for c in gen))).coords
            for x in out
            for t in range(m)
        )
    return out


def test_criterion_1_example_table(criterion, capsys):
    with criterion(1, "example-table reproduction") as info:
        timings = []
        for p in (2, 3):
            spec = json.dumps(
                {"p": p, "components": [
                    {"exponent": 2, "multiplicity": 1},
                    {"exponent": 4, "multiplicity": 1},
                ]}
            )
            start = time.perf_counter()
            assert main(["analyze", spec]) == 0
            timings.append(time.perf_counter() - start)
            assert timings[-1] < 5.0, f"analyze took {timings[-1]:.2f}s at p={p}"
            out = capsys.readouterr().out
            table_rows = [
                l for l in out.splitlines()
                if l.startswith("(") and not l.startswith("(*)")
            ]
            assert len(table_rows) == 11

            G = reference_group(p)
            for row in REFERENCE_TABLE:
                cut = coord_set(indicator_subgroup(G, Indicator(row.indicator)))
                listed = shift_span(G, row.listed_shifts)
                assert cut == shift_span(G, row.expected_shifts)
                if row.is_erratum:
                    assert cut != listed  # the two corrected rows
                else:
                    assert cut == listed

            # the row spelled out in the criterion: (1, inf) -> <pa> (+) <p^3b>
            explicit = frozenset(
                (i * p % p**2, j * p**3 % p**4) for i in range(p) for j in range(p)
            )
            assert coord_set(indicator_subgroup(G, Indicator((1,)))) == explicit

        errata = [r.indicator for r in REFERENCE_TABLE if r.is_erratum]
        assert errata == [(2,), (1, 2)]
        info["detail"] = (
            f"11 rows at p=2 and p=3; 9 listed rows exact, 2 corrected"
            f" ({errata}); analyze took {timings[0]:.2f}s / {timings[1]:.2f}s"
            " (budget 5s)"
        )


def brute_fi_nodes(G):
    """Endomorphism-closure enumeration from first principles: close every
    element's endomorphism orbit into a subgroup, then close that family
    under elementwise sums."""
    endos = enumerate_endos(G)
    closures = set()
    for x in enumerate_elements(G):
        orbit = {apply(x, f) for f in endos}
        closures.add(coord_set(subgroup_generated(G, orbit)))
    family = set(closures)
    frontier = set(closures)
    while frontier:
        fresh = set()
        for A in frontier:
            for B in closures:
                s = set_sum(G, A, B)
                if s not in family:
                    fresh.add(s)
        family |= fresh
        frontier = fresh
    return family


def test_criterion_2_lattice_oracle_agreement(criterion):
    with criterion(2, "fully-invariant lattice vs brute closure") as info:
        counts = []
        for G in NAMED_FIVE:
            brute = brute_fi_nodes(G)
            cuts = {
                coord_set(indicator_subgroup(G, sigma))
                for sigma in enumerate_admissible(G)
            }
            assert brute == cuts, f"node sets differ on {G.describe()}"
            counts.append(len(brute))
        # reported, not asserted: the example group's distinct count next to
        # the 11 rows its source table lists
        example = reference_group(2)
        example_count = len(
            {coord_set(indicator_subgroup(example, s))
             for s in enumerate_admissible(example)}
        )
        info["detail"] = (
            f"node sets equal on {len(NAMED_FIVE)} groups (sizes {counts});"
            f" example group has {example_count} distinct nodes"
            " (source table lists 11 rows)"
        )


def test_criterion_3_dagger_suite(criterion):
    with criterion(3, "dagger suite within the ring gate") as info:
        ran, skipped, worst = [], [], 0.0
        for G in ROSTER:
            if ring_order(G) > RING_GATE:
                skipped.append(G.describe())
                continue
            start = time.perf_counter()
            reports = run_claims(G, ids=DAGGER_SUITE + FUN_IDENTITIES)
            assert len(reports) == 16
            reports += run_claims(G, ids=["dagger-well-defined"])
            elapsed = time.perf_counter() - start
            worst = max(worst, elapsed)
            assert elapsed < 60.0, f"{G.describe()} took {elapsed:.1f}s"
            assert len(reports) == 17
            bad = unexpected_refutations(reports)
            assert not bad, f"{G.describe()}: {[r.claim_id for r in bad]}"
            ran.append(G.describe())
        assert len(ran) >= 5
        info["detail"] = (
            f"{len(ran)} groups, 17 reports each, 0 refutations outside the"
            f" allowlist, worst {worst:.1f}s (budget 60s);"
            f" gated out by |E| > 2^12: {skipped}"
        )


def test_criterion_4_collision_existence(criterion):
    with criterion(4, "dagger collision on Z(2) + Z(4)") as info:
        G = make_group(2, [(1, 1), (2, 1)])
        pair = find_dagger_collision(G)
        assert pair is not None
        I, J = pair
        assert I != J
        image_i = dagger_ideal(G, I)
        image_j = dagger_ideal(G, J)
        assert image_i == image_j

        # the documented generator pair on the example group: evaluated,
        # verdict recorded (its two ideals turn out NOT to collide)
        R = reference_group(2)
        f, g = reference_collision_generators(R)
        named = [
            subgroup_name(R, dagger_ideal(R, principal_ideal(R, h))) for h in (f, g)
        ]
        info["detail"] = (
            f"distinct ideals of sizes {I.size}/{J.size} share the image"
            f" {subgroup_name(G, image_i)}; documented generator pair gives"
            f" images {named[0]} vs {named[1]}"
            + (" (no collision there — recorded)" if named[0] != named[1] else "")
        )


def test_criterion_5_indicator_monotone(criterion):
    with criterion(5, "indicator monotonicity under endomorphisms") as info:
        G = reference_group(2)
        start = time.perf_counter()
        (report,) = run_claims(G, ids=["endo-indicator-monotone"])
        elapsed = time.perf_counter() - start
        assert report.status == "verified"
        assert "1024 endomorphisms" in report.checked
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        info["detail"] = (
            f"all {G.order * ring_order(G)} (element, endomorphism) pairs"
            f" in {elapsed:.2f}s (budget 10s)"
        )


def test_criterion_6_matrix_laws(criterion):
    with criterion(6, "fundamental-matrix laws") as info:
        join_deviations = {}
        roundtrips = 0
        pair_count = 0
        for G in ROSTER:
            M = build_matrix(G)
            cells = {c: coord_set(M.entry(*c)) for c in M.cells()}
            deviations = 0
            for (c1, s1), (c2, s2) in product(cells.items(), repeat=2):
                pair_count += 1
                _, formula_meet = entry_meet(M, c1, c2)
                assert coord_set(formula_meet) == s1 & s2
                _, formula_join = entry_join(M, c1, c2)
                honest_join = set_sum(G, s1, s2)
                assert coord_set(formula_join) >= honest_join
                if coord_set(formula_join) != honest_join:
                    deviations += 1
            if deviations:
                join_deviations[G.describe()] = deviations
                # the overshoot must be the one the package itself reports
                # under an allowlisted claim id
                (join_report,) = run_claims(G, ids=["matrix-join-formula"])
                assert join_report.claim_id == "matrix-join-formula"
                assert join_report.status == "refuted"
                assert join_report.claim_id in load_allowlist()

            containments, incomparability = run_claims(
                G, ids=["quartering-containments", "quartering-incomparability"]
            )
            assert containments.status == "verified"
            if incomparability.status == "refuted":
                assert incomparability.claim_id in load_allowlist()

            for sigma in enumerate_admissible(G):
                if sigma.length == 0:
                    continue  # the terminal-only indicator visits no cells
                path = indicator_to_path(M, sigma)
                assert path_to_indicator(path, G) == sigma
                roundtrips += 1
        info["detail"] = (
            f"meet formula exact on {pair_count} cell pairs across"
            f" {len(ROSTER)} groups; join formula is an upper bound with"
            f" allowlisted overshoots on {len(join_deviations)} groups;"
            f" {roundtrips} path round trips are the identity"
        )


def test_criterion_7_sigma_sum_verdict(criterion):
    with criterion(7, "per-indicator sum report") as info:
        G = reference_group(2)
        M = build_matrix(G)
        # both reports list every failing indicator; the checked text counts them
        containment_report, equality_report = run_claims(
            G, ids=["sigma-sum-equality", "sigma-sum-containment"]
        )
        admissible = enumerate_admissible(G)
        unequal = {tuple(w["indicator"]) for w in equality_report.witnesses}
        outside = {tuple(w["indicator"]) for w in containment_report.witnesses}
        verdicts = {s: (s.entries not in unequal, s.entries not in outside) for s in admissible}
        # the mechanism covers every row
        assert equality_report.checked == f"{len(admissible)} admissible indicators"

        # independent oracle for sigma = (1, 3): sum the two addressed cells
        # by hand and compare against the cut as plain coordinate sets
        sigma = Indicator((1, 3))
        cut = coord_set(indicator_subgroup(G, sigma))
        summed = frozenset([G.zero().coords])
        for t, col in enumerate(sigma.entries):
            summed = set_sum(G, summed, coord_set(M.entry(t + 1, col)))
        oracle_equal = summed == cut
        oracle_contained = summed <= cut
        equal, contained = verdicts[sigma]
        assert equal == oracle_equal
        assert contained == oracle_contained

        assert containment_report.status == "verified"
        assert (equality_report.status == "refuted") == any(
            not eq for eq, _ in verdicts.values()
        )
        missing = cut - summed
        info["detail"] = (
            f"verdicts for all {len(verdicts)} admissible indicators;"
            f" sigma=(1,3) oracle says equal={oracle_equal},"
            f" contained={oracle_contained} (matches the report;"
            f" {len(missing)} elements in the gap)"
        )


def test_criterion_8_ulm_criterion(criterion):
    with criterion(8, "transfinite realizability verdicts") as info:
        reject = check_ulm_criterion(ulm_reject_example())
        assert reject.status == "refuted"
        assert reject.witnesses[0]["kappa"] == Ordinal(0, 0).to_json()

        accept = check_ulm_criterion(ulm_accept_example())
        assert accept.status == "verified"

        for G in ROSTER:
            report = check_ulm_criterion(ulm_sequence_of_group(G))
            assert report.status == "verified"
            assert report.checked == "0 window positions"  # nothing to test below w
        info["detail"] = (
            "reject example refuted with witness kappa=0, accept example"
            f" verified, {len(ROSTER)} bounded groups vacuously accepted"
        )


def test_criterion_9_byte_determinism(criterion):
    with criterion(9, "byte-identical verify output") as info:
        spec = json.dumps(
            {"p": 2, "components": [
                {"exponent": 2, "multiplicity": 1},
                {"exponent": 4, "multiplicity": 1},
            ]}
        )
        runs = [
            subprocess.run(
                [sys.executable, "-m", "pgroups", "verify", spec],
                capture_output=True,
                check=True,
                env=own_pgroups_env(),
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.count(b"\n") == 53
        info["detail"] = "two consecutive verify runs: 53 lines, identical bytes"
