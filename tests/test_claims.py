"""The claim registry: one runner per checkable statement, reports with
stable ids, and the shipped allowlist of expected refutations."""

import json

import numpy as np
import pytest

from pgroups import (
    ClaimReport,
    GroupTooLargeError,
    InvalidInputError,
    VERDICTS,
    all_claim_ids,
    enumerate_elements,
    enumerate_ideals,
    ind_of,
    load_allowlist,
    make_group,
    run_claims,
    unexpected_refutations,
)
from pgroups.claims import _RUNNERS, TRANSITIVITY_MAX_ORDER

from ring_family import DAGGER_SUITE

# frozen verdicts for Z(2) (+) Z(4): statements whose source formulation
# disagrees with exhaustive computation on this group
SMALL24_REFUTED = [
    "descriptor-rule-as-stated",
    "fundamental-order-iff",
    "ideal-double-dagger-deflation",
    "matrix-distinct-entries",
    "matrix-join-formula",
    "path-subgroup-chain",
    "power-subgroup-dagger",
    "quartering-incomparability",
    "sigma-sum-equality",
    "ulm-position-indexing",
]
# claims that need only the ring's shape (orbits, full invariance, the lattice),
# so no ring budget applies to them
SHAPE_ONLY_CLAIMS = [
    "fi-closure-indicator",
    "indicator-coverage",
    "indicator-subgroups-invariant",
    "indicator-transitivity",
]
# closed forms on block shifts: no ring budget reaches them
RING_FREE_CLAIMS = [
    "collision-recipe",
    "descriptor-rule-as-stated",
    "descriptor-rule-empirical",
    "named-collision-pair",
    "power-ideal-dagger",
    "power-subgroup-dagger",
    "socle-ideal-dagger",
    "socle-subgroup-dagger",
]
# the three table-specific checks need the reference group; the chain check
# needs a homocyclic group
SMALL24_SKIPPED = [
    "homocyclic-ideal-chain",
    "named-collision-pair",
    "path-count-accounting",
    "reference-table-rows",
]

# the reference group additionally trips the checks that need exponent
# spread (alias, segments, paths) and the table errata
REFERENCE_REFUTED = SMALL24_REFUTED + [
    "admissible-minmax-closure",
    "alias-to-marker",
    "named-collision-pair",
    "path-count-accounting",
    "path-realization",
    "reference-table-rows",
    "segment-realizability",
]


@pytest.fixture(scope="module")
def reference_reports(G2):
    return run_claims(G2)


@pytest.fixture(scope="module")
def small_reports(small24):
    return run_claims(small24)


class TestReportType:
    def test_status_vocabulary(self):
        assert VERDICTS == ("verified", "refuted", "skipped")
        with pytest.raises(ValueError):
            ClaimReport(claim_id="x", status="maybe", group="G")

    def test_refutations_must_carry_witnesses(self):
        with pytest.raises(ValueError):
            ClaimReport(claim_id="x", status="refuted", group="G")
        ClaimReport(claim_id="x", status="refuted", group="G", witnesses=[{"a": 1}])
        for status in ("verified", "skipped"):  # and only refutations carry them
            with pytest.raises(ValueError):
                ClaimReport(claim_id="x", status=status, group="G", witnesses=[{"a": 1}])

    def test_render_is_deterministic_json(self):
        r = ClaimReport(claim_id="x", status="verified", group="G", checked="n=3")
        line = r.render()
        assert json.loads(line) == {
            "claim_id": "x",
            "status": "verified",
            "group": "G",
            "witnesses": [],
            "checked": "n=3",
        }
        assert r.render() == line

    def test_timing_is_excluded_unless_asked(self):
        a = ClaimReport(claim_id="x", status="verified", group="G", timing=0.5)
        b = ClaimReport(claim_id="x", status="verified", group="G", timing=1.5)
        assert a == b  # timing does not participate in comparison
        assert a.render() == b.render()
        assert "timing_seconds" in a.render(include_timing=True)

    def test_note_appears_only_when_set(self):
        quiet = ClaimReport(claim_id="x", status="verified", group="G")
        loud = ClaimReport(claim_id="x", status="verified", group="G", note="hm")
        assert "note" not in json.loads(quiet.render())
        assert json.loads(loud.render())["note"] == "hm"


class TestRegistry:
    def test_registry_shape(self):
        ids = all_claim_ids()
        assert len(ids) == 53
        assert ids == sorted(ids)
        assert len(set(ids)) == 53

    def test_each_runner_reports_exactly_its_ids(self, small24):
        # run_claims keeps only the ids it asked for, so a runner that emits
        # an id it did not register would otherwise lose that report unseen
        for runner in _RUNNERS:
            reports = run_claims(small24, ids=list(runner.ids))
            assert [r.claim_id for r in reports] == sorted(runner.ids)

    def test_runners_group_only_claims_that_share_work(self):
        # a runner's time is every one of its claims' --timings number, so a
        # check that shares nothing beyond the context and process caches is
        # a runner of its own
        shared = {r.ids for r in _RUNNERS if len(r.ids) > 1}
        assert shared == {
            ("matrix-meet-formula", "matrix-join-formula"),
            ("quartering-containments", "quartering-incomparability"),
            ("sigma-sum-equality", "sigma-sum-containment"),
            ("endo-height-exponent", "endo-indicator-monotone"),
            (
                "power-ideal-dagger",
                "power-subgroup-dagger",
                "socle-ideal-dagger",
                "socle-subgroup-dagger",
            ),
            ("descriptor-rule-as-stated", "descriptor-rule-empirical"),
            tuple(DAGGER_SUITE),
        }
        alone = {r.ids[0] for r in _RUNNERS if len(r.ids) == 1}
        assert alone >= {
            "matrix-monotone",
            "matrix-distinct-entries",
            "alias-to-marker",
            "path-roundtrip",
            "fundamental-containment",
            "path-subgroup-chain",
            "dagger-well-defined",
        }
        assert len(alone) + sum(map(len, shared)) == 53

    def test_allowlist_names_real_claims(self):
        allow = load_allowlist()
        assert len(allow) == 18
        assert set(allow) <= set(all_claim_ids())
        assert all(note for note in allow.values())

    def test_allowlist_edits_do_not_reach_the_next_caller(self, monkeypatch):
        import pgroups.reports

        first = load_allowlist()
        expected = dict(first)
        first.clear()
        first["indicator-antitone"] = "poisoned"
        assert load_allowlist() == expected
        # parsed once: the next callers read no package data
        monkeypatch.setattr(pgroups.reports, "resources", None)
        assert load_allowlist() == expected
        bad = ClaimReport("indicator-antitone", "refuted", "G", witnesses=[{"x": 1}])
        assert unexpected_refutations([bad]) == [bad]

    def test_unexpected_refutations_filters_by_allowlist(self):
        bad = ClaimReport(
            claim_id="indicator-antitone",
            status="refuted",
            group="G",
            witnesses=[{"x": 1}],
        )
        ok = ClaimReport(
            claim_id="sigma-sum-equality",
            status="refuted",
            group="G",
            witnesses=[{"x": 1}],
        )
        assert unexpected_refutations([bad, ok]) == [bad]
        assert unexpected_refutations([bad], allowlist={"indicator-antitone": "why"}) == []


class TestRunClaims:
    def test_one_report_per_claim_in_id_order(self, reference_reports):
        assert [r.claim_id for r in reference_reports] == all_claim_ids()

    def test_group_field_is_the_description(self, reference_reports, G2):
        assert {r.group for r in reference_reports if "sequence" not in r.group} == {
            G2.describe()
        }

    def test_no_unexpected_refutations_on_reference_group(self, reference_reports):
        assert unexpected_refutations(reference_reports) == []

    def test_reference_group_verdicts(self, reference_reports):
        refuted = sorted(r.claim_id for r in reference_reports if r.status == "refuted")
        skipped = sorted(r.claim_id for r in reference_reports if r.status == "skipped")
        assert refuted == sorted(REFERENCE_REFUTED)
        assert skipped == ["homocyclic-ideal-chain"]

    def test_small_group_verdicts(self, small_reports):
        assert unexpected_refutations(small_reports) == []
        refuted = sorted(r.claim_id for r in small_reports if r.status == "refuted")
        skipped = sorted(r.claim_id for r in small_reports if r.status == "skipped")
        assert refuted == SMALL24_REFUTED
        assert skipped == SMALL24_SKIPPED

    def test_witnesses_iff_refuted(self, reference_reports, small_reports):
        for r in reference_reports + small_reports:
            assert (r.status == "refuted") == bool(r.witnesses)
            if r.status != "refuted":
                assert r.checked  # what was searched, or why it was skipped

    def test_timing_attached_everywhere(self, reference_reports):
        assert all(r.timing is not None for r in reference_reports)

    def test_repeat_runs_are_equal(self, small24, small_reports):
        assert run_claims(small24) == small_reports

    def test_id_filter(self, small24):
        picked = ["indicator-antitone", "sigma-sum-containment"]
        reports = run_claims(small24, ids=picked)
        assert [r.claim_id for r in reports] == picked
        assert all(r.status == "verified" for r in reports)

    def test_unknown_id_rejected(self, small24):
        with pytest.raises(InvalidInputError):
            run_claims(small24, ids=["indicator-antitone", "nope"])

    def test_group_size_cap(self):
        huge = make_group(2, [(30, 1)])
        with pytest.raises(GroupTooLargeError):
            run_claims(huge)  # default cap is 2^20
        with pytest.raises(GroupTooLargeError):
            run_claims(make_group(2, [(2, 1), (4, 1)]), max_group=32)  # |G| = 64
        # the cap is inclusive
        run_claims(make_group(2, [(1, 1)]), ids=["indicator-antitone"], max_group=2)

    def test_tight_budgets_skip_instead_of_failing(self, G2):
        reports = run_claims(G2, max_ring=16, max_ideals=16)
        assert len(reports) == 53
        skipped = [r for r in reports if r.status == "skipped"]
        assert len(skipped) == 17
        assert unexpected_refutations(reports) == []
        assert not {r.claim_id for r in skipped} & set(RING_FREE_CLAIMS)
        # indicator-side checks never need the ring
        untouched = {r.claim_id for r in reports if r.status != "skipped"}
        assert "indicator-antitone" in untouched
        assert "min-admissible-bottom" in untouched
        # the lattice, orbit and full-invariance claims need only the ring's shape
        status = {r.claim_id: r.status for r in reports}
        for cid in SHAPE_ONLY_CLAIMS:
            assert status[cid] == "verified", cid

    def test_transitivity_respects_its_order_cap(self, small24):
        assert TRANSITIVITY_MAX_ORDER == 64
        big = make_group(2, [(2, 2), (4, 1)])  # order 256
        (report,) = run_claims(big, ids=["indicator-transitivity"])
        assert report.status == "skipped"
        assert "quadratic-orbit bound 64" in report.checked
        (small,) = run_claims(small24, ids=["indicator-transitivity"])
        assert small.status == "verified"

    @pytest.mark.parametrize("always", [False, True], ids=["precedes", "always"])
    def test_transitivity_matches_the_element_loop(self, monkeypatch, always):
        """The one-pass runner against the loop over element pairs it
        replaced, on every group of order <= 64 in the ring family.  With
        ``precedes`` made to hold for every pair (the runner's precedes
        matrix all true), both list the same refuting pairs in the same
        order."""
        import pgroups.claims
        from pgroups.claims import ClaimContext, _run_indicator_transitivity
        from pgroups.groups import _grid, _orbit_steps, _packing
        from ring_family import FAMILY

        relation = pgroups.claims.precedes
        if always:
            relation = lambda a, b: True  # noqa: E731
            everywhere = lambda inds: np.ones((len(inds),) * 2, dtype=bool)  # noqa: E731
            monkeypatch.setattr(pgroups.claims, "_precedes_matrix", everywhere)
        groups = [G for G in FAMILY if G.order <= TRANSITIVITY_MAX_ORDER]
        assert len(groups) > 20
        for G in groups:
            elements = enumerate_elements(G)
            inds = [ind_of(a) for a in elements]
            expected = []
            for i, a in enumerate(elements):
                in_orbit = np.zeros(len(elements), dtype=bool)
                in_orbit[_grid(_orbit_steps(G, a.coords), *_packing(G))] = True
                for j, b in enumerate(elements):
                    if relation(inds[i], inds[j]) and not in_orbit[j]:
                        expected.append({"from": list(a.coords), "to": list(b.coords)})
            assert bool(expected) == always
            # the runner keeps the five witnesses its report lists
            assert list(_run_indicator_transitivity(ClaimContext(G))) == [
                (expected[:5], f"{G.order}^2 ordered pairs")
            ]

    @pytest.mark.parametrize("always", [False, True], ids=["precedes", "always"])
    def test_antitone_matches_the_pair_loop(self, monkeypatch, always):
        """The runner reads the precedes matrix and the cuts' bitmasks; the
        loop over ordered pairs it replaced is the reference, on every family
        group.  With ``precedes`` made to hold for every pair, both list the
        same refuting pairs in the same order."""
        import itertools

        import pgroups.claims
        from pgroups import subgroup_leq
        from pgroups.claims import ClaimContext, _run_indicator_antitone
        from ring_family import FAMILY

        relation = pgroups.claims.precedes
        if always:
            relation = lambda a, b: True  # noqa: E731
            everywhere = lambda inds: np.ones((len(inds),) * 2, dtype=bool)  # noqa: E731
            monkeypatch.setattr(pgroups.claims, "_precedes_matrix", everywhere)
        refuted = 0
        for G in FAMILY:
            ctx = ClaimContext(G)
            cuts = ctx.cuts
            expected = [
                {"sigma": list(s.entries), "tau": list(t.entries)}
                for s, t in itertools.permutations(ctx.admissible, 2)
                if relation(s, t) and not subgroup_leq(cuts[t], cuts[s])
            ]
            (found,) = _run_indicator_antitone(ctx)
            assert found[0] == expected[:5]
            refuted += bool(expected)
        assert bool(refuted) == always

    def test_minmax_and_fundamental_order_match_the_pair_loops(self):
        """Both runners read whole arrays and build only the five witnesses a
        report keeps; the loops over pairs they replaced are the reference,
        on every family group, with refutations among them."""
        import itertools

        from pgroups import ind_max, ind_min
        from pgroups.claims import (
            ClaimContext,
            _run_admissible_minmax_closure,
            _run_fundamental_order_iff,
        )
        from pgroups.groups import _block_leq, _fundamental_shifts
        from ring_family import FAMILY

        refuted = set()
        for G in FAMILY:
            ctx = ClaimContext(G)
            adm = ctx.admissible
            minmax = [
                {
                    "op": op,
                    "sigma": list(s.entries),
                    "tau": list(t.entries),
                    "result": list(got.entries),
                }
                for s, t in itertools.combinations(adm, 2)
                for op, got in (("min", ind_min(s, t)), ("max", ind_max(s, t)))
                if got not in set(adm)
            ]
            (found,) = _run_admissible_minmax_closure(ctx)
            assert found[0] == minmax[:5]
            e = G.exponent
            cells = [(k, n) for k in range(e) for n in range(1, e + 1)]
            order = []
            for c1, c2 in itertools.product(cells, repeat=2):
                rule = c1[0] >= c2[0] and c1[1] <= c2[1]
                actual = _block_leq(_fundamental_shifts(G, *c1), _fundamental_shifts(G, *c2))
                if rule != actual:
                    order.append(
                        {
                            "left": list(c1),
                            "right": list(c2),
                            "parameter_rule": rule,
                            "containment": actual,
                        }
                    )
            (found,) = _run_fundamental_order_iff(ctx)
            assert found[0] == order[:5]
            refuted |= {"minmax"} if minmax else set()
            refuted |= {"order"} if len(order) > 5 else set()
        assert refuted == {"minmax", "order"}

    def test_homocyclic_chain_runs_on_homocyclic_groups(self, homocyclic44):
        (report,) = run_claims(homocyclic44, ids=["homocyclic-ideal-chain"])
        assert report.status == "verified"

    def test_collision_recipe_searches_the_callers_ideal_budget(self, monkeypatch):
        import pgroups.claims
        import pgroups.endos

        calls = []

        def spy(G, max_ideals=None):
            calls.append(max_ideals)
            return enumerate_ideals(G, max_ideals=max_ideals)

        for module in (pgroups.claims, pgroups.endos):
            monkeypatch.setattr(module, "enumerate_ideals", spy)
        G = make_group(3, [(2, 2)])  # |End| = 6561, above the default 4096
        (report,) = run_claims(G, ids=["collision-recipe"], max_ideals=8192)
        assert calls == [8192]  # absence is certified by searching every ideal
        assert (report.status, report.checked) == ("verified", "exhaustive ideal enumeration")


# the claims whose laws are closed forms in block shifts: the grid laws, the
# power/socle identities, the descriptor rule and the two collision claims
SHIFT_FORM_CLAIMS = [
    "matrix-monotone",
    "matrix-distinct-entries",
    "matrix-meet-formula",
    "matrix-join-formula",
    "quartering-containments",
    "quartering-incomparability",
    "alias-to-marker",
    "path-roundtrip",
    "power-ideal-dagger",
    "power-subgroup-dagger",
    "socle-ideal-dagger",
    "socle-subgroup-dagger",
    "descriptor-rule-as-stated",
    "descriptor-rule-empirical",
    "named-collision-pair",
    "collision-recipe",
]


class TestBudgetPaths:
    @pytest.mark.parametrize("p", [2, 3])
    def test_shift_form_claims_build_no_subgroup(self, monkeypatch, p):
        """Every ``Subgroup`` passes through ``Subgroup._hold``; with it made
        to raise, the shift-form claims still give the same reports."""
        from pgroups import Subgroup

        G = make_group(p, [(2, 1), (4, 1)])  # the bundled pair's shape
        ids = sorted(SHIFT_FORM_CLAIMS)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a shift-form claim built a subgroup")

        with monkeypatch.context() as m:
            m.setattr(Subgroup, "_hold", refuse)
            guarded = run_claims(G, ids=ids)
        assert guarded == run_claims(G, ids=ids)
        assert [r.claim_id for r in guarded] == ids
        assert all(r.status != "skipped" for r in guarded)

    def test_action_scan_has_a_pair_cap(self, monkeypatch, small24):
        import pgroups.claims
        import pgroups.endos
        from pgroups.endos import get_ring

        ids = ["endo-height-exponent", "endo-indicator-monotone"]
        pairs = 32 * 8  # |End(G)| x |G|
        # the full table (endos) and the claims' scan (claims) read one cap
        for module in (pgroups.endos, pgroups.claims):
            monkeypatch.setattr(module, "MAX_ACTION_ENTRIES", pairs)
        assert all(r.status == "verified" for r in run_claims(small24, ids=ids))
        for module in (pgroups.endos, pgroups.claims):
            monkeypatch.setattr(module, "MAX_ACTION_ENTRIES", pairs - 1)
        for r in run_claims(small24, ids=ids):
            assert r.status == "skipped"
            assert r.checked == f"32 endomorphisms x 8 elements = {pairs} pairs exceeds cap {pairs - 1}"
        with pytest.raises(pgroups.RingTooLargeError):
            get_ring(small24).action

    def test_cut_oracles_refuse_before_any_table(self, monkeypatch):
        """Above the subgroup cap the cut oracles skip before cutting,
        classing elements or building the ring's shape."""
        import pgroups.claims

        def refuse(*args, **kwargs):
            raise AssertionError("built a table before the subgroup cap")

        for name in ("indicator_subgroup", "_table", "_cached_ring"):
            monkeypatch.setattr(pgroups.claims, name, refuse)
        ids = [
            "fi-closure-indicator",
            "fundamental-containment",
            "indicator-antitone",
            "indicator-coverage",
            "indicator-subgroups-invariant",
            "path-subgroup-chain",
            "sigma-sum-containment",
            "sigma-sum-equality",
        ]
        reports = run_claims(make_group(2, [(1, 17)]), ids=ids)
        assert [r.claim_id for r in reports] == ids
        for r in reports:
            assert (r.status, r.checked) == (
                "skipped",
                "subgroup with 131072 elements exceeds cap 65536",
            )
