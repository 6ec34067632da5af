"""Symbolic layer: ordinals below w^2, cardinal values, Ulm sequences,
block presentations, and the context-free ideal descriptors."""

import json
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgroups import (
    BasicGroupSpec,
    BasicSequence,
    CardinalValue,
    IncomparableContextError,
    InvalidInputError,
    NotAdmissibleError,
    Ordinal,
    ShapeViolationError,
    SymbolicIdealDescriptor,
    TAIL_ALL_ZERO,
    TAIL_CONSTANT,
    UlmBlock,
    UlmSequence,
    aleph,
    basic_seq_to_ulm,
    basic_sequence_of_group,
    cardinal_add,
    cardinal_repeat_omega,
    cardinal_sum,
    check_basic_sequence_admissible,
    check_ulm_criterion,
    descriptor_leq,
    finite,
    make_group,
    ord_add,
    run_claims,
    ulm_invariants,
    ulm_sequence_of_group,
    ulm_to_basic_seq,
)
from pgroups.reference import ulm_accept_example, ulm_reject_example
from pgroups.symbolic import ZERO

ordinals = st.builds(Ordinal, st.integers(0, 6), st.integers(0, 6))
cardinals = st.one_of(
    st.integers(0, 9).map(finite),
    st.integers(0, 3).map(aleph),
)


# --------------------------------------------------------------------------
# ordinals


class TestOrdinal:
    def test_negative_parts_rejected(self):
        with pytest.raises(InvalidInputError):
            Ordinal(-1, 0)
        with pytest.raises(InvalidInputError):
            Ordinal(0, -1)

    def test_order_is_lexicographic(self):
        chain = [Ordinal(0, 0), Ordinal(0, 5), Ordinal(1, 0), Ordinal(1, 1), Ordinal(2, 0)]
        assert sorted(chain) == chain
        # any finite ordinal sits below w
        assert Ordinal(0, 99) < Ordinal(1, 0)

    def test_limit_and_finite_flags(self):
        assert Ordinal(0, 0).is_limit and Ordinal(0, 0).is_finite
        assert Ordinal(1, 0).is_limit and not Ordinal(1, 0).is_finite
        assert not Ordinal(1, 3).is_limit and not Ordinal(1, 3).is_finite
        assert not Ordinal(0, 4).is_limit and Ordinal(0, 4).is_finite

    @pytest.mark.parametrize(
        "q, r, text",
        [(0, 0, "0"), (0, 3, "3"), (1, 0, "w"), (1, 1, "w+1"), (2, 0, "w*2"), (2, 5, "w*2+5")],
    )
    def test_str_forms(self, q, r, text):
        assert str(Ordinal(q, r)) == text

    @given(ordinals)
    def test_json_roundtrip(self, a):
        assert Ordinal.from_json(json.loads(json.dumps(a.to_json()))) == a

    @pytest.mark.parametrize(
        "bad",
        [
            {},
            {"q": 1},
            {"r": 2},
            "w+1",
            {"q": "x", "r": 0},
            {"q": "1", "r": 0},
            {"q": 1.0, "r": 0},
            {"q": 0, "r": True},
        ],
    )
    def test_from_json_malformed(self, bad):
        with pytest.raises(InvalidInputError):
            Ordinal.from_json(bad)

    def test_add_absorbs_finite_left_part(self):
        assert ord_add(Ordinal(0, 5), Ordinal(1, 2)) == Ordinal(1, 2)
        assert ord_add(Ordinal(1, 2), Ordinal(0, 3)) == Ordinal(1, 5)
        assert ord_add(Ordinal(1, 2), Ordinal(2, 1)) == Ordinal(3, 1)

    def test_add_is_not_commutative(self):
        assert ord_add(Ordinal(0, 1), Ordinal(1, 0)) == Ordinal(1, 0)
        assert ord_add(Ordinal(1, 0), Ordinal(0, 1)) == Ordinal(1, 1)

    @given(ordinals, ordinals, ordinals)
    def test_add_associative(self, a, b, c):
        assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))

    @given(ordinals, ordinals)
    def test_add_never_decreases(self, a, b):
        assert ord_add(a, b) >= a

    @given(ordinals, ordinals)
    def test_cmp_matches_order(self, a, b):
        # w*q + r is ordered by (q, r), and the order is total
        assert (a < b) == ((a.q, a.r) < (b.q, b.r))
        assert [a < b, a == b, b < a].count(True) == 1


# --------------------------------------------------------------------------
# cardinal values


class TestCardinal:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            CardinalValue("weird", 1)
        with pytest.raises(InvalidInputError):
            finite(-1)

    def test_total_order(self):
        assert finite(0) < finite(1) < finite(2)
        assert finite(10**6) < aleph(0) < aleph(1)
        assert aleph(0) <= aleph(0)
        assert aleph(1) > finite(3) and aleph(1) >= aleph(1)

    def test_flags_and_str(self):
        assert ZERO.is_zero and not ZERO.is_infinite
        assert aleph(0).is_infinite and not aleph(0).is_zero
        assert str(finite(3)) == "3"
        assert str(aleph(2)) == "aleph_2"

    @given(cardinals)
    def test_json_roundtrip(self, c):
        assert CardinalValue.from_json(json.loads(json.dumps(c.to_json()))) == c

    def test_from_json_accepts_bare_integers(self):
        assert CardinalValue.from_json(7) == finite(7)

    @pytest.mark.parametrize(
        "bad",
        [
            True,
            False,
            "3",
            {"finite": 1, "aleph": 0},
            [],
            {"finite": 1.5},
            {"finite": True},
            {"finite": "x"},
            {"aleph": "0"},
        ],
    )
    def test_from_json_malformed(self, bad):
        with pytest.raises(InvalidInputError):
            CardinalValue.from_json(bad)

    def test_add_and_sum(self):
        assert cardinal_add(finite(2), finite(3)) == finite(5)
        assert cardinal_add(finite(5), aleph(0)) == aleph(0)
        assert cardinal_add(aleph(1), aleph(0)) == aleph(1)
        assert cardinal_sum([]) == ZERO
        assert cardinal_sum([finite(1), aleph(0), finite(9)]) == aleph(0)

    def test_repeat_omega(self):
        assert cardinal_repeat_omega(ZERO) == ZERO
        assert cardinal_repeat_omega(finite(3)) == aleph(0)
        assert cardinal_repeat_omega(aleph(2)) == aleph(2)

    @given(cardinals, cardinals)
    def test_add_commutative_and_monotone(self, a, b):
        assert cardinal_add(a, b) == cardinal_add(b, a)
        assert cardinal_add(a, b) >= a

    @given(cardinals, cardinals, cardinals)
    def test_add_associative(self, a, b, c):
        assert cardinal_add(cardinal_add(a, b), c) == cardinal_add(a, cardinal_add(b, c))


# --------------------------------------------------------------------------
# Ulm blocks and sequences


class TestUlmBlock:
    def test_value_at_with_all_zero_tail(self):
        b = UlmBlock(head=(finite(1), finite(2)))
        assert b.value_at(0) == finite(1)
        assert b.value_at(2) == ZERO
        assert b.value_at(99) == ZERO

    def test_value_at_with_constant_tail(self):
        b = UlmBlock(head=(finite(1),), tail=TAIL_CONSTANT, tail_value=finite(4))
        assert b.value_at(0) == finite(1)
        assert b.value_at(1) == finite(4)
        assert b.value_at(50) == finite(4)

    def test_value_at_beyond_partial_block(self):
        b = UlmBlock(head=(finite(1),), tail=None)
        assert b.value_at(0) == finite(1)
        with pytest.raises(InvalidInputError):
            b.value_at(1)

    def test_suffix_sum(self):
        b = UlmBlock(head=(finite(1), finite(2), finite(3)))
        assert b.suffix_sums() == [finite(6), finite(5), finite(3), ZERO]
        c = UlmBlock(head=(finite(1),), tail=TAIL_CONSTANT, tail_value=finite(2))
        assert c.suffix_sums()[0] == aleph(0)  # infinitely many copies of 2
        d = UlmBlock(head=(), tail=TAIL_CONSTANT, tail_value=aleph(1))
        assert d.suffix_sums()[0] == aleph(1)

    def test_is_everywhere_zero(self):
        assert UlmBlock(head=(ZERO, ZERO)).is_everywhere_zero()
        assert not UlmBlock(head=(finite(1),)).is_everywhere_zero()
        assert not UlmBlock(head=(), tail=TAIL_CONSTANT, tail_value=finite(1)).is_everywhere_zero()

    def test_json_roundtrip(self):
        b = UlmBlock(head=(finite(1), aleph(0)), tail=TAIL_CONSTANT, tail_value=finite(2))
        assert UlmBlock.from_json(json.loads(json.dumps(b.to_json()))) == b


class TestUlmSequence:
    def test_block_count_must_match_length(self):
        with pytest.raises(ShapeViolationError):
            UlmSequence(Ordinal(1, 1), (UlmBlock(head=()),))

    def test_partial_block_must_be_tailless(self):
        with pytest.raises(ShapeViolationError):
            UlmSequence(Ordinal(0, 1), (UlmBlock(head=(finite(1),), tail=TAIL_ALL_ZERO),))

    def test_partial_head_length_fixed_by_remainder(self):
        with pytest.raises(ShapeViolationError):
            UlmSequence(Ordinal(0, 2), (UlmBlock(head=(finite(1),), tail=None),))

    def test_full_block_needs_a_tail_rule(self):
        with pytest.raises(ShapeViolationError):
            UlmSequence(Ordinal(1, 0), (UlmBlock(head=(finite(1),), tail=None),))

    def test_constant_tail_needs_nonzero_value(self):
        with pytest.raises(ShapeViolationError):
            UlmSequence(
                Ordinal(1, 0),
                (UlmBlock(head=(), tail=TAIL_CONSTANT, tail_value=ZERO),),
            )

    def test_value_at(self):
        seq = ulm_accept_example()
        assert seq.value_at(Ordinal(0, 0)) == finite(1)
        assert seq.value_at(Ordinal(0, 7)) == finite(1)  # constant tail
        assert seq.value_at(Ordinal(1, 0)) == finite(1)
        with pytest.raises(InvalidInputError):
            seq.value_at(Ordinal(1, 1))  # = the length itself

    def test_block_totals(self):
        rej = ulm_reject_example()
        assert rej.block_total(0) == ZERO
        assert rej.block_total(1) == finite(1)
        assert ulm_accept_example().block_total(0) == aleph(0)

    def test_reject_example_json_shape(self):
        assert ulm_reject_example().to_json() == {
            "lambda": {"q": 1, "r": 1},
            "blocks": [
                {"xi": {"q": 0, "r": 0}, "head": [], "tail": "all_zero"},
                {"xi": {"q": 1, "r": 0}, "head": [{"finite": 1}], "tail": None},
            ],
        }

    @pytest.mark.parametrize("seq", [ulm_reject_example(), ulm_accept_example()])
    def test_json_roundtrip(self, seq):
        assert UlmSequence.from_json(json.loads(json.dumps(seq.to_json()))) == seq

    def test_from_json_accepts_blocks_in_any_order(self):
        data = ulm_reject_example().to_json()
        data["blocks"].reverse()
        assert UlmSequence.from_json(data) == ulm_reject_example()

    def test_from_json_fills_omitted_blocks_with_zeros(self):
        data = {
            "lambda": {"q": 1, "r": 1},
            "blocks": [{"xi": {"q": 1, "r": 0}, "head": [1], "tail": None}],
        }
        assert UlmSequence.from_json(data) == ulm_reject_example()

    def test_from_json_coerces_partial_block_with_zero_tail(self):
        data = {
            "lambda": {"q": 0, "r": 3},
            "blocks": [{"head": [1], "tail": "all_zero"}],
        }
        seq = UlmSequence.from_json(data)
        assert seq.blocks[0] == UlmBlock(head=(finite(1), ZERO, ZERO), tail=None)

    def test_from_json_rejects_duplicates_and_bad_keys(self):
        base = ulm_reject_example().to_json()
        dup = json.loads(json.dumps(base))
        dup["blocks"].append(dup["blocks"][0])
        with pytest.raises(InvalidInputError):
            UlmSequence.from_json(dup)
        successor_key = json.loads(json.dumps(base))
        successor_key["blocks"][1]["xi"] = {"q": 0, "r": 5}
        with pytest.raises(InvalidInputError):
            UlmSequence.from_json(successor_key)
        outside = json.loads(json.dumps(base))
        outside["blocks"][1]["xi"] = {"q": 7, "r": 0}
        with pytest.raises(InvalidInputError):
            UlmSequence.from_json(outside)

    def test_sequence_of_bounded_group(self, G2):
        seq = ulm_sequence_of_group(G2)
        assert seq.length == Ordinal(0, 4)
        assert seq.blocks[0].head == tuple(finite(u) for u in ulm_invariants(G2))
        assert seq.blocks[0].tail is None


# --------------------------------------------------------------------------
# the realizability criterion


class TestUlmCriterion:
    def test_reject_example(self):
        report = check_ulm_criterion(ulm_reject_example())
        assert report.claim_id == "ulm-criterion"
        assert report.status == "refuted"
        assert report.group == "sequence of length w+1"
        assert report.checked == "1 window positions"
        assert report.witnesses == [
            {"kappa": {"q": 0, "r": 0}, "mass_beyond_window": "1", "window_sum": "0"}
        ]

    def test_accept_example(self):
        report = check_ulm_criterion(ulm_accept_example())
        assert report.status == "verified"
        assert report.checked == "2 window positions"
        assert report.witnesses == []

    def test_vacuous_below_omega(self, G2):
        # bounded groups have finite length: no window reaches past a limit
        report = check_ulm_criterion(ulm_sequence_of_group(G2))
        assert report.status == "verified"
        assert report.checked == "0 window positions"

    def test_infinite_mass_beyond_empty_window(self):
        seq = UlmSequence(
            Ordinal(2, 0),
            (
                UlmBlock(head=()),
                UlmBlock(head=(), tail=TAIL_CONSTANT, tail_value=finite(1)),
            ),
        )
        report = check_ulm_criterion(seq)
        assert report.status == "refuted"
        assert report.witnesses[0]["kappa"] == {"q": 0, "r": 0}
        assert report.witnesses[0]["mass_beyond_window"] == "aleph_0"

    def test_constant_window_carries_finite_mass(self):
        seq = UlmSequence(
            Ordinal(2, 0),
            (
                UlmBlock(head=(), tail=TAIL_CONSTANT, tail_value=finite(1)),
                UlmBlock(head=(finite(5),)),
            ),
        )
        report = check_ulm_criterion(seq)
        assert report.status == "verified"
        assert report.checked == "3 window positions"

    def test_witness_is_the_earliest_failure(self):
        seq = UlmSequence(
            Ordinal(2, 1),
            (
                UlmBlock(head=(), tail=TAIL_CONSTANT, tail_value=aleph(1)),
                UlmBlock(head=()),
                UlmBlock(head=(aleph(1),), tail=None),
            ),
        )
        report = check_ulm_criterion(seq)
        assert report.status == "refuted"
        assert report.witnesses[0]["kappa"] == {"q": 1, "r": 0}

    def test_head_offsets_are_swept(self):
        # the window [1, w) misses the mass parked at offset 0
        seq = UlmSequence(
            Ordinal(1, 1),
            (
                UlmBlock(head=(finite(1),)),
                UlmBlock(head=(finite(1),), tail=None),
            ),
        )
        report = check_ulm_criterion(seq)
        assert report.status == "refuted"
        assert report.witnesses[0]["kappa"] == {"q": 0, "r": 1}
        assert report.checked == "2 window positions"


# --------------------------------------------------------------------------
# block presentations


class TestBasicGroupSpec:
    def test_validation(self):
        with pytest.raises(ShapeViolationError):
            BasicGroupSpec(pairs=(), tail="sometimes")
        with pytest.raises(ShapeViolationError):
            BasicGroupSpec(pairs=(), tail=TAIL_CONSTANT, tail_value=ZERO)
        with pytest.raises(InvalidInputError):
            BasicGroupSpec(pairs=((0, finite(1)),))
        with pytest.raises(InvalidInputError):
            BasicGroupSpec(pairs=((2, finite(1)), (2, finite(1))))
        with pytest.raises(InvalidInputError):
            BasicGroupSpec(pairs=((1, ZERO),))

    def test_multiplicity_lookup(self):
        b = BasicGroupSpec(
            pairs=((1, finite(2)), (3, finite(1))),
            tail=TAIL_CONSTANT,
            tail_value=aleph(0),
        )
        assert b.multiplicity_of(1) == finite(2)
        assert b.multiplicity_of(2) == ZERO  # gap below the last listed exponent
        assert b.multiplicity_of(3) == finite(1)
        assert b.multiplicity_of(4) == aleph(0)
        assert b.multiplicity_of(100) == aleph(0)

    def test_constant_tail_with_no_pairs_covers_everything(self):
        b = BasicGroupSpec(pairs=(), tail=TAIL_CONSTANT, tail_value=finite(1))
        assert b.multiplicity_of(1) == finite(1)
        assert b.multiplicity_of(9) == finite(1)

    def test_rank(self):
        assert BasicGroupSpec(pairs=((1, finite(2)), (4, finite(3)))).rank() == finite(5)
        unbounded = BasicGroupSpec(
            pairs=((1, finite(2)),), tail=TAIL_CONSTANT, tail_value=finite(1)
        )
        assert unbounded.rank() == aleph(0)
        big = BasicGroupSpec(pairs=((1, aleph(2)),))
        assert big.rank() == aleph(2)

    def test_bounded_and_empty_flags(self):
        assert BasicGroupSpec(pairs=()).is_empty
        assert BasicGroupSpec(pairs=((1, finite(1)),)).is_bounded
        assert not BasicGroupSpec(
            pairs=(), tail=TAIL_CONSTANT, tail_value=finite(1)
        ).is_bounded

    def test_json_roundtrip(self):
        b = BasicGroupSpec(
            pairs=((2, finite(1)), (5, aleph(1))),
            tail=TAIL_CONSTANT,
            tail_value=finite(3),
        )
        assert BasicGroupSpec.from_json(json.loads(json.dumps(b.to_json()))) == b
        for bad in ("2", 2.0, True):
            with pytest.raises(InvalidInputError):
                BasicGroupSpec.from_json({"pairs": [[bad, 1]]})


class TestBasicSequence:
    def test_needs_at_least_one_block(self):
        with pytest.raises(ShapeViolationError):
            BasicSequence(blocks=())

    def test_json_roundtrip_and_xi_validation(self):
        seq = basic_sequence_of_group(make_group(2, [(1, 1), (2, 1)]))
        data = json.loads(json.dumps(seq.to_json()))
        assert BasicSequence.from_json(data) == seq
        data["blocks"][0]["xi"] = {"q": 3, "r": 0}
        with pytest.raises(InvalidInputError):
            BasicSequence.from_json(data)
        with pytest.raises(InvalidInputError):
            BasicSequence.from_json({"blocks": [3]})

    def test_of_bounded_group(self, G2):
        seq = basic_sequence_of_group(G2)
        assert len(seq.blocks) == 1
        assert seq.blocks[0] == BasicGroupSpec(pairs=((2, finite(1)), (4, finite(1))))


UNBOUNDED_ONES = BasicGroupSpec(pairs=(), tail=TAIL_CONSTANT, tail_value=finite(1))


class TestBasicAdmissibility:
    def test_empty_block_rejected(self):
        with pytest.raises(ShapeViolationError):
            check_basic_sequence_admissible(BasicSequence(blocks=(BasicGroupSpec(pairs=()),)))

    def test_bounded_block_must_be_final(self):
        seq = BasicSequence(
            blocks=(BasicGroupSpec(pairs=((1, finite(1)),)), UNBOUNDED_ONES)
        )
        with pytest.raises(ShapeViolationError):
            check_basic_sequence_admissible(seq)

    def test_single_block_is_vacuously_fine(self, G2):
        report = check_basic_sequence_admissible(basic_sequence_of_group(G2))
        assert report.claim_id == "basic-sequence-admissible"
        assert report.status == "verified"
        assert report.checked == "0 rank comparisons"

    def test_rank_inequality_holds(self):
        seq = BasicSequence(
            blocks=(UNBOUNDED_ONES, BasicGroupSpec(pairs=((1, finite(3)),)))
        )
        report = check_basic_sequence_admissible(seq)
        assert report.status == "verified"
        assert report.checked == "1 rank comparisons"

    def test_rank_inequality_refuted(self):
        seq = BasicSequence(
            blocks=(UNBOUNDED_ONES, BasicGroupSpec(pairs=((1, aleph(1)),)))
        )
        report = check_basic_sequence_admissible(seq)
        assert report.status == "refuted"
        assert report.witnesses == [
            {"block": 0, "rank": "aleph_0", "later_sum": "aleph_1"}
        ]

    def test_rank_sums_are_linear_in_the_block_count(self):
        blocks = (UNBOUNDED_ONES,) * 10_000 + (BasicGroupSpec(pairs=((1, finite(1)),)),)
        start = time.perf_counter()
        report = check_basic_sequence_admissible(BasicSequence(blocks=blocks))
        assert time.perf_counter() - start < 5
        assert report.status == "verified"
        assert report.checked == "10000 rank comparisons"


class TestTranslation:
    def test_matches_direct_ulm_data_on_groups(self, G2, G3):
        for G in (G2, G3, make_group(2, [(1, 1), (2, 1), (3, 1)])):
            assert basic_seq_to_ulm(basic_sequence_of_group(G)) == ulm_sequence_of_group(G)

    def test_two_block_translation(self):
        seq = BasicSequence(
            blocks=(
                BasicGroupSpec(
                    pairs=((1, finite(2)), (3, finite(1))),
                    tail=TAIL_CONSTANT,
                    tail_value=finite(1),
                ),
                BasicGroupSpec(pairs=((2, finite(1)),)),
            )
        )
        ulm = basic_seq_to_ulm(seq)
        assert ulm.length == Ordinal(1, 2)
        # exponent n lands at offset n - 1 within its block
        assert ulm.value_at(Ordinal(0, 0)) == finite(2)
        assert ulm.value_at(Ordinal(0, 1)) == ZERO
        assert ulm.value_at(Ordinal(0, 2)) == finite(1)
        assert ulm.value_at(Ordinal(0, 9)) == finite(1)  # carried constant tail
        assert ulm.value_at(Ordinal(1, 0)) == ZERO
        assert ulm.value_at(Ordinal(1, 1)) == finite(1)
        assert ulm_to_basic_seq(ulm) == seq

    def test_roundtrip_through_blocks(self, G2):
        seq = basic_sequence_of_group(G2)
        assert ulm_to_basic_seq(basic_seq_to_ulm(seq)) == seq

    def test_roundtrip_through_ulm(self):
        acc = ulm_accept_example()
        assert basic_seq_to_ulm(ulm_to_basic_seq(acc)) == acc

    def test_inadmissible_blocks_refused(self):
        seq = BasicSequence(
            blocks=(UNBOUNDED_ONES, BasicGroupSpec(pairs=((1, aleph(1)),)))
        )
        with pytest.raises(NotAdmissibleError):
            basic_seq_to_ulm(seq)

    def test_bounded_nonfinal_block_has_no_presentation(self):
        with pytest.raises(NotAdmissibleError):
            ulm_to_basic_seq(ulm_reject_example())


# --------------------------------------------------------------------------
# symbolic ideal descriptors


class TestDescriptor:
    def test_torsion_parameter_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            SymbolicIdealDescriptor(kappa=Ordinal(0, 0), n=0)

    def test_defaults_and_str(self):
        d = SymbolicIdealDescriptor(kappa=Ordinal(1, 1), n=2)
        assert d.mu == aleph(0)
        assert str(d) == "ideal(p^w+1 G[p^2], rank<=aleph_0)"

    def test_json_roundtrip(self):
        d = SymbolicIdealDescriptor(kappa=Ordinal(0, 3), n=1, mu=aleph(1))
        assert (
            SymbolicIdealDescriptor.from_json(json.loads(json.dumps(d.to_json()))) == d
        )
        # mu may be omitted on input
        assert SymbolicIdealDescriptor.from_json(
            {"kappa": {"q": 0, "r": 3}, "n": 1}
        ) == SymbolicIdealDescriptor(kappa=Ordinal(0, 3), n=1)
        with pytest.raises(InvalidInputError):
            SymbolicIdealDescriptor.from_json({"n": 1})
        for bad in ("2", 2.0, True):
            with pytest.raises(InvalidInputError):
                SymbolicIdealDescriptor.from_json({"kappa": {"q": 0, "r": 0}, "n": bad})

    def test_leq_reverses_subgroup_containment(self):
        deep = SymbolicIdealDescriptor(kappa=Ordinal(0, 2), n=1)
        wide = SymbolicIdealDescriptor(kappa=Ordinal(0, 0), n=3)
        # subgroup(deep) <= subgroup(wide), so the stated rule puts the
        # ideals the other way around
        assert descriptor_leq(wide, deep)
        assert not descriptor_leq(deep, wide)
        assert descriptor_leq(deep, deep)

    def test_leq_breaks_ties_on_the_rank_cap(self):
        small = SymbolicIdealDescriptor(kappa=Ordinal(0, 1), n=2, mu=aleph(0))
        large = SymbolicIdealDescriptor(kappa=Ordinal(0, 1), n=2, mu=aleph(1))
        assert descriptor_leq(small, large)
        assert not descriptor_leq(large, small)

    def test_incomparable_parameters_need_a_group(self):
        a = SymbolicIdealDescriptor(kappa=Ordinal(0, 0), n=1)
        b = SymbolicIdealDescriptor(kappa=Ordinal(0, 1), n=2)
        with pytest.raises(IncomparableContextError):
            descriptor_leq(a, b)

    def test_rule_refuted_by_materialization(self, small24):
        ids = ["descriptor-rule-as-stated", "descriptor-rule-empirical"]
        stated, empirical = run_claims(small24, ids=ids)
        assert stated.claim_id == "descriptor-rule-as-stated"
        assert stated.status == "refuted"
        assert empirical.claim_id == "descriptor-rule-empirical"
        assert empirical.status == "verified"
        assert stated.checked == empirical.checked
        assert all(w["stated"] != w["actual"] for w in stated.witnesses)


def test_ulm_position_indexing_is_shifted(G2, small24):
    (report,) = run_claims(G2, ids=["ulm-position-indexing"])
    assert report.status == "refuted"
    assert report.checked == "2 components"
    assert len(report.witnesses) == 2
    assert "off-by-one" in report.note
    # on Z(2) + Z(4) the exponent-1 slot matches by accident; exponent 2 does not
    (small,) = run_claims(small24, ids=["ulm-position-indexing"])
    assert small.status == "refuted"
    assert [w["exponent"] for w in small.witnesses] == [2]
