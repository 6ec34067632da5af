"""Endomorphism rings, two-sided ideals, and the two dagger maps.

Brute-force oracles here work at the Endo level (explicit matrices, explicit
apply) so the vectorized ring tables are exercised against slow-but-obvious
recomputations.
"""
import itertools

import numpy as np
import pytest

from pgroups import (
    Element,
    Endo,
    InvalidInputError,
    MismatchedParentError,
    RingTooLargeError,
    apply,
    block_subgroup,
    compose,
    dagger_ideal,
    dagger_subgroup,
    endo_add,
    endo_rank,
    enumerate_elements,
    enumerate_endos,
    enumerate_fi_subgroups,
    enumerate_ideals,
    find_dagger_collision,
    full_subgroup,
    get_ring,
    ideal_generated,
    ideal_leq,
    ideal_meet,
    ideal_sum,
    identity_endo,
    image,
    make_endo,
    make_group,
    principal_ideal,
    reference_collision_generators,
    ring_order,
    run_claims,
    scalar_endo,
    smul,
    special_ideals,
    subgroup_generated,
    subgroup_name,
    zero_endo,
    zero_subgroup,
)
from pgroups import endos
from pgroups.groups import _grid, _indices_of, _members, _orbit_steps, _packing, _span
from pgroups.groups import _subgroup, _table
from ring_family import DAGGER_SUITE, FAMILY, FUN_IDENTITIES


def oracle_apply(a, f):
    """Row-vector-times-matrix with explicit reductions."""
    moduli = a.group.coordinate_moduli
    r = a.group.rank
    coords = []
    for t in range(r):
        coords.append(sum(a.coords[s] * f.matrix[s][t] for s in range(r)) % moduli[t])
    return a.group.element(coords)


def brute_endo_count(G):
    """Count all matrices that define homomorphisms, entry by entry."""
    exps = G.coordinate_exponents
    p = G.p
    count = 1
    for s in range(G.rank):
        for t in range(G.rank):
            # entries divisible by p^(e_t - e_s) inside Z(p^e_t)
            count *= p ** min(exps[s], exps[t])
    return count


# --- single endomorphisms -------------------------------------------------------


def test_make_endo_reduces_and_validates(small24):
    f = make_endo(small24, [[1, 0], [0, 5]])
    assert f.matrix == ((1, 0), (0, 1))
    # a -> b is not a homomorphism: b has larger order
    with pytest.raises(InvalidInputError):
        make_endo(small24, [[0, 1], [0, 0]])
    with pytest.raises(InvalidInputError):
        make_endo(small24, [[0], [0]])


def test_endo_json_roundtrip(small24):
    f = make_endo(small24, [[1, 2], [1, 3]])
    assert Endo.from_json(small24, f.to_json()) == f
    with pytest.raises(InvalidInputError):
        Endo.from_json(small24, {"rows": []})


@pytest.mark.parametrize(
    "matrix",
    [[["1", 0.0], [True, 1.9]], [[1, 0], [0, 1.0]], [[1, 0], [0, False]], [[1, 0], "01"]],
)
def test_endo_json_entries_are_not_coerced(small24, matrix):
    with pytest.raises(InvalidInputError, match="malformed endomorphism"):
        Endo.from_json(small24, {"matrix": matrix})


def test_apply_matches_oracle(small248):
    fs = enumerate_endos(small248)[:: 97]
    for f in fs:
        for x in enumerate_elements(small248):
            assert apply(x, f) == oracle_apply(x, f)


def test_apply_rejects_mixed_groups(small24, small28):
    with pytest.raises(MismatchedParentError):
        apply(small24.zero(), identity_endo(small28))


def test_compose_is_sequential_application(small24):
    endos = enumerate_endos(small24)
    elements = enumerate_elements(small24)
    for f, g in itertools.islice(itertools.product(endos, endos), 0, None, 41):
        fg = compose(f, g)
        for x in elements:
            assert apply(x, fg) == apply(apply(x, f), g)


def test_endo_add_pointwise(small24):
    f = make_endo(small24, [[1, 0], [0, 1]])
    g = make_endo(small24, [[1, 2], [1, 3]])
    h = endo_add(f, g)
    for x in enumerate_elements(small24):
        from pgroups import add

        assert apply(x, h) == add(apply(x, f), apply(x, g))


def test_scalar_and_constants(G2):
    assert zero_endo(G2).matrix == ((0, 0), (0, 0))
    assert identity_endo(G2).matrix == ((1, 0), (0, 1))
    two = scalar_endo(G2, 2)
    for x in enumerate_elements(G2):
        assert apply(x, two) == smul(2, x)


def test_image_and_rank(G2):
    b_to_a = make_endo(G2, [[0, 0], [1, 0]])  # b -> a, a -> 0
    img = image(b_to_a)
    assert set(img) == {apply(x, b_to_a) for x in enumerate_elements(G2)}
    assert img == subgroup_generated(G2, [G2.generator(0)])
    assert endo_rank(b_to_a) == 1
    assert endo_rank(identity_endo(G2)) == 2
    assert endo_rank(zero_endo(G2)) == 0
    assert endo_rank(scalar_endo(G2, 4)) == 1  # kills the Z(4) block


# --- ring enumeration ------------------------------------------------------------


@pytest.mark.parametrize(
    "p,pairs",
    [(2, [(1, 1), (2, 1)]), (2, [(1, 2), (2, 1)]), (3, [(1, 1), (2, 1)]), (2, [(2, 2)])],
)
def test_ring_order_formula(p, pairs):
    G = make_group(p, pairs)
    assert ring_order(G) == brute_endo_count(G)
    assert len(enumerate_endos(G)) == ring_order(G)


def test_ring_order_example(G2):
    # sum of min(e_s, e_t) over the four coordinate pairs: 2+2+2+4
    assert ring_order(G2) == 2**10


def test_enumerate_endos_distinct_and_valid(small24):
    endos = enumerate_endos(small24)
    assert len(set(endos)) == 32
    for f in endos:
        make_endo(small24, [list(r) for r in f.matrix])  # revalidates


def test_ring_budget():
    G = make_group(2, [(10, 2)])
    with pytest.raises(RingTooLargeError):
        get_ring(G)
    with pytest.raises(RingTooLargeError):
        enumerate_endos(G, max_ring=1000)


class TestRingTables:
    def test_element_index_roundtrip(self, small248):
        coords = _table(small248).coords
        for i, x in enumerate(enumerate_elements(small248)):
            assert _indices_of(small248, [x]).tolist() == [i]
            assert Element(small248, tuple(coords[i].tolist())) == x

    def test_endo_index_roundtrip(self, small24):
        ring = get_ring(small24)
        for i in range(ring.size):
            f = ring.endo_of_index(i)
            assert ring.pack_endos(np.array([f.matrix])).tolist() == [i]

    def test_action_row_matches_apply(self, small24):
        ring = get_ring(small24)
        elements = enumerate_elements(small24)
        for i in range(ring.size):
            f = ring.endo_of_index(i)
            row = ring.action_row(i)
            expected = _indices_of(small24, [apply(x, f) for x in elements])
            assert row.tolist() == expected.tolist()

    def test_action_rows_blocks(self, small24):
        ring = get_ring(small24)
        sel = np.array([0, 3, 17], dtype=np.int64)
        rows = ring.action_rows(sel)
        for k, i in enumerate(sel):
            assert rows[k].tolist() == ring.action_row(int(i)).tolist()

    def test_orbit_is_endomorphic_images(self, small24):
        elements = enumerate_elements(small24)
        endos = enumerate_endos(small24)
        for x in elements:
            got = set(_grid(_orbit_steps(small24, x.coords), *_packing(small24)).tolist())
            expected = set(_indices_of(small24, [apply(x, f) for f in endos]).tolist())
            assert got == expected

    def test_is_fully_invariant(self, small24):
        ring = get_ring(small24)
        assert ring.is_fully_invariant(block_subgroup(small24, (0, 1)))
        b_only = subgroup_generated(small24, [small24.generator(1)])
        assert not ring.is_fully_invariant(b_only)


# --- ideals -----------------------------------------------------------------------


def brute_principal(G, f):
    """Two-sided ideal of f via an Endo-level fixpoint."""
    endos = enumerate_endos(G)
    current = {zero_endo(G), f}
    while True:
        nxt = set(current)
        for g in current:
            for h in endos:
                nxt.add(compose(g, h))
                nxt.add(compose(h, g))
        for g, h in itertools.product(current, repeat=2):
            nxt.add(endo_add(g, h))
        if nxt == current:
            return current
        current = nxt


@pytest.mark.parametrize(
    "rows", [[[0, 2], [0, 2]], [[1, 0], [0, 0]], [[0, 0], [0, 2]]]
)
def test_principal_ideal_matches_fixpoint(small24, rows):
    f = make_endo(small24, rows)
    I = principal_ideal(small24, f)
    ring = get_ring(small24)
    got = {ring.endo_of_index(i) for i in I.indices}
    assert got == brute_principal(small24, f)


def test_ideal_contains_generators_and_zero(small24):
    f = make_endo(small24, [[0, 2], [0, 2]])
    I = principal_ideal(small24, f)
    ring = get_ring(small24)
    members = {ring.endo_of_index(i) for i in I.indices}
    assert zero_endo(small24) in members and f in members


def test_ideal_holds_no_endomorphism_of_another_group(small24):
    top = enumerate_ideals(small24)[-1]
    assert identity_endo(small24) in top
    assert identity_endo(make_group(3, [(1, 1), (2, 1)])) not in top
    assert "f" not in top


@pytest.mark.parametrize("indices", [[-1], [32], [0.5], [True]], ids=repr)
def test_ideal_rejects_indices_outside_the_ring(small24, indices):
    # |End(Z(2) + Z(4))| = 32, so the indices run over [0, 32)
    with pytest.raises(InvalidInputError):
        endos.Ideal(small24, indices)


def test_ideal_sum_meet_leq():
    # the six oracle groups of the generator-form tests below
    for key in sorted(GENERATOR_FORM_GROUPS):
        _check_ideal_sum_meet_leq(make_group(*GENERATOR_FORM_GROUPS[key]))


@pytest.mark.parametrize("G", FAMILY, ids=lambda G: G.describe())
def test_shift_forms_on_the_ring_family(G):
    _check_ideal_sum_meet_leq(G, table_limit=2**14)


def add_endo_indices(ring, a, b):
    """Indices of the sums of the endomorphisms with indices ``a`` and ``b``:
    digitwise addition modulo the digit radix."""
    da = (a[..., None] // ring._endo_strides) % ring._endo_radix
    db = (b[..., None] // ring._endo_strides) % ring._endo_radix
    return ((da + db) % ring._endo_radix) @ ring._endo_strides


def _check_ideal_sum_meet_leq(G, table_limit=None):
    """The shift-form operations against packed-set arithmetic on member
    indices: sum, meet, order and enumeration order of the ideals of ``G``,
    and both daggers and their composites on every fully invariant subgroup
    and every ideal.

    A sum is checked against the :func:`add_endo_indices` table of all pairwise
    sums of members where ``|I| |J|`` is at most ``table_limit`` (always by
    default), and against the span of both member sets otherwise."""
    ring = get_ring(G)
    ideals = enumerate_ideals(G)
    assert ideals == sorted(ideals, key=lambda I: (I.size, I.indices.tolist()))
    incomparable = 0
    for I, J in itertools.product(ideals, repeat=2):
        assert ideal_leq(I, J) == bool(np.isin(I.indices, J.indices).all())
    for I, J in itertools.combinations(ideals, 2):
        total = ideal_sum(I, J)
        meet = ideal_meet(I, J)
        assert np.array_equal(meet.indices, np.intersect1d(I.indices, J.indices))
        if table_limit is None or I.size * J.size <= table_limit:
            # the elementwise sum of two ideals is already an ideal
            add_table = add_endo_indices(ring, I.indices[:, None], J.indices[None, :])
            expected = np.unique(add_table)
        else:
            digits = ring._endo_radix, ring._endo_strides
            expected = _span(J.indices, *digits, span=I.indices)
        assert np.array_equal(total.indices, expected)
        assert ideal_sum(J, I) == total and ideal_meet(J, I) == meet
        assert ideal_leq(I, total) and ideal_leq(J, total)
        assert ideal_leq(meet, I) and ideal_leq(meet, J)
        if not ideal_leq(I, J) and not ideal_leq(J, I):
            incomparable += 1
            assert total.size > max(I.size, J.size)
    # these ideal lattices are chains exactly on the homocyclic groups
    assert (incomparable > 0) == (len(G.components) > 1)

    moduli, strides = _packing(G)
    every_row = ring.decode(np.arange(ring.size)) @ strides

    def pullback(H):  # the members whose rows lie in H
        return np.flatnonzero(_members(every_row, H.indices).all(axis=1))

    def pushforward(indices):  # the span of the members' rows
        return _span((ring.decode(indices) @ strides).reshape(-1), moduli, strides)

    for H in enumerate_fi_subgroups(G).nodes:
        up = dagger_subgroup(G, H).indices
        assert np.array_equal(up, pullback(H))
        closed = np.array_equal(pushforward(up), H.indices)
        assert (dagger_ideal(G, dagger_subgroup(G, H)) == H) == closed
    for I in ideals:
        down = dagger_ideal(G, I)
        assert np.array_equal(down.indices, pushforward(I.indices))
        back = pullback(down)
        assert np.array_equal(dagger_subgroup(G, down).indices, back)
        assert (dagger_subgroup(G, down) == I) == np.array_equal(back, I.indices)


def test_special_ideals_by_recount():
    """``p^n E`` is the set of the ``p^n f`` and ``E[p^n]`` the ``f`` with
    ``p^n f = 0``, over every member of every ring of the family: the closed
    shift forms that the power/socle identities read, against the ring."""
    for G in FAMILY:
        ring = get_ring(G)
        mats = ring.decode(np.arange(ring.size))
        for n in range(G.exponent + 1):
            power, torsion = special_ideals(G, n)
            scaled = mats * G.p**n % ring.moduli  # entry (s, t) lives mod p^e_t
            assert np.array_equal(power.indices, np.unique(ring.pack_endos(scaled))), (G, n)
            killed = np.flatnonzero((scaled == 0).all(axis=(1, 2)))
            assert np.array_equal(torsion.indices, killed), (G, n)


def test_enumerate_ideals_z2z4(small24):
    ideals = enumerate_ideals(small24)
    assert len(ideals) == 8
    assert sorted(I.size for I in ideals) == [1, 2, 4, 4, 8, 16, 16, 32]
    ring = get_ring(small24)
    # each returned set really is a two-sided ideal
    for I in ideals:
        members = [ring.endo_of_index(i) for i in I.indices]
        mset = set(members)
        for g in members:
            for h in enumerate_endos(small24):
                assert compose(g, h) in mset and compose(h, g) in mset
        for g, h in itertools.product(members[:8], repeat=2):
            assert endo_add(g, h) in mset


def test_enumerate_ideals_budget(small248):
    # |End| = 2^14 exceeds the dedicated ideal cap
    with pytest.raises(RingTooLargeError):
        enumerate_ideals(small248)
    assert ring_order(small248) == 2**14


def test_homocyclic_ideals_chain(homocyclic44):
    ideals = enumerate_ideals(homocyclic44)
    assert len(ideals) == 3  # 0, pE, E
    sizes = sorted(I.size for I in ideals)
    assert sizes == [1, 16, 256]
    ordered = sorted(ideals, key=lambda I: I.size)
    for a, b in itertools.pairwise(ordered):
        assert ideal_leq(a, b)


# --- daggers ------------------------------------------------------------------------


def brute_dagger_subgroup(G, H):
    members = set(H)
    return {
        f
        for f in enumerate_endos(G)
        if all(apply(x, f) in members for x in enumerate_elements(G))
    }


def brute_dagger_ideal(G, I):
    endos = enumerate_endos(G)
    pts = set()
    for i in I.indices:
        pts |= {apply(x, endos[i]) for x in enumerate_elements(G)}
    return subgroup_generated(G, pts)


def test_dagger_subgroup_matches_filter(small24):
    ring = get_ring(small24)
    for alpha in [(0, 0), (1, 1), (0, 1), (1, 2)]:
        H = block_subgroup(small24, alpha)
        I = dagger_subgroup(small24, H)
        got = {ring.endo_of_index(i) for i in I.indices}
        assert got == brute_dagger_subgroup(small24, H)


def test_dagger_ideal_matches_generated_image(small24):
    for I in enumerate_ideals(small24):
        assert dagger_ideal(small24, I) == brute_dagger_ideal(small24, I)


def test_dagger_images_census(small24):
    by_image = {}
    for I in enumerate_ideals(small24):
        name = subgroup_name(small24, dagger_ideal(small24, I))
        by_image[name] = by_image.get(name, 0) + 1
    assert by_image == {"0": 1, "pG": 2, "G[p]": 3, "G": 2}


def test_subgroup_side_closure(small24):
    # H -> H-dagger -> image lands back on H for fully invariant H
    for alpha in [(0, 0), (1, 1), (0, 1), (1, 2)]:
        H = block_subgroup(small24, alpha)
        assert dagger_ideal(small24, dagger_subgroup(small24, H)) == H


def test_ideal_side_closure_split(small24):
    closed_sizes = sorted(
        I.size
        for I in enumerate_ideals(small24)
        if dagger_subgroup(small24, dagger_ideal(small24, I)) == I
    )
    assert closed_sizes == [1, 4, 16, 32]


def test_double_dagger_only_grows(small24):
    for I in enumerate_ideals(small24):
        back = dagger_subgroup(small24, dagger_ideal(small24, I))
        assert ideal_leq(I, back)


def test_dagger_inv_class(small24):
    # the ideals whose image is the socle: three of them, closed under sums,
    # with a unique closed maximum (dagger-class-structure)
    socle = block_subgroup(small24, (0, 1))
    cls = [I for I in enumerate_ideals(small24) if dagger_ideal(small24, I) == socle]
    assert len(cls) == 3
    for I, J in itertools.combinations(cls, 2):
        assert dagger_ideal(small24, ideal_sum(I, J)) == socle
    (report,) = run_claims(small24, ids=["dagger-class-structure"])
    assert report.status == "verified"


def test_collision_construction(small24):
    pair = find_dagger_collision(small24)
    assert pair is not None
    I, J = pair
    assert I != J
    assert dagger_ideal(small24, I) == dagger_ideal(small24, J)
    # the constructed pair lands on the top power subgroup
    assert dagger_ideal(small24, I) == block_subgroup(small24, (1, 1))


def test_collision_none_on_homocyclic(homocyclic44):
    assert find_dagger_collision(homocyclic44) is None


def test_reference_collision_generators(small24):
    f, g = reference_collision_generators(small24)
    If = principal_ideal(small24, f)
    Ig = principal_ideal(small24, g)
    assert If != Ig
    # the scalar's image stops at the top power subgroup while the diagonal
    # generator reaches the socle
    assert subgroup_name(small24, dagger_ideal(small24, If)) == "pG"
    assert subgroup_name(small24, dagger_ideal(small24, Ig)) == "G[p]"


# --- generator forms against whole-ring oracles -------------------------------------
#
# The daggers, orbits, images and full invariance are computed from generators
# (rows of a matrix, the additive basis of the ring); these oracles apply every
# endomorphism to every element instead.

GENERATOR_FORM_GROUPS = {
    "Z2+Z4": (2, [(1, 1), (2, 1)]),
    "Z2+Z8": (2, [(1, 1), (3, 1)]),
    "Z4^2": (2, [(2, 2)]),
    "Z2^2+Z4": (2, [(1, 2), (2, 1)]),
    "Z3+Z9": (3, [(1, 1), (2, 1)]),
    "Z32": (2, [(5, 1)]),
}


@pytest.fixture(params=sorted(GENERATOR_FORM_GROUPS), scope="module")
def form_group(request):
    return make_group(*GENERATOR_FORM_GROUPS[request.param])


def test_dagger_subgroup_matches_filter_on_fi_nodes(form_group):
    G = form_group
    ring = get_ring(G)
    for H in enumerate_fi_subgroups(G).nodes:
        got = {ring.endo_of_index(i) for i in dagger_subgroup(G, H).indices}
        assert got == brute_dagger_subgroup(G, H)


def test_dagger_ideal_matches_generated_images_on_all_ideals(form_group):
    for I in enumerate_ideals(form_group):
        assert dagger_ideal(form_group, I) == brute_dagger_ideal(form_group, I)


def test_orbits_are_endomorphic_images(form_group):
    G = form_group
    endos = enumerate_endos(G)
    for x in enumerate_elements(G):
        got = set(_subgroup(G, _grid(_orbit_steps(G, x.coords), *_packing(G))))
        assert got == {apply(x, f) for f in endos}


def test_images_are_pointwise_images(form_group):
    elements = enumerate_elements(form_group)
    for f in enumerate_endos(form_group):
        assert set(image(f)) == {apply(x, f) for x in elements}


def test_full_invariance_of_cyclic_subgroups(form_group):
    G = form_group
    ring = get_ring(G)
    endos = enumerate_endos(G)
    verdicts = set()
    for a in enumerate_elements(G):
        H = subgroup_generated(G, [a])
        expected = all(apply(x, f) in H for x in H for f in endos)
        assert ring.is_fully_invariant(H) == expected, a
        verdicts.add(expected)
    # on a cyclic group every subgroup is fully invariant
    assert verdicts == ({True} if G.rank == 1 else {True, False})


def test_element_span_matches_subgroup_generated(form_group):
    import random

    G = form_group
    elements = enumerate_elements(G)
    rng = random.Random(20231103)
    for _ in range(40):
        seed = [rng.randrange(len(elements)) for _ in range(rng.randrange(5))]
        got = _span(np.array(seed, dtype=np.int64), *_packing(G))
        expected = subgroup_generated(G, [elements[i] for i in seed])
        assert [elements[i] for i in got] == list(expected.elements)


# --- the verification sweeps ----------------------------------------------------------


def test_fun_identities_split(small24):
    reports = {r.claim_id: r for r in run_claims(small24, ids=FUN_IDENTITIES)}
    assert reports["power-ideal-dagger"].status == "verified"
    assert reports["socle-ideal-dagger"].status == "verified"
    assert reports["socle-subgroup-dagger"].status == "verified"
    bad = reports["power-subgroup-dagger"]
    assert bad.status == "refuted"
    # the preimage of pG holds maps like a -> pb that are not p-scalings
    assert bad.witnesses[0]["n"] == 1
    assert bad.witnesses[0]["preimage_size"] > bad.witnesses[0]["scaled_ring_size"]


def test_fun_identities_homocyclic(homocyclic44):
    reports = run_claims(homocyclic44, ids=FUN_IDENTITIES)
    assert len(reports) == 4
    for r in reports:
        assert r.status == "verified", r.claim_id


def test_galois_suite(small24):
    reports = {r.claim_id: r for r in run_claims(small24, ids=DAGGER_SUITE)}
    assert len(reports) == 12  # dagger-well-defined is a claim of its own
    expected_refuted = {"ideal-double-dagger-deflation"}
    for cid, r in reports.items():
        assert r.status == ("refuted" if cid in expected_refuted else "verified"), cid


def test_galois_closed_lattice_isomorphism(small39):
    reports = {r.claim_id: r for r in run_claims(small39, ids=DAGGER_SUITE)}
    assert reports["closed-lattice-isomorphism"].status == "verified"
    assert reports["dagger-intersection-preservation"].status == "verified"


def test_dagger_subgroup_requires_fi(small24):
    from pgroups import NotFullyInvariantError

    b_only = subgroup_generated(small24, [small24.generator(1)])
    with pytest.raises(NotFullyInvariantError, match="order 4 is not fully invariant"):
        dagger_subgroup(small24, b_only)  # a block sum off the normal form
    diagonal = subgroup_generated(small24, [small24.element([1, 2])])
    with pytest.raises(NotFullyInvariantError, match="order 2 is not fully invariant"):
        dagger_subgroup(small24, diagonal)  # no block sum
