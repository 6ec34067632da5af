"""One cached ring shape per group: member matrices are built on demand, and
the ring budget applies only to work that walks End(G)."""
import itertools
import time

import numpy as np
import pytest

from pgroups import (
    RingTooLargeError,
    dagger_ideal,
    enumerate_fi_subgroups,
    get_ring,
    ideal_generated,
    identity_endo,
    image,
    make_group,
    run_claims,
    scalar_endo,
)
from pgroups.endos import _CHUNK_BYTES, _cached_ring, ring_order
from pgroups.lattice import is_valid_fi_form

#: Rings above the default 2**20 cap on small groups.
BIG_RINGS = [
    make_group(2, [(1, 2), (3, 2)]),  # |G| = 256, |End| = 2^24
    make_group(3, [(1, 1), (2, 1), (3, 1)]),  # |G| = 729
    make_group(2, [(1, 1), (2, 1), (3, 1), (4, 1)]),  # |G| = 1024
]


def _valid_block_shifts(G):
    ranges = [range(n + 1) for n, _ in G.components]
    return sum(is_valid_fi_form(G, alpha) for alpha in itertools.product(*ranges))


@pytest.mark.parametrize("G", BIG_RINGS, ids=lambda G: G.describe())
def test_lattice_above_the_ring_cap(G):
    assert ring_order(G) > 2**20
    with pytest.raises(RingTooLargeError):
        get_ring(G)
    assert enumerate_fi_subgroups(G).node_count == _valid_block_shifts(G)


def test_lattice_builds_each_orbit_once():
    G = make_group(2, [(1, 16)])  # |G| = 2^16, |End| = 2^256
    start = time.perf_counter()
    assert enumerate_fi_subgroups(G).node_count == 2
    # one orbit per element (65536 subgroups of up to |G| elements) takes minutes
    assert time.perf_counter() - start < 20


def test_fi_closure_indicator_is_one_pass():
    G = make_group(2, [(1, 14)])  # |G| = 2^14
    start = time.perf_counter()
    (report,) = run_claims(G, ids=["fi-closure-indicator"])
    # one orbit and one indicator cut per element took about 7 s here
    assert time.perf_counter() - start < 3
    assert (report.status, report.checked) == ("verified", "16384 elements")


def test_shape_only_claims_run_above_the_ring_cap():
    G = BIG_RINGS[0]
    ids = ["fi-closure-indicator", "indicator-coverage", "indicator-subgroups-invariant"]
    reports = run_claims(G, ids=ids)
    assert [(r.claim_id, r.status) for r in reports] == [(i, "verified") for i in ids]
    (skipped,) = run_claims(G, ids=["endo-height-exponent"])
    assert skipped.status == "skipped"
    assert "exceeds cap 1048576" in skipped.checked


def test_one_ring_build_per_claim_run(small24):
    _cached_ring.cache_clear()
    run_claims(small24)
    info = _cached_ring.cache_info()
    assert info.misses == 1
    assert info.hits > 0


def test_lattice_builds_no_member_table(small24):
    _cached_ring.cache_clear()
    enumerate_fi_subgroups(small24)
    assert "endo_matrices" not in vars(_cached_ring(small24))
    get_ring(small24).endo_matrices
    assert "endo_matrices" in vars(_cached_ring(small24))


def test_ideal_helpers_keep_the_callers_cap():
    G = make_group(2, [(5, 1), (6, 1)])  # |End| = 2^21
    with pytest.raises(RingTooLargeError):
        get_ring(G)
    f = scalar_endo(G, 32)
    I = ideal_generated(G, [f], max_ring=2**21)
    assert I.size == 2
    assert I.to_json() == {"size": 2, "generators": [f.to_json()]}
    assert f in I
    assert identity_endo(G) not in I
    assert set(I.endos()) == {f, scalar_endo(G, 0)}
    assert I.generator_endos() == [f]
    img = dagger_ideal(G, I)
    assert img == image(f)
    assert img.order == 2
    assert "endo_matrices" not in vars(_cached_ring(G))


def test_action_chunks_are_sized_in_bytes():
    G = make_group(2, [(16, 1)])  # |End| = |G| = 2^16, inside the default caps
    start, block = next(get_ring(G).action_chunks())
    assert start == 0
    assert 0 < block.nbytes <= _CHUNK_BYTES
    assert block.shape == (_CHUNK_BYTES // (8 * G.order), G.order)


@pytest.mark.parametrize(
    "p, pairs",
    [
        (2, [(1, 1), (2, 1)]),
        (2, [(1, 1), (3, 1)]),
        (2, [(2, 2)]),
        (2, [(1, 2), (2, 1)]),
        (2, [(2, 1), (3, 1)]),
        (2, [(1, 1), (5, 1)]),
        (3, [(1, 1), (2, 1)]),
        (3, [(1, 1), (3, 1)]),
        (2, [(2, 1), (4, 1)]),
    ],
)
def test_small_rings_act_in_one_block(p, pairs):
    ring = get_ring(make_group(p, pairs))
    blocks = list(ring.action_chunks())
    assert len(blocks) == 1
    assert np.array_equal(blocks[0][1], ring.action)
