"""Image ranks from generator matrices against ranks read off the action.

``rank-subadditivity`` ranks images with the batched elimination of
``endos._image_ranks``, which never looks at the group's elements.  The
oracle here is the definition it replaces: the p-log of the number of
distinct socle elements in an endomorphism's action row.  It must agree on
every endomorphism, and on a seeded sample of sums, of every ring within the
ideal budget for p in {2, 3, 5, 7}.
"""
import itertools
import json
import time

import numpy as np
import pytest

from pgroups import endo_rank, identity_endo, make_endo, make_group, ring_order
from pgroups import run_claims
from pgroups import claims as claims_module
from pgroups.endos import _image_ranks, get_ring
from pgroups.groups import _table
from ring_family import FAMILY, IDEAL_BUDGET


def socle_ranks(G, rows):
    """Per action row, the p-log of its count of distinct socle elements."""
    ex = _table(G).exponents
    s = np.sort(rows, axis=1)
    first = np.ones(s.shape, dtype=bool)
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    socle = (first & (ex[s] <= 1)).sum(axis=1)
    return np.rint(np.log(socle) / np.log(G.p)).astype(np.int64)


def test_family_is_every_small_ring():
    assert len(FAMILY) == 54
    assert all(ring_order(G) <= IDEAL_BUDGET for G in FAMILY)


@pytest.mark.parametrize("G", FAMILY, ids=lambda G: G.describe())
def test_kernel_matches_action_rows(G):
    ring = get_ring(G)
    for start, rows in ring.action_chunks():
        mats = ring.decode(np.arange(start, start + len(rows)))
        assert _image_ranks(G, mats).tolist() == socle_ranks(G, rows).tolist()
    rng = np.random.default_rng(ring.size)
    i, j = rng.integers(0, ring.size, size=(2, 500))
    rows_i, rows_j = ring.action_rows(i), ring.action_rows(j)
    t = _table(G)
    summed = (t.coords[rows_i] + t.coords[rows_j]) % t.moduli @ t.strides
    sums = (ring.decode(i) + ring.decode(j)) % ring.moduli
    assert _image_ranks(G, sums).tolist() == socle_ranks(G, summed).tolist()


def test_endo_rank_needs_no_group_table():
    # |G| = 2^41: far beyond any table, and past the int64 fast path
    G = make_group(2, [(1, 1), (40, 1)])
    assert endo_rank(identity_endo(G)) == 2
    assert endo_rank(make_endo(G, [[0, 0], [0, 2]])) == 1
    assert endo_rank(make_endo(G, [[0, 0], [0, 2**39]])) == 1
    assert endo_rank(make_endo(G, [[0, 0], [0, 0]])) == 0


def test_overstated_pair_is_a_witness_of_plain_ints(monkeypatch):
    G = make_group(2, [(1, 1), (2, 1)])
    ring = get_ring(G)
    pairs = list(itertools.combinations(range(ring.size), 2))
    # the sum of pair 5, (0, 6), is the first pair sum equal to this matrix
    target = ring.decode(pairs[5]).sum(axis=0) % ring.moduli
    sums = [ring.decode([f, g]).sum(axis=0) % ring.moduli for f, g in pairs]
    distinct = len({m.tobytes() for m in sums})
    real = claims_module._image_ranks
    calls = []

    def overstating(G, mats):
        ranks = real(G, mats)
        calls.append(len(mats))
        if len(calls) == 2:  # the pair sums come after the sample
            ranks[(np.asarray(mats) == target).all(axis=(1, 2))] += 10
        return ranks

    monkeypatch.setattr(claims_module, "_image_ranks", overstating)
    [report] = run_claims(G, ids=["rank-subadditivity"])
    assert calls == [32, distinct]
    assert report.status == "refuted"
    # every pair with that sum, the first five in combinations order
    hit = [k for k, m in enumerate(sums) if np.array_equal(m, target)]
    assert hit[:5] == [5, 34, 62, 93, 225]
    assert len(report.witnesses) == 5
    for w, k in zip(report.witnesses, hit):
        f, g = pairs[k]
        assert w["f"] == ring.endo_of_index(f).to_json()["matrix"]
        assert w["g"] == ring.endo_of_index(g).to_json()["matrix"]
        mats = ring.decode([f, g])
        assert w["rank_sum"] == sum(real(G, mats).tolist())
        assert w["rank_of_sum"] == real(G, mats.sum(axis=0)[None] % ring.moduli)[0] + 10
        fields = [w["rank_sum"], w["rank_of_sum"], *itertools.chain(*w["f"], *w["g"])]
        assert all(type(x) is int for x in fields)
    json.dumps(report.to_json())


def test_large_exponent_runs_in_time():
    # about 40 s when each pair's sum was ranked by a pass over G
    G = make_group(2, [(1, 1), (14, 1)])
    start = time.perf_counter()
    [report] = run_claims(G, ids=["rank-subadditivity"])
    assert time.perf_counter() - start < 2
    assert report.status == "verified"
    assert report.checked == "stride-1024 sample: 128 endomorphisms pairwise"
