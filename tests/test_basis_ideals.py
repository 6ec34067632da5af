"""Ideals built from the ring's r^2 basis against the whole-ring sweeps they
replace.

``enumerate_ideals`` seeds its census with the multiples ``p^v b`` of the
basis matrices, and ``dagger_subgroup`` and ``special_ideals`` read each
ideal off the basis one digit at a time (``EndoRing.basis_grid``).  The
oracles here are the definitions over every member of End(G): one principal
ideal per member, the members whose rows lie in ``H``, and the members
scaled by or killed by ``p^n``.  They must agree on every ring within the
ideal budget for p in {2, 3, 5, 7}.
"""
import numpy as np
import pytest

from pgroups import dagger_subgroup, enumerate_fi_subgroups, enumerate_ideals
from pgroups import make_group, special_ideals
from pgroups import endos
from pgroups.endos import Ideal, get_ring
from pgroups.groups import _join, _join_closure, _members
from ring_family import FAMILY


def members(ring):
    return ring.decode(np.arange(ring.size))


def sweep_ideals(G):
    """One principal ideal per distinct sandwich set of each member, then
    the pairwise-sum fixpoint, sorted by (size, indices)."""
    ring = get_ring(G)
    products = (endos._sandwich_products(ring, f) for f in members(ring))
    seeds = {prods.tobytes(): prods for prods in products}
    ideals = _join_closure((Ideal(G, ring.endo_span(s)) for s in seeds.values()), _join)
    ideals.sort(key=lambda I: (I.size, I.indices.tolist()))
    return ideals


@pytest.mark.parametrize("G", FAMILY, ids=lambda G: G.describe())
def test_basis_ideals_match_the_whole_ring(G):
    assert enumerate_ideals(G) == sweep_ideals(G)
    ring = get_ring(G)
    mats = members(ring)
    rows = mats @ ring._elem_strides
    for H in enumerate_fi_subgroups(G).nodes:
        inside = np.flatnonzero(_members(rows, H.indices).all(axis=1))
        assert np.array_equal(dagger_subgroup(G, H).indices, inside)
    for n in range(G.exponent + 2):
        scaled = mats * G.p**n % ring.moduli
        power, torsion = special_ideals(G, n)
        assert np.array_equal(power.indices, np.unique(ring.pack_endos(scaled)))
        killed = np.flatnonzero((scaled == 0).all(axis=(1, 2)))
        assert np.array_equal(torsion.indices, killed)


def test_census_spans_one_ideal_per_basis_multiple(monkeypatch):
    G = make_group(2, [(2, 1), (4, 1)])  # |End| = 1024
    real, calls = endos._sandwich_products, []

    def counting(ring, f):
        calls.append(f)
        return real(ring, f)

    monkeypatch.setattr(endos, "_sandwich_products", counting)
    enumerate_ideals(G)
    assert len(calls) <= 14  # the sweep over every member made 1024
