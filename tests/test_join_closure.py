"""The closure over atoms (``groups._join_closure``) against the pairwise-sum
fixpoint it replaced, on both of its oracles' inputs.

The census closes the spans of the principal ideals of the basis multiples
over End(G), on every ring of ``ring_family.FAMILY``; ``indicator-coverage``
closes the single-element orbits over G, on every group of the stream pool.
Each set found by the closure is joined only with the atoms it is comparable
to in neither direction, and must still give every sum the fixpoint gives,
each once.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pgroups import make_group
from pgroups.endos import _cached_ring, _sandwich_products
from pgroups.groups import _bits, _grid, _join, _join_closure, _orbit_steps, _packing, _span
from pgroups.groups import _subgroup, _table
from ring_family import FAMILY

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _pool():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [make_group(p, pairs) for p, pairs in module.query_group_pool()]


def pairwise_fixpoint(atoms, join, key):
    """Every set found joined with every set found before it, until no join is new."""
    found = list({key(S): S for S in atoms}.values())
    seen = set(map(key, found))
    for i, A in enumerate(found):
        for B in found[:i]:
            total = join(A, B)
            if key(total) not in seen:
                seen.add(key(total))
                found.append(total)
    return found


def census_atoms(G):
    ring = _cached_ring(G)
    mults = np.unique(ring.basis_multiples().reshape(-1, G.rank, G.rank), axis=0)
    radix, strides = ring._endo_radix, ring._endo_strides

    def join(a, b):
        small, large = sorted((a, b), key=len)
        return _span(small, radix, strides, span=large)

    return [ring.endo_span(seeds) for seeds in _sandwich_products(ring, mults)], join


def orbit_atoms(G):
    steps = np.unique(_orbit_steps(G, _table(G).coords), axis=0)
    return [_subgroup(G, _grid(s, *_packing(G))) for s in steps]


def members(sets) -> list:
    return sorted(S.tolist() for S in sets)


@pytest.mark.parametrize("G", FAMILY, ids=lambda G: G.describe())
def test_census_closure_is_the_pairwise_fixpoint(G):
    atoms, join = census_atoms(G)
    closed = _join_closure(atoms, join, _bits)
    expected = pairwise_fixpoint(atoms, join, lambda S: S.tobytes())
    assert len(closed) == len({S.tobytes() for S in closed})
    assert members(closed) == members(expected)


@pytest.mark.parametrize("G", _pool(), ids=lambda G: G.describe())
def test_orbit_closure_is_the_pairwise_fixpoint(G):
    atoms = orbit_atoms(G)
    closed = _join_closure(atoms, _join, lambda H: _bits(H.indices))
    expected = pairwise_fixpoint(atoms, _join, lambda H: H)
    assert len(closed) == len(set(closed))
    assert set(closed) == set(expected)


def test_bits_are_the_members():
    indices = np.array([0, 3, 64, 65, 200])
    mask = _bits(indices)
    assert [x for x in range(256) if mask >> x & 1] == indices.tolist()
