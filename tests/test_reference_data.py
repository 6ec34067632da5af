"""The bundled reference data (``pgroups.reference``) against recomputation.

The counts and the lattice statistics of the running example
Z(p^2) (+) Z(p^4) do not depend on p, and each listed matrix erratum must
name the recomputed cell and differ from it.
"""
import pytest

from pgroups import (
    REFERENCE_ADMISSIBLE_COUNT,
    REFERENCE_FI_NODE_COUNT,
    REFERENCE_LATTICE_STATS,
    REFERENCE_MATRIX_ERRATA,
    REFERENCE_REALIZABLE_COUNT,
    build_matrix,
    enumerate_admissible,
    enumerate_fi_subgroups,
    is_realizable,
    lattice_stats,
    reference_group,
)

PRIMES = [2, 3, 5]


@pytest.mark.parametrize("p", PRIMES)
def test_reference_counts(p):
    G = reference_group(p)
    admissible = enumerate_admissible(G)
    assert len(admissible) == REFERENCE_ADMISSIBLE_COUNT
    assert sum(is_realizable(G, s) for s in admissible) == REFERENCE_REALIZABLE_COUNT
    lattice = enumerate_fi_subgroups(G)
    assert lattice.node_count == REFERENCE_FI_NODE_COUNT
    assert lattice_stats(lattice) == REFERENCE_LATTICE_STATS


@pytest.mark.parametrize("p", PRIMES)
def test_matrix_errata_name_the_recomputed_cells(p):
    M = build_matrix(reference_group(p))
    for cell, shifts in REFERENCE_MATRIX_ERRATA.items():
        assert shifts["true"] == M.cell_shifts(*cell), cell
        assert shifts["listed"] != M.cell_shifts(*cell), cell
