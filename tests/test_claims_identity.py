"""Every ``run_claims`` report within the ideal budget is byte-identical to a
recorded digest.

The groups are those of the benchmark's ``verify`` set and stream pool
(``perfbench/workloads.py``) whose ring has at most 2**12 members, so every
claim runs, the census-backed ``dagger-well-defined`` included.  Each group
runs twice, once with the default budgets and once with ``max_ring`` and
``max_ideals`` both 16, which turns the runners that build the ring or list
ideals into their skip texts; the closed-form runners (the power/socle
identities, the descriptor rule, the collisions) answer under both.  A
refactor of the claim runners must leave every rendered report, witness lists
and ``checked`` texts included, as it was.
"""
from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

from pgroups import make_group, run_claims
from pgroups.endos import ring_order

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: SHA-256 of the 82 runs' rendered reports.
DIGEST = "68c9822ad0126e8d93b48b87bf8932d8da9d11c74be2ca5005a1dd5d5a21efe1"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_within_the_ideal_budget_are_unchanged():
    W = _workloads()
    pool = set(W.SMALL_RING_GROUPS) | set(W.query_group_pool())
    groups = [make_group(p, pairs) for p, pairs in sorted(pool)]
    groups = [G for G in groups if ring_order(G) <= 2**12]
    assert len(groups) == 41
    runs = []
    for G in groups:
        for budgets in ({}, {"max_ring": 16, "max_ideals": 16}):
            runs.append("\n".join(r.render() for r in run_claims(G, **budgets)))
    assert hashlib.sha256("\n".join(runs).encode()).hexdigest() == DIGEST
