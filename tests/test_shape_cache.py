"""Answers read off a group's shape are kept per process, bounded and small.

``lattice.enumerate_fi_subgroups``, ``matrix.build_matrix`` and
``endos._ideal_images`` each keep their answer per group in an
``lru_cache(maxsize=32)``.  Here, on every group of the benchmark's stream
pool: a cached answer equals a fresh computation (``__wrapped__``), a repeated
request prints the bytes of the first, the cached values are immutable and
hold no member set and no ideal listing, the budget flags still apply on a
cache hit, and the memory the caches keep after a sweep stays under a fixed
bound.  Every cache of ``pgroups`` keyed on a group has a finite bound.
"""
from __future__ import annotations

import gc
import importlib.util
import io
import pkgutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

import pgroups
from pgroups.cli import main
from pgroups.endos import Ideal, _ideal_images, _pushforward, ideal_shifts
from pgroups.groups import Subgroup, make_group
from pgroups.indicators import Indicator, _admissible, _sorted_indicators, enumerate_admissible
from pgroups.lattice import FILattice, enumerate_fi_subgroups
from pgroups.matrix import build_matrix

from conftest import own_pgroups_env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


W = _workloads()
POOL = [(p, pairs) for p, pairs in W.query_group_pool()]
REFERENCE = W.group_json(2, ((2, 1), (4, 1)))

#: The caches this file is about.
SHAPE_CACHES = (enumerate_fi_subgroups, build_matrix, _ideal_images)

#: Argument-free caches: one entry per process, whatever the requests.
UNKEYED_CACHES = {"build_parser", "_allowlist_entries"}


def _clear():
    for cache in SHAPE_CACHES:
        cache.cache_clear()


def _serve(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _held(obj):
    """Every object reachable from ``obj`` through containers and
    ``pgroups`` instances, ``obj`` included."""
    seen, todo = set(), [obj]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, (tuple, list, set, frozenset)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.keys())
            todo.extend(x.values())
        elif type(x).__module__.startswith("pgroups"):
            todo.extend(gc.get_referents(x))


def _ids(pg):
    return W.group_key(*pg)


def test_pool_is_the_stream_pool():
    assert len(POOL) == 53


@pytest.mark.parametrize("pg", POOL, ids=_ids)
def test_cached_answers_equal_fresh_ones(pg):
    G = make_group(*pg)
    _clear()
    for cache in SHAPE_CACHES:
        cache(G)  # fill
    L = enumerate_fi_subgroups(G)
    assert L == enumerate_fi_subgroups.__wrapped__(G)
    M, fresh = build_matrix(G), build_matrix.__wrapped__(G)
    assert (M.group, M.display_cols, M.marker_cols) == (
        fresh.group,
        fresh.display_cols,
        fresh.marker_cols,
    )
    assert np.array_equal(M.shifts, fresh.shifts)
    summary = _ideal_images(G)
    assert summary == _ideal_images.__wrapped__(G)
    # and the summary is what the listing says
    W_ = ideal_shifts(G)
    assert summary[0] == len(W_)
    assert dict(summary[1]) == Counter(map(tuple, _pushforward(W_).tolist()))
    assert [alpha for alpha, _ in summary[1]] == sorted(L.shifts)
    for cache in SHAPE_CACHES:
        assert cache.cache_info().hits >= 1


@pytest.mark.parametrize("pg", POOL, ids=_ids)
def test_repeated_request_prints_the_same_bytes(pg):
    group = W.group_json(*pg)
    requests = [
        ["lattice", group, "--format", "json"],
        ["lattice", group, "--format", "dot"],
        ["matrix", group, "--format", "text"],
        ["matrix", group, "--format", "json"],
        ["endo", group],
        ["endo", group, "--max-ideals", "256"],
    ]
    _clear()
    first = [_serve(*argv) for argv in requests]
    again = [_serve(*argv) for argv in requests]
    assert again == first
    assert all(code == 0 for code, _ in first)


@pytest.mark.parametrize("pg", POOL, ids=_ids)
def test_cached_values_are_immutable(pg):
    G = make_group(*pg)
    L = enumerate_fi_subgroups(G)
    for f in fields(FILattice):
        value = getattr(L, f.name)
        if f.name != "group":
            assert isinstance(value, tuple)
            assert all(isinstance(v, tuple) for v in value)
    with pytest.raises(FrozenInstanceError):
        L.shifts = ()
    M = build_matrix(G)
    assert not M.shifts.flags.writeable
    with pytest.raises(ValueError):
        M.shifts[0, 0, 0] = 1
    with pytest.raises(FrozenInstanceError):
        M.shifts = None
    count, images = _ideal_images(G)
    assert isinstance(count, int) and isinstance(images, tuple)
    for alpha, n in images:
        assert isinstance(alpha, tuple) and all(type(a) is int for a in alpha)
        assert type(n) is int


@pytest.mark.parametrize("pg", POOL, ids=_ids)
def test_cached_values_hold_no_member_set_or_listing(pg):
    """No subgroup, no ideal and no array but the grid's own shifts; the
    summary has one entry per fully invariant subgroup at most."""
    G = make_group(*pg)
    L, M, summary = (cache(G) for cache in SHAPE_CACHES)
    for value in (L, M, summary):
        for x in _held(value):
            assert not isinstance(x, (Subgroup, Ideal))
            assert not isinstance(x, np.ndarray) or x is M.shifts
    assert M.shifts.size == G.exponent**2 * len(G.components)
    assert len(summary[1]) <= L.node_count


def test_verify_leaves_no_subgroup_in_the_cached_lattice():
    G = make_group(2, [(2, 1), (4, 1)])
    _clear()
    code, out = _serve("verify", REFERENCE)
    assert code == 0 and len(out.splitlines()) == 53
    hits = enumerate_fi_subgroups.cache_info().hits
    L = enumerate_fi_subgroups(G)
    assert enumerate_fi_subgroups.cache_info().hits == hits + 1
    assert "nodes" not in vars(L)
    assert not any(isinstance(x, Subgroup) for x in _held(L))
    # the nodes are still there on demand, built afresh
    assert [H.block_shifts for H in L.nodes] == list(L.shifts)
    assert L.nodes[0] is not L.nodes[0]


def _cold(*argv) -> tuple[int, str]:
    """The request served by a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-m", "pgroups", *argv],
        capture_output=True,
        text=True,
        env=own_pgroups_env(),
    )
    return proc.returncode, proc.stdout


def test_budget_gates_apply_on_a_cache_hit():
    """|End(Z(4) (+) Z(16))| = 2^10: within the default caps, so the first
    request fills the summary; a later one over ``--max-ideals`` must still
    refuse it."""
    _clear()
    code, out = _serve("endo", REFERENCE)
    assert code == 0 and "two-sided ideals: " in out
    assert _ideal_images.cache_info().currsize == 1
    flags = ["--max-ideals", "1023"]
    hits = _ideal_images.cache_info().hits
    served = _serve("endo", REFERENCE, *flags)
    assert "ideals not enumerated: |End(G)| exceeds --max-ideals 1023" in served[1]
    assert "two-sided ideals" not in served[1]
    assert served == _cold("endo", REFERENCE, *flags)
    assert _ideal_images.cache_info().hits == hits  # refused before the cache


def test_retained_memory_after_a_pool_sweep_is_bounded():
    """Measured: 0.31 MB retained after ``lattice``, ``matrix`` and ``endo``
    over the 53 pool groups (the three caches hold about 0.2 MB of it);
    bound 1 MB."""
    requests = [
        [kind, W.group_json(*pg)] for pg in POOL for kind in ("lattice", "matrix", "endo")
    ]
    _serve("lattice", REFERENCE)  # the parser and the imports, once
    _clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for argv in requests:
            _serve(*argv)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(c.cache_info().currsize == 32 for c in SHAPE_CACHES)
    assert retained < 2**20


def test_every_keyed_cache_is_bounded():
    modules = [
        importlib.import_module(f"pgroups.{info.name}")
        for info in pkgutil.iter_modules(pgroups.__path__)
        if info.name != "__main__"  # it runs the CLI on import
    ]
    maxsizes = {
        name: obj.cache_info().maxsize
        for module in modules
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
    }
    assert {name for name, size in maxsizes.items() if size is None} == UNKEYED_CACHES
    assert "ulm_invariant" not in maxsizes
    for cache in SHAPE_CACHES:
        assert cache.cache_info().maxsize == 32


@pytest.mark.parametrize("pg", POOL, ids=_ids)
def test_admissible_indicators_are_kept_once_in_their_order(pg):
    """``indicators._admissible`` keeps one immutable tuple per group: the
    admissible indicators in the fixed (length, entries) order, which the
    lattice labels and ``verify`` reads."""
    G = make_group(*pg)
    kept = _admissible(G)
    assert kept == _admissible.__wrapped__(G)
    assert isinstance(kept, tuple) and all(isinstance(s, Indicator) for s in kept)
    assert list(kept) == _sorted_indicators(enumerate_admissible(G))
    labels = enumerate_fi_subgroups(G).sigma_labels
    assert _sorted_indicators(s for node in labels for s in node) == list(kept)
    assert _admissible.cache_info().maxsize == 32
