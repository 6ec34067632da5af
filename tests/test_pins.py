"""Every answer the benchmark can request still matches ``perfbench/pins.json``.

Serves each pinned request in-process through ``pgroups.cli.main`` and
compares the SHA-256 of its exit code and stdout with the pinned digest,
using the benchmark's own request builders (``perfbench/workloads.py``) and
its ``serve``/``digest`` helpers (``perfbench/run.py``).
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pgroups.cli  # noqa: F401  (run.serve calls it through sys.modules)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
W = _load("workloads")


def _pinned_requests():
    """``(section, request)`` for every request ``perfbench/pin.py`` pins."""
    for p, pairs in W.SMALL_RING_GROUPS:
        subject = W.group_json(p, pairs)
        yield "verify", run.Request(W.group_key(p, pairs), subject, ["verify", subject])
    groups = {W.group_json(p, pairs): W.group_key(p, pairs) for p, pairs in W.query_group_pool()}
    for kind, subject in W.all_stream_requests(list(groups), W.ulm_sequence_pool()):
        key = W.request_key(kind, groups.get(subject, subject))
        yield "stream", run.Request(key, None, W.request_argv(kind, subject))


def test_every_pinned_answer_is_unchanged():
    pins = json.loads((PERFBENCH / "pins.json").read_text("utf-8"))
    served = {"verify": set(), "stream": set()}
    changed = []
    for section, req in _pinned_requests():
        served[section].add(req.key)
        if run.digest(*run.serve(req)) != pins[section].get(req.key):
            changed.append(req.key)
    assert {s: set(keys) for s, keys in pins.items()} == served
    assert changed == []
