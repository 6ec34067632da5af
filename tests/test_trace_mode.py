"""The benchmark's trace mode (``perfbench/run.py --trace 1``) records every
per-layer metric that ``BENCHMARK.json`` declares.

``perfbench/spans.py`` wraps the public functions of each layer and the
ring's action methods (``EndoRing.action``, ``action_chunks``, ``action_row``
and ``action_rows``); a method it patches that no longer exists makes
``install`` fail.  Here a recorder is installed around one ``verify``, one
``endo`` and one ``analyze`` request served through ``cli.main``.
"""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

from pgroups.cli import main

ROOT = Path(__file__).resolve().parent.parent

#: Added by ``run.py`` from its wall clocks, not by the recorder.
RUN_METRICS = {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_mode_records_every_declared_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["per_layer"]
    group = json.dumps({"p": 2, "components": [{"exponent": 1, "multiplicity": 1},
                                               {"exponent": 2, "multiplicity": 1}]})
    recorder = _spans().SpanRecorder()
    recorder.install()
    try:
        for command in ("verify", "endo", "analyze"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, group]) == 0, command
    finally:
        recorder.uninstall()
    summary = recorder.summary()
    missing = {m["name"] for m in declared} - RUN_METRICS - set(summary)
    assert not missing
    assert summary["endos.action_entries"] > 0
    assert summary["claims.reports"] == 53
