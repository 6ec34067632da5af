"""pgroups benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each one exists):

* ``verify-small-rings``: passes of ``pgroups verify`` (all 53 claims
  through ``run_claims``) over a fixed list of groups, each pass in seeded
  order.  ``--seconds`` sets the number of passes (about one per
  ``workloads.VERIFY_PASS_SECONDS``).
* ``query-stream``: a fixed session of ``pgroups`` command lines, sized by
  ``--seconds`` and ordered by the seed.

Each pass runs in a fresh child process that imports the program, builds
its inputs, reports that it is ready and only then starts the clock.  A
``verify`` pass names each group once, so every ``verify`` request is as
cold as a fresh ``pgroups verify`` command: no program cache survives from
one pass to the next.  Requests go through ``pgroups.cli.main`` in the child
with stdout captured, and every output is compared with the digests in
``pins.json``.

Every run does a fixed amount of work rather than stopping at a deadline, so
its latency percentiles describe the same requests on every seed.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` each pass runs once untraced and once with the span recorder
installed, and the line holds per-layer metrics and the tracing overhead.
The program is imported from ``src/`` next to this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-small-rings", "query-stream")
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 15


def _import_program():
    """Import pgroups from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import pgroups
    import pgroups.cli

    if Path(pgroups.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"pgroups imported from {pgroups.__file__}, not {SRC}")
    return pgroups


def digest(exit_code: int, text: str) -> str:
    return hashlib.sha256(f"{exit_code}\n{text}".encode()).hexdigest()


# ---------------------------------------------------------------------------
# requests


class Request:
    """One ``pgroups`` command line with a pinned answer."""

    __slots__ = ("key", "group", "argv")

    def __init__(self, key: str, group: str | None, argv: list[str]):
        self.key = key
        self.group = group  # group JSON, or None for an Ulm sequence
        self.argv = argv


def build_passes(workload: str, seed: int, seconds: float):
    """Return ``(passes, pool_sizes)``: the run's requests, one list per
    child process."""
    import workloads as W

    if workload == "query-stream":
        groups = {W.group_json(p, pairs): W.group_key(p, pairs) for p, pairs in W.query_group_pool()}
        sequences = W.ulm_sequence_pool()
        session = [
            Request(
                W.request_key(kind, groups.get(subject, subject)),
                subject if kind != "ulm" else None,
                W.request_argv(kind, subject),
            )
            for kind, subject in W.stream_session(seed, seconds, list(groups), sequences)
        ]
        return [session], {"groups": len(groups), "ulm_sequences": len(sequences)}
    passes = [
        [Request(W.group_key(p, pairs), W.group_json(p, pairs), ["verify", W.group_json(p, pairs)])
         for p, pairs in order]
        for order in W.verify_passes(seed, seconds, W.SMALL_RING_GROUPS)
    ]
    return passes, {"groups": len(W.SMALL_RING_GROUPS), "passes": len(passes)}


def serve(request: Request) -> tuple[int, str]:
    """Run one command line in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["pgroups.cli"].main(request.argv)
    return code, out.getvalue()


def drive(requests, pins: dict) -> dict:
    """Closed loop: send the next request when the previous one returns.

    A request fails if it raises, exits non-zero, or prints anything other
    than its pinned answer; ``verify`` exits non-zero exactly when a
    refutation falls outside the shipped allowlist.
    """
    latencies, failed = [], 0
    start = perf_counter()
    for req in requests:
        t = perf_counter()
        try:
            code, text = serve(req)
            ok = code == 0 and pins.get(req.key) == digest(code, text)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        latencies.append(perf_counter() - t)
        if not ok:
            failed += 1
            if failed <= 5:
                print(f"failed request: {req.key}", file=sys.stderr)
    return {
        "wall": perf_counter() - start,
        "latencies": latencies,
        "failed": failed,
        "groups": sorted({r.group for r in requests if r.group is not None}),
        "keys": sorted({r.key for r in requests}),
    }


def serve_pass(args) -> int:
    """Child process: run pass ``args.pass_index`` and print its outcome."""
    _import_program()
    passes, _ = build_passes(args.workload, args.seed, args.seconds)
    print("ready", flush=True)
    if args.pass_index < 0:  # a set-up probe
        return 0
    pins = json.loads((HERE / "pins.json").read_text("utf-8"))[
        "verify" if args.workload == "verify-small-rings" else "stream"
    ]
    requests = passes[args.pass_index]
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        try:
            outcome = drive(requests, pins)
        finally:
            recorder.uninstall()
        outcome["layers"] = recorder.summary()
    else:
        outcome = drive(requests, pins)
    outcome["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(outcome))
    return 0


# ---------------------------------------------------------------------------
# the parent: spawn passes, merge, report


def child_timeout(args, n_passes: int) -> float:
    """Seconds one child may take: five times its share of ``--seconds``,
    plus a minute for start-up."""
    return 5 * args.seconds / n_passes + 60


def run_child(args, index: int, trace: int, timeout: float):
    """Start this script on one pass; return (set-up seconds, outcome).

    Set-up is the time from spawning the interpreter to its ``ready`` line.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--pass", str(index)]
    t = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            setup = perf_counter() - t
            rest, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"pass {index} exited with code {proc.returncode}")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if index >= 0 else None)


def merge(outcomes: list[dict]) -> dict:
    return {
        "wall": sum(o["wall"] for o in outcomes),
        "latencies": [x for o in outcomes for x in o["latencies"]],
        "failed": sum(o["failed"] for o in outcomes),
        "groups": set().union(*(o["groups"] for o in outcomes)),
        "keys": set().union(*(o["keys"] for o in outcomes)),
        "peak_rss_mb": max(o["peak_rss_mb"] for o in outcomes),
    }


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are ten samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} samples"
    pct = 100.0 * (n - 10) / n
    return ordered[n - 11], f"p{pct:.2f}: 10 of {n} samples beyond"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_index", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pass_index is not None:
        return serve_pass(args)

    # Fails here, before any child starts, where the sources are missing.
    _import_program()
    passes, pools = build_passes(args.workload, args.seed, args.seconds)
    timeout = child_timeout(args, len(passes))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  one client, closed loop, {len(passes)} child process(es)")
    if args.trace:
        plain = merge([run_child(args, k, 0, timeout)[1] for k in range(len(passes))])
        traced_outcomes = [run_child(args, k, 1, timeout)[1] for k in range(len(passes))]
        res = merge(traced_outcomes)
        metrics: dict[str, float] = {}
        for outcome in traced_outcomes:
            for name, value in outcome["layers"].items():
                metrics[name] = metrics.get(name, 0) + value
        metrics["trace.wall_s"] = res["wall"]
        metrics["trace.untraced_wall_s"] = plain["wall"]
        metrics["trace.overhead_s"] = res["wall"] - plain["wall"]
        units = {k: ("count" if isinstance(v, int) else "s") for k, v in metrics.items()}
        res["failed"] += plain["failed"]
        res["latencies"] += plain["latencies"]
        layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"ran the same {len(plain['latencies'])} requests untraced, then traced;"
              f" layer self time {layer_self:.3f} s of {res['wall']:.3f} s traced wall")
    else:
        res = merge([run_child(args, k, 0, timeout)[1] for k in range(len(passes))])
        setups = [run_child(args, -1, 0, timeout)[0] for _ in range(SETUP_PROBES)]
        tail, tail_label = tail_latency(res["latencies"])
        metrics = {
            "latency_p50_ms": statistics.median(res["latencies"]) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "ops_per_s": len(res["latencies"]) / res["wall"],
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        units = {"latency_p50_ms": "ms", "latency_tail_ms": "ms", "ops_per_s": "1/s",
                 "peak_rss_mb": "MB", "setup_s": "s"}
        print(f"latency_tail_ms is {tail_label}; setup_s is the median of"
              f" {len(setups)} fresh interpreters ({min(setups):.3f}-{max(setups):.3f} s)")
    attempted = len(res["latencies"])
    print(f"error_rate {res['failed'] / attempted:g} ratio"
          f" ({res['failed']} of {attempted} requests failed)")
    print("pools " + ", ".join(f"{k} {v}" for k, v in pools.items())
          + f"; touched {len(res['groups'])} distinct groups, {len(res['keys'])} distinct requests")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
