"""Regenerate ``pins.json``: the expected answer to every request a run can make.

    python3 perfbench/pin.py

Verify answers (all 53 claims, rendered without timings) are keyed by
group, stream answers by ``"<kind> <subject>"``; each value is the SHA-256 of
the exit code and stdout.  A request whose exit code is not 0 is refused,
so ``verify`` refutations outside the shipped allowlist cannot be pinned.
Rerun this only when a change to the program is meant to change its output.
"""
from __future__ import annotations

import json
import sys

import run
import workloads as W


def main() -> int:
    run._import_program()
    pins: dict[str, dict[str, str]] = {"verify": {}, "stream": {}}
    for p, pairs in W.SMALL_RING_GROUPS:
        subject = W.group_json(p, pairs)
        req = run.Request(W.group_key(p, pairs), subject, ["verify", subject])
        pins["verify"][req.key] = _pin(req)
    groups = {W.group_json(p, pairs): W.group_key(p, pairs) for p, pairs in W.query_group_pool()}
    for kind, subject in W.all_stream_requests(list(groups), W.ulm_sequence_pool()):
        key = W.request_key(kind, groups.get(subject, subject))
        pins["stream"][key] = _pin(run.Request(key, None, W.request_argv(kind, subject)))
    path = run.HERE / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {sum(len(v) for v in pins.values())} pins to {path.name}")
    return 0


def _pin(req) -> str:
    code, text = run.serve(req)
    if code != 0:
        raise SystemExit(f"{req.key}: exit code {code}")
    print(req.key[:100], flush=True)
    return run.digest(code, text)


if __name__ == "__main__":
    sys.exit(main())
