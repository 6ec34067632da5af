"""Inputs for the benchmark workloads.

Everything the program receives is generated here as plain group or
sequence JSON.  The pools are fixed; the workload seed only picks the order
of the ``verify-small-rings`` groups and of the ``query-stream`` session,
so every request a run can make is known in advance and can be pinned
(see ``pin.py``).
"""
from __future__ import annotations

import bisect
import itertools
import json
import random

#: ``run_claims`` with default budgets; each ring fits the 2**12 ideal budget,
#: so all 53 claims run, ideal enumeration and the dagger suite included.
SMALL_RING_GROUPS = (
    (2, ((1, 1), (2, 1))),
    (2, ((1, 1), (3, 1))),
    (2, ((2, 2),)),
    (2, ((1, 2), (2, 1))),
    (2, ((2, 1), (3, 1))),
    (2, ((1, 1), (5, 1))),
    (3, ((1, 1), (2, 1))),
    (3, ((1, 1), (3, 1))),
    (2, ((2, 1), (4, 1))),
)

#: Seconds one pass over ``SMALL_RING_GROUPS`` takes on a 2-core machine
#: with pgroups 0.1.0; a run makes ``--seconds / VERIFY_PASS_SECONDS``
#: passes, at least one.
VERIFY_PASS_SECONDS = 16

#: The cheap part of the claim suite served to ``verify`` requests.
#: ``indicator-subgroups-invariant`` is left out: it scans the whole ring once
#: per admissible indicator and takes over 8 s on the larger pool rings.
VERIFY_SUBSET = (
    "fundamental-order-iff",
    "indicator-antitone",
    "indicator-coverage",
    "indicator-transitivity",
    "ulm-criterion-examples",
    "ulm-position-indexing",
)

#: Request kinds and their weights in the stream.  This is an assumption,
#: not measured traffic: the six kinds have equal shares, and ``matrix`` and
#: ``lattice`` split theirs evenly between their two output formats.
REQUEST_MIX = (
    ("analyze", 2),
    ("matrix-text", 1),
    ("matrix-json", 1),
    ("lattice-json", 1),
    ("lattice-dot", 1),
    ("endo", 2),
    ("verify", 2),
    ("ulm", 2),
)

ZIPF_EXPONENT = 1.1
#: Groups of order 512 and 1024 are left out: single requests on them take
#: 4-12 s, so a few of them made up to 40 % of a 30-second run and its
#: throughput and tail latency hinged on a handful of samples.
MAX_POOL_ORDER = 256
MAX_POOL_RING = 2**16
#: Session length per second of ``--seconds``: about the request rate that
#: pgroups 0.1.0 serves on a 2-core machine, so a run takes roughly
#: ``--seconds`` there.
SESSION_RATE = 39
# Seeds of the fixed pools; the workload seed never reaches them.
_SESSION_SEED = 20231103


def group_json(p: int, pairs) -> str:
    """Compact group JSON, the form every subcommand accepts inline."""
    comps = [{"exponent": n, "multiplicity": m} for n, m in pairs]
    return json.dumps({"p": p, "components": comps}, separators=(",", ":"))


def group_key(p: int, pairs) -> str:
    return f"{p}:" + ",".join(f"{n}x{m}" for n, m in pairs)


def _ring_order(p: int, pairs) -> int:
    exps = [n for n, m in pairs for _ in range(m)]
    return p ** sum(min(a, b) for a in exps for b in exps)


def query_group_pool() -> list[tuple[int, tuple]]:
    """Groups with p in {2,3,5,7}, at most three components of multiplicity
    at most two, |G| <= 256 and |End(G)| <= 2**16, in Zipf rank order.

    Smaller groups rank as more popular (by |G|, then |End(G)|), so most
    requests are short and the largest groups make up the tail.  Like
    ``REQUEST_MIX``, this order is assumed, not measured.
    """
    pool = []
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3):
            for exps in itertools.combinations(range(1, 11), k):
                for mults in itertools.product((1, 2), repeat=k):
                    pairs = tuple(zip(exps, mults))
                    order = p ** sum(n * m for n, m in pairs)
                    if order > MAX_POOL_ORDER:
                        continue
                    ring = _ring_order(p, pairs)
                    if ring <= MAX_POOL_RING:
                        pool.append((order, ring, p, pairs))
    return [(p, pairs) for _, _, p, pairs in sorted(pool)]


def ulm_sequence_pool() -> list[str]:
    """Valid symbolic Ulm sequences of lengths below w*3+3, both accepted
    and refuted ones, as compact JSON."""
    rng = random.Random(_SESSION_SEED + 1)
    values = [{"finite": 0}, {"finite": 1}, {"finite": 3}, {"aleph": 0}, {"aleph": 1}]
    pool = []
    for q in range(4):
        for r in range(4):
            if q == 0 and r == 0:
                continue
            for _ in range(2):
                blocks = []
                for i in range(q):
                    block = {
                        "xi": {"q": i, "r": 0},
                        "head": [rng.choice(values) for _ in range(rng.randrange(4))],
                        "tail": rng.choice(("all_zero", "constant")),
                    }
                    if block["tail"] == "constant":
                        block["tail_value"] = rng.choice(values[1:])
                    blocks.append(block)
                if r:
                    blocks.append(
                        {
                            "xi": {"q": q, "r": 0},
                            "head": [rng.choice(values) for _ in range(r)],
                            "tail": None,
                        }
                    )
                seq = {"lambda": {"q": q, "r": r}, "blocks": blocks}
                pool.append(json.dumps(seq, separators=(",", ":")))
    return list(dict.fromkeys(pool))


def request_argv(kind: str, subject: str) -> list[str]:
    """The ``pgroups`` argument vector for one request."""
    if kind == "analyze":
        return ["analyze", subject]
    if kind in ("matrix-text", "matrix-json"):
        return ["matrix", subject, "--format", kind.split("-")[1]]
    if kind in ("lattice-json", "lattice-dot"):
        return ["lattice", subject, "--format", kind.split("-")[1]]
    if kind == "endo":
        return ["endo", subject, "--max-ideals", "256"]
    if kind == "verify":
        return ["verify", subject, "--claims", ",".join(VERIFY_SUBSET)]
    if kind == "ulm":
        return ["ulm", subject]
    raise ValueError(f"unknown request kind {kind!r}")


def request_key(kind: str, subject: str) -> str:
    return f"{kind} {subject}"


def all_stream_requests(groups, sequences) -> list[tuple[str, str]]:
    """Every ``(kind, subject)`` the stream can send."""
    out = []
    for kind, _ in REQUEST_MIX:
        subjects = sequences if kind == "ulm" else groups
        out.extend((kind, s) for s in subjects)
    return out


class QueryStream:
    """Endless request generator: Zipf group popularity, fixed kind mix."""

    def __init__(self, seed: int, groups: list[str], sequences: list[str]):
        self._rng = random.Random(seed)
        self.groups = groups
        self.sequences = sequences
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(groups))]
        self._group_cdf = list(itertools.accumulate(weights))
        self._kinds = [k for k, _ in REQUEST_MIX]
        self._kind_cdf = list(itertools.accumulate(w for _, w in REQUEST_MIX))

    def _pick(self, cdf):
        return bisect.bisect_right(cdf, self._rng.random() * cdf[-1])

    def next(self) -> tuple[str, str]:
        kind = self._kinds[min(self._pick(self._kind_cdf), len(self._kinds) - 1)]
        if kind == "ulm":
            return kind, self.sequences[self._rng.randrange(len(self.sequences))]
        idx = min(self._pick(self._group_cdf), len(self.groups) - 1)
        return kind, self.groups[idx]


def stream_session(seed: int, seconds: float, groups, sequences) -> list[tuple[str, str]]:
    """A fixed session of ``SESSION_RATE * seconds`` requests in seeded order.

    The requests are drawn once from a constant seed, so every run with the
    same ``seconds`` sends the same multiset and its latency percentiles do
    not hinge on how many heavy requests a seed happened to draw; the
    workload seed only shuffles them.
    """
    stream = QueryStream(_SESSION_SEED, groups, sequences)
    session = [stream.next() for _ in range(max(1, round(SESSION_RATE * seconds)))]
    random.Random(seed).shuffle(session)
    return session


def verify_passes(seed: int, seconds: float, groups) -> list[list[tuple[int, tuple]]]:
    """Passes over the fixed groups, one per ``VERIFY_PASS_SECONDS`` of
    ``seconds`` and at least one, each in its own seeded order."""
    rng = random.Random(seed)
    passes = []
    for _ in range(max(1, round(seconds / VERIFY_PASS_SECONDS))):
        order = list(groups)
        rng.shuffle(order)
        passes.append(order)
    return passes
