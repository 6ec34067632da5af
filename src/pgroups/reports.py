"""Claim reports and the shipped known-discrepancy allowlist.

Every mechanically checked statement produces a :class:`ClaimReport` with a
stable id, a verdict, and machine-readable witnesses for refutations.  The
allowlist (``allowlist.json``, shipped as package data) names the claims that
are *expected* to be refuted on some groups — statements whose source
formulation disagrees with exhaustive computation.  A refutation of any claim
outside that list signals an implementation bug (CLI exit code 1).
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

VERDICTS = ("verified", "refuted", "skipped")


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one mechanically checked claim on one group.

    ``witnesses`` is nonempty exactly when the status is ``refuted``;
    ``checked`` records the exhaustion bound for a ``verified`` verdict (what
    was searched), or the reason for a ``skipped`` one.  ``timing`` (seconds)
    is informational and excluded from default serialization so that repeated
    runs are byte-identical.
    """

    claim_id: str
    status: str
    group: str
    witnesses: list = field(default_factory=list)
    checked: str = ""
    note: str = ""
    timing: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.status not in VERDICTS:
            raise ValueError(f"unknown status {self.status!r}")
        if (self.status == "refuted") != bool(self.witnesses):
            raise ValueError("a report carries witnesses exactly when it is refuted")

    def to_json(self, include_timing: bool = False) -> dict:
        data = {
            "claim_id": self.claim_id,
            "status": self.status,
            "group": self.group,
            "witnesses": self.witnesses,
            "checked": self.checked,
        }
        if self.note:
            data["note"] = self.note
        if include_timing and self.timing is not None:
            data["timing_seconds"] = round(self.timing, 6)
        return data

    def render(self, include_timing: bool = False) -> str:
        """One deterministic JSON line."""
        return json.dumps(
            self.to_json(include_timing=include_timing),
            sort_keys=True,
            separators=(",", ":"),
        )


def _verdict(
    claim_id: str,
    group: str,
    witnesses: list,
    checked: str,
    note: str = "",
    *,
    timing: float | None = None,
) -> ClaimReport:
    """The report of a check: refuted exactly when it found witnesses."""
    return ClaimReport(
        claim_id=claim_id,
        status="refuted" if witnesses else "verified",
        group=group,
        witnesses=witnesses,
        checked=checked,
        note=note,
        timing=timing,
    )


@functools.cache
def _allowlist_entries() -> tuple[tuple[str, str], ...]:
    """The shipped allowlist, read and parsed once per process."""
    raw = resources.files("pgroups").joinpath("allowlist.json").read_text("utf-8")
    data = json.loads(raw)
    return tuple((entry["id"], entry["note"]) for entry in data["allowed"])


def load_allowlist() -> dict[str, str]:
    """Claim ids permitted to be refuted, mapped to their rationale notes: a
    fresh dict on every call, so a caller's edits never reach the next."""
    return dict(_allowlist_entries())


def unexpected_refutations(reports, allowlist: dict[str, str] | None = None) -> list:
    """Refuted reports whose claim id is not allowlisted."""
    allowed = load_allowlist() if allowlist is None else allowlist
    return [r for r in reports if r.status == "refuted" and r.claim_id not in allowed]
