"""Command-line front door.

Subcommands: ``analyze`` (group summary plus the indicator/subgroup table),
``verify`` (the full claim suite as JSON lines), ``lattice`` (DOT or JSON
export), ``endo`` (ring summary), ``matrix`` (fundamental-matrix rendering),
``ulm`` (realizability verdict for an Ulm-sequence file).

Group and sequence inputs are JSON, given either as a file path or inline.
Exit codes: 0 success, 1 refutation outside the shipped allowlist, 2 invalid
input, 3 budget exceeded.  All output orderings are fixed, so identical
inputs produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .claims import all_claim_ids, run_claims
from .endos import (
    DEFAULT_MAX_IDEAL_RING_ORDER,
    DEFAULT_MAX_RING_ORDER,
    dagger_ideal,
    dagger_subgroup,
    enumerate_ideals,
    ring_order,
)
from .errors import BudgetExceededError, InvalidInputError, PGroupError
from .groups import (
    DEFAULT_MAX_GROUP_ORDER,
    GroupSpec,
    block_subgroup,
    ulm_invariants,
)
from .indicators import Indicator, enumerate_admissible, indicator_subgroup
from .lattice import canonical_fi_form, enumerate_fi_subgroups, hasse_export, subgroup_name
from .matrix import build_matrix
from .reference import REFERENCE_LISTED_FI_COUNT, REFERENCE_TABLE
from .reports import unexpected_refutations
from .symbolic import UlmSequence, check_ulm_criterion

_GENERATORS = "abcdefghijklmnopqrstuvwxyz"


def _load_json_arg(arg: str) -> dict:
    """Accept inline JSON or a path to a JSON file."""
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            text = Path(arg).read_text("utf-8")
        except OSError as exc:
            raise InvalidInputError(f"cannot read {arg!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError("top-level JSON value must be an object")
    return data


def _group_from_arg(arg: str, max_group: int) -> GroupSpec:
    return GroupSpec.from_json(_load_json_arg(arg), max_order=max_group)


def _coordinate_shifts(G: GroupSpec, alpha) -> list[tuple[str, int, int]]:
    """(generator letter, shift, coordinate exponent) per cyclic summand."""
    out = []
    t = 0
    for (n, m), a in zip(G.components, alpha):
        for _ in range(m):
            letter = _GENERATORS[t] if t < len(_GENERATORS) else f"x{t}"
            out.append((letter, a, n))
            t += 1
    return out


def _decomposition(G: GroupSpec, alpha) -> str:
    """Render block shifts as a generator sum, e.g. ``<pa> (+) <p^3b>``."""
    parts = []
    for letter, a, n in _coordinate_shifts(G, alpha):
        if a >= n:
            continue
        prefix = "" if a == 0 else ("p" if a == 1 else f"p^{a}")
        parts.append(f"<{prefix}{letter}>")
    return " (+) ".join(parts) if parts else "0"


def _render_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers).rstrip(), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*r).rstrip() for r in rows)
    return lines


def _indicator_table(G: GroupSpec) -> list[str]:
    """The three-column indicator table; on the bundled reference shape each
    listed row is compared as an explicit element set against the computed
    indicator subgroup."""
    if G.components == ((2, 1), (4, 1)):
        rows = []
        mismatches = []
        for row in REFERENCE_TABLE:
            sigma = Indicator(row.indicator)
            cut = indicator_subgroup(G, sigma)
            listed = block_subgroup(G, row.listed_shifts)
            if cut == listed:
                status = "exact match"
            else:
                true_shifts = canonical_fi_form(G, cut)
                status = (
                    f"MISMATCH (computed: {subgroup_name(G, cut)}"
                    f" = {_decomposition(G, true_shifts)})"
                )
                mismatches.append(str(sigma))
            rows.append(
                [
                    str(sigma),
                    row.listed_name,
                    _decomposition(G, row.listed_shifts),
                    status,
                ]
            )
        out = _render_table(
            ["Indicator", "FI Subgroup", "Ind. Decomp", "Status"], rows
        )
        matched = len(REFERENCE_TABLE) - len(mismatches)
        out.append(
            f"{matched} of {len(REFERENCE_TABLE)} listed rows match;"
            f" rows {', '.join(mismatches)} carry corrected values above"
            if mismatches
            else f"all {len(REFERENCE_TABLE)} listed rows match"
        )
        return out
    rows = []
    for sigma in sorted(enumerate_admissible(G), key=lambda s: (s.length, s.entries)):
        cut = indicator_subgroup(G, sigma)
        rows.append(
            [
                str(sigma),
                subgroup_name(G, cut),
                _decomposition(G, canonical_fi_form(G, cut)),
            ]
        )
    return _render_table(["Indicator", "FI Subgroup", "Ind. Decomp"], rows)


def _matrix_text(G: GroupSpec) -> list[str]:
    M = build_matrix(G)
    e = G.exponent
    headers = ["row\\col"] + [
        f"j={j}{'*' if j in M.marker_cols else ''}" for j in range(e)
    ]
    rows = []
    for i in range(e, 0, -1):
        rows.append([f"i={i}"] + [subgroup_name(G, M.entry(i, j)) for j in range(e)])
    lines = _render_table(headers, rows)
    lines.append("(*) marker column; cell (i, j) holds p^j G[p^i]")
    return lines


def _matrix_json(G: GroupSpec) -> str:
    M = build_matrix(G)
    cells = [
        {
            "row": i,
            "col": j,
            "order": M.entry(i, j).order,
            "shifts": list(canonical_fi_form(G, M.entry(i, j))),
            "name": subgroup_name(G, M.entry(i, j)),
        }
        for i, j in M.cells()
    ]
    doc = {
        "group": G.to_json(),
        "display_cols": list(M.display_cols),
        "marker_cols": list(M.marker_cols),
        "cells": cells,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def cmd_analyze(args) -> int:
    G = _group_from_arg(args.group, args.max_group)
    lines = [f"group: {G.describe()}"]
    total = sum(n * m for n, m in G.components)
    lines.append(f"order: {G.order} = {G.p}^{total}")
    lines.append(f"rank: {G.rank}")
    lines.append(f"exponent: {G.exponent} (annihilated by {G.p}^{G.exponent})")
    lines.append(
        "ulm invariants: "
        + ", ".join(f"u_{k} = {u}" for k, u in enumerate(ulm_invariants(G)))
    )
    admissible = enumerate_admissible(G)
    lines.append(f"admissible indicators: {len(admissible)}")
    lines.append("")
    lines.extend(_indicator_table(G))
    lines.append("")
    distinct = {indicator_subgroup(G, sigma) for sigma in admissible}
    summary = f"fully invariant subgroups (distinct indicator cuts): {len(distinct)}"
    if G.components == ((2, 1), (4, 1)):
        summary += f" (listed table rows: {REFERENCE_LISTED_FI_COUNT})"
    lines.append(summary)
    by_order = sorted(distinct, key=lambda H: (H.order, canonical_fi_form(G, H)))
    lines.append(
        "lattice members by order: "
        + ", ".join(f"{subgroup_name(G, H)} ({H.order})" for H in by_order)
    )
    lines.append("")
    lines.append("fundamental matrix:")
    lines.extend(_matrix_text(G))
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    G = _group_from_arg(args.group, args.max_group)
    ids = None
    if args.claims != "all":
        ids = [s.strip() for s in args.claims.split(",") if s.strip()]
        if not ids:
            raise InvalidInputError("--claims got an empty list")
    reports = run_claims(
        G,
        ids=ids,
        max_group=args.max_group,
        max_ring=args.max_ring,
        max_ideals=args.max_ideals,
    )
    for r in reports:
        print(r.render(include_timing=args.timings))
    return 1 if unexpected_refutations(reports) else 0


def cmd_lattice(args) -> int:
    G = _group_from_arg(args.group, args.max_group)
    L = enumerate_fi_subgroups(G)
    print(hasse_export(L, format=args.format))
    return 0


def cmd_endo(args) -> int:
    G = _group_from_arg(args.group, args.max_group)
    size = ring_order(G)
    lines = [f"group: {G.describe()}", f"|End(G)| = {size}"]
    if size > args.max_ring:
        lines.append(
            f"ring not materialized: |End(G)| exceeds --max-ring {args.max_ring}"
        )
        print("\n".join(lines))
        return 0
    if size > args.max_ideals:
        lines.append(
            f"ideals not enumerated: |End(G)| exceeds --max-ideals {args.max_ideals}"
        )
        print("\n".join(lines))
        return 0
    ideals = enumerate_ideals(G, max_ring=args.max_ideals)
    lines.append(f"two-sided ideals: {len(ideals)}")
    L = enumerate_fi_subgroups(G)
    ideals_by_image = Counter(dagger_ideal(G, I) for I in ideals)
    rows = []
    for H in L.nodes:
        closed = dagger_subgroup(G, H)
        rows.append(
            [
                subgroup_name(G, H),
                str(H.order),
                str(ideals_by_image[H]),
                str(closed.size),
            ]
        )
    lines.append("")
    lines.extend(
        _render_table(
            ["FI subgroup", "|H|", "ideals with image H", "closed member size"], rows
        )
    )
    print("\n".join(lines))
    return 0


def cmd_matrix(args) -> int:
    G = _group_from_arg(args.group, args.max_group)
    if args.format == "json":
        print(_matrix_json(G))
    else:
        print("\n".join(_matrix_text(G)))
    return 0


def cmd_ulm(args) -> int:
    seq = UlmSequence.from_json(_load_json_arg(args.sequence))
    report = check_ulm_criterion(seq)
    print(report.render())
    return 0


def _budget(text: str) -> int:
    """Argparse type for the budget flags: an integer no smaller than 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgroups",
        description="Analyze bounded abelian p-groups: indicators, fully"
        " invariant subgroups, endomorphism ideals, and the claim suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    budgets = argparse.ArgumentParser(add_help=False)
    budgets.add_argument(
        "--max-group",
        type=_budget,
        default=DEFAULT_MAX_GROUP_ORDER,
        help="largest group order to materialize (default %(default)s)",
    )
    budgets.add_argument(
        "--max-ring",
        type=_budget,
        default=DEFAULT_MAX_RING_ORDER,
        help="largest endomorphism ring to enumerate (default %(default)s)",
    )
    budgets.add_argument(
        "--max-ideals",
        type=_budget,
        default=DEFAULT_MAX_IDEAL_RING_ORDER,
        help="largest ring for ideal enumeration (default %(default)s)",
    )

    p = sub.add_parser(
        "analyze",
        parents=[budgets],
        help="group summary, indicator table, lattice and matrix overview",
    )
    p.add_argument("group", help="group JSON (inline or file path)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "verify", parents=[budgets], help="run claim checks, one JSON line each"
    )
    p.add_argument("group", help="group JSON (inline or file path)")
    p.add_argument(
        "--claims",
        default="all",
        help="'all' or a comma-separated list of claim ids"
        f" (known: {', '.join(all_claim_ids())})",
    )
    p.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock seconds per claim (breaks byte-stability)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "lattice", parents=[budgets], help="export the fully invariant lattice"
    )
    p.add_argument("group", help="group JSON (inline or file path)")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser(
        "endo", parents=[budgets], help="endomorphism ring and ideal summary"
    )
    p.add_argument("group", help="group JSON (inline or file path)")
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser(
        "matrix", parents=[budgets], help="render the fundamental matrix"
    )
    p.add_argument("group", help="group JSON (inline or file path)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser(
        "ulm", help="realizability verdict for an Ulm sequence"
    )
    p.add_argument("sequence", help="Ulm-sequence JSON (inline or file path)")
    p.set_defaults(func=cmd_ulm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PGroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
