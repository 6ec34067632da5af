"""Command-line front door.

Subcommands: ``analyze`` (group summary plus the indicator/subgroup table),
``verify`` (the full claim suite as JSON lines), ``lattice`` (DOT or JSON
export), ``endo`` (ring summary), ``matrix`` (fundamental-matrix rendering),
``ulm`` (realizability verdict for an Ulm-sequence file).

``analyze``, ``lattice`` and ``matrix`` are served from the group's shape: a
fully invariant subgroup is its block-shift vector, so they build no subgroup
and no table of the group's elements.  ``endo`` is served the same way, from
the block shift matrices of the ideals (:func:`pgroups.endos.ideal_shifts`),
counted once per group (:func:`pgroups.endos._ideal_images`).  The lattice,
the matrix and that count are kept per process in bounded caches; the budget
flags are checked on every request before any of them is read.  A plain
argv is read off the actions of the one cached parser (:func:`_read_argv`);
anything else goes to argparse, which prints help and errors.

Group and sequence inputs are JSON, given either as a file path or inline.
Exit codes: 0 success, 1 refutation outside the shipped allowlist, 2 invalid
input, 3 budget exceeded or out of memory, 4 output could not be written.  All
output orderings are fixed, so identical inputs produce byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .claims import all_claim_ids, run_claims
from .endos import (
    DEFAULT_MAX_IDEAL_RING_ORDER,
    DEFAULT_MAX_RING_ORDER,
    _ideal_images,
    _log_size,
    _pullback,
    ring_order,
)
from .errors import BudgetExceededError, InvalidInputError, PGroupError
from .groups import DEFAULT_MAX_GROUP_ORDER, GroupSpec, _block_order, ulm_invariants
from .indicators import Indicator, _sorted_indicators
from .lattice import _power, _shift_name, enumerate_fi_subgroups, hasse_export
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
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"cannot read {arg!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInputError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError("top-level JSON value must be an object")
    return data


def _group_from_arg(arg: str, max_group: int) -> GroupSpec:
    return GroupSpec.from_json(_load_json_arg(arg), max_order=max_group)


def _decomposition(G: GroupSpec, alpha) -> str:
    """Render block shifts as a generator sum, e.g. ``<pa> (+) <p^3b>``."""
    letters = [_GENERATORS[t] if t < len(_GENERATORS) else f"x{t}" for t in range(G.rank)]
    shifts = [a for a, (_, m) in zip(alpha, G.components) for _ in range(m)]
    coords = zip(letters, shifts, G.coordinate_exponents)
    parts = [f"<{_power(a)}{letter}>" for letter, a, n in coords if a < n]
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


def _indicator_table(G: GroupSpec, cut_of: dict) -> list[str]:
    """The three-column indicator table over ``cut_of`` (the block shifts of
    each admissible indicator's cut); on the bundled reference shape each
    listed row's shifts are compared with the computed cut's."""
    if G.components == ((2, 1), (4, 1)):
        rows = []
        mismatches = []
        for row in REFERENCE_TABLE:
            sigma = Indicator(row.indicator)
            cut = cut_of[sigma]
            if cut == row.listed_shifts:
                status = "exact match"
            else:
                status = (
                    f"MISMATCH (computed: {_shift_name(G, cut)}"
                    f" = {_decomposition(G, cut)})"
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
    for sigma in _sorted_indicators(cut_of):
        cut = cut_of[sigma]
        rows.append([str(sigma), _shift_name(G, cut), _decomposition(G, cut)])
    return _render_table(["Indicator", "FI Subgroup", "Ind. Decomp"], rows)


def _matrix_text(G: GroupSpec) -> list[str]:
    M = build_matrix(G)
    e = G.exponent
    headers = ["row\\col"] + [
        f"j={j}{'*' if j in M.marker_cols else ''}" for j in range(e)
    ]
    rows = []
    for i in range(e, 0, -1):
        rows.append([f"i={i}"] + [_shift_name(G, M.cell_shifts(i, j)) for j in range(e)])
    lines = _render_table(headers, rows)
    lines.append("(*) marker column; cell (i, j) holds p^j G[p^i]")
    return lines


def _matrix_json(G: GroupSpec) -> str:
    M = build_matrix(G)
    cells = []
    for i, j in M.cells():
        alpha = M.cell_shifts(i, j)
        cells.append(
            {
                "row": i,
                "col": j,
                "order": _block_order(G, alpha),
                "shifts": list(alpha),
                "name": _shift_name(G, alpha),
            }
        )
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
    L = enumerate_fi_subgroups(G)
    cut_of = {s: a for a, sigmas in zip(L.shifts, L.sigma_labels) for s in sigmas}
    lines.append(f"admissible indicators: {len(cut_of)}")
    lines.append("")
    lines.extend(_indicator_table(G, cut_of))
    lines.append("")
    summary = f"fully invariant subgroups (distinct indicator cuts): {L.node_count}"
    if G.components == ((2, 1), (4, 1)):
        summary += f" (listed table rows: {REFERENCE_LISTED_FI_COUNT})"
    lines.append(summary)
    by_order = sorted(zip(L.orders, L.shifts))
    lines.append(
        "lattice members by order: "
        + ", ".join(f"{_shift_name(G, a)} ({order})" for order, a in by_order)
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
    if size > args.max_ideals:
        lines.append(
            f"ideals not enumerated: |End(G)| exceeds --max-ideals {args.max_ideals}"
        )
        print("\n".join(lines))
        return 0
    count, images = _ideal_images(G)
    lines.append(f"two-sided ideals: {count}")
    L = enumerate_fi_subgroups(G)
    ideals_by_image = dict(images)
    logs = _log_size(G, _pullback(G, L.shifts)).tolist()
    rows = [
        [
            _shift_name(G, alpha),
            str(order),
            str(ideals_by_image.get(alpha, 0)),
            str(G.p ** log),
        ]
        for alpha, order, log in zip(L.shifts, L.orders, logs)
    ]
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``parse_args`` fills a fresh namespace
    per call, so no state carries over from one request to the next."""
    parser = argparse.ArgumentParser(
        prog="pgroups",
        description="Analyze bounded abelian p-groups: indicators, fully"
        " invariant subgroups, endomorphism ideals, and the claim suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the group argument and the budget flags every group command takes
    budgets = argparse.ArgumentParser(add_help=False)
    budgets.add_argument("group", help="group JSON (inline or file path)")
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
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "verify", parents=[budgets], help="run claim checks, one JSON line each"
    )
    p.add_argument(
        "--claims",
        default="all",
        help="'all' or a comma-separated list of claim ids"
        f" (known: {', '.join(all_claim_ids())})",
    )
    p.add_argument(
        "--timings",
        action="store_true",
        help="include the wall-clock seconds of each claim's runner, shared by the"
        " claims it checks together (breaks byte-stability)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "lattice", parents=[budgets], help="export the fully invariant lattice"
    )
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser(
        "endo", parents=[budgets], help="endomorphism ring and ideal summary"
    )
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser(
        "matrix", parents=[budgets], help="render the fundamental matrix"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser(
        "ulm", help="realizability verdict for an Ulm sequence"
    )
    p.add_argument("sequence", help="Ulm-sequence JSON (inline or file path)")
    p.set_defaults(func=cmd_ulm)

    return parser


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, read off the
    cached parser's actions, for the plain form ``COMMAND POSITIONAL`` with
    exact long options (``--name VALUE`` or a bare flag) in any order.

    Any other argv gives ``None``: no or an unknown command, help, an
    abbreviation, ``--x=y``, an unknown option, a missing value or one that
    starts with ``-``, a type or choice error, or the wrong number of
    positionals.  Argparse then parses it itself, so help, error text and
    exit 2 stay its own."""
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = commands.choices.get(argv[0]) if argv else None
    if sub is None or sub._mutually_exclusive_groups:
        return None
    positionals = (a for a in sub._actions if not a.option_strings)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            action = sub._option_string_actions.get(token)
            if isinstance(action, argparse._StoreConstAction):
                given[action] = action.const
                continue
            token = next(tokens, "-")
        else:
            action = next(positionals, None)
        if type(action) is not argparse._StoreAction or action.nargs is not None:
            return None
        if token.startswith("-"):
            return None
        try:
            given[action] = value = action.type(token) if action.type else token
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
    values = {commands.dest: argv[0], **sub._defaults}
    for action in sub._actions:
        if action in given:
            values[action.dest] = given[action]
        elif action.required or action.type and isinstance(action.default, str):
            return None  # missing, or a default argparse would convert
        elif action.default is not argparse.SUPPRESS:
            values[action.dest] = action.default
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # budgets too loose for this machine's memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except PGroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # writing stdout failed; drop the rest, the exit flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: output could not be written: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
