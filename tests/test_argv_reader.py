"""``cli._read_argv`` answers exactly as argparse does, or hands the argv over.

The reader serves the plain command lines of the request path off the cached
parser's actions; every other argv goes to ``build_parser().parse_args``, so
help, error text and exit 2 stay argparse's own.
"""
from __future__ import annotations

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pgroups.cli import _read_argv, build_parser, main

from test_pins import PERFBENCH, _pinned_requests, run

G24 = '{"p": 2, "components": [{"exponent": 1, "multiplicity": 1}, {"exponent": 2, "multiplicity": 1}]}'

# -- the grammar's own tokens --------------------------------------------------

_COMMANDS = next(
    a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
)
_OPTIONS = sorted({s for sub in _COMMANDS.values() for s in sub._option_string_actions})
_LONG = [s for s in _OPTIONS if s.startswith("--")]
_VALUES = sorted(
    {str(c) for sub in _COMMANDS.values() for a in sub._actions for c in a.choices or ()}
    | {"0", "7", "4096", "-1", "-5", "-x", "x", "1.5", "", "all", "rank-subadditivity,nope", "svg"}
)
_POSITIONALS = [G24, "group.json", "{}"]
_ATOMS = (
    _OPTIONS
    + _VALUES
    + _POSITIONALS
    + ["--", "-", "nope"]
    + [s[:-k] for s in _LONG for k in (1, 3)]  # abbreviations, some ambiguous
    + [f"{s}={v}" for s in _LONG for v in ("4", "dot", "json", "")]
)


def _valid(action) -> list[str]:
    """The values of ``_VALUES`` that argparse takes for ``action``."""
    parser = argparse.ArgumentParser()
    valid = []
    for value in _VALUES:
        try:
            parser._check_value(action, parser._get_value(action, value))
            valid.append(value)
        except argparse.ArgumentError:
            pass
    return valid


@st.composite
def _argvs(draw):
    """A command and a positional, then options of that command with values,
    bare flags and stray tokens; sometimes shuffled whole, command
    included."""
    command = draw(st.sampled_from([*_COMMANDS, "nope", "-h"]))
    own = _COMMANDS.get(command, _COMMANDS["verify"])._option_string_actions
    takes_value = sorted(s for s, a in own.items() if a.nargs is None)
    flags = sorted(s for s, a in own.items() if isinstance(a, argparse._StoreConstAction))
    segments = [[draw(st.sampled_from(_POSITIONALS))]] if draw(st.integers(0, 4)) else []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 7))
        if kind < 5 and takes_value:
            option = draw(st.sampled_from(takes_value))
            values = _VALUES if kind == 0 else _valid(own[option])
            segments.append([option, draw(st.sampled_from(values))])
        elif kind < 7 and flags:
            segments.append([draw(st.sampled_from(flags))])
        else:
            segments.append([draw(st.sampled_from(_ATOMS))])
    if draw(st.integers(0, 3)):
        segments = [[command], *draw(st.permutations(segments))]
    else:
        segments = draw(st.permutations([[command], *segments]))
    return [token for segment in segments for token in segment]


def _typed(namespace) -> dict:
    return {name: (type(v), v) for name, v in vars(namespace).items()}


def _parsed(argv):
    """Argparse's namespace as ``_typed``, or ``None`` where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return _typed(build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(
    derandomize=True,
    max_examples=1500,
    deadline=timedelta(seconds=10),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_argvs())
@example([])
@example(["verify", G24, "--timings", "--timings", "--claims", "all"])
@example(["matrix", G24, "--format", "json", "--format", "text"])
@example(["lattice", "--max-ring", "9", G24])
@example(["endo", G24, "--max-ideals"])
@example(["verify", G24, "--claims"])
@example(["verify", G24, "--claims", "--timings"])
@example(["analyze", G24, G24])
def test_reader_agrees_with_argparse(argv):
    read = _read_argv(argv)
    assert read is None or _typed(read) == _parsed(argv), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", G24],
        ["ulm", "{}"],
        ["endo", G24, "--max-ideals", "256"],
        ["matrix", G24, "--format", "json"],
        ["lattice", "--format", "dot", G24],
        ["verify", G24, "--claims", "all", "--timings", "--max-group", "0"],
    ],
)
def test_plain_argv_is_read(argv):
    read = _read_argv(argv)
    assert read is not None and _typed(read) == _parsed(argv)


def test_pinned_stream_answers_never_reach_argparse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pinned stream request reached argparse")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    pins = json.loads((PERFBENCH / "pins.json").read_text("utf-8"))["stream"]
    requests = {req.key: req for section, req in _pinned_requests() if section == "stream"}
    assert requests.keys() == pins.keys()
    changed = [key for key, req in requests.items() if run.digest(*run.serve(req)) != pins[key]]
    assert changed == []


def test_other_argvs_still_go_to_argparse(capsys):
    assert main(["analyze", G24, "--max-g", "4"]) == 3  # --max-group, abbreviated
    with pytest.raises(SystemExit) as exc:
        main(["lattice", G24, "--format", "svg"])
    assert exc.value.code == 2
    assert "argument --format: invalid choice: 'svg'" in capsys.readouterr().err
