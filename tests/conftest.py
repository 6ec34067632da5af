import os
from pathlib import Path

import pytest

import pgroups
from pgroups import make_group

#: One line per acceptance criterion, filled in by tests/test_acceptance.py
#: and echoed after the run so the verdicts survive output capturing.
acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return acceptance_lines


def pytest_terminal_summary(terminalreporter):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)


def own_pgroups_env(**extra) -> dict:
    """Environment for a ``python -m pgroups`` subprocess whose
    ``PYTHONPATH`` puts this process's ``pgroups`` first, so it runs the same
    code with or without an install; ``extra`` sets further variables."""
    source_root = str(Path(pgroups.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")])
    )
    return env


@pytest.fixture(scope="session")
def G2():
    """The running example at p = 2."""
    return make_group(2, [(2, 1), (4, 1)])


@pytest.fixture(scope="session")
def G3():
    """Same shape at an odd prime."""
    return make_group(3, [(2, 1), (4, 1)])


@pytest.fixture(scope="session")
def small24():
    return make_group(2, [(1, 1), (2, 1)])


@pytest.fixture(scope="session")
def small28():
    return make_group(2, [(1, 1), (3, 1)])


@pytest.fixture(scope="session")
def small39():
    return make_group(3, [(1, 1), (2, 1)])


@pytest.fixture(scope="session")
def small224():
    return make_group(2, [(1, 2), (2, 1)])


@pytest.fixture(scope="session")
def small248():
    return make_group(2, [(1, 1), (2, 1), (3, 1)])


@pytest.fixture(scope="session")
def homocyclic44():
    return make_group(2, [(2, 2)])
