"""Command-line interface: subcommands, exit codes, output stability."""

import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pgroups import all_claim_ids
from pgroups.cli import build_parser, main
from pgroups.symbolic import MAX_ULM_LENGTH

from conftest import own_pgroups_env

G24 = '{"p": 2, "components": [{"exponent": 1, "multiplicity": 1}, {"exponent": 2, "multiplicity": 1}]}'
REFERENCE = (
    '{"p": 2, "components": [{"exponent": 2, "multiplicity": 1},'
    ' {"exponent": 4, "multiplicity": 1}]}'
)
HUGE = '{"p": 2, "components": [{"exponent": 30, "multiplicity": 1}]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_reference_group_summary(self, capsys):
        code, out, _ = run(capsys, "analyze", REFERENCE)
        assert code == 0
        assert "group: Z(2^2) (+) Z(2^4)" in out
        assert "order: 64 = 2^6" in out
        assert "ulm invariants: u_0 = 0, u_1 = 1, u_2 = 0, u_3 = 1" in out
        assert "admissible indicators: 13" in out

    def test_reference_table_flags_the_two_corrected_rows(self, capsys):
        _, out, _ = run(capsys, "analyze", REFERENCE)
        rows = [l for l in out.splitlines() if l.startswith("(")]
        assert len(rows) == 12  # 11 indicator rows + the matrix footnote
        (row,) = [r for r in rows if r.startswith("(2,inf)")]
        assert row.split() == [
            "(2,inf)", "p^2G", "<p^2b>",
            "MISMATCH", "(computed:", "p^3G", "=", "<p^3b>)",
        ]
        assert "MISMATCH (computed: pG[p^2] = <pa> (+) <p^2b>)" in out
        assert sum("exact match" in r for r in rows) == 9
        assert (
            "9 of 11 listed rows match; rows (2,inf), (1,2,inf) carry corrected"
            " values above" in out
        )

    def test_distinct_cuts_vs_listed_rows(self, capsys):
        _, out, _ = run(capsys, "analyze", REFERENCE)
        assert (
            "fully invariant subgroups (distinct indicator cuts): 9"
            " (listed table rows: 11)" in out
        )
        assert (
            "lattice members by order: 0 (1), p^3G (2), G[p] (4), p^2G (4),"
            " pG[p^2] (8), G[p^2] (16), pG (16), G[p^3] (32), G (64)" in out
        )

    def test_other_groups_get_no_listed_row_note(self, capsys):
        code, out, _ = run(capsys, "analyze", G24)
        assert code == 0
        assert "fully invariant subgroups (distinct indicator cuts): 4" in out
        assert "listed table rows" not in out

    def test_matrix_section_present(self, capsys):
        _, out, _ = run(capsys, "analyze", REFERENCE)
        assert "fundamental matrix:" in out
        assert "(*) marker column; cell (i, j) holds p^j G[p^i]" in out

    def test_group_may_come_from_a_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(G24)
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "group: Z(2) (+) Z(2^2)" in out


class TestVerify:
    def test_full_run_is_one_json_line_per_claim(self, capsys):
        code, out, _ = run(capsys, "verify", G24)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 53
        parsed = [json.loads(l) for l in lines]
        assert [p["claim_id"] for p in parsed] == all_claim_ids()
        assert all(p["status"] in ("verified", "refuted", "skipped") for p in parsed)
        assert all("timing_seconds" not in p for p in parsed)

    def test_consecutive_runs_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "verify", REFERENCE)
        _, second, _ = run(capsys, "verify", REFERENCE)
        assert first == second

    def test_timings_flag_adds_wall_clock(self, capsys):
        code, out, _ = run(capsys, "verify", G24, "--claims", "indicator-antitone", "--timings")
        assert code == 0
        (line,) = out.strip().splitlines()
        assert json.loads(line)["timing_seconds"] >= 0

    def test_claim_filter(self, capsys):
        code, out, _ = run(
            capsys, "verify", G24, "--claims", "indicator-antitone,sigma-sum-containment"
        )
        assert code == 0
        parsed = [json.loads(l) for l in out.strip().splitlines()]
        assert [p["claim_id"] for p in parsed] == [
            "indicator-antitone",
            "sigma-sum-containment",
        ]

    def test_unknown_claim_id_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", G24, "--claims", "no-such-claim")
        assert code == 2
        assert "error:" in err and "no-such-claim" in err

    def test_empty_claim_list_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", G24, "--claims", ",")
        assert code == 2
        assert "empty list" in err

    def test_tight_ring_budget_skips(self, capsys):
        code, out, _ = run(capsys, "verify", REFERENCE, "--max-ring", "16", "--max-ideals", "16")
        assert code == 0
        parsed = [json.loads(l) for l in out.strip().splitlines()]
        assert sum(p["status"] == "skipped" for p in parsed) == 17
        status = {p["claim_id"]: p["status"] for p in parsed}
        for cid in (
            "indicator-coverage",
            "indicator-subgroups-invariant",
            "fi-closure-indicator",
            "indicator-transitivity",
        ):
            assert status[cid] == "verified", cid


class TestLattice:
    def test_json_export(self, capsys):
        code, out, _ = run(capsys, "lattice", REFERENCE)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"nodes", "edges"}
        assert len(doc["nodes"]) == 9
        assert all(set(n) == {"id", "alpha", "sigmas", "order"} for n in doc["nodes"])

    def test_dot_export(self, capsys):
        code, out, _ = run(capsys, "lattice", G24, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph fi_lattice {")
        assert "rankdir=BT" in out


class TestEndo:
    def test_ideal_summary(self, capsys):
        code, out, _ = run(capsys, "endo", G24)
        assert code == 0
        assert "|End(G)| = 32" in out
        assert "two-sided ideals: 8" in out
        assert "FI subgroup  |H|  ideals with image H  closed member size" in out
        # the socle G[p] is the image of three distinct ideals
        assert "G[p]         4    3                    16" in out

    def test_ring_over_budget_degrades_gracefully(self, capsys):
        """The listing builds no ring, so ``--max-ring`` does not bound it."""
        code, out, _ = run(capsys, "endo", G24, "--max-ring", "16")
        assert (code, out) == run(capsys, "endo", G24)[:2]
        assert "two-sided ideals: 8" in out

    def test_ideals_over_budget_degrades_gracefully(self, capsys):
        code, out, _ = run(capsys, "endo", G24, "--max-ideals", "16")
        assert code == 0
        assert "ideals not enumerated: |End(G)| exceeds --max-ideals 16" in out
        assert "two-sided ideals" not in out


class TestMatrix:
    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "matrix", REFERENCE)
        assert code == 0
        assert "i=4      G       pG       p^2G  p^3G" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "matrix", REFERENCE, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["display_cols"] == [0, 1]
        assert doc["marker_cols"] == [1, 3]
        assert len(doc["cells"]) == 16  # 4 rows x 4 cols
        anchor = [c for c in doc["cells"] if c["row"] == 4 and c["col"] == 0]
        assert anchor[0]["name"] == "G" and anchor[0]["order"] == 64


class TestShapeServing:
    @pytest.mark.parametrize("command", ["analyze", "lattice", "matrix"])
    @pytest.mark.parametrize(
        "pairs",
        [[(1, 17)], [(17, 1)], [(1, 20)], [(1, 1), (19, 1)]],
        ids=["Z(2)^17", "Z(2^17)", "Z(2)^20", "Z(2)+Z(2^19)"],
    )
    def test_groups_above_the_subgroup_cap_are_served(self, capsys, command, pairs):
        comps = [{"exponent": n, "multiplicity": m} for n, m in pairs]
        group = json.dumps({"p": 2, "components": comps})
        code, out, err = run(capsys, command, group)
        assert (code, err) == (0, "")
        assert out

    def test_min_admissible_bottom_answers_above_the_subgroup_cap(self, capsys):
        group = '{"p":2,"components":[{"exponent":1,"multiplicity":17}]}'
        code, out, _ = run(capsys, "verify", group, "--claims", "min-admissible-bottom")
        assert code == 0
        (report,) = [json.loads(line) for line in out.splitlines()]
        assert report["status"] == "verified", report

    MATRIX_CLAIMS = (
        "matrix-monotone",
        "matrix-distinct-entries",
        "matrix-meet-formula",
        "matrix-join-formula",
        "quartering-containments",
        "quartering-incomparability",
        "alias-to-marker",
        "path-roundtrip",
    )
    CUT_ORACLES = (
        "indicator-antitone",
        "indicator-subgroups-invariant",
        "fi-closure-indicator",
        "indicator-coverage",
        "fundamental-containment",
        "path-subgroup-chain",
        "sigma-sum-equality",
        "sigma-sum-containment",
    )
    ACTION_SCANS = ("endo-height-exponent", "endo-indicator-monotone")

    @pytest.mark.parametrize(
        "pairs, ring",
        [([(17, 1)], 2**17), ([(1, 17)], 2**289), ([(1, 1), (19, 1)], 2**22)],
        ids=["Z(2^17)", "Z(2)^17", "Z(2)+Z(2^19)"],
    )
    def test_verify_answers_above_the_subgroup_cap(self, capsys, pairs, ring):
        """The shift-form claims answer at any group and ring size; the table
        oracles and the action scans report the budget that skipped them."""
        comps = [{"exponent": n, "multiplicity": m} for n, m in pairs]
        code, out, err = run(capsys, "verify", json.dumps({"p": 2, "components": comps}))
        assert (code, err) == (0, "")
        reports = {r["claim_id"]: r for r in map(json.loads, out.splitlines())}
        order = 2 ** sum(n * m for n, m in pairs)
        for cid in self.MATRIX_CLAIMS:
            assert reports[cid]["status"] != "skipped", reports[cid]
        for cid in self.DAGGER_CLAIMS:
            assert reports[cid]["status"] != "skipped", reports[cid]
        for cid in self.CUT_ORACLES:
            assert reports[cid]["status"] == "skipped"
            assert reports[cid]["checked"] == f"subgroup with {order} elements exceeds cap 65536"
        for cid in self.ACTION_SCANS:
            assert reports[cid]["status"] == "skipped"
            if ring <= 2**20:
                assert reports[cid]["checked"] == (
                    f"{ring} endomorphisms x {order} elements = {ring * order} pairs"
                    " exceeds cap 67108864"
                )
            else:
                assert reports[cid]["checked"] == f"|End(G)| = {ring} exceeds cap 1048576"

    DAGGER_CLAIMS = (
        "descriptor-rule-as-stated",
        "descriptor-rule-empirical",
        "power-ideal-dagger",
        "power-subgroup-dagger",
        "socle-ideal-dagger",
        "socle-subgroup-dagger",
    )

    @pytest.mark.parametrize(
        "cap, admitted", [("4194304", True), ("1000000", False), ("0", False)]
    )
    def test_max_ring_reaches_the_dagger_helpers(self, capsys, cap, admitted):
        """The dagger helpers answer at every cap; the cap gates only the
        runners that build the ring, here ``rank-subadditivity``."""
        group = (
            '{"p": 2, "components": [{"exponent": 2, "multiplicity": 1},'
            ' {"exponent": 3, "multiplicity": 2}]}'
        )  # |End(G)| = 2^22
        wanted = sorted(self.DAGGER_CLAIMS + ("collision-recipe", "rank-subadditivity"))
        claims = ",".join(wanted)
        code, out, _ = run(capsys, "verify", group, "--claims", claims, "--max-ring", cap)
        assert code == 0
        reports = {r["claim_id"]: r for r in map(json.loads, out.splitlines())}
        assert sorted(reports) == wanted
        ring_report = reports.pop("rank-subadditivity")
        for r in reports.values():
            assert r["status"] != "skipped", r
        assert (ring_report["status"] != "skipped") == admitted, ring_report
        if not admitted:
            assert ring_report["checked"] == f"|End(G)| = 4194304 exceeds cap {cap}"


class TestUlm:
    REJECT = json.dumps(
        {
            "lambda": {"q": 1, "r": 1},
            "blocks": [
                {"xi": {"q": 0, "r": 0}, "head": [], "tail": "all_zero"},
                {"xi": {"q": 1, "r": 0}, "head": [{"finite": 1}], "tail": None},
            ],
        }
    )
    ACCEPT = json.dumps(
        {
            "lambda": {"q": 1, "r": 1},
            "blocks": [
                {
                    "xi": {"q": 0, "r": 0},
                    "head": [{"finite": 1}],
                    "tail": "constant",
                    "tail_value": {"finite": 1},
                },
                {"xi": {"q": 1, "r": 0}, "head": [{"finite": 1}], "tail": None},
            ],
        }
    )

    def test_rejected_sequence_reports_but_exits_0(self, capsys):
        code, out, _ = run(capsys, "ulm", self.REJECT)
        assert code == 0  # a refuted criterion is an answer, not an error
        doc = json.loads(out)
        assert doc["status"] == "refuted"
        assert doc["witnesses"][0]["kappa"] == {"q": 0, "r": 0}

    def test_accepted_sequence(self, capsys):
        code, out, _ = run(capsys, "ulm", self.ACCEPT)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "verified"
        assert doc["checked"] == "2 window positions"

    def test_sequence_from_file(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(self.ACCEPT)
        code, out, _ = run(capsys, "ulm", str(path))
        assert code == 0 and json.loads(out)["status"] == "verified"

    def test_omitted_blocks_are_zero_filled(self, capsys):
        sparse = json.dumps({"lambda": {"q": 1, "r": 1}, "blocks": []})
        code, out, _ = run(capsys, "ulm", sparse)
        # both blocks default to all-zero, which trivially passes
        assert code == 0
        assert json.loads(out)["status"] == "verified"

    def test_bad_shape_exits_2(self, capsys):
        doubled = json.loads(self.REJECT)
        doubled["blocks"].append(doubled["blocks"][0])
        code, _, err = run(capsys, "ulm", json.dumps(doubled))
        assert code == 2
        assert "error:" in err and "duplicate block" in err

    @pytest.mark.parametrize(
        "lam, cardinal",
        [
            ({"q": 0, "r": 1}, {"finite": "x"}),
            ({"q": 0, "r": 1}, {"finite": 1.5}),
            ({"q": 0, "r": 1}, {"finite": True}),
            ({"q": "0", "r": 1}, {"finite": 1}),
        ],
    )
    def test_non_integer_fields_exit_2(self, capsys, lam, cardinal):
        doc = {"lambda": lam, "blocks": [{"head": [cardinal], "tail": None}]}
        code, _, err = run(capsys, "ulm", json.dumps(doc))
        assert code == 2
        assert "error: malformed" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"lambda": {"q": 10_000, "r": 0}, "blocks": []},
            {"lambda": {"q": 1, "r": 0}, "blocks": [{"head": [1] * 10_000}]},
        ],
        ids=["blocks", "head"],
    )
    def test_criterion_is_linear_in_the_length(self, capsys, doc):
        start = time.perf_counter()
        code, out, _ = run(capsys, "ulm", json.dumps(doc))
        assert time.perf_counter() - start < 5  # summed per block and offset: 85 s and 61 s
        assert code == 0 and json.loads(out)["status"] == "verified"


class TestParserReuse:
    def test_main_builds_the_parser_once(self, capsys):
        build_parser.cache_clear()
        run(capsys, "matrix", G24)
        run(capsys, "ulm", TestUlm.ACCEPT)
        run(capsys, "lattice", G24, "--format", "dot")
        assert build_parser.cache_info().misses == 1

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                ["verify", G24, "--timings", "--claims", "rank-subadditivity"],
                ["verify", G24],
            ),
            (["lattice", G24, "--format", "dot"], ["lattice", G24]),
        ],
        ids=["verify", "lattice"],
    )
    def test_options_do_not_carry_over(self, capsys, first, second):
        build_parser.cache_clear()
        fresh = run(capsys, *second)
        run(capsys, *first)
        assert run(capsys, *second) == fresh


class TestErrorPaths:
    def test_group_over_budget_exits_3(self, capsys):
        code, _, err = run(capsys, "analyze", HUGE)
        assert code == 3
        assert "|G| = 1073741824 exceeds --max-group 1048576" in err

    @pytest.mark.parametrize(
        "group",
        [
            '{"p": 2305843009213693951, "components": [{"exponent": 1, "multiplicity": 1}]}',
            '{"p": 3, "components": [{"exponent": 100000000, "multiplicity": 1}]}',
        ],
        ids=["huge-prime", "huge-exponent"],
    )
    def test_oversized_group_exits_3_before_big_arithmetic(self, capsys, group):
        start = time.perf_counter()
        code, _, err = run(capsys, "analyze", group)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert err.startswith("error:") and "exceeds --max-group 1048576" in err
        assert "Traceback" not in err

    def test_raising_the_cap_admits_the_group(self, capsys):
        code, out, _ = run(capsys, "endo", HUGE, "--max-group", str(2**30))
        assert code == 0
        assert "ideals not enumerated: |End(G)| exceeds --max-ideals 4096" in out

    @pytest.mark.parametrize(
        "arg",
        ["{not json", "[1, 2]", '{"p": 4, "components": [{"exponent": 1, "multiplicity": 1}]}'],
    )
    def test_bad_group_input_exits_2(self, capsys, arg):
        code, _, err = run(capsys, "analyze", arg)
        assert code == 2
        assert err.startswith("error:")

    def test_ring_budget_skips_the_homocyclic_ideal_chain(self, capsys):
        Z8 = '{"p": 2, "components": [{"exponent": 3, "multiplicity": 1}]}'
        code, out, _ = run(
            capsys, "verify", Z8, "--max-ring", "4", "--claims", "homocyclic-ideal-chain"
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "skipped"
        assert "exceeds cap 4" in report["checked"]

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file.json")
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("command", ["analyze", "ulm"])
    def test_file_that_is_not_utf8_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe{\x00")  # UTF-16 "{"
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read") and "utf-8" in err

    @pytest.mark.parametrize("command", ["analyze", "ulm"])
    def test_json_nested_past_the_recursion_limit_exits_2(self, capsys, command):
        deep = '{"p": ' + "[" * 200_000 + "]" * 200_000 + "}"
        code, out, err = run(capsys, command, deep)
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed JSON")

    @pytest.mark.parametrize(
        "argv",
        [
            ["endo", '{"p": 2, "components": [{"exponent": "x", "multiplicity": 1}]}'],
            ["endo", '{"p": 2, "components": [{"exponent": 1.5, "multiplicity": 1}]}'],
            ["endo", '{"p": 2, "components": [{"exponent": 1, "multiplicity": true}]}'],
            ["endo", G24, "--max-ring", "-5"],
            ["endo", G24, "--max-ideals", "-1"],
            ["analyze", G24, "--max-group", "-1"],
        ],
        ids=[
            "string-exponent",
            "float-exponent",
            "bool-multiplicity",
            "negative-max-ring",
            "negative-max-ideals",
            "negative-max-group",
        ],
    )
    def test_malformed_input_exits_2_without_traceback(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "pgroups", *argv],
            capture_output=True,
            text=True,
            env=own_pgroups_env(),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr


Z2 = '{"p": 2, "components": [{"exponent": 1, "multiplicity": 1}]}'
Z2_Z2_19 = (
    '{"p": 2, "components": [{"exponent": 1, "multiplicity": 1},'
    ' {"exponent": 19, "multiplicity": 1}]}'
)


def served_into(stdout, *argv):
    return subprocess.run(
        [sys.executable, "-m", "pgroups", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=own_pgroups_env(),
    )


def assert_unwritable_output_exits_4(proc):
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: output could not be written: ")
    assert proc.stderr.count("\n") == 1


def test_closed_pipe_exits_4_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = served_into(write_end, "lattice", Z2_Z2_19, "--format", "dot")
    finally:
        os.close(write_end)
    assert_unwritable_output_exits_4(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_full_device_exits_4_without_traceback():
    with open("/dev/full", "w") as full:
        assert_unwritable_output_exits_4(served_into(full, "matrix", Z2))


def test_running_out_of_memory_exits_3_without_traceback():
    """All three caps far above what the machine holds: listing the ideals of
    Z(2) + Z(4) + ... + Z(2^6) needs more than the child's own 500 MB
    address-space limit, set before it imports anything."""
    pytest.importorskip("resource")
    group = json.dumps(
        {"p": 2, "components": [{"exponent": e, "multiplicity": 1} for e in range(1, 7)]}
    )
    caps = str(10**31)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (500 * 2**20, 500 * 2**20))\n"
        "from pgroups.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["endo", group, "--max-group", caps, "--max-ring", caps, "--max-ideals", caps]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=own_pgroups_env(),
        timeout=120,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: out of memory: ")
    assert proc.stderr.count("\n") == 1


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def scripts_entry_by_line(text, name):
    """``name``'s target under ``[project.scripts]``, read line by line.

    Enough for the one-line string entries this project declares; used where
    ``tomllib`` (Python >= 3.11) is missing.
    """
    in_scripts = False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            in_scripts = line == "[project.scripts]"
        elif in_scripts:
            match = re.fullmatch(r'(\S+)\s*=\s*"([^"]*)"', line)
            if match and match[1] == name:
                return match[2]
    raise KeyError(name)


def declared_console_script(name):
    """``name``'s ``module:attr`` target, as ``pyproject.toml`` declares it."""
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:
        return scripts_entry_by_line(text, name)
    return tomllib.loads(text)["project"]["scripts"][name]


def test_scripts_entry_by_line_agrees_with_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = PYPROJECT.read_text()
    scripts = tomllib.loads(text)["project"]["scripts"]
    assert scripts_entry_by_line(text, "pgroups") == scripts["pgroups"]


def test_module_and_script_entry_points(tmp_path):
    env = own_pgroups_env()
    proc = subprocess.run(
        [sys.executable, "-m", "pgroups", "verify", G24, "--claims", "indicator-antitone"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "verified"
    # The console script pip would install: resolve the declared entry point,
    # then run the same wrapper pip writes for it.
    entry = EntryPoint(
        name="pgroups", value=declared_console_script("pgroups"), group="console_scripts"
    )
    assert callable(entry.load())
    wrapper = tmp_path / "pgroups"
    wrapper.write_text(
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n"
    )
    script = subprocess.run(
        [sys.executable, str(wrapper), "matrix", G24],
        capture_output=True,
        text=True,
        env=env,
    )
    assert script.returncode == 0
    assert "i=2" in script.stdout


@pytest.mark.skipif(
    shutil.which("pgroups") is None, reason="pgroups console script not installed"
)
def test_installed_console_script():
    script = subprocess.run(
        ["pgroups", "matrix", G24], capture_output=True, text=True
    )
    assert script.returncode == 0
    assert "i=2" in script.stdout


# -- fuzzing the group input ---------------------------------------------------

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-2, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 3), max_size=1),
)
_BAD_INT = st.one_of(
    st.integers(-2, 0), st.integers(min_value=10**6, max_value=10**40)
)
_BAD_P = st.one_of(
    st.sampled_from([-3, 0, 1, 4, 9, 15, 2**61 - 1, 2**64 + 1]),
    st.integers(min_value=10**6, max_value=10**30),
)


@st.composite
def _group_args(draw):
    """A valid group document, then up to three malformations of it."""
    exps = sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=3)))
    comps = [{"exponent": e, "multiplicity": draw(st.integers(1, 2))} for e in exps]
    doc = {"p": draw(st.sampled_from([2, 3, 5])), "components": comps}
    for _ in range(draw(st.integers(0, 3))):
        holder = draw(st.sampled_from([doc] + [c for c in comps if isinstance(c, dict)]))
        key = draw(st.sampled_from(sorted(holder)) if holder else st.just("p"))
        kind = draw(st.sampled_from(["junk", "bad int", "bad p", "drop", "extra", "text"]))
        if kind == "junk":
            holder[key] = draw(_JUNK)
        elif kind == "bad int":
            holder[key] = draw(_BAD_INT)
        elif kind == "bad p":
            doc["p"] = draw(_BAD_P)
        elif kind == "drop":
            holder.pop(key, None)
        elif kind == "extra":
            holder["extra"] = draw(_JUNK)
        else:
            return "{" + draw(st.text(max_size=8))
    return json.dumps(doc)


_SUBCOMMANDS = [
    ["analyze"],
    ["lattice"],
    ["matrix"],
    ["endo"],
    ["verify", "--claims", "indicator-antitone"],
]


@settings(
    derandomize=True,
    max_examples=80,
    deadline=timedelta(seconds=10),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_group_args())
def test_fuzzed_group_input_exits_cleanly(arg):
    for command in _SUBCOMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command[0], arg, "--max-group", "4096", *command[1:]])
        assert code in (0, 2, 3), (command, arg, err.getvalue())
        assert "Traceback" not in err.getvalue()


# -- fuzzing the Ulm-sequence input --------------------------------------------

# every omitted block is still built, so a length within the cap costs memory
# in proportion: small values, or ones past the cap, which exit 3 at once
_BAD_FIELD = st.one_of(
    _JUNK,
    st.integers(-3, -1),
    st.integers(MAX_ULM_LENGTH + 1, 10**30),
    st.floats(-3, 3),
    st.text(alphabet="0123456789", min_size=1, max_size=2),
)


def _dicts(node):
    """Every object in a JSON document, outermost first."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _dicts(child)


@st.composite
def _ulm_args(draw):
    """A valid Ulm-sequence document, then up to three malformations of it."""
    doc = json.loads(draw(st.sampled_from([TestUlm.REJECT, TestUlm.ACCEPT])))
    for _ in range(draw(st.integers(0, 3))):
        holder = draw(st.sampled_from(list(_dicts(doc))))
        key = draw(st.sampled_from(sorted(holder)) if holder else st.just("q"))
        kind = draw(st.sampled_from(["bad field", "drop", "extra"]))
        if kind == "bad field":
            holder[key] = draw(_BAD_FIELD)
        elif kind == "drop":
            holder.pop(key, None)
        else:
            holder["extra"] = draw(_BAD_FIELD)
    return json.dumps(doc)


@settings(
    derandomize=True,
    max_examples=200,
    deadline=timedelta(seconds=10),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_ulm_args())
@example('{"lambda": {"q": 100000000000000000000, "r": 0}, "blocks": []}')
@example('{"lambda": {"q": 0, "r": 100000000000000000000}, "blocks": []}')
@example(json.dumps({"lambda": {"q": 1, "r": MAX_ULM_LENGTH + 1}, "blocks": []}))
def test_fuzzed_ulm_input_exits_cleanly(arg):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["ulm", arg])
    assert code in (0, 2, 3), (arg, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert "exceeds the Ulm length cap" in err.getvalue()
