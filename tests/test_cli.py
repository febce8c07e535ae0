"""Command-line surface: JSON run reports, exit codes, and piping formats."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sigdef
from sigdef import maxdef, parse_sg, stable_positive_cover
from sigdef.cli import _crosscheck_instance, main

from conftest import PADDING, WORKED_NEGATIVE, WORKED_POSITIVE

TRIANGLE_SG = "e u v +\ne u w -\ne v w -\n"
# 13 vertices, above the exhaustive bound: the 3-chromatic triangle above
# (value 1) and a positive triangle (value 0), each with 10 isolated vertices
PADDING_SG = "".join(f"v {label}\n" for label in PADDING)
PADDED_TRIANGLE_SG = TRIANGLE_SG + PADDING_SG
PADDED_POSITIVE_SG = "e x y +\ne y z +\ne x z +\n" + PADDING_SG
# 40 matched pairs with the single negative edge a1~b2: 2-chromatic, so
# its maximum deficiency is 0 by the closed form
FORTY_PAIRS_SG = "".join(f"e a{i} b{i} +\n" for i in range(1, 41)) + "e a1 b2 -\n"


def worked_sg_text() -> str:
    lines = [f"e {a} {b} +" for a, b, _ in WORKED_POSITIVE]
    lines += [f"e {a} {b} -" for a, b in WORKED_NEGATIVE]
    return "\n".join(lines) + "\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "fig.sg"
    path.write_text(TRIANGLE_SG)
    return str(path)


@pytest.fixture
def sg_file(tmp_path):
    def write(text: str) -> str:
        path = tmp_path / "graph.sg"
        path.write_text(text)
        return str(path)

    return write


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.sg"
    path.write_text(worked_sg_text())
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    report = json.loads(out)
    assert report["schema"] == "sigdef/1"
    return code, report, err


def fresh_python(script: str) -> str:
    """Stdout of ``script`` run by ``python -c`` in a fresh interpreter that
    imports sigdef from this source tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(sigdef.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestMaxdefCommand:
    def test_parser_built_once_and_not_at_import(self):
        from sigdef.cli import build_parser

        assert build_parser() is build_parser()
        script = (
            "from sigdef.cli import build_parser\n"
            "print(build_parser.cache_info().currsize)\n"
        )
        assert fresh_python(script) == "0\n"

    def test_cold_import_loads_no_dataclass_machinery(self):
        listing = "import sys\nprint(' '.join(sorted(sys.modules)))\n"
        baseline = set(fresh_python(listing).split())
        loaded = set(fresh_python("import sigdef.cli\n" + listing).split())
        added = loaded - baseline
        assert "sigdef.cli" in added
        assert not added & {"dataclasses", "inspect"}, sorted(added)

    def test_worked_example(self, capsys, worked_file):
        # the fixture is 2-chromatic, which the parity test finds at its
        # 14 vertices; the caller's assertion runs the procedure anyway
        code, _, err = run(capsys, ["maxdef", worked_file])
        assert code == 1
        assert "2-chromatic" in err
        code, report, _ = run_json(
            capsys, ["maxdef", worked_file, "--assume-chromatic-3"]
        )
        assert code == 0
        assert report["result"]["value"] == 1
        assert report["result"]["cover"] == [
            "b1", "a2", "b3", "a4", "a5", "a6", "a7",
        ]

    def test_note_only_for_unproved_zero_above_bound(self, capsys, sg_file):
        # 13 vertices exceed the exhaustive bound: a value-0 answer stands
        # on the caller's word and a note lands on stderr, while a value-1
        # answer's cover proves chi = 3
        code, report, err = run_json(capsys, ["maxdef", sg_file(PADDED_POSITIVE_SG)])
        assert code == 0 and report["result"]["value"] == 0
        assert "not verified" in err
        code, report, err = run_json(capsys, ["maxdef", sg_file(PADDED_TRIANGLE_SG)])
        assert code == 0 and report["result"]["value"] == 1
        assert err == ""

    def test_report_times_parsing_apart(self, capsys, worked_file):
        code, report, _ = run_json(
            capsys, ["maxdef", worked_file, "--assume-chromatic-3"]
        )
        assert code == 0
        for key in ("elapsed_ms", "parse_ms"):
            assert isinstance(report[key], float) and report[key] >= 0.0

    def test_trace_flag(self, capsys, worked_file):
        code, report, _ = run_json(
            capsys, ["maxdef", worked_file, "--trace", "--assume-chromatic-3"]
        )
        assert code == 0
        steps = [entry["step"] for entry in report["result"]["trace"]]
        assert steps == [8, 9, 11, 12, 6, 4, 10]

    def test_trace_ends_with_step12_refutation(self, capsys, sg_file):
        # the forced chain a1 -> a2 -> a3 -> b1 runs into a1's own partner
        text = "".join(f"e a{i} b{i} +\n" for i in range(1, 6))
        text += "e a1 b2 -\ne a2 b3 -\ne a1 a3 -\ne b1 b4 -\ne a4 b5 -\ne b1 a5 -\n"
        code, report, _ = run_json(
            capsys, ["maxdef", sg_file(text), "--trace", "--assume-chromatic-3"]
        )
        assert code == 0
        assert report["result"]["value"] == 0
        assert report["result"]["trace"][-1] == {
            "step": 12,
            "detail": "forced cycle through a1, a2, a3, b1, a4, a5 meets its own "
            "mirror: no stable cover exists",
            "pairs_removed": 0,
            "s_added": [],
            "b_added": [],
            "merges": [],
        }

    def test_report_renders_no_trace_entry_without_trace_flag(
        self, capsys, monkeypatch, worked_file
    ):
        # The trace is rendered from the run's records only when read; with
        # --trace, the golden CLI digest covers the output.
        argv = ["maxdef", worked_file, "--assume-chromatic-3"]
        reports = [run_json(capsys, argv)]

        def refuse(source, record):
            raise AssertionError("a trace entry was rendered")

        monkeypatch.setattr(sys.modules["sigdef.maxdef"], "_render", refuse)
        reports.append(run_json(capsys, argv))
        for code, report, err in reports:
            assert (code, err) == (0, "")
            del report["elapsed_ms"], report["parse_ms"]
        assert reports[0] == reports[1]

    def test_assume_flag_silences_note(self, capsys, worked_file):
        code, _, err = run_json(
            capsys, ["maxdef", worked_file, "--assume-chromatic-3"]
        )
        assert code == 0
        assert err == ""

    def test_not_three_chromatic_exits_1(self, capsys, tmp_path):
        path = tmp_path / "two.sg"
        path.write_text("e a b +\n")
        code, _, err = run(capsys, ["maxdef", str(path)])
        assert code == 1
        assert "2-chromatic" in err

    def test_two_chromatic_refused_at_any_size(self, capsys, sg_file):
        path = sg_file(FORTY_PAIRS_SG)
        code, _, err = run(capsys, ["maxdef", path])
        assert code == 1
        assert "2-chromatic" in err
        code, report, _ = run_json(capsys, ["classify2", path])
        assert code == 0
        assert report["result"] == {"case": "M0m0", "M": 0, "m": 0}


class TestOracleCommands:
    def test_chromatic(self, capsys, triangle_file):
        code, report, _ = run_json(capsys, ["chromatic", triangle_file])
        assert code == 0
        assert report["result"] == {"chi": 3}

    def test_chromatic_bound_exceeded_exits_3(self, capsys, worked_file, sg_file):
        # chi <= 2 is answered at any size; chi = 3 needs the bounded search
        code, report, _ = run_json(capsys, ["chromatic", worked_file])
        assert code == 0
        assert report["result"] == {"chi": 2}
        code, _, err = run(capsys, ["chromatic", sg_file(PADDED_POSITIVE_SG)])
        assert code == 3
        assert "refused" in err

    def test_deficiency(self, capsys, triangle_file):
        code, report, _ = run_json(capsys, ["deficiency", triangle_file])
        assert code == 0
        result = report["result"]
        assert result["chi"] == 3
        assert result["range"] == [0, 1]
        assert result["max"] == 1 and result["min"] == 0
        assert result["witness_min"]["deficiency"] == 0

    def test_classify2(self, capsys, tmp_path):
        path = tmp_path / "neg.sg"
        path.write_text("e a b -\n")
        code, report, _ = run_json(capsys, ["classify2", str(path)])
        assert code == 0
        assert report["result"] == {"case": "M1m1", "M": 1, "m": 1}

    def test_classify2_rejects_other_chi(self, capsys, triangle_file):
        code, _, err = run(capsys, ["classify2", triangle_file])
        assert code == 1
        assert "not 2-chromatic" in err

    def test_switching_range(self, capsys, triangle_file):
        code, report, _ = run_json(capsys, ["switching-range", triangle_file])
        assert code == 0
        assert report["result"]["range"] == [0, 1]
        witness = report["result"]["witnesses"]["1"]
        assert "switch_set" in witness and "coloration" in witness


class TestCoverCheck:
    def test_valid_cover(self, capsys, worked_file):
        code, report, _ = run_json(
            capsys,
            ["cover-check", worked_file, "--cover", "b1,a2,b3,a4,a5,a6,a7"],
        )
        assert code == 0
        assert report["result"] == {
            "stable": True, "covers_positive": True, "ok": True,
        }

    def test_invalid_cover_exits_1(self, capsys, worked_file):
        code, report, _ = run_json(
            capsys, ["cover-check", worked_file, "--cover", "a1,a2"]
        )
        assert code == 1
        assert report["result"]["ok"] is False

    def test_unknown_label_exits_2(self, capsys, worked_file):
        code, _, err = run(capsys, ["cover-check", worked_file, "--cover", "zz"])
        assert code == 2
        assert "unknown vertex" in err


class TestSwitchCommand:
    def test_switch_emits_sg(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["switch", triangle_file, "--set", "w"])
        assert code == 0
        g = parse_sg(out)
        assert g.negative_edge_count == 0
        assert g.positive_edge_count == 3


class TestGenAndDot:
    def test_gen_matched_deterministic(self, capsys):
        code, first, _ = run(capsys, ["gen", "--pairs", "4", "--neg-prob", "0.3",
                                      "--seed", "11"])
        assert code == 0
        code, second, _ = run(capsys, ["gen", "--pairs", "4", "--neg-prob", "0.3",
                                       "--seed", "11"])
        assert code == 0
        assert first == second
        assert parse_sg(first).n == 8

    def test_gen_general(self, capsys):
        code, out, _ = run(
            capsys,
            ["gen", "--general", "--vertices", "6", "--edge-prob", "0.5",
             "--neg-prob", "0.5", "--seed", "3"],
        )
        assert code == 0
        assert parse_sg(out).n == 6

    def test_gen_requires_mode(self, capsys):
        code, _, err = run(capsys, ["gen", "--seed", "1"])
        assert code == 2
        assert "--pairs" in err

    def test_dot_with_cover(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["dot", triangle_file, "--cover", "v"])
        assert code == 0
        assert out.count("[shape=box]") == 1
        assert out.count("[style=dashed]") == 2


class TestCrosscheck:
    def test_clean_run_exits_0(self, capsys):
        code, report, _ = run_json(
            capsys, ["crosscheck", "--count", "60", "--max-pairs", "6",
                     "--seed", "7"],
        )
        assert code == 0
        assert report["result"]["mismatches"] == 0
        assert report["result"]["compared"] > 0
        assert report["seed"] == 7
        # crosscheck reads no file, so there is no parse time to report
        assert isinstance(report["elapsed_ms"], float) and report["elapsed_ms"] >= 0.0
        assert "parse_ms" in report and report["parse_ms"] is None

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_matched_instances_reach_both_answers_and_late_steps(self, seed):
        # matched instances near the 2-SAT threshold: at 200 pairs they give
        # ones and step-12 zeros, and reach steps 4 and 6-12
        rng = random.Random(seed)
        values, ends, steps = set(), set(), set()
        for index in range(120):
            g = _crosscheck_instance(rng, 200, index)
            if index % 2 or not g.positive_edge_count:
                continue
            result = maxdef(g, assume_chromatic_3=True)
            assert result.value == (stable_positive_cover(g) is not None)
            values.add(result.value)
            ends.add(result.terminating_step)
            steps.update(result.steps_fired)
        assert values == {0, 1}
        assert 12 in ends
        assert {4, 6, 7, 8, 9, 10, 11, 12} <= steps, sorted(steps)

    @pytest.mark.parametrize(
        "flag, value", [("--count", "-3"), ("--max-pairs", "0")]
    )
    def test_nonsense_counts_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, ["crosscheck", flag, value, "--seed", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err


# every subcommand that reads a file, with the option it requires
FILE_COMMANDS = [
    ["maxdef"],
    ["chromatic"],
    ["deficiency"],
    ["classify2"],
    ["switch", "--set", "u"],
    ["switching-range"],
    ["cover-check", "--cover", "u"],
    ["dot"],
]


def assert_one_error_line(capsys, path: str, prefix: str) -> None:
    """Every file-reading subcommand exits 2 on ``path``, with nothing on
    stdout and one stderr line starting with ``prefix``."""
    for command, *options in FILE_COMMANDS:
        code, out, err = run(capsys, [command, path, *options])
        assert (code, out) == (2, ""), command
        assert err.startswith(prefix) and err.count("\n") == 1, (command, err)


class TestUsageErrors:
    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert_one_error_line(capsys, str(tmp_path / "missing.sg"), "error: ")

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.sg"
        path.write_text("e a b +\ne c c -\n")
        assert_one_error_line(capsys, str(path), "parse error: line 2: ")

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 2

    def test_directory_path_exits_2(self, capsys, tmp_path):
        assert_one_error_line(capsys, str(tmp_path), "error: ")

    def test_invalid_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bytes.sg"
        path.write_bytes(b"e a b +\n\xff\xfe\n")
        assert_one_error_line(capsys, str(path), "error: ")

    @pytest.mark.parametrize("command, option", [("switch", "--set"), ("dot", "--cover")])
    def test_unknown_label_exits_2(self, capsys, triangle_file, command, option):
        code, out, err = run(capsys, [command, triangle_file, option, "zz"])
        assert (code, out) == (2, "")
        assert err == "error: unknown vertex label 'zz'\n"

    def test_gen_general_requires_vertices(self, capsys):
        code, out, err = run(capsys, ["gen", "--general", "--seed", "1"])
        assert code == 2
        assert out == ""
        assert err == "error: --general requires --vertices\n"


DEMOS = Path(__file__).parents[1] / "demos"


def golden_calls(tmp_path) -> list[list[str]]:
    """Every subcommand on the demo fixtures, a few files written to
    ``tmp_path``, and the usage errors that each command reports."""
    triangle = str(DEMOS / "fig_triangle.sg")
    worked = str(DEMOS / "worked_example.sg")
    padded = tmp_path / "padded.sg"
    padded.write_text(PADDED_POSITIVE_SG)
    malformed = tmp_path / "malformed.sg"
    malformed.write_text("e a b +\ne c c -\n")
    return [
        ["maxdef", triangle],
        ["maxdef", worked],
        ["maxdef", triangle, "--trace"],
        ["maxdef", worked, "--assume-chromatic-3"],
        ["maxdef", worked, "--trace", "--assume-chromatic-3"],
        ["maxdef", str(padded)],
        ["maxdef", str(malformed)],
        ["chromatic", triangle],
        ["chromatic", worked],
        ["chromatic", str(padded)],
        ["deficiency", triangle],
        ["classify2", triangle],
        ["classify2", worked],
        ["switch", triangle, "--set", "w"],
        ["switch", worked, "--set", "a1,b2,a3"],
        ["switch", triangle, "--set", "zz"],
        ["switching-range", triangle],
        ["cover-check", worked, "--cover", "b1,a2,b3,a4,a5,a6,a7"],
        ["cover-check", worked, "--cover", "a1,a2"],
        ["cover-check", worked, "--cover", "zz"],
        ["gen", "--pairs", "5", "--neg-prob", "0.3", "--seed", "11"],
        ["gen", "--general", "--vertices", "7", "--edge-prob", "0.5",
         "--neg-prob", "0.4", "--double-prob", "0.1", "--seed", "3"],
        ["gen", "--seed", "1"],
        ["gen", "--general", "--seed", "1"],
        ["dot", triangle],
        ["dot", worked, "--cover", "b1,a2"],
        ["dot", triangle, "--cover", "zz"],
        ["crosscheck", "--count", "12", "--max-pairs", "4", "--seed", "5"],
        ["crosscheck", "--count", "-1", "--seed", "5"],
        ["crosscheck", "--max-pairs", "21", "--seed", "5"],
    ]


def golden_digest(capsys, calls) -> str:
    """SHA-256 over each call's argv, exit code, stdout and stderr.  File
    paths are cut to their basenames, and a JSON report drops its timings,
    so the digest depends neither on the checkout's place nor on the clock."""
    digest = hashlib.sha256()
    for argv in calls:
        code, out, err = run(capsys, argv)
        if out.startswith("{"):
            report = json.loads(out)
            del report["elapsed_ms"], report["parse_ms"]
            report["argv"] = [os.path.basename(a) for a in report["argv"]]
            out = json.dumps(report)
        record = [[os.path.basename(a) for a in argv], code, out, err]
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


GOLDEN_CLI_DIGEST = "524fcba1d13b84f80b58acbf94cbf87f726c4db3c4f47f01379e0072407f408d"


def test_golden_cli_digest(capsys, tmp_path):
    assert golden_digest(capsys, golden_calls(tmp_path)) == GOLDEN_CLI_DIGEST
