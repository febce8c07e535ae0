"""Command-line surface: JSON run reports, exit codes, and piping formats."""

from __future__ import annotations

import json

import pytest

from sigdef import parse_sg
from sigdef.cli import main

from conftest import WORKED_NEGATIVE, WORKED_POSITIVE

TRIANGLE_SG = "e u v +\ne u w -\ne v w -\n"


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


class TestMaxdefCommand:
    def test_worked_example(self, capsys, worked_file):
        code, report, err = run_json(capsys, ["maxdef", worked_file])
        assert code == 0
        assert report["result"]["value"] == 1
        assert report["result"]["cover"] == [
            "b1", "a2", "b3", "a4", "a5", "a6", "a7",
        ]
        # 14 vertices exceed the exhaustive bound, so a note lands on stderr
        assert "not verified" in err

    def test_trace_flag(self, capsys, worked_file):
        code, report, _ = run_json(capsys, ["maxdef", worked_file, "--trace"])
        assert code == 0
        steps = [entry["step"] for entry in report["result"]["trace"]]
        assert steps == [8, 9, 11, 12, 6, 4, 10]

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


class TestOracleCommands:
    def test_chromatic(self, capsys, triangle_file):
        code, report, _ = run_json(capsys, ["chromatic", triangle_file])
        assert code == 0
        assert report["result"] == {"chi": 3}

    def test_chromatic_bound_exceeded_exits_3(self, capsys, worked_file):
        code, _, err = run(capsys, ["chromatic", worked_file])
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


class TestUsageErrors:
    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, ["chromatic", "/nonexistent.sg"])
        assert code == 2

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.sg"
        path.write_text("e a a +\n")
        code, _, err = run(capsys, ["maxdef", str(path)])
        assert code == 2
        assert "line 1" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 2

    def test_directory_path_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, ["maxdef", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
