"""Tests of the benchmark itself: the checker must reject wrong answers, the
references must agree with brute force, and traced counts must repeat.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

import sigdef.cli as cli  # noqa: E402


def _report(tmp_path: Path, g: gen.Graph, command: str = "maxdef") -> tuple[check.Parsed, dict]:
    """The CLI's report on ``g``, which must pass the checker unchanged."""
    path = tmp_path / "g.sg"
    path.write_text(g.to_sg(), encoding="utf-8")
    call = run._calls_for(g, path, (command,))[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(call.argv))
    assert call.judge(code, out.getvalue()) is None
    return check.read_sg(g.to_sg()), json.loads(out.getvalue())


def _judge(command: str, g: check.Parsed, expected: int, report: dict) -> str | None:
    return check.verdict(command, g, expected, 0, json.dumps(report))


def test_flipped_pair_side_is_rejected(tmp_path):
    g = gen.planted(40, random.Random(3))
    parsed, report = _report(tmp_path, g)
    cover = report["result"]["cover"]
    assert _judge("maxdef", parsed, 1, report) is None
    inside = set(cover)
    index = {lab: i for i, lab in enumerate(parsed.labels)}
    neg = {frozenset(e) for e in parsed.neg}
    flipped = 0
    for lab in cover:
        partner = ("b" if lab[0] == "a" else "a") + lab[1:]
        new = (inside - {lab}) | {partner}
        clash = any(frozenset((index[partner], index[x])) in neg for x in new - {partner})
        if not clash:
            continue
        report["result"]["cover"] = sorted(new)
        assert _judge("maxdef", parsed, 1, report) is not None
        flipped += 1
    assert flipped > 0


def test_cover_missing_a_component_vertex_is_rejected(tmp_path):
    g = gen.components([12, 20, 8], random.Random(4))
    parsed, report = _report(tmp_path, g)
    cover = report["result"]["cover"]
    assert _judge("maxdef", parsed, 1, report) is None
    report["result"]["cover"] = cover[1:]
    assert _judge("maxdef", parsed, 1, report) is not None


def test_flipped_verdicts_are_rejected(tmp_path):
    g = gen.planted(30, random.Random(5))
    parsed, report = _report(tmp_path, g)
    report["result"].update(value=0, cover=None)
    assert "value 0" in _judge("maxdef", parsed, 1, report)

    g = gen.dense_zero(40, random.Random(6), neg_prob=0.3)
    parsed, report = _report(tmp_path, g)
    assert report["result"]["value"] == 0 == check.two_sat_value(parsed)
    report["result"].update(value=1, cover=[lab for lab in parsed.labels if lab[0] == "a"])
    assert "value 1" in _judge("maxdef", parsed, 0, report)
    assert not check.is_stable_cover(parsed, report["result"]["cover"])


def test_wrong_deficiency_report_is_rejected(tmp_path):
    rng = random.Random(7)
    g = gen.desk(9, rng, 0.3)
    parsed, report = _report(tmp_path, g, "deficiency")
    assert _judge("deficiency", parsed, g.expected, report) is None
    wrong = json.loads(json.dumps(report))
    wrong["result"]["max"] = 1 - g.expected
    assert _judge("deficiency", parsed, g.expected, wrong) is not None
    wrong = json.loads(json.dumps(report))
    colors = wrong["result"]["witness_max"]["colors"]
    u, v = parsed.pos[0]
    colors[parsed.labels[v]] = colors[parsed.labels[u]]
    assert _judge("deficiency", parsed, g.expected, wrong) is not None


def test_references_agree_with_brute_force():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(2, 9)
        pos, neg = [], []
        for u in range(n):
            for v in range(u + 1, n):
                r = rng.random()
                if r < 0.25:
                    pos.append((u, v))
                elif r < 0.5:
                    neg.append((u, v))
        g = check.Parsed(tuple(f"v{i}" for i in range(n)), tuple(pos), tuple(neg))
        brute = check.brute_force_cover(n, pos, neg)
        assert check.two_sat_value(g) == (brute is not None)
        if brute is not None:
            cover = [g.labels[v] for v in range(n) if brute >> v & 1]
            assert check.is_stable_cover(g, cover)


def test_generators_are_seeded_and_duplicate_free():
    for make in (lambda r: gen.planted(50, r), lambda r: gen.dense_zero(30, r, 0.05),
                 lambda r: gen.components([10, 30], r), lambda r: gen.desk(10, r, 0.3)):
        a, b = make(random.Random(9)), make(random.Random(9))
        assert a == b
        assert len(set(a.pos)) == len(a.pos) and len(set(a.neg)) == len(a.neg)
        assert all(u < v for u, v in a.pos + a.neg)


def test_traced_counts_repeat_and_match_the_trace(tmp_path):
    for workload in ("planted", "components", "desk"):
        pool = run.build_pool(workload, 11, tmp_path, graphs=3)
        first = run.traced(cli, pool, 0.0)
        second = run.traced(cli, pool, 0.0)
        for metrics, attempted, failures, problems in (first, second):
            assert failures == [] and problems == []
            assert attempted == 2 * len(pool)
            assert metrics["trace.missing"][0] == 0
        counts = {k: v for k, (v, unit) in first[0].items() if unit == "count"}
        assert counts == {k: v for k, (v, unit) in second[0].items() if unit == "count"}
        assert counts["cli.main.calls"] == len(pool)


def test_missing_layer_is_reported_not_fatal():
    tr = Tracer()
    tr._wrap("sigdef.maxdef", "no_such_rule", "maxdef.no_such_rule", None)
    assert tr.missing == ["sigdef.maxdef.no_such_rule"]
    assert tr.mismatches() == []
