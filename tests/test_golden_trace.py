"""Golden digest of the decision procedure's observable behaviour.

Every result's JSON, its full trace and its invariant-check count are
hashed over three fixed corpora: the exhaustive small-graph sweep of the
acceptance suite, a seeded batch of general graphs, and seeded planted
value-1 matched graphs, which run long enough to reach steps 4 and 6-12.
A second digest hashes the exhaustive oracles' answers and witnesses over
the same seeded general batch.  Any refactor of the ladder or the oracle
must leave its digest unchanged; a deliberate change of behaviour records
a new constant.
"""

from __future__ import annotations

import hashlib
import json
import random

from sigdef import (
    NotThreeChromaticError,
    chromatic_number,
    deficiency_report,
    generate_general,
    generate_matched,
    maxdef,
    switching_report,
)
from sigdef.maxdef import MatchedState

from test_acceptance import _exhaustive_graphs

GENERAL_SEED = 4242
GENERAL_COUNT = 400
PLANTED_SEED = 9001
PLANTED_COUNT = 60

GOLDEN_DIGEST = "149a12cdc69760ee3331ffe665ba270c7f8704e99dc874891a3df2887404e64f"
GOLDEN_ORACLE_DIGEST = "4e8e75e6c007ff9bf016930bc547d1a5fb54208a00c18a0da27c95732f2d8759"
SWITCHING_MAX_N = 7


def _planted(pairs: int, rng: random.Random):
    """Matched graph a_i--b_i where each pair picks a cover side and no
    negative edge joins two cover sides, so the answer is 1."""
    n = 2 * pairs
    cover_side = [rng.getrandbits(1) for _ in range(pairs)]
    target = round(rng.uniform(1.0, 2.5) * n / 2)
    names = [f"{'ab'[x & 1]}{(x >> 1) + 1}" for x in range(n)]
    seen: set[tuple[int, int]] = set()
    while len(seen) < target:
        u, v = sorted((rng.randrange(n), rng.randrange(n)))
        if u >> 1 == v >> 1:
            continue
        if (u & 1) == cover_side[u >> 1] and (v & 1) == cover_side[v >> 1]:
            continue
        seen.add((u, v))
    edges = [(names[u], names[v]) for u, v in sorted(seen)]
    return generate_matched(pairs, 0.0, 0, negative_edges=edges)


def _general_graphs():
    rng = random.Random(GENERAL_SEED)
    for _ in range(GENERAL_COUNT):
        yield generate_general(
            rng.randint(2, 12),
            rng.uniform(0.1, 0.8),
            rng.uniform(0.1, 0.9),
            rng.getrandbits(32),
            double_prob=0.05,
        )


def _corpus():
    for g in _exhaustive_graphs():
        yield g, {}
    for g in _general_graphs():
        yield g, {"assume_chromatic_3": True}
    rng = random.Random(PLANTED_SEED)
    for _ in range(PLANTED_COUNT):
        yield _planted(rng.randint(20, 80), rng), {"assume_chromatic_3": True}


def _record(g, kwargs) -> tuple[dict, set[int]]:
    try:
        result = maxdef(g, validate=True, **kwargs)
    except (NotThreeChromaticError, ValueError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}, set()
    record = {
        "result": result.to_json(),
        "trace": [entry.to_json() for entry in result.trace],
        "checks": result.checks,
    }
    return record, set(result.steps_fired)


def test_golden_trace_digest():
    digest = hashlib.sha256()
    reached: set[int] = set()
    planted_values = []
    for g, kwargs in _corpus():
        record, steps = _record(g, kwargs)
        reached |= steps
        if g.n >= 40:
            planted_values.append(record["result"]["value"])
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    assert planted_values == [1] * PLANTED_COUNT
    assert reached >= {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, sorted(reached)
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_trace_read_during_a_run_equals_trace_read_after(monkeypatch):
    # Records are rendered when the trace is read.  A record holding a set
    # that a later action grows (as ``_identify`` grows a survivor's
    # recovery set) would render differently during the run and after it.
    check = MatchedState.check_invariants

    def check_and_read(st):
        check(st)
        assert len(st.trace) == len(st.log.records)

    monkeypatch.setattr(MatchedState, "check_invariants", check_and_read)
    for g, kwargs in _corpus():
        try:
            unread = maxdef(g, **kwargs)
        except (NotThreeChromaticError, ValueError):
            continue
        read = maxdef(g, validate=True, **kwargs)
        assert read.trace == unread.trace


def _oracle_record(g) -> dict:
    rep = deficiency_report(g)
    record = {
        "chi": chromatic_number(g),
        "report_chi": rep.chi,
        "range": sorted(rep.range),
        "per_deficiency": [
            [d, list(rep.per_deficiency[d].colors)] for d in sorted(rep.range)
        ],
    }
    if g.n <= SWITCHING_MAX_N:
        sw = switching_report(g)
        record["switching"] = [
            [d, sorted(sw.witnesses[d][0]), list(sw.witnesses[d][1].colors)]
            for d in sorted(sw.range)
        ]
    return record


def test_golden_oracle_digest():
    digest = hashlib.sha256()
    for g in _general_graphs():
        digest.update(json.dumps(_oracle_record(g), sort_keys=True).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN_ORACLE_DIGEST
