"""Golden digest of the decision procedure's observable behaviour.

Every result's JSON, its full trace and its invariant-check count are
hashed over three fixed corpora: the exhaustive small-graph sweep of the
acceptance suite, a seeded batch of general graphs, and seeded planted
value-1 matched graphs, which run long enough to reach steps 4 and 6-12.
Any refactor of the ladder must leave the digest unchanged; a deliberate
change of behaviour records a new constant.
"""

from __future__ import annotations

import hashlib
import json
import random

from sigdef import NotThreeChromaticError, generate_general, generate_matched, maxdef

from test_acceptance import _exhaustive_graphs

GENERAL_SEED = 4242
GENERAL_COUNT = 400
PLANTED_SEED = 9001
PLANTED_COUNT = 60

GOLDEN_DIGEST = "149a12cdc69760ee3331ffe665ba270c7f8704e99dc874891a3df2887404e64f"


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


def _corpus():
    for g in _exhaustive_graphs():
        yield g, {}
    rng = random.Random(GENERAL_SEED)
    for _ in range(GENERAL_COUNT):
        g = generate_general(
            rng.randint(2, 12),
            rng.uniform(0.1, 0.8),
            rng.uniform(0.1, 0.9),
            rng.getrandbits(32),
            double_prob=0.05,
        )
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
