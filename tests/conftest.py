"""Shared fixtures: the small reference graphs used across the suite."""

from __future__ import annotations

import gc
import random
import time

import pytest

from sigdef import Coloration, SignedGraph, build_graph, generate_matched
from sigdef.oracle import DeficiencyReport, canonical_color_order

# 3-chromatic triangle: one positive edge uv, negative edges uw and vw.
# Two proper colorations over {0, +-1}: (1, -1, 0) with deficiency 0 and
# (1, 0, 1) with deficiency 1.
TRIANGLE_EDGES = [("u", "v", "+"), ("u", "w", "-"), ("v", "w", "-")]

# Seven matched pairs a_i--b_i (positive) with ten cross negatives, whose
# stable cover {b1, a2, b3, a4, a5, a6, a7} the decision procedure recovers
# through steps 8, 9, 11/12, 6, 4, 10.  (The graph itself is 2-chromatic:
# see test_oracle.TestChromaticNumber.test_worked_example.)
WORKED_POSITIVE = [(f"a{i}", f"b{i}", "+") for i in range(1, 8)]
WORKED_NEGATIVE = [
    ("a1", "a2"),
    ("b1", "b4"),
    ("a2", "b5"),
    ("b2", "b3"),
    ("b2", "b4"),
    ("a3", "a4"),
    ("b4", "a5"),
    ("b5", "b6"),
    ("a6", "b7"),
    ("b6", "a7"),
]
WORKED_COVER = {"b1", "a2", "b3", "a4", "a5", "a6", "a7"}

# Ten isolated vertices: they lift a triangle to 13 vertices, above the
# exhaustive bound of 12, without changing its chromatic number of 3.
PADDING = [f"p{i}" for i in range(10)]
ALL_POSITIVE_TRIANGLE = [("x", "y", "+"), ("y", "z", "+"), ("x", "z", "+")]

# 3-chromatic graph without a stable cover where one pair ends up with a
# forbidden side and a looped partner: two positive paths u1-v1-u2 and
# u3-v3-u4 with negatives u1u2, u3u4 (the loops), v1v3, v3u1, u3u1.
BLOCKED_LOOP_POSITIVE = [
    ("u1", "v1", "+"),
    ("v1", "u2", "+"),
    ("u3", "v3", "+"),
    ("v3", "u4", "+"),
]
BLOCKED_LOOP_NEGATIVE = [
    ("u1", "u2"),
    ("u3", "u4"),
    ("v1", "v3"),
    ("v3", "u1"),
    ("u3", "u1"),
]


def planted(pairs: int, seed: int) -> SignedGraph:
    """Matched graph a_i--b_i of average negative degree 1.5, where each pair
    picks a cover side and no negative edge joins two cover sides, so the
    answer is 1.  Nearly every action is a step-9 commit; steps 4, 7, 8
    and 12 fire now and then."""
    rng = random.Random(seed)
    n = 2 * pairs
    cover_side = [rng.getrandbits(1) for _ in range(pairs)]
    target = round(1.5 * n / 2)
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


def threshold_matched(pairs: int, edges_per_pair: float, seed: int) -> SignedGraph:
    """Matched graph a_i--b_i with ``round(edges_per_pair * pairs)``
    distinct negative edges, each between two sides of different pairs
    drawn uniformly.  Reading each pair as one variable, every negative
    edge is a random 2-clause, so near one edge per pair the family sits
    at the random 2-SAT threshold (Chvatal and Reed 1992; Goerdt 1996):
    both answers occur, and zeros can survive until step 12.  The edges
    are drawn one by one, in time linear in their number."""
    rng = random.Random(seed)
    n = 2 * pairs
    target = round(edges_per_pair * pairs)
    names = [f"{'ab'[x & 1]}{(x >> 1) + 1}" for x in range(n)]
    seen: set[tuple[int, int]] = set()
    while len(seen) < target:
        u, v = sorted((rng.randrange(n), rng.randrange(n)))
        if u >> 1 != v >> 1:
            seen.add((u, v))
    edges = [(names[u], names[v]) for u, v in sorted(seen)]
    return generate_matched(pairs, 0.0, 0, negative_edges=edges)


def _gadget_edges(first: int, copies: int) -> list[tuple[str, str]]:
    """Negative edges of ``copies`` 4-pair gadgets on the pairs from
    ``first`` on (1-based)."""
    edges = []
    for base in range(first - 1, first - 1 + 4 * copies, 4):
        a1, b1, a2, b2, a3, b3, a4, b4 = (
            f"{side}{base + i}" for i in range(1, 5) for side in "ab"
        )
        edges += [(a1, b2), (b1, b3), (b1, a4), (a2, a3), (b3, b4)]
    return edges


def gadget_copies(k: int) -> SignedGraph:
    """k disjoint copies of a 4-pair gadget on which each round runs steps
    11, 12, 8 and 9 and removes one copy."""
    return generate_matched(4 * k, 0.0, 0, negative_edges=_gadget_edges(1, k))


def tail_family(length: int, copies: int, seed: int) -> SignedGraph:
    """A negative chain on the lowest pairs ahead of ``copies`` gadgets, so
    every forcing walk starts on the chain and its cycle lies past the
    walk's first vertex.  The tail pairs ta_i/tb_i, i = 0..length, are
    pairs 1..length+1, joined by ta_i~tb_{i+1}; each gadget copy c is
    joined by ta_length~b2_c and tb_0~b1_c.  The answer is 1 and the tail
    survives every round.  The seed only shuffles the order in which the
    negative edges are listed."""
    ta = [f"a{i + 1}" for i in range(length + 1)]
    tb = [f"b{i + 1}" for i in range(length + 1)]
    edges = [(ta[i], tb[i + 1]) for i in range(length)]
    for base in range(length + 1, length + 1 + 4 * copies, 4):
        edges += [(ta[length], f"b{base + 2}"), (tb[0], f"b{base + 1}")]
    edges += _gadget_edges(length + 2, copies)
    random.Random(seed).shuffle(edges)
    return generate_matched(length + 1 + 4 * copies, 0.0, 0, negative_edges=edges)


def forbid_star(n: int, blocked: bool = False) -> SignedGraph:
    """n matched pairs where a1 sees both sides of pair 2, so step 7 commits
    b1 and forbids its neighbors a3..an at once; step 4 then commits their
    partners one by one.  With ``blocked``, b1 also sees b3, so both sides
    of pair 3 are forbidden and the run ends at step 3 with value 0."""
    edges = [("a1", "a2"), ("a1", "b2")] + [("b1", f"a{i}") for i in range(3, n + 1)]
    if blocked:
        edges.append(("b1", "b3"))
    return generate_matched(n, 0.0, 0, negative_edges=edges)


def loop_family(n: int, both: bool = False) -> SignedGraph:
    """n disjoint positive paths u_i-v_i-w_i with the negative edge u_i~w_i,
    which flatten to n pairs with a loop on one side each; step 6 commits
    them one by one.  With ``both``, the last path grows w_n-x_n (+) and
    v_n~x_n (-), so its pair carries loops on both sides and the run ends at
    step 5 with value 0."""
    edges = []
    for i in range(1, n + 1):
        u, v, w = f"u{i}", f"v{i}", f"w{i}"
        edges += [(u, v, "+"), (v, w, "+"), (u, w, "-")]
    if both:
        edges += [(f"w{n}", f"x{n}", "+"), (f"v{n}", f"x{n}", "-")]
    return build_graph(edges)


def cpu_timed_rounds(runs, rounds: int = 3):
    """Call each of ``runs`` once per round, round-major, so that a slow
    spell of the host hits every callable alike, and yield ``(index, value,
    seconds)`` for each call: which callable, what it returned, and the
    CPU time of this process it took, with the cyclic garbage collector
    paused during the call."""
    for _ in range(rounds):
        for i, run in enumerate(runs):
            gc.collect()
            gc.disable()
            try:
                started = time.process_time_ns()
                value = run()
                elapsed = (time.process_time_ns() - started) / 1e9
            finally:
                gc.enable()
            yield i, value, elapsed


def best_cpu_seconds(run, rounds: int = 3) -> float:
    """Fastest of ``rounds`` calls of ``run()`` in this process's CPU time,
    with the cyclic garbage collector paused during each call."""
    return min(seconds for _, _, seconds in cpu_timed_rounds([run], rounds))


def reference_report(g: SignedGraph) -> DeficiencyReport:
    """The full plain walk, as a reference for ``oracle.deficiency_report``
    that shares none of its search code: for each color-set size from 0 up,
    color the vertices in ascending order, try colors in canonical scan
    order, skip the colors that the earlier neighbors' colors ban, and keep
    the first coloration of each deficiency.  The first size with a proper
    coloration gives the report.  No domains, trail, bitmasks or pruning,
    so it visits every proper coloration of that size."""
    earlier_pos = [[u for u in g.pos_adj[v] if u < v] for v in range(g.n)]
    earlier_neg = [[u for u in g.neg_adj[v] if u < v] for v in range(g.n)]
    for size in range(2 * g.n + 1):
        scan = canonical_color_order(size)
        colors = [0] * g.n
        first: dict[int, Coloration] = {}

        def walk(v: int) -> None:
            if v == g.n:
                d = size - len(set(colors))
                if d not in first:
                    first[d] = Coloration(tuple(colors), size // 2, bool(size % 2))
                return
            banned = {colors[u] for u in earlier_pos[v]}
            banned.update(-colors[u] for u in earlier_neg[v])
            for c in scan:
                if c not in banned:
                    colors[v] = c
                    walk(v + 1)

        walk(0)
        if first:
            return DeficiencyReport(
                chi=size,
                range=frozenset(first),
                max_deficiency=max(first),
                min_deficiency=min(first),
                witness_max=first[max(first)],
                witness_min=first[min(first)],
                per_deficiency=first,
            )
    raise AssertionError("2n distinct positive colors always properly color")


def reference_cover(g: SignedGraph) -> frozenset[int] | None:
    """The first stable cover of the positive edges in the order of vertex
    bitmasks, or None: a reference for ``oracle.stable_positive_cover``
    that shares none of its code.  It tries every subset of the vertices,
    so it takes graphs of at most 12 vertices."""
    if g.n > 12:
        raise ValueError(f"reference_cover takes at most 12 vertices, got {g.n}")
    positive = [1 << u | 1 << v for u, v in g.positive_edges()]
    every_edge = positive + [1 << u | 1 << v for u, v in g.negative_edges()]
    for mask in range(1 << g.n):
        if all(mask & edge for edge in positive) and not any(
            mask & edge == edge for edge in every_edge
        ):
            return frozenset(v for v in range(g.n) if mask >> v & 1)
    return None


def neg(edges):
    return [(a, b, "-") for a, b in edges]


@pytest.fixture
def triangle() -> SignedGraph:
    return build_graph(TRIANGLE_EDGES)


@pytest.fixture
def worked_example() -> SignedGraph:
    return build_graph(WORKED_POSITIVE + neg(WORKED_NEGATIVE))


@pytest.fixture
def blocked_loop_graph() -> SignedGraph:
    return build_graph(BLOCKED_LOOP_POSITIVE + neg(BLOCKED_LOOP_NEGATIVE))


@pytest.fixture
def all_positive_triangle() -> SignedGraph:
    return build_graph(ALL_POSITIVE_TRIANGLE)
