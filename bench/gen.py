"""Seeded input generators for the benchmark workloads.

Every generator draws only from the ``random.Random`` it is handed and
returns a ``Graph`` whose ``.sg`` text is written to disk at set-up.  None
of them calls into ``sigdef``: the inputs, and the answers known by
construction, do not depend on the code under test.  No generator emits a
duplicate edge, so ``parse_sg`` never warns.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from check import brute_force_chi3, brute_force_cover

PLANTED_NEG_DEGREE = 1.5  # average negative degree of a planted graph
COMPONENT_NEG_DEGREE = 1.0  # average negative degree of a components graph
COMPONENT_EXTRA_POS = 0.2  # extra positive edges per vertex of a component
COMPONENT_LONERS = 5  # vertices with negative edges only
DESK_NEG_PROB = 0.5  # share of single-sign desk edges that are negative
DESK_DOUBLE_PROB = 0.05  # share of desk edges that carry both signs


@dataclass(frozen=True)
class Graph:
    """A generated input: labels, positive and negative edges as id pairs,
    and the maximum deficiency when the construction fixes it (None when
    only a reference check can tell)."""

    labels: tuple[str, ...]
    pos: tuple[tuple[int, int], ...]
    neg: tuple[tuple[int, int], ...]
    expected: int | None

    @property
    def edge_count(self) -> int:
        return len(self.pos) + len(self.neg)

    def to_sg(self) -> str:
        lab = self.labels
        lines = [f"v {x}" for x in lab]
        lines += [f"e {lab[u]} {lab[v]} +" for u, v in self.pos]
        lines += [f"e {lab[u]} {lab[v]} -" for u, v in self.neg]
        return "\n".join(lines) + "\n"


def _pair_labels(pairs: int) -> tuple[str, ...]:
    return tuple(f"{s}{i}" for i in range(1, pairs + 1) for s in "ab")


def planted(pairs: int, rng: random.Random) -> Graph:
    """Matched graph a_i--b_i with a planted stable cover.

    Each pair picks the side that is in the cover; negative edges are drawn
    uniformly between distinct pairs, rejecting any that would join two
    cover sides, until the average negative degree is
    ``PLANTED_NEG_DEGREE``.  The planted sides form a stable cover of the
    positive edges, so the maximum deficiency is 1.
    """
    n = 2 * pairs
    cover_side = [rng.getrandbits(1) for _ in range(pairs)]
    target = round(PLANTED_NEG_DEGREE * n / 2)
    seen: set[tuple[int, int]] = set()
    neg: list[tuple[int, int]] = []
    while len(neg) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u >> 1 == v >> 1:
            continue
        if (u & 1) == cover_side[u >> 1] and (v & 1) == cover_side[v >> 1]:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        neg.append(key)
    pos = tuple((2 * i, 2 * i + 1) for i in range(pairs))
    return Graph(_pair_labels(pairs), pos, tuple(neg), expected=1)


def dense_zero(pairs: int, rng: random.Random, neg_prob: float) -> Graph:
    """The acceptance-criterion-6 family: a positive perfect matching plus
    every cross-pair slot negative with probability ``neg_prob``.  Slots are
    visited row by row, jumping geometric gaps between successes, so a
    graph costs one draw per edge.  The answer is left to the 2-SAT
    reference."""
    n = 2 * pairs
    log_miss = math.log(1.0 - neg_prob)
    neg = []
    for u in range(n):
        v = u
        while True:
            v += 1 + int(math.log(1.0 - rng.random()) / log_miss)
            if v >= n:
                break
            if v >> 1 != u >> 1:
                neg.append((u, v))
    pos = tuple((2 * i, 2 * i + 1) for i in range(pairs))
    return Graph(_pair_labels(pairs), pos, tuple(neg), expected=None)


def components(sizes: list[int], rng: random.Random) -> Graph:
    """General graph whose positive components are bipartite trees with
    even cycles, with a planted cover.

    Component k has ``sizes[k]`` vertices on a random tree; about
    ``COMPONENT_EXTRA_POS`` times as many extra positive edges join its two
    sides, closing even cycles.  Each component picks a cover side.
    Negative edges are drawn uniformly over all vertices, never inside the
    cover, until the average negative degree is ``COMPONENT_NEG_DEGREE``.
    ``COMPONENT_LONERS`` vertices carry negative edges only (flatten drops
    them).  The planted
    sides form a stable cover, so the maximum deficiency is 1.
    """
    labels: list[str] = []
    side: list[int] = []
    in_cover: list[bool] = []
    pos_set: set[tuple[int, int]] = set()
    for k, size in enumerate(sizes):
        base = len(labels)
        cover_side = rng.getrandbits(1)
        for j in range(size):
            labels.append(f"c{k + 1}_{j + 1}")
            if j == 0:
                side.append(0)
            else:
                parent = base + rng.randrange(j)
                side.append(side[parent] ^ 1)
                pos_set.add((parent, base + j))
            in_cover.append(side[-1] == cover_side)
        extra = round(COMPONENT_EXTRA_POS * size)
        while extra:
            u = base + rng.randrange(size)
            v = base + rng.randrange(size)
            key = (u, v) if u < v else (v, u)
            if side[u] == side[v] or key in pos_set:
                continue
            pos_set.add(key)
            extra -= 1
    for k in range(COMPONENT_LONERS):
        labels.append(f"x{k + 1}")
        in_cover.append(False)
    n = len(labels)
    target = round(COMPONENT_NEG_DEGREE * n / 2)
    neg_set: set[tuple[int, int]] = set()
    neg: list[tuple[int, int]] = []
    while len(neg) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (u, v) if u < v else (v, u)
        if u == v or (in_cover[u] and in_cover[v]) or key in neg_set:
            continue
        neg_set.add(key)
        neg.append(key)
    return Graph(tuple(labels), tuple(sorted(pos_set)), tuple(neg), expected=1)


def desk(n: int, rng: random.Random, edge_prob: float) -> Graph:
    """Random 3-chromatic signed graph on ``n`` <= 12 vertices with at least
    one positive edge; draws are repeated until the bench's own brute force
    finds chromatic number 3.  The answer comes from a brute-force search
    for a stable cover of the positive edges."""
    labels = tuple(f"v{i}" for i in range(1, n + 1))
    while True:
        pos: list[tuple[int, int]] = []
        neg: list[tuple[int, int]] = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() >= edge_prob:
                    continue
                if rng.random() < DESK_DOUBLE_PROB:
                    pos.append((u, v))
                    neg.append((u, v))
                elif rng.random() < DESK_NEG_PROB:
                    neg.append((u, v))
                else:
                    pos.append((u, v))
        if pos and brute_force_chi3(n, pos, neg):
            value = 1 if brute_force_cover(n, pos, neg) is not None else 0
            return Graph(labels, tuple(pos), tuple(neg), expected=value)
