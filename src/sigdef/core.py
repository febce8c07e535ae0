"""Signed graphs, proper colorations, deficiency accounting, and switching.

A signed graph carries a sign (+ or -) on every edge.  A proper coloration
assigns every vertex an integer color from an explicitly declared, symmetric
color set so that the endpoints of a positive edge receive different colors
and the endpoints of a negative edge do not receive opposite colors.  The
deficiency of a coloration is the number of declared colors no vertex uses.

Graphs here are loop-free.  A vertex pair may carry one positive and one
negative edge at the same time (such pairs are meaningful: they force a third
color); duplicate edges of equal sign are collapsed at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping

__all__ = [
    "SignedGraph",
    "Coloration",
    "TwoChromaticCase",
    "build_graph",
    "is_proper",
    "deficiency",
    "switch",
    "switch_coloration",
    "classify_two_chromatic",
    "coloration_from_cover",
    "is_stable",
    "covers_positive",
]

_SIGN_VALUES = {"+": 1, "-": -1, 1: 1, -1: -1}


def _as_sign(raw) -> int:
    try:
        return _SIGN_VALUES[raw]
    except (KeyError, TypeError):
        raise ValueError(f"edge sign must be '+', '-', 1 or -1, got {raw!r}") from None


@dataclass(frozen=True)
class SignedGraph:
    """Vertex-labeled signed graph stored as paired adjacency lists.

    Vertices are dense integer ids 0..n-1; ``labels[v]`` is the external
    name of vertex ``v``.  ``pos_adj[v]`` / ``neg_adj[v]`` are sorted tuples
    of the vertices positively / negatively adjacent to ``v``.  Instances
    are immutable and safe to share across threads.
    """

    labels: tuple[str, ...]
    pos_adj: tuple[tuple[int, ...], ...]
    neg_adj: tuple[tuple[int, ...], ...]
    _index: Mapping[str, int] = field(
        default=None, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if self._index is None:
            object.__setattr__(
                self, "_index", {lab: i for i, lab in enumerate(self.labels)}
            )

    @property
    def n(self) -> int:
        return len(self.labels)

    def id_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown vertex label {label!r}") from None

    def ids_of(self, labels: Iterable[str]) -> frozenset[int]:
        return frozenset(self.id_of(lab) for lab in labels)

    def labels_of(self, ids: Iterable[int]) -> tuple[str, ...]:
        """Labels for the given ids, sorted by vertex id."""
        return tuple(self.labels[v] for v in sorted(set(ids)))

    def positive_edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.pos_adj[u]:
                if v > u:
                    yield (u, v)

    def negative_edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.neg_adj[u]:
                if v > u:
                    yield (u, v)

    def signed_edges(self) -> Iterator[tuple[int, int, int]]:
        """All edges as (u, v, sign) with u < v."""
        for u, v in self.positive_edges():
            yield (u, v, 1)
        for u, v in self.negative_edges():
            yield (u, v, -1)

    @property
    def positive_edge_count(self) -> int:
        return sum(len(a) for a in self.pos_adj) // 2

    @property
    def negative_edge_count(self) -> int:
        return sum(len(a) for a in self.neg_adj) // 2

    def has_opposite_pair(self) -> bool:
        """True if some vertex pair carries both a positive and a negative edge."""
        for u in range(self.n):
            neg = set(self.neg_adj[u])
            if any(v in neg for v in self.pos_adj[u]):
                return True
        return False


def build_graph(
    named_edges: Iterable[tuple[str, str, int | str]],
    vertices: Iterable[str] = (),
) -> SignedGraph:
    """Build a SignedGraph from (label, label, sign) triples.

    Labels receive dense ids in first-appearance order; ``vertices`` lists
    labels that must exist even when isolated (they are numbered first).
    Duplicate edges of equal sign collapse to one edge.  Loop edges are
    rejected.
    """
    index: dict[str, int] = {}
    order: list[str] = []

    def vid(label: str) -> int:
        if label not in index:
            index[label] = len(order)
            order.append(label)
        return index[label]

    for lab in vertices:
        vid(lab)

    pos: list[set[int]] = [set() for _ in order]
    neg: list[set[int]] = [set() for _ in order]
    for a, b, raw_sign in named_edges:
        sign = _as_sign(raw_sign)
        if a == b:
            raise ValueError(f"loop edge not allowed: ({a!r}, {a!r})")
        u, v = vid(a), vid(b)
        while len(pos) < len(order):
            pos.append(set())
            neg.append(set())
        target = pos if sign > 0 else neg
        target[u].add(v)
        target[v].add(u)

    return SignedGraph(
        labels=tuple(order),
        pos_adj=tuple(tuple(sorted(s)) for s in pos),
        neg_adj=tuple(tuple(sorted(s)) for s in neg),
    )


@dataclass(frozen=True)
class Coloration:
    """Vertex colors over an explicitly declared color set.

    The declared set is {±1, ..., ±k}, plus 0 when ``uses_zero``.  Deficiency
    is counted against the declared set, which therefore must be stored with
    the colors rather than inferred from them.  ``colors[v]`` is the color of
    vertex id ``v``.
    """

    colors: tuple[int, ...]
    k: int
    uses_zero: bool = False

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("color scale k must be non-negative")
        for v, c in enumerate(self.colors):
            if abs(c) > self.k:
                raise ValueError(f"color {c} at vertex {v} outside |c| <= {self.k}")
            if c == 0 and not self.uses_zero:
                raise ValueError(f"vertex {v} colored 0 but the color set excludes 0")

    @property
    def size(self) -> int:
        """Number of colors in the declared set."""
        return 2 * self.k + (1 if self.uses_zero else 0)

    @property
    def color_set(self) -> frozenset[int]:
        colors = set(range(-self.k, 0)) | set(range(1, self.k + 1))
        if self.uses_zero:
            colors.add(0)
        return frozenset(colors)

    def used(self) -> frozenset[int]:
        return frozenset(self.colors)

    @classmethod
    def from_labels(
        cls,
        g: SignedGraph,
        mapping: Mapping[str, int],
        k: int,
        uses_zero: bool = False,
    ) -> "Coloration":
        """Coloration from a label->color mapping covering every vertex of g."""
        missing = [lab for lab in g.labels if lab not in mapping]
        if missing:
            raise ValueError(f"coloration missing vertices: {missing}")
        return cls(tuple(mapping[lab] for lab in g.labels), k, uses_zero)


def deficiency(kappa: Coloration) -> tuple[int, frozenset[int]]:
    """Unused-color count and the set of unused colors of ``kappa``."""
    unused = kappa.color_set - kappa.used()
    return len(unused), unused


def is_proper(g: SignedGraph, kappa: Coloration) -> bool:
    """True iff every positive edge has differing endpoint colors and no
    negative edge has opposite endpoint colors."""
    if len(kappa.colors) != g.n:
        raise ValueError(
            f"coloration covers {len(kappa.colors)} vertices, graph has {g.n}"
        )
    colors = kappa.colors
    for u, v in g.positive_edges():
        if colors[u] == colors[v]:
            return False
    for u, v in g.negative_edges():
        if colors[u] == -colors[v]:
            return False
    return True


def _check_vertex_ids(g: SignedGraph, ids: Iterable[int]) -> frozenset[int]:
    out = frozenset(ids)
    for v in out:
        if not 0 <= v < g.n:
            raise ValueError(f"unknown vertex id {v} (graph has {g.n} vertices)")
    return out


def switch(g: SignedGraph, A: Iterable[int]) -> SignedGraph:
    """Negate the sign of every edge with exactly one endpoint in ``A``.

    Edges inside A and edges disjoint from A are unchanged.  Should a sign
    flip ever duplicate an existing same-sign edge, the duplicate collapses.
    """
    inside = _check_vertex_ids(g, A)
    pos: list[set[int]] = [set() for _ in range(g.n)]
    neg: list[set[int]] = [set() for _ in range(g.n)]
    for u, v, sign in g.signed_edges():
        if (u in inside) != (v in inside):
            sign = -sign
        target = pos if sign > 0 else neg
        target[u].add(v)
        target[v].add(u)
    return SignedGraph(
        labels=g.labels,
        pos_adj=tuple(tuple(sorted(s)) for s in pos),
        neg_adj=tuple(tuple(sorted(s)) for s in neg),
    )


def switch_coloration(kappa: Coloration, A: Iterable[int]) -> Coloration:
    """Negate the colors on ``A``; scale and zero-usage are preserved.

    Properness travels with switching: kappa is proper on g exactly when
    the switched coloration is proper on the switched graph.
    """
    inside = set(A)
    for v in inside:
        if not 0 <= v < len(kappa.colors):
            raise ValueError(f"unknown vertex id {v} in switch set")
    colors = tuple(
        -c if v in inside else c for v, c in enumerate(kappa.colors)
    )
    return Coloration(colors, kappa.k, kappa.uses_zero)


class TwoChromaticCase(Enum):
    """Deficiency classification of a 2-chromatic signed graph."""

    M1m1 = (1, 1)
    M0m0 = (0, 0)
    M1m0 = (1, 0)

    @property
    def max_deficiency(self) -> int:
        return self.value[0]

    @property
    def min_deficiency(self) -> int:
        return self.value[1]


def _is_connected(g: SignedGraph) -> bool:
    if g.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.pos_adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
        for v in g.neg_adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def classify_two_chromatic(g: SignedGraph) -> TwoChromaticCase:
    """Closed-form deficiency classification of a 2-chromatic signed graph.

    The caller is responsible for the 2-chromatic precondition (check it
    with the oracle at desk scale).  A positive edge pins both extremes to
    zero; an all-negative graph has maximum deficiency 1, with minimum 1 or
    0 according to whether it is connected.
    """
    if g.positive_edge_count > 0:
        return TwoChromaticCase.M0m0
    if _is_connected(g):
        return TwoChromaticCase.M1m1
    return TwoChromaticCase.M1m0


def is_stable(g: SignedGraph, A: Iterable[int]) -> bool:
    """True iff the subgraph induced by ``A`` contains no edge of either sign."""
    inside = _check_vertex_ids(g, A)
    for v in inside:
        if any(u in inside for u in g.pos_adj[v]):
            return False
        if any(u in inside for u in g.neg_adj[v]):
            return False
    return True


def covers_positive(g: SignedGraph, A: Iterable[int]) -> bool:
    """True iff every positive edge of g has at least one endpoint in ``A``."""
    inside = _check_vertex_ids(g, A)
    return all(u in inside or v in inside for u, v in g.positive_edges())


def coloration_from_cover(g: SignedGraph, cover: Iterable[int]) -> Coloration:
    """Two-color coloration witnessing maximum deficiency 1.

    ``cover`` must be stable in g and must cover every positive edge; the
    result colors the cover 0 and everything else 1, is proper, and leaves
    -1 unused.
    """
    inside = _check_vertex_ids(g, cover)
    if not is_stable(g, inside):
        raise ValueError("cover is not stable: an edge has both ends inside it")
    if not covers_positive(g, inside):
        raise ValueError("a positive edge is uncovered by the cover")
    colors = tuple(0 if v in inside else 1 for v in range(g.n))
    return Coloration(colors, k=1, uses_zero=True)
