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


def _check(ok: bool, message: str) -> None:
    """Internal-defect check; unlike ``assert`` it survives ``python -O``."""
    if not ok:
        raise AssertionError(message)


def _as_sign(raw) -> int:
    try:
        return _SIGN_VALUES[raw]
    except (KeyError, TypeError):
        raise ValueError(f"edge sign must be '+', '-', 1 or -1, got {raw!r}") from None


class SignedGraph:
    """Vertex-labeled signed graph stored as paired adjacency lists.

    Vertices are dense integer ids 0..n-1; ``labels[v]`` is the external
    name of vertex ``v``.  ``pos_adj[v]`` / ``neg_adj[v]`` are sorted tuples
    of the vertices positively / negatively adjacent to ``v``.  ``_index``
    maps each label to its id and is built from ``labels`` when not given.
    Instances are immutable (assigning an attribute raises AttributeError)
    and safe to share across threads.  Equality and hashing read
    ``labels``, ``pos_adj`` and ``neg_adj`` only.
    """

    __slots__ = ("labels", "pos_adj", "neg_adj", "_index")

    def __init__(
        self,
        labels: tuple[str, ...],
        pos_adj: tuple[tuple[int, ...], ...],
        neg_adj: tuple[tuple[int, ...], ...],
        _index: Mapping[str, int] | None = None,
    ):
        if _index is None:
            _index = {lab: i for i, lab in enumerate(labels)}
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "pos_adj", pos_adj)
        object.__setattr__(self, "neg_adj", neg_adj)
        object.__setattr__(self, "_index", _index)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.pos_adj, self.neg_adj) == (
            other.labels, other.pos_adj, other.neg_adj
        )

    def __hash__(self):
        return hash((self.labels, self.pos_adj, self.neg_adj))

    def __reduce__(self):
        # pickle and copy rebuild through __init__: the default restore of
        # slots would assign through __setattr__, which refuses
        return SignedGraph, (self.labels, self.pos_adj, self.neg_adj, self._index)

    def __repr__(self):
        return (
            f"SignedGraph(labels={self.labels!r}, pos_adj={self.pos_adj!r}, "
            f"neg_adj={self.neg_adj!r})"
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


def _from_sets(
    labels: Iterable[str],
    pos: list[set[int]],
    neg: list[set[int]],
    index: Mapping[str, int],
) -> SignedGraph:
    """The graph whose vertex v has neighbour sets ``pos[v]`` / ``neg[v]``;
    ``index`` must map ``labels`` to their positions and becomes the
    graph's label index, so it is not rebuilt."""
    return SignedGraph(
        labels=tuple(labels),
        pos_adj=tuple([tuple(sorted(s) if len(s) > 1 else s) for s in pos]),
        neg_adj=tuple([tuple(sorted(s) if len(s) > 1 else s) for s in neg]),
        _index=index,
    )


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
    for lab in vertices:
        index.setdefault(lab, len(index))
    pos: list[set[int]] = [set() for _ in index]
    neg: list[set[int]] = [set() for _ in index]
    for a, b, raw_sign in named_edges:
        target = pos if _as_sign(raw_sign) > 0 else neg
        if a == b:
            raise ValueError(f"loop edge not allowed: ({a!r}, {a!r})")
        u = index.get(a)
        if u is None:
            u = index[a] = len(pos)
            pos.append(set())
            neg.append(set())
        v = index.get(b)
        if v is None:
            v = index[b] = len(pos)
            pos.append(set())
            neg.append(set())
        target[u].add(v)
        target[v].add(u)
    return _from_sets(index, pos, neg, index)


class Coloration:
    """Vertex colors over an explicitly declared color set.

    The declared set is {±1, ..., ±k}, plus 0 when ``uses_zero``.  Deficiency
    is counted against the declared set, which therefore must be stored with
    the colors rather than inferred from them.  ``colors[v]`` is the color of
    vertex id ``v``.  Instances are immutable, and equal when all three
    fields are.
    """

    __slots__ = ("colors", "k", "uses_zero")

    def __init__(self, colors: tuple[int, ...], k: int, uses_zero: bool = False):
        if k < 0:
            raise ValueError("color scale k must be non-negative")
        for v, c in enumerate(colors):
            if abs(c) > k:
                raise ValueError(f"color {c} at vertex {v} outside |c| <= {k}")
            if c == 0 and not uses_zero:
                raise ValueError(f"vertex {v} colored 0 but the color set excludes 0")
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "uses_zero", uses_zero)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.colors, self.k, self.uses_zero) == (
            other.colors, other.k, other.uses_zero
        )

    def __hash__(self):
        return hash((self.colors, self.k, self.uses_zero))

    def __reduce__(self):
        return Coloration, (self.colors, self.k, self.uses_zero)

    def __repr__(self):
        return (
            f"Coloration(colors={self.colors!r}, k={self.k!r}, "
            f"uses_zero={self.uses_zero!r})"
        )

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
    n = g.n
    for v in out:
        if not 0 <= v < n:
            raise ValueError(f"unknown vertex id {v} (graph has {n} vertices)")
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
    return _from_sets(g.labels, pos, neg, g._index)


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
    with ``oracle.chromatic_number``, which decides chi <= 2 at any size).
    A positive edge pins both extremes to zero; an all-negative graph has
    maximum deficiency 1, with minimum 1 or 0 according to whether it is
    connected.
    """
    if g.positive_edge_count > 0:
        return TwoChromaticCase.M0m0
    if _is_connected(g):
        return TwoChromaticCase.M1m1
    return TwoChromaticCase.M1m0


def is_stable(g: SignedGraph, A: Iterable[int]) -> bool:
    """True iff the subgraph induced by ``A`` contains no edge of either sign."""
    inside = _check_vertex_ids(g, A)
    pos_adj, neg_adj = g.pos_adj, g.neg_adj
    return all(
        inside.isdisjoint(pos_adj[v]) and inside.isdisjoint(neg_adj[v])
        for v in inside
    )


def covers_positive(g: SignedGraph, A: Iterable[int]) -> bool:
    """True iff every positive edge of g has at least one endpoint in ``A``."""
    inside = _check_vertex_ids(g, A)
    pos_adj = g.pos_adj
    # an edge is uncovered only if both its ends lie outside A
    return all(
        inside.issuperset(pos_adj[v]) for v in range(g.n) if v not in inside
    )


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
