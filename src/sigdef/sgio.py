"""The .sg text format, seeded graph generators, and DOT export.

An .sg file is line-oriented UTF-8:

    # anything after a hash is a comment
    v <label>              declare a vertex (optional; for isolated vertices)
    e <label> <label> <+|->   a signed edge

Labels are tokens free of whitespace and ``#``.  Declared (``v``) labels
are numbered first, in the order of their ``v`` lines, even when a ``v``
line follows edge lines; the other labels follow in order of first
appearance.
"""

from __future__ import annotations

import random
import warnings
from typing import Iterable, Sequence

from .core import SignedGraph, _from_sets, build_graph

__all__ = [
    "SgParseError",
    "parse_sg",
    "serialize_sg",
    "generate_matched",
    "generate_general",
    "export_dot",
]


class SgParseError(ValueError):
    """Malformed .sg input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_sg(text: str) -> SignedGraph:
    """Parse .sg text into a SignedGraph.

    Duplicate same-sign edges are collapsed with a single warning carrying
    the count; loops and malformed lines are rejected with line numbers.
    """
    index: dict[str, int] = {}
    pos: list[set[int]] = []
    neg: list[set[int]] = []
    by_sign = {"+": pos, "-": neg}
    head = -1  # labels numbered before the first edge line, once it is read
    late: list[str] = []  # labels declared by a v line after an edge line
    duplicates = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if len(parts) == 4 and parts[0] == "e":
            _, a, b, sign = parts
            target = by_sign.get(sign)
            if target is None or a == b:
                raise _line_error(line_no, raw, parts)
            if head < 0:
                head = len(pos)
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
            near = target[u]
            if v in near:
                duplicates += 1
            else:
                near.add(v)
                target[v].add(u)
        elif len(parts) == 2 and parts[0] == "v":
            label = parts[1]
            if head >= 0:
                late.append(label)
            if label not in index:
                index[label] = len(pos)
                pos.append(set())
                neg.append(set())
        else:
            raise _line_error(line_no, raw, parts)
    if late:
        index, pos, neg = _declared_first(index, pos, neg, head, late)
    if duplicates:
        warnings.warn(
            f"collapsed {duplicates} duplicate same-sign edge(s)", stacklevel=2
        )
    return _from_sets(index, pos, neg, index)


def _line_error(line_no: int, raw: str, parts: list[str]) -> SgParseError:
    """What is wrong with a non-blank line that is no valid v or e line."""
    if parts[0] == "v":
        return SgParseError(line_no, f"expected 'v <label>', got {raw!r}")
    if parts[0] != "e":
        return SgParseError(line_no, f"unknown directive {parts[0]!r}")
    if len(parts) != 4 or parts[3] not in ("+", "-"):
        return SgParseError(
            line_no, f"expected 'e <label> <label> <+|->', got {raw!r}"
        )
    return SgParseError(line_no, f"loop edge on {parts[1]!r} not allowed")


def _declared_first(
    index: dict[str, int],
    pos: list[set[int]],
    neg: list[set[int]],
    head: int,
    late: list[str],
) -> tuple[dict[str, int], list[set[int]], list[set[int]]]:
    """Renumber so that declared labels come first: the ``head`` labels
    numbered before the first edge line, then the ``late`` declarations,
    then every other label in order of first appearance."""
    labels = list(index)
    ranked = dict.fromkeys([*labels[:head], *late, *labels])
    new = {lab: i for i, lab in enumerate(ranked)}
    perm = [new[lab] for lab in labels]
    new_pos = [{perm[x] for x in pos[index[lab]]} for lab in new]
    new_neg = [{perm[x] for x in neg[index[lab]]} for lab in new]
    return new, new_pos, new_neg


def serialize_sg(g: SignedGraph) -> str:
    """Render a graph as .sg text; parsing it back reproduces the graph
    exactly, including label order."""
    lines = [f"# signed graph: {g.n} vertices, "
             f"{g.positive_edge_count} positive / {g.negative_edge_count} negative edges"]
    for lab in g.labels:
        if not lab or "#" in lab or any(ch.isspace() for ch in lab):
            raise ValueError(f"label {lab!r} cannot be written to .sg text")
        lines.append(f"v {lab}")
    for u, v in g.positive_edges():
        lines.append(f"e {g.labels[u]} {g.labels[v]} +")
    for u, v in g.negative_edges():
        lines.append(f"e {g.labels[u]} {g.labels[v]} -")
    return "\n".join(lines) + "\n"


def generate_matched(
    pairs: int,
    neg_prob: float,
    seed: int,
    *,
    negative_edges: Sequence[tuple[str, str]] | None = None,
) -> SignedGraph:
    """Random matched-form graph: a positive perfect matching a_i--b_i plus
    independent cross-pair negative edges.

    Vertex order is a1, b1, a2, b2, ...; every unordered cross-pair slot is
    sampled once in ascending id order, so a seed fixes the graph exactly.
    ``negative_edges`` overrides sampling with an explicit list.
    """
    if pairs < 1:
        raise ValueError("need at least one matched pair")
    if not 0.0 <= neg_prob <= 1.0:
        raise ValueError("neg_prob must lie in [0, 1]")
    names: list[str] = []
    for i in range(1, pairs + 1):
        names.extend((f"a{i}", f"b{i}"))
    edges: list[tuple[str, str, str]] = [
        (f"a{i}", f"b{i}", "+") for i in range(1, pairs + 1)
    ]
    if negative_edges is not None:
        edges.extend((a, b, "-") for a, b in negative_edges)
    else:
        rng = random.Random(seed)
        n = 2 * pairs
        for u in range(n):
            for v in range(u + 1, n):
                if u >> 1 == v >> 1:
                    continue
                if rng.random() < neg_prob:
                    edges.append((names[u], names[v], "-"))
    return build_graph(edges, vertices=names)


def generate_general(
    vertices: int,
    edge_prob: float,
    neg_prob: float,
    seed: int,
    *,
    double_prob: float = 0.0,
) -> SignedGraph:
    """Random signed graph on labeled vertices v1..vn.

    Each unordered pair gets an edge with probability ``edge_prob``; an edge
    is negative with probability ``neg_prob``, and with ``double_prob`` it
    carries both signs at once.  Sampling order is fixed (pairs ascending,
    three draws per pair), so a seed fixes the graph.
    """
    if vertices < 0:
        raise ValueError("vertex count must be non-negative")
    for name, p in (("edge_prob", edge_prob), ("neg_prob", neg_prob),
                    ("double_prob", double_prob)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(1, vertices + 1)]
    edges: list[tuple[str, str, str]] = []
    for u in range(vertices):
        for v in range(u + 1, vertices):
            has_edge = rng.random() < edge_prob
            both = rng.random() < double_prob
            negative = rng.random() < neg_prob
            if not has_edge:
                continue
            if both:
                edges.append((names[u], names[v], "+"))
                edges.append((names[u], names[v], "-"))
            else:
                edges.append((names[u], names[v], "-" if negative else "+"))
    return build_graph(edges, vertices=names)


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: SignedGraph, highlight: Iterable[int] = ()) -> str:
    """DOT text: positive edges solid, negative edges dashed, highlighted
    vertices drawn as boxes."""
    boxed = set(highlight)
    for v in boxed:
        if not 0 <= v < g.n:
            raise ValueError(f"unknown vertex id {v} in highlight set")
    lines = ["graph signed {"]
    if g.n:
        lines.append("  node [shape=circle];")
    for v in range(g.n):
        shape = " [shape=box]" if v in boxed else ""
        lines.append(f"  {_dot_quote(g.labels[v])}{shape};")
    for u, v in g.positive_edges():
        lines.append(f"  {_dot_quote(g.labels[u])} -- {_dot_quote(g.labels[v])};")
    for u, v in g.negative_edges():
        lines.append(
            f"  {_dot_quote(g.labels[u])} -- {_dot_quote(g.labels[v])} [style=dashed];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
