"""The .sg text format, seeded graph generators, and DOT export.

An .sg file is line-oriented UTF-8:

    # anything after a hash is a comment
    v <label>              declare a vertex (optional; for isolated vertices)
    e <label> <label> <+|->   a signed edge

Labels are whitespace-free tokens and gain ids in order of first appearance.
"""

from __future__ import annotations

import random
import warnings
from typing import Iterable, Sequence

from .core import SignedGraph, build_graph

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
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 2:
                raise SgParseError(line_no, f"expected 'v <label>', got {raw!r}")
            vertices.append(parts[1])
        elif parts[0] == "e":
            if len(parts) != 4 or parts[3] not in ("+", "-"):
                raise SgParseError(
                    line_no, f"expected 'e <label> <label> <+|->', got {raw!r}"
                )
            _, a, b, sign = parts
            if a == b:
                raise SgParseError(line_no, f"loop edge on {a!r} not allowed")
            edges.append((a, b, sign))
        else:
            raise SgParseError(line_no, f"unknown directive {parts[0]!r}")
    g = build_graph(edges, vertices=vertices)
    duplicates = len(edges) - (g.positive_edge_count + g.negative_edge_count)
    if duplicates:
        warnings.warn(
            f"collapsed {duplicates} duplicate same-sign edge(s)", stacklevel=2
        )
    return g


def serialize_sg(g: SignedGraph) -> str:
    """Render a graph as .sg text; parsing it back reproduces the graph
    exactly, including label order."""
    lines = [f"# signed graph: {g.n} vertices, "
             f"{g.positive_edge_count} positive / {g.negative_edge_count} negative edges"]
    for lab in g.labels:
        if not lab or any(ch.isspace() for ch in lab):
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
