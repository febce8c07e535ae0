"""Independent answer checks, written without any call into ``sigdef``.

The benchmark reads every input back with its own ``.sg`` reader and judges
each CLI report against it:

- a value-1 ``maxdef`` answer must carry a cover that is stable and covers
  every positive edge of the input;
- the 0/1 value must equal the expected answer: fixed by construction
  (planted covers), by a 2-SAT reference (Aspvall, Plass and Tarjan 1979,
  on Tarjan's 1972 strongly connected components), or on desk-size graphs
  by brute force;
- a ``deficiency`` report must give chromatic number 3, a ``max`` equal to
  the expected maximum deficiency, and proper witnesses whose unused-color
  counts match.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Parsed:
    """An ``.sg`` input as the bench reads it: labels in first-appearance
    order and the edges as id pairs."""

    labels: tuple[str, ...]
    pos: tuple[tuple[int, int], ...]
    neg: tuple[tuple[int, int], ...]


def read_sg(text: str) -> Parsed:
    index: dict[str, int] = {}

    def vid(label: str) -> int:
        return index.setdefault(label, len(index))

    pos: set[tuple[int, int]] = set()
    neg: set[tuple[int, int]] = set()
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "v" and len(parts) == 2:
            vid(parts[1])
        elif parts[0] == "e" and len(parts) == 4 and parts[3] in ("+", "-"):
            u, v = vid(parts[1]), vid(parts[2])
            (pos if parts[3] == "+" else neg).add((min(u, v), max(u, v)))
        else:
            raise ValueError(f"bench reader: bad line {raw!r}")
    return Parsed(tuple(index), tuple(sorted(pos)), tuple(sorted(neg)))


def is_stable_cover(g: Parsed, cover: list[str]) -> bool:
    """True iff ``cover`` names vertices of ``g``, no edge of either sign
    lies inside it, and every positive edge has an endpoint in it."""
    index = {lab: i for i, lab in enumerate(g.labels)}
    if not all(lab in index for lab in cover):
        return False
    inside = {index[lab] for lab in cover}
    if any(u in inside and v in inside for u, v in g.pos + g.neg):
        return False
    return all(u in inside or v in inside for u, v in g.pos)


def _scc_ids(adj: list[list[int]]) -> list[int]:
    """Strongly connected component id of every node (iterative Tarjan)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]
        while work:
            v, i = work[-1]
            if i < len(adj[v]):
                work[-1] = (v, i + 1)
                w = adj[v][i]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp


def two_sat_value(g: Parsed) -> int:
    """Maximum deficiency by the 2-SAT view: 1 iff a stable cover of the
    positive edges exists.

    Each positive component is 2-coloured (an odd one means no cover).  The
    component's variable says which side joins the cover, a negative edge
    u~w forbids both endpoints in the cover, and the formula is satisfiable
    iff no literal shares a strongly connected component with its negation.
    """
    n = len(g.labels)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.pos:
        adj[u].append(v)
        adj[v].append(u)
    comp = [-1] * n
    side = [0] * n
    ncomp = 0
    for root in range(n):
        if comp[root] != -1 or not adj[root]:
            continue
        comp[root] = ncomp
        todo = [root]
        while todo:
            u = todo.pop()
            for w in adj[u]:
                if comp[w] == -1:
                    comp[w] = ncomp
                    side[w] = side[u] ^ 1
                    todo.append(w)
                elif side[w] == side[u]:
                    return 0
        ncomp += 1
    # literal 2c+s: "side s of component c is in the cover"; negation is ^1
    implications: list[list[int]] = [[] for _ in range(2 * ncomp)]
    for u, w in g.neg:
        if comp[u] == -1 or comp[w] == -1:
            continue
        a, b = 2 * comp[u] + side[u], 2 * comp[w] + side[w]
        implications[a].append(b ^ 1)
        implications[b].append(a ^ 1)
    scc = _scc_ids(implications)
    return 0 if any(scc[2 * c] == scc[2 * c + 1] for c in range(ncomp)) else 1


def _masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def brute_force_cover(n: int, pos, neg) -> int | None:
    """Smallest bitmask of a stable cover of the positive edges, or None."""
    adj = [p | q for p, q in zip(_masks(n, pos), _masks(n, neg))]
    for mask in range(1 << n):
        if any(mask >> v & 1 and adj[v] & mask for v in range(n)):
            continue
        if all(mask >> u & 1 or mask >> v & 1 for u, v in pos):
            return mask
    return None


def _colorable(n: int, pos, neg, colors: tuple[int, ...]) -> bool:
    pos_adj, neg_adj = _masks(n, pos), _masks(n, neg)
    assign = [0] * n

    def fits(v: int, c: int) -> bool:
        for u in range(v):
            if pos_adj[v] >> u & 1 and assign[u] == c:
                return False
            if neg_adj[v] >> u & 1 and assign[u] == -c:
                return False
        return True

    def extend(v: int) -> bool:
        if v == n:
            return True
        for c in colors:
            if fits(v, c):
                assign[v] = c
                if extend(v + 1):
                    return True
        return False

    return extend(0)


def brute_force_chi3(n: int, pos, neg) -> bool:
    """True iff the signed graph has chromatic number exactly 3: it has an
    edge (so {0} fails), no proper coloring over {1, -1}, and one over
    {0, 1, -1}."""
    if not (pos or neg):
        return False
    return not _colorable(n, pos, neg, (1, -1)) and _colorable(n, pos, neg, (0, 1, -1))


def _witness_ok(g: Parsed, witness: dict, deficiency: int) -> bool:
    colors = witness["colors"]
    if sorted(colors) != sorted(g.labels) or witness["k"] != 1:
        return False
    c = [colors[lab] for lab in g.labels]
    if any(x not in (-1, 0, 1) for x in c):
        return False
    if any(c[u] == c[v] for u, v in g.pos) or any(c[u] == -c[v] for u, v in g.neg):
        return False
    unused = sorted({-1, 0, 1} - set(c))
    return (witness["unused"] == unused and len(unused) == deficiency
            and witness["deficiency"] == deficiency and witness["uses_zero"] is True)


def verdict(command: str, g: Parsed, expected: int, code: int, stdout: str) -> str | None:
    """None when the CLI's answer is right, else the reason it is wrong."""
    if code != 0:
        return f"exit code {code}"
    try:
        result = json.loads(stdout)["result"]
        return _judge_result(command, g, expected, result)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed report ({type(exc).__name__}: {exc})"


def _judge_result(command: str, g: Parsed, expected: int, result: dict) -> str | None:
    if command == "maxdef":
        value, cover = result["value"], result["cover"]
        if value != expected:
            return f"value {value}, expected {expected}"
        if value == 1 and not (isinstance(cover, list) and is_stable_cover(g, cover)):
            return "cover is not a stable cover of the positive edges"
        if value == 0 and cover is not None:
            return "value 0 with a cover"
        return None
    if command == "deficiency":
        lo, hi = result["min"], result["max"]
        if result["chi"] != 3:
            return f"chi {result['chi']}, expected 3"
        if hi != expected:
            return f"max {hi}, expected {expected}"
        if result["range"] != list(range(lo, hi + 1)):
            return "range does not span min..max"
        if not (_witness_ok(g, result["witness_max"], hi)
                and _witness_ok(g, result["witness_min"], lo)):
            return "witness coloration is improper or miscounted"
        return None
    return f"no check for command {command!r}"
