"""Independently coded ground truth for signed graphs.

Everything here answers by enumeration or by proof: chromatic number 0, 1
or 2 by a linear-time parity test at any size, a larger one by trying
canonical color sets of growing size, deficiency ranges by a backtracking
walk over the proper colorations of the minimal set, stable covers of the
positive edges by a linear-time 2-SAT search at any size, and switching
ranges by trying every switching.  The enumerations refuse inputs above
their size bounds rather than answer approximately.

The chromatic number and the deficiency ranges share one search,
``_first_colorations``, and one loop over color-set sizes, which starts at
the parity test's answer, or at 3 when the test fails; a deficiency report
walks each size once.  The search colors vertices in ascending order and
tries colors in canonical scan order, forward checking as it goes: each
vertex keeps a bitmask domain of the colors its colored neighbors still
allow, and a choice that empties some domain is not entered.  Such a
subtree holds no proper coloration, so the colorations met, and their
order, are those of the plain walk.  The search ends at a stop count of
recorded deficiencies and cuts three kinds of subtree: those in which each
deficiency still reachable has already been seen; those that add a color
when only the largest reachable one is new, since a coloration that adds
a color has a smaller deficiency, and each of those has been seen; and
those that bring in a new magnitude other than the lowest unused one, or
bring it in with its negative color first, since renaming magnitudes and
negating one maps such a coloration to an earlier one of the same
deficiency.  No cut removes the first coloration of a new value, so each
reported witness is the one the plain walk meets first.  The tests hold
the search against a plain-backtracking reference that shares none of its
code.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .core import (
    Coloration,
    SignedGraph,
    _check,
    covers_positive,
    deficiency,
    is_proper,
    is_stable,
    switch,
    switch_coloration,
)

__all__ = [
    "DEFAULT_EXHAUSTIVE_BOUND",
    "DEFAULT_SWITCHING_BOUND",
    "BoundExceededError",
    "NotThreeChromaticError",
    "DeficiencyReport",
    "SwitchingReport",
    "chromatic_number",
    "deficiency_report",
    "stable_positive_cover",
    "max_deficiency_3chromatic",
    "switching_report",
    "achieve_switching_deficiency",
    "recolor_lone_negative",
]

DEFAULT_EXHAUSTIVE_BOUND = 12
DEFAULT_SWITCHING_BOUND = 10


class BoundExceededError(RuntimeError):
    """The instance is too large for exhaustive search; refuse, never guess."""


class NotThreeChromaticError(ValueError):
    """Raised when an operation restricted to 3-chromatic graphs gets
    something else; carries the actual chromatic number."""

    def __init__(self, chi: int):
        super().__init__(f"graph is {chi}-chromatic, not 3-chromatic")
        self.chi = chi


def canonical_color_order(size: int) -> tuple[int, ...]:
    """Colors of the canonical set of the given size, in scan order.

    The canonical set of size 2k is {±1, ..., ±k}; of size 2k+1 it also
    contains 0.  Scan order is 0, 1, -1, 2, -2, ... so that enumeration,
    and hence every reported witness, is deterministic.
    """
    k = size // 2
    order = [0] if size % 2 else []
    for i in range(1, k + 1):
        order.extend((i, -i))
    return tuple(order)


def _later_neighbors(g: SignedGraph) -> list[list[tuple[int, int]]]:
    """For each vertex v, its neighbors with higher ids, as (u, 0) across a
    positive and (u, 1) across a negative edge: the vertices whose domains
    coloring v narrows.  Built once per entry point and shared by every
    color-set size it tries."""
    return [
        [(u, 0) for u in g.pos_adj[v] if u > v]
        + [(u, 1) for u in g.neg_adj[v] if u > v]
        for v in range(g.n)
    ]


def _first_colorations(
    later: list[list[tuple[int, int]]],
    size: int,
    stop: int,
) -> dict[int, tuple[int, ...]]:
    """First proper coloration of each deficiency over the canonical set of
    ``size`` colors, in the walk order of vertices ascending and colors in
    canonical scan order, for the graph whose later neighbors are
    ``later`` (see ``_later_neighbors``).

    Each vertex keeps a domain: a bitmask over the indices of
    ``canonical_color_order(size)`` of the colors still allowed to it.
    Coloring v with c removes c from the domains of v's later positive
    neighbors and -c from those of its later negative neighbors; each
    changed domain is saved and restored on backtrack.  A child that leaves
    some later vertex no color to choose is not entered: its subtree holds
    no leaf the walk would record, so the leaves visited, and their order,
    are those of the walk without domains.

    The walk ends once ``stop`` deficiencies are recorded, and it prunes
    by what is still reachable: with u colors used and r vertices left, a
    coloration below has deficiency between lo = max(0, size - u - r) and
    hi = size - u.
    When every value in that range is recorded, the subtree is skipped.
    When hi is the only one not recorded, the subtree is limited to the
    colors already used, and ends at once if some remaining vertex has no
    used color left in its domain: a leaf below that uses a new color has
    deficiency below hi, and every such value is recorded.

    A third cut breaks the symmetry of the colors.  Renaming the
    magnitudes, or negating one magnitude (c <-> -c), maps a proper
    coloration to a proper one with the same deficiency.  Normalize a
    coloration by such a map so that its magnitudes first appear in the
    order 1, 2, ... and each first appears positive: at the first vertex
    where the two differ the original brings in a new magnitude, and the
    normal form gives it the lowest unused +m, which comes earlier in scan
    order.  So the first coloration of each deficiency is in normal form,
    and vertex v may take only a color already used, 0, the partner -c of
    a used +c, or +m for the lowest magnitude m not yet used.  Each
    prefix walked is then in normal form, so that m is the lowest one
    whose +m is unused.  No cut removes the first coloration of an
    unrecorded value, so the result equals the plain walk's.
    """
    n = len(later)
    order = canonical_color_order(size)
    flip = [order.index(-c) for c in order]  # index of -c for the index of c
    full = (1 << size) - 1
    plus = sum(1 << i for i, c in enumerate(order) if c > 0)
    zero = size & 1  # the bit of color 0, first in scan order when present
    dom = [full] * n
    assign = [0] * n
    found: dict[int, tuple[int, ...]] = {}
    seen = 0  # bit d is set once deficiency d is recorded

    def extend(v: int, used: int, allowed: int) -> bool:
        """Color vertices v.. given the mask ``used`` of the colors on
        0..v-1, choosing only colors in ``allowed``; True ends the whole
        walk."""
        nonlocal seen
        if v == n:
            d = size - used.bit_count()
            if seen >> d & 1:
                return False
            found[d] = tuple(assign)
            seen |= 1 << d
            return len(found) == stop
        if seen:
            hi = size - used.bit_count()
            lo = hi - n + v
            if lo < 0:
                lo = 0
            unseen = ((2 << hi) - (1 << lo)) & ~seen
            if not unseen:
                return False
            if unseen == 1 << hi and allowed != used:
                allowed = used
                for u in range(v, n):
                    if not dom[u] & used:
                        return False
        fresh = plus & ~used
        open_ = used | zero | (used & plus) << 1 | (fresh & -fresh)
        trail: list[int] = []
        choices = dom[v] & allowed & open_
        while choices:
            bit = choices & -choices
            choices ^= bit
            i = bit.bit_length() - 1
            removes = (bit, 1 << flip[i])  # from positive, negative neighbors
            alive = True
            for u, negative in later[v]:
                d = dom[u]
                b = removes[negative]
                if d & b:
                    trail += (u, d)
                    d ^= b
                    dom[u] = d
                    if not d & allowed:
                        alive = False
                        break
            if alive:
                assign[v] = order[i]
                if extend(v + 1, used | bit, allowed):
                    return True
            while trail:
                d = trail.pop()
                dom[trail.pop()] = d
        return False

    extend(0, 0, full)
    return found


def _parity_chromatic_number(g: SignedGraph) -> int | None:
    """The chromatic number when it is at most 2, else None, in linear time.

    0 for the vertexless graph and 1 when there are vertices but no edge:
    the one-color set {0} colors exactly the edgeless graphs.  Over {+-1}
    a positive edge needs different ends and a negative edge equal ends,
    so chi <= 2 exactly when these parity constraints are consistent, which
    a breadth-first search decides: 2 then, and None when they conflict.
    """
    if g.n == 0:
        return 0
    if not any(g.pos_adj) and not any(g.neg_adj):
        return 1
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = [root]
        for u in queue:
            s = side[u]
            for across, adj in ((1, g.pos_adj[u]), (0, g.neg_adj[u])):
                for w in adj:
                    if side[w] < 0:
                        side[w] = s ^ across
                        queue.append(w)
                    elif side[w] != s ^ across:
                        return None
    return 2


def _minimal_colorations(
    g: SignedGraph, start: int, *, first_only: bool
) -> tuple[int, dict[int, tuple[int, ...]]]:
    """The smallest canonical color-set size from ``start`` up admitting a
    proper coloration, and what ``_first_colorations`` finds at that size:
    its first coloration only with ``first_only``, else the first of each
    deficiency.  Callers start at the parity test's chi, or at 3 when it
    fails, so no smaller size holds a proper coloration.  The vertexless
    graph gives size 0 and its one empty coloration.  Graphs above
    ``DEFAULT_EXHAUSTIVE_BOUND`` vertices are refused."""
    if g.n > DEFAULT_EXHAUSTIVE_BOUND:
        raise BoundExceededError(
            f"chromatic number needs exhaustive search; {g.n} vertices "
            f"exceeds the bound of {DEFAULT_EXHAUSTIVE_BOUND}"
        )
    later = _later_neighbors(g)
    for size in range(start, 2 * g.n + 1):
        stop = 1 if first_only else max_possible_deficiency(size) + 1
        found = _first_colorations(later, size, stop)
        if found:
            return size, found
    raise AssertionError("2n distinct positive colors always properly color")


def chromatic_number(g: SignedGraph) -> int:
    """Size of the smallest canonical color set admitting a proper coloration.

    0, 1 and 2 come from the parity test, without search and at any size.
    Otherwise each size from 3 up is walked until its first proper
    coloration, and graphs above ``DEFAULT_EXHAUSTIVE_BOUND`` vertices are
    refused.
    """
    chi = _parity_chromatic_number(g)
    if chi is None:
        chi = _minimal_colorations(g, 3, first_only=True)[0]
    return chi


class DeficiencyReport(NamedTuple):
    """Deficiency landscape of a graph over its minimal color set."""

    chi: int
    range: frozenset[int]
    max_deficiency: int
    min_deficiency: int
    witness_max: Coloration
    witness_min: Coloration
    per_deficiency: Mapping[int, Coloration]


def max_possible_deficiency(chi: int) -> int:
    # def(kappa) <= floor(chi/2): symmetrizing the used colors U to U u -U and
    # relabeling magnitudes yields a proper coloration over a canonical set of
    # size <= 2|U| (or 2|U|-1 when 0 is used), so |U| >= ceil(chi/2).
    return chi // 2


def deficiency_report(g: SignedGraph) -> DeficiencyReport:
    """Collect the deficiencies achieved by proper colorations over the
    minimal color set, with the first coloration met of each value as its
    witness.  Graphs above ``DEFAULT_EXHAUSTIVE_BOUND`` vertices are refused.

    Each color-set size is walked once, from the parity test's chi, or
    from 3 when it fails: sizes below chi hold no proper coloration, and
    the walk at chi gives the report.  The walk skips
    subtrees that cannot yield a deficiency not yet seen and ends once every
    achievable value has appeared.  A skipped subtree holds no first
    occurrence of any value, so the witnesses are those of the plain walk;
    the tests hold the report against an independent reference.
    """
    start = _parity_chromatic_number(g)
    chi, found = _minimal_colorations(
        g, 3 if start is None else start, first_only=False
    )
    k, uses_zero = chi // 2, bool(chi % 2)
    cap = max_possible_deficiency(chi)
    _check(bool(found), "a minimal proper coloration must exist")
    # every visited coloration's deficiency is a key of ``found``
    _check(max(found) <= cap, "deficiency above floor(chi/2): enumeration defect")
    witnesses = {
        d: Coloration(colors, k, uses_zero) for d, colors in found.items()
    }
    for kappa in witnesses.values():
        _check(is_proper(g, kappa) and kappa.size == chi, "witness not minimal proper")
    return DeficiencyReport(
        chi=chi,
        range=frozenset(found),
        max_deficiency=max(found),
        min_deficiency=min(found),
        witness_max=witnesses[max(found)],
        witness_min=witnesses[min(found)],
        per_deficiency=witnesses,
    )


def stable_positive_cover(g: SignedGraph) -> frozenset[int] | None:
    """Some stable vertex set covering every positive edge, or None.

    A 2-SAT search over the input vertices (Aspvall, Plass and Tarjan
    1979), linear in vertices and edges at any size.  Vertex v is in the
    cover when literal 2v holds and outside it when 2v + 1 holds.  Each
    positive edge uv gives the clauses u or v and not-u or not-v, each
    negative edge the clause not-u or not-v, and clause a or b the
    implications not-a => b and not-b => a.  An iterative Tarjan search
    numbers the strongly connected components of the implication graph,
    sinks first; there is no cover when a literal shares its component
    with its negation, and otherwise v is in the cover when 2v's component
    is numbered before 2v + 1's.  Deterministic, but not the least cover
    in any order; the cover is checked before it is returned.
    """
    implied: list[list[int]] = [[] for _ in range(2 * g.n)]

    def clause(a: int, b: int) -> None:
        implied[a ^ 1].append(b)
        implied[b ^ 1].append(a)

    for u, v in g.positive_edges():
        clause(2 * u, 2 * v)
        clause(2 * u + 1, 2 * v + 1)
    for u, v in g.negative_edges():
        clause(2 * u + 1, 2 * v + 1)

    order = [0] * len(implied)  # DFS number, 0 while unvisited
    low = [0] * len(implied)
    component = [-1] * len(implied)
    open_literals: list[int] = []
    visited = components = 0
    for root in range(len(implied)):
        if order[root]:
            continue
        visited += 1
        order[root] = low[root] = visited
        open_literals.append(root)
        path = [(root, iter(implied[root]))]
        while path:
            x, successors = path[-1]
            for y in successors:
                if not order[y]:
                    visited += 1
                    order[y] = low[y] = visited
                    open_literals.append(y)
                    path.append((y, iter(implied[y])))
                    break
                if component[y] < 0 and order[y] < low[x]:
                    low[x] = order[y]
            else:
                path.pop()
                if path and low[x] < low[path[-1][0]]:
                    low[path[-1][0]] = low[x]
                if low[x] == order[x]:
                    while True:
                        y = open_literals.pop()
                        component[y] = components
                        if y == x:
                            break
                    components += 1
    if any(component[2 * v] == component[2 * v + 1] for v in range(g.n)):
        return None
    cover = frozenset(v for v in range(g.n) if component[2 * v] < component[2 * v + 1])
    _check(
        is_stable(g, cover) and covers_positive(g, cover),
        "2-SAT cover is not a stable cover of the positive edges",
    )
    return cover


def max_deficiency_3chromatic(g: SignedGraph) -> int:
    """Ground truth for the maximum deficiency of a 3-chromatic graph:
    1 exactly when a stable cover of the positive edges exists.  Only the
    chromatic number has a size bound: above it the graph is refused."""
    chi = chromatic_number(g)
    if chi != 3:
        raise NotThreeChromaticError(chi)
    cover = stable_positive_cover(g)
    return 1 if cover is not None else 0


class SwitchingReport(NamedTuple):
    """Deficiencies achievable across an entire switching class."""

    chi: int
    range: frozenset[int]
    witnesses: Mapping[int, tuple[frozenset[int], Coloration]]


def switching_report(g: SignedGraph) -> SwitchingReport:
    """Union of deficiency ranges over every switching of ``g``.

    Enumerates switch sets not containing vertex 0 (a set and its complement
    switch to the identical graph), recomputes the chromatic number of every
    switched graph, and records one (switch set, coloration) witness per
    achieved deficiency.  The walk ends once every achievable value has
    appeared.  Graphs above ``DEFAULT_SWITCHING_BOUND`` vertices are refused.
    """
    if g.n > DEFAULT_SWITCHING_BOUND:
        raise BoundExceededError(
            f"switching enumeration over {g.n} vertices exceeds the bound of "
            f"{DEFAULT_SWITCHING_BOUND}"
        )
    chi = chromatic_number(g)
    target = set(range(max_possible_deficiency(chi) + 1))
    witnesses: dict[int, tuple[frozenset[int], Coloration]] = {}
    free = list(range(1, g.n))
    for mask in range(1 << len(free)):
        A = frozenset(v for i, v in enumerate(free) if mask >> i & 1)
        rep = deficiency_report(switch(g, A))
        if rep.chi != chi:
            raise AssertionError(
                f"switching changed the chromatic number: {chi} -> {rep.chi}"
            )
        for d in sorted(rep.range):
            witnesses.setdefault(d, (A, rep.per_deficiency[d]))
        if target <= set(witnesses):
            break
    achieved = frozenset(witnesses)
    _check(achieved <= target, "switching deficiency above floor(chi/2)")
    return SwitchingReport(chi=chi, range=achieved, witnesses=witnesses)


def _color_class(kappa: Coloration, color: int) -> frozenset[int]:
    return frozenset(v for v, c in enumerate(kappa.colors) if c == color)


def achieve_switching_deficiency(
    g: SignedGraph,
    kappa: Coloration,
    r: int,
) -> tuple[frozenset[int], Coloration]:
    """Construct a switch set A and coloration of switch(g, A) with
    deficiency exactly ``r``, starting from any minimal proper ``kappa``.

    For r = floor(chi/2): make every unused color negative, then switch all
    negatively colored vertices.  Otherwise: reach deficiency 0 by switching
    a single vertex per unused-color pair, then empty the classes of colors
    1..r by switching them whole.  Requires a simple signed graph when the
    deficiency-0 normalization runs (an opposite-sign edge pair can leave an
    unused color with a lone counter-colored vertex, which stalls it).
    """
    if not is_proper(g, kappa):
        raise ValueError("coloration is not proper on the input graph")
    chi = chromatic_number(g)
    if kappa.size != chi:
        raise ValueError(
            f"coloration is not minimal: declares {kappa.size} colors, chi is {chi}"
        )
    if not 0 <= r <= max_possible_deficiency(chi):
        raise ValueError(
            f"target deficiency {r} outside [0, {max_possible_deficiency(chi)}]"
        )

    A: set[int] = set()
    kap = kappa

    def flip(vertices: frozenset[int] | set[int]) -> None:
        nonlocal A, kap
        A ^= set(vertices)
        kap = switch_coloration(kap, vertices)

    # Make every unused color negative: an unused positive c has -c in use,
    # and negating the -c class swaps which of the two is unused.
    for c in sorted(deficiency(kap)[1]):
        if c > 0:
            flip(_color_class(kap, -c))

    if r == max_possible_deficiency(chi):
        flip(frozenset(v for v, c in enumerate(kap.colors) if c < 0))
    else:
        for c in sorted(deficiency(kap)[1]):
            counter = _color_class(kap, -c)
            if len(counter) < 2:
                raise ValueError(
                    f"color {-c} sits on a lone vertex although {c} is unused; "
                    "deficiency-0 normalization needs a simple signed graph "
                    "and a genuinely minimal coloration"
                )
            flip({min(counter)})
        for c in range(1, r + 1):
            flip(_color_class(kap, c))

    switched = switch(g, A)
    _check(is_proper(switched, kap), "construction lost properness")
    achieved = deficiency(kap)[0]
    _check(achieved == r, f"construction reached deficiency {achieved}, wanted {r}")
    return frozenset(A), kap


def recolor_lone_negative(
    g: SignedGraph, kappa: Coloration, unused_color: int
) -> Coloration:
    """Eliminate color 0 from an odd-size coloration whose unused color has a
    lone counter-colored vertex, producing a proper coloration over the
    even set of size 2k.

    With ``unused_color`` = c unused and exactly one vertex w colored -c,
    every 0-colored vertex is recolored: c if positively adjacent to w, -c
    otherwise (negatively adjacent or non-adjacent).  The result certifies
    that the declared odd-size set was not minimal.
    """
    if not kappa.uses_zero:
        raise ValueError("recoloring applies to colorations whose set includes 0")
    if not is_proper(g, kappa):
        raise ValueError("coloration is not proper")
    if unused_color in kappa.used():
        raise ValueError(f"color {unused_color} is not unused")
    lone = [v for v, c in enumerate(kappa.colors) if c == -unused_color]
    if len(lone) != 1:
        raise ValueError(
            f"expected exactly one vertex colored {-unused_color}, found {len(lone)}"
        )
    w = lone[0]
    pos_w = set(g.pos_adj[w])
    colors = list(kappa.colors)
    for v, c in enumerate(colors):
        if c == 0:
            colors[v] = unused_color if v in pos_w else -unused_color
    result = Coloration(tuple(colors), kappa.k, uses_zero=False)
    _check(is_proper(g, result), "recoloring must stay proper")
    return result
