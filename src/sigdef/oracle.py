"""Exhaustive, independently coded ground truth for small signed graphs.

Everything here answers by enumeration: chromatic number by trying canonical
color sets of growing size, deficiency ranges by walking every proper
coloration over the minimal set, stable covers of the positive edges by
subset (or one-side-per-matched-pair) search, and switching ranges by trying
every switching.  Inputs above the configured size bounds are refused rather
than answered approximately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import (
    Coloration,
    SignedGraph,
    deficiency,
    is_proper,
    switch,
    switch_coloration,
)

__all__ = [
    "DEFAULT_EXHAUSTIVE_BOUND",
    "DEFAULT_SWITCHING_BOUND",
    "DEFAULT_PAIR_BOUND",
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
DEFAULT_PAIR_BOUND = 20


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


def _proper_assignments(g: SignedGraph, size: int) -> Iterator[tuple[int, ...]]:
    """Yield every proper coloration over the canonical set of ``size``
    colors, vertices ascending, colors in canonical scan order."""
    n = g.n
    if n == 0:
        yield ()
        return
    order = canonical_color_order(size)
    if not order:
        return
    pos_before = [[u for u in g.pos_adj[v] if u < v] for v in range(n)]
    neg_before = [[u for u in g.neg_adj[v] if u < v] for v in range(n)]
    assign = [0] * n

    def extend(v: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(assign)
            return
        banned = {assign[u] for u in pos_before[v]}
        banned.update(-assign[u] for u in neg_before[v])
        for c in order:
            if c not in banned:
                assign[v] = c
                yield from extend(v + 1)

    yield from extend(0)


def chromatic_number(g: SignedGraph, *, bound: int = DEFAULT_EXHAUSTIVE_BOUND) -> int:
    """Size of the smallest canonical color set admitting a proper coloration.

    0 for the vertexless graph.  Graphs with more than ``bound`` vertices
    are refused.
    """
    if g.n == 0:
        return 0
    if g.n > bound:
        raise BoundExceededError(
            f"chromatic number needs exhaustive search; {g.n} vertices "
            f"exceeds the bound of {bound}"
        )
    for size in range(1, 2 * g.n + 1):
        if next(_proper_assignments(g, size), None) is not None:
            return size
    raise AssertionError("2n distinct positive colors always properly color")


@dataclass(frozen=True)
class DeficiencyReport:
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


def deficiency_report(
    g: SignedGraph,
    *,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
    early_stop: bool = True,
) -> DeficiencyReport:
    """Enumerate all proper colorations over the minimal color set and
    collect the achieved deficiencies with one witness per value.

    ``early_stop`` ends the walk once every achievable value has appeared;
    witnesses are first-encountered either way, so reports are identical.
    """
    chi = chromatic_number(g, bound=bound)
    k, uses_zero = chi // 2, bool(chi % 2)
    cap = max_possible_deficiency(chi)
    found: dict[int, tuple[int, ...]] = {}
    for colors in _proper_assignments(g, chi):
        d = chi - len(set(colors)) if g.n else 0
        assert d <= cap, "deficiency above floor(chi/2): enumeration defect"
        if d not in found:
            found[d] = colors
            if early_stop and len(found) == cap + 1:
                break
    assert found, "a minimal proper coloration must exist"
    witnesses = {
        d: Coloration(colors, k, uses_zero) for d, colors in found.items()
    }
    for kappa in witnesses.values():
        assert is_proper(g, kappa) and kappa.size == chi
    return DeficiencyReport(
        chi=chi,
        range=frozenset(found),
        max_deficiency=max(found),
        min_deficiency=min(found),
        witness_max=witnesses[max(found)],
        witness_min=witnesses[min(found)],
        per_deficiency=witnesses,
    )


def _positive_perfect_matching(g: SignedGraph) -> list[tuple[int, int]] | None:
    """The positive edges as a perfect matching (pairs sorted by low side),
    or None when they do not form one."""
    if g.n % 2:
        return None
    pairs = []
    for v in range(g.n):
        if len(g.pos_adj[v]) != 1:
            return None
        u = g.pos_adj[v][0]
        if v < u:
            pairs.append((v, u))
    return pairs


def _cover_matched(g: SignedGraph, pairs: list[tuple[int, int]]) -> frozenset[int] | None:
    """First stable one-side-per-pair selection in lexicographic order."""
    pairs = sorted(pairs)
    adj = [set(g.pos_adj[v]) | set(g.neg_adj[v]) for v in range(g.n)]
    chosen: set[int] = set()

    def pick(idx: int) -> frozenset[int] | None:
        if idx == len(pairs):
            return frozenset(chosen)
        for cand in pairs[idx]:
            if adj[cand].isdisjoint(chosen):
                chosen.add(cand)
                result = pick(idx + 1)
                if result is not None:
                    return result
                chosen.discard(cand)
        return None

    return pick(0)


def _cover_subsets(g: SignedGraph) -> frozenset[int] | None:
    """First stable cover of the positive edges, subsets in lexicographic
    order of their sorted id tuples (preorder over the extension tree)."""
    n = g.n
    adj = [set(g.pos_adj[v]) | set(g.neg_adj[v]) for v in range(n)]
    pos_edges = list(g.positive_edges())
    current: set[int] = set()

    def explore(start: int) -> frozenset[int] | None:
        if all(u in current or v in current for u, v in pos_edges):
            return frozenset(current)
        for v in range(start, n):
            if adj[v].isdisjoint(current):
                current.add(v)
                result = explore(v + 1)
                if result is not None:
                    return result
                current.discard(v)
        return None

    return explore(0)


def stable_positive_cover(
    g: SignedGraph,
    *,
    vertex_bound: int = DEFAULT_EXHAUSTIVE_BOUND,
    pair_bound: int = DEFAULT_PAIR_BOUND,
) -> frozenset[int] | None:
    """Some stable vertex set covering every positive edge, or None.

    Deterministic: the lexicographically least such set by vertex id.  When
    the positive edges form a perfect matching the search runs over
    one-side-per-pair selections (2^pairs); otherwise over all vertex
    subsets (2^|V|), each behind its own bound.
    """
    pairs = _positive_perfect_matching(g)
    if pairs is not None and len(pairs) <= pair_bound:
        return _cover_matched(g, pairs)
    if g.n <= vertex_bound:
        return _cover_subsets(g)
    raise BoundExceededError(
        f"stable-cover search over {g.n} vertices exceeds the bound of "
        f"{vertex_bound} (and the positive edges are not a small matching)"
    )


def max_deficiency_3chromatic(
    g: SignedGraph,
    *,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
    pair_bound: int = DEFAULT_PAIR_BOUND,
) -> int:
    """Ground truth for the maximum deficiency of a 3-chromatic graph:
    1 exactly when a stable cover of the positive edges exists."""
    chi = chromatic_number(g, bound=bound)
    if chi != 3:
        raise NotThreeChromaticError(chi)
    cover = stable_positive_cover(g, vertex_bound=bound, pair_bound=pair_bound)
    return 1 if cover is not None else 0


@dataclass(frozen=True)
class SwitchingReport:
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
    assert achieved <= target, "switching deficiency above floor(chi/2)"
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
    assert is_proper(switched, kap), "construction lost properness"
    achieved = deficiency(kap)[0]
    assert achieved == r, f"construction reached deficiency {achieved}, wanted {r}"
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
    assert is_proper(g, result), "recoloring must stay proper"
    return result
