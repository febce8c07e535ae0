"""Polynomial-time maximum-deficiency decision for 3-chromatic signed graphs.

The procedure flattens the input into a matched form (one positive perfect
matching, all other edges negative, negative loops allowed), then repeatedly
applies the first firing rule of a fixed priority ladder until the graph is
empty (answer 1, with a stable cover of the positive edges) or a
contradiction surfaces (answer 0).  Each firing removes at least one matched
pair, so a run makes at most one pass per initial pair.

Rule ladder, in priority order (numbering is part of the trace contract):

  3  a pair with both sides unusable, at least one via the forbidden set -> 0
  4  a pair with one side forbidden: its partner joins the cover
  5  a pair with loops on both sides -> 0
  6  a pair with a loop on one side: the partner joins the cover
  7  a vertex adjacent to both sides of another pair: its partner joins
  8  cross-adjacent pair of pairs: identify the sides that must go together
  9  a vertex of degree one joins the cover (a safe free choice)
 10  empty graph -> 1; expand the cover through the recovery map
 11  walk the forcing digraph (edge x->y when x is adjacent to y's partner)
     from the lowest id along lowest successors until a vertex repeats
 12  take the walk's cycle and its mirror: overlapping -> 0, disjoint ->
     contract

``maxdef`` is the single dispatcher: it tries steps 3..9 in order, ends
the run on a blocked pair (3, 5), and after every action checks that the
pair count shrank and, when validating, the invariants.  Each outcome is
recorded in the trace by the routine that decides it; the dispatcher
itself records only the odd-cycle verdict of step 2 and the certified
cover of step 10.  Flattening (steps 1-2) contracts each positive
component's sides into one pair; identification (steps 8, 12) merges
vertices in place.  Both land their edges through one routine, ``_land``:
an edge landing on one vertex becomes a loop, one landing inside a pair is
dropped, and parallels merge.  Every rule names its choice by id, never by
set iteration order, so neighbor sets can be mutated freely.

Vertices of the matched form use internal ids 2p / 2p+1 for pair p, so a
vertex's partner is always ``id ^ 1`` and survives every contraction.  The
working state keeps its live ids in ascending order, and keeps one lazy
min-heap of candidate ids per rule for steps 3-9 (see ``MatchedState``).
Steps 3 and 4 start with empty heaps, since nothing is forbidden after
flattening; steps 5 and 6 start with the looped ids; steps 7-9 start with
every live id.  Every rule reads its lowest candidate from its heap
instead of scanning the state on every pass; the lowest qualifying id
still acts.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple

from . import oracle
from .core import SignedGraph, _check, covers_positive, is_stable

__all__ = [
    "TraceEntry",
    "NotBipartite",
    "MatchedState",
    "ForcingGraph",
    "MaxDefResult",
    "flatten",
    "step3_check",
    "step4_resolve",
    "step5_check",
    "step6_resolve",
    "step7_resolve",
    "step8_merge",
    "step9_pendant",
    "build_forcing_graph",
    "step12_contract",
    "maxdef",
]


def side_name(x: int) -> str:
    """Display name of internal id x: pair p's low side is a{p+1}, high b{p+1}."""
    return f"{'ab'[x & 1]}{(x >> 1) + 1}"


class TraceEntry(NamedTuple):
    """One executed action of a run, machine-readable for replay."""

    step: int
    detail: str
    pairs_removed: int = 0
    s_added: tuple[str, ...] = ()
    b_added: tuple[str, ...] = ()
    merges: tuple[tuple[str, ...], ...] = ()

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "detail": self.detail,
            "pairs_removed": self.pairs_removed,
            "s_added": list(self.s_added),
            "b_added": list(self.b_added),
            "merges": [list(m) for m in self.merges],
        }


class NotBipartite(NamedTuple):
    """Flatten verdict: some positive component has an odd cycle, so the
    maximum deficiency is 0 outright."""

    component: tuple[str, ...]


class MatchedState:
    """Mutable working state of a run on the flattened graph.

    ``neg`` maps each live internal id to its negative neighbors; a vertex
    contained in its own set carries a loop.  ``recovery`` maps each live id
    to the original vertex ids it stands for; those sets partition the
    original vertices that survived flattening and are not yet committed to
    the cover or dropped with a removed partner.  ``forbidden`` holds live
    ids only: dead ids are purged whenever a pair is deleted.

    The keys of ``neg`` are in ascending order, and both sides of a pair are
    live together.  Flattening builds ``neg`` with 2p and 2p+1 in order;
    deleting a pair and identifying vertices in place only pop keys.  No
    rule reads the iteration order of a neighbor set.

    ``__init__`` takes the flattened graph and starts the cover, forbidden
    and dropped sets and the trace empty.  ``queues[k]`` for k = 3..9 is a
    min-heap of ids holding every live id that passes step k's test
    (``_QUEUE_TESTS``), and possibly stale ids.  Nothing is forbidden yet,
    so the heaps of steps 3 and 4 start empty; those of steps 5 and 6
    start with the looped ids, and those of steps 7-9 with every live id
    (an ascending list is already a valid heap).  A rule pops the ids at
    the top that fail its test and acts on the first that passes, so the
    lowest qualifying id acts.

    A popped id stays popped because its test can only become true through
    an event that pushes it again.  A forbidden id stays forbidden until its
    pair is deleted, and a loop appears only in ``_identify``, which runs
    only while nothing is forbidden or looped.  So the tests of steps 3 and
    4 become true only when an id is forbidden, and ``_forbid`` pushes it
    for both and its partner for step 3 (a pair can become blocked through
    either side); those of steps 5 and 6 become true only when a survivor of
    ``_identify`` gains a loop, and it pushes each such survivor for both
    (no loop exists before the call, so both sides of a doubly looped pair
    gained theirs in it).  The tests of steps 7 and 8 become true only when
    an edge is added to x (step 7) or to x or its partner (step 8); only
    ``_identify`` adds edges, and it pushes both ends and their partners.
    Step 9's test becomes true only when x's neighbor set empties, which
    happens only in the discards of ``_delete_pair`` and ``_identify``, and
    they push the emptied id.  Forbidden ids fail step 9's test.
    """

    __slots__ = (
        "source", "neg", "recovery", "kept_originals", "cover_ids", "forbidden",
        "dropped", "trace", "validate", "checks", "queues",
    )

    def __init__(
        self,
        source: SignedGraph,
        neg: dict[int, set[int]],
        recovery: dict[int, set[int]],
        kept_originals: frozenset[int],
        validate: bool = False,
    ):
        self.source = source
        self.neg = neg
        self.recovery = recovery
        self.kept_originals = kept_originals
        self.cover_ids: set[int] = set()
        self.forbidden: set[int] = set()
        self.dropped: set[int] = set()
        self.trace: list[TraceEntry] = []
        self.validate = validate
        self.checks = 0
        looped = [x for x, nbrs in neg.items() if x in nbrs]
        self.queues = {3: [], 4: [], 5: looped, 6: list(looped)}
        self.queues.update((step, list(neg)) for step in (7, 8, 9))

    def has_loop(self, x: int) -> bool:
        return x in self.neg[x]

    def pair_count(self) -> int:
        return len(self.neg) // 2

    def check_invariants(self) -> None:
        """Structural sanity of the matched form; raises AssertionError on
        a violation even under ``python -O``.  Not cheap: every call rebuilds
        whole-state sets, so it is linear in the live state, and a validated
        run, which calls it after every action, is quadratic in the pairs."""
        keys = list(self.neg)
        _check(keys == sorted(keys), "live ids out of ascending order")
        live = set(keys)
        for x in live:
            _check(x ^ 1 in live, "positive matching broken: lone pair side")
        for x, nbrs in self.neg.items():
            _check(x ^ 1 not in nbrs, "negative edge inside a matched pair")
            for w in nbrs:
                _check(w == x or x in self.neg[w], "asymmetric adjacency")
                _check(w in live, "edge to a dead vertex")
        _check(self.forbidden <= live, "forbidden set holds a dead id")
        _check(set(self.recovery) == live, "recovery keys out of sync")
        union: set[int] = set()
        total = 0
        for x in live:
            rset = self.recovery[x]
            _check(bool(rset), "empty recovery set")
            union |= rset
            total += len(rset)
        _check(total == len(union), "recovery sets overlap")
        settled = self.cover_ids | self.dropped
        _check(union.isdisjoint(settled), "recovered vertex already settled")
        _check(self.cover_ids.isdisjoint(self.dropped), "vertex covered and dropped")
        _check(union | settled == self.kept_originals, "kept vertex lost")
        for step, test in _QUEUE_TESTS.items():
            queued = set(self.queues[step])
            lost = [x for x in keys if x not in queued and test(self, x)]
            _check(not lost, f"step-{step} queue misses candidates {lost}")
        self.checks += 1


class ForcingGraph(NamedTuple):
    """The walked part of the digraph of forced cover decisions, where
    x -> y is present exactly when x is negatively adjacent to y's partner,
    so covering x forces covering y; edges mirror: x -> y exists iff
    partner(y) -> partner(x) does.  ``out_adj`` maps each vertex the walk
    visited, in walk order, to its successors in ascending order; the walk
    moves to the first of them, so it closes a cycle at the last vertex's
    first successor."""

    out_adj: dict[int, tuple[int, ...]]


class MaxDefResult(NamedTuple):
    """Outcome of a run: the 0/1 maximum deficiency, a stable cover of the
    positive edges in original labels when the answer is 1, the step that
    ended the run, and the full action trace.  ``checks`` counts the
    invariant batches asserted when the run was validated; ``chi_verified``,
    left out of the JSON, says whether chi = 3 was proved (see ``maxdef``)."""

    value: int
    cover: tuple[str, ...] | None
    terminating_step: int
    trace: tuple[TraceEntry, ...]
    checks: int = 0
    chi_verified: bool = False

    @property
    def steps_fired(self) -> tuple[int, ...]:
        return tuple(entry.step for entry in self.trace)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "cover": list(self.cover) if self.cover is not None else None,
            "terminating_step": self.terminating_step,
        }


def flatten(g: SignedGraph, *, validate: bool = False) -> MatchedState | NotBipartite:
    """Reduce a signed graph to matched form.

    Vertices without positive incidence are dropped.  Each positive
    component is two-colored; an odd component ends the run (NotBipartite).
    The two sides collapse to one vertex each -- the side holding the
    component's smallest original id becomes the low (``a``) side -- with
    negative edges inside a side becoming a loop, the negative edge between
    the two new partners deleted, and parallel negatives merged.
    """
    kept = [v for v in range(g.n) if g.pos_adj[v]]
    if not kept:
        raise ValueError(
            "no positive edge: the input cannot be 3-chromatic and has "
            "nothing to cover"
        )
    dropped_step1 = [v for v in range(g.n) if not g.pos_adj[v]]

    contract: dict[int, int] = {}
    recovery: dict[int, set[int]] = {}
    for root in kept:
        if root in contract:
            continue
        a_id = len(recovery)
        contract[root] = a_id
        recovery[a_id], recovery[a_id + 1] = {root}, set()
        queue = [root]
        while queue:
            u = queue.pop()
            for w in g.pos_adj[u]:
                if w not in contract:
                    contract[w] = contract[u] ^ 1
                    recovery[contract[w]].add(w)
                    queue.append(w)
                elif contract[w] == contract[u]:
                    found = recovery[a_id] | recovery[a_id + 1]
                    return NotBipartite(component=g.labels_of(found))

    neg: dict[int, set[int]] = {x: set() for x in recovery}
    for u in kept:
        for w in g.neg_adj[u]:
            if w > u and w in contract:
                _land(neg, contract[u], contract[w])
    state = MatchedState(
        source=g,
        neg=neg,
        recovery=recovery,
        kept_originals=frozenset(kept),
        validate=validate,
    )
    if dropped_step1:
        state.trace.append(
            TraceEntry(
                step=1,
                detail=f"dropped {len(dropped_step1)} vertices with no "
                f"positive incidence: {', '.join(g.labels_of(dropped_step1))}",
            )
        )
    if len(kept) > len(recovery):  # some component had more than two vertices
        state.trace.append(
            TraceEntry(
                step=2,
                detail=f"collapsed {len(kept)} vertices into "
                f"{state.pair_count()} matched pairs "
                f"({sum(x in nbrs for x, nbrs in neg.items())} with loops)",
            )
        )
    if validate:
        state.check_invariants()
    return state


def _land(neg: dict[int, set[int]], a: int, b: int) -> None:
    """Land a negative edge on ids a and b: on one vertex it becomes a loop,
    inside a pair it is dropped, and a parallel merges into the existing
    edge."""
    if a == b:
        neg[a].add(a)
    elif a != b ^ 1:
        neg[a].add(b)
        neg[b].add(a)


def _delete_pair(st: MatchedState, p: int) -> None:
    for x in (2 * p, 2 * p + 1):
        for nb in st.neg.pop(x):
            if nb != x and nb in st.neg:
                _discard_edge(st, nb, x)
        st.recovery.pop(x)
        st.forbidden.discard(x)


def _discard_edge(st: MatchedState, w: int, dead: int) -> None:
    """Drop ``dead`` from live ``w``'s neighbors; an emptied set queues ``w``
    for step 9."""
    nbrs = st.neg[w]
    nbrs.discard(dead)
    if not nbrs:
        heappush(st.queues[9], w)


def _commit(st: MatchedState, keep: int, step: int, detail: str) -> None:
    """Place ``keep`` into the cover, forbid its negative neighbors, and
    delete its pair (the partner's vertices are discarded)."""
    drop = keep ^ 1
    newly_forbidden = sorted(st.neg[keep] - st.forbidden - {keep, drop})
    st.cover_ids |= st.recovery[keep]
    st.dropped |= st.recovery[drop]
    _forbid(st, newly_forbidden)
    covered = st.source.labels_of(st.recovery[keep])
    _delete_pair(st, keep >> 1)
    st.trace.append(
        TraceEntry(
            step=step,
            detail=detail,
            pairs_removed=1,
            s_added=covered,
            b_added=tuple(side_name(x) for x in newly_forbidden),
        )
    )


def _forbid(st: MatchedState, ids: list[int]) -> None:
    """Forbid the live ``ids``: queue each for steps 3 and 4, and its
    partner for step 3 too, since a pair can become blocked through either
    side."""
    st.forbidden.update(ids)
    for x in ids:
        heappush(st.queues[3], x)
        heappush(st.queues[3], x ^ 1)
        heappush(st.queues[4], x)


def _both_unusable(st: MatchedState, x: int) -> bool:
    """Step 3's test: x is forbidden, and its partner is forbidden or
    looped."""
    return x in st.forbidden and (x ^ 1 in st.forbidden or st.has_loop(x ^ 1))


def _is_forbidden(st: MatchedState, x: int) -> bool:
    """Step 4's test: x is forbidden."""
    return x in st.forbidden


def _both_looped(st: MatchedState, x: int) -> bool:
    """Step 5's test: x and its partner both carry loops."""
    return st.has_loop(x) and st.has_loop(x ^ 1)


def _whole_pairs_seen(st: MatchedState, x: int) -> list[int]:
    """Step 7's test: the ids w != x such that x is adjacent to both w and
    partner(w)."""
    nbrs = st.neg[x]
    return [w for w in nbrs if w != x and w ^ 1 in nbrs]


def _cross_forced(st: MatchedState, x: int) -> list[int]:
    """Step 8's test: the ids y of other pairs with x~y and
    partner(x)~partner(y)."""
    partner_nbrs = st.neg[x ^ 1]
    return [y for y in st.neg[x] if y ^ 1 in partner_nbrs and y >> 1 != x >> 1]


def _is_pendant(st: MatchedState, x: int) -> bool:
    """Step 9's test: x's only incidence is its matching edge, and x may
    join the cover."""
    return not st.neg[x] and x not in st.forbidden


# Each rule's candidate test (see MatchedState), by step.
_QUEUE_TESTS = {
    3: _both_unusable, 4: _is_forbidden, 5: _both_looped, 6: MatchedState.has_loop,
    7: _whole_pairs_seen, 8: _cross_forced, 9: _is_pendant,
}


def _lowest_queued(st: MatchedState, step: int) -> tuple[int, list[int] | bool] | None:
    """Lowest live id in step's queue that passes its test, with what the
    test found.  Dead ids and ids that fail are popped for good."""
    queue, test = st.queues[step], _QUEUE_TESTS[step]
    while queue:
        x = queue[0]
        if x in st.neg:
            found = test(st, x)
            if found:
                return x, found
        heappop(queue)
    return None


def _blocked_pair(st: MatchedState, step: int, why: str) -> int | None:
    """Shared body of steps 3 and 5: the pair of the lowest id that passes
    the step's test, recorded as blocking the run."""
    hit = _lowest_queued(st, step)
    if hit is None:
        return None
    p = hit[0] >> 1
    detail = f"both sides of pair {p + 1} {why}: no stable cover exists"
    st.trace.append(TraceEntry(step=step, detail=detail))
    return p


def _commit_partner(st: MatchedState, step: int, why: str) -> bool:
    """Shared body of steps 4 and 6: commit the partner of the lowest id
    that passes the step's test."""
    hit = _lowest_queued(st, step)
    if hit is None:
        return False
    x = hit[0]
    detail = f"{side_name(x)} {why}, so {side_name(x ^ 1)} must join the cover"
    _commit(st, x ^ 1, step=step, detail=detail)
    return True


def step3_check(st: MatchedState) -> int | None:
    """Lowest pair whose two sides are both unusable for the cover, where a
    side is unusable when forbidden or looped and at least one side is
    forbidden.  Such a pair ends the run with value 0; its trace entry is
    recorded here.  (Pairs blocked by loops alone belong to the loop
    checks, steps 5 and 6.)"""
    return _blocked_pair(st, 3, "are unusable (forbidden or looped)")


def step4_resolve(st: MatchedState) -> bool:
    """For the lowest forbidden id, commit the partner."""
    return _commit_partner(st, 4, "is forbidden")


def step5_check(st: MatchedState) -> int | None:
    """Lowest pair with loops on both sides; ends the run with value 0, and
    its trace entry is recorded here."""
    return _blocked_pair(st, 5, "carry loops")


def step6_resolve(st: MatchedState) -> bool:
    """For the lowest id with a loop, commit the partner."""
    return _commit_partner(st, 6, "has a loop")


def step7_resolve(st: MatchedState) -> bool:
    """A vertex adjacent to both sides of another pair can never be covered,
    so its partner is committed.  Lowest such vertex acts, with its lowest
    pair."""
    hit = _lowest_queued(st, 7)
    if hit is None:
        return False
    x, seen = hit
    low = min(seen)
    _commit(
        st,
        x ^ 1,
        step=7,
        detail=f"{side_name(x)} is adjacent to both "
        f"{side_name(low)} and {side_name(low ^ 1)}, so "
        f"{side_name(x ^ 1)} must join the cover",
    )
    return True


def step8_merge(st: MatchedState) -> bool:
    """Identify cross-forced pairs: when x~y and partner(x)~partner(y), any
    cover containing x also contains partner(y), so those two collapse into
    one vertex (and likewise partner(x) with y).  The lowest such x acts,
    with its lowest y; the surviving pair keeps the lower pair's ids."""
    hit = _lowest_queued(st, 8)
    if hit is None:
        return False
    x, forced = hit
    y = min(forced)
    _identify(
        st,
        {y ^ 1: x, y: x ^ 1},
        step=8,
        detail=f"edges {side_name(x)}~{side_name(y)} and "
        f"{side_name(x ^ 1)}~{side_name(y ^ 1)} force the pairs together",
    )
    return True


def step9_pendant(st: MatchedState) -> bool:
    """Commit the lowest vertex whose only incidence is its matching edge.
    The choice is free but safe: a cover exists exactly when one through
    this vertex does."""
    hit = _lowest_queued(st, 9)
    if hit is None:
        return False
    x = hit[0]
    _commit(
        st,
        x,
        step=9,
        detail=f"{side_name(x)} has degree one and joins the cover",
    )
    return True


def _identify(
    st: MatchedState, mapping: dict[int, int], step: int, detail: str
) -> None:
    """Merge each absorbed id into its survivor (``mapping``: absorbed id ->
    surviving id) in place, in time linear in the absorbed ids' degrees,
    and record the step's entry: one merge group per survivor, the
    survivor first, then its absorbed ids in mapping order.  Only runs
    while no id is forbidden or looped, so absorbed ids carry no loop.
    Keeps the candidate queues current: a survivor that gains a loop is
    queued for steps 5 and 6 (no id has a loop on entry, so every looped id
    on exit is such a survivor); both ends of every moved edge are queued
    for steps 7 and 8, and their partners for step 8 (a spare entry costs
    the lazy heap a pop)."""
    _check(
        not st.forbidden and _lowest_queued(st, 6) is None,
        "identifications only happen with nothing forbidden or looped",
    )
    grown: set[int] = set()
    groups: dict[int, list[int]] = {}
    for dead, rep in mapping.items():
        for w in st.neg.pop(dead):
            if w in st.neg:
                _discard_edge(st, w, dead)
            mw = mapping.get(w, w)
            _land(st.neg, rep, mw)
            grown.update((rep, mw))
        st.recovery[rep] |= st.recovery.pop(dead)
        groups.setdefault(rep, [rep]).append(dead)
    for x in groups:
        if st.has_loop(x):
            heappush(st.queues[5], x)
            heappush(st.queues[6], x)
    for x in grown:
        heappush(st.queues[7], x)
        heappush(st.queues[8], x)
        heappush(st.queues[8], x ^ 1)
    st.trace.append(
        TraceEntry(
            step=step,
            detail=detail,
            pairs_removed=len(mapping) // 2,
            merges=tuple(tuple(map(side_name, group)) for group in groups.values()),
        )
    )


def build_forcing_graph(st: MatchedState) -> ForcingGraph:
    """Walk the forcing digraph of the current graph (x -> partner(w) for
    every negative edge x~w) from the lowest live id, always to the lowest
    successor, until a vertex repeats, and record the step-11 entry with
    the whole digraph's size.  Only valid once steps 3..9 have all
    declined, which guarantees a simple, loop-free graph of minimum degree
    2 with at most one negative edge between any two pairs: no loop is
    left (steps 5-6), no side is pendant (step 9), and no vertex sees two
    sides of one pair, nor two pairs cross (steps 7-8).  So only the
    visited vertices are checked."""
    _check(bool(st.neg), "forcing graph of an empty graph")
    out: dict[int, tuple[int, ...]] = {}
    x = next(iter(st.neg))
    while x not in out:
        nbrs = st.neg[x]
        _check(x not in nbrs, "loop survived to the forcing stage")
        _check(bool(nbrs), "degree-one vertex survived to the forcing stage")
        seen_pairs = {nb >> 1 for nb in nbrs}
        _check(len(seen_pairs) == len(nbrs), "two negative edges between pairs")
        for nb in nbrs:
            _check(x in st.neg[nb], "forcing edges must mirror")
        out[x] = tuple(sorted(nb ^ 1 for nb in nbrs))
        x = out[x][0]
    if st.validate:
        st.checks += 1
    edges = sum(map(len, st.neg.values()))
    detail = f"built the forcing graph on {len(st.neg)} vertices with {edges} edges"
    st.trace.append(TraceEntry(step=11, detail=detail))
    return ForcingGraph(out_adj=out)


def step12_contract(st: MatchedState, fg: ForcingGraph) -> bool:
    """Take the forced cycle that closes the walk -- the walk's suffix from
    its last vertex's lowest successor -- and its mirror.  When they
    overlap, no cover exists (returns False).  Otherwise contract each to
    a single vertex; the survivor pair belongs to the lowest pair index on
    the cycle."""
    walk = list(fg.out_adj)
    cycle = walk[walk.index(fg.out_adj[walk[-1]][0]) :]
    pairs = [x >> 1 for x in cycle]
    if len(set(pairs)) < len(cycle):
        st.trace.append(
            TraceEntry(
                step=12,
                detail="forced cycle through "
                + ", ".join(side_name(x) for x in cycle)
                + " meets its own mirror: no stable cover exists",
            )
        )
        return False
    rep = cycle[pairs.index(min(pairs))]
    absorbed = [x for x in cycle if x != rep]
    mapping = {x: rep for x in absorbed}
    mapping.update({x ^ 1: rep ^ 1 for x in absorbed})
    _identify(
        st,
        mapping,
        step=12,
        detail="contracted the forced cycle through "
        + ", ".join(side_name(x) for x in cycle)
        + " and its mirror",
    )
    return True


def _result(
    step: int,
    trace: list[TraceEntry],
    checks: int = 0,
    cover: tuple[str, ...] | None = None,
) -> MaxDefResult:
    """The run's outcome: value 1 exactly when a cover was recovered."""
    return MaxDefResult(
        value=0 if cover is None else 1,
        cover=cover,
        terminating_step=step,
        trace=tuple(trace),
        checks=checks,
    )


def maxdef(
    g: SignedGraph,
    *,
    assume_chromatic_3: bool = False,
    validate: bool = False,
) -> MaxDefResult:
    """Decide whether the maximum deficiency of a 3-chromatic signed graph
    is 1 (emitting a stable cover of its positive edges) or 0.

    Unless ``assume_chromatic_3`` is on, chi = 3 is checked at both ends
    of the run.  First a linear-time parity test refuses any graph with
    chi <= 2, at any size.  A value-1 answer then proves chi = 3: its
    cover colored 0 and every other vertex colored 1 is a proper
    coloration over {0, +-1}.  A value-0 answer is checked by exhaustive
    search when the graph has at most ``oracle.DEFAULT_EXHAUSTIVE_BOUND``
    vertices; above that bound it stands on the caller's assertion, and
    ``chi_verified`` stays false.  A graph found not 3-chromatic raises
    ``oracle.NotThreeChromaticError``.  With ``validate`` on, the
    structural invariants of the working state are checked after
    flattening and after every action.

    Whatever the path, a value-1 result is self-certified: the returned
    cover is checked stable and positive-covering against the input graph.
    """
    if assume_chromatic_3:
        return _decide(g, validate)
    chi = oracle._parity_chromatic_number(g)
    if chi is not None:
        raise oracle.NotThreeChromaticError(chi)
    result = _decide(g, validate)
    if result.value == 0:
        if g.n > oracle.DEFAULT_EXHAUSTIVE_BOUND:
            return result
        # through the module attribute, so that wrappers installed on it
        # (as the benchmark's tracer does) see the call
        chi = oracle.chromatic_number(g)
        if chi != 3:
            raise oracle.NotThreeChromaticError(chi)
    return result._replace(chi_verified=True)


def _decide(g: SignedGraph, validate: bool) -> MaxDefResult:
    """Run the ladder on ``g`` and return its outcome, chi unchecked."""
    st = flatten(g, validate=validate)
    if isinstance(st, NotBipartite):
        detail = (
            "positive component on "
            + ", ".join(st.component)
            + " has an odd cycle: no stable cover exists"
        )
        return _result(2, [TraceEntry(step=2, detail=detail)])

    # Looked up at call time, so that wrappers installed on the module
    # attributes (as the benchmark's tracer does) see every rule call.
    ladder = (
        (3, step3_check),
        (4, step4_resolve),
        (5, step5_check),
        (6, step6_resolve),
        (7, step7_resolve),
        (8, step8_merge),
        (9, step9_pendant),
    )
    while True:
        before = st.pair_count()
        for step, rule in ladder:
            found = rule(st)
            if found is None or found is False:
                continue
            if step in (3, 5):  # a blocked pair ends the run with value 0
                return _result(step, st.trace, st.checks)
            break
        else:
            if not st.neg:
                _check(
                    is_stable(st.source, st.cover_ids)
                    and covers_positive(st.source, st.cover_ids),
                    "internal defect: produced cover fails self-certification",
                )
                cover = st.source.labels_of(st.cover_ids)
                detail = "graph is empty; recovered cover " + ", ".join(cover)
                st.trace.append(TraceEntry(step=10, detail=detail))
                return _result(10, st.trace, st.checks, cover)
            if not step12_contract(st, build_forcing_graph(st)):
                return _result(12, st.trace, st.checks)
        _check(st.pair_count() < before, "action left the pair count flat")
        if st.validate:
            st.check_invariants()
