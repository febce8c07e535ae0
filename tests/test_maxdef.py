"""The maximum-deficiency decision procedure: flattening, the individual
rule steps, the forcing graph, and whole runs against the oracle."""

from __future__ import annotations

import copy
import functools
import math
import pickle
import random
import statistics
import sys

import pytest

from sigdef import (
    NotBipartite,
    NotThreeChromaticError,
    build_forcing_graph,
    build_graph,
    chromatic_number,
    covers_positive,
    generate_general,
    generate_matched,
    is_stable,
    max_deficiency_3chromatic,
    maxdef,
    stable_positive_cover,
)
from sigdef.maxdef import (
    MatchedState,
    TraceEntry,
    _forbid,
    flatten,
    side_name,
    step3_check,
    step4_resolve,
    step5_check,
    step6_resolve,
    step7_resolve,
    step8_merge,
    step9_pendant,
    step12_contract,
)

from conftest import (
    ALL_POSITIVE_TRIANGLE,
    PADDING,
    TRIANGLE_EDGES,
    WORKED_COVER,
    WORKED_NEGATIVE,
    best_cpu_seconds,
    cpu_timed_rounds,
    forbid_star,
    gadget_copies,
    loop_family,
    planted,
    tail_family,
    threshold_matched,
)


def flat(g) -> MatchedState:
    state = flatten(g)
    assert isinstance(state, MatchedState)
    state.check_invariants()
    return state


def live_pairs(st: MatchedState) -> list[int]:
    return [x >> 1 for x in st.neg if not x & 1]


# Positive path u-v-w-x with the negative chord u~w: flattening puts u and
# w on side a1, whose internal edge becomes a loop.  Adding v~x loops b1.
LOOPED_PATH = [("u", "v", "+"), ("v", "w", "+"), ("w", "x", "+"), ("u", "w", "-")]


class TestFlatten:
    def test_worked_example_is_identity(self, worked_example):
        st = flat(worked_example)
        assert live_pairs(st) == list(range(7))
        assert all(len(r) == 1 for r in st.recovery.values())
        assert st.trace == ()  # nothing dropped, nothing collapsed

    def test_all_positive_triangle_not_bipartite(self, all_positive_triangle):
        verdict = flatten(all_positive_triangle)
        assert isinstance(verdict, NotBipartite)
        assert set(verdict.component) == {"x", "y", "z"}

    def test_path_with_chord_gains_loop(self):
        # positive path u-v-w-x plus negative u~w: {u, w} collapse into one
        # side, whose internal negative edge becomes a loop
        g = build_graph(LOOPED_PATH)
        st = flat(g)
        assert live_pairs(st) == [0]
        a, b = 0, 1
        assert st.recovery[a] == {g.id_of("u"), g.id_of("w")}
        assert st.recovery[b] == {g.id_of("v"), g.id_of("x")}
        assert st.has_loop(a) and not st.has_loop(b)
        result = maxdef(g, assume_chromatic_3=True, validate=True)
        truth = 1 if stable_positive_cover(g) is not None else 0
        assert result.value == truth == 1

    def test_negative_only_vertices_dropped(self):
        g = build_graph([("u", "v", "+"), ("u", "z", "-"), ("z", "v", "-")])
        st = flat(g)
        assert g.id_of("z") not in st.kept_originals
        assert st.trace[0].step == 1

    def test_internal_pair_negative_deleted(self):
        g = build_graph([("u", "v", "+"), ("u", "v", "-")])
        st = flat(g)
        assert st.neg == {0: set(), 1: set()}

    def test_no_positive_edge_refused(self):
        with pytest.raises(ValueError, match="no positive edge"):
            flatten(build_graph([("u", "v", "-")]))


class TestStep3:
    def test_both_sides_forbidden(self, worked_example):
        st = flat(worked_example)
        _forbid(st, [8, 9])  # both sides of pair 5
        assert step3_check(st) == 4

    def test_single_forbidden_side_is_fine(self, worked_example):
        st = flat(worked_example)
        _forbid(st, [9])  # b5 only
        assert step3_check(st) is None

    def test_empty_forbidden(self, worked_example):
        st = flat(worked_example)
        assert step3_check(st) is None

    def test_forbidden_side_with_looped_partner_blocks(self):
        # pair whose free side carries a loop is just as unusable
        st = flat(build_graph(LOOPED_PATH))
        _forbid(st, [1])  # the loop sits on side 0
        assert step3_check(st) == 0

    def test_loop_only_pairs_left_to_step5(self):
        st = flat(build_graph(LOOPED_PATH + [("v", "x", "-")]))
        assert step3_check(st) is None
        assert step5_check(st) == 0

    def test_partner_forbidden_later_blocks(self, worked_example):
        # b5 forbidden and popped first, a5 later: both sides now pass step
        # 3's test, so forbidding a5 must queue b5 again
        st = flat(worked_example)
        _forbid(st, [9])
        assert step3_check(st) is None
        _forbid(st, [8])
        st.check_invariants()
        assert step3_check(st) == 4


class TestStep4:
    def test_worked_example_final_state(self, worked_example):
        # isolate pair 5 with b5 forbidden: a5 joins, the graph empties
        st = flat(worked_example)
        from sigdef.maxdef import _delete_pair

        for p in (0, 1, 2, 3, 5, 6):
            st.dropped |= st.recovery[2 * p] | st.recovery[2 * p + 1]
            _delete_pair(st, p)
        _forbid(st, [9])
        assert step4_resolve(st)
        assert st.cover_ids == {worked_example.id_of("a5")}
        assert st.forbidden == set()
        assert st.neg == {}

    def test_no_forbidden_no_action(self, worked_example):
        st = flat(worked_example)
        assert not step4_resolve(st)

    def test_purges_dead_ids_from_forbidden(self):
        g = generate_matched(2, 0.0, 0, negative_edges=[("b1", "a2"), ("b1", "b2")])
        st = flat(g)
        _forbid(st, [0])  # a1 forbidden: b1 joins, both pair-2 sides forbidden
        assert step4_resolve(st)
        assert st.forbidden == {2, 3}
        assert 0 not in st.forbidden and 1 not in st.forbidden


class TestSteps5And6:
    def looped_state(self, doubled=()):
        # two 3-vertex positive paths u_i-v_i-w_i with the internal negative
        # edge u_i~w_i, a loop on side a_i; a path i in ``doubled`` grows a
        # fourth vertex x_i with v_i~x_i, a loop on side b_i too
        edges = []
        for i in (1, 2):
            u, v, w, x = (f"{name}{i}" for name in "uvwx")
            edges += [(u, v, "+"), (v, w, "+"), (u, w, "-")]
            if i in doubled:
                edges += [(w, x, "+"), (v, x, "-")]
        g = build_graph(edges)
        return g, flat(g)

    def test_step5_requires_both_loops(self):
        _, st = self.looped_state()
        assert step5_check(st) is None
        _, st = self.looped_state(doubled=(1,))
        assert step5_check(st) == 0

    def test_step5_names_lowest_pair(self):
        _, st = self.looped_state(doubled=(1, 2))
        assert step5_check(st) == 0
        _, st = self.looped_state(doubled=(2,))
        assert step5_check(st) == 1

    def test_contraction_that_loops_both_sides_ends_at_step5(self):
        # step 12 contracts a1, b3, a6, a4, a2, a5 into a1 and the mirror
        # into b1: a5~a6 becomes a loop on a1, and a3~b5 and b2~b6 one on
        # b1, so only the contraction can queue pair 1 for step 5
        negative = [("a1", "a3"), ("a2", "b5"), ("a3", "b5"), ("a5", "a6"),
                    ("b1", "a5"), ("b2", "a4"), ("b2", "b6"), ("b3", "b6"),
                    ("b4", "a5"), ("b4", "a6")]
        g = generate_matched(6, 0.0, 0, negative_edges=negative)
        result = maxdef(g, assume_chromatic_3=True, validate=True)
        assert result.steps_fired == (11, 12, 5)
        assert result.value == 0 and stable_positive_cover(g) is None

    def test_step6_commits_partner(self):
        g, st = self.looped_state()
        assert step6_resolve(st)
        assert st.cover_ids == {g.id_of("v1")}
        assert live_pairs(st) == [1]

    def test_no_loops_no_action(self, worked_example):
        st = flat(worked_example)
        assert step5_check(st) is None
        assert not step6_resolve(st)


class TestStep7:
    def test_adjacent_to_both_sides(self):
        g = generate_matched(2, 0.0, 0, negative_edges=[("a1", "a2"), ("a1", "b2")])
        st = flat(g)
        assert step7_resolve(st)
        assert st.cover_ids == {g.id_of("b1")}
        assert live_pairs(st) == [1]

    def test_worked_example_declines(self, worked_example):
        st = flat(worked_example)
        assert not step7_resolve(st)

    def test_double_opportunity_single_action(self):
        g = generate_matched(
            3,
            0.0,
            0,
            negative_edges=[("a1", "a2"), ("a1", "b2"), ("a1", "a3"), ("a1", "b3")],
        )
        st = flat(g)
        assert step7_resolve(st)
        assert live_pairs(st) == [1, 2]
        truth = 1 if stable_positive_cover(g) is not None else 0
        assert maxdef(g, assume_chromatic_3=True, validate=True).value == truth

    def test_names_lowest_pair_not_set_order(self):
        # a1's neighbor set {16, 17, 2, 3} iterates a9, b9 first
        g = generate_matched(
            9,
            0.0,
            0,
            negative_edges=[("a1", "a9"), ("a1", "b9"), ("a1", "a2"), ("a1", "b2")],
        )
        st = flat(g)
        assert step7_resolve(st)
        assert st.trace[-1].detail == (
            "a1 is adjacent to both a2 and b2, so b1 must join the cover"
        )


class TestStep8:
    def test_worked_example_merges_pairs_6_and_7(self, worked_example):
        st = flat(worked_example)
        assert step8_merge(st)
        assert live_pairs(st) == [0, 1, 2, 3, 4, 5]
        a6 = 10
        b6 = 11
        assert st.recovery[a6] == worked_example.ids_of({"a6", "a7"})
        assert st.recovery[b6] == worked_example.ids_of({"b6", "b7"})
        entry = st.trace[-1]
        assert entry.step == 8
        assert entry.merges == (("a6", "a7"), ("b6", "b7"))

    def test_no_candidates_no_action(self):
        g = generate_matched(2, 0.0, 0, negative_edges=[("a1", "a2")])
        st = flat(g)
        assert not step8_merge(st)

    def test_merge_leaves_untouched_sets_in_place(self, worked_example):
        # pair 7 (ids 12, 13) is absorbed into pair 6; the adjacency dict and
        # every set away from the absorbed ids stay the same objects
        st = flat(worked_example)
        neg, sets = st.neg, dict(st.neg)
        absorbed = {12, 13}
        near = absorbed.union(*(st.neg[x] for x in absorbed))
        assert step8_merge(st)
        assert st.neg is neg
        assert absorbed.isdisjoint(st.neg)
        untouched = [x for x in st.neg if x not in near]
        assert untouched
        assert all(st.neg[x] is sets[x] for x in untouched)

    def test_merge_that_creates_loop_later_resolved(self):
        # after merging, the surviving pair can pick up a loop from edges
        # internal to the absorbed set on the next contraction; final value
        # still matches the enumeration oracle
        g = generate_matched(
            3,
            0.0,
            0,
            negative_edges=[
                ("a1", "a2"), ("b1", "b2"), ("a1", "a3"), ("b2", "a3"),
            ],
        )
        truth = 1 if stable_positive_cover(g) is not None else 0
        assert maxdef(g, assume_chromatic_3=True, validate=True).value == truth


class TestStep9:
    def test_worked_example_after_merge(self, worked_example):
        st = flat(worked_example)
        step8_merge(st)
        assert step9_pendant(st)
        assert st.cover_ids == worked_example.ids_of({"a6", "a7"})
        assert live_pairs(st) == [0, 1, 2, 3, 4]

    def test_isolated_pair_takes_low_side(self):
        g = generate_matched(1, 0.0, 0)
        st = flat(g)
        assert step9_pendant(st)
        assert st.cover_ids == {g.id_of("a1")}

    def test_requires_empty_adjacency(self):
        g = generate_matched(2, 0.0, 0, negative_edges=[("a1", "a2"), ("b1", "b2")])
        st = flat(g)
        assert not step9_pendant(st)


def _forcing_state(worked_example) -> MatchedState:
    """The worked example once steps 8 and 9 have fired and the ladder
    declines: five pairs, a1..b5, with fourteen forcing edges."""
    st = flat(worked_example)
    step8_merge(st)
    step9_pendant(st)
    return st


class TestForcingGraph:
    def test_worked_example_fourteen_edges(self, worked_example):
        st = _forcing_state(worked_example)
        all_edges = {(x, y) for x, succs in _forcing_edges_tolerant(st) for y in succs}
        assert len(all_edges) == 14
        fg = build_forcing_graph(st)
        assert [side_name(x) for x in fg.out_adj] == ["a1", "b2", "a3", "b4"]
        assert st.trace[-1] == TraceEntry(
            step=11, detail="built the forcing graph on 10 vertices with 14 edges"
        )
        walked = {(x, y) for x, succs in fg.out_adj.items() for y in succs}
        assert walked <= all_edges
        assert {(side_name(x), side_name(y)) for x, y in walked} == {
            ("a1", "b2"), ("b2", "a3"), ("b2", "a4"), ("a3", "b4"),
            ("b4", "a1"), ("b4", "a2"), ("b4", "b5"),
        }

    def test_single_cross_edge(self):
        g = generate_matched(2, 0.0, 0, negative_edges=[("a1", "a2")])
        st = flat(g)
        fg_pairs = {(side_name(x), side_name(y))
                    for x, succs in _forcing_edges_tolerant(st) for y in succs}
        assert fg_pairs == {("a1", "b2"), ("a2", "b1")}

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda neg: neg[0].add(0), "loop survived"),
            (lambda neg: neg[0].clear(), "degree-one vertex survived"),
            # a1 already sees a2; a symmetric edge to b2 is a second one
            (lambda neg: (neg[0].add(3), neg[3].add(0)), "two negative edges"),
            # a1~b5 recorded on a1's side only
            (lambda neg: neg[0].add(9), "forcing edges must mirror"),
        ],
        ids=["loop", "emptied", "second-edge-to-pair", "one-sided-edge"],
    )
    def test_corrupt_walked_vertex_rejected(self, worked_example, corrupt, message):
        st = _forcing_state(worked_example)
        corrupt(st.neg)
        with pytest.raises(AssertionError, match=message):
            build_forcing_graph(st)

    def test_vertex_off_the_walk_never_visited(self, worked_example):
        # a loop on a5, which the walk a1, b2, a3, b4 never reaches, goes
        # unseen; steps 5-6 guarantee there is none when the walk runs
        st = _forcing_state(worked_example)
        st.neg[8].add(8)
        fg = build_forcing_graph(st)
        assert 8 not in fg.out_adj
        assert [side_name(x) for x in fg.out_adj] == ["a1", "b2", "a3", "b4"]


def _forcing_edges_tolerant(st):
    """Forcing edges for states that may have degree-one vertices (test
    convenience only; the real builder asserts full preconditions)."""
    return [(x, tuple(sorted(nb ^ 1 for nb in st.neg[x]))) for x in st.neg]


class TestStep12:
    def test_worked_example_contraction(self, worked_example):
        st = _forcing_state(worked_example)
        fg = build_forcing_graph(st)
        assert step12_contract(st, fg)
        assert live_pairs(st) == [0, 4]
        assert st.recovery[0] == worked_example.ids_of({"a1", "b2", "a3", "b4"})
        assert st.recovery[1] == worked_example.ids_of({"b1", "a2", "b3", "a4"})
        assert st.has_loop(0)

    def test_self_mirror_cycle_gives_zero(self):
        # edges a1~a2 and b1~b2 are consumed by step 8 first, so drive the
        # overlap through a full run on a 2-pair instance after its merge
        g = generate_matched(2, 0.0, 0, negative_edges=[("a1", "a2"), ("b1", "b2")])
        truth = 1 if stable_positive_cover(g) is not None else 0
        result = maxdef(g, assume_chromatic_3=True, validate=True)
        assert result.value == truth

    def test_overlapping_cycle_detected(self):
        # 4-pair ring of forced decisions whose cycle hits both sides of a
        # pair: a1-a2, b2-a3, a3... build one and check the full run's value
        g = generate_matched(
            3,
            0.0,
            0,
            negative_edges=[("a1", "a2"), ("a2", "a3"), ("a3", "b1")],
        )
        truth = 1 if stable_positive_cover(g) is not None else 0
        result = maxdef(g, assume_chromatic_3=True, validate=True)
        assert result.value == truth


class TestMaxDefRuns:
    def test_worked_example(self, worked_example):
        result = maxdef(worked_example, assume_chromatic_3=True, validate=True)
        assert result.value == 1
        assert set(result.cover) == WORKED_COVER
        assert result.cover == ("b1", "a2", "b3", "a4", "a5", "a6", "a7")
        assert result.steps_fired == (8, 9, 11, 12, 6, 4, 10)
        assert result.terminating_step == 10
        ids = worked_example.ids_of(result.cover)
        assert is_stable(worked_example, ids)
        assert covers_positive(worked_example, ids)

    def test_chi_verified_recorded_outside_json(self, worked_example, triangle):
        assert maxdef(triangle).chi_verified
        assert not maxdef(triangle, assume_chromatic_3=True).chi_verified
        # Above the exhaustive bound a value-1 answer still proves chi = 3,
        # with the failed parity test; a value-0 answer does not.
        one = maxdef(build_graph(TRIANGLE_EDGES, vertices=PADDING))
        assert one.value == 1 and one.chi_verified
        zero = maxdef(build_graph(ALL_POSITIVE_TRIANGLE, vertices=PADDING))
        assert zero.value == 0 and not zero.chi_verified
        assert "chi_verified" not in zero.to_json()
        # the 14-vertex worked example is 2-chromatic: refused at any size
        with pytest.raises(NotThreeChromaticError, match="2-chromatic"):
            maxdef(worked_example)

    def test_checks_count_only_validated_batches(self, worked_example):
        assert maxdef(worked_example, assume_chromatic_3=True).checks == 0
        validated = maxdef(worked_example, assume_chromatic_3=True, validate=True)
        assert validated.checks == 7

    def test_dispatcher_validates_before_the_first_rule(
        self, monkeypatch, worked_example
    ):
        # a flattened state with a negative edge inside pair 1 is refused
        # before any rule, the forcing walk or step 12 sees it
        module = sys.modules["sigdef.maxdef"]

        def corrupt_flatten(g):
            st = flatten(g)
            st.neg[0].add(1)
            st.neg[1].add(0)
            return st

        called = []

        def recording(name):
            def wrapped(*args):
                called.append(name)

            return wrapped

        monkeypatch.setattr(module, "flatten", corrupt_flatten)
        for name in ("step3_check", "step4_resolve", "step5_check", "step6_resolve",
                     "step7_resolve", "step8_merge", "step9_pendant",
                     "build_forcing_graph", "step12_contract"):
            monkeypatch.setattr(module, name, recording(name))
        with pytest.raises(AssertionError, match="negative edge inside a matched pair"):
            maxdef(worked_example, assume_chromatic_3=True, validate=True)
        assert called == []

    def test_triangle(self, triangle):
        # w is dropped (negative-only), leaving the isolated pair {u, v};
        # canonical tie-breaking picks the low side, and either endpoint of
        # the positive edge is a valid cover on its own
        result = maxdef(triangle, validate=True)
        assert result.value == 1
        assert result.cover == ("u",)
        assert is_stable(triangle, triangle.ids_of(result.cover))
        assert covers_positive(triangle, triangle.ids_of(result.cover))
        assert max_deficiency_3chromatic(triangle) == 1

    def test_positive_triangle_with_pendant(self):
        g = build_graph(
            [("x", "y", "+"), ("y", "z", "+"), ("x", "z", "+"), ("x", "p", "-")]
        )
        result = maxdef(g, validate=True)
        assert result.value == 0
        assert result.terminating_step == 2
        assert max_deficiency_3chromatic(g) == 0

    def test_blocked_loop_regression(self, blocked_loop_graph):
        # one side forbidden, the partner looped: must answer 0, not commit
        # the looped partner
        assert chromatic_number(blocked_loop_graph) == 3
        assert stable_positive_cover(blocked_loop_graph) is None
        result = maxdef(blocked_loop_graph, validate=True)
        assert result.value == 0
        assert result.terminating_step == 3
        assert max_deficiency_3chromatic(blocked_loop_graph) == 0

    def test_chromatic_precondition_enforced_when_small(self):
        g = build_graph([("u", "v", "+")])
        with pytest.raises(NotThreeChromaticError):
            maxdef(g)
        assert maxdef(g, assume_chromatic_3=True).value == 1

    def test_no_positive_edge_refused_even_with_flag(self):
        g = build_graph([("u", "v", "-")])
        with pytest.raises(ValueError, match="no positive edge"):
            maxdef(g, assume_chromatic_3=True)

    def test_isolated_pairs_resolved_by_step9(self):
        g = generate_matched(4, 0.0, 0)
        result = maxdef(g, assume_chromatic_3=True, validate=True)
        assert result.value == 1
        assert result.steps_fired == (9, 9, 9, 9, 10)

    def test_terminates_at_step5_on_double_looped_pair(self):
        # positive C4 whose two sides each carry an internal negative edge:
        # the single flattened pair is looped on both sides
        g = build_graph(
            [("u1", "v1", "+"), ("u1", "v2", "+"), ("u2", "v1", "+"),
             ("u2", "v2", "+"), ("u1", "u2", "-"), ("v1", "v2", "-")]
        )
        result = maxdef(g, assume_chromatic_3=True, validate=True)
        assert result.value == 0
        assert result.terminating_step == 5
        assert stable_positive_cover(g) is None

    def test_terminates_at_step12_on_overlapping_cycle(self):
        # forced chain a1 -> a2 -> a3 -> b1 runs into a1's own partner, so
        # the walked cycle meets its mirror
        g = generate_matched(
            5,
            0.0,
            0,
            negative_edges=[
                ("a1", "b2"), ("a2", "b3"), ("a1", "a3"),
                ("b1", "b4"), ("a4", "b5"), ("b1", "a5"),
            ],
        )
        result = maxdef(g, assume_chromatic_3=True, validate=True)
        assert result.value == 0
        assert result.terminating_step == 12
        assert result.steps_fired == (11, 12)
        assert result.trace[-1] == TraceEntry(
            step=12,
            detail="forced cycle through a1, a2, a3, b1, a4, a5 meets its own "
            "mirror: no stable cover exists",
            pairs_removed=0,
            merges=(),
        )
        assert result.checks == 2  # one batch after flatten, one for the walk
        assert stable_positive_cover(g) is None

    def test_value_zero_terminating_steps(self):
        seen = set()
        import random

        from sigdef import generate_general

        rng = random.Random(9)
        for _ in range(600):
            g = generate_general(
                rng.randint(4, 9),
                rng.uniform(0.3, 0.9),
                rng.uniform(0.2, 0.9),
                rng.getrandbits(32),
            )
            if g.positive_edge_count == 0:
                continue
            result = maxdef(g, assume_chromatic_3=True, validate=True)
            if result.value == 0:
                seen.add(result.terminating_step)
            assert (result.terminating_step == 10) == (result.value == 1)
            assert result.value == 1 or result.terminating_step in {2, 3, 5, 12}
        assert {2, 3}.issubset(seen)

    def test_trace_is_machine_readable(self, worked_example):
        result = maxdef(worked_example, assume_chromatic_3=True)
        for entry in result.trace:
            payload = entry.to_json()
            assert set(payload) == {
                "step", "detail", "pairs_removed", "s_added", "b_added", "merges",
            }

    def test_result_and_trace_entries_read_only(self, worked_example):
        result = maxdef(worked_example, assume_chromatic_3=True)
        entry = result.trace[0]
        for value, field in ((result, "value"), (result, "trace"), (entry, "step")):
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            assert getattr(value, field) is before

    def test_results_compare_and_hash_by_value(self, worked_example):
        first = maxdef(worked_example, assume_chromatic_3=True)
        second = maxdef(worked_example, assume_chromatic_3=True)
        assert first == second
        assert hash(first) == hash(second)

    def test_results_pickle_and_copy_round_trip(self, worked_example):
        # one result whose trace is still unrendered, one already read
        unread = maxdef(worked_example, assume_chromatic_3=True)
        read = maxdef(worked_example, assume_chromatic_3=True)
        expected = read.trace
        for value in (unread, read):
            for clone in (
                pickle.loads(pickle.dumps(value)),
                copy.copy(value),
                copy.deepcopy(value),
            ):
                assert clone == value and clone is not value
                assert clone.trace == expected
                assert clone.steps_fired == value.steps_fired

    def test_trace_entry_defaults(self):
        entry = TraceEntry(step=9, detail="pendant")
        assert entry == TraceEntry(9, "pendant", 0, (), (), ())
        assert hash(entry) == hash(TraceEntry(9, "pendant"))
        assert entry.to_json() == {
            "step": 9, "detail": "pendant", "pairs_removed": 0,
            "s_added": [], "b_added": [], "merges": [],
        }


class TestLiveOrder:
    def test_keys_out_of_ascending_order_rejected(self, worked_example):
        st = flat(worked_example)
        st.neg = dict(reversed(st.neg.items()))
        with pytest.raises(AssertionError, match="ascending order"):
            st.check_invariants()


class TestCandidateSets:
    @pytest.mark.parametrize(
        "edges, forbid, step, x",
        [
            ((7, WORKED_NEGATIVE), [8, 9], 3, 8),  # a5 and b5 forbidden
            ((7, WORKED_NEGATIVE), [9], 4, 9),  # b5 forbidden
            (LOOPED_PATH + [("v", "x", "-")], [], 5, 0),  # loops on a1 and b1
            (LOOPED_PATH, [], 6, 0),  # a1 carries a loop
            ((2, [("a1", "a2"), ("a1", "b2")]), [], 7, 0),  # a1 sees both of pair 2
            ((7, WORKED_NEGATIVE), [], 8, 10),  # a6~b7 and b6~a7
            ((1, []), [], 9, 0),  # a1 is pendant
        ],
        ids=[f"step{k}" for k in range(3, 10)],
    )
    def test_candidate_missing_from_queue_rejected(self, edges, forbid, step, x):
        # edges: (pairs, negative edges) of a matched graph, or named edges
        if isinstance(edges, tuple):
            st = flat(generate_matched(edges[0], 0.0, 0, negative_edges=edges[1]))
        else:
            st = flat(build_graph(edges))
        _forbid(st, forbid)
        st.check_invariants()
        # remove every copy: step 3 queues both sides of a forbidden id
        st.queues[step] = [y for y in st.queues[step] if y != x]
        message = rf"step-{step} queue misses candidates \[{x}\]"
        with pytest.raises(AssertionError, match=message):
            st.check_invariants()

    def test_degree_sum_out_of_sync_rejected(self, worked_example):
        st = flat(worked_example)
        st.degree_sum += 1
        with pytest.raises(AssertionError, match="degree-sum counter out of sync"):
            st.check_invariants()

    def test_thousand_pair_validated_run(self):
        # about a thousand actions, each followed by the full invariant batch
        g = planted(1000, seed=0)
        validated = maxdef(g, assume_chromatic_3=True, validate=True)
        assert validated.value == 1
        assert validated.checks > 900
        assert {4, 7, 8, 9, 12} <= set(validated.steps_fired)
        assert validated.trace == maxdef(g, assume_chromatic_3=True).trace


class TestChecksSurviveOptimize:
    def test_corrupt_state_raises_under_python_O(self):
        # A negative edge inside a matched pair must be caught even when
        # ``python -O`` strips assert statements.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import sigdef

        script = (
            "from sigdef import build_graph\n"
            "from sigdef.maxdef import flatten\n"
            "st = flatten(build_graph([('a1', 'b1', '+'), ('a2', 'b2', '+'),"
            " ('a1', 'a2', '-')]))\n"
            "st.neg[0].add(1)\n"
            "st.neg[1].add(0)\n"
            "try:\n"
            "    st.check_invariants()\n"
            "except AssertionError as exc:\n"
            "    print(__debug__, exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sigdef.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False negative edge inside a matched pair\n"


class TestGadgetFamily:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_agrees_with_oracle_one_copy_per_round(self, k):
        g = gadget_copies(k)
        result = maxdef(g, assume_chromatic_3=True, validate=True)
        truth = 1 if stable_positive_cover(g) is not None else 0
        assert result.value == truth
        assert result.steps_fired == (11, 12, 8, 9) * k + (10,)

    def test_hundred_copies(self):
        result = maxdef(gadget_copies(100), assume_chromatic_3=True, validate=True)
        assert result.value == 1

    def test_forcing_entries_count_the_copies_left(self):
        # each copy has 8 vertices and 5 negative edges (degree sum 10), and
        # each round removes one copy
        k = 5
        result = maxdef(gadget_copies(k), assume_chromatic_3=True, validate=True)
        assert [entry.detail for entry in result.trace if entry.step == 11] == [
            f"built the forcing graph on {8 * c} vertices with {10 * c} edges"
            for c in range(k, 0, -1)
        ]

    def test_log_log_slope_at_most_1_2(self):
        # Re-summing the degrees of all live ids for every step-11 entry
        # made this family grow with slope 1.42.  Timed as the planted gate
        # in test_acceptance.py: interleaved rounds, best of 3 in this
        # process's CPU time, the cyclic collector paused.
        sizes = (1000, 2000, 4000, 8000, 16000)
        graphs = [gadget_copies(pairs // 4) for pairs in sizes]
        runs = [functools.partial(maxdef, g, assume_chromatic_3=True) for g in graphs]
        best = [math.inf] * len(sizes)
        for i, result, elapsed in cpu_timed_rounds(runs):
            assert result.value == 1
            best[i] = min(best[i], elapsed)
        slope = statistics.linear_regression(
            [math.log(p) for p in sizes], [math.log(t) for t in best]
        ).slope
        timings = ", ".join(f"{p}p={t:.3f}s" for p, t in zip(sizes, best))
        assert slope <= 1.2, f"gadget log-log slope {slope:.2f}: {timings}"

    def test_four_thousand_pairs_under_half_a_second(self):
        # Every round walks the forcing digraph; rebuilding all of it each
        # round made this run take seconds.  Best of 3 in this process's
        # CPU time with the cyclic collector paused, as the planted gate in
        # test_acceptance.py times it.
        g = gadget_copies(1000)

        def run():
            assert maxdef(g, assume_chromatic_3=True).value == 1

        best = best_cpu_seconds(run)
        assert best < 0.5, f"4000 gadget pairs took {best:.3f}s"


class TestForbidStar:
    @pytest.mark.parametrize("blocked", [False, True])
    @pytest.mark.parametrize("n", [3, 4, 10, 20])
    def test_agrees_with_oracle(self, n, blocked):
        g = forbid_star(n, blocked)
        result = maxdef(g, assume_chromatic_3=True, validate=True)
        truth = 1 if stable_positive_cover(g) is not None else 0
        assert result.value == truth == (0 if blocked else 1)
        if blocked:
            assert result.steps_fired == (7, 3)
        else:
            assert result.steps_fired == (7,) + (4,) * (n - 2) + (9, 10)

    def test_four_thousand_pairs_under_half_a_second(self):
        # One commit forbids about 4000 ids; rescanning the forbidden set on
        # every pass made this run take seconds.
        g = forbid_star(4000)

        def run():
            assert maxdef(g, assume_chromatic_3=True).value == 1

        best = best_cpu_seconds(run)
        assert best < 0.5, f"4000 star pairs took {best:.3f}s"


class TestLoopFamily:
    @pytest.mark.parametrize(
        "n, both", [(1, False), (2, False), (3, False), (4, False),
                    (1, True), (2, True), (3, True)]
    )
    def test_agrees_with_oracle(self, n, both):
        g = loop_family(n, both)
        result = maxdef(g, assume_chromatic_3=True, validate=True)
        truth = 1 if stable_positive_cover(g) is not None else 0
        assert result.value == truth == (0 if both else 1)
        if both:
            assert result.steps_fired == (2, 5)
        else:
            assert result.steps_fired == (2,) + (6,) * n + (10,)

    def test_four_thousand_pairs_under_half_a_second(self):
        # About 4000 flatten-made loops; rescanning the looped ids on every
        # pass made this run take seconds.
        g = loop_family(4000)

        def run():
            assert maxdef(g, assume_chromatic_3=True).value == 1

        best = best_cpu_seconds(run)
        assert best < 0.5, f"4000 looped pairs took {best:.3f}s"


class TestTailFamily:
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_cycle_lies_past_the_walk_start(self, monkeypatch, length):
        import sys

        module = sys.modules["sigdef.maxdef"]
        rounds = []

        def recording_build(st):
            fg = build_forcing_graph(st)
            rounds.append([side_name(x) for x in fg.out_adj])
            return fg

        def recording_step12(st, fg):
            contracted = step12_contract(st, fg)
            detail = st.trace[-1].detail
            through = detail.split(" through ", 1)[1].split(" and its mirror")[0]
            rounds[-1] = (rounds[-1], through.split(", "))
            return contracted

        monkeypatch.setattr(module, "build_forcing_graph", recording_build)
        monkeypatch.setattr(module, "step12_contract", recording_step12)
        g = tail_family(length, length, seed=length)
        result = maxdef(g, assume_chromatic_3=True, validate=True)
        assert result.value == 1
        assert stable_positive_cover(g) is not None
        assert len(rounds) == length
        for walk, cycle in rounds:
            assert walk[0] == "a1"
            assert "a1" not in cycle
            assert walk[-len(cycle):] == cycle

    def test_edge_order_leaves_the_trace_alone(self):
        traces = {maxdef(tail_family(3, 2, seed), assume_chromatic_3=True).trace
                  for seed in range(4)}
        assert len(traces) == 1


class TestCoverOracleAtScale:
    # The 2-SAT cover oracle has no size bound, so the ladder is held
    # against it on every family at 16k pairs or more (tail: 4000 pairs).
    @pytest.mark.parametrize(
        "make, value",
        [
            (lambda: planted(16000, 1), 1),
            (lambda: gadget_copies(4000), 1),
            (lambda: tail_family(999, 250, 1), 1),
            (lambda: forbid_star(16000), 1),
            (lambda: forbid_star(16000, blocked=True), 0),
            (lambda: loop_family(16000), 1),
            (lambda: loop_family(16000, both=True), 0),
        ],
        ids=["planted", "gadget", "tail", "star", "star-blocked", "loop", "loop-both"],
    )
    def test_agrees_with_maxdef(self, make, value):
        g = make()
        truth = 1 if stable_positive_cover(g) is not None else 0
        assert maxdef(g, assume_chromatic_3=True).value == truth == value


class TestThresholdFamily:
    def test_agrees_with_oracle_at_the_2sat_threshold(self):
        # 90 seeded matched graphs of 200, 500 and 2000 pairs with 0.8-1.2
        # negative edges per pair: both answers occur, and some zeros are
        # only found by the forcing walk of steps 11-12.
        rng = random.Random(7)
        outcomes = set()
        for index in range(90):
            pairs = (200, 500, 2000)[index % 3]
            g = threshold_matched(pairs, rng.uniform(0.8, 1.2), rng.getrandbits(32))
            result = maxdef(g, assume_chromatic_3=True)
            truth = 1 if stable_positive_cover(g) is not None else 0
            assert result.value == truth, index
            outcomes.add((result.value, result.terminating_step))
        assert {value for value, _ in outcomes} == {0, 1}
        assert (0, 12) in outcomes


class TestDispatch:
    def test_rules_asked_only_when_their_queue_holds_work(self, monkeypatch):
        # planted(4000, 1) takes 3999 actions, nearly all step-9 commits;
        # asking all seven rules on every pass made 27,986 rule calls.
        module = sys.modules["sigdef.maxdef"]
        calls = dict.fromkeys(range(3, 10), 0)
        fires = dict.fromkeys(range(3, 10), 0)

        def counting(step, rule):
            def wrapped(st):
                found = rule(st)
                calls[step] += 1
                fires[step] += found is not None and found is not False
                return found

            return wrapped

        names = {3: "step3_check", 4: "step4_resolve", 5: "step5_check",
                 6: "step6_resolve", 7: "step7_resolve", 8: "step8_merge",
                 9: "step9_pendant"}
        for step, name in names.items():
            monkeypatch.setattr(module, name, counting(step, getattr(module, name)))
        result = maxdef(planted(4000, 1), assume_chromatic_3=True)
        assert result.value == 1
        # every firing call goes through the module attributes
        traced = {step: result.steps_fired.count(step) for step in names}
        assert fires == traced
        assert sum(calls.values()) <= 1.1 * len(result.trace), calls


class TestOneEntryPerOutcome:
    """Every routine that decides an outcome records its own trace entry:
    one per fire of steps 3-9, one per forcing build (step 11), and one per
    step-12 call, whether it contracts or refutes."""

    def test_each_deciding_call_appends_its_own_entry(self, monkeypatch):
        import random
        import sys

        module = sys.modules["sigdef.maxdef"]
        seen: set[int] = set()

        def recording(step, rule):
            def wrapped(st, *args):
                before = len(st.trace)
                found = rule(st, *args)
                fired = found is not None and found is not False
                added = [entry.step for entry in st.trace[before:]]
                assert added == ([step] if fired or step in (11, 12) else [])
                if added:
                    seen.add(step)
                return found

            return wrapped

        names = {3: "step3_check", 4: "step4_resolve", 5: "step5_check",
                 6: "step6_resolve", 7: "step7_resolve", 8: "step8_merge",
                 9: "step9_pendant", 11: "build_forcing_graph",
                 12: "step12_contract"}
        for step, name in names.items():
            monkeypatch.setattr(module, name, recording(step, getattr(module, name)))
        rng = random.Random(8)
        graphs = [planted(60, seed) for seed in range(4)] + [gadget_copies(3)]
        graphs += [
            generate_matched(rng.randint(2, 20), rng.uniform(0.0, 0.3), seed)
            for seed in range(300)
        ]
        graphs += [
            generate_general(rng.randint(4, 12), rng.uniform(0.2, 0.6),
                             rng.uniform(0.2, 0.8), seed)
            for seed in range(300)
        ]
        for g in graphs:
            if not g.positive_edge_count:
                continue
            result = maxdef(g, assume_chromatic_3=True)
            assert result.trace[-1].step == result.terminating_step
        assert seen == set(names)
