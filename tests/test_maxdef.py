"""The maximum-deficiency decision procedure: flattening, the individual
rule steps, the forcing graph, and whole runs against the oracle."""

from __future__ import annotations

import pytest

from sigdef import (
    NotBipartite,
    NotThreeChromaticError,
    build_forcing_graph,
    build_graph,
    chromatic_number,
    covers_positive,
    generate_matched,
    is_stable,
    max_deficiency_3chromatic,
    maxdef,
    stable_positive_cover,
)
from sigdef.maxdef import (
    MatchedState,
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

from conftest import WORKED_COVER


def flat(g) -> MatchedState:
    state = flatten(g, validate=True)
    assert isinstance(state, MatchedState)
    return state


class TestFlatten:
    def test_worked_example_is_identity(self, worked_example):
        st = flat(worked_example)
        assert st.live_pairs() == list(range(7))
        assert all(len(r) == 1 for r in st.recovery.values())
        assert st.trace == []  # nothing dropped, nothing collapsed

    def test_all_positive_triangle_not_bipartite(self, all_positive_triangle):
        verdict = flatten(all_positive_triangle)
        assert isinstance(verdict, NotBipartite)
        assert set(verdict.component) == {"x", "y", "z"}

    def test_path_with_chord_gains_loop(self):
        # positive path u-v-w-x plus negative u~w: {u, w} collapse into one
        # side, whose internal negative edge becomes a loop
        g = build_graph(
            [("u", "v", "+"), ("v", "w", "+"), ("w", "x", "+"), ("u", "w", "-")]
        )
        st = flat(g)
        assert st.live_pairs() == [0]
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
        st.forbidden = {8, 9}  # both sides of pair 5
        assert step3_check(st) == 4

    def test_single_forbidden_side_is_fine(self, worked_example):
        st = flat(worked_example)
        st.forbidden = {9}  # b5 only
        assert step3_check(st) is None

    def test_empty_forbidden(self, worked_example):
        st = flat(worked_example)
        assert step3_check(st) is None

    def test_forbidden_side_with_looped_partner_blocks(self):
        # pair whose free side carries a loop is just as unusable
        g = build_graph(
            [("u", "v", "+"), ("v", "w", "+"), ("w", "x", "+"), ("u", "w", "-")]
        )
        st = flat(g)
        st.forbidden = {1}  # the loop sits on side 0
        assert step3_check(st) == 0

    def test_loop_only_pairs_left_to_step5(self):
        g = build_graph(
            [("u", "v", "+"), ("v", "w", "+"), ("w", "x", "+"), ("u", "w", "-")]
        )
        st = flat(g)
        assert step3_check(st) is None


class TestStep4:
    def test_worked_example_final_state(self, worked_example):
        # isolate pair 5 with b5 forbidden: a5 joins, the graph empties
        st = flat(worked_example)
        from sigdef.maxdef import _delete_pair

        for p in (0, 1, 2, 3, 5, 6):
            st.dropped |= st.recovery[2 * p] | st.recovery[2 * p + 1]
            _delete_pair(st, p)
        st.forbidden = {9}
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
        st.forbidden = {0}  # a1 forbidden: b1 joins, both pair-2 sides forbidden
        assert step4_resolve(st)
        assert st.forbidden == {2, 3}
        assert 0 not in st.forbidden and 1 not in st.forbidden


class TestSteps5And6:
    def looped_state(self):
        # two 3-vertex positive paths, each with one internal negative edge
        g = build_graph(
            [("u1", "v1", "+"), ("v1", "u2", "+"), ("u3", "v3", "+"), ("v3", "u4", "+"),
             ("u1", "u2", "-"), ("u3", "u4", "-")]
        )
        return g, flat(g)

    def test_step5_requires_both_loops(self):
        _, st = self.looped_state()
        assert step5_check(st) is None
        st.neg[1].add(1)  # loop the partner too
        st.neg[1] = set(st.neg[1])
        assert step5_check(st) == 0

    def test_step6_commits_partner(self):
        g, st = self.looped_state()
        assert step6_resolve(st)
        assert st.cover_ids == {g.id_of("v1")}
        assert st.live_pairs() == [1]

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
        assert st.live_pairs() == [1]

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
        assert st.live_pairs() == [1, 2]
        truth = 1 if stable_positive_cover(g) is not None else 0
        assert maxdef(g, assume_chromatic_3=True, validate=True).value == truth


class TestStep8:
    def test_worked_example_merges_pairs_6_and_7(self, worked_example):
        st = flat(worked_example)
        assert step8_merge(st)
        assert st.live_pairs() == [0, 1, 2, 3, 4, 5]
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
        assert st.live_pairs() == [0, 1, 2, 3, 4]

    def test_isolated_pair_takes_low_side(self):
        g = generate_matched(1, 0.0, 0)
        st = flat(g)
        assert step9_pendant(st)
        assert st.cover_ids == {g.id_of("a1")}

    def test_requires_empty_adjacency(self):
        g = generate_matched(2, 0.0, 0, negative_edges=[("a1", "a2"), ("b1", "b2")])
        st = flat(g)
        assert not step9_pendant(st)


class TestForcingGraph:
    def test_worked_example_fourteen_edges(self, worked_example):
        st = flat(worked_example)
        step8_merge(st)
        step9_pendant(st)
        fg = build_forcing_graph(st)
        edges = {(x, y) for x, succs in fg.out_adj.items() for y in succs}
        assert len(edges) == 14
        name = {x: side_name(x) for x in fg.out_adj}
        named = {(name[x], name[y]) for x, y in edges}
        assert named == {
            ("a1", "b2"), ("a2", "b1"),
            ("b4", "a1"), ("b1", "a4"),
            ("b2", "a3"), ("b3", "a2"),
            ("a2", "a5"), ("b5", "b2"),
            ("b2", "a4"), ("b4", "a2"),
            ("a3", "b4"), ("a4", "b3"),
            ("b4", "b5"), ("a5", "a4"),
        }

    def test_single_cross_edge(self):
        g = generate_matched(2, 0.0, 0, negative_edges=[("a1", "a2")])
        st = flat(g)
        fg_pairs = {(side_name(x), side_name(y))
                    for x, succs in _forcing_edges_tolerant(st) for y in succs}
        assert fg_pairs == {("a1", "b2"), ("a2", "b1")}

    def test_mirror_symmetry(self):
        for seed in range(20):
            g = generate_matched(4, 0.35, seed)
            st = flatten(g)
            assert isinstance(st, MatchedState)
            if any(st.has_loop(x) or not st.neg[x] for x in st.neg):
                continue
            if any(
                len({nb >> 1 for nb in st.neg[x]}) != len(st.neg[x]) for x in st.neg
            ):
                continue
            fg = build_forcing_graph(st)
            for x, succs in fg.out_adj.items():
                for y in succs:
                    assert (x ^ 1) in fg.out_adj[y ^ 1]


def _forcing_edges_tolerant(st):
    """Forcing edges for states that may have degree-one vertices (test
    convenience only; the real builder asserts full preconditions)."""
    return [(x, tuple(sorted(nb ^ 1 for nb in st.neg[x]))) for x in st.live_ids()]


class TestStep12:
    def test_worked_example_contraction(self, worked_example):
        st = flat(worked_example)
        step8_merge(st)
        step9_pendant(st)
        fg = build_forcing_graph(st)
        assert step12_contract(st, fg)
        assert st.live_pairs() == [0, 4]
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

    def test_checks_count_only_validated_batches(self, worked_example):
        assert maxdef(worked_example, assume_chromatic_3=True).checks == 0
        validated = maxdef(worked_example, assume_chromatic_3=True, validate=True)
        assert validated.checks == 7

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


class TestLiveOrder:
    def test_keys_out_of_ascending_order_rejected(self, worked_example):
        st = flat(worked_example)
        st.neg = dict(reversed(st.neg.items()))
        with pytest.raises(AssertionError, match="ascending order"):
            st.check_invariants()


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
            "    print(__debug__, st.checks, exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sigdef.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False 0 negative edge inside a matched pair\n"
