"""Core data model: construction, properness, deficiency, switching,
stability, and the 2-chromatic classifier."""

from __future__ import annotations

import copy
import pickle

import pytest

from sigdef import (
    Coloration,
    SignedGraph,
    TwoChromaticCase,
    build_graph,
    chromatic_number,
    classify_two_chromatic,
    coloration_from_cover,
    covers_positive,
    deficiency,
    is_proper,
    is_stable,
    switch,
    switch_coloration,
)

from conftest import WORKED_COVER


def kappa(g, mapping, k=1, uses_zero=True):
    return Coloration.from_labels(g, mapping, k=k, uses_zero=uses_zero)


class TestBuildGraph:
    def test_single_positive_edge(self):
        g = build_graph([("u", "v", "+")])
        assert g.n == 2
        assert list(g.positive_edges()) == [(0, 1)]
        assert list(g.negative_edges()) == []

    def test_duplicate_same_sign_collapses(self):
        g1 = build_graph([("u", "v", "+")])
        g2 = build_graph([("u", "v", "+"), ("u", "v", "+")])
        assert g1 == g2

    def test_triangle_shape(self, triangle):
        assert triangle.n == 3
        assert triangle.positive_edge_count == 1
        assert triangle.negative_edge_count == 2

    def test_loop_rejected_with_label(self):
        with pytest.raises(ValueError, match="'x'"):
            build_graph([("x", "x", "+")])

    def test_opposite_sign_pair_kept(self):
        g = build_graph([("u", "v", "+"), ("u", "v", "-")])
        assert g.positive_edge_count == 1
        assert g.negative_edge_count == 1
        assert g.has_opposite_pair()

    def test_adjacency_symmetric_and_sorted(self):
        g = build_graph([("c", "a", "-"), ("c", "b", "-"), ("a", "b", "+")])
        for v in range(g.n):
            assert list(g.pos_adj[v]) == sorted(g.pos_adj[v])
            for u in g.pos_adj[v]:
                assert v in g.pos_adj[u]
            for u in g.neg_adj[v]:
                assert v in g.neg_adj[u]

    def test_isolated_vertices_via_vertices_arg(self):
        g = build_graph([("a", "b", "+")], vertices=["z", "a"])
        assert g.labels == ("z", "a", "b")


class TestValueSemantics:
    def test_graph_equality_and_hash_ignore_index(self, triangle):
        rebuilt = SignedGraph(triangle.labels, triangle.pos_adj, triangle.neg_adj)
        scrambled = SignedGraph(
            labels=triangle.labels,
            pos_adj=triangle.pos_adj,
            neg_adj=triangle.neg_adj,
            _index={"elsewhere": 7},
        )
        assert rebuilt._index == {"u": 0, "v": 1, "w": 2}
        for other in (rebuilt, scrambled):
            assert other == triangle
            assert hash(other) == hash(triangle)
        assert len({triangle, rebuilt, scrambled}) == 1
        assert triangle != switch(triangle, {2})
        assert triangle != (triangle.labels, triangle.pos_adj, triangle.neg_adj)

    def test_coloration_equal_and_hash_equal_for_equal_fields(self):
        kap = Coloration((1, -1), k=1, uses_zero=True)
        same = Coloration((1, -1), 1, True)
        assert kap == same and hash(kap) == hash(same)
        assert kap.colors == (1, -1) and kap.k == 1 and kap.uses_zero is True
        others = [
            Coloration((1, -1), k=1),
            Coloration((1, -1), k=2, uses_zero=True),
            Coloration((-1, 1), k=1, uses_zero=True),
        ]
        assert all(kap != other for other in others)
        assert len({kap, same, *others}) == 4

    def test_pickle_and_copy_round_trip(self, triangle):
        kap = Coloration((1, -1, 0), k=1, uses_zero=True)
        for value in (triangle, kap):
            for clone in (
                pickle.loads(pickle.dumps(value)),
                copy.copy(value),
                copy.deepcopy(value),
            ):
                assert clone == value and clone is not value
        assert pickle.loads(pickle.dumps(triangle)).id_of("w") == 2

    def test_fields_read_only(self, triangle):
        kap = Coloration((1, 0, 1), k=1, uses_zero=True)
        for value, field in (
            (triangle, "labels"),
            (triangle, "neg_adj"),
            (triangle, "_index"),
            (kap, "colors"),
            (kap, "uses_zero"),
        ):
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before


class TestIsProper:
    def test_triangle_deficiency0_coloration(self, triangle):
        assert is_proper(triangle, kappa(triangle, {"u": 1, "v": -1, "w": 0}))

    def test_triangle_deficiency1_coloration(self, triangle):
        assert is_proper(triangle, kappa(triangle, {"u": 1, "v": 0, "w": 1}))

    def test_sign_semantics(self):
        neg_edge = build_graph([("u", "v", "-")])
        assert is_proper(neg_edge, kappa(neg_edge, {"u": 1, "v": 1}))
        pos_edge = build_graph([("u", "v", "+")])
        assert not is_proper(pos_edge, kappa(pos_edge, {"u": 1, "v": 1}))

    def test_negative_edge_rejects_opposite_colors(self):
        g = build_graph([("u", "v", "-")])
        assert not is_proper(g, kappa(g, {"u": 1, "v": -1}))

    def test_coverage_required(self, triangle):
        with pytest.raises(ValueError):
            is_proper(triangle, Coloration((1, -1), k=1, uses_zero=True))


class TestDeficiency:
    def test_zero_deficiency(self):
        count, unused = deficiency(Coloration((1, -1, 0), k=1, uses_zero=True))
        assert (count, unused) == (0, frozenset())

    def test_one_unused_color(self):
        count, unused = deficiency(Coloration((1, 0, 1), k=1, uses_zero=True))
        assert (count, unused) == (1, frozenset({-1}))

    def test_all_same_color_without_zero(self):
        count, unused = deficiency(Coloration((1, 1), k=1, uses_zero=False))
        assert (count, unused) == (1, frozenset({-1}))

    def test_invariant_count_plus_used_is_size(self):
        kap = Coloration((2, -1, 2, 0), k=2, uses_zero=True)
        count, _ = deficiency(kap)
        assert count + len(kap.used()) == kap.size

    def test_malformed_colorations_rejected(self):
        with pytest.raises(ValueError):
            Coloration((2,), k=1, uses_zero=True)
        with pytest.raises(ValueError):
            Coloration((0,), k=1, uses_zero=False)


class TestSwitch:
    def test_empty_set_is_identity(self, triangle):
        assert switch(triangle, frozenset()) == triangle

    def test_involution(self, triangle):
        A = {triangle.id_of("u"), triangle.id_of("w")}
        assert switch(switch(triangle, A), A) == triangle

    def test_triangle_switch_w_makes_all_positive(self, triangle):
        switched = switch(triangle, {triangle.id_of("w")})
        assert switched.negative_edge_count == 0
        assert switched.positive_edge_count == 3
        assert chromatic_number(switched) == chromatic_number(triangle) == 3

    def test_unknown_vertex_rejected(self, triangle):
        with pytest.raises(ValueError):
            switch(triangle, {99})


class TestSwitchColoration:
    def test_zero_is_fixed_point(self, triangle):
        kap = kappa(triangle, {"u": 1, "v": -1, "w": 0})
        out = switch_coloration(kap, {triangle.id_of("w")})
        assert out.colors[triangle.id_of("w")] == 0

    def test_empty_set_is_identity(self, triangle):
        kap = kappa(triangle, {"u": 1, "v": -1, "w": 0})
        assert switch_coloration(kap, frozenset()) == kap

    def test_switched_coloration_proper_on_switched_graph(self, triangle):
        kap = kappa(triangle, {"u": 1, "v": -1, "w": 0})
        A = {triangle.id_of("v")}
        out = switch_coloration(kap, A)
        assert out.colors == (1, 1, 0)
        assert is_proper(switch(triangle, A), out)


class TestClassifyTwoChromatic:
    def test_connected_all_negative(self):
        g = build_graph([("u", "v", "-")])
        assert classify_two_chromatic(g) is TwoChromaticCase.M1m1

    def test_contains_positive_edge(self):
        g = build_graph([("u", "v", "+")])
        assert classify_two_chromatic(g) is TwoChromaticCase.M0m0

    def test_disconnected_all_negative(self):
        g = build_graph([("u", "v", "-"), ("x", "y", "-")])
        assert classify_two_chromatic(g) is TwoChromaticCase.M1m0

    def test_case_deficiencies(self):
        assert (TwoChromaticCase.M1m1.max_deficiency,
                TwoChromaticCase.M1m1.min_deficiency) == (1, 1)
        assert (TwoChromaticCase.M0m0.max_deficiency,
                TwoChromaticCase.M0m0.min_deficiency) == (0, 0)
        assert (TwoChromaticCase.M1m0.max_deficiency,
                TwoChromaticCase.M1m0.min_deficiency) == (1, 0)


class TestStabilityAndCover:
    def test_worked_example_cover(self, worked_example):
        ids = worked_example.ids_of(WORKED_COVER)
        assert is_stable(worked_example, ids)
        assert covers_positive(worked_example, ids)

    def test_empty_set(self, worked_example):
        assert is_stable(worked_example, frozenset())
        assert not covers_positive(worked_example, frozenset())
        no_pos = build_graph([("u", "v", "-")])
        assert covers_positive(no_pos, frozenset())

    def test_negative_edge_breaks_stability(self, worked_example):
        ids = worked_example.ids_of({"a1", "a2"})
        assert not is_stable(worked_example, ids)


class TestColorationFromCover:
    def test_worked_example(self, worked_example):
        kap = coloration_from_cover(worked_example, worked_example.ids_of(WORKED_COVER))
        assert is_proper(worked_example, kap)
        assert deficiency(kap) == (1, frozenset({-1}))
        assert kap.used() == frozenset({0, 1})

    def test_triangle_cover_v(self, triangle):
        kap = coloration_from_cover(triangle, {triangle.id_of("v")})
        assert kap.colors == (1, 0, 1)
        assert is_proper(triangle, kap)

    def test_empty_graph(self):
        g = build_graph([])
        kap = coloration_from_cover(g, frozenset())
        assert kap.colors == ()

    def test_unstable_cover_rejected(self, worked_example):
        with pytest.raises(ValueError, match="not stable"):
            coloration_from_cover(worked_example, worked_example.ids_of({"a1", "a2"}))

    def test_uncovered_positive_edge_rejected(self, triangle):
        with pytest.raises(ValueError, match="uncovered"):
            coloration_from_cover(triangle, frozenset())


class TestRefusals:
    def test_unknown_edge_sign(self):
        with pytest.raises(ValueError, match="edge sign"):
            build_graph([("u", "v", "x")])

    def test_negative_color_scale(self):
        with pytest.raises(ValueError, match="non-negative"):
            Coloration((), -1)

    def test_from_labels_missing_vertex(self, triangle):
        with pytest.raises(ValueError, match="missing"):
            Coloration.from_labels(triangle, {"u": 1, "v": 0}, k=1, uses_zero=True)

    def test_switch_coloration_unknown_id(self, triangle):
        kap = kappa(triangle, {"u": 1, "v": -1, "w": 0})
        with pytest.raises(ValueError, match="99"):
            switch_coloration(kap, {99})
