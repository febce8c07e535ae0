"""The .sg format, the seeded generators, and DOT export."""

from __future__ import annotations

import pytest

from sigdef import (
    SgParseError,
    build_graph,
    export_dot,
    generate_general,
    generate_matched,
    maxdef,
    parse_sg,
    serialize_sg,
    stable_positive_cover,
)

from conftest import WORKED_COVER


class TestParse:
    def test_triangle(self, triangle):
        g = parse_sg("e u v +\ne u w -\ne v w -")
        assert g == triangle

    def test_empty_input(self):
        g = parse_sg("")
        assert g.n == 0

    def test_comments_and_blank_lines(self):
        g = parse_sg("# header\n\nv x\ne x y +  # trailing\n")
        assert g.labels == ("x", "y")

    def test_loop_rejected_with_line_number(self):
        with pytest.raises(SgParseError, match="line 1"):
            parse_sg("e u u +")

    def test_malformed_line_reports_number(self):
        with pytest.raises(SgParseError, match="line 2"):
            parse_sg("e a b +\ne a b\n")
        with pytest.raises(SgParseError, match="line 1"):
            parse_sg("edge a b +")
        with pytest.raises(SgParseError, match="line 1"):
            parse_sg("e a b *")
        with pytest.raises(SgParseError, match="line 3: expected 'v <label>'"):
            parse_sg("# c\ne a b + # c\nv\n")

    def test_duplicate_same_sign_warns_and_collapses(self):
        with pytest.warns(UserWarning, match="1 duplicate"):
            g = parse_sg("e a b +\ne b a +\n")
        assert g.positive_edge_count == 1

    def test_opposite_signs_both_kept(self):
        g = parse_sg("e a b +\ne a b -\n")
        assert g.positive_edge_count == 1
        assert g.negative_edge_count == 1

    def test_declared_labels_numbered_first(self):
        # a v line after the edges still numbers its label ahead of the
        # edge endpoints, which follow in order of first appearance
        assert parse_sg("e x y +\nv z\n").labels == ("z", "x", "y")
        assert parse_sg("e x y +\nv y\n").labels == ("y", "x")
        g = parse_sg("v a\ne x y +\ne y a -\nv z\nv x\ne z q +\n")
        assert g == build_graph(
            [("x", "y", "+"), ("y", "a", "-"), ("z", "q", "+")],
            vertices=["a", "z", "x"],
        )
        assert g.labels == ("a", "z", "x", "y", "q")
        assert [g.id_of(lab) for lab in g.labels] == list(range(g.n))


class TestRoundTrip:
    def test_triangle_round_trip(self, triangle):
        assert parse_sg(serialize_sg(triangle)) == triangle

    def test_generated_graphs_round_trip(self):
        for seed in range(10):
            g = generate_matched(4, 0.3, seed)
            assert parse_sg(serialize_sg(g)) == g
            h = generate_general(6, 0.5, 0.5, seed, double_prob=0.1)
            assert parse_sg(serialize_sg(h)) == h

    def test_isolated_vertices_survive(self):
        g = build_graph([("a", "b", "-")], vertices=["z"])
        assert parse_sg(serialize_sg(g)) == g

    def test_whitespace_label_rejected(self):
        g = build_graph([("a b", "c", "+")])
        with pytest.raises(ValueError):
            serialize_sg(g)

    def test_hash_label_rejected(self):
        # parse_sg reads '#' as the start of a comment, so such a label
        # cannot come back: 'v#1' would return as 'v', and 'e a#b c +'
        # would lose its last two fields
        isolated = build_graph([("x", "c", "+")], vertices=["v#1"])
        endpoint = build_graph([("a#b", "c", "+")])
        for g in (isolated, endpoint):
            with pytest.raises(ValueError, match="cannot be written"):
                serialize_sg(g)


class TestGenerateMatched:
    def test_shape(self):
        g = generate_matched(7, 0.0, 0)
        assert g.n == 14
        assert g.positive_edge_count == 7
        assert g.negative_edge_count == 0
        assert g.labels[:4] == ("a1", "b1", "a2", "b2")

    def test_deterministic_per_seed(self):
        assert generate_matched(6, 0.3, 42) == generate_matched(6, 0.3, 42)
        assert generate_matched(6, 0.3, 42) != generate_matched(6, 0.3, 43)

    def test_frozen_seed_snapshot(self):
        # pins cross-platform reproducibility of the sampling order
        g = generate_matched(3, 0.5, 7)
        assert sorted(
            (g.labels[u], g.labels[v]) for u, v in g.negative_edges()
        ) == [
            ("a1", "a2"), ("a1", "b2"), ("a1", "b3"),
            ("a2", "a3"), ("a2", "b3"),
            ("b1", "a3"), ("b1", "b2"),
            ("b2", "a3"), ("b2", "b3"),
        ]

    def test_no_intra_pair_negatives(self):
        g = generate_matched(5, 1.0, 1)
        for u, v in g.negative_edges():
            assert u >> 1 != v >> 1

    def test_override_builds_exact_fixture(self, worked_example):
        from conftest import WORKED_NEGATIVE

        g = generate_matched(7, 0.0, 0, negative_edges=WORKED_NEGATIVE)
        assert g == worked_example

    def test_p_zero_maxdef_one(self):
        g = generate_matched(5, 0.0, 0)
        result = maxdef(g, assume_chromatic_3=True)
        assert result.value == 1

    def test_matched_crosscheck_at_twenty_pairs(self):
        g = generate_matched(20, 0.1, 1)
        truth = 1 if stable_positive_cover(g) is not None else 0
        assert maxdef(g, assume_chromatic_3=True, validate=True).value == truth

    def test_large_generation_deterministic(self):
        g = generate_matched(50, 0.1, 1)
        assert g.n == 100
        assert g.negative_edge_count == generate_matched(50, 0.1, 1).negative_edge_count

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_matched(0, 0.1, 1)
        with pytest.raises(ValueError):
            generate_matched(3, 1.5, 1)


class TestGenerateGeneral:
    def test_deterministic_per_seed(self):
        assert generate_general(8, 0.4, 0.5, 5) == generate_general(8, 0.4, 0.5, 5)

    def test_double_edges_appear(self):
        g = generate_general(8, 1.0, 0.5, 3, double_prob=1.0)
        assert g.has_opposite_pair()

    def test_zero_vertices(self):
        assert generate_general(0, 0.5, 0.5, 1).n == 0


class TestExportDot:
    def test_triangle_shape(self, triangle):
        dot = export_dot(triangle)
        assert dot.count("--") == 3
        assert dot.count("[style=dashed]") == 2
        assert dot.startswith("graph ")

    def test_empty_graph_empty_body(self):
        dot = export_dot(build_graph([]))
        assert dot == "graph signed {\n}\n"

    def test_cover_highlight_boxes(self, worked_example):
        dot = export_dot(worked_example, worked_example.ids_of(WORKED_COVER))
        assert dot.count("[shape=box]") == 7

    def test_quoting(self):
        g = build_graph([('he"llo', "world", "+")])
        dot = export_dot(g)
        assert '"he\\"llo"' in dot


class TestRefusals:
    def test_vertex_line_with_extra_field(self):
        with pytest.raises(SgParseError, match="line 1"):
            parse_sg("v a b")

    def test_general_generator_arguments(self):
        with pytest.raises(ValueError, match="non-negative"):
            generate_general(-1, 0.5, 0.5, 1)
        with pytest.raises(ValueError, match="edge_prob"):
            generate_general(3, 1.5, 0.5, 1)

    def test_dot_highlight_of_unknown_id(self, triangle):
        with pytest.raises(ValueError, match="99"):
            export_dot(triangle, {99})
