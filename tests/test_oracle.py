"""Oracle module: exhaustive chromatic numbers, deficiency reports, stable
covers, switching ranges, and the constructive deficiency achiever."""

from __future__ import annotations

import itertools
import random

import pytest

from sigdef import (
    BoundExceededError,
    Coloration,
    NotThreeChromaticError,
    achieve_switching_deficiency,
    build_graph,
    chromatic_number,
    deficiency,
    deficiency_report,
    generate_general,
    is_proper,
    is_stable,
    covers_positive,
    max_deficiency_3chromatic,
    recolor_lone_negative,
    stable_positive_cover,
    switch,
    switching_report,
)
from sigdef.cli import _crosscheck_instance
from sigdef.oracle import (
    _first_colorations,
    _later_neighbors,
    _parity_chromatic_number,
    canonical_color_order,
)

from conftest import (
    ALL_POSITIVE_TRIANGLE,
    PADDING,
    WORKED_COVER,
    best_cpu_seconds,
    reference_cover,
    reference_report,
)


def _brute_force_report(g):
    """Tests-only reference, sharing no search code with the oracle or with
    ``reference_report``: the smallest canonical set size with a proper
    coloration, and the first coloration of each deficiency in
    ``itertools.product`` order (vertex 0 most significant, colors in
    canonical scan order)."""
    for size in range(2 * g.n + 1):
        k, uses_zero = size // 2, bool(size % 2)
        first = {}
        for colors in itertools.product(canonical_color_order(size), repeat=g.n):
            kappa = Coloration(colors, k, uses_zero)
            if is_proper(g, kappa):
                first.setdefault(deficiency(kappa)[0], kappa)
        if first:
            return size, first
    raise AssertionError("2n distinct positive colors always properly color")


class TestChromaticNumber:
    def test_triangle(self, triangle):
        assert chromatic_number(triangle) == 3

    def test_single_negative_edge(self):
        # both endpoints colored 1 is proper over {+-1}; the 1-element set
        # {0} fails because 0 = -0
        assert chromatic_number(build_graph([("u", "v", "-")])) == 2

    def test_worked_example(self, worked_example):
        # despite appearances this graph is antibalanced: coloring each of
        # a1 a2 a3 a4 b5 b6 a7 with 1 and the rest with -1 is proper.  Any
        # edge rules out the one-color set {0}, so the graph is 2-chromatic.
        # The parity test answers at its 14 vertices, above the search's
        # bound; the test checks the coloring itself too.
        ones = {"a1", "a2", "a3", "a4", "b5", "b6", "a7"}
        mapping = {x: 1 if x in ones else -1 for x in worked_example.labels}
        kappa = Coloration.from_labels(worked_example, mapping, k=1)
        assert is_proper(worked_example, kappa)
        assert worked_example.positive_edge_count > 0
        assert chromatic_number(worked_example) == 2

    def test_empty_and_edgeless(self):
        assert chromatic_number(build_graph([])) == 0
        assert chromatic_number(build_graph([], vertices=["x", "y"])) == 1

    def test_opposite_pair_needs_three(self):
        g = build_graph([("u", "v", "+"), ("u", "v", "-")])
        assert chromatic_number(g) == 3

    def test_bound_refusal(self):
        # chi = 3 needs the search, which refuses 13 vertices
        g = build_graph(ALL_POSITIVE_TRIANGLE, vertices=PADDING)
        with pytest.raises(
            BoundExceededError, match="13 vertices exceeds the bound of 12"
        ):
            chromatic_number(g)

    def test_parity_test_matches_the_search(self):
        # The BFS parity test against the first size, 1 or 2, at which the
        # coloring walk finds a proper coloration; the two share no code.
        answers = set()
        for seed in range(3000):
            n = 1 + seed % 9
            p = (0.1, 0.3, 0.6)[seed // 9 % 3]
            g = generate_general(n, p, 0.5, seed, double_prob=0.1)
            later = _later_neighbors(g)
            searched = next(
                (size for size in (1, 2) if _first_colorations(later, size, 1)),
                None,
            )
            assert _parity_chromatic_number(g) == searched, seed
            answers.add(searched)
        assert answers == {1, 2, None}


class TestDeficiencyReport:
    def test_triangle(self, triangle):
        rep = deficiency_report(triangle)
        assert rep.chi == 3
        assert rep.range == frozenset({0, 1})
        assert rep.max_deficiency == 1 and rep.min_deficiency == 0

    def test_single_positive_edge(self):
        rep = deficiency_report(build_graph([("u", "v", "+")]))
        assert rep.range == frozenset({0})

    def test_connected_all_negative_path(self):
        g = build_graph([("u", "v", "-"), ("v", "w", "-")])
        rep = deficiency_report(g)
        assert rep.chi == 2
        assert rep.range == frozenset({1})

    def test_witnesses_are_proper_and_minimal(self, triangle):
        rep = deficiency_report(triangle)
        for d, kap in rep.per_deficiency.items():
            assert is_proper(triangle, kap)
            assert kap.size == rep.chi
            assert deficiency(kap)[0] == d

    def test_early_stop_matches_full_enumeration(self):
        # the walk that stops once every value is seen against the full
        # plain walk of ``reference_report``
        for seed in range(30):
            g = generate_general(6, 0.5, 0.5, seed, double_prob=0.1)
            assert deficiency_report(g) == reference_report(g), seed

    def test_pruned_walk_matches_full_walk_at_desk_sizes(self):
        # 10-12 vertices, sparse to dense: chi runs from 3 to 5, so some
        # walks cap the deficiency at 2 and a skipped subtree can span two
        # values at once.  The whole report must equal the reference's.
        chis, maxima = set(), set()
        for seed in range(40):
            n = 10 + seed % 3
            p = (0.3, 0.4, 0.5, 0.6, 0.7)[seed % 5]
            g = generate_general(n, p, 0.5, seed, double_prob=0.1)
            full = reference_report(g)
            assert deficiency_report(g) == full, seed
            chis.add(full.chi)
            maxima.add(full.max_deficiency)
        assert {3, 4, 5} <= chis
        assert {0, 1, 2} <= maxima

    def test_both_walks_match_brute_force(self):
        # Up to 6 vertices, dense and with many doubled edges, so that chi
        # runs up to 5; the oracle's walk and the reference walk must both
        # give the brute force's chi, range and first witness of every value.
        chis = set()
        for seed in range(80):
            n = 2 + seed % 5
            p = (0.5, 0.7, 0.9)[seed % 3]
            g = generate_general(n, p, 0.5, seed, double_prob=0.3)
            chi, first = _brute_force_report(g)
            for rep in (deficiency_report(g), reference_report(g)):
                assert rep.chi == chromatic_number(g) == chi, seed
                assert rep.range == frozenset(first), seed
                assert dict(rep.per_deficiency) == first, seed
            chis.add(chi)
        assert {2, 3, 4, 5} <= chis

    def test_empty_graph(self):
        rep = deficiency_report(build_graph([]))
        assert rep.chi == 0
        assert rep.range == frozenset({0})
        assert rep.witness_max == rep.witness_min == Coloration((), 0, False)
        assert rep == reference_report(build_graph([]))

    def test_pruning_skips_subtrees_with_nothing_new(self):
        # A positive triangle, colored first, then 9 isolated vertices:
        # 6 * 3^9 = 118098 proper colorations, all of deficiency 0.  Once
        # the first is recorded, every subtree below the colored triangle
        # has nothing new to offer.  Timed as process time with the
        # collector paused; the ratio to the full plain walk of
        # ``reference_report``, not a wall-clock budget, is the test.
        g = build_graph(
            [("a", "b", "+"), ("b", "c", "+"), ("a", "c", "+")],
            vertices=["a", "b", "c"] + [f"x{i}" for i in range(9)],
        )
        assert deficiency_report(g).range == frozenset({0})
        pruned = best_cpu_seconds(lambda: deficiency_report(g), rounds=5)
        full = best_cpu_seconds(lambda: reference_report(g), rounds=1)
        assert 45 * pruned <= full, (pruned, full)

    def test_symmetry_cut_after_isolated_vertices(self):
        # The same triangle colored after 9 isolated vertices: each prefix
        # of isolated colors that leaves a color unused is explored until
        # the triangle fails, and the cut on new magnitudes leaves only the
        # prefixes whose magnitudes appear in order, each first positive.
        g = build_graph(
            [("a", "b", "+"), ("b", "c", "+"), ("a", "c", "+")],
            vertices=[f"x{i}" for i in range(9)] + ["a", "b", "c"],
        )
        assert deficiency_report(g) == reference_report(g)
        pruned = best_cpu_seconds(lambda: deficiency_report(g), rounds=5)
        full = best_cpu_seconds(lambda: reference_report(g), rounds=1)
        assert 60 * pruned <= full, (pruned, full)

    def test_deterministic_witnesses(self, triangle):
        a = deficiency_report(triangle)
        b = deficiency_report(triangle)
        assert a.witness_max == b.witness_max
        assert a.witness_min == b.witness_min


class TestStablePositiveCover:
    def test_worked_example_has_cover(self, worked_example):
        cover = stable_positive_cover(worked_example)
        assert cover is not None
        assert is_stable(worked_example, cover)
        assert covers_positive(worked_example, cover)
        # the reference cover is valid too
        ids = worked_example.ids_of(WORKED_COVER)
        assert is_stable(worked_example, ids)
        assert covers_positive(worked_example, ids)

    def test_all_positive_triangle_has_none(self, all_positive_triangle):
        assert stable_positive_cover(all_positive_triangle) is None

    def test_single_positive_edge_one_side(self):
        g = build_graph([("u", "v", "+")])
        assert stable_positive_cover(g) in (frozenset({0}), frozenset({1}))

    def test_existence_agrees_with_reference_cover(self):
        # crosscheck's own instances: matched graphs of up to 6 pairs
        # alternating with general graphs of 2-10 vertices
        rng = random.Random(7)
        found = 0
        for index in range(2000):
            g = _crosscheck_instance(rng, 6, index)
            cover = stable_positive_cover(g)
            assert (cover is None) == (reference_cover(g) is None), index
            if cover is not None:
                found += 1
                assert is_stable(g, cover) and covers_positive(g, cover), index
        assert 0 < found < 2000

    def test_25_pairs_answered_and_agree_with_maxdef(self):
        from sigdef import generate_matched, maxdef

        # 50 vertices, far beyond any subset enumeration
        for seed in range(10):
            g = generate_matched(25, 0.1, seed)
            cover = stable_positive_cover(g)
            result = maxdef(g, assume_chromatic_3=True, validate=True)
            assert result.value == (0 if cover is None else 1), seed

    def test_cover_check_survives_python_O(self):
        # With the covering test broken, the search's own check must still
        # fire when ``python -O`` strips assert statements.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import sigdef

        script = (
            "from sigdef import build_graph, oracle\n"
            "oracle.covers_positive = lambda g, A: False\n"
            "g = build_graph([('u', 'v', '+'), ('u', 'w', '-'), ('v', 'w', '-')])\n"
            "try:\n"
            "    print(oracle.stable_positive_cover(g))\n"
            "except AssertionError as exc:\n"
            "    print(__debug__, exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sigdef.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "False 2-SAT cover is not a stable cover of the positive edges\n"
        )


class TestMaxDeficiency3Chromatic:
    def test_triangle(self, triangle):
        assert max_deficiency_3chromatic(triangle) == 1

    def test_worked_example_refused_but_cover_exists(self, worked_example):
        # the 7-pair fixture is 2-chromatic (see
        # TestChromaticNumber.test_worked_example), so the oracle refuses
        # it; a stable cover of its positive edges still exists, which is
        # what the decision procedure reports under --assume-chromatic-3
        with pytest.raises(NotThreeChromaticError, match="2-chromatic"):
            max_deficiency_3chromatic(worked_example)
        assert stable_positive_cover(worked_example) is not None
        # a graph whose chromatic number needs the search above its bound
        # is refused
        with pytest.raises(BoundExceededError):
            max_deficiency_3chromatic(
                build_graph(ALL_POSITIVE_TRIANGLE, vertices=PADDING)
            )

    def test_positive_triangle_with_pendant_negative(self, all_positive_triangle):
        g = build_graph(
            [("x", "y", "+"), ("y", "z", "+"), ("x", "z", "+"), ("x", "p", "-")]
        )
        assert max_deficiency_3chromatic(g) == 0
        assert deficiency_report(g).max_deficiency == 0

    def test_refusal_names_chi(self):
        g = build_graph([("u", "v", "+")])
        with pytest.raises(NotThreeChromaticError, match="2-chromatic"):
            max_deficiency_3chromatic(g)


class TestSwitchingReport:
    def test_two_chromatic_graph(self):
        rep = switching_report(build_graph([("u", "v", "-")]))
        assert rep.chi == 2
        assert rep.range == frozenset({0, 1})

    def test_triangle(self, triangle):
        rep = switching_report(triangle)
        assert rep.range == frozenset({0, 1})

    def test_single_vertex(self):
        rep = switching_report(build_graph([], vertices=["x"]))
        assert rep.chi == 1
        assert rep.range == frozenset({0})

    def test_witnesses_verify(self, triangle):
        rep = switching_report(triangle)
        for d, (A, kap) in rep.witnesses.items():
            assert is_proper(switch(triangle, A), kap)
            assert deficiency(kap)[0] == d

    def test_range_full_on_eight_vertices(self):
        for seed in range(8):
            g = generate_general(8, 0.5, 0.5, seed)
            rep = switching_report(g)
            assert rep.range == frozenset(range(rep.chi // 2 + 1))

    def test_bound_refusal(self):
        g = generate_general(11, 0.3, 0.5, 1)
        with pytest.raises(BoundExceededError):
            switching_report(g)


# 4-chromatic fixture: two matched pairs with all four cross negatives.
FOUR_CHROMATIC = [("a1", "b1", "+"), ("a2", "b2", "+")] + [
    (a, b, "-") for a, b in [("a1", "a2"), ("a1", "b2"), ("b1", "a2"), ("b1", "b2")]
]


class TestAchieveSwitchingDeficiency:
    def test_identity_at_zero(self, triangle):
        kap = Coloration.from_labels(
            triangle, {"u": 1, "v": -1, "w": 0}, k=1, uses_zero=True
        )
        A, out = achieve_switching_deficiency(triangle, kap, 0)
        assert A == frozenset()
        assert out == kap

    def test_triangle_maximum(self, triangle):
        # switching the single negatively colored vertex leaves {0, 1} used
        kap = Coloration.from_labels(
            triangle, {"u": 1, "v": -1, "w": 0}, k=1, uses_zero=True
        )
        A, out = achieve_switching_deficiency(triangle, kap, 1)
        assert A == frozenset({triangle.id_of("v")})
        assert out.colors == (1, 1, 0)
        assert out.used() == frozenset({0, 1})
        assert deficiency(out)[0] == 1
        assert is_proper(switch(triangle, A), out)

    def test_four_chromatic_all_targets(self):
        g = build_graph(FOUR_CHROMATIC)
        assert chromatic_number(g) == 4
        kappa = deficiency_report(g).witness_min
        for r in range(0, 2 + 1):
            A, out = achieve_switching_deficiency(g, kappa, r)
            assert is_proper(switch(g, A), out)
            assert deficiency(out)[0] == r

    def test_r_out_of_range(self, triangle):
        kap = deficiency_report(triangle).witness_min
        with pytest.raises(ValueError, match="outside"):
            achieve_switching_deficiency(triangle, kap, 2)

    def test_non_minimal_rejected(self, triangle):
        fat = Coloration.from_labels(
            triangle, {"u": 1, "v": -1, "w": 0}, k=2, uses_zero=True
        )
        with pytest.raises(ValueError, match="not minimal"):
            achieve_switching_deficiency(triangle, fat, 0)

    def test_improper_coloration_rejected(self, triangle):
        bad = Coloration((1, 1, 0), k=1, uses_zero=True)
        with pytest.raises(ValueError, match="not proper"):
            achieve_switching_deficiency(triangle, bad, 0)

    @pytest.mark.parametrize(
        "r, switched, colors", [(0, {"w"}, (-1, 0, 1)), (1, {"u", "w"}, (1, 0, 1))]
    )
    def test_unused_positive_color_made_negative(self, triangle, r, switched, colors):
        # (-1, 0, -1) leaves +1 unused; the construction first switches the
        # -1 class so that the unused color is negative, then proceeds
        kap = Coloration((-1, 0, -1), 1, True)
        A, out = achieve_switching_deficiency(triangle, kap, r)
        assert A == triangle.ids_of(switched)
        assert out.colors == colors
        assert is_proper(switch(triangle, A), out)

    def test_construction_check_survives_python_O(self):
        # With switching broken, the construction's own properness check
        # must still fire when ``python -O`` strips assert statements.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import sigdef

        script = (
            "from sigdef import Coloration, build_graph, oracle\n"
            "from sigdef.oracle import achieve_switching_deficiency\n"
            "oracle.switch = lambda g, A: g\n"
            "g = build_graph([('u', 'v', '+'), ('u', 'w', '-'), ('v', 'w', '-')])\n"
            "kap = Coloration.from_labels(g, {'u': 1, 'v': -1, 'w': 0}, k=1,"
            " uses_zero=True)\n"
            "try:\n"
            "    print(achieve_switching_deficiency(g, kap, 1))\n"
            "except AssertionError as exc:\n"
            "    print(__debug__, exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sigdef.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False construction lost properness\n"


class TestRecolorLoneNegative:
    def test_positive_edge_with_zero(self):
        # (0, -1) over {0, +-1} leaves 1 unused with a lone -1 vertex; the
        # recoloring produces a proper 2-color coloration, certifying chi <= 2
        g = build_graph([("u", "v", "+")])
        kap = Coloration.from_labels(g, {"u": 0, "v": -1}, k=1, uses_zero=True)
        out = recolor_lone_negative(g, kap, 1)
        assert out.colors == (1, -1)
        assert not out.uses_zero
        assert is_proper(g, out)

    def test_non_adjacent_zero_goes_negative(self):
        g = build_graph([("u", "v", "+")], vertices=["u", "v", "x"])
        kap = Coloration.from_labels(
            g, {"u": 0, "v": -1, "x": 0}, k=1, uses_zero=True
        )
        out = recolor_lone_negative(g, kap, 1)
        assert out.colors == (1, -1, -1)
        assert is_proper(g, out)

    def test_requires_lone_vertex(self, triangle):
        kap = Coloration.from_labels(
            triangle, {"u": 1, "v": 0, "w": 1}, k=1, uses_zero=True
        )
        with pytest.raises(ValueError, match="exactly one"):
            recolor_lone_negative(triangle, kap, -1)

    def test_requires_zero_in_color_set(self, triangle):
        kap = Coloration((1, -1, 1), k=1, uses_zero=False)
        with pytest.raises(ValueError, match="includes 0"):
            recolor_lone_negative(triangle, kap, 1)

    def test_requires_proper_coloration(self, triangle):
        kap = Coloration((1, 1, 0), k=1, uses_zero=True)
        with pytest.raises(ValueError, match="not proper"):
            recolor_lone_negative(triangle, kap, -1)

    def test_requires_unused_color(self, triangle):
        kap = Coloration((1, -1, 0), k=1, uses_zero=True)
        with pytest.raises(ValueError, match="not unused"):
            recolor_lone_negative(triangle, kap, 1)
