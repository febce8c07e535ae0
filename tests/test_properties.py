"""Property tests over random signed graphs.

Quantified invariants: adjacency symmetry, switching as an involution,
properness traveling with switching, stable-cover witnesses, chromatic
invariance under switching, the agreement of the maximum-deficiency routes,
and the deficiency bound.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdef import (
    Coloration,
    SgParseError,
    build_graph,
    chromatic_number,
    classify_two_chromatic,
    coloration_from_cover,
    covers_positive,
    deficiency,
    deficiency_report,
    is_proper,
    is_stable,
    max_deficiency_3chromatic,
    maxdef,
    parse_sg,
    stable_positive_cover,
    switch,
    switch_coloration,
)

from conftest import reference_cover, reference_report

SETTINGS = settings(deadline=None, max_examples=120, derandomize=True)


@st.composite
def signed_graphs(draw, max_vertices=7, allow_double=False):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    labels = [f"v{i}" for i in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            state = draw(
                st.sampled_from(
                    ["none", "+", "-", "both"] if allow_double
                    else ["none", "none", "+", "-"]
                )
            )
            if state == "both":
                edges.append((labels[u], labels[v], "+"))
                edges.append((labels[u], labels[v], "-"))
            elif state != "none":
                edges.append((labels[u], labels[v], state))
    return build_graph(edges, vertices=labels)


@st.composite
def graph_with_subset(draw, allow_double=False):
    g = draw(signed_graphs(allow_double=allow_double))
    subset = draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    return g, frozenset(subset)


@st.composite
def graph_with_coloration(draw):
    g = draw(signed_graphs())
    k = draw(st.integers(min_value=1, max_value=3))
    uses_zero = draw(st.booleans())
    palette = [c for c in range(-k, k + 1) if c != 0 or uses_zero]
    colors = tuple(draw(st.sampled_from(palette)) for _ in range(g.n))
    return g, Coloration(colors, k, uses_zero)


@SETTINGS
@given(signed_graphs(allow_double=True))
def test_adjacency_symmetric_after_build(g):
    for v in range(g.n):
        for u in g.pos_adj[v]:
            assert v in g.pos_adj[u]
        for u in g.neg_adj[v]:
            assert v in g.neg_adj[u]
        assert v not in g.pos_adj[v] and v not in g.neg_adj[v]


@SETTINGS
@given(graph_with_subset(allow_double=True))
def test_adjacency_symmetric_after_switch(gs):
    g, A = gs
    h = switch(g, A)
    for v in range(h.n):
        for u in h.pos_adj[v]:
            assert v in h.pos_adj[u]
        for u in h.neg_adj[v]:
            assert v in h.neg_adj[u]


@SETTINGS
@given(graph_with_subset(allow_double=False))
def test_switch_is_involution_without_opposite_pairs(gs):
    g, A = gs
    assert switch(switch(g, A), A) == g


@SETTINGS
@given(graph_with_coloration(), st.data())
def test_properness_travels_with_switching(gk, data):
    g, kappa = gk
    A = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    assert is_proper(g, kappa) == is_proper(
        switch(g, A), switch_coloration(kappa, A)
    )


@SETTINGS
@given(signed_graphs())
def test_cover_coloration_is_proper_and_two_colored(g):
    cover = stable_positive_cover(g)
    if cover is None:
        return
    kappa = coloration_from_cover(g, cover)
    assert is_proper(g, kappa)
    assert kappa.used() <= {0, 1}
    if g.positive_edge_count:
        assert kappa.used() == {0, 1}


@SETTINGS
@given(signed_graphs())
def test_chromatic_number_invariant_under_switching(g):
    chi = chromatic_number(g)
    # spot-check two deterministic switch sets rather than all 2^n
    for A in (frozenset({0}), frozenset(range(0, g.n, 2))):
        assert chromatic_number(switch(g, A)) == chi


@SETTINGS
@given(signed_graphs(allow_double=True))
def test_deficiency_range_bounded_by_half_chi(g):
    # the full plain walk, so the bound is checked on every proper coloration
    rep = reference_report(g)
    assert rep.range <= set(range(rep.chi // 2 + 1))
    assert rep.max_deficiency == max(rep.range)
    assert rep.min_deficiency == min(rep.range)


@SETTINGS
@given(signed_graphs(allow_double=True))
def test_pruned_deficiency_report_equals_full_walk(g):
    # the whole report: chi, range, extremes and every witness, against the
    # full plain walk of ``reference_report``
    assert deficiency_report(g) == reference_report(g)


@SETTINGS
@given(signed_graphs(allow_double=True))
def test_maximum_deficiency_routes_agree(g):
    """Cover existence, bipartition search, enumerated deficiency, and the
    decision procedure all say the same thing on 3-chromatic graphs."""
    if chromatic_number(g) != 3:
        return
    enumerated = deficiency_report(g).max_deficiency
    by_cover = max_deficiency_3chromatic(g)
    assert enumerated == by_cover
    assert maxdef(g, validate=True).value == by_cover
    assert _bipartition_route(g) == (by_cover == 1)


def _bipartition_route(g) -> bool:
    """Independent check: the positive subgraph is bipartite with one part
    stable in the whole graph (parts enumerated directly)."""
    n = g.n
    for mask in range(1 << n):
        part = {v for v in range(n) if mask >> v & 1}
        if any((u in part) == (v in part) for u, v in g.positive_edges()):
            continue
        if is_stable(g, part) or is_stable(g, set(range(n)) - part):
            return True
    return False


@SETTINGS
@given(signed_graphs())
def test_two_chromatic_classifier_matches_oracle(g):
    if chromatic_number(g) != 2:
        return
    rep = deficiency_report(g)
    case = classify_two_chromatic(g)
    assert case.max_deficiency == rep.max_deficiency
    assert case.min_deficiency == rep.min_deficiency


@SETTINGS
@given(signed_graphs())
def test_stable_cover_witness_is_valid(g):
    cover = stable_positive_cover(g)
    assert (cover is None) == (reference_cover(g) is None)
    if cover is None:
        return
    assert is_stable(g, cover)
    assert covers_positive(g, cover)
    again = stable_positive_cover(g)
    assert cover == again


@SETTINGS
@given(signed_graphs())
def test_maxdef_self_certifies(g):
    if g.positive_edge_count == 0:
        with pytest.raises(ValueError):
            maxdef(g, assume_chromatic_3=True)
        return
    result = maxdef(g, assume_chromatic_3=True, validate=True)
    truth = stable_positive_cover(g)
    assert result.value == (0 if truth is None else 1)
    if result.value == 1:
        ids = g.ids_of(result.cover)
        assert is_stable(g, ids)
        assert covers_positive(g, ids)
    else:
        assert result.cover is None
        assert result.terminating_step in {2, 3, 5, 12}


@SETTINGS
@given(signed_graphs())
def test_deficiency_plus_used_equals_declared(g):
    rep = deficiency_report(g)
    for d, kappa in rep.per_deficiency.items():
        count, unused = deficiency(kappa)
        assert count == d == len(unused)
        assert count + len(kappa.used()) == kappa.size


@SETTINGS
@given(graph_with_subset(allow_double=True))
def test_cover_checks_match_their_edge_definitions(gs):
    g, A = gs
    edges = list(g.signed_edges())
    assert is_stable(g, A) == all(u not in A or v not in A for u, v, _ in edges)
    assert covers_positive(g, A) == all(
        u in A or v in A for u, v, sign in edges if sign > 0
    )


SG_LABELS = ("a", "b", "c", "d", "x1", "\u00e9")
SG_SPACES = st.sampled_from([" ", "  ", "\t", " \t "])
SG_TAILS = st.sampled_from(["", " ", "\t", " # note", "# e a b +", "\t#"])
# each line is wrong on its own, whatever surrounds it
MALFORMED_SG_LINES = (
    "e a b", "e a b *", "e a b + +", "e a a +", "e a b # +", "v", "v a b",
    "x a", "edge a b +", "E a b +", "\tv a b # c",
)


@st.composite
def sg_lines(draw):
    """Valid .sg lines: edges (duplicates and opposite-sign pairs among
    them), v lines anywhere, comments, blank and whitespace-only lines."""
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        kind = draw(st.sampled_from(["e", "e", "e", "v", "comment", "blank"]))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        if kind == "e":
            a, b = draw(st.lists(st.sampled_from(SG_LABELS), min_size=2,
                                 max_size=2, unique=True))
            sign = draw(st.sampled_from("+-"))
            line = lead + draw(SG_SPACES).join(["e", a, b, sign]) + draw(SG_TAILS)
        elif kind == "v":
            line = lead + "v" + draw(SG_SPACES) + draw(st.sampled_from(SG_LABELS))
            line += draw(SG_TAILS)
        elif kind == "comment":
            line = lead + "#" + draw(st.sampled_from(["", " note", "e a b +", "v z"]))
        else:
            line = lead
        lines.append(line)
    return lines


def _tokenise_sg(text):
    """Reference reading of valid .sg text into v labels and edge triples."""
    vertices, edges = [], []
    for raw in text.splitlines():
        fields = raw.partition("#")[0].split()
        if fields and fields[0] == "v":
            vertices.append(fields[1])
        elif fields:
            edges.append((fields[1], fields[2], fields[3]))
    return vertices, edges


@SETTINGS
@given(sg_lines(), st.sampled_from(["\n", "\r\n"]))
def test_parse_sg_agrees_with_build_graph(lines, newline):
    text = newline.join(lines)
    vertices, edges = _tokenise_sg(text)
    ref = build_graph(edges, vertices=vertices)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = parse_sg(text)
    assert (g.labels, g.pos_adj, g.neg_adj) == (ref.labels, ref.pos_adj, ref.neg_adj)
    assert [g.id_of(lab) for lab in g.labels] == list(range(g.n))
    duplicates = len(edges) - ref.positive_edge_count - ref.negative_edge_count
    assert [str(w.message) for w in caught] == (
        [f"collapsed {duplicates} duplicate same-sign edge(s)"] if duplicates else []
    )


@SETTINGS
@given(sg_lines(), st.data())
def test_parse_sg_names_the_malformed_line(lines, data):
    at = data.draw(st.integers(min_value=0, max_value=len(lines)))
    lines.insert(at, data.draw(st.sampled_from(MALFORMED_SG_LINES)))
    with pytest.raises(SgParseError) as caught:
        parse_sg("\n".join(lines))
    assert caught.value.line_no == at + 1
    assert str(caught.value).startswith(f"line {at + 1}: ")
