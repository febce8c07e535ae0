"""The package namespace: what ``from sigdef import *`` exports."""

from __future__ import annotations

import sigdef

PUBLIC_NAMES = {
    "BoundExceededError", "Coloration", "DEFAULT_EXHAUSTIVE_BOUND",
    "DEFAULT_PAIR_BOUND", "DEFAULT_SWITCHING_BOUND", "DeficiencyReport",
    "ForcingGraph", "MatchedState", "MaxDefResult", "NotBipartite",
    "NotThreeChromaticError", "SgParseError", "SignedGraph", "SwitchingReport",
    "TraceEntry", "TwoChromaticCase", "achieve_switching_deficiency",
    "build_forcing_graph", "build_graph", "chromatic_number",
    "classify_two_chromatic", "coloration_from_cover", "covers_positive",
    "deficiency", "deficiency_report", "export_dot", "flatten",
    "generate_general", "generate_matched", "is_proper", "is_stable",
    "max_deficiency_3chromatic", "maxdef", "parse_sg", "recolor_lone_negative",
    "serialize_sg", "stable_positive_cover", "switch", "switch_coloration",
    "switching_report",
}


def test_all_lists_the_public_names_once():
    assert set(sigdef.__all__) == PUBLIC_NAMES
    assert len(sigdef.__all__) == len(PUBLIC_NAMES)

