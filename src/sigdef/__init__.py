"""Deficiency analysis of signed graphs.

Exact exhaustive oracles for chromatic number and deficiency ranges, a
polynomial-time decision procedure for the maximum deficiency of 3-chromatic
signed graphs (with a stable-cover witness), and constructive switching
machinery.
"""

from . import core, oracle, sgio
from .core import *  # noqa: F403
from .maxdef import (
    ForcingGraph,
    MatchedState,
    MaxDefResult,
    NotBipartite,
    TraceEntry,
    build_forcing_graph,
    flatten,
    maxdef,
)
from .oracle import *  # noqa: F403
from .sgio import *  # noqa: F403

__version__ = "0.1.0"

# The step functions stay in sigdef.maxdef; the package re-exports the
# decision, its result and state types, flatten and the forcing graph.
__all__ = [
    *core.__all__,
    *oracle.__all__,
    *sgio.__all__,
    "ForcingGraph",
    "MatchedState",
    "MaxDefResult",
    "NotBipartite",
    "TraceEntry",
    "build_forcing_graph",
    "flatten",
    "maxdef",
]
