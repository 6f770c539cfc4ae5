"""Rainbow matchings in properly edge-coloured multigraphs.

Solver, exact oracles, instance generators and verifiers.  The public surface
is re-exported here; the CLI lives in :mod:`rainbowmatch.cli`.
"""

from .multigraph import (ColouredMultigraph, Edge, InstanceParams, Issue, as_fraction,
                         dumps, hypothesis_check, load, loads, save, validate)
from .instances import (LatinSquare, PlacementError, cyclic_square, dumps_square,
                        enumerate_reduced_squares, generate_random, latin_to_graph,
                        load_square, loads_square, permute_square, save_square,
                        square_of)
from .matching import (Closeness, RainbowMatching, closeness, extend_to_maximal,
                       external_edges, greedy, matching_from_json, matching_to_json,
                       verify)
from .oracle import (CapExceeded, OracleResult, certify_cyclic, max_partial_transversal,
                     max_rainbow_matching)
from .reachability import (FlexibleStructure, Hierarchy, Level, LevelEdge, OrientedEdge,
                           RankedViolations, Violation, build_hierarchy, certificate,
                           classify_good_bad, compute_flexible, counting_diagnostics,
                           find_violations)
from .switching import (AugmentOutcome, CallRecord, NotFound, SolveReport, SwitchContext,
                        SwitchOutcome, SwitchRequest, SwitchUsageError, augment,
                        closeness_slack, robust_switch, solve)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
