"""Vertex cover games on edge players: recognize which graphs admit a
population monotonic allocation scheme, construct one when it exists, verify
candidate schemes exhaustively, certify allocations against the fractional
cover dual, and characterize/enumerate all integral schemes through stable
matchings."""

from .errors import (ContractViolation, EnumerationTruncated, GraphFormatError,
                     MalformedScheme, NotBalanced, NotIntegralScheme,
                     NotPopulationMonotonic, OracleCapError, UnsupportedInstance,
                     VertexCoverGameError)
from .game import (VertexCoverGame, core_element_from_matching, core_membership,
                   is_balanced, is_monotone_game, is_submodular_game, is_submodular_graph,
                   is_totally_balanced)
from .graph import (Coalition, ComponentClassification, Graph, components, diameter,
                    find_forbidden_subgraph, is_bipartite, mask_coalition, matching_number,
                    parse_graph, vertex_cover_number)
from .matching import (Matching, PreferenceSystem, count_integral_pmas,
                       enumerate_integral_pmas, gale_shapley, is_stable,
                       preferences_from_scheme, scheme_from_preferences)
from .pmas import (AllocationScheme, CoverSystem, Violation, check_dual_feasible,
                   check_dual_optimal, check_pi_star, classify_components, construct_pmas,
                   fraction_str, recognize_population_monotonic, scheme_from_json,
                   scheme_table_to_jsonable, scheme_to_json, verify_pmas)

__all__ = [
    "AllocationScheme", "Coalition", "ComponentClassification", "ContractViolation",
    "CoverSystem", "EnumerationTruncated", "Graph", "GraphFormatError",
    "MalformedScheme", "Matching", "NotBalanced", "NotIntegralScheme",
    "NotPopulationMonotonic", "OracleCapError", "PreferenceSystem",
    "UnsupportedInstance", "VertexCoverGame", "VertexCoverGameError", "Violation",
    "check_dual_feasible", "check_dual_optimal", "check_pi_star", "classify_components",
    "components", "construct_pmas", "core_element_from_matching", "core_membership",
    "count_integral_pmas", "diameter", "enumerate_integral_pmas",
    "find_forbidden_subgraph", "fraction_str", "gale_shapley", "is_balanced",
    "is_bipartite", "is_monotone_game", "is_stable", "is_submodular_game",
    "is_submodular_graph", "is_totally_balanced", "mask_coalition",
    "matching_number", "parse_graph", "preferences_from_scheme",
    "recognize_population_monotonic", "scheme_from_json", "scheme_from_preferences",
    "scheme_table_to_jsonable", "scheme_to_json", "verify_pmas",
    "vertex_cover_number",
]
