"""Identifying codes, distance balls, and eccentricity on undirected
de Bruijn graphs B(d, n)."""

from .balls import (Pattern, PrefixBoundBreakdown, all_balls, ball_bfs,
                    ball_closed_form, prefix_bound, prefix_bound_corrected,
                    prefix_margin, prefix_set)
from .codes import (CodeReport, MinCodeResult, TwinPair, build_constraints,
                    code_strings, find_twins, greedy_code, is_identifiable,
                    min_code, verify_code)
from .errors import (CodeVertexOutOfRange, DbicError, InfeasibleNoCode,
                     InvalidParameters, NotApplicable, VertexParseError)
from .graph import DeBruijnGraph, export_dot
from .metrics import (EccentricityReport, bfs_distances, construct_antipodal,
                      distance, eccentricity, eccentricity_table,
                      radius_diameter)
from .strings import DBString, decode, encode
from .vertexset import VertexSet, bits, mask_of, popcount, to_ids

__version__ = "0.1.0"

__all__ = [
    "DBString", "DeBruijnGraph", "EccentricityReport", "CodeReport",
    "MinCodeResult", "Pattern", "PrefixBoundBreakdown", "TwinPair",
    "VertexSet",
    "all_balls", "ball_bfs", "ball_closed_form", "bfs_distances", "bits",
    "build_constraints", "code_strings", "construct_antipodal", "decode",
    "distance", "eccentricity", "eccentricity_table", "encode",
    "export_dot", "find_twins", "greedy_code", "is_identifiable",
    "mask_of", "min_code", "popcount", "prefix_bound",
    "prefix_bound_corrected", "prefix_margin", "prefix_set",
    "radius_diameter", "to_ids", "verify_code",
    "CodeVertexOutOfRange", "DbicError", "InfeasibleNoCode",
    "InvalidParameters", "NotApplicable", "VertexParseError",
]
