"""JSON schemas for the machine-readable interfaces.

Shipped so downstream scripts (and the test suite) can validate outputs
without guessing shapes.  The sweep emits CSV, not JSON; its header is
fixed here.
"""

from __future__ import annotations

SWEEP_CSV_HEADER = (
    "d", "n", "t", "identifiable", "twin_x", "twin_y",
    "min_code_size", "optimal", "elapsed_ms",
)

_VERTEX = {"type": "string", "minLength": 1}
_PAIRS = {"type": "array", "maxItems": 10, "items": {  # first 10 pairs
    "type": "array", "items": _VERTEX, "minItems": 2, "maxItems": 2}}

CODE_FILE_SCHEMA = {
    "type": "object",
    "required": ["d", "n", "t", "code"],
    "properties": {
        "d": {"type": "integer", "minimum": 2},
        "n": {"type": "integer", "minimum": 1},
        "t": {"type": "integer", "minimum": 1},
        "code": {"type": "array", "items": _VERTEX},
    },
}

CODE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["valid", "code_size", "domination_failures", "collisions",
                 "collision_count"],
    "properties": {
        "valid": {"type": "boolean"},
        "code_size": {"type": "integer", "minimum": 0},
        "domination_failures": {"type": "array", "items": _VERTEX},
        "collisions": _PAIRS,
        "collision_count": {"type": "integer", "minimum": 0},
    },
}

INFEASIBLE_OUTPUT_SCHEMA = {
    "type": "object",
    "required": ["error", "d", "n", "t", "twins", "twin_count"],
    "properties": {
        "error": {"const": "infeasible_no_code"},
        "d": {"type": "integer"},
        "n": {"type": "integer"},
        "t": {"type": "integer"},
        "twins": _PAIRS,
        "twin_count": {"type": "integer", "minimum": 1},
    },
}

GRAPH_STATS_SCHEMA = {
    "type": "object",
    "required": ["d", "n", "vertices", "edges", "loops"],
    "properties": {
        "d": {"type": "integer"},
        "n": {"type": "integer"},
        "vertices": {"type": "integer"},
        "edges": {"type": "integer"},
        "loops": {"type": "integer"},
        "dot": {"type": "string"},
    },
}

BALL_OUTPUT_SCHEMA = {
    "type": "object",
    "required": ["d", "n", "t", "x", "method", "size", "ball"],
    "properties": {
        "d": {"type": "integer"},
        "n": {"type": "integer"},
        "t": {"type": "integer"},
        "x": _VERTEX,
        "method": {"enum": ["bfs", "closed", "both"]},
        "size": {"type": "integer"},
        "ball": {"type": "array", "items": _VERTEX},
    },
}

CHECK_OUTPUT_SCHEMA = {
    "type": "object",
    "required": ["d", "n", "t", "identifiable"],
    "properties": {
        "d": {"type": "integer"},
        "n": {"type": "integer"},
        "t": {"type": "integer"},
        "identifiable": {"type": "boolean"},
        "twin": {
            "oneOf": [
                {"type": "null"},
                {"type": "object",
                 "required": ["x", "y"],
                 "properties": {"x": _VERTEX, "y": _VERTEX}},
            ]
        },
    },
}

ECC_OUTPUT_SCHEMA = {
    "type": "object",
    "required": ["d", "n"],
    "properties": {
        "d": {"type": "integer"},
        "n": {"type": "integer"},
        "vertex": _VERTEX,
        "eccentricity": {"type": "integer"},
        "witness": _VERTEX,
        "radius": {"type": "integer"},
        "diameter": {"type": "integer"},
    },
}
