"""JSON schemas for the CLI's output records, one per subcommand.

The schemas pin the documented field names: every object requires each
field its record writes and allows no other.  Records are validated
against them in the test suite and may be validated by downstream
consumers.
"""


def _object(properties: dict) -> dict:
    """An object that requires each of *properties* and allows no other."""
    return {"type": "object", "required": list(properties),
            "properties": properties, "additionalProperties": False}


def _array(items: dict) -> dict:
    return {"type": "array", "items": items}


INTEGER = {"type": "integer"}
COUNT = {"type": "integer", "minimum": 0}
NUMBER = {"type": "number"}
NONNEGATIVE = {"type": "number", "minimum": 0}
PROBABILITY = {"type": "number", "minimum": 0, "maximum": 1}
BOOLEAN = {"type": "boolean"}
STRING = {"type": "string"}

SEARCH_SCHEMA = _object({
    "spec_version": STRING,
    "command": {"const": "search"},
    "config": _object({
        "n": INTEGER, "d": INTEGER, "k": INTEGER, "trials": INTEGER,
        "seed": INTEGER, "t_override": {"type": ["integer", "null"]},
    }),
    "regime": _object({"tag": STRING, "t": COUNT}),
    "reference": _object({"lower_bound": NUMBER, "upper_envelope": NUMBER}),
    "trials": _array(_object({
        "trial": COUNT,
        "success": BOOLEAN,
        "parallel_rounds": COUNT,
        "total_queries": COUNT,
        "rounds_per_repetition": _array(COUNT),
        "repetitions": {"type": "integer", "minimum": 1},
    })),
    "aggregates": _object({
        "mean_rounds": NUMBER, "median_rounds": NUMBER,
        "success_rate": PROBABILITY,
    }),
})

MAXLOAD_SCHEMA = _object({
    "spec_version": STRING,
    "command": {"const": "maxload"},
    "config": _object({"n": INTEGER, "k": INTEGER, "d": INTEGER,
                       "t": INTEGER}),
    "exceedance": PROBABILITY,
    "union_bound": NONNEGATIVE,
    "within_bound": BOOLEAN,
})

BOUNDS_SCHEMA = _object({
    "spec_version": STRING,
    "command": {"const": "bounds"},
    "config": _object({
        "n": _array(INTEGER), "d": _array(INTEGER), "k": _array(INTEGER),
        "trials": INTEGER, "seed": INTEGER,
    }),
    "rows": _array(_object({
        "N": INTEGER, "d": INTEGER, "k": INTEGER, "regime": STRING,
        "t": COUNT, "mean_rounds": NUMBER, "success_rate": PROBABILITY,
        "lower_bound": NUMBER, "upper_envelope": NUMBER,
        "ratio_to_lower": NUMBER, "ratio_to_upper": NUMBER,
    })),
})

ADVERSARY_SCHEMA = _object({
    "spec_version": STRING,
    "command": {"const": "adversary"},
    "config": _object({"n": INTEGER, "m": INTEGER, "d": INTEGER,
                       "k": INTEGER}),
    "vertex_counts": _object({
        "v0": COUNT,
        "v0_factored": _object({"missing_item_choices": COUNT,
                                "placements": COUNT}),
        "v1": COUNT,
        "edges": COUNT,
    }),
    "stats": _object({"delta0": COUNT, "delta1": COUNT, "ell0": COUNT,
                      "ell1": COUNT}),
    "claims": _object({
        "delta0_equals_N_minus_k_plus_1": BOOLEAN, "delta1_equals_k": BOOLEAN,
        "ell0_at_most_d": BOOLEAN, "ell1_at_most_min_d_k": BOOLEAN,
    }),
    "all_claims_match": BOOLEAN,
    "ambainis_bound": NUMBER,
    "closed_form_bound": NUMBER,
})

SCHEMAS = {
    "search": SEARCH_SCHEMA,
    "maxload": MAXLOAD_SCHEMA,
    "bounds": BOUNDS_SCHEMA,
    "adversary": ADVERSARY_SCHEMA,
}
