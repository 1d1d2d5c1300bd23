"""JSON schemas for the CLI's output records, one per subcommand.

The schemas pin the documented field names; records are validated against
them in the test suite and may be validated by downstream consumers.
"""

SEARCH_SCHEMA = {
    "type": "object",
    "required": ["spec_version", "command", "config", "regime", "reference",
                 "trials", "aggregates"],
    "properties": {
        "spec_version": {"type": "string"},
        "command": {"const": "search"},
        "config": {
            "type": "object",
            "required": ["n", "d", "k", "m", "trials", "seed"],
        },
        "regime": {
            "type": "object",
            "required": ["tag", "t"],
            "properties": {"tag": {"type": "string"},
                           "t": {"type": "integer", "minimum": 0}},
        },
        "reference": {
            "type": "object",
            "required": ["lower_bound", "upper_envelope"],
        },
        "trials": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["trial", "success", "parallel_rounds",
                             "per_copy_queries", "verification_rounds",
                             "repetitions"],
                "properties": {
                    "trial": {"type": "integer", "minimum": 0},
                    "success": {"type": "boolean"},
                    "parallel_rounds": {"type": "integer", "minimum": 0},
                    "per_copy_queries": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                    },
                    "rounds_per_repetition": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                    },
                    "verification_rounds": {"type": "integer", "minimum": 0},
                    "repetitions": {"type": "integer", "minimum": 1},
                },
            },
        },
        "aggregates": {
            "type": "object",
            "required": ["mean_rounds", "median_rounds", "success_rate"],
            "properties": {
                "success_rate": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
    },
}

MAXLOAD_SCHEMA = {
    "type": "object",
    "required": ["spec_version", "command", "config", "empirical_exceedance",
                 "exceed_count", "standard_error", "union_bound",
                 "within_bound"],
    "properties": {
        "spec_version": {"type": "string"},
        "command": {"const": "maxload"},
        "empirical_exceedance": {"type": "number", "minimum": 0, "maximum": 1},
        "exceed_count": {"type": "integer", "minimum": 0},
        "standard_error": {"type": "number", "minimum": 0},
        "union_bound": {"type": "number", "minimum": 0},
        "within_bound": {"type": "boolean"},
    },
}

BOUNDS_SCHEMA = {
    "type": "object",
    "required": ["spec_version", "command", "config", "rows"],
    "properties": {
        "spec_version": {"type": "string"},
        "command": {"const": "bounds"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["N", "d", "k", "regime", "t", "mean_rounds",
                             "lower_bound", "upper_envelope",
                             "ratio_to_lower", "ratio_to_upper"],
            },
        },
    },
}

ADVERSARY_SCHEMA = {
    "type": "object",
    "required": ["spec_version", "command", "config", "vertex_counts",
                 "stats", "claims", "all_claims_match", "ambainis_bound",
                 "closed_form_bound"],
    "properties": {
        "spec_version": {"type": "string"},
        "command": {"const": "adversary"},
        "stats": {
            "type": "object",
            "required": ["delta0", "delta1", "ell0", "ell1"],
        },
        "claims": {
            "type": "object",
            "required": ["delta0_equals_N_minus_k_plus_1", "delta1_equals_k",
                         "ell0_at_most_d", "ell1_at_most_min_d_k"],
        },
        "all_claims_match": {"type": "boolean"},
    },
}

SCHEMAS = {
    "search": SEARCH_SCHEMA,
    "maxload": MAXLOAD_SCHEMA,
    "bounds": BOUNDS_SCHEMA,
    "adversary": ADVERSARY_SCHEMA,
}
