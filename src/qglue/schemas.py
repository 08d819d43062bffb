"""Published JSON schemas: run manifests (validated strictly before
execution, unknown keys rejected) and the summary documents each subcommand
emits."""

import jsonschema
from jsonschema.exceptions import best_match

from .errors import ManifestError

_END = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "T0": {"type": "number", "minimum": 0},
        "perturbation": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["l", "A", "beta"],
                "properties": {
                    "l": {"type": "integer", "minimum": 0},
                    "A": {"type": "number"},
                    "beta": {"type": "number", "exclusiveMinimum": 1},
                },
            },
        },
    },
}

GLUING_CONFIG = {
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "eps", "m"],
    "properties": {
        "n": {"type": "integer", "minimum": 5},
        "eps": {"type": "number", "exclusiveMinimum": 0},
        "m": {"type": "integer", "minimum": 1},
        "end1": _END,
        "end2": _END,
    },
}

_GRID = {"type": "integer", "minimum": 16}
_MODES = {"type": "array", "items": {"type": "integer", "minimum": 0},
          "minItems": 1}

PARAMS_SCHEMAS = {
    "constants": {
        "type": "object", "additionalProperties": False,
        "required": ["n"],
        "properties": {"n": {"type": "integer", "minimum": 5}},
    },
    "orbit": {
        "type": "object", "additionalProperties": False,
        "required": ["n", "eps"],
        "properties": {
            "n": {"type": "integer", "minimum": 5},
            "eps": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "sweep": {
        "type": "object", "additionalProperties": False,
        "required": ["n", "epsList"],
        "properties": {
            "n": {"type": "integer", "minimum": 5},
            "epsList": {"type": "array", "minItems": 1,
                        "items": {"type": "number", "exclusiveMinimum": 0}},
        },
    },
    "indicial": {
        "type": "object", "additionalProperties": False,
        "required": ["n", "eps"],
        "properties": {
            "n": {"type": "integer", "minimum": 5},
            "eps": {"type": "number", "exclusiveMinimum": 0},
            "modes": _MODES,
        },
    },
    "jacobi": {
        "type": "object", "additionalProperties": False,
        "required": ["n", "eps"],
        "properties": {
            "n": {"type": "integer", "minimum": 5},
            "eps": {"type": "number", "exclusiveMinimum": 0},
            "dEps": {"type": "number", "exclusiveMinimum": 0},
            "gridPerPeriod": _GRID,
        },
    },
    "glue": {
        "type": "object", "additionalProperties": False,
        "required": ["config"],
        "properties": {
            "config": GLUING_CONFIG,
            "gridPerPeriod": _GRID,
            "delta": {"type": "number", "exclusiveMinimum": 1},
            "mList": {"type": "array", "minItems": 3,
                      "items": {"type": "integer", "minimum": 1}},
        },
    },
    "correct": {
        "type": "object", "additionalProperties": False,
        "required": ["config"],
        "properties": {
            "config": GLUING_CONFIG,
            "gridPerPeriod": _GRID,
            "scheme": {"enum": ["picard", "newton"]},
            "tol": {"type": "number", "exclusiveMinimum": 0},
            "maxIter": {"type": "integer", "minimum": 1},
            "minIter": {"type": "integer", "minimum": 1},
            "modes": _MODES,
        },
    },
    "diagnose": {
        "type": "object", "additionalProperties": False,
        "required": ["config"],
        "properties": {
            "config": GLUING_CONFIG,
            "gridPerPeriod": _GRID,
            "delta": {"type": "number", "exclusiveMinimum": 1},
            "deltaPrime": {"type": "number", "exclusiveMinimum": 1},
            "modes": _MODES,
            "applyCorrection": {"type": "boolean"},
        },
    },
}

MANIFEST_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["command", "params"],
    "properties": {
        "command": {"enum": sorted(PARAMS_SCHEMAS)},
        "params": {"type": "object"},
        "out": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
    },
}

_num = {"type": "number"}
_str = {"type": "string"}
_numarr = {"type": "array", "items": {"type": "number"}}
_SERIES_RESIDUAL = {
    "type": "number",
    "description": "ODE residual of the orbit's cosine series at the "
                   "midpoints between its collocation nodes, relative to "
                   "max |v''''| there; 0 for the constant orbit"}
_SERIES_TAIL = {
    "type": "number",
    "description": "|a_N| / max |a_k| of the orbit's cosine series, its "
                   "last coefficient against its largest; 0 for the "
                   "constant orbit"}

SUMMARY_SCHEMAS = {
    "constants": {
        "type": "object", "additionalProperties": False,
        "required": ["command", "n", "c2", "c0", "cN", "p", "qTarget",
                     "epsBar"],
        "properties": {"command": _str, "n": {"type": "integer"},
                       "c2": _num, "c0": _num, "cN": _num, "p": _num,
                       "qTarget": _num, "epsBar": _num, "K": _num,
                       "cH": _num},
    },
    "orbit": {
        "type": "object", "additionalProperties": False,
        "required": ["command", "n", "eps", "period", "hamiltonian",
                     "residualSup"],
        "properties": {"command": _str, "n": {"type": "integer"},
                       "eps": _num, "period": _num, "vDdot0": _num,
                       "hamiltonian": _num, "residualSup": _num,
                       "minDefect": _num,
                       "seriesResidual": _SERIES_RESIDUAL,
                       "seriesTail": _SERIES_TAIL, "hamiltonianDrift": _num,
                       "isConstant": {"type": "boolean"}},
    },
    "sweep": {
        "type": "object", "additionalProperties": False,
        "required": ["command", "n", "rows", "hamiltonianMonotone"],
        "properties": {
            "command": _str, "n": {"type": "integer"},
            "hamiltonianMonotone": {"type": "boolean"},
            "hamiltonianDirection": {"type": "string", "description":
                "increasing, decreasing or non-monotone along epsList; "
                "omitted with fewer than two necksizes"},
            "rows": {"type": "array", "items": {
                "type": "object", "additionalProperties": False,
                "required": ["eps", "period", "hamiltonian", "residualSup"],
                "properties": {"eps": _num, "period": _num,
                               "hamiltonian": _num, "residualSup": _num,
                               "seriesResidual": _SERIES_RESIDUAL,
                               "seriesTail": _SERIES_TAIL},
            }},
        },
    },
    "indicial": {
        "type": "object", "additionalProperties": False,
        "required": ["command", "n", "eps", "modes"],
        "properties": {
            "command": _str, "n": {"type": "integer"}, "eps": _num,
            "modes": {"type": "array", "items": {
                "type": "object", "additionalProperties": False,
                "required": ["l", "lambda", "exponents"],
                "properties": {"l": {"type": "integer"}, "lambda": _num,
                               "exponents": _numarr,
                               "jordanFlags": {"type": "array",
                                               "items": {"type": "boolean"}},
                               "frequencies": _numarr,
                               "detDefect": {
                                   "type": ["number", "null"],
                                   "description":
                                   "|det M - 1| of the one-period flow M, "
                                   "with det M accumulated over its 24 "
                                   "subinterval factors; the flow preserves "
                                   "the boundary pairing, so det M = 1.  "
                                   "null for the constant orbit, whose "
                                   "exponents come from the characteristic "
                                   "quartic without integrating a flow"}},
            }},
        },
    },
    "jacobi": {
        "type": "object", "additionalProperties": False,
        "required": ["command", "n", "eps", "generatorResiduals",
                     "measuredRates"],
        "properties": {
            "command": _str, "n": {"type": "integer"}, "eps": _num,
            "dsdEps": _num, "dTdEps": _num,
            "crossValidationError": {"type": "number", "description":
                "sup over one period of the necksize field minus the "
                "centred difference of the orbits at eps +- dEps"},
            "generatorResiduals": {"type": "object", "description":
                "per generator field, sup of its mode-equation residual "
                "over [-T, 2T] without 8 points at each end, relative to "
                "the field's sup over the same points"},
            "measuredRates": {"type": "object", "description":
                "growth rate log|w(t0 + K T) / w(t0)| / (K T) of each "
                "exponential field (0+, l+, l-); the necksize field 0- "
                "grows linearly and has none"},
            "pairingRatio": _num, "pairingDrift": _num,
        },
    },
    "glue": {
        "type": "object", "additionalProperties": False,
        "required": ["command", "n", "eps", "m", "supPsi", "weightedPsi",
                     "supOutsideBand"],
        "properties": {
            "command": _str, "n": {"type": "integer"}, "eps": _num,
            "m": {"type": "integer"}, "supPsi": _num, "weightedPsi": _num,
            "supResidual": _num, "supOutsideBand": _num, "delta": _num,
            "study": {"type": "object", "additionalProperties": False,
                      "properties": {"mList": {"type": "array",
                                               "items": {"type": "integer"}},
                                     "supPsi": _numarr,
                                     "weightedPsi": _numarr,
                                     "betaHat": {"type": ["number", "null"]},
                                     "fitResidual": {"type": ["number",
                                                              "null"]},
                                     "exact": {"type": "boolean"}}},
        },
    },
    "correct": {
        "type": "object", "additionalProperties": False,
        "required": ["command", "n", "eps", "m", "scheme", "initialDefect",
                     "finalDefect", "converged"],
        "properties": {
            "command": _str, "n": {"type": "integer"}, "eps": _num,
            "m": {"type": "integer"}, "scheme": _str,
            "initialDefect": _num, "finalDefect": _num,
            "residualSup": _num, "psiSup": _num,
            "converged": {"type": "boolean", "description":
                          "the defect fell below tol or 1e-30, or the "
                          "steps stagnated at the rounding floor.  An "
                          "initial defect at or below 1e-30 is converged "
                          "with iterations 0: no system is assembled"},
            "iterations": {"type": "integer"},
            "maxRatio": {"type": ["number", "null"]},
            "cond": {"type": "number", "description":
                     "1-norm condition estimate (Hager-Higham, as in "
                     "LAPACK gecon) of the row-equilibrated bordered "
                     "matrix about the blend; a solve above COND_LIMIT = "
                     "1e13 fails with exit code 3.  Omitted when no "
                     "system is assembled: the initial defect is at or "
                     "below 1e-30, as with exact ends"},
            "solveResidual": {"type": "number", "description":
                              "largest relResidual, max|L u - f| / max|f| "
                              "on the interior, of the run's bordered "
                              "solves; gates no exit code.  Omitted with "
                              "cond, when no solve runs"},
            "alpha": {"type": "object", "description":
                      "deficiency amplitudes of the whole correction, keyed "
                      "'l:' plus end (L, R) and generator sign (+, -); "
                      "newton sums those of its increments"},
        },
    },
    "diagnose": {
        "type": "object", "additionalProperties": False,
        "required": ["command", "n", "eps", "m", "sigmaMin", "delta"],
        "properties": {
            "command": _str, "n": {"type": "integer"}, "eps": _num,
            "m": {"type": "integer"}, "sigmaMin": _num, "delta": _num,
            "deltaPrime": _num, "perMode": {"type": "object"},
            "corrected": {"type": "boolean"}, "condEstimates":
            {"type": "object", "description":
             "borderedSystem: 1-norm condition estimate (Hager-Higham, "
             "as in LAPACK gecon) of the row-equilibrated bordered matrix "
             "about the blend, compared against COND_LIMIT = 1e13.  Empty "
             "when no system is assembled: no correction is applied, or "
             "the initial defect is at or below 1e-30"},
        },
    },
}


# the schemas are constant, so each validator is built once, without
# re-checking its schema on every call; a test checks every schema
_VALIDATOR = jsonschema.Draft202012Validator
_MANIFEST_VALIDATOR = _VALIDATOR(MANIFEST_SCHEMA)
_PARAMS_VALIDATORS = {k: _VALIDATOR(v) for k, v in PARAMS_SCHEMAS.items()}
_SUMMARY_VALIDATORS = {k: _VALIDATOR(v) for k, v in SUMMARY_SCHEMAS.items()}


def _check(validator, doc):
    """Raise the error jsonschema.validate would raise for doc."""
    error = best_match(validator.iter_errors(doc))
    if error is not None:
        raise error


def validate_manifest(doc):
    """Validate a run manifest; raises ManifestError with a JSON pointer."""
    try:
        _check(_MANIFEST_VALIDATOR, doc)
        _check(_PARAMS_VALIDATORS[doc["command"]], doc["params"])
    except jsonschema.ValidationError as exc:
        pointer = "/" + "/".join(str(p) for p in exc.absolute_path)
        raise ManifestError(f"manifest invalid at {pointer}: {exc.message}")
    return doc


def validate_summary(doc):
    command = doc.get("command")
    if command not in SUMMARY_SCHEMAS:
        raise ManifestError(f"no summary schema for command {command!r}")
    _check(_SUMMARY_VALIDATORS[command], doc)
    return doc
