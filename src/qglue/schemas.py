"""Published JSON schemas: run manifests (validated strictly before
execution, unknown keys rejected) and the summary documents each subcommand
emits."""

import jsonschema

from .errors import ManifestError

_END = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "eps": {"type": "number", "exclusiveMinimum": 0},
        "T0": {"type": "number", "minimum": 0},
        "a": {"type": "array", "items": {"type": "number"}},
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
        "r0": {"type": "number", "exclusiveMinimum": 0},
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
            "tol": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "sweep": {
        "type": "object", "additionalProperties": False,
        "required": ["n", "epsList"],
        "properties": {
            "n": {"type": "integer", "minimum": 5},
            "epsList": {"type": "array", "minItems": 1,
                        "items": {"type": "number", "exclusiveMinimum": 0}},
            "tol": {"type": "number", "exclusiveMinimum": 0},
            "gridPerPeriod": _GRID,
        },
    },
    "indicial": {
        "type": "object", "additionalProperties": False,
        "required": ["n", "eps"],
        "properties": {
            "n": {"type": "integer", "minimum": 5},
            "eps": {"type": "number", "exclusiveMinimum": 0},
            "modes": _MODES,
            "tol": {"type": "number", "exclusiveMinimum": 0},
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
                       "periodicityDefect": _num, "minDefect": _num,
                       "hamiltonianDrift": _num, "isConstant":
                       {"type": "boolean"}},
    },
    "sweep": {
        "type": "object", "additionalProperties": False,
        "required": ["command", "n", "rows", "hamiltonianMonotone"],
        "properties": {
            "command": _str, "n": {"type": "integer"},
            "hamiltonianMonotone": {"type": "boolean"},
            "hamiltonianDirection": _str,
            "rows": {"type": "array", "items": {
                "type": "object", "additionalProperties": False,
                "required": ["eps", "period", "hamiltonian", "residualSup"],
                "properties": {"eps": _num, "period": _num,
                               "hamiltonian": _num, "residualSup": _num,
                               "periodicityDefect": _num},
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
                               "frequencies": _numarr},
            }},
        },
    },
    "jacobi": {
        "type": "object", "additionalProperties": False,
        "required": ["command", "n", "eps", "generatorResiduals",
                     "measuredRates"],
        "properties": {
            "command": _str, "n": {"type": "integer"}, "eps": _num,
            "dsdEps": _num, "dTdEps": _num, "crossValidationError": _num,
            "generatorResiduals": {"type": "object"},
            "measuredRates": {"type": "object"},
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
            "converged": {"type": "boolean"},
            "iterations": {"type": "integer"},
            "maxRatio": {"type": ["number", "null"]},
            "cond": {"type": "number", "description":
                     "1-norm condition estimate (Hager-Higham, as in "
                     "LAPACK gecon) of the row-equilibrated bordered "
                     "matrix about the blend; a solve above cond_limit = "
                     "1e13 fails with exit code 3"},
            "alpha": {"type": "object"},
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
             "about the blend, compared against cond_limit = 1e13"},
        },
    },
}


def validate_manifest(doc):
    """Validate a run manifest; raises ManifestError with a JSON pointer."""
    try:
        jsonschema.validate(doc, MANIFEST_SCHEMA)
        jsonschema.validate(doc["params"], PARAMS_SCHEMAS[doc["command"]])
    except jsonschema.ValidationError as exc:
        pointer = "/" + "/".join(str(p) for p in exc.absolute_path)
        raise ManifestError(f"manifest invalid at {pointer}: {exc.message}")
    return doc


def validate_summary(doc):
    command = doc.get("command")
    if command not in SUMMARY_SCHEMAS:
        raise ManifestError(f"no summary schema for command {command!r}")
    jsonschema.validate(doc, SUMMARY_SCHEMAS[command])
    return doc
