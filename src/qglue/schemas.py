"""Published JSON schemas: run manifests (validated strictly before
execution, unknown keys rejected), the summary documents each subcommand
emits and the status file of a batch of manifests, with the checker that
enforces them.

The schemas are JSON Schema (Draft 2020-12) written with nine keywords:
type, properties, required, additionalProperties (false only), items,
minItems, minimum, exclusiveMinimum and enum; description is an
annotation.  The checker here implements exactly those, with jsonschema's
type semantics and error messages; the tests check that every published
schema uses no other keyword and hold the checker to jsonschema as an
oracle.
"""

from numbers import Number

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
        "seed": {"type": "integer", "minimum": 0, "description":
                 "accepted for compatibility; no output depends on it"},
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
                "exponential field (l+, l-); the degree-0 fields have "
                "none: the phase field 0+ is periodic and the necksize "
                "field 0- grows linearly"},
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
            "supResidual": _num, "delta": _num,
            "supOutsideBand": {"type": "number", "description":
                "sup of |psi| over the rows the defect is evaluated on (the "
                "cutoff ramp widened by two stencil half-widths) outside "
                "the blend band widened by one: a strip of four or five "
                "rows on each side, nonzero only if the plateaus stop "
                "cancelling"},
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
            "residualSup": {"type": "number", "description":
                            "interior sup of the final total defect "
                            "f0 + L u + R(u) of the corrected field, "
                            "relative to the modeled-exact ends: equal to "
                            "finalDefect"},
            "psiSup": _num,
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
                      "'l:' plus end (L, R) and generator sign (+, -): "
                      "the sum of those of the steps, in either scheme"},
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


_EXIT = {"enum": [0, 1, 2, 3]}

BATCH_STATUS_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["exitCode", "manifests"],
    "description": "the status file of a `qglue run` batch",
    "properties": {
        "exitCode": dict(_EXIT, description=(
            "the batch's exit code: the largest of its manifests', 0 for "
            "an empty batch")),
        "manifests": {
            "type": "array",
            "description": "one entry per manifest, in the batch's order",
            "items": {
                "type": "object", "additionalProperties": False,
                "required": ["exitCode"],
                "properties": {
                    "exitCode": _EXIT,
                    "error": {"type": "string", "description":
                              "the failure as printed to standard error; "
                              "only when exitCode is not 0"},
                },
            },
        },
    },
}


class SummaryError(ValueError):
    """A command emitted a summary its schema rejects: a program fault, so
    deliberately not a QGlueError with an exit code of its own."""


# JSON type name -> test, as jsonschema's Draft 2020-12 type checker: bool
# is no number, a float with an integral value is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _names(types):
    return [types] if isinstance(types, str) else types


def iter_errors(schema, doc, path=()):
    """(path, message) of every violation of schema by doc, in the order
    and with the wording of jsonschema's iter_errors.  A keyword tests only
    the type it applies to, so NaN passes minimum and exclusiveMinimum."""
    is_number, is_object = _TYPES["number"](doc), isinstance(doc, dict)
    for key, arg in schema.items():
        if key == "type" and not any(_TYPES[t](doc) for t in _names(arg)):
            names = ", ".join(repr(t) for t in _names(arg))
            yield path, f"{doc!r} is not of type {names}"
        elif key == "enum" and not any(
                e == doc and isinstance(e, bool) == isinstance(doc, bool)
                for e in arg):
            yield path, f"{doc!r} is not one of {arg!r}"
        elif key == "minimum" and is_number and doc < arg:
            yield path, f"{doc!r} is less than the minimum of {arg!r}"
        elif key == "exclusiveMinimum" and is_number and doc <= arg:
            yield path, (f"{doc!r} is less than or equal to the minimum "
                         f"of {arg!r}")
        elif key == "minItems" and isinstance(doc, list) and len(doc) < arg:
            short = "should be non-empty" if arg == 1 else "is too short"
            yield path, f"{doc!r} {short}"
        elif key == "items" and isinstance(doc, list):
            for index, item in enumerate(doc):
                yield from iter_errors(arg, item, path + (index,))
        elif key == "required" and is_object:
            for name in arg:
                if name not in doc:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties" and is_object:
            extras = sorted(set(doc) - set(schema.get("properties", ())),
                            key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                yield path, ("Additional properties are not allowed ("
                             + ", ".join(repr(e) for e in extras)
                             + f" {verb} unexpected)")
        elif key == "properties" and is_object:
            for name, sub in arg.items():
                if name in doc:
                    yield from iter_errors(sub, doc[name], path + (name,))


def _first_error(schema, doc, root=()):
    """'at <JSON pointer>: <message>' of doc's first violation, or None;
    the pointer is into the document that holds doc at the path root."""
    for path, message in iter_errors(schema, doc, root):
        return f"at /{'/'.join(str(p) for p in path)}: {message}"
    return None


def validate_manifest(doc):
    """Validate a run manifest, then its params against its command's
    schema; raises ManifestError with a JSON pointer into the manifest,
    such as /params/config/m for a params violation."""
    error = _first_error(MANIFEST_SCHEMA, doc)
    if error is None:
        error = _first_error(PARAMS_SCHEMAS[doc["command"]], doc["params"],
                             ("params",))
    if error is not None:
        raise ManifestError(f"manifest invalid {error}")
    return doc


def validate_summary(doc):
    """Validate a command's summary; raises SummaryError if it fails."""
    command = doc.get("command")
    if command not in SUMMARY_SCHEMAS:
        raise ManifestError(f"no summary schema for command {command!r}")
    error = _first_error(SUMMARY_SCHEMAS[command], doc)
    if error is not None:
        raise SummaryError(f"summary invalid {error}")
    return doc
