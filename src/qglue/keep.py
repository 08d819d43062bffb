"""What the process keeps, under one rule: a kept result is handed to
every caller that asks for it again, so its arrays are made read-only
once, when it is computed (README, "What the process keeps").
"""

import functools

import numpy as np


def read_only(x):
    """x, with every array in it read-only: x itself if it is an array,
    else those reached through tuples, lists, dict values and attributes,
    except below a frozen dataclass (an input, or an orbit kept read-only)."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
        return x
    parts = (x if isinstance(x, (tuple, list)) else x.values()
             if isinstance(x, dict) else vars(x).values()
             if hasattr(x, "__dict__") else ())
    for part in parts:
        params = getattr(part, "__dataclass_params__", None)
        if params is None or not params.frozen:
            read_only(part)
    return x


def get_or_compute(store, key, compute):
    """store[key], computed by compute() and stored read-only at the first
    call; a compute() that raises stores nothing."""
    if key not in store:
        store[key] = read_only(compute())
    return store[key]


def frozen_cache(fn):
    """functools.cache of fn, each result made read-only when computed."""
    return functools.cache(functools.wraps(fn)(lambda *a: read_only(fn(*a))))
