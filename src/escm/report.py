"""Canonical JSON emission and model hashing.

Reports are deterministic: keys are sorted, floats print as their shortest
round-trip decimal (Python's repr), and no wall-clock or locale state
leaks in.  Identical inputs therefore produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, is_dataclass

import numpy as np

__all__ = ["canonical_json", "jsonable", "model_hash", "model_text"]


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and dataclasses to plain
    JSON-safe values; non-finite floats become strings."""
    # exact built-in types first: they are nearly every value of a report
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else repr(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is dict:
        return {str(k): jsonable(v) for k, v in obj.items()}
    if kind is list:
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if not np.isfinite(value):
            return repr(value)
        return value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    return obj


def canonical_json(obj) -> str:
    """Sorted-key, shortest-float JSON; raises on NaN/inf leakage."""
    return json.dumps(jsonable(obj), sort_keys=True, allow_nan=False,
                      separators=(",", ":"), ensure_ascii=False)


def model_text(model) -> str:
    """Canonical on-disk form of a model (newline-terminated)."""
    return canonical_json(model.to_dict()) + "\n"


def model_hash(model) -> str:
    """Content digest of the canonical model serialization."""
    return hashlib.sha256(model_text(model).encode("utf-8")).hexdigest()
