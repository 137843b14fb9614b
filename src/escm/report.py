"""Canonical JSON emission and model hashing.

Reports are deterministic: keys are sorted, floats print as their shortest
round-trip decimal (Python's repr), and no wall-clock or locale state
leaks in.  Identical inputs therefore produce byte-identical output.

A report is encoded by one ``json.dumps`` call, whose ``default`` hook
turns numpy scalars and arrays and dataclass instances into plain values.
JSON has no infinity or NaN: a report that holds one is encoded again from
:func:`jsonable`, which writes each non-finite float as the string
``"inf"``, ``"-inf"`` or ``"nan"``; the command's exit code does not
change.  Both encodings give the same bytes for every payload whose dict
keys are all strings, as every CLI payload's are.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, is_dataclass

import numpy as np

__all__ = ["canonical_json", "jsonable", "model_hash", "model_text"]


def _plain(obj):
    """A numpy array or scalar, or a dataclass instance, as plain Python
    values; ``TypeError``, as ``json.dumps`` raises, for anything else."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and dataclasses to plain
    JSON-safe values; non-finite floats become strings."""
    if isinstance(obj, float):  # np.float64 included
        return float(obj) if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (str, int)):
        return obj
    return jsonable(_plain(obj))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":"),
                      ensure_ascii=False, default=_plain)


def canonical_json(obj) -> str:
    """Sorted-key, shortest-float JSON; a non-finite float prints as its
    repr string."""
    try:
        return _dumps(obj)
    except ValueError:  # a non-finite float, which allow_nan refuses
        return _dumps(jsonable(obj))


def model_text(model) -> str:
    """Canonical on-disk form of a model (newline-terminated)."""
    return canonical_json(model.to_dict()) + "\n"


def model_hash(model) -> str:
    """Content digest of the canonical model serialization."""
    return hashlib.sha256(model_text(model).encode("utf-8")).hexdigest()
