"""The functions the benchmark's traced run wraps exist in escm.

``perfbench/spans.py`` (loaded here read-only) replaces each
``(module, attribute path)`` in its ``TRACED`` table; a rename in escm
would make ``perfbench/run.py --trace 1`` fail, so it fails here first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_target_resolves():
    missing = []
    for module_name, path, name, _ in _traced():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path} ({name})")
    assert missing == []


def test_term_jet_takes_active_fourth():
    # the traced run reads ``active`` from kwargs or from args[3]
    from escm.engine import Objective

    params = list(inspect.signature(Objective.term_jet).parameters)
    assert params[:5] == ["self", "term", "point", "active", "order"]
