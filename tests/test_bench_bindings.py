"""The library names that the benchmark's traced run rebinds must keep resolving.

``perfbench/layers.py`` wraps each ``(module, attr)`` of its ``BINDINGS`` at
run time; a renamed or removed function would otherwise surface only when
the benchmark's own self-test runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_layers():
    # layers.py imports its sibling ``tracing``, so perfbench/ joins the path
    # only while it loads
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_traced_bindings_resolve_to_callables():
    bindings = _load_layers().BINDINGS
    assert bindings
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in bindings
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
