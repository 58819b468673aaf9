"""The benchmark's traced run wraps stochdom functions by name.

perfbench/spans.py lists them in WRAPPED as (module, attribute, span)
triples; renaming or deleting one breaks the traced run, so this test
fails first.  spans.py imports only the standard library.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import stochdom
import stochdom.cli  # noqa: F401  (WRAPPED names live in stochdom.cli too)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    wrapped = _load_spans().WRAPPED
    pairs = [(module, attr) for module, attr, _ in wrapped if module is not None]
    assert pairs
    missing = [(m, a) for m, a in pairs if not callable(getattr(sys.modules[m], a, None))]
    assert not missing, f"names the traced benchmark run wraps are gone: {missing}"


def test_thresholds_wrapper_signature():
    # the traced run calls critical_thresholds(y, x, p, tol, diagnostics) positionally
    inspect.signature(stochdom.dominance.critical_thresholds).bind(None, None, None, None, None)
