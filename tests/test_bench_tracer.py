"""The bench tracer's layer names still name fneg's callables.

``bench/tracing.py`` wraps its layer functions by name and reports a name it
cannot find as missing, so a rename in ``src/`` would blind the per-layer
benchmark metrics without failing a test here.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import fneg.verify

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_layer_callable_is_found():
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []


def test_verify_layer_callables_take_a_trial_count():
    # the tracer reads "trials" or "samples" to report verify's seconds per trial
    _, names = _tracing_module().LAYERS["verify"]
    for name in names:
        params = inspect.signature(getattr(fneg.verify, name)).parameters
        assert "trials" in params or "samples" in params, name
