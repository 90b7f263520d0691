"""Every function the benchmark's tracer wraps must exist in the library.

The tracer (``perfbench/tracing.py``) rebinds the functions named in its
``WRAPPED`` table and refuses to install when one is missing, so renaming
one of them would otherwise only show when the benchmark runs.  It also
counts the samples drawn by each of its ``SAMPLERS`` from their ``count``
argument, so that argument must stay where the tracer reads it.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer,modname,owner,name", _tracing().WRAPPED, ids=lambda v: str(v))
def test_wrapped_name_resolves(layer, modname, owner, name):
    module = importlib.import_module(modname)
    if owner is None:
        assert callable(getattr(module, name, None)), f"{modname}.{name} is missing"
    else:
        # the tracer patches methods found in the class's own namespace
        raw = vars(getattr(module, owner)).get(name)
        if isinstance(raw, classmethod):
            raw = raw.__func__
        assert callable(raw), f"{modname}.{owner}.{name} is missing"


@pytest.mark.parametrize("name", _tracing().SAMPLERS)
def test_sampler_count_is_the_third_positional_parameter(name):
    # the tracer counts samples from args[2], or from kwargs["count"]
    params = list(inspect.signature(getattr(importlib.import_module("qsiegel.integrals"), name)).parameters.values())
    assert params[2].name == "count"
    assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
