"""The names the benchmark's tracer binds still exist, with the arguments it reads.

perfbench/tracing.py wraps every function its LAYERS table names, and on
each call reads the `times` and the `spec` or `params` argument of the
kernel entry points in KERNEL_FLOPS and the `path` argument of the output
writers. A rename or a changed signature breaks traced benchmark runs
while the package itself still works, so the two tables are checked here,
read from that file as it stands.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
BINDINGS = [(layer, name) for layer, names in tracing.LAYERS.items() for name in names]


def _bound(layer, name):
    return getattr(importlib.import_module(f"{tracing.PACKAGE}.{layer}"), name, None)


def _parameters(name):
    layer = next(layer for layer, names in tracing.LAYERS.items() if name in names)
    return inspect.signature(_bound(layer, name)).parameters


@pytest.mark.parametrize("layer, name", BINDINGS, ids=[f"{l}.{n}" for l, n in BINDINGS])
def test_every_traced_name_resolves_in_its_module(layer, name):
    assert callable(_bound(layer, name))


@pytest.mark.parametrize("name", sorted(tracing.KERNEL_FLOPS))
def test_kernel_entry_points_take_times_and_a_spec_or_params(name):
    parameters = _parameters(name)
    assert "times" in parameters
    assert "spec" in parameters or "params" in parameters


@pytest.mark.parametrize("name", tracing.LAYERS["output"])
def test_output_writers_take_a_path(name):
    assert "path" in _parameters(name)
