"""Every function the benchmark measures by name still exists under that name.

``BENCHMARK.json`` lists per-layer metrics ``<layer>.calls`` and per-function
metrics ``<layer>.<qualname>.calls`` (also ``.self_s`` and ``.errors``).  The
benchmark's tracer names a public function by its defining module's last name
and its qualified name, and a run stops when a listed name was never measured.
A deleted or renamed function fails here instead.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SUFFIXES = (".calls", ".self_s", ".errors")


def _measured_names() -> list[str]:
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    names = {m["name"].rsplit(".", 1)[0] for m in metrics if m["name"].endswith(SUFFIXES)}
    return sorted(names)


NAMES = _measured_names()
FUNCTIONS = [n for n in NAMES if "." in n]


def test_benchmark_names_functions():
    assert FUNCTIONS


@pytest.mark.parametrize("name", NAMES)
def test_measured_name_resolves(name):
    layer, _, qualname = name.partition(".")
    module = importlib.import_module(f"optheory.{layer}")
    if not qualname:
        return
    assert not any(part.startswith("_") for part in qualname.split(".")), "not traced"
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
    # The tracer names a function after the module that defines it.
    assert obj.__module__ == module.__name__
    assert obj.__qualname__ == qualname
