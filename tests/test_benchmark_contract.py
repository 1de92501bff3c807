"""The traced benchmark rebinds package attributes by name; keep them there.

`benchmark/spans.py` lists in WRAPPED the (module, attribute) pairs it
rebinds, and files each span under the layer named by the defining
module of the function.  Moving a traced function out of its module, or
into a module that is not a layer, breaks the traced run.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("mod,attr", spans.WRAPPED,
                         ids=[f"{m}.{a}" for m, a in spans.WRAPPED])
def test_wrapped_attribute_resolves_to_a_layer(mod, attr):
    assert mod in spans.LAYERS
    target = getattr(importlib.import_module(f"trace_relations.{mod}"), attr)
    assert callable(target)
    package, _, layer = target.__module__.rpartition(".")
    assert package == "trace_relations"
    assert layer in spans.LAYERS
