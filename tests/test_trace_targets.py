"""The end-to-end benchmark's tracer targets still exist.

A traced benchmark run (``python -m benchmarks.e2e run --traced``) wraps
every ``benchmarks/e2e/layers.TARGETS`` entry and raises ``TypeError``
when one no longer names a function defined on its owner -- a module,
or the class that defines the method.  Renaming or moving one of those
functions must fail here rather than in the benchmark.
"""

import importlib
import types

from benchmarks.e2e.layers import TARGETS


def test_every_target_is_a_function_defined_on_its_owner():
    unresolved = []
    for _layer, module_name, qualname, _hook in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if not isinstance(vars(owner or object).get(attr), types.FunctionType):
            unresolved.append(f"{module_name}:{qualname}")
    assert unresolved == []
