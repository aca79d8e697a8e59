"""The benchmark's tracer wraps functions of the package by name.

``perfbench/tracing.py`` lists them in ``WRAPPED``, and ``<Class>.validate``
stands for the dataclass ``__post_init__``.  A rename or deletion in the
package would otherwise surface only when a traced benchmark run fails, so
this test imports the tracer by path, without changing it, and resolves
every name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = load_tracing().WRAPPED


@pytest.mark.parametrize("module_name", sorted(WRAPPED))
def test_every_traced_name_resolves(module_name):
    module = importlib.import_module(f"muculants.{module_name}")
    for name in WRAPPED[module_name]:
        if name.endswith(".validate"):
            cls = getattr(module, name.split(".")[0], None)
            assert cls is not None, f"{module_name}.{name}"
            assert "__post_init__" in vars(cls), f"{module_name}.{name}"
        else:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
