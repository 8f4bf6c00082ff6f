"""Every function the bench tracer wraps still exists in the package.

``bench/tracing.py`` lists its targets as ``(layer, attribute path, kind)``
and looks each one up in ``covpovm.<layer>`` when tracing is installed.  A
rename or deletion in the package would otherwise surface only when the
benchmark runs; here it fails the suite.  The tracer module is loaded from its
file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer, attr, kind", _targets())
def test_target_resolves(layer, attr, kind):
    owner = importlib.import_module(f"covpovm.{layer}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # methods are wrapped through the class dictionary, functions by attribute
    found = vars(owner).get(name) if path else getattr(owner, name, None)
    assert callable(found), f"covpovm.{layer}.{attr} is not a function"
