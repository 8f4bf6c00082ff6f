"""Every function the bench tracer wraps or the workloads call still exists in the package.

``bench/tracing.py`` lists its targets as ``(layer, attribute path, kind)``
and looks each one up in ``covpovm.<layer>`` when tracing is installed.  A
rename or deletion in the package would otherwise surface only when the
benchmark runs; here it fails the suite.  The tracer module is loaded from its
file, unchanged; the workloads file is parsed as text.  Each keyword the
workloads pass to a package callable must be one of its parameters.
"""

import ast
import importlib
import importlib.util
import inspect
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


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workload_calls():
    """The package names ``bench/workloads.py`` reads and the keywords it passes.

    The file is parsed, not imported.  Returns ``(reads, keywords)``: every
    ``alias.name`` read on a ``from covpovm import <module> as alias`` import,
    and every ``(alias.name, keyword)`` handed to such a callable, counting a
    ``**x.get("key")`` argument as the keys of every ``{"key": {...}}``
    literal in the file.
    """
    tree = ast.parse(WORKLOADS.read_text())
    aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "covpovm"
               for a in node.names}
    nested = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(value, ast.Dict):
                    nested.setdefault(key.value, set()).update(
                        k.value for k in value.keys if isinstance(k, ast.Constant))
    reads, keywords = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            reads.add((aliases[node.value.id], node.attr))
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases):
            continue
        target = (aliases[node.func.value.id], node.func.attr)
        for kw in node.keywords:
            if kw.arg is not None:
                keywords.add((*target, kw.arg))
                continue
            source = kw.value   # x.get("key", default)
            if (isinstance(source, ast.Call) and source.args
                    and isinstance(source.args[0], ast.Constant)):
                keywords.update((*target, k) for k in nested.get(source.args[0].value, ()))
    return sorted(reads), sorted(keywords)


def test_workloads_use_the_package_as_it_is():
    reads, keywords = _workload_calls()
    for module, name in reads:
        owner = importlib.import_module(f"covpovm.{module}")
        assert hasattr(owner, name), f"bench/workloads.py reads missing covpovm.{module}.{name}"
    assert ("rep", "is_cyclic_vector", "decomp") in keywords
    assert {"restarts", "rng_seed"} <= {k for m, f, k in keywords if f == "FalsifierSettings"}
    for module, name, keyword in keywords:
        target = getattr(importlib.import_module(f"covpovm.{module}"), name)
        assert keyword in inspect.signature(target).parameters, \
            f"covpovm.{module}.{name} takes no {keyword!r}"
