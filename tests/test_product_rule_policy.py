"""One reader per rule: one product-rule pass, one budget rule for the cover, one closure.

Each module of the package is parsed, and every name or attribute that reads
``_product_blocks``, ``_scan``, ``_generator_route``, ``COVER_BUDGET`` or
``_closure`` is charged to the top-level function or class that holds it
(``<module>`` at module level).  A representation is validated once, in ``rep_from_matrices``:
``_product_blocks`` may be read by ``rep._scan`` and ``rep._generator_route``
only, and those two by ``rep.rep_from_matrices`` only.  Everything after
validation reads the bounds that call kept, so a second pass fails the test.
``COVER_BUDGET`` is defined at ``povm``'s module level and read by
``povm._cover`` only, so a second rule limiting the cover fails it too.
``group._closure`` is read by ``FiniteGroup``, which builds the generating
set once, and ``subgroup_generated`` only, so a second generating-set routine
outside the group layer fails it as well.
"""

import ast
from pathlib import Path

import covpovm

PACKAGE = Path(covpovm.__file__).parent

# [name] -> the (module, top-level definition) pairs allowed to read it
READERS = {
    "_product_blocks": {("rep.py", "_scan"), ("rep.py", "_generator_route")},
    "_scan": {("rep.py", "rep_from_matrices")},
    "_generator_route": {("rep.py", "rep_from_matrices")},
    "COVER_BUDGET": {("povm.py", "<module>"), ("povm.py", "_cover")},
    "_closure": {("group.py", "FiniteGroup"), ("group.py", "subgroup_generated")},
}


def rule_reads(path: Path):
    """(line, name, holder) for every read of a name of ``READERS`` in the module."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        holder = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in READERS:
                found.append((node.lineno, node.id, holder))
            elif isinstance(node, ast.Attribute) and node.attr in READERS:
                found.append((node.lineno, node.attr, holder))
    return found


def test_only_rep_from_matrices_runs_the_product_rule():
    stray = [
        f"{path.name}:{line} {holder} reads {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name, holder in rule_reads(path)
        if (path.name, holder) not in READERS[name]
    ]
    assert not stray, "rule read outside its readers: " + ", ".join(stray)


def test_guard_sees_the_routes():
    # the allowed reads exist, so the guard is looking at the right names
    reads = {(name, (module, holder)) for module in ("rep.py", "povm.py", "group.py")
             for _, name, holder in rule_reads(PACKAGE / module)}
    assert reads == {(name, place) for name, allowed in READERS.items() for place in allowed}


def test_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def _scan(group, stack):\n"
        "    return list(_product_blocks(group, stack))\n"
        "def helper(group, stack):\n"
        "    return rp._generator_route(group, stack, 0.0)\n"
        "class Checker:\n"
        "    def run(self, group, stack):\n"
        "        blocks = _product_blocks\n"
        "        return blocks(group, stack)\n"
        "scan = rp._scan\n"
        "def _product_blocks(group, stack):\n"
        "    return 'the _scan docstring is no read'\n",
        encoding="utf-8",
    )
    assert rule_reads(sample) == [
        (2, "_product_blocks", "_scan"), (4, "_generator_route", "helper"),
        (7, "_product_blocks", "Checker"), (9, "_scan", "<module>"),
    ]
