"""One tolerance policy: every threshold outside ``linalg`` is a named constant.

Each module of the package except ``linalg`` is parsed, and any float literal
small enough to be a numerical tolerance fails the test, so that a verdict
never depends on which module's literal made a comparison.  The falsifier's
algorithm constants (its settings defaults and the STALL share that ends a
restart) are search parameters, not tolerances, and are allowed where they
stand.
"""

import ast
from pathlib import Path

import covpovm

PACKAGE = Path(covpovm.__file__).parent
SMALLEST_PLAIN_LITERAL = 1e-4

# (module, enclosing definition, value)
ALLOWED = {
    ("povm.py", "FalsifierSettings", 1e-12),
    ("povm.py", "FalsifierSettings", 1e-26),
    ("povm.py", "<module>", 1e-10),
}


def small_float_literals(path: Path):
    """(enclosing definition, value, line) for every float literal in (0, 1e-4)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0 < node.value < SMALLEST_PLAIN_LITERAL):
            found.append((scope, node.value, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_tolerances_are_named_in_linalg():
    stray = [
        f"{path.name}:{line} {value!r} in {scope}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"
        for scope, value, line in small_float_literals(path)
        if (path.name, scope, value) not in ALLOWED
    ]
    assert not stray, "bare tolerance literals: " + ", ".join(stray)


def test_linalg_holds_the_four_constants():
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    constants = {
        target.id
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    assert constants == {"RANK_RTOL", "ZERO_ATOL", "ATOL", "PHASE_ATOL"}


def test_allowed_literals_still_exist():
    present = {
        (path.name, scope, value)
        for path in PACKAGE.glob("*.py")
        for scope, value, _ in small_float_literals(path)
    }
    assert ALLOWED <= present
