"""One [re, im] codec: only ``linalg`` reads or writes complex numbers as pairs.

Each module of the package except ``linalg`` is parsed.  A two-argument
``complex(re, im)`` call decodes a pair, and a two-element list or tuple whose
first element takes a real part and whose second takes an imaginary part
encodes one; either fails the test, so that the JSON layout of complex arrays
is written once, in ``linalg.encode_complex`` and ``linalg.decode_complex``.
"""

import ast
from pathlib import Path

import covpovm

PACKAGE = Path(covpovm.__file__).parent


def _takes(node, part: str) -> bool:
    """Whether the expression reads ``x.real`` or calls ``real(x)`` (``imag`` alike)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == part:
            return True
        if isinstance(sub, ast.Name) and sub.id == part:
            return True
    return False


def pair_codecs(path: Path):
    """(line, what) for every complex pair encoded or decoded outside the codec."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "complex" and len(node.args) + len(node.keywords) == 2):
            found.append((node.lineno, "complex(re, im)"))
        if (isinstance(node, (ast.List, ast.Tuple)) and len(node.elts) == 2
                and _takes(node.elts[0], "real") and _takes(node.elts[1], "imag")):
            found.append((node.lineno, "[re, im] pair"))
    return found


def test_pairs_are_coded_in_linalg_only():
    stray = [
        f"{path.name}:{line} {what}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"
        for line, what in pair_codecs(path)
    ]
    assert not stray, "complex pairs coded outside linalg: " + ", ".join(stray)


def test_guard_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "a = complex(x, y)\n"
        "b = complex(real=x, imag=y)\n"
        "c = [z.real, z.imag]\n"
        "d = [float(np.real(z)), float(np.imag(z))]\n"
        "e = complex(x)\n"
        "f = [z.real, w]\n",
        encoding="utf-8",
    )
    assert [line for line, _ in pair_codecs(sample)] == [1, 2, 3, 4]


def test_linalg_holds_the_codec():
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"encode_complex", "decode_complex"} <= names
