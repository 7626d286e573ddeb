"""A static check that the library computes in exact arithmetic only, as
the README's "no floating point" promises: no float literal, no float()
or round(), nothing from math but gcd and isqrt, and no true division."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "kgenus").glob("*.py"))
MATH_NAMES = {"gcd", "isqrt"}


def inexact_nodes(name: str, source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"{name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where} float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "round"):
            found.append(f"{where} name {node.id}")
        elif isinstance(node, ast.Import) and any(
                alias.name == "math" for alias in node.names):
            found.append(f"{where} import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and any(
                alias.name not in MATH_NAMES for alias in node.names):
            found.append(f"{where} from math import "
                         + ", ".join(alias.name for alias in node.names))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where} true division")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_library_source_is_exact(path):
    assert inexact_nodes(path.name, path.read_text()) == []


def test_the_check_sees_each_inexact_construct():
    source = ("from math import sqrt\nimport math\nx = 0.5\ny = float(3)\n"
              "z = round(x)\nw = 1 / 2\nw /= 3\n")
    found = inexact_nodes("probe.py", source)
    assert sorted(found) == [
        "probe.py:1 from math import sqrt", "probe.py:2 import math",
        "probe.py:3 float literal 0.5", "probe.py:4 name float",
        "probe.py:5 name round", "probe.py:6 true division",
        "probe.py:7 true division"]
    # no function and no module is exempt
    division = "def bernoulli(m):\n    return m / 2\n"
    assert inexact_nodes("exactnum.py", division) == ["exactnum.py:2 true division"]
