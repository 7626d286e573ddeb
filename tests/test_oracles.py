"""The test oracles themselves: their refusals, and their independence
from the library paths they check."""

import ast
import time
from pathlib import Path

import pytest

from oracles import multiplicative_order


@pytest.mark.parametrize("g, modulus", [(0, 1), (2, 4), (6, 9)])
def test_multiplicative_order_refuses_a_non_unit(g, modulus):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        multiplicative_order(g, modulus)
    assert time.perf_counter() - start < 1.0


def test_oracles_import_only_the_shape_and_the_per_set_decider():
    # the docstring of tests/oracles.py promises that nothing there
    # shares code with the library paths it checks, except the per-set
    # decider of the vanishing catalog and the shape it is called with
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [alias.name for alias in node.names
                        if alias.name.split(".")[0] == "kgenus"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "kgenus"):
            imports.append((node.level, node.module,
                            sorted(alias.name for alias in node.names)))
    assert imports == [(0, "kgenus.classify",
                        ["ExtensionShape", "TOTALLY_IMAGINARY", "vanishing_decision"])]
