"""Set-up probe: a fresh interpreter imports kgenus and makes one small
call per operation kind of a workload.  Prints the import times as JSON;
the caller times the whole process.

    python3 perfbench/probe.py <workload>

It imports nothing of the benchmark but the import timer, so the
process pays only for what a user of kgenus pays.
"""

import json
import sys
from pathlib import Path
from time import perf_counter_ns

from tracing import NumpyImportTimer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

CLI_CALLS = (
    ["local", "--p", "3", "--tame", "7", "--ell", "7", "--i", "2"],
    ["tate-oracle", "--m", "8", "--n", "4", "--u", "3"],
    ["primitive", "--p", "2", "--i", "3", "--primes", "7,11"],
    ["genus", "--p", "3", "--tame", "7,13", "--i", "2"],
    ["kgenus", "--p", "2", "--tame", "5", "--i", "3"],
    ["bounds", "--p", "3", "--tame", "7", "--i", "2"],
    ["classify", "--p", "2", "--imaginary", "--tame", "5", "--i", "4"],
    ["enumerate", "--p", "2", "--imaginary", "--i", "4", "--bound", "50"],
    ["quad", "--d", "13"],
    ["ktable", "--max-i", "12"],
)


def warm_shape_reports(kg):
    ext = kg.CyclicExtensionOfQ(3, frozenset({7}), True, False)
    for ell in ext.ramified_finite:
        kg.local_invariants(ext, ell, 2)
    kg.genus_exponent(ext, 2)
    kg.k_genus_ratio(ext, 2)
    kg.descent_bounds(ext, 2)
    kg.exact_descent_structure(ext, 2)
    kg.vanishing_decision(kg.ExtensionShape(3, frozenset({7})), 2)


def warm_quad_fields(kg):
    kg.quad_field_data(13)
    kg.quad_field_data(-23)
    kg.discriminant(5)


def warm_cli_session(kg):
    import contextlib
    import io

    import kgenus.cli

    with contextlib.redirect_stdout(io.StringIO()):
        for argv in CLI_CALLS:
            kgenus.cli.main(argv)


if __name__ == "__main__":
    numpy_timer = NumpyImportTimer()
    start = perf_counter_ns()
    import kgenus
    import_ns = perf_counter_ns() - start
    globals()[f"warm_{sys.argv[1]}"](kgenus)
    print(json.dumps({"import_ms": import_ns / 1e6, "numpy_import_ms": numpy_timer.ns / 1e6}))
