"""The benchmark's own tests: the verifiers on known values and on
deliberately wrong answers, and a brief verified run of every workload.

    python3 perfbench/run.py --self-check
    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import verify as V

BENCH_DIR = Path(__file__).resolve().parent


def _tate_by_sets(m, n, u):
    norm = sum(pow(u, j, m) for j in range(n)) % m
    fixed = sum(1 for x in range(m) if (u - 1) * x % m == 0)
    norm_image = len({norm * x % m for x in range(m)})
    norm_kernel = sum(1 for x in range(m) if norm * x % m == 0)
    shift_image = len({(u - 1) * x % m for x in range(m)})
    return fixed // norm_image, norm_kernel // shift_image


def test_known_values():
    assert V.class_number(-23) == 3
    assert [V.class_number(d) for d in (-1, -3, -5, -47, 10, 79, 229)] == [1, 1, 2, 5, 2, 3, 3]
    assert V.unit_expected(13) == (3, 1, True)  # (3 + sqrt 13) / 2
    assert V.unit_expected(5) == (1, 1, True)
    assert V.unit_expected(94) == (2143295, 221064, False)
    assert V.h2_order(12) == 2 * 691 and V.k_order(12) == 691  # |K_22(Z)| = 691
    assert [V.k_order(i) for i in (2, 4, 6, 8, 10)] == [2, 1, 2, 1, 2]
    for m, n, u in ((8, 4, 3), (15, 4, 2), (24, 2, 5), (63, 6, 2), (80, 4, 3)):
        assert V.tate_expected(m, n, u) == _tate_by_sets(m, n, u), (m, n, u)
    assert V.fp_rank([[1, 2], [2, 4], [0, 1]], 5) == 2


def test_euler_tests_match_power_lists():
    for p, ell in ((3, 7), (3, 13), (5, 11), (5, 31), (7, 29), (7, 43), (13, 53)):
        powers = {pow(x, p, ell) for x in range(1, ell)}
        assert V.frobenius_nonzero(V.PRIME_P, p, 2, ell) == int(p % ell not in powers)
        zeta = V._root_of_unity(ell, p)
        assert V.frobenius_nonzero(V.ZETA_P, p, 2, ell) == int(zeta not in powers)
    for ell in (3, 5, 7, 17, 41, 43):
        squares = {x * x % ell for x in range(1, ell)}
        assert V.vectors(2, 3, [ell]) == [[int(ell - 1 not in squares), int(2 not in squares)]]


def test_verifiers_reject_wrong_answers():
    assert V.quad_errors(-23, {"h": 3, "h_plus": 3}) == []
    assert V.quad_errors(-23, {"h": 2})
    assert V.quad_errors(13, {"unit": (3, 1, False)})
    assert V.quad_errors(10, {"h_plus": 3})  # also breaks genus theory
    flags = V.prime_flags(100)
    right = [((), "vanishes", None)] + [((ell,), "vanishes", None)
                                        for ell in range(3, 51) if flags[ell] and ell % 8 in (3, 5)]
    assert V.catalog_errors(2, 4, "totally_imaginary", True, 50, False, flags, right) == []
    for wrong in (right[:-1], right + [((3, 5), "vanishes", None)],
                  [right[0], right[2], right[1]] + right[3:],
                  right[:1] + [((r[0]), "nonzero", None) for r in right[1:]]):
        assert V.catalog_errors(2, 4, "totally_imaginary", True, 50, False, flags, wrong)
    exp = V.genus_expected(3, [7, 13], False, False, 2)
    assert exp["exponent"] == 1 and exp["norm_index"] == 3
    bounds = {"T_used": [7, 13], "coker_lower": 9, "ker_lower": 9, "coker_two_exponent": 0,
              "ker_two_exponent": 0, "assumptions": []}
    assert V.bounds_errors(3, [7, 13], False, 2, bounds)  # rank is 1, not 2


def test_benchmark_json_names_every_metric():
    from run import END_TO_END
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_every_workload_runs_and_verifies():
    from run import run
    from workloads import NOT_SQUAREFREE, WORKLOADS

    for name, wl in WORKLOADS.items():
        result = run(name, seed=3, seconds=0, trace=False, probes=1, min_passes=1)
        assert result["correct"], name
        assert result["attempted"] == wl.pass_size, name
        # the only failures today: discriminant(q^2 r) is not refused
        assert result["failed"] == (len(NOT_SQUAREFREE) if name == "quad_fields" else 0), name
        assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_traced_runs_report_every_layer_metric():
    from run import run
    from tracing import PER_LAYER

    lib = run("shape_reports", seed=3, seconds=0, trace=True, limit=12, probes=1, min_passes=1)
    cli = run("cli_session", seed=3, seconds=0, trace=True, limit=3, probes=1, min_passes=1)
    for result in (lib, cli):
        assert result["correct"]
        assert [k for k in result["metrics"]] == [m for m, _, _ in PER_LAYER]
    assert lib["metrics"]["kummer.frobenius_vector.calls"]["value"] > 0
    assert lib["metrics"]["genus.rank_calls_per_report"]["value"] > 0.5
    assert cli["metrics"]["cli.main.self_ms"]["value"] > 0
    assert cli["metrics"]["localdata.local_invariants.calls"]["value"] == 1


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc(file=sys.stdout)
    print(f"{len(tests) - failures}/{len(tests)} self-checks passed")
    return 1 if failures else 0
