import json
import sys
import time
from pathlib import Path

import pytest

from kgenus import cli


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exit_:  # usage errors, from argparse
        code = exit_.code
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_genus_subcommand(capsys):
    payload = run_json(capsys, "genus", "--p", "3", "--tame", "7,13", "--i", "2",
                       "--format", "json")
    assert payload["exponent"] == 1
    assert payload["t"] == 1
    assert payload["norm_index"] == 3
    assert payload["verdict"] == "ok"


def test_json_output_is_deterministic_and_round_trips(capsys):
    _, first = run(capsys, "genus", "--p", "3", "--tame", "13,7", "--i", "2")
    _, second = run(capsys, "genus", "--p", "3", "--tame", "7,13", "--i", "2")
    assert first == second
    reserialized = json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n"
    assert reserialized == first


def test_ktable_shows_691_row(capsys):
    payload = run_json(capsys, "ktable", "--max-i", "12")
    row = payload["rows"][-1]
    assert row["i"] == 12
    assert row["h2_order"]["value"] == 1382
    assert row["k_order"]["value"] == 691
    code, out = run(capsys, "ktable", "--max-i", "12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,h2_order,k_order,conditional_on_vandiver"
    assert lines[-1] == "12,1382,691,false"


def test_classify_subcommand(capsys):
    payload = run_json(capsys, "classify", "--p", "2", "--imaginary",
                       "--tame", "5", "--i", "4")
    assert payload["verdict"] == "vanishes"


def test_enumerate_subcommand(capsys):
    payload = run_json(capsys, "enumerate", "--p", "3", "--i", "2", "--bound", "20")
    assert [row["tame"] for row in payload["admissible"]] == [[], [7], [13]]
    code, out = run(capsys, "enumerate", "--p", "2", "--imaginary", "--i", "4",
                    "--bound", "50", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,i,tame,verdict,condition"
    assert "2,4,5,vanishes," in lines


def test_tate_oracle_subcommand(capsys):
    payload = run_json(capsys, "tate-oracle", "--m", "8", "--n", "4", "--u", "3")
    assert payload["h0"] == 2 and payload["hm1"] == 2


def test_local_subcommand(capsys):
    payload = run_json(capsys, "local", "--p", "3", "--tame", "7,13",
                       "--ell", "7", "--i", "2")
    assert payload["e_i"] == 3 and payload["e_prime"] == 3


def test_primitive_subcommand(capsys):
    payload = run_json(capsys, "primitive", "--p", "2", "--i", "3",
                       "--primes", "7,23")
    assert payload["t"] == 1
    assert payload["independent"] is False
    assert payload["maximal_subset"] == [7]


def test_bounds_subcommand(capsys):
    payload = run_json(capsys, "bounds", "--p", "3", "--tame", "7,13", "--i", "2")
    assert payload["coker_lower"]["value"] == 3
    assert payload["T_used"] == [7]


def test_quad_subcommand(capsys):
    payload = run_json(capsys, "quad", "--d", "3")
    assert payload["h_plus"] == 2 and payload["h"] == 1
    assert payload["delta"] == 0
    assert payload["signature_note"] is not None


def test_kgenus_conditional_verdict_and_flag(capsys):
    payload = run_json(capsys, "kgenus", "--p", "2", "--tame", "5", "--wild",
                       "--infinity", "--i", "3")
    assert payload["verdict"] == "conditional"
    assert "H_i" in payload["assumptions"]
    payload = run_json(capsys, "kgenus", "--p", "2", "--tame", "5", "--wild",
                       "--infinity", "--i", "3", "--assume-hi")
    assert payload["verdict"] == "ok"


def test_domain_error_exit_code(capsys):
    code, out = run(capsys, "genus", "--p", "3", "--tame", "8", "--i", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "ValueError"
    assert "8" in payload["message"]


def test_quad_refuses_non_squarefree_with_large_cofactor(capsys):
    # 1000003**2 * 1000033: no prime factor below 10**6, above 10**18
    code, out = run(capsys, "quad", "--d", "1000039000207000297")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "ValueError"
    assert "not squarefree" in payload["message"]


@pytest.mark.parametrize("argv", [
    ("quad", "--d", "10000000019"),  # |disc| = 4 * 10**10 + 76
    ("ktable", "--max-i", "101"),
    ("enumerate", "--p", "2", "--imaginary", "--i", "3", "--bound", "20001"),
])
def test_cost_caps_refuse_with_json_error(capsys, argv):
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "ValueError"
    assert "cap" in payload["message"]


def test_linear_enumeration_is_fast(capsys):
    # 495 candidate primes, of which 331 are admissible singletons
    start = time.perf_counter()
    code, out = run(capsys, "enumerate", "--p", "3", "--i", "2", "--bound", "8000")
    assert time.perf_counter() - start < 1.0
    assert code == 0


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["genus", "--p", "3", "--i", "2", "--bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["nonsense"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ("classify", "--p", "2", "--tame", "3", "--i", "3"),
    ("enumerate", "--p", "2", "--i", "3", "--bound", "20"),
])
def test_p2_shape_needs_real_or_imaginary(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    command = argv[0]
    assert err.startswith(f"usage: kgenus {command} ")
    assert err.endswith(f"kgenus {command}: error: {command} --p 2 needs --real or --imaginary\n")
    assert run(capsys, *argv, "--real")[0] == 0
    assert run(capsys, *argv, "--imaginary")[0] == 0


def test_quad_prints_a_unit_past_the_default_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "quad", "--d", "99999993")
    assert code == 0, out
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert payload["fundamental_unit"]["b"].bit_length() == 15374


def test_text_format(capsys):
    code, out = run(capsys, "classify", "--p", "2", "--imaginary",
                    "--tame", "5", "--i", "4", "--format", "text")
    assert code == 0
    assert "verdict: vanishes" in out


def test_golden_corpus_replays_byte_for_byte(capsys):
    # tests/golden/cli.json holds argv, exit code and exact stdout of CLI
    # calls recorded before the serializer was rewritten; it is the
    # reference for "same behaviour" and is never regenerated from the
    # code it checks
    corpus = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())
    mismatched = [
        " ".join(case["argv"]) for case in corpus
        if run(capsys, *case["argv"]) != (case["exit"], case["stdout"])
    ]
    assert len(corpus) >= 130
    assert mismatched == []
