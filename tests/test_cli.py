import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kgenus
from kgenus import classify as cl
from kgenus import cli, kummer


def run_both(capsys, *argv):
    """Exit code, stdout and stderr of one CLI call."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exit_:  # usage errors, from argparse
        code = exit_.code
    return (code, *capsys.readouterr())


def run(capsys, *argv):
    return run_both(capsys, *argv)[:2]


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


def test_primitive_reads_each_vector_once(capsys, monkeypatch):
    calls = []
    original = kummer.frobenius_vector

    def counted(rad, ell):
        calls.append(ell)
        return original(rad, ell)

    monkeypatch.setattr(kummer, "frobenius_vector", counted)
    payload = run_json(capsys, "primitive", "--p", "3", "--i", "3",
                       "--primes", "7,13,19")
    assert calls == [7, 13, 19]  # t = 1 = dim at 7, yet every vector is printed
    assert payload["t"] == 1 and payload["maximal_subset"] == [7]


def test_empty_prime_lists_mean_no_primes(capsys):
    without = run(capsys, "genus", "--p", "2", "--wild", "--i", "3")
    assert without[0] == 0
    assert run(capsys, "genus", "--p", "2", "--tame", "", "--wild", "--i", "3") == without
    payload = run_json(capsys, "primitive", "--p", "2", "--i", "3", "--primes", "")
    assert payload["t"] == 0


def test_bounds_subcommand(capsys):
    payload = run_json(capsys, "bounds", "--p", "3", "--tame", "7,13", "--i", "2")
    assert payload["coker_lower"]["value"] == 3
    assert payload["T_used"] == [7]


def test_quad_subcommand(capsys):
    payload = run_json(capsys, "quad", "--d", "3")
    assert payload["h_plus"] == 2 and payload["h"] == 1
    assert payload["delta"] == 0
    assert payload["signature_note"] is not None


def test_quad_signatures_past_the_old_search_box(capsys):
    # the prime above 2 of Q(sqrt(151)) has no generator with coefficients
    # up to 10**4; the unit's continued fraction gives 41571+3383*sqrt(d)
    payload = run_json(capsys, "quad", "--d", "151")
    assert len(payload["two_unit_generators"]) == 3
    assert payload["delta"] is not None
    assert payload["signature_note"] is None


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
    ("classify", "--p", "7", "--i", "100000"),  # trivial radical: the base order
    ("enumerate", "--p", "7", "--i", "100000", "--bound", "100"),
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


# sha256 of each call's JSON output, as recorded when the <p> coordinate
# was still read by a Theta(p) discrete-log walk (11-12 s per call)
LARGE_P_DIGESTS = {
    "genus": "43fbd67a1e5e7058854e84e629150f633c6e5acb05ec06764dbb7c60caca3dca",
    "kgenus": "43fbd67a1e5e7058854e84e629150f633c6e5acb05ec06764dbb7c60caca3dca",
    "bounds": "f70a35bbd3eb6307355e950f99eb2e308b50d4004990ea35311f71e0a4380125",
    "classify": "0adef9e6a9c9c348d339f5c6aad0f457d3f3637204ba44cca1819dc533753ce4",
}


@pytest.mark.parametrize("cmd", sorted(LARGE_P_DIGESTS))
def test_large_p_ranks_read_no_discrete_log(capsys, cmd):
    # i = 1 mod (p - 1): the radical is <p>, whose rank needs only
    # whether p is a p-th power mod ell, one modular power
    start = time.perf_counter()
    code, out = run(capsys, cmd, "--p", "1000000007", "--tame", "44000000309",
                    "--i", "1000000007")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_P_DIGESTS[cmd]


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


@pytest.mark.parametrize("argv", [
    ("classify", "--p", "3", "--tame", "7", "--i", "2"),
    ("enumerate", "--p", "5", "--i", "3", "--bound", "20"),
])
def test_odd_p_shape_refuses_imaginary_and_accepts_real(capsys, argv):
    # a p-extension of Q of odd degree is totally real
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "--imaginary"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    command = argv[0]
    assert err.startswith(f"usage: kgenus {command} ")
    assert err.endswith(f"kgenus {command}: error: {command} --imaginary needs --p 2\n")
    assert run_both(capsys, *argv, "--real") == run_both(capsys, *argv)
    assert run(capsys, *argv)[0] == 0


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
    # code it checks.  The second replay, in reverse order in the same
    # process, shows that no parser or namespace state carries from one
    # call to the next
    corpus = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())
    assert len(corpus) >= 130
    for cases in (corpus, corpus[::-1]):
        mismatched = [
            " ".join(case["argv"]) for case in cases
            if run(capsys, *case["argv"]) != (case["exit"], case["stdout"])
        ]
        assert mismatched == []


def test_python_m_kgenus_replays_a_golden_entry():
    # __main__.py runs in its own interpreter, as `python -m kgenus`
    corpus = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())
    argv = ["enumerate", "--p", "5", "--i", "3", "--bound", "100", "--format", "text"]
    (case,) = [case for case in corpus if case["argv"] == argv]
    src = str(Path(kgenus.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-m", "kgenus", *argv], capture_output=True,
                            env={"PYTHONPATH": src}, timeout=60)
    assert (result.returncode, result.stdout) == (case["exit"], case["stdout"].encode())


# one cheap call of each subcommand
_EVERY_SUBCOMMAND = [
    ("local", "--p", "3", "--tame", "7", "--ell", "7", "--i", "2"),
    ("tate-oracle", "--m", "8", "--n", "4", "--u", "3"),
    ("primitive", "--p", "2", "--i", "3", "--primes", "7,23"),
    ("genus", "--p", "3", "--tame", "7,13", "--i", "2"),
    ("kgenus", "--p", "2", "--tame", "5", "--wild", "--infinity", "--i", "3"),
    ("bounds", "--p", "3", "--tame", "7,13", "--i", "2"),
    ("classify", "--p", "2", "--imaginary", "--tame", "5", "--i", "4"),
    ("enumerate", "--p", "3", "--i", "2", "--bound", "20"),
    ("quad", "--d", "5"),
    ("ktable", "--max-i", "6"),
]


# each subcommand's options in declaration order, and the required ones;
# argparse writes usage errors to stderr, which the golden corpus does
# not record
_PARSER = {
    "local": ("--p --tame --wild --infinity --ell --i", "--p --ell --i"),
    "tate-oracle": ("--m --n --u", "--m --n --u"),
    "primitive": ("--p --i --plus --primes", "--p --i --primes"),
    "genus": ("--p --tame --wild --infinity --i --assume-hi", "--p --i"),
    "kgenus": ("--p --tame --wild --infinity --i --assume-hi", "--p --i"),
    "bounds": ("--p --tame --wild --infinity --i --assume-hi", "--p --i"),
    "classify": ("--p --tame --i --imaginary --real --cyclic --assume-vandiver",
                 "--p --i"),
    "enumerate": ("--p --i --bound --imaginary --real --cyclic --assume-vandiver",
                  "--p --i --bound"),
    "quad": ("--d", "--d"),
    "ktable": ("--max-i --assume-vandiver", "--max-i"),
}


def test_parser_declares_each_subcommand_as_pinned():
    (sub,) = [action for action in cli.build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    assert list(sub.choices) == list(_PARSER)
    for name, (options, required) in _PARSER.items():
        actions = sub.choices[name]._actions
        assert [s for a in actions for s in a.option_strings] == \
            ["-h", "--help", *options.split(), "--format"], name
        assert [a.option_strings[0] for a in actions if a.required] == \
            required.split(), name
        (fmt,) = [a for a in actions if a.dest == "format"]
        assert (fmt.choices, fmt.default) == (("json", "csv", "text"), "json"), name


def test_one_parser_per_process(capsys, monkeypatch):
    built = []  # prog of each ArgumentParser constructed, subparsers included
    construct = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    # a fresh import of the module, restored to the one the other tests
    # hold when this test ends
    monkeypatch.delitem(sys.modules, "kgenus.cli")
    monkeypatch.delattr(kgenus, "cli")
    fresh = importlib.import_module("kgenus.cli")
    monkeypatch.setattr(sys.modules[__name__], "cli", fresh)
    assert built == []

    # each first call on a parser built for it, as in a fresh process
    calls = [("genus", "--p", "3", "--i", "2", "--bogus"),
             ("genus", "--p", "3", "--tame", "7,13", "--i", "2"),
             ("classify", "--p", "2", "--tame", "3", "--i", "3")]
    first = []
    for argv in calls:
        fresh.build_parser.cache_clear()
        first.append(run_both(capsys, *argv))
    assert first[0][0] == 2 and first[0][1] == "" and "unrecognized" in first[0][2]
    assert first[1][0] == 0 and first[1][2] == ""
    assert first[2][0] == 2 and first[2][2].startswith("usage: kgenus classify ")
    fresh.build_parser.cache_clear()
    built.clear()

    for argv in _EVERY_SUBCOMMAND * 2:
        assert run_both(capsys, *argv)[0] == 0, argv
    assert [run_both(capsys, *argv) for argv in calls] == first
    subcommands = [argv[0] for argv in _EVERY_SUBCOMMAND]
    assert sorted(built) == sorted(["kgenus"] + [f"kgenus {c}" for c in subcommands])


def _materialised(p, i, bound, pairs, fmt):
    # the output as it was rendered from the whole catalog in a list
    rows = [{"tame": list(tame), "verdict": d.verdict, "condition": d.condition}
            for tame, d in pairs]
    if fmt == "text":
        # the sorted flat keys, the list value as its ;-joined str() items
        return (f"admissible: {';'.join(map(str, rows))}\n"
                f"bound: {bound}\ni: {i}\np: {p}\n")
    if fmt == "json":
        payload = {"p": p, "i": i, "bound": bound, "admissible": rows}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(
        [("p", "i", "tame", "verdict", "condition")]
        + [(p, i, ";".join(map(str, row["tame"])), row["verdict"], row["condition"])
           for row in rows])
    return buffer.getvalue()


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("flags, p, i, bound, count", [
    (("--real",), 2, 4, 50, 0),  # no set: "admissible": []
    ((), 7, 34, 300, 1),  # radical of dimension 0: the empty set alone
    ((), 5, 3, 60, 4),  # conditional rows
    (("--real", "--cyclic"), 2, 3, 2000, 18486),  # pairs
])
def test_enumerate_streams_the_materialised_rendering(capsys, fmt, flags, p, i, bound,
                                                      count):
    template = cl.ExtensionShape(p, frozenset(),
                                 real_type=cl.TOTALLY_REAL if p == 2 else cl.NOT_APPLICABLE,
                                 cyclic=p != 2 or "--cyclic" in flags)
    pairs = list(cl.enumerate_vanishing(template, i, bound))
    assert len(pairs) == count
    code, out = run(capsys, "enumerate", "--p", str(p), "--i", str(i),
                    "--bound", str(bound), *flags, "--format", fmt)
    assert code == 0
    assert out == _materialised(p, i, bound, pairs, fmt)


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_enumerate_writes_rows_before_the_catalog_is_exhausted(monkeypatch, fmt):
    out = io.StringIO()
    written = []  # characters on stdout as each pair is handed out
    original = cl.enumerate_vanishing

    def watched(*args, **kwargs):
        for pair in original(*args, **kwargs):
            written.append(len(out.getvalue()))
            yield pair

    monkeypatch.setattr(cl, "enumerate_vanishing", watched)
    with contextlib.redirect_stdout(out):
        assert cli.main(["enumerate", "--p", "3", "--i", "2", "--bound", "100",
                         "--format", fmt]) == 0
    # (), 7, 13, 31, 43, 61, 67, 79, 97: one more row out before each pair
    assert len(written) == 9
    assert all(a < b for a, b in zip(written, written[1:] + [len(out.getvalue())]))
