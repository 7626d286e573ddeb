"""Refusal table: each input that a public entry point or the CLI must
refuse, with the exact exception type and message (or exit status and
JSON error) it is refused with."""

import json

import pytest

from kgenus import cli
from kgenus.classify import CONDITIONAL, Decision, ExtensionShape
from kgenus.exactnum import FactoredInteger, power_residue_character, trial_factor
from kgenus.genus import (descent_bounds, exact_descent_structure, genus_exponent,
                          k_genus_ratio)
from kgenus.ktable import bernoulli_numerator
from kgenus.kummer import ZETA_P, KummerRadical, RadicalGenerator, radical
from kgenus.localdata import (CyclicExtensionOfQ, LocalData, local_invariants,
                              quadratic_extension)
from kgenus.quadforms import (FieldElement, fundamental_unit, reduced_definite_forms,
                              reduced_indefinite_forms)
from kgenus.tatecoh import residual_h0_closed_form

C3_7 = CyclicExtensionOfQ(3, {7})
TWIST = "twist i must be >= 2"

LIBRARY = [
    (lambda: descent_bounds(C3_7, 1), TWIST),
    (lambda: exact_descent_structure(C3_7, 1), TWIST),
    (lambda: radical(4, 3), "4 is not prime"),
    (lambda: radical(3, 1), TWIST),
    # the prime and the twist are checked before the plus variant
    (lambda: radical(4, 3, plus_variant=True), "4 is not prime"),
    (lambda: radical(3, 1, plus_variant=True), TWIST),
    (lambda: radical(3, 3, plus_variant=True),
     "the totally positive radical is a p = 2 notion"),
    (lambda: local_invariants(C3_7, 7, 0), "twist i must be >= 1"),
    (lambda: LocalData(ell=7, q=7, e=3, f=1, e_prime=2, e_i=1),
     "e_prime and e_i must divide e"),
    (lambda: ExtensionShape(2, frozenset(), real_type="bogus"),
     "unknown real type 'bogus'"),
    (lambda: Decision(verdict=CONDITIONAL),
     "conditional verdicts must name their condition"),
    (lambda: trial_factor(0, 10), "trial_factor expects n >= 1"),
    (lambda: FactoredInteger((), cofactor=0), "cofactor must be >= 1"),
    (lambda: FactoredInteger.from_int(0), "cannot factor 0"),
    (lambda: power_residue_character(2, 7, 4), "4 is not prime"),
    # the prime is checked before the twist, and a hand-built radical
    # checks its prime as the catalog does
    (lambda: radical(4, 1), "4 is not prime"),
    (lambda: KummerRadical(4, (RadicalGenerator(ZETA_P),)), "4 is not prime"),
    (lambda: bernoulli_numerator(0), "k must be >= 1"),
    (lambda: fundamental_unit(-5), "d must be > 1"),
    # d = 9 * (2**64 + 13) is validated as quadforms validates it: the
    # square 9 refuses it before the cofactor past 2**64 is reached
    (lambda: quadratic_extension(166020696663385964661),
     "166020696663385964661 is not squarefree"),
    (lambda: reduced_definite_forms(5), "negative discriminant = 0, 1 mod 4 required"),
    (lambda: reduced_indefinite_forms(7), "positive discriminant = 0, 1 mod 4 required"),
    (lambda: reduced_indefinite_forms(16), "square discriminants do not define a field"),
    (lambda: FieldElement(1, 1, halved=True).norm(2), "not an algebraic integer"),
    (lambda: FieldElement(0, 0).signs(5), "zero element has no sign"),
    (lambda: FieldElement(2, -1).signs(4), "element is zero or d is a square"),
    # an imaginary field has no real embedding to take signs at
    (lambda: FieldElement(0, 1).signs(-5),
     "d = -5 < 0: Q(sqrt(d)) has no real embedding"),
    (lambda: residual_h0_closed_form(0, 3, 1, 1), "e, f and i must be >= 1"),
]

# every twist below 2 is refused by the genus formulas and the descent
# bounds, whatever p and the real place are
SHAPES = [CyclicExtensionOfQ(2, {3}), CyclicExtensionOfQ(2, {3}, infinity_ramified=True),
          C3_7]
LIBRARY += [
    (lambda op=op, ext=ext, i=i: op(ext, i), TWIST)
    for op in (genus_exponent, k_genus_ratio, descent_bounds)
    for ext in SHAPES
    for i in (1, 0, -1)
]


@pytest.mark.parametrize("call, message", LIBRARY)
def test_library_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("argv, message", [
    ("primitive --p 4 --i 3 --primes 5", "4 is not prime"),
    ("primitive --p 3 --i 1 --primes 7", TWIST),
    ("primitive --p 3 --i 3 --plus --primes 7",
     "the totally positive radical is a p = 2 notion"),
    ("local --p 3 --tame 7 --ell 7 --i 0", "twist i must be >= 1"),
    ("genus --p 2 --tame 3 --i 1", TWIST),
    ("kgenus --p 2 --tame 3 --infinity --i 0", TWIST),
    ("bounds --p 3 --tame 7 --i -1", TWIST),
])
def test_cli_domain_refusals(capsys, argv, message):
    assert cli.main(argv.split()) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out == json.dumps({"error": "ValueError", "message": message},
                             sort_keys=True, indent=2) + "\n"


def test_cli_refuses_a_malformed_prime_list(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["genus", "--p", "3", "--tame", "7,x", "--i", "2"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert err.endswith("kgenus genus: error: argument --tame: "
                        "not a comma-separated integer list: '7,x'\n")
