"""Command-line front end.

Every subcommand parses flags, delegates to exactly one library
operation (or a documented composition), and serializes the result; no
arithmetic happens here.  JSON output is deterministic: keys sorted, no
timestamps, byte-identical for identical inputs.  Exit status is 0 on
success, 2 on usage errors, 1 on domain errors (with the library error
name in the payload).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields, is_dataclass

from . import classify, genus, ktable, kummer, localdata, quadforms, tatecoh
from .exactnum import FactoredInteger

FORMATS = ("json", "csv", "text")


def _parse_primes(text: str) -> frozenset[int]:
    if not text:
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _jsonable(obj):
    if isinstance(obj, FactoredInteger):
        # this key order shows in ktable's text output
        obj = {"value": obj.value, "sign": obj.sign, "factors": obj.factors,
               "cofactor": obj.cofactor, "display": str(obj)}
    elif isinstance(obj, quadforms.FieldElement):
        obj = {**_fields(obj), "display": str(obj)}
    elif is_dataclass(obj) and not isinstance(obj, type):
        obj = _fields(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    return str(obj)


# Declared CSV schemas: the payload key holding one row per entry (None
# for a single row) and the columns, as dotted paths into the payload
# (or into the row's entry) headed by their first segment.  Subcommands
# not listed write their flattened payload.
_GENUS_COLUMNS = ("p", "tame", "wild", "infinity", "i", "exponent", "exponent_low",
                  "exponent_high", "t", "r", "s_i", "delta_variant_used",
                  "norm_index", "assumptions", "verdict")
_CSV_SCHEMAS = {
    "genus": (None, _GENUS_COLUMNS),
    "kgenus": (None, _GENUS_COLUMNS),
    "bounds": (None, ("p", "tame", "i", "T_used", "coker_lower.value",
                      "coker_two_exponent", "ker_lower.value", "ker_two_exponent",
                      "assumptions", "verdict")),
    "enumerate": ("admissible", ("p", "i", "tame", "verdict", "condition")),
    "quad": (None, ("d", "disc", "dyadic_type", "h_plus", "h",
                    "fundamental_unit.display", "unit_norm", "delta", "two_regular")),
    "ktable": ("rows", ("i", "h2_order.value", "k_order.value",
                        "conditional_on_vandiver")),
}


def _emit(payload, fmt: str, command: str) -> None:
    obj = _jsonable(payload)
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2))
        sys.stdout.write("\n")
    elif fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(_csv_rows(obj, command))
        sys.stdout.write(buffer.getvalue())
    else:
        # payload keys are made of [A-Za-z0-9_], which all sort after ".",
        # so the sorted flat keys come in depth-first order
        keys, values = _flatten_rows(obj)
        sys.stdout.writelines(f"{k}: {v}\n" for k, v in zip(keys, values))


def _csv_rows(obj, command: str):
    if command not in _CSV_SCHEMAS:
        return _flatten_rows(obj)
    row_key, paths = _CSV_SCHEMAS[command]
    # the one exception to a uniform cell format: quad and ktable spell
    # booleans as JSON does (true/false), genus and kgenus as Python does
    # (True/False); both spellings are pinned by the golden CLI corpus
    json_booleans = command in ("quad", "ktable")
    rows = [[path.split(".")[0] for path in paths]]
    for entry in obj[row_key] if row_key else [{}]:
        scope = {**obj, **entry}
        cells = []
        for path in paths:
            value = scope
            for key in path.split("."):
                value = None if value is None else value[key]
            if isinstance(value, list):
                value = _scalar_list(value)
            elif isinstance(value, bool) and json_booleans:
                value = str(value).lower()
            cells.append(value)
        rows.append(cells)
    return rows


def _scalar_list(items) -> str:
    return ";".join(
        _scalar_list(x) if isinstance(x, list) else str(x) for x in items
    )


def _flatten_rows(obj):
    flat = {}

    def walk(obj, prefix):
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk(obj[key], f"{prefix}{key}." if prefix else f"{key}.")
        elif isinstance(obj, list):
            flat[prefix[:-1]] = _scalar_list(obj)
        else:
            flat[prefix[:-1]] = obj

    walk(obj, "")
    keys = sorted(flat)
    return [keys, [flat[k] for k in keys]]


def _extension_from_args(args) -> localdata.CyclicExtensionOfQ:
    return localdata.CyclicExtensionOfQ(
        p=args.p,
        tame_ramified=args.tame,
        wild_ramified=args.wild,
        infinity_ramified=args.infinity,
    )


def _verdict(assumptions, args) -> str:
    granted = set()
    if getattr(args, "assume_hi", False):
        granted.add(genus.H_I)
    if getattr(args, "assume_vandiver", False):
        granted.add(genus.VANDIVER)
    needed = set(assumptions) - {genus.UNRAMIFIED_AT_INFINITY} - granted
    return "conditional" if needed else "ok"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgenus",
        description="Genus exponents, descent bounds and vanishing tests for "
                    "tame kernels and even K-groups over Q",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="json")

    def add_extension(p):
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--tame", type=_parse_primes, default=frozenset())
        p.add_argument("--wild", action="store_true")
        p.add_argument("--infinity", action="store_true")

    def add_shape_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--imaginary", action="store_true")
        group.add_argument("--real", action="store_true")
        p.add_argument("--cyclic", action="store_true")
        p.add_argument("--assume-vandiver", action="store_true")
        p.set_defaults(shape_parser=p)  # shape errors show this usage

    p = sub.add_parser("local", help="local invariants at one ramified prime")
    add_extension(p)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    add_format(p)

    p = sub.add_parser("tate-oracle", help="brute-force Tate cohomology orders")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    add_format(p)

    p = sub.add_parser("primitive", help="Frobenius rank of a set of tame primes")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--plus", action="store_true")
    p.add_argument("--primes", type=_parse_primes, required=True)
    add_format(p)

    for name, helptext in (
        ("genus", "genus exponent of the tame-kernel ratio"),
        ("kgenus", "genus exponent of the even K-group ratio"),
        ("bounds", "lower bounds for ker/coker of the restriction map"),
    ):
        p = sub.add_parser(name, help=helptext)
        add_extension(p)
        p.add_argument("--i", type=int, required=True)
        p.add_argument("--assume-hi", action="store_true")
        add_format(p)

    p = sub.add_parser("classify", help="vanishing decision for a shape")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tame", type=_parse_primes, default=frozenset())
    p.add_argument("--i", type=int, required=True)
    add_shape_flags(p)
    add_format(p)

    p = sub.add_parser("enumerate", help="admissible tame sets up to a bound")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    add_shape_flags(p)
    add_format(p)

    p = sub.add_parser("quad", help="class numbers, units and signatures of Q(sqrt d)")
    p.add_argument("--d", type=int, required=True)
    add_format(p)

    p = sub.add_parser("ktable", help="base orders |H^2| and |K_{2i-2}| over Z")
    p.add_argument("--max-i", type=int, required=True)
    p.add_argument("--assume-vandiver", action="store_true")
    add_format(p)

    return parser


def _shape_from_args(args) -> classify.ExtensionShape:
    if args.p == 2:
        real_type = (classify.TOTALLY_IMAGINARY if args.imaginary
                     else classify.TOTALLY_REAL)
    else:
        real_type = classify.NOT_APPLICABLE
    return classify.ExtensionShape(
        p=args.p,
        ramified_tame=getattr(args, "tame", frozenset()),
        wild=True,
        real_type=real_type,
        cyclic=args.cyclic or args.p != 2,
    )


def _run_tate(args):
    module = tatecoh.TateModule(m=args.m, n=args.n, u=args.u)
    h0, hm1 = tatecoh.tate_orders(module)
    return {**_fields(module), "h0": h0, "hm1": hm1}


def _run_primitive(args):
    rad = kummer.radical(args.p, args.i, plus_variant=args.plus)
    report = kummer.primitivity_rank(rad, args.primes)
    return {
        "p": args.p, "i": args.i, "plus": args.plus,
        "radical": [str(g) for g in rad.generators],
        "conditional_on_vandiver": rad.conditional_on_vandiver,
        "vectors": {ell: kummer.frobenius_vector(rad, ell).components
                    for ell in sorted(args.primes)},
        **_fields(report),
    }


def _run_genus(args, op):
    report = op(_extension_from_args(args), args.i)
    payload = _fields(report)
    del payload["ext"]  # its fields are the p, tame, wild and infinity keys
    return {
        **payload, "p": args.p, "tame": args.tame, "wild": args.wild,
        "infinity": args.infinity,
        "per_prime": {ell: {"e_i": e_i, "e_prime": e_prime}
                      for ell, (e_i, e_prime) in report.per_prime},
        "exponent": report.exponent,
        "verdict": _verdict(report.assumptions, args),
    }


def _run_bounds(args):
    bounds = genus.descent_bounds(_extension_from_args(args), args.i)
    return {**_fields(bounds), "p": args.p, "tame": args.tame, "i": args.i,
            "verdict": _verdict(bounds.assumptions, args)}


def _run_classify(args):
    decision = classify.vanishing_decision(_shape_from_args(args), args.i,
                                           assume_vandiver=args.assume_vandiver)
    return {**_fields(decision), "p": args.p, "i": args.i, "tame": args.tame}


def _run_enumerate(args):
    pairs = classify.enumerate_vanishing(args.p, args.i, _shape_from_args(args),
                                         args.bound,
                                         assume_vandiver=args.assume_vandiver)
    rows = [{"tame": tame, "verdict": d.verdict, "condition": d.condition}
            for tame, d in pairs]
    return {"p": args.p, "i": args.i, "bound": args.bound, "admissible": rows}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("classify", "enumerate") and args.p == 2 \
            and not (args.real or args.imaginary):
        args.shape_parser.error(f"{args.command} --p 2 needs --real or --imaginary")
    dispatch = {
        "local": lambda a: localdata.local_invariants(_extension_from_args(a),
                                                      a.ell, a.i),
        "tate-oracle": _run_tate,
        "primitive": _run_primitive,
        "genus": lambda a: _run_genus(a, genus.genus_exponent),
        "kgenus": lambda a: _run_genus(a, genus.k_genus_ratio),
        "bounds": _run_bounds,
        "classify": _run_classify,
        "enumerate": _run_enumerate,
        "quad": lambda a: quadforms.quad_field_data(a.d),
        "ktable": lambda a: {"rows": ktable.base_table(
            a.max_i, assume_vandiver=a.assume_vandiver)},
    }
    # quad units below DISC_CAP can pass str()'s default digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _emit(dispatch[args.command](args), args.format, args.command)
    except ValueError as error:
        sys.stdout.write(json.dumps(
            {"error": type(error).__name__, "message": str(error)},
            sort_keys=True, indent=2))
        sys.stdout.write("\n")
        return 1
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
