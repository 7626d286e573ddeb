"""The three workloads: seeded inputs, one operation per input, and the
independent check of each operation's output.

A workload is a fixed-size pass of distinct operations.  Inputs are
stratified (fixed slots whose cost is set by the slot, values drawn from
the seed inside it) so that the cost of a pass barely depends on the
seed, while every seed still gives different numbers to the program.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass

import verify as V

SHAPE_PS = (2, 3, 5, 7, 11, 13)
TWISTS = range(2, 13)
TAME_LIMIT = 10**6

# discriminant(q^2 r) for primes q, r just above the trial bound 10^6:
# the correct answer is a ValueError (not squarefree); today
# is_squarefree accepts these, so each call counts as failed
NOT_SQUAREFREE = (1000003**2 * 1000033, -(1000033**2 * 1000037))

# CSV columns documented in the repository README ("Command line")
CSV_COLUMNS = {
    "genus": "p,tame,wild,infinity,i,exponent,exponent_low,exponent_high,t,r,"
             "s_i,delta_variant_used,norm_index,assumptions,verdict",
    "bounds": "p,tame,i,T_used,coker_lower,coker_two_exponent,ker_lower,"
              "ker_two_exponent,assumptions,verdict",
    "enumerate": "p,i,tame,verdict,condition",
    "ktable": "i,h2_order,k_order,conditional_on_vandiver",
    "quad": "d,disc,dyadic_type,h_plus,h,fundamental_unit,unit_norm,delta,two_regular",
}
CSV_COLUMNS["kgenus"] = CSV_COLUMNS["genus"]

_FLAGS: bytearray | None = None


def flags() -> bytearray:
    """Prime sieve to 10^6 + a margin, built once per process."""
    global _FLAGS
    if _FLAGS is None:
        _FLAGS = V.prime_flags(TAME_LIMIT + 1000)
    return _FLAGS


def random_tame(rng: random.Random, p: int, count: int, limit: int = TAME_LIMIT) -> tuple[int, ...]:
    """count distinct tame primes below limit, = 1 mod p for odd p."""
    f = flags()
    out: set[int] = set()
    while len(out) < count:
        x = rng.randrange(3, limit)
        while not (f[x] and x != p and (p == 2 or x % p == 1)):
            x += 1
        if x < limit:
            out.add(x)
    return tuple(sorted(out))


def twist_classes(p: int, twists) -> list[list[int]]:
    """Twists grouped by the criterion they select: i mod 4 for p = 2
    (the mod-8 table on 2i-2), the radical type for odd p."""
    if p == 2:
        groups = {c: [i for i in twists if i % 4 == c] for c in range(4)}
    else:
        def kind(i):
            kinds, _ = V.radical_kinds(p, i)
            return kinds[0] if kinds else "trivial"
        groups = {}
        for i in twists:
            groups.setdefault(kind(i), []).append(i)
    return [g for g in groups.values() if g]


def _raises(fn, *args):
    try:
        return fn(*args)
    except ValueError as error:
        return ("ValueError", str(error))


@dataclass
class Outcome:
    """Verdict on one operation: failed is a known program fault on this
    input (counted, not a wrong answer); errors are wrong answers."""

    failed: bool = False
    errors: tuple[str, ...] = ()


class Workload:
    name = ""
    pass_size = 0
    min_passes = 3

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def operation(self, kg, spec):
        """Zero-argument callable performing the operation for spec."""
        raise NotImplementedError

    def check(self, spec, result) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# shape_reports


class ShapeReports(Workload):
    """Every report of the paper for one extension shape and twist."""

    name = "shape_reports"
    pass_size = 100

    def inputs(self, seed):
        rng = random.Random(f"shape_reports:{seed}")
        specs = []
        for s in range(self.pass_size):
            p = SHAPE_PS[s % 6]
            k = s // 6
            classes = twist_classes(p, TWISTS)
            i = rng.choice(classes[k % len(classes)])
            tame = random_tame(rng, p, 1 + k % 6)
            wild = rng.random() < 0.5
            infinity = p == 2 and rng.random() < 0.5
            specs.append((p, tame, wild, infinity, i, rng.random() < 0.5))
        return specs

    def operation(self, kg, spec):
        p, tame, wild, infinity, i, assume = spec
        real_type = (kg.classify.TOTALLY_IMAGINARY if infinity else kg.classify.TOTALLY_REAL) \
            if p == 2 else kg.classify.NOT_APPLICABLE

        def op():
            ext = kg.CyclicExtensionOfQ(p, frozenset(tame), wild, infinity)
            local = tuple(kg.local_invariants(ext, ell, i) for ell in ext.ramified_finite)
            exact = None if infinity else kg.exact_descent_structure(ext, i, assume)
            shape = kg.ExtensionShape(p, frozenset(tame), wild, real_type, True)
            return (local, kg.genus_exponent(ext, i), kg.k_genus_ratio(ext, i),
                    kg.descent_bounds(ext, i), exact,
                    kg.vanishing_decision(shape, i, assume))
        return op

    def check(self, spec, result):
        p, tame, wild, infinity, i, assume = spec
        local, genus, kgen, bounds, exact, decision = result
        errors = []
        rows = {d.ell: (d.e_i, d.e_prime) for d in local}
        expect_rows = V.genus_expected(p, tame, wild, infinity, i)["per_prime"]
        if rows != expect_rows or any((d.q, d.e, d.f) != (d.ell, p, 1) for d in local):
            errors.append(f"local invariants {rows}, expected {expect_rows}")
        for label, report, expected in (
                ("genus", genus, V.genus_expected(p, tame, wild, infinity, i)),
                ("kgenus", kgen, V.kgenus_expected(p, tame, wild, infinity, i))):
            errors += _compare(f"{label} {spec}", report_fields(report), expected)
        errors += V.bounds_errors(p, tame, infinity, i, bounds_fields(bounds))
        if not infinity:
            want = V.exact_descent_expected(p, tame, i, assume)
            got = getattr(exact, "cyclic_orders", None)
            if got != want:
                errors.append(f"exact descent {spec}: {got}, expected {want}")
        real_type = ("totally_imaginary" if infinity else "totally_real") if p == 2 else None
        want = V.decision_expected(p, tame, i, real_type, True, assume)
        if (decision.verdict, decision.condition) != want:
            errors.append(f"decision {spec}: {decision.verdict}/{decision.condition}, expected {want}")
        return Outcome(errors=tuple(errors))


def report_fields(report) -> dict:
    return {"exponent": report.exponent, "t": report.t, "r": report.r,
            "s_i": report.s_i, "delta_variant_used": report.delta_variant_used,
            "norm_index": report.norm_index,
            "assumptions": sorted(report.assumptions),
            "per_prime": {ell: pair for ell, pair in report.per_prime}}


def bounds_fields(bounds) -> dict:
    return {"T_used": sorted(bounds.T_used),
            "coker_two_exponent": bounds.coker_two_exponent,
            "ker_two_exponent": bounds.ker_two_exponent,
            "coker_lower": bounds.coker_lower.value,
            "ker_lower": bounds.ker_lower.value,
            "assumptions": sorted(bounds.assumptions)}


def _compare(label, got: dict, expected: dict) -> list[str]:
    return [f"{label} {key}: got {got.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if got.get(key) != value]


# ---------------------------------------------------------------------------
# quad_fields


class QuadFields(Workload):
    """quad_field_data on one squarefree d, or discriminant(q^2 r), whose
    correct answer is a refusal."""

    name = "quad_fields"
    pass_size = 100
    # (sign, count, |disc| from, |disc| to, spacing, stratum) per group of
    # slots.  The cheap groups hold about 38 operations, the dense MEDIAN
    # group 24 imaginary fields of nearly equal cost, and the costlier
    # groups 36 fields plus the two refusals, so latency_p50_ms falls
    # inside the dense group instead of between two fields of different
    # cost.  The TOP group of 20 real fields with disc in 5*10^5..10^6
    # plays the same part for the tail percentile.  A dense group keeps
    # one stratum (see _field); the others cycle through all of them.
    GROUPS = (
        (-1, 26, 20, 4 * 10**4, "log", None),           # cheap imaginary
        (1, 12, 5, 300, "log", None),                   # cheap real
        (-1, 24, 12 * 10**4, 14 * 10**4, "lin", 1),     # MEDIAN
        (-1, 4, 3 * 10**5, 10**6, "log", None),
        (1, 12, 5000, 4 * 10**5, "log", None),
        (1, 20, 5 * 10**5, 10**6, "lin", 1),            # TOP
    )
    # below this |d| one step of the class mod 120 would move the field
    # too far from its target, so only d mod 4 is fixed
    STRATIFY_FROM = 2400

    def inputs(self, seed):
        rng = random.Random(f"quad_fields:{seed}")
        specs = []
        for sign, count, lo, hi, spacing, stratum in self.GROUPS:
            for j in range(count):
                x = j / (count - 1)
                target = lo * (hi / lo) ** x if spacing == "log" else lo + (hi - lo) * x
                specs.append(self._field(rng, sign, target, j if stratum is None else 2 * stratum))
        assert len(specs) + len(NOT_SQUAREFREE) == self.pass_size
        return specs + [("discriminant", n) for n in NOT_SQUAREFREE]

    @classmethod
    def _field(cls, rng, sign, target, j):
        """A squarefree d with |disc| just above target for slot j.  Even
        slots take d = 1 mod 4 (disc = d), odd ones d = 2, 3 mod 4
        (disc = 4d).  Where |d| allows, slot j also fixes d mod 120 to
        stratum j // 2, and with it the Kronecker character of disc at 2,
        3 and 5, which moves the form count (and so the cost) by up to a
        factor of 9 at equal |disc|.  The seed picks a start in a 3% band
        and the next squarefree d of the class."""
        scale = 1 if j % 2 == 0 else 4
        lo = max(2, int(target / scale))
        d = sign * rng.randrange(lo, max(lo + 1, int(target * 1.03 / scale)))
        if abs(d) >= cls.STRATIFY_FROM:
            r = _stratum_residue(scale, j // 2)
            d += sign * ((sign * (r - d)) % 120)
            step = 120
        else:
            step = 1
        while (d % 4 == 1) != (scale == 1) or d % 4 == 0 or \
                any(e > 1 for e in V.small_factor(abs(d)).values()):
            d += sign * step
        return d

    def operation(self, kg, spec):
        if isinstance(spec, tuple):
            return lambda: _raises(kg.discriminant, spec[1])
        return lambda: kg.quad_field_data(spec)

    def check(self, spec, result):
        if isinstance(spec, tuple):
            # correct: a ValueError refusal; anything else is the known fault
            return Outcome(failed=not (isinstance(result, tuple) and result[0] == "ValueError"))
        unit = result.fundamental_unit
        gens = result.two_unit_generators
        obs = {"disc": result.disc, "dyadic_type": result.dyadic_type,
               "h": result.h, "h_plus": result.h_plus,
               "unit": None if unit is None else (unit.a, unit.b, unit.halved),
               "unit_norm": result.unit_norm, "two_regular": result.two_regular,
               "signature_matrix": result.signature_matrix, "delta": result.delta,
               "two_unit_generators": None if gens is None else [(g.a, g.b, g.halved) for g in gens]}
        return Outcome(errors=tuple(V.quad_errors(spec, obs)))


# ---------------------------------------------------------------------------
# cli_session


class CliSession(Workload):
    """One `python -m kgenus ...` call: kgenus.cli.main on its argv, with
    stdout captured.  It runs in the benchmark's process; interpreter
    start and import, paid once per call by a CLI user, are what setup_s
    measures on this workload."""

    name = "cli_session"
    pass_size = 40

    def inputs(self, seed):
        # Every slot fixes what sets its cost (prime counts, candidate
        # counts, discriminant class and size, the ktable range); the seed
        # picks the numbers.  Ten slots are clearly costlier than the
        # rest (two tate-oracle near MODULE_CAP, five enumerate, the quad
        # calls at |disc| about 2*10^5 and 3*10^5, ktable --max-i 34), so the tail percentile is the costliest
        # of the light calls, which parsing and printing dominate.
        rng = random.Random(f"cli_session:{seed}")
        specs = []

        def add(fmt, *argv):
            specs.append((fmt,) + tuple(str(a) for a in argv) + ("--format", fmt))

        def primes(p, count, limit=10**5):
            return ",".join(map(str, random_tame(rng, p, count, limit)))

        for fmt, p in (("json", 2), ("text", 3), ("csv", 13)):
            tame = random_tame(rng, p, 2)
            extra = ["--infinity"] if p == 2 else ["--wild"]
            add(fmt, "local", "--p", p, "--tame", ",".join(map(str, tame)), *extra,
                "--ell", rng.choice(tame), "--i", rng.randrange(2, 13))
        # residual modules Z/(q^2 - 1) near the enumeration cap, and a small one
        for fmt in ("json", "csv"):
            q = _prime_between(rng, 970, 1000)
            add(fmt, "tate-oracle", "--m", q * q - 1, "--n", 2 * rng.choice((1, 2, 3)), "--u", q)
        q = _prime_between(rng, 3, 12)
        add("text", "tate-oracle", "--m", q**4 - 1, "--n", 4, "--u", q)
        for fmt, p, i, plus, count in (("json", 2, rng.choice((3, 5, 7)), False, 2),
                                       ("json", 2, rng.choice((3, 5, 7)), True, 3),
                                       ("text", 5, rng.choice((5, 9)), False, 4),
                                       ("json", 7, rng.choice((3, 5, 9)), False, 3)):
            add(fmt, "primitive", "--p", p, "--i", i, *(["--plus"] if plus else []),
                "--primes", primes(p, count))
        for cmd in ("genus", "kgenus", "bounds"):
            for count, (fmt, p, flags_) in enumerate(
                    (("json", 2, ["--infinity", "--assume-hi"]), ("csv", 3, ["--wild"]),
                     ("text", 2, []), ("json", 5, [])), start=1):
                add(fmt, cmd, "--p", p, "--tame", primes(p, count),
                    *flags_, "--i", rng.randrange(2, 13))
        for fmt, p, flags_, count in (("json", 2, ["--imaginary"], 1),
                                      ("json", 2, ["--real", "--cyclic"], 2),
                                      ("text", 2, ["--real"], 1),
                                      ("json", 5, ["--assume-vandiver"], 2), ("csv", 7, [], 1)):
            add(fmt, "classify", "--p", p, *flags_, "--tame", primes(p, count),
                "--i", rng.randrange(2, 13))
        # the all-pairs loop costs about candidates^2: each slot fixes the
        # candidate count and the seed picks a bound that gives exactly it;
        # the twist stays in one criterion class per slot
        for fmt, p, flags_, count in (("json", 2, ["--imaginary"], 70),
                                      ("csv", 2, ["--real", "--cyclic"], 20),
                                      ("text", 3, [], 30), ("json", 5, ["--assume-vandiver"], 20),
                                      ("csv", 13, [], 20)):
            add(fmt, "enumerate", "--p", p, "--i", rng.choice(twist_classes(p, TWISTS)[0]),
                "--bound", _bound_with(rng, p, count), *flags_)
        # real fields of disc about 2*10^5 and 3000 and an imaginary one of
        # |disc| about 3*10^5, in one class mod 120 (see QuadFields._field)
        add("json", "quad", "--d", QuadFields._field(rng, 1, 2 * 10**5, 2))
        add("csv", "quad", "--d", QuadFields._field(rng, 1, 3000, 2))
        add("text", "quad", "--d", _squarefree_between(rng, 10, 100))
        add("json", "quad", "--d", QuadFields._field(rng, -1, 3 * 10**5, 2))
        add("csv", "quad", "--d", _squarefree_between(rng, -10**3, -10))
        # the cost of ktable jumps with the largest twist (its Bernoulli
        # numerator's factorization): 12 ms at --max-i 33, 70 ms at 34,
        # 240 ms at 36, so the heavy call keeps one value
        for fmt, max_i, flags_ in (("json", 34, []),
                                   ("csv", rng.randrange(10, 20), ["--assume-vandiver"]),
                                   ("text", rng.randrange(4, 13), [])):
            add(fmt, "ktable", "--max-i", max_i, *flags_)
        assert len(specs) == self.pass_size, len(specs)
        return specs

    def operation(self, kg, spec):
        import kgenus.cli

        argv = list(spec[1:])

        def op():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = kgenus.cli.main(argv)
            return code, out.getvalue()
        return op

    def check(self, spec, result):
        code, out = result
        if code != 0:
            return Outcome(errors=(f"{' '.join(spec[1:])}: exit code {code}: {out[:200]!r}",))
        return Outcome(errors=tuple(cli_errors(spec, out)))


def _stratum_residue(scale: int, k: int) -> int:
    """Residue of d mod 120 for stratum k: d mod 8 (for disc = d, the
    character at 2; for disc = 4d, d = 2 or 3 mod 4) and the characters
    (d/3), (d/5), which equal those of disc.  Eight strata per scale."""
    two, modulus = ((1, 5)[k % 2], 8) if scale == 1 else ((2, 3)[k % 2], 4)
    mod3 = (1, 2)[k // 2 % 2]   # (d/3) = +1, -1
    mod5 = (1, 2)[k // 4 % 2]   # (d/5) = +1, -1
    return next(r for r in range(120)
                if r % modulus == two and r % 3 == mod3 and r % 5 == mod5)


def _bound_with(rng, p: int, count: int) -> int:
    """A bound below which enumerate_vanishing has exactly count candidates."""
    f = flags()
    cands = [x for x in range(3, 20000) if f[x] and x != p and (p == 2 or x % p == 1)]
    return rng.randrange(cands[count - 1], cands[count])


def _prime_between(rng, lo, hi):
    f = flags()
    while True:
        x = rng.randrange(lo, hi)
        if f[x]:
            return x


def _squarefree_between(rng, lo, hi):
    while True:
        d = rng.randrange(lo, hi)
        if d not in (0, 1) and all(e == 1 for e in V.small_factor(abs(d)).values()):
            return d


# ---------------------------------------------------------------------------
# CLI output checks


def _parse_text(out: str) -> dict[str, str]:
    return {key: value for key, _, value in (line.partition(": ") for line in out.splitlines())}


def _text(value) -> str:
    if isinstance(value, list):
        return ";".join(_text(v) for v in value)
    return str(value)


def _flags_of(argv):
    return {a for a in argv if a.startswith("--") and a != "--format"}


def _opt(argv, name, cast=int):
    return cast(argv[argv.index(name) + 1])


def _tame_arg(argv, name="--tame"):
    if name not in argv:
        return []
    text = argv[argv.index(name) + 1]
    return sorted({int(x) for x in text.split(",")}) if text else []


def cli_expected(cmd: str, argv) -> dict:
    """Top-level JSON fields the command must print, from the verifier."""
    flags_ = _flags_of(argv)
    p = _opt(argv, "--p") if "--p" in argv else None
    if cmd == "local":
        ell, i = _opt(argv, "--ell"), _opt(argv, "--i")
        tame = ell in _tame_arg(argv)
        e_i, e_prime = V.local_row(p, ell, i, tame)
        return {"ell": ell, "q": ell, "e": p, "f": 1, "e_i": e_i, "e_prime": e_prime}
    if cmd == "tate-oracle":
        m, n, u = _opt(argv, "--m"), _opt(argv, "--n"), _opt(argv, "--u")
        h0, hm1 = V.tate_expected(m, n, u % m)
        return {"m": m, "n": n, "u": u % m, "h0": h0, "hm1": hm1}
    if cmd == "primitive":
        i, plus = _opt(argv, "--i"), "--plus" in flags_
        primes = _tame_arg(argv, "--primes")
        kinds, conditional = V.radical_kinds(p, i, plus)
        t = V.rank_of(p, i, primes, plus)
        names = [f"xi_{1 - i}" if k == V.XI else k for k in kinds]
        return {"radical": names, "conditional_on_vandiver": conditional and p != 2,
                "t": t, "independent": t == len(primes)}
    if cmd in ("genus", "kgenus"):
        tame, i = _tame_arg(argv), _opt(argv, "--i")
        wild, infinity = "--wild" in flags_, "--infinity" in flags_
        fn = V.genus_expected if cmd == "genus" else V.kgenus_expected
        exp = fn(p, tame, wild, infinity, i)
        granted = {V.H_I} if "--assume-hi" in flags_ else set()
        needed = set(exp["assumptions"]) - {V.UNRAMIFIED} - granted
        out = {k: v for k, v in exp.items() if k != "per_prime"}
        out.update(exponent_low=exp["exponent"], exponent_high=exp["exponent"],
                   verdict="conditional" if needed else "ok", p=p, i=i, tame=tame,
                   wild=wild, infinity=infinity,
                   per_prime={str(ell): {"e_i": a, "e_prime": b}
                              for ell, (a, b) in exp["per_prime"].items()})
        return out
    if cmd == "classify":
        tame, i = _tame_arg(argv), _opt(argv, "--i")
        real_type = ("totally_imaginary" if "--imaginary" in flags_ else "totally_real") \
            if p == 2 else None
        cyclic = "--cyclic" in flags_ or p != 2
        verdict, condition = V.decision_expected(p, tame, i, real_type, cyclic,
                                                 "--assume-vandiver" in flags_)
        return {"verdict": verdict, "condition": condition, "tame": tame, "i": i, "p": p}
    return {}


def cli_errors(spec, out: str) -> list[str]:
    fmt, cmd, argv = spec[0], spec[1], list(spec[2:])
    label = " ".join(spec[1:])
    if fmt == "csv" and cmd in CSV_COLUMNS:
        rows = list(csv.reader(io.StringIO(out)))
        if ",".join(rows[0]) != CSV_COLUMNS[cmd]:
            return [f"{label}: CSV header {rows[0]}"]
        return _csv_errors(label, cmd, argv, [dict(zip(rows[0], r)) for r in rows[1:]])
    if fmt == "csv":  # flattened single row of sorted keys
        rows = list(csv.reader(io.StringIO(out)))
        flat = dict(zip(rows[0], rows[1]))
        return [f"{label} {k}: got {flat.get(k)!r}, expected {_csv_scalar(v)!r}"
                for k, v in cli_expected(cmd, argv).items()
                if not isinstance(v, (dict, list)) and flat.get(k) != _csv_scalar(v)]
    if fmt == "text":
        lines = _parse_text(out)
        if cmd == "enumerate":
            return []  # rows of dicts do not survive the text rendering
        if cmd == "ktable":
            return []  # checked in json and csv
        if cmd == "quad":
            return _quad_cli_errors(label, argv, {k: lines.get(k) for k in ("h", "h_plus", "disc")},
                                    text=True)
        if cmd == "bounds":
            return _bounds_cli_errors(label, argv, {
                "T_used": [int(x) for x in lines["T_used"].split(";") if x],
                "coker_lower": int(lines["coker_lower.value"]),
                "ker_lower": int(lines["ker_lower.value"]),
                "coker_two_exponent": int(lines["coker_two_exponent"]),
                "ker_two_exponent": int(lines["ker_two_exponent"]),
                "assumptions": [a for a in lines["assumptions"].split(";") if a],
                "verdict": lines["verdict"]})
        return [f"{label} {k}: got {lines.get(k)!r}, expected {_text(v)!r}"
                for k, v in cli_expected(cmd, argv).items()
                if not isinstance(v, dict) and lines.get(k) != _text(v)]
    payload = json.loads(out)
    if cmd == "bounds":
        return _bounds_cli_errors(label, argv, {
            "T_used": payload["T_used"], "coker_lower": payload["coker_lower"]["value"],
            "ker_lower": payload["ker_lower"]["value"],
            "coker_two_exponent": payload["coker_two_exponent"],
            "ker_two_exponent": payload["ker_two_exponent"],
            "assumptions": payload["assumptions"], "verdict": payload["verdict"]})
    if cmd == "enumerate":
        observed = [(tuple(r["tame"]), r["verdict"], r["condition"]) for r in payload["admissible"]]
        return _catalog_cli_errors(argv, observed)
    if cmd == "quad":
        return _quad_cli_errors(label, argv, payload)
    if cmd == "ktable":
        return _ktable_errors(label, argv, [
            (r["i"], r["h2_order"]["value"], r["k_order"]["value"], r["conditional_on_vandiver"])
            for r in payload["rows"]])
    errors = _compare(label, payload, cli_expected(cmd, argv))
    if cmd == "primitive":
        p, i, plus = _opt(argv, "--p"), _opt(argv, "--i"), "--plus" in _flags_of(argv)
        for ell, vec in payload["vectors"].items():
            want = V.vectors(p, i, [int(ell)], plus)[0]
            if [int(bool(c)) for c in vec] != want or (p == 2 and vec != want):
                errors.append(f"{label}: vector of {ell} {vec}, nonzero pattern {want}")
        subset = payload["maximal_subset"]
        if len(subset) != payload["t"] or V.rank_of(p, i, subset, plus) != len(subset):
            errors.append(f"{label}: maximal subset {subset} is not primitive of size t")
    return errors


def _csv_scalar(v) -> str:
    return "" if v is None else str(v)


def _csv_errors(label, cmd, argv, rows) -> list[str]:
    if cmd in ("genus", "kgenus"):
        exp = cli_expected(cmd, argv)
        row = rows[0]
        want = {k: _text(exp[k]) for k in ("p", "tame", "i", "exponent", "t", "r", "s_i",
                                           "norm_index", "assumptions", "verdict",
                                           "delta_variant_used")}
        return [f"{label} {k}: got {row[k]!r}, expected {v!r}" for k, v in want.items() if row[k] != v]
    if cmd == "bounds":
        row = rows[0]
        return _bounds_cli_errors(label, argv, {
            "T_used": [int(x) for x in row["T_used"].split(";") if x],
            "coker_lower": int(row["coker_lower"]), "ker_lower": int(row["ker_lower"]),
            "coker_two_exponent": int(row["coker_two_exponent"]),
            "ker_two_exponent": int(row["ker_two_exponent"]),
            "assumptions": [a for a in row["assumptions"].split(";") if a],
            "verdict": row["verdict"]})
    if cmd == "enumerate":
        observed = [(tuple(int(x) for x in r["tame"].split(";") if x), r["verdict"],
                     r["condition"] or None) for r in rows]
        return _catalog_cli_errors(argv, observed)
    if cmd == "ktable":
        return _ktable_errors(label, argv, [
            (int(r["i"]), int(r["h2_order"]), int(r["k_order"]),
             r["conditional_on_vandiver"] == "true") for r in rows])
    row = rows[0]
    return _quad_cli_errors(label, argv, {"h": row["h"], "h_plus": row["h_plus"],
                                          "disc": row["disc"],
                                          "two_regular": row["two_regular"]}, text=True)


def _bounds_cli_errors(label, argv, obs) -> list[str]:
    p, i = _opt(argv, "--p"), _opt(argv, "--i")
    infinity = "--infinity" in _flags_of(argv)
    errors = V.bounds_errors(p, _tame_arg(argv), infinity, i, obs)
    needed = set(obs["assumptions"]) - ({V.H_I} if "--assume-hi" in _flags_of(argv) else set())
    if obs["verdict"] != ("conditional" if needed else "ok"):
        errors.append(f"{label}: verdict {obs['verdict']}")
    return errors


def _catalog_cli_errors(argv, observed) -> list[str]:
    flags_ = _flags_of(argv)
    p, i, bound = _opt(argv, "--p"), _opt(argv, "--i"), _opt(argv, "--bound")
    real_type = ("totally_imaginary" if "--imaginary" in flags_ else "totally_real") \
        if p == 2 else None
    return V.catalog_errors(p, i, real_type, "--cyclic" in flags_ or p != 2, bound,
                            "--assume-vandiver" in flags_, flags(), observed)


def _quad_cli_errors(label, argv, payload, text=False) -> list[str]:
    d = _opt(argv, "--d")
    if text:  # string fields from text or CSV output
        obs = {k: int(v) for k, v in payload.items() if k != "two_regular" and v is not None}
        if "two_regular" in payload:
            obs["two_regular"] = payload["two_regular"] == "true"
        return V.quad_errors(d, obs)
    unit = payload["fundamental_unit"]
    gens = payload["two_unit_generators"]
    return V.quad_errors(d, {
        "disc": payload["disc"], "dyadic_type": payload["dyadic_type"],
        "h": payload["h"], "h_plus": payload["h_plus"],
        "unit": None if unit is None else (unit["a"], unit["b"], unit["halved"]),
        "unit_norm": payload["unit_norm"], "two_regular": payload["two_regular"],
        "signature_matrix": payload["signature_matrix"], "delta": payload["delta"],
        "two_unit_generators": None if gens is None else [(g["a"], g["b"], g["halved"]) for g in gens]})


def _ktable_errors(label, argv, rows) -> list[str]:
    max_i = _opt(argv, "--max-i")
    assume = "--assume-vandiver" in _flags_of(argv)
    want = [(i, V.h2_order(i), V.k_order(i), bool(i % 2) and not assume)
            for i in range(2, max_i + 1)]
    return [] if rows == want else [f"{label}: rows {rows[:3]}..., expected {want[:3]}..."]


WORKLOADS = {w.name: w for w in (ShapeReports(), QuadFields(), CliSession())}
