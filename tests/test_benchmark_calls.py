"""The library calls that the benchmark workloads (perfbench/workloads.py
and perfbench/probe.py) make, in the form they make them, and the
attributes their checks read.  Deleting or reshaping any of them fails
here, in the test suite, before it fails a benchmark run."""

import contextlib
import io

import pytest

import kgenus as kg
import kgenus.cli


def read(obj, *names):
    """The named attributes, read the way a workload check reads them."""
    return [getattr(obj, name) for name in names]


@pytest.mark.parametrize("p, tame, wild, infinity, i, assume", (
    (3, (7, 13), True, False, 2, False),
    (2, (3, 5), False, True, 3, True),
    (2, (7,), True, False, 4, False),
    (5, (11,), False, False, 5, True),
    (13, (53,), True, False, 12, False),
))
def test_shape_reports_operation(p, tame, wild, infinity, i, assume):
    real_type = (kg.classify.TOTALLY_IMAGINARY if infinity else kg.classify.TOTALLY_REAL) \
        if p == 2 else kg.classify.NOT_APPLICABLE
    ext = kg.CyclicExtensionOfQ(p, frozenset(tame), wild, infinity)
    local = tuple(kg.local_invariants(ext, ell, i) for ell in ext.ramified_finite)
    exact = None if infinity else kg.exact_descent_structure(ext, i, assume)
    shape = kg.ExtensionShape(p, frozenset(tame), wild, real_type, True)
    genus, kgen = kg.genus_exponent(ext, i), kg.k_genus_ratio(ext, i)
    bounds = kg.descent_bounds(ext, i)
    decision = kg.vanishing_decision(shape, i, assume)

    for data in local:
        assert (data.q, data.e, data.f) == (data.ell, p, 1)
        assert isinstance(data.e_i, int) and isinstance(data.e_prime, int)
    for report in (genus, kgen):
        assert isinstance(report.exponent, int)
        assert {ell for ell, _ in report.per_prime} == set(ext.ramified_finite)
        assert None not in read(report, "t", "r", "s_i", "delta_variant_used",
                                "norm_index", "assumptions")
    assert set(bounds.T_used) <= set(tame)
    assert bounds.coker_lower.value >= 1 and bounds.ker_lower.value >= 1
    assert None not in read(bounds, "coker_two_exponent", "ker_two_exponent",
                            "assumptions")
    if exact is not None and not isinstance(exact, kg.NotApplicable):
        assert all(n > 1 for n in exact.cyclic_orders)
    assert decision.verdict in (kg.classify.VANISHES, kg.classify.NONZERO,
                                kg.classify.CONDITIONAL)
    read(decision, "condition")


@pytest.mark.parametrize("d", (-23, -5, 3, 13, 17, 10))
def test_quad_fields_operation(d):
    result = kg.quad_field_data(d)
    assert result.disc == kg.discriminant(d)
    assert None not in read(result, "dyadic_type", "h", "h_plus", "two_regular")
    unit, gens = result.fundamental_unit, result.two_unit_generators
    assert (unit is None) == (d < 0) == (result.unit_norm is None)
    assert (gens is None) == (result.signature_matrix is None) == (result.delta is None)
    for element in (() if unit is None else (unit,)) + (gens or ()):
        assert None not in read(element, "a", "b", "halved")


def test_quad_fields_refusal():
    # the not-squarefree discriminant(q**2 * r) operations
    with pytest.raises(ValueError):
        kg.discriminant(1000003**2 * 1000033)


def test_cli_session_operation():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kgenus.cli.main(["quad", "--d", "13", "--format", "json"])
    assert code == 0 and '"h_plus": 1' in out.getvalue()
