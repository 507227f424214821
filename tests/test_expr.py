"""Expression AST: parsing, printing, differentiation, evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gafields.expr import (
    CExpr,
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    ZERO,
    call,
    diff,
    evaluate,
    parse,
    subst,
    to_str,
)


def test_parse_arithmetic():
    e = parse("2*x1 + x2^3 - 4/x1", 2)
    assert evaluate(e, (2.0, 3.0)) == pytest.approx(4 + 27 - 2)


def test_parse_precedence_and_unary():
    assert evaluate(parse("-x1^2", 1), (3.0,)) == -9.0
    assert evaluate(parse("(-x1)^2", 1), (3.0,)) == 9.0
    assert evaluate(parse("2 - 3 - 4", 1), (0.0,)) == -5.0
    assert evaluate(parse("2*3^2", 1), (0.0,)) == 18.0


def test_parse_functions():
    e = parse("sin(x1)*cos(x2) + exp(x1) + sqrt(x2) + log(x2)", 2)
    x = (0.7, 2.5)
    want = (math.sin(0.7) * math.cos(2.5) + math.exp(0.7)
            + math.sqrt(2.5) + math.log(2.5))
    assert evaluate(e, x) == pytest.approx(want, rel=1e-15)


def test_parse_errors():
    for bad in ("x0", "x3", "1 +", "sin()", "2 ** 3", "foo(x1)", "(x1"):
        with pytest.raises(ExprSyntaxError):
            parse(bad, 2)


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x1", 1), (0.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x1)", 1), (-1.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(x1)", 1), (0.0,))


@pytest.mark.parametrize("src, x", [
    ("pow(x1, -1)", 0.0),      # ZeroDivisionError in Python
    ("exp(x1)", 1000.0),       # OverflowError
    ("x1^400", 10.0),          # OverflowError
    ("sin(x1)", math.inf),     # ValueError
    ("x1/x1", math.nan),       # NaN result
])
def test_domain_errors_are_typed(src, x):
    e = parse(src, 1)
    with pytest.raises(EvalDomainError) as info:
        evaluate(e, (x,))
    assert info.value.point == (x,) or math.isnan(info.value.point[0])
    # the same input inside a batch names that point
    batch = (np.array([0.5, x, 2.0]),)
    with pytest.raises(EvalDomainError) as info:
        evaluate(e, batch)
    assert info.value.point == (x,) or math.isnan(info.value.point[0])
    with pytest.raises(EvalDomainError):
        CExpr(parse("x1", 1), e).evaluate(batch)


def test_batch_matches_float_points():
    e = parse("sin(x1)*x2^3 - exp(0.3*x2)/x1 + sqrt(x1)*log(x2) "
              "+ pow(x1 + x2, -2)", 2)
    rng = np.random.default_rng(3)
    pts = [(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)) for _ in range(9)]
    batch = tuple(np.array(pts).T)
    got = evaluate(e, batch)
    assert got.shape == (9,)
    for v, p in zip(got, pts):
        assert v == pytest.approx(evaluate(e, p), rel=1e-14)
    z = CExpr(e, parse("x1*x2", 2)).evaluate(batch)
    assert z.dtype == complex and np.array_equal(z.real, got)
    # a constant stays a number that broadcasts over the batch
    assert evaluate(parse("2*3", 2), batch) == 6.0


def test_round_trip_printing():
    for src in ("x1*x2 + sin(x1)^2", "1/(x1 - x2)", "-(x1 + 1)*x2",
                "exp(-x1)*cos(2*x2)"):
        e = parse(src, 2)
        again = parse(to_str(e), 2)
        for p in [(0.3, 0.9), (1.7, -0.4)]:
            assert evaluate(again, p) == pytest.approx(evaluate(e, p),
                                                       rel=1e-15)


def _fd(e, p, var, h=1e-6):
    q = list(p)
    q[var - 1] += h
    hi = evaluate(e, q)
    q[var - 1] -= 2 * h
    lo = evaluate(e, q)
    return (hi - lo) / (2 * h)


@pytest.mark.parametrize("src", [
    "x1^3 - 2*x1*x2",
    "sin(x1*x2)",
    "exp(x1)/x2",
    "sqrt(1 + x1^2)",
    "log(2 + cos(x2))",
    "x1^2*sin(x2) + x2/x1",
])
def test_diff_matches_finite_differences(src):
    e = parse(src, 2)
    for p in [(0.8, 1.3), (1.5, 0.4)]:
        for var in (1, 2):
            got = evaluate(diff(e, var), p)
            assert got == pytest.approx(_fd(e, p, var), abs=1e-6, rel=1e-6)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_diff_product_rule(a, b, c):
    f = parse("sin(x1) + x1^2", 1)
    g = parse("cos(x1)*x1", 1)
    left = diff(f * g, 1)
    right = diff(f, 1) * g + f * diff(g, 1)
    x = (a * 0.3 + b * 0.1 + c * 0.05 + 0.5,)
    assert evaluate(left, x) == pytest.approx(evaluate(right, x),
                                              abs=1e-12, rel=1e-12)


def test_subst_composition():
    e = parse("x1^2 + x2", 2)
    s = subst(e, {1: parse("sin(x1)", 1), 2: parse("x1 + 1", 1)})
    x = 0.9
    assert evaluate(s, (x,)) == pytest.approx(math.sin(x) ** 2 + x + 1)


def test_memo_shared_across_evaluations():
    # a shared memo must pin nodes so recycled ids cannot alias new subtrees
    memo = {}
    p = (0.6, 1.1)
    vals = []
    for k in range(200):
        e = parse(f"sin(x1)*{k} + x2", 2)
        vals.append(evaluate(e, p, memo))
        del e
    for k, v in enumerate(vals):
        assert v == pytest.approx(math.sin(0.6) * k + 1.1, rel=1e-14)


def test_cexpr_arithmetic():
    a = CExpr(parse("x1", 1), parse("x1^2", 1))
    b = CExpr.of(2.0 - 1.0j)
    p = (1.5,)
    za = 1.5 + 2.25j
    assert (a * b).evaluate(p) == pytest.approx(za * (2 - 1j))
    assert (a + b).evaluate(p) == pytest.approx(za + 2 - 1j)
    assert (a - b).evaluate(p) == pytest.approx(za - 2 + 1j)
    assert a.conj().evaluate(p) == pytest.approx(za.conjugate())


def test_cexpr_mixed_with_expr():
    x = parse("x1", 1)
    c = CExpr(ZERO, x)  # i*x1
    prod = x * c  # Expr.__mul__ defers to CExpr.__rmul__
    assert isinstance(prod, CExpr)
    assert prod.evaluate((2.0,)) == pytest.approx(4j)


def test_cexpr_diff():
    c = CExpr(parse("sin(x1)", 1), parse("x1^3", 1))
    d = c.diff(1)
    x = 0.8
    assert d.evaluate((x,)) == pytest.approx(math.cos(x) + 3j * x * x)


def test_call_guard():
    with pytest.raises(ValueError):
        call("notafunction", ZERO)


@pytest.mark.parametrize("src", ["pow(0, -1)", "exp(1000)", "10^400",
                                 "log(0 - 1)"])
def test_constant_folding_errors_are_typed(src):
    # constants fold while parsing, so their domain errors surface there
    with pytest.raises(ExprError):
        parse(src, 1)
