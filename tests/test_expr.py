"""Expression AST: parsing, printing, differentiation, evaluation."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import distinct_nodes

from gafields import expr as expr_module
from gafields.expr import (
    Add,
    CExpr,
    Call,
    Const,
    Div,
    EvalDomainError,
    Expr,
    ExprDepthError,
    ExprError,
    ExprSyntaxError,
    MINUS_ONE,
    Mul,
    ONE,
    Pow,
    Sub,
    Var,
    ZERO,
    add,
    call,
    diff,
    div,
    evaluate,
    evaluate_many,
    mul,
    neg,
    parse,
    powi,
    sub,
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
    for bad in ("x0", "x3", "1 +", "sin()", "2 ** 3", "foo(x1)", "(x1", ".",
                ".e5"):
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
    batch = [(0.5,), (x,), (2.0,)]
    with pytest.raises(EvalDomainError) as info:
        evaluate(e, batch)
    assert info.value.point == (x,) or math.isnan(info.value.point[0])
    with pytest.raises(EvalDomainError):
        CExpr(parse("x1", 1), e).evaluate(batch)


@pytest.mark.parametrize("e", [
    Div(Var(1), Sub(Const(2.0), Const(2.0))),
    Pow(Const(10.0), 400),
    Call("exp", Const(1000.0)),
    Call("log", Sub(Const(1.0), Const(2.0))),
], ids=["div", "pow", "exp", "log"])
def test_domain_error_in_a_constant_subtree_names_one_point(e):
    # built without the folding constructors, so the constant reaches
    # evaluation; at a batch its error names the first point, not the batch
    for point in ((0.5,), [(0.5,), (0.7,)]):
        with pytest.raises(EvalDomainError) as info:
            evaluate(e, point)
        assert info.value.point == (0.5,)


def test_batch_matches_float_points():
    e = parse("sin(x1)*x2^3 - exp(0.3*x2)/x1 + sqrt(x1)*log(x2) "
              "+ pow(x1 + x2, -2)", 2)
    rng = np.random.default_rng(3)
    pts = [(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)) for _ in range(9)]
    got = evaluate(e, pts)
    assert got.shape == (9,)
    for v, p in zip(got, pts):
        assert v == pytest.approx(evaluate(e, p), rel=1e-14)
    z = CExpr(e, parse("x1*x2", 2)).evaluate(pts)
    assert z.dtype == complex and np.array_equal(z.real, got)
    # a constant gives one value per point too
    assert np.array_equal(evaluate(parse("2*3", 2), pts), np.full(9, 6.0))


def test_every_node_type_has_an_evaluator():
    # evaluation dispatches on type(e), so a node type missing from the
    # table would go unnoticed until an expression first holds one
    def node_types(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from node_types(sub)
    types = {t for t in node_types(Expr)
             if t.__module__ == expr_module.__name__}
    assert types == set(expr_module._EVAL)


def test_a_negated_right_operand_flips_the_node():
    # a + (-b) = a - b and a - (-b) = a + b hold bit for bit in IEEE
    # arithmetic, so the constructors build the node without the negation
    e = parse("x1 + -x2", 2)
    assert type(e) is Sub and to_str(e) == "x1 - x2"
    e = parse("x1 - -x2", 2)
    assert type(e) is Add and to_str(e) == "x1 + x2"
    # the left operand keeps its negation
    assert to_str(parse("-x1 + x2", 2)) == "-x1 + x2"


def test_negation_is_one_product_with_minus_one():
    e = parse("sin(x1)", 1)
    n = neg(e)
    assert type(n) is Mul and n.a is MINUS_ONE and n.b is e
    assert neg(n) is e
    assert mul(Const(-1.0), e).a is MINUS_ONE
    assert mul(e, Const(-1.0)).a is MINUS_ONE
    assert to_str(n) == "-sin(x1)"
    assert to_str(mul(parse("x2", 2), neg(parse("x1", 2)))) == "x2*-x1"
    assert to_str(powi(neg(parse("x1", 1)), 2)) == "(-x1)^2"
    # -x and (-1)*x are the same number, signed zeros included
    for x in (0.0, -0.0, 1.5, -2.25):
        assert math.copysign(1.0, evaluate(neg(Var(1)), (x,))) \
            == -math.copysign(1.0, x)
        assert evaluate(neg(Var(1)), (x,)) == -x


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


def _diff_reference(e, var):
    """Differentiation without a memo: a shared subtree is walked and
    copied once per path that reaches it."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == var else ZERO
    if isinstance(e, Add):
        return add(_diff_reference(e.a, var), _diff_reference(e.b, var))
    if isinstance(e, Sub):
        return sub(_diff_reference(e.a, var), _diff_reference(e.b, var))
    if isinstance(e, Mul):
        return add(mul(_diff_reference(e.a, var), e.b),
                   mul(e.a, _diff_reference(e.b, var)))
    if isinstance(e, Div):
        return div(sub(mul(_diff_reference(e.a, var), e.b),
                       mul(e.a, _diff_reference(e.b, var))), powi(e.b, 2))
    if isinstance(e, Pow):
        return mul(mul(Const(e.exponent), powi(e.base, e.exponent - 1)),
                   _diff_reference(e.base, var))
    da = _diff_reference(e.arg, var)
    if e.fn == "sin":
        return mul(call("cos", e.arg), da)
    if e.fn == "cos":
        return neg(mul(call("sin", e.arg), da))
    if e.fn == "exp":
        return mul(e, da)
    if e.fn == "log":
        return div(da, e.arg)
    return div(da, mul(Const(2.0), e))


def _sources():
    """Expression sources in x1, x2 of a few levels of nesting."""
    leaves = st.sampled_from(["x1", "x2", "0.5", "3", "1"])
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        st.tuples(inner, st.integers(-2, 3)).map(
            lambda t: f"pow({t[0]}, {t[1]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]),
                  inner).map(lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda a: f"-({a})")), max_leaves=10)


@given(_sources(), _sources())
@settings(max_examples=80, deadline=None)
def test_memoised_diff_matches_the_memo_free_reference(src_a, src_b):
    try:
        a, b = parse(src_a, 2), parse(src_b, 2)
        # a DAG: a and b are shared by several parents
        e = (a * b + a) * call("sin", b) - a / (b * b + 2.0)
    except ExprError:  # a constant part folds to a domain error
        return
    for var in (1, 2, 1):  # the second x1 derivative is a memo hit
        assert to_str(diff(e, var)) == to_str(_diff_reference(e, var))
        assert to_str(diff(a, var)) == to_str(_diff_reference(a, var))


# what the parser reads: digits, number punctuation, operators, names
_PARSER_ALPHABET = "0123456789.eE+-*/^(), xsincoexplgqrtpw_"
_PARSER_TOKENS = ["x1", "x2", "x3", "sin", "exp", "sqrt", "pow", "0", "1",
                  "2.5", ".", "e5", "1e308", "1e-320", "(", ")", ",", "+",
                  "-", "*", "/", "^", " "]


@given(st.one_of(
    st.text(alphabet=_PARSER_ALPHABET, max_size=30),
    st.lists(st.sampled_from(_PARSER_TOKENS), max_size=16).map("".join)))
@example(".")
@example(".e5")
@settings(max_examples=400, deadline=None)
def test_parse_either_parses_or_raises_expr_error(src):
    try:
        parse(src, 2)
    except ExprError:
        pass


# exp(486)^2 leaves double range in a constant fold
_EXP_486 = "exp((pow(3, 3)) * ((pow(3, 2)) + (pow(3, 2))))"


@given(_sources())
@example(f"({_EXP_486}) * ({_EXP_486})")
@settings(max_examples=200, deadline=None)
def test_printed_trees_parse_back_to_the_same_text(src):
    try:
        e = parse(src, 2)
    except ExprError:  # a constant part folds to a domain error
        return
    assert to_str(parse(to_str(e), 2)) == to_str(e)


def test_diff_of_a_shared_dag_is_linear():
    # 40 levels of e = e*e: a tree of 2^40 leaves as a DAG of 41 nodes,
    # whose derivative is again a DAG of a few nodes per level
    e = parse("x1", 1)
    for _ in range(40):
        e = mul(e, e)
    t0 = time.perf_counter()
    d = diff(e, 1)
    assert time.perf_counter() - t0 < 0.5
    # e = x1^(2^40), so d = 2^40 x1^(2^40 - 1), exactly 2^40 at x1 = 1
    assert evaluate(d, (1.0,)) == 2.0 ** 40
    assert diff(e, 1) is d


def test_subst_of_a_shared_dag_stays_a_dag():
    # 16 levels of e = e*e + x2: a tree of 2^16 leaves as a DAG of a few
    # nodes per level; substituting into it must not unroll the tree
    e, x2 = parse("x1", 2), parse("x2", 2)
    for _ in range(16):
        e = add(mul(e, e), x2)
    s, = subst([e], {1: parse("0.5*sin(x2)", 2), 2: parse("0.1*x1", 2)})
    assert distinct_nodes(s) <= 3 * 16 + 10
    assert evaluate(s, (0.3, 0.2)) == pytest.approx(
        evaluate(e, (0.5 * math.sin(0.2), 0.1 * 0.3)), rel=1e-12)


def test_subst_shares_a_subtree_across_its_items():
    # one memo for the whole call: a subtree that two items share is
    # substituted once, and their results share it too
    e = parse("sin(x1)*x2", 2)
    s = subst([e, add(e, parse("x1", 2))], {1: parse("x2^2", 2)})
    assert s[1].a is s[0]
    assert evaluate(s[1], (0.0, 0.5)) == pytest.approx(
        math.sin(0.25) * 0.5 + 0.25, rel=1e-15)


def test_subst_composition():
    e = parse("x1^2 + x2", 2)
    s, = subst([e], {1: parse("sin(x1)", 1), 2: parse("x1 + 1", 1)})
    x = 0.9
    assert evaluate(s, (x,)) == pytest.approx(math.sin(x) ** 2 + x + 1)


def test_evaluate_many_holds_every_item_for_the_call():
    # items from a generator are parsed as they are drawn; the call holds
    # them all, so no memo entry outlives its node and no recycled id()
    # aliases a newer subtree
    p = (0.6, 1.1)
    vals = evaluate_many((parse(f"sin(x1)*{k} + x2", 2) for k in range(200)),
                         p)
    assert len(vals) == 200
    for k, v in enumerate(vals):
        assert v == pytest.approx(math.sin(0.6) * k + 1.1, rel=1e-14)


def test_evaluate_many_mixes_real_and_complex_items():
    x = parse("x1*x2", 2)
    p = (0.5, 3.0)
    r, z, c = evaluate_many([x, CExpr(x, parse("x2", 2)), 2], p)
    assert type(r) is float and r == 1.5
    assert type(z) is complex and z == 1.5 + 3.0j
    assert type(c) is float and c == 2.0
    batch = [(0.5, 3.0), (1.0, 2.0)]
    r, z, c = evaluate_many([x, CExpr(x, parse("x2", 2)), 2], batch)
    assert r.dtype == float and np.array_equal(r, [1.5, 2.0])
    assert z.dtype == complex and np.array_equal(z, [1.5 + 3.0j, 2.0 + 2.0j])
    assert np.array_equal(c, [2.0, 2.0])


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
                                 "log(0 - 1)", "1e999", "1e300*1e300",
                                 "1e308+1e308", "1/1e-320",
                                 "(1e308+1e308)-(1e308+1e308)",
                                 "0*(1e300*1e300)", "0/0", "1/0"])
def test_constant_folding_errors_are_typed(src):
    # constants fold while parsing, so their domain errors surface there,
    # and no constant is inf or NaN
    with pytest.raises(ExprError):
        parse(src, 1)


def test_deep_expressions_raise_a_typed_error():
    # each operation recurses once per nesting level; past Python's
    # recursion limit it raises ExprDepthError, not RecursionError
    deep = parse(" + ".join(["x1"] * 3000), 1)
    with pytest.raises(ExprDepthError):
        parse("(" * 3000 + "x1" + ")" * 3000, 1)
    with pytest.raises(ExprDepthError):
        diff(deep, 1)
    with pytest.raises(ExprDepthError):
        to_str(deep)
    with pytest.raises(ExprDepthError):
        evaluate(deep, (0.5,))
    with pytest.raises(ExprDepthError):
        evaluate(deep, (np.array([0.5, 0.25]),))
    with pytest.raises(ExprDepthError):
        CExpr(deep).evaluate((0.5,))
    with pytest.raises(ExprDepthError):
        subst([deep], {1: parse("x1^2", 1)})
    # a shallow sum of the same terms still works, and so does the
    # derivative of a sum nested 900 levels deep
    assert evaluate(parse(" + ".join(["x1"] * 300), 1), (0.5,)) == 150.0
    assert evaluate(diff(parse(" + ".join(["x1"] * 900), 1), 1),
                    (0.5,)) == 900.0
