"""Small expression language for coordinate-dependent coefficients.

Expressions are ASTs over coordinate variables x1..xn, real literals and
the operators + - * / unary-minus, integer powers and the functions
sin, cos, exp, log, sqrt.  Differentiation is exact and symbolic;
evaluation is plain IEEE double arithmetic.  Nodes compare by identity,
so one `evaluate_many` call evaluates a subtree its items share once,
with a memo that lives for that call alone.  Derivatives are memoised
per node: each node keeps its derivative in each variable the first time
it is differentiated, so a subtree shared by many expressions (a DAG) is
differentiated once, and its derivative is again one shared node.

A point is a sequence of n floats (x1 = point[0]) and a batch is a
sequence of N points, shape (N, n) to `np.asarray`.  An expression has
no dimension, so it cannot tell n coordinate rows of N values from n
points of N coordinates: the chart-aware callers reject a point whose
length is not the chart's.  Evaluation has one arithmetic, numpy's: a
point of floats is a batch of one, whose value comes back as a float,
and each node is one numpy operation for all the points at once.  It
raises `EvalDomainError` naming a point where a value leaves the domain
or stops being finite.  `math` only folds constants while parsing.

Parsing, printing, differentiation, substitution and evaluation recurse
once per nesting level; an expression nested deeper than Python's
recursion limit raises `ExprDepthError` instead of a bare `RecursionError`.
"""

from __future__ import annotations

import contextlib
import math
import operator

import numpy as np


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.pos = pos


class ExprDepthError(ExprError):
    """An expression nests deeper than the recursive parser, printer,
    differentiator, substituter or evaluator can follow."""

    def __init__(self, what: str):
        super().__init__(f"expression nests too deeply to {what}")


class EvalDomainError(ExprError):
    def __init__(self, message: str, point):
        super().__init__(f"{message} at point {tuple(point)}")
        self.point = tuple(point)


def _liftable(x) -> bool:
    return isinstance(x, (Expr, int, float))


class Expr:
    # _d: {var: derivative in x<var>}, set by the first `diff` of the node
    __slots__ = ("_d",)

    def __add__(self, other):
        if isinstance(other, Expr):
            return add(self, other)
        if not _liftable(other):
            return NotImplemented
        return add(self, lift(other))

    def __radd__(self, other):
        if not _liftable(other):
            return NotImplemented
        return add(lift(other), self)

    def __sub__(self, other):
        if isinstance(other, Expr):
            return sub(self, other)
        if not _liftable(other):
            return NotImplemented
        return sub(self, lift(other))

    def __rsub__(self, other):
        if not _liftable(other):
            return NotImplemented
        return sub(lift(other), self)

    def __mul__(self, other):
        if isinstance(other, Expr):
            return mul(self, other)
        if not _liftable(other):
            return NotImplemented
        return mul(self, lift(other))

    def __rmul__(self, other):
        if not _liftable(other):
            return NotImplemented
        return mul(lift(other), self)

    def __truediv__(self, other):
        if not _liftable(other):
            return NotImplemented
        return div(self, lift(other))

    def __rtruediv__(self, other):
        if not _liftable(other):
            return NotImplemented
        return div(lift(other), self)

    def __neg__(self):
        return neg(self)

    def is_zero(self) -> bool:
        return False

    def __repr__(self):
        return f"Expr({to_str(self)})"


class Const(Expr):
    __slots__ = ("val",)

    def __init__(self, val: float):
        self.val = float(val)

    def is_zero(self) -> bool:
        return self.val == 0.0


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index  # 1-based


class Add(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


class Sub(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


class Mul(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


class Div(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent: int):
        self.base = base
        self.exponent = int(exponent)


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg):
        self.fn = fn
        self.arg = arg


ZERO = Const(0.0)
ONE = Const(1.0)

_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}

_UFUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}


def lift(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    raise TypeError(f"cannot lift {type(x).__name__} to Expr")


# Smart constructors with light folding: enough to keep derivative trees
# from drowning in 0*x and x+0 noise, no general simplification.  Every
# fold needs a Const operand, so add, sub and mul build the node at once
# when neither operand is one.

def add(a: Expr, b: Expr) -> Expr:
    if type(a) is not Const and type(b) is not Const:
        return Add(a, b)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.val + b.val)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if type(a) is not Const and type(b) is not Const:
        return Sub(a, b)
    if b.is_zero():
        return a
    if a.is_zero():
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.val - b.val)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if type(a) is not Const and type(b) is not Const:
        return Mul(a, b)
    if a.is_zero() or b.is_zero():
        return ZERO
    if isinstance(a, Const):
        if a.val == 1.0:
            return b
        if isinstance(b, Const):
            return Const(a.val * b.val)
        if a.val == -1.0:
            return neg(b)
    if isinstance(b, Const):
        if b.val == 1.0:
            return a
        if b.val == -1.0:
            return neg(a)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if a.is_zero():
        return ZERO
    if isinstance(b, Const):
        if b.val == 1.0:
            return a
        if b.val == 0.0:
            raise ExprError("division by constant zero")
        if isinstance(a, Const):
            return Const(a.val / b.val)
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.val)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def powi(a: Expr, k: int) -> Expr:
    k = int(k)
    if k == 0:
        return ONE
    if k == 1:
        return a
    if isinstance(a, Const):
        try:
            return Const(a.val ** k)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ExprError(f"({a.val})^{k}: {exc}") from exc
    return Pow(a, k)


def call(fn: str, a: Expr) -> Expr:
    if fn not in _FUNCS:
        raise ExprError(f"unknown function '{fn}'")
    if isinstance(a, Const):
        try:
            return Const(_FUNCS[fn](a.val))
        except (ValueError, OverflowError) as exc:
            raise ExprError(f"{fn}({a.val}): {exc}") from exc
    return Call(fn, a)


def _batch(point) -> np.ndarray:
    """A point (n,) or a batch (N, n) as contiguous float rows, one per
    coordinate, the layout the evaluators read: n rows of N values, or n
    numpy scalars for a point of floats.  The coordinates are checked
    here, once, where a point enters evaluation: `EvalDomainError` names
    the first point with an inf or NaN coordinate."""
    xs = np.ascontiguousarray(np.asarray(point, dtype=float).T)
    _domain_check(~np.isfinite(xs).all(axis=0), "non-finite coordinate", xs)
    return xs


def _point_at(xs, i: int = 0) -> tuple:
    """Point i of the rows of `_batch` as a tuple of floats."""
    return tuple(float(np.ravel(x)[i]) for x in xs)


def _domain_check(bad, message: str, xs) -> None:
    """Raise `EvalDomainError` naming the first point of the rows `xs`
    where `bad` holds, or the first point where `bad` is one boolean,
    from a constant.  Every node that can leave the domain runs this
    test, and `np.count_nonzero` costs less than `bad.any()` on an array
    or a scalar."""
    if np.count_nonzero(bad):
        raise EvalDomainError(message, _point_at(xs, int(np.argmax(bad))))


def check_finite(v, point, what: str = "value") -> None:
    """Raise `EvalDomainError` naming the first point, of a point or a
    batch as evaluation takes them, where a value is inf or NaN."""
    _domain_check(~np.isfinite(v), f"non-finite {what}", _batch(point))


@contextlib.contextmanager
def _evaluating():
    """Every value that leaves the domain raises `EvalDomainError`, so
    numpy's warnings say nothing more; a tree nested deeper than the
    recursion limit raises `ExprDepthError`."""
    try:
        with np.errstate(all="ignore"):
            yield
    except RecursionError:
        raise ExprDepthError("evaluate") from None


def evaluate(e, point):
    """Evaluate a real expression (or a number) at a point of floats (a
    float) or at a batch of N points (an array of N values, also where
    `e` is constant)."""
    return evaluate_many((e,), point)[0]


def evaluate_many(items, point) -> list:
    """Evaluate real items (an `Expr` or a number) and complex items (a
    `CExpr`) at one point of floats or one batch.  At a point, a real item
    gives a float and a complex item a complex; at a batch, each gives an
    array of one value per point.  All items share one memo, which lives
    for this call only: the items are held in a list for the whole call,
    so no node in the memo is freed and no id() in it is reused."""
    items = [x if type(x) is CExpr else lift(x) for x in items]
    xs = _batch(point)
    memo = {}
    values = []
    with _evaluating():
        for x in items:
            if type(x) is CExpr:
                # a complex value is finite where both parts are, so one
                # check covers them
                re, im = x.re, x.im
                v = _EVAL[type(re)](re, xs, memo) \
                    + 1j * _EVAL[type(im)](im, xs, memo)
            else:
                v = _EVAL[type(x)](x, xs, memo)
            _domain_check(~np.isfinite(v), "non-finite value", xs)
            values.append(v)
    if xs.ndim > 1:  # a constant gives a number, which fills an array
        return [v if isinstance(v, np.ndarray) else np.full(xs.shape[1:], v)
                for v in values]
    return [complex(v) if type(x) is CExpr else float(v)
            for x, v in zip(items, values)]


# One evaluator per node type in `_EVAL`, dispatched on type(e).  Each
# evaluates its children through the table itself, so evaluation takes
# one Python frame per nesting level, and a node with children keeps its
# value in the memo of the `evaluate_many` call, keyed by id().  Every
# point is a batch, so one numpy operation per node serves all its
# points; a constant subtree yields a number, so the domain checks use
# numpy operations that take a number or an array alike.

def _eval_const(e, point, memo):
    return e.val


def _eval_var(e, point, memo):
    if e.index > len(point):
        raise EvalDomainError(f"variable x{e.index} beyond point "
                              "dimension", _point_at(point))
    return point[e.index - 1]


def _eval_arith(op):
    """The evaluator of a node whose value is op(value of a, value of b)."""
    def eval_node(e, point, memo):
        hit = memo.get(id(e))
        if hit is not None:
            return hit
        a, b = e.a, e.b
        v = memo[id(e)] = op(_EVAL[type(a)](a, point, memo),
                             _EVAL[type(b)](b, point, memo))
        return v
    return eval_node


def _eval_div(e, point, memo):
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    a, b = e.a, e.b
    den = _EVAL[type(b)](b, point, memo)
    _domain_check(np.equal(den, 0.0), "division by zero", point)
    v = _EVAL[type(a)](a, point, memo) / den
    memo[id(e)] = v
    return v


def _eval_neg(e, point, memo):
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    a = e.a
    v = -_EVAL[type(a)](a, point, memo)
    memo[id(e)] = v
    return v


def _eval_pow(e, point, memo):
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    base = e.base
    # a float base would take Python's power, which raises on overflow
    x = np.asarray(_EVAL[type(base)](base, point, memo), dtype=float)
    if e.exponent < 0:
        _domain_check(np.equal(x, 0.0), "division by zero", point)
    v = x ** e.exponent
    _domain_check(~np.isfinite(v), "non-finite power", point)
    memo[id(e)] = v
    return v


def _eval_call(e, point, memo):
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    arg = e.arg
    x = _EVAL[type(arg)](arg, point, memo)
    if e.fn == "log":
        _domain_check(np.less_equal(x, 0.0), "log of non-positive value",
                      point)
    elif e.fn == "sqrt":
        _domain_check(np.less(x, 0.0), "sqrt of negative value", point)
    v = _UFUNCS[e.fn](x)
    _domain_check(~np.isfinite(v), f"non-finite {e.fn}", point)
    memo[id(e)] = v
    return v


_EVAL = {Const: _eval_const, Var: _eval_var, Add: _eval_arith(operator.add),
         Sub: _eval_arith(operator.sub), Mul: _eval_arith(operator.mul),
         Div: _eval_div, Neg: _eval_neg, Pow: _eval_pow, Call: _eval_call}


def diff(e: Expr, var: int) -> Expr:
    """Exact partial derivative with respect to x<var> (1-based)."""
    try:
        return _diff(e, var)
    except RecursionError:
        raise ExprDepthError("differentiate") from None


def _diff(e: Expr, var: int) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == var else ZERO
    # the memo lives on the node, so a shared subtree is differentiated
    # once and every parent gets the same derivative node
    try:
        memo = e._d
    except AttributeError:
        memo = e._d = {}
    d = memo.get(var)
    if d is not None:
        return d
    if isinstance(e, Add):
        d = add(_diff(e.a, var), _diff(e.b, var))
    elif isinstance(e, Sub):
        d = sub(_diff(e.a, var), _diff(e.b, var))
    elif isinstance(e, Mul):
        d = add(mul(_diff(e.a, var), e.b), mul(e.a, _diff(e.b, var)))
    elif isinstance(e, Div):
        d = div(sub(mul(_diff(e.a, var), e.b), mul(e.a, _diff(e.b, var))),
                powi(e.b, 2))
    elif isinstance(e, Neg):
        d = neg(_diff(e.a, var))
    elif isinstance(e, Pow):
        d = mul(mul(Const(e.exponent), powi(e.base, e.exponent - 1)),
                _diff(e.base, var))
    elif isinstance(e, Call):
        da = _diff(e.arg, var)
        if e.fn == "sin":
            d = mul(call("cos", e.arg), da)
        elif e.fn == "cos":
            d = neg(mul(call("sin", e.arg), da))
        elif e.fn == "exp":
            d = mul(e, da)
        elif e.fn == "log":
            d = div(da, e.arg)
        elif e.fn == "sqrt":
            d = div(da, mul(Const(2.0), e))
        else:
            raise TypeError(f"unknown function '{e.fn}'")
    else:
        raise TypeError(f"unknown node {type(e).__name__}")
    memo[var] = d
    return d


def subst(items, mapping) -> list:
    """Substitute variables in each of a sequence of expressions: mapping
    is {index: Expr}.  A subtree shared within or across the items is
    substituted once, so the results share it too: the memo is keyed by
    id() and lives for this call, while the items, held in a list for
    the call, hold every node under them, so no id() in it is reused."""
    items = list(items)
    memo = {}

    def walk(e: Expr) -> Expr:
        if isinstance(e, Const):
            return e
        if isinstance(e, Var):
            return mapping.get(e.index, e)
        out = memo.get(id(e))
        if out is not None:
            return out
        if isinstance(e, Add):
            out = add(walk(e.a), walk(e.b))
        elif isinstance(e, Sub):
            out = sub(walk(e.a), walk(e.b))
        elif isinstance(e, Mul):
            out = mul(walk(e.a), walk(e.b))
        elif isinstance(e, Div):
            out = div(walk(e.a), walk(e.b))
        elif isinstance(e, Neg):
            out = neg(walk(e.a))
        elif isinstance(e, Pow):
            out = powi(walk(e.base), e.exponent)
        elif isinstance(e, Call):
            out = call(e.fn, walk(e.arg))
        else:
            raise TypeError(f"unknown node {type(e).__name__}")
        memo[id(e)] = out
        return out

    try:
        return [walk(e) for e in items]
    except RecursionError:
        raise ExprDepthError("substitute") from None


# ---------------------------------------------------------------------------
# Parser.  Precedence: ^ > unary - > * / > + -.

_TOKEN_OPS = "+-*/^(),"


def _tokenize(src: str):
    tokens = []  # (kind, value, pos)
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            tokens.append(("num", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str, dim: int):
        self.src = src
        self.dim = dim
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if kind != "op" or val != value:
            raise ExprSyntaxError(f"expected '{value}'", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.next()
                e = powi(e, self.int_exponent())
            else:
                return e

    def int_exponent(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
            kind, val, pos = self.peek()
        if kind != "num" or any(ch in val for ch in ".eE"):
            raise ExprSyntaxError("exponent must be an integer literal", pos)
        self.next()
        return sign * int(val)

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return Const(float(val))
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            if val == "pow":
                self.expect("(")
                base = self.expr()
                self.expect(",")
                k = self.int_exponent()
                self.expect(")")
                return powi(base, k)
            if val in _FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return call(val, arg)
            if val.startswith("x") and val[1:].isdigit():
                idx = int(val[1:])
                if not 1 <= idx <= self.dim:
                    raise ExprSyntaxError(
                        f"variable {val} out of range for dimension {self.dim}", pos)
                return Var(idx)
            raise ExprSyntaxError(f"unknown identifier {val!r}", pos)
        raise ExprSyntaxError("expected expression", pos)


def parse(src: str, dim: int) -> Expr:
    try:
        return _Parser(src, dim).parse()
    except RecursionError:
        raise ExprDepthError("parse") from None


def to_str(e: Expr) -> str:
    """Canonical printer; parse(to_str(e)) reproduces the same tree."""
    try:
        return _print(e, 0)
    except RecursionError:
        raise ExprDepthError("print") from None


# precedence levels: 0 add, 1 mul, 2 unary, 3 pow, 4 atom
def _print(e: Expr, ctx: int) -> str:
    if isinstance(e, Const):
        if e.val < 0:
            s = repr(e.val)
            return f"({s})" if ctx >= 2 else s
        return repr(e.val)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Add):
        s = f"{_print(e.a, 0)} + {_print(e.b, 1)}"
        return f"({s})" if ctx > 0 else s
    if isinstance(e, Sub):
        s = f"{_print(e.a, 0)} - {_print(e.b, 1)}"
        return f"({s})" if ctx > 0 else s
    if isinstance(e, Mul):
        s = f"{_print(e.a, 1)}*{_print(e.b, 2)}"
        return f"({s})" if ctx > 1 else s
    if isinstance(e, Div):
        s = f"{_print(e.a, 1)}/{_print(e.b, 2)}"
        return f"({s})" if ctx > 1 else s
    if isinstance(e, Neg):
        s = f"-{_print(e.a, 2)}"
        return f"({s})" if ctx > 2 else s
    if isinstance(e, Pow):
        if e.exponent < 0:
            return f"pow({_print(e.base, 0)}, {e.exponent})"
        return f"{_print(e.base, 4)}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.fn}({_print(e.arg, 0)})"
    raise TypeError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Complex-valued expressions as pairs of real expressions.

class CExpr:
    """Complex scalar function: a pair (re, im) of real expressions."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=ZERO):
        self.re = re if isinstance(re, Expr) else lift(re)
        self.im = im if isinstance(im, Expr) else lift(im)

    @classmethod
    def of(cls, z) -> "CExpr":
        if isinstance(z, CExpr):
            return z
        if isinstance(z, Expr):
            return cls(z)
        if isinstance(z, complex):
            return cls(Const(z.real), Const(z.imag))
        if isinstance(z, (int, float)):
            return cls(Const(z))
        raise TypeError(f"cannot lift {type(z).__name__} to CExpr")

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __add__(self, other):
        o = other if type(other) is CExpr else CExpr.of(other)
        return CExpr(add(self.re, o.re), add(self.im, o.im))

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is CExpr else CExpr.of(other)
        return CExpr(sub(self.re, o.re), sub(self.im, o.im))

    def __rsub__(self, other):
        return CExpr.of(other) - self

    def __mul__(self, other):
        o = other if type(other) is CExpr else CExpr.of(other)
        return CExpr(sub(mul(self.re, o.re), mul(self.im, o.im)),
                     add(mul(self.re, o.im), mul(self.im, o.re)))

    __rmul__ = __mul__

    def __neg__(self):
        return CExpr(neg(self.re), neg(self.im))

    def conj(self) -> "CExpr":
        return CExpr(self.re, neg(self.im))

    def diff(self, var: int) -> "CExpr":
        return CExpr(diff(self.re, var), diff(self.im, var))

    def evaluate(self, point):
        """A complex number at a point of floats; at a batch, a complex
        array of one value per point."""
        return evaluate_many((self,), point)[0]

    def __repr__(self):
        return f"CExpr({to_str(self.re)}, {to_str(self.im)})"


CZERO = CExpr(ZERO, ZERO)
