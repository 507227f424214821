"""Small expression language for coordinate-dependent coefficients.

Expressions are ASTs over coordinate variables x1..xn, real literals and
the operators + - * / unary-minus, integer powers and the functions
sin, cos, exp, log, sqrt.  Differentiation is exact and symbolic;
evaluation is plain IEEE double arithmetic.  Nodes compare by identity,
which lets evaluation memoize shared subtrees.

A point is either a sequence of floats (x1 = point[0]), evaluated with
Python floats and the `math` functions, or a batch: one 1-D float array
per coordinate, evaluated with one numpy operation per node for all the
points at once.  Both raise `EvalDomainError` naming a point where a
value leaves the domain or stops being finite.
"""

from __future__ import annotations

import math

import numpy as np


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.pos = pos


class EvalDomainError(ExprError):
    def __init__(self, message: str, point):
        super().__init__(f"{message} at point {tuple(point)}")
        self.point = tuple(point)


def _liftable(x) -> bool:
    return isinstance(x, (Expr, int, float))


class Expr:
    __slots__ = ()

    def __add__(self, other):
        if not _liftable(other):
            return NotImplemented
        return add(self, lift(other))

    def __radd__(self, other):
        if not _liftable(other):
            return NotImplemented
        return add(lift(other), self)

    def __sub__(self, other):
        if not _liftable(other):
            return NotImplemented
        return sub(self, lift(other))

    def __rsub__(self, other):
        if not _liftable(other):
            return NotImplemented
        return sub(lift(other), self)

    def __mul__(self, other):
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
        return isinstance(self, Const) and self.val == 0.0

    def __repr__(self):
        return f"Expr({to_str(self)})"


class Const(Expr):
    __slots__ = ("val",)

    def __init__(self, val: float):
        self.val = float(val)


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
# from drowning in 0*x and x+0 noise, no general simplification.

def add(a: Expr, b: Expr) -> Expr:
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.val + b.val)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if b.is_zero():
        return a
    if a.is_zero():
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.val - b.val)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
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


def _is_batch(point) -> bool:
    """True for a batch of points given as coordinate arrays."""
    return len(point) > 0 and isinstance(point[0], np.ndarray)


def _point_at(point, i: int = 0) -> tuple:
    """Point i of a batch as a tuple of floats; a float point is itself."""
    return tuple(float(x[i]) for x in point) if _is_batch(point) \
        else tuple(point)


def _domain_check(bad: np.ndarray, message: str, point) -> None:
    """Raise `EvalDomainError` naming the first batch point where `bad`
    holds."""
    if bad.any():
        raise EvalDomainError(message, _point_at(point, int(np.argmax(bad))))


def check_finite(v, point, what: str = "value") -> None:
    """Raise `EvalDomainError` at a point where a value is inf or NaN."""
    if isinstance(v, np.ndarray):
        _domain_check(~np.isfinite(v), f"non-finite {what}", point)
    elif not math.isfinite(v):
        raise EvalDomainError(f"non-finite {what}", point)


def evaluate(e: Expr, point, memo=None):
    """Evaluate at a point of floats (a float) or at a batch of coordinate
    arrays (an array of values, or a float where `e` is constant)."""
    if memo is None:
        memo = {}
    if _is_batch(point):
        # every value that leaves the domain raises EvalDomainError, so
        # numpy's warnings say nothing more
        with np.errstate(all="ignore"):
            v = _eval(e, point, memo)
    else:
        v = _eval(e, point, memo)
    check_finite(v, point)
    return v


def _eval(e: Expr, point, memo):
    # the memo entry pins the node: id() keys are only unique while the
    # object is alive, and shared memos outlive temporary subtrees.  A
    # float takes Python arithmetic and `math` (which raise on overflow),
    # an array of batch values numpy (which returns inf or NaN instead).
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(e, Const):
        v = e.val
    elif isinstance(e, Var):
        if e.index > len(point):
            raise EvalDomainError(f"variable x{e.index} beyond point "
                                  "dimension", _point_at(point))
        x = point[e.index - 1]
        v = np.asarray(x, dtype=float) if isinstance(x, np.ndarray) \
            else float(x)
        check_finite(v, point, "coordinate")
    elif isinstance(e, Add):
        v = _eval(e.a, point, memo) + _eval(e.b, point, memo)
    elif isinstance(e, Sub):
        v = _eval(e.a, point, memo) - _eval(e.b, point, memo)
    elif isinstance(e, Mul):
        v = _eval(e.a, point, memo) * _eval(e.b, point, memo)
    elif isinstance(e, Div):
        den = _eval(e.b, point, memo)
        if isinstance(den, np.ndarray):
            _domain_check(den == 0.0, "division by zero", point)
        elif den == 0.0:
            raise EvalDomainError("division by zero", point)
        v = _eval(e.a, point, memo) / den
    elif isinstance(e, Neg):
        v = -_eval(e.a, point, memo)
    elif isinstance(e, Pow):
        x = _eval(e.base, point, memo)
        if isinstance(x, np.ndarray):
            if e.exponent < 0:
                _domain_check(x == 0.0, "division by zero", point)
            v = x ** e.exponent
            check_finite(v, point, "power")
        else:
            if e.exponent < 0 and x == 0.0:
                raise EvalDomainError("division by zero", point)
            try:
                v = x ** e.exponent
            except OverflowError as exc:
                raise EvalDomainError("non-finite power", point) from exc
    elif isinstance(e, Call):
        x = _eval(e.arg, point, memo)
        if isinstance(x, np.ndarray):
            if e.fn == "log":
                _domain_check(x <= 0.0, "log of non-positive value", point)
            elif e.fn == "sqrt":
                _domain_check(x < 0.0, "sqrt of negative value", point)
            v = _UFUNCS[e.fn](x)
            check_finite(v, point, e.fn)
        else:
            if e.fn == "log" and x <= 0.0:
                raise EvalDomainError("log of non-positive value", point)
            if e.fn == "sqrt" and x < 0.0:
                raise EvalDomainError("sqrt of negative value", point)
            # math raises on exp overflow and on sin or cos of inf
            try:
                v = _FUNCS[e.fn](x)
            except (OverflowError, ValueError) as exc:
                raise EvalDomainError(f"non-finite {e.fn}", point) from exc
    else:  # pragma: no cover
        raise TypeError(f"unknown node {type(e).__name__}")
    memo[key] = (e, v)
    return v


def diff(e: Expr, var: int) -> Expr:
    """Exact partial derivative with respect to x<var> (1-based)."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == var else ZERO
    if isinstance(e, Add):
        return add(diff(e.a, var), diff(e.b, var))
    if isinstance(e, Sub):
        return sub(diff(e.a, var), diff(e.b, var))
    if isinstance(e, Mul):
        return add(mul(diff(e.a, var), e.b), mul(e.a, diff(e.b, var)))
    if isinstance(e, Div):
        return div(sub(mul(diff(e.a, var), e.b), mul(e.a, diff(e.b, var))),
                   powi(e.b, 2))
    if isinstance(e, Neg):
        return neg(diff(e.a, var))
    if isinstance(e, Pow):
        return mul(mul(Const(e.exponent), powi(e.base, e.exponent - 1)),
                   diff(e.base, var))
    if isinstance(e, Call):
        da = diff(e.arg, var)
        if e.fn == "sin":
            return mul(call("cos", e.arg), da)
        if e.fn == "cos":
            return neg(mul(call("sin", e.arg), da))
        if e.fn == "exp":
            return mul(e, da)
        if e.fn == "log":
            return div(da, e.arg)
        if e.fn == "sqrt":
            return div(da, mul(Const(2.0), e))
    raise TypeError(f"unknown node {type(e).__name__}")


def subst(e: Expr, mapping) -> Expr:
    """Substitute variables: mapping is {index: Expr}."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.index, e)
    if isinstance(e, Add):
        return add(subst(e.a, mapping), subst(e.b, mapping))
    if isinstance(e, Sub):
        return sub(subst(e.a, mapping), subst(e.b, mapping))
    if isinstance(e, Mul):
        return mul(subst(e.a, mapping), subst(e.b, mapping))
    if isinstance(e, Div):
        return div(subst(e.a, mapping), subst(e.b, mapping))
    if isinstance(e, Neg):
        return neg(subst(e.a, mapping))
    if isinstance(e, Pow):
        return powi(subst(e.base, mapping), e.exponent)
    if isinstance(e, Call):
        return call(e.fn, subst(e.arg, mapping))
    raise TypeError(f"unknown node {type(e).__name__}")


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
    return _Parser(src, dim).parse()


def to_str(e: Expr) -> str:
    """Canonical printer; parse(to_str(e)) reproduces the same tree."""
    return _print(e, 0)


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
        self.re = lift(re)
        self.im = lift(im)

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
        o = CExpr.of(other)
        return CExpr(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = CExpr.of(other)
        return CExpr(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return CExpr.of(other) - self

    def __mul__(self, other):
        o = CExpr.of(other)
        return CExpr(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return CExpr(neg(self.re), neg(self.im))

    def conj(self) -> "CExpr":
        return CExpr(self.re, neg(self.im))

    def diff(self, var: int) -> "CExpr":
        return CExpr(diff(self.re, var), diff(self.im, var))

    def evaluate(self, point, memo=None):
        """A complex number at a point of floats; at a batch, a complex
        array (or a complex number where both parts are constant)."""
        if memo is None:
            memo = {}
        if not _is_batch(point):
            z = complex(_eval(self.re, point, memo),
                        _eval(self.im, point, memo))
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise EvalDomainError("non-finite value", point)
            return z
        with np.errstate(all="ignore"):
            re = _eval(self.re, point, memo)
            im = _eval(self.im, point, memo)
        check_finite(re, point)
        check_finite(im, point)
        return re + 1j * im

    def __repr__(self):
        return f"CExpr({to_str(self.re)}, {to_str(self.im)})"


CZERO = CExpr(ZERO, ZERO)
