"""Scalar expressions in chart coordinates: parsing, exact differentiation,
evaluation, compilation to fast numeric callables, and interval enclosure
over boxes (``interval``), which bounds what the compiled callables compute.

The grammar is infix with the usual precedence, ``^`` right-associative,
and function-call syntax for the unary functions ``exp``, ``log``, ``sin``,
``cos``, ``sqrt``, ``neg``.  Recognized variables are ``x y z s u v``,
and the one named parameter is ``pi``.  See docs/grammar.md for the EBNF.

Expressions are immutable trees.  The only simplification performed by the
parser is constant folding of literal-only subtrees, to the value that
``evaluate`` gives; derivatives are returned unsimplified.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from . import AllabError

VARIABLES = ("x", "y", "z", "s", "u", "v")
FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "neg")
PARAMETERS = ("pi",)

class ExprError(AllabError):
    """Base class for expression-layer errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int, expected: Iterable[str] = ()):
        self.offset = offset
        self.expected = sorted(set(expected))
        detail = f"{message} at byte {offset}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, offset: int, allowed: Iterable[str]):
        self.name = name
        self.allowed = sorted(allowed)
        ParseError.__init__(
            self, f"unknown identifier {name!r}", offset, self.allowed
        )


class UnboundVariableError(ExprError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} is not bound")


class DomainError(ExprError):
    """A numeric domain violation (log of non-positive, division by zero, ...)."""

    def __init__(self, message: str, subexpr: "Expr"):
        self.subexpr = subexpr
        super().__init__(f"{message} in sub-expression {to_text(subexpr)!r}")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Func:
    name: str
    arg: "Expr"


Expr = Const | Var | BinOp | Func

ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# constructors

def _fold_bin(op: str, a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(BinOp(op, a, b), a.value, b.value)
    return BinOp(op, a, b)


def _fold_func(name: str, a: Expr) -> Expr:
    if isinstance(a, Const):
        return _fold(Func(name, a), a.value)
    return Func(name, a)


def _fold(node: Expr, *values: float) -> Expr:
    """The constant that ``evaluate`` gives node, whose arguments are
    constants of the given values; node itself where ``evaluate`` refuses it."""
    try:
        return Const(_apply(node, values))
    except DomainError:
        return node


def add(a: Expr, b: Expr) -> Expr:
    return _fold_bin("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return _fold_bin("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    return _fold_bin("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    return _fold_bin("/", a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    return _fold_bin("^", a, b)


def func(name: str, a: Expr) -> Expr:
    return _fold_func(name, a)


def neg(a: Expr) -> Expr:
    return _fold_func("neg", a)


# Identity-eliminating builders for internal form algebra.  The parser never
# uses these; they keep machine-generated coefficient trees small.

def zadd(a: Expr, b: Expr) -> Expr:
    if a == ZERO:
        return b
    if b == ZERO:
        return a
    return add(a, b)


def zsub(a: Expr, b: Expr) -> Expr:
    if b == ZERO:
        return a
    if a == ZERO:
        return neg(b)
    return sub(a, b)


def zmul(a: Expr, b: Expr) -> Expr:
    if a == ZERO or b == ZERO:
        return ZERO
    if a == ONE:
        return b
    if b == ONE:
        return a
    return mul(a, b)


def zneg(a: Expr) -> Expr:
    if a == ZERO:
        return ZERO
    if isinstance(a, Func) and a.name == "neg":
        return a.arg
    return neg(a)


def const(v: float) -> Expr:
    return Const(float(v))


def var(name: str) -> Expr:
    return Var(name)


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", off)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"got {val or 'end of input'!r}", off, [op])
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", off, ["end of input"])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                e = _fold_bin(val, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                e = _fold_bin(val, e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return _fold_func("neg", self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            # exponent may carry a unary minus; a negated base needs parens
            return _fold_bin("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            return Const(float(val))
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    raise UnknownIdentifierError(val, off, FUNCTIONS)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return _fold_func(val, arg)
            if val in VARIABLES or val in PARAMETERS:
                return Var(val)
            raise UnknownIdentifierError(val, off, VARIABLES + PARAMETERS + FUNCTIONS)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(
            f"got {val or 'end of input'!r}",
            off,
            ["number", "identifier", "(", "-"],
        )


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an expression tree over the coordinate variables
    and ``pi``.  Input nested too deeply for the recursive descent is a
    ParseError too.
    """
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("nested too deeply", parser.peek()[2]) from None


# ---------------------------------------------------------------------------
# printing

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 15
_PREC_POW = 30
_PREC_ATOM = 100


def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        return _PREC_NEG if e.value < 0 else _PREC_ATOM
    if isinstance(e, Var):
        return _PREC_ATOM
    if isinstance(e, Func):
        return _PREC_NEG if e.name == "neg" else _PREC_ATOM
    return {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL,
            "^": _PREC_POW}[e.op]


def to_text(e: Expr) -> str:
    """Render an expression; ``parse_expr(to_text(e))`` reproduces ``e``
    for any tree built by the parser or the folding constructors."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Func):
        if e.name == "neg":
            inner = to_text(e.arg)
            # operand of unary minus must itself parse as a unary
            if _prec(e.arg) <= _PREC_MUL:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.name}({to_text(e.arg)})"
    left, right = to_text(e.left), to_text(e.right)
    if e.op in "+-":
        if _prec(e.left) < _PREC_ADD:
            left = f"({left})"
        # the parser is left-associative: the right operand must bind tighter
        if _prec(e.right) <= _PREC_ADD:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    if e.op in "*/":
        if _prec(e.left) < _PREC_MUL:
            left = f"({left})"
        if _prec(e.right) <= _PREC_MUL:
            right = f"({right})"
        return f"{left}{e.op}{right}"
    # '^': base must be an atom, exponent a unary
    if _prec(e.left) <= _PREC_POW:
        left = f"({left})"
    if _prec(e.right) < _PREC_NEG:
        right = f"({right})"
    return f"{left}^{right}"


# ---------------------------------------------------------------------------
# differentiation

def diff(e: Expr, w: str) -> Expr:
    """Exact symbolic derivative of ``e`` with respect to variable ``w``."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == w else ZERO
    if isinstance(e, BinOp):
        a, b = e.left, e.right
        da, db = diff(a, w), diff(b, w)
        if e.op == "+":
            return zadd(da, db)
        if e.op == "-":
            return zsub(da, db)
        if e.op == "*":
            return zadd(zmul(da, b), zmul(a, db))
        if e.op == "/":
            return div(zsub(zmul(da, b), zmul(a, db)), mul(b, b))
        # power rule; general case via a^b = exp(b log a)
        if db == ZERO:
            if isinstance(b, Const):
                return zmul(
                    zmul(b, pow_(a, Const(b.value - 1.0))), da
                )
            return zmul(zmul(b, pow_(a, sub(b, ONE))), da)
        return zmul(
            e,
            zadd(zmul(db, func("log", a)), zmul(b, div(da, a))),
        )
    d = diff(e.arg, w)
    if d == ZERO:
        return ZERO
    if e.name == "exp":
        return zmul(e, d)
    if e.name == "log":
        return div(d, e.arg)
    if e.name == "sin":
        return zmul(func("cos", e.arg), d)
    if e.name == "cos":
        return zneg(zmul(func("sin", e.arg), d))
    if e.name == "sqrt":
        return div(d, mul(Const(2.0), e))
    if e.name == "neg":
        return zneg(d)
    if e.name == "pos":
        return zmul(func("step", e.arg), d)
    if e.name == "step":
        return ZERO
    raise ExprError(f"no derivative rule for function {e.name!r}")


# ---------------------------------------------------------------------------
# evaluation

_BIN_EVAL: dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}

_FUNC_EVAL: dict[str, Callable[[float], float]] = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "neg": operator.neg,
    "pos": lambda t: t if t > 0.0 else 0.0,
    "step": lambda t: 1.0 if t > 0.0 else 0.0,
}


def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate at a point.  ``pi`` defaults to math.pi unless rebound.

    The one definition of scalar semantics: the parser folds a constant
    subtree to exactly this value.  Raises UnboundVariableError for missing
    bindings and DomainError for numeric domain violations (division by
    zero, log or sqrt out of range, overflow, a complex power) instead of
    returning NaN.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.name in env:
            return float(env[e.name])
        if e.name == "pi":
            return math.pi
        raise UnboundVariableError(e.name)
    if isinstance(e, BinOp):
        return _apply(e, (evaluate(e.left, env), evaluate(e.right, env)))
    return _apply(e, (evaluate(e.arg, env),))


def _apply(e: BinOp | Func, args: tuple[float, ...]) -> float:
    """The operator or function at the root of e applied to the values of
    its arguments, for ``evaluate`` and the constant folding alike."""
    fn = _BIN_EVAL[e.op] if isinstance(e, BinOp) else _FUNC_EVAL[e.name]
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        raise DomainError("overflow" if isinstance(exc, OverflowError) else str(exc), e) from exc
    if isinstance(value, complex):
        raise DomainError("complex result", e)
    return float(value)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, re-folding constants."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, BinOp):
        return _fold_bin(
            e.op, substitute(e.left, mapping), substitute(e.right, mapping)
        )
    return _fold_func(e.name, substitute(e.arg, mapping))


# ---------------------------------------------------------------------------
# compilation

def _codegen(e: Expr) -> str:
    if isinstance(e, Const):
        text = repr(e.value)  # 'inf' and 'nan' are bound in _NAMESPACE
        return f"({text})" if text.startswith("-") else text
    if isinstance(e, Var):
        return f"_v_{e.name}" if e.name != "pi" else repr(math.pi)
    if isinstance(e, BinOp):
        a, b = _codegen(e.left), _codegen(e.right)
        if e.op in _UFUNCS and isinstance(e.left, Const) and isinstance(e.right, Const):
            # left unfolded because evaluate refused it, so Python float
            # arithmetic would raise: numpy gives inf or NaN instead
            return f"_np.{_UFUNCS[e.op]}({a}, {b})"
        op = "**" if e.op == "^" else e.op
        return f"({a}{op}{b})"
    if e.name == "neg":
        return f"(-{_codegen(e.arg)})"
    return f"_f_{e.name}({_codegen(e.arg)})"


_UFUNCS = {"/": "divide", "^": "power"}  # the operators evaluate can refuse

_NAMESPACE = {
    "_np": np,
    "inf": math.inf,
    "nan": math.nan,
    "_f_exp": np.exp,
    "_f_log": np.log,
    "_f_sin": np.sin,
    "_f_cos": np.cos,
    "_f_sqrt": np.sqrt,
    "_f_pos": lambda t: np.maximum(t, 0.0),
    "_f_step": lambda t: (np.asarray(t) > 0.0).astype(float),
}


@functools.lru_cache(maxsize=4096)
def compile_kernel(e: Expr, names: tuple[str, ...]) -> Callable:
    """Compile to the raw numpy expression of the given variables.

    The kernel evaluates the tree and nothing more: it returns a Python
    float for a constant tree, an array of the broadcast shape of only the
    variables the tree uses, or one of its own arguments for a bare
    variable.  So only a caller that broadcasts the result into its own
    arithmetic, and never writes to it, may use it; everyone else calls
    ``compile_field``.  Equal trees share one kernel.  A tree that uses a
    variable outside ``names`` (``pi`` is a constant) is an
    UnboundVariableError.
    """
    src = "lambda " + ", ".join(f"_v_{n}" for n in names) + ": " + _codegen(e)
    try:
        fn = eval(src, dict(_NAMESPACE))  # noqa: S307 - generated from our own AST
    except (SyntaxError, RecursionError, MemoryError):
        raise ExprError("expression is nested too deeply to compile") from None
    # the lambda binds names; any other variable it reads is a global name
    for name in fn.__code__.co_names:
        if name.startswith("_v_"):
            raise UnboundVariableError(name[3:])
    return fn


@functools.lru_cache(maxsize=4096)
def compile_field(e: Expr, names: tuple[str, ...]) -> Callable:
    """Compile to a numpy-vectorized callable of the given variables.

    The callable returns a fresh float array of the broadcast shape of its
    arguments, also for trees that do not use every variable.  Equal trees
    share one callable, which wraps their ``compile_kernel``.  Domain
    violations give NaN or inf, as in numpy.
    """
    fn = compile_kernel(e, names)

    def field(*args):
        args = [np.asarray(a, dtype=float) for a in args]
        out = np.empty(np.broadcast(*args).shape)
        out[...] = fn(*args)
        return out

    return field


# ---------------------------------------------------------------------------
# interval enclosure

_WIDEN = 2.0**-44  # outward move of an endpoint, relative to its magnitude


def _outward(lo, hi):
    """[lo, hi] widened by _WIDEN, or (-inf, inf) where an end is not finite."""
    lo, hi = lo - np.abs(lo) * _WIDEN, hi + np.abs(hi) * _WIDEN
    ok = np.isfinite(lo) & np.isfinite(hi)
    return np.where(ok, lo, -math.inf), np.where(ok, hi, math.inf)


def _corners(fn, a, b):
    """min and max of fn over the corners of the rectangle a x b."""
    c = [fn(x, y) for x in a for y in b]
    return functools.reduce(np.minimum, c), functools.reduce(np.maximum, c)


def _trig(fn, shift, lo, hi):
    """fn = sin or cos over [lo, hi]: the values at its ends, and 1 or -1 where
    the interval may hold one of fn's extrema (k + shift) pi, a maximum for
    even k, a minimum for odd k.  The test errs toward holding one."""
    k0, k1 = lo / math.pi - shift, hi / math.pi - shift
    first = np.ceil(k0 - 1e-9 * (1.0 + np.abs(k0)))  # the integers in [k0, k1], widened
    last = np.floor(k1 + 1e-9 * (1.0 + np.abs(k1)))
    one = last == first
    top = (last > first) | (one & (first % 2 == 0))
    bottom = (last > first) | (one & (first % 2 == 1))
    a, b = fn(lo), fn(hi)
    return (np.minimum(np.minimum(a, b), np.where(bottom, -1.0, math.inf)),
            np.maximum(np.maximum(a, b), np.where(top, 1.0, -math.inf)))


@np.errstate(all="ignore")  # a domain error gives NaN or inf, unbounded by _outward
def interval(e: Expr, box: Mapping[str, tuple]) -> tuple:
    """An enclosure (lo, hi) of e over boxes: ``box`` maps each variable e
    uses to a pair of arrays (lo, hi) of its bounds, which broadcast, and the
    result has the broadcast shape of only the variables e uses (a constant
    tree gives its own value twice).  ``pi`` is math.pi unless rebound.

    The enclosure holds the value ``compile_kernel`` computes at every point
    of each box, not only the exact value.  Each node's ends are computed in
    floats from its arguments' ends (the corners of + - * / ^, the monotone
    pieces of exp log sqrt sin cos) and each moves outward by 2^-44 of its
    magnitude: at least 255 units in the last place, above the half unit by
    which + - * / round and the few units by which numpy's float64 exp, log,
    sin, cos, sqrt and power err.  neg and step are exact and are not
    widened.  Where a node cannot be bounded its enclosure is (-inf, inf),
    and so is every node above it but a step (which is 0 or 1 whatever it
    reads): division by an interval that holds 0, log of one that reaches 0,
    sqrt of one that reaches below 0, a power of a base that is not positive
    (unless the exponent is a constant integer), overflow, NaN.  So a finite
    enclosure also proves that every value the kernel computes on the box is
    finite.  The ends of a node in the subnormal range round by an absolute
    amount; the widening covers the computed values there, not the exact
    ones.
    """
    if isinstance(e, Const):
        return e.value, e.value
    if isinstance(e, Var):
        if e.name in box:
            lo, hi = box[e.name]
            return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if e.name == "pi":
            return math.pi, math.pi
        raise UnboundVariableError(e.name)
    if isinstance(e, Func):
        a, b = interval(e.arg, box)
        if e.name == "neg":
            return -b, -a
        if e.name == "pos":
            return _outward(np.maximum(a, 0.0), np.maximum(b, 0.0))
        if e.name == "step":
            return np.where(a > 0.0, 1.0, 0.0), np.where(b > 0.0, 1.0, 0.0)
        fn = _NAMESPACE["_f_" + e.name]
        if e.name in ("sin", "cos"):
            return _outward(*_trig(fn, 0.5 if e.name == "sin" else 0.0, a, b))
        return _outward(fn(a), fn(b))  # exp, log and sqrt increase
    a, b = interval(e.left, box), interval(e.right, box)
    if e.op == "+":
        return _outward(a[0] + b[0], a[1] + b[1])
    if e.op == "-":
        return _outward(a[0] - b[1], a[1] - b[0])
    if e.op == "*":
        return _outward(*_corners(np.multiply, a, b))
    if e.op == "/":
        lo, hi = _corners(np.divide, a, b)
        through = (b[0] <= 0.0) & (b[1] >= 0.0)
        return _outward(np.where(through, math.nan, lo), hi)
    lo, hi = _corners(np.power, a, b)
    if not (isinstance(e.right, Const) and e.right.value.is_integer()):
        # a^b = exp(b log a), whose extremes are at corners for a > 0
        return _outward(np.where(a[0] > 0.0, lo, math.nan), hi)
    # x^n: monotone on each side of 0, so at a corner, unless 0 is inside
    n, through = e.right.value, (a[0] <= 0.0) & (a[1] >= 0.0)
    if n < 0:
        lo = np.where(through, math.nan, lo)
    elif n % 2 == 0:
        lo = np.where(through, 0.0, lo)
    return _outward(lo, hi)
