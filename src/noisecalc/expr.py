"""A small arithmetic expression language for config-defined coefficients.

Grammar, precedence low to high::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := primary ('^' factor)?          # right-associative
    primary := number | 'x' | 't' | ident '(' expr ')' | '(' expr ')'

with ``ident`` one of sin, cos, exp, log, sqrt, tanh, abs, and numbers
decimal with an optional exponent.  There is no implicit multiplication:
``2x`` is a syntax error.  Unary minus binds looser than ``^``, so
``-x^2`` reads as ``-(x^2)``; exponentiation is right-associative, so
``x^3^2 == x^9``.

The tree is walked in one place, :func:`_compile`, into numpy closures.
:func:`vector_fn` runs them on arrays, where a domain violation becomes NaN
or inf; :func:`evaluate` runs them on one point and raises on any
floating-point fault but underflow: division by zero, a log or sqrt outside
its domain, an invalid power, and an overflow anywhere, ``+ - *`` included.

Each node calls the numpy ufunc of its operator, with one exception: a
power whose exponent is the number 2 or 3 is compiled as products of its
base ``u``, evaluated once: ``u*u`` and ``(u*u)*u``.  ``u*u`` is
``np.power(u, 2)`` bit for bit; the cube is within 1 ulp of ``np.power``
(a product of n factors is within n - 1 roundings of the exact power:
Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002,
sec. 3.1).  Every other exponent, ``x^4``, ``x^2.5``, ``x^-1``, ``x^t`` or
``x^3^0.5``, goes to ``np.power``.

:func:`parse` rejects an expression that nests deeper than
:data:`MAX_DEPTH` levels, counting both the tree (each operator of a
chain ``x + x + ...`` is one level) and the parser's open groups
(parentheses, function arguments, unary minus and exponents), with an
:class:`ExprSyntaxError` at the position where the limit is crossed.  Every
later stage but :func:`reads_t` walks the tree recursively, and the
derivative of a tree at the limit is a few times deeper.  At the limit no
stage needs more than about 400 frames above its caller (the parser spends
three a group), well inside Python's default recursion limit of 1000.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Expr",
    "ExprSyntaxError",
    "ExprEvalError",
    "DerivativeUnsupportedError",
    "parse",
    "reads_t",
    "evaluate",
    "derivative",
    "to_source",
    "vector_fn",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh", "abs")
VARIABLES = ("x", "t")
# Deepest expression parse accepts (see the module docstring).
MAX_DEPTH = 100

_NUMPY_FN = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "tanh": np.tanh, "abs": np.abs,
}


class ExprSyntaxError(ValueError):
    """Parse failure; carries the source position and what was expected."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ExprEvalError(ArithmeticError):
    """Evaluation failure; carries the source span and the (x, t) inputs."""

    def __init__(self, message: str, pos: int, x: float, t: float):
        super().__init__(f"{message} (at position {pos}, x={x}, t={t})")
        self.pos = pos
        self.x = x
        self.t = t


class DerivativeUnsupportedError(ValueError):
    pass


@dataclass(frozen=True)
class Node:
    pos: int = field(compare=False)


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class Bin(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Call(Node):
    fn: str
    arg: Node


@dataclass(frozen=True)
class Expr:
    """A parsed expression; free variables are a subset of {x, t}."""

    root: Node


# --- tokenizer -------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            tokens.append(("number", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    """Recursive descent; each rule returns its node and the node's height
    (a leaf is 1), and ``nest`` counts the groups open around the token.
    A group costs three frames (``expr``, ``factor``, ``primary``): ``expr``
    parses both binary levels in one loop, and ``factor`` both ``-`` and
    ``^``."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.nest = 0

    def node(self, node: Node, *heights: int) -> tuple[Node, int]:
        """``node`` with its height, one above its children's ``heights``."""
        height = 1 + max(heights, default=0)
        if height > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", node.pos)
        return node, height

    def open_group(self, pos: int) -> None:
        """Count one more group, opened at ``pos``; its rule's caller closes
        it with ``nest -= 1``."""
        self.nest += 1
        if self.nest > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", pos)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}", pos)
        self.advance()

    def parse(self) -> Node:
        node, _ = self.expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self) -> tuple[Node, int]:
        """``term (('+' | '-') term)*`` with ``term := factor (('*' | '/')
        factor)*``: ``node`` is the term being built, and ``total`` the sum
        before it with the operator that joins them."""
        total = None
        node, height = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right, h = self.factor()
                node, height = self.node(Bin(pos, text, node, right), height, h)
                continue
            if total is not None:  # the term is complete
                left, h, op_pos, op = total
                node, height = self.node(Bin(op_pos, op, left, node), h, height)
            if not (kind == "op" and text in "+-"):
                return node, height
            self.advance()
            total = node, height, pos, text
            node, height = self.factor()

    def factor(self) -> tuple[Node, int]:
        """``'-' factor | primary ('^' factor)?``, right-associative."""
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            self.open_group(pos)
            arg, h = self.factor()
            self.nest -= 1
            return self.node(Neg(pos, arg), h)
        base, height = self.primary()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            self.open_group(pos)
            exponent, h = self.factor()
            self.nest -= 1
            return self.node(Bin(pos, "^", base, exponent), height, h)
        return base, height

    def primary(self) -> tuple[Node, int]:
        kind, text, pos = self.advance()
        if kind == "number":
            return self.node(Num(pos, float(text)))
        if kind == "ident":
            if text in VARIABLES:
                return self.node(Var(pos, text))
            if text in FUNCTIONS:
                self.expect_op("(")
                self.open_group(pos)
                arg, h = self.expr()
                self.nest -= 1
                self.expect_op(")")
                return self.node(Call(pos, text, arg), h)
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            self.open_group(pos)
            node = self.expr()
            self.nest -= 1
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a number, variable, function, or '(', found {text or 'end of input'!r}",
            pos,
        )


def parse(source: str) -> Expr:
    """Parse UTF-8 text into an expression tree no deeper than
    :data:`MAX_DEPTH` levels."""
    return Expr(_Parser(source).parse())


def reads_t(e: Expr) -> bool:
    """Whether the expression reads the time variable ``t``.  The walk keeps
    an explicit stack, so it adds no Python frames however deep the tree."""
    stack = [e.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Var) and node.name == "t":
            return True
        stack.extend(c for c in vars(node).values() if isinstance(c, Node))
    return False


# --- evaluation ------------------------------------------------------------


_UFUNC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def _compile(node: Node) -> Callable:
    """The tree as nested ``(x, t)`` closures, one per node."""
    if isinstance(node, Num):
        value = node.value
        return lambda x, t: value
    if isinstance(node, Var):
        return (lambda x, t: x) if node.name == "x" else (lambda x, t: t)
    if isinstance(node, Neg):
        arg = _compile(node.arg)
        return lambda x, t: -arg(x, t)
    if isinstance(node, Bin):
        a = _compile(node.left)
        # u^2 and u^3 as products of u, evaluated once; np.multiply is a
        # ufunc, as the power it replaces, so the result type is the same
        if node.op == "^" and _is_num(node.right, 2.0):
            return lambda x, t: np.multiply(u := a(x, t), u)
        if node.op == "^" and _is_num(node.right, 3.0):
            return lambda x, t: np.multiply(np.multiply(u := a(x, t), u), u)
        op, b = _UFUNC[node.op], _compile(node.right)
        return lambda x, t: op(a(x, t), b(x, t))
    fn, arg = _NUMPY_FN[node.fn], _compile(node.arg)
    return lambda x, t: fn(arg(x, t))


def vector_fn(e: Expr) -> Callable:
    """A numpy-vectorized ``(x, t) -> array`` view of the expression.

    The tree is compiled into closures once, here, and not walked again per
    call; each node calls the numpy ufunc of its operator on the same
    operands, so values are those of a node-by-node evaluation bit for bit,
    except that ``u^2`` and ``u^3`` with a constant exponent are products
    of ``u`` (see the module docstring): ``u^2`` bit for bit, ``u^3`` within
    1 ulp of ``np.power``.
    Domain violations propagate as NaN/inf instead of raising; callers that
    need strict errors should use :func:`evaluate`.
    """
    root = _compile(e.root)

    @np.errstate(all="ignore")
    def fn(x, t=0.0):
        x = np.asarray(x, dtype=float)
        out = root(x, t)
        if np.shape(out) != x.shape:
            return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()
        return out
    return fn


def evaluate(e: Expr, x: float, t: float = 0.0) -> float:
    """Strict scalar evaluation: the closures of :func:`vector_fn` on one
    float64 point, where every floating-point fault but underflow raises
    :class:`ExprEvalError` with the (x, t) inputs and the root's position."""
    x, t = float(x), float(t)
    try:
        with np.errstate(all="raise", under="ignore"):
            return float(_compile(e.root)(np.float64(x), np.float64(t)))
    except FloatingPointError as exc:
        raise ExprEvalError(str(exc), e.root.pos, x, t) from None


# --- printing --------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _print_node(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        v = node.value
        text = repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
        return text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _print_node(node.arg, _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(node, Call):
        return f"{node.fn}({_print_node(node.arg, 0)})"
    prec = _PREC[node.op]
    if node.op == "^":
        # left operand must be primary-level; right side admits unary minus
        left = _print_node(node.left, _PREC["atom"])
        right = _print_node(node.right, _PREC["neg"])
        text = f"{left}^{right}"
    else:
        left = _print_node(node.left, prec)
        right = _print_node(node.right, prec + 1)
        text = f"{left} {node.op} {right}"
    return f"({text})" if parent_prec > prec else text


def to_source(e: Expr) -> str:
    """Canonical printed form; reparsing reproduces the same tree."""
    return _print_node(e.root, 0)


# --- symbolic derivative ---------------------------------------------------


def _num(v: float) -> Node:
    return Num(0, float(v))


def _is_num(node: Node, value: float | None = None) -> bool:
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(a: Node, b: Node) -> Node:
    if _is_num(a) and _is_num(b):
        return _num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Bin(0, "+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_num(a) and _is_num(b):
        return _num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return Neg(0, b)
    return Bin(0, "-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_num(a) and _is_num(b):
        return _num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Bin(0, "*", a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_num(a, 0.0):
        return _num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0:
        return _num(a.value / b.value)
    return Bin(0, "/", a, b)


def _pow(a: Node, b: Node) -> Node:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return _num(1.0)
    if _is_num(a) and _is_num(b):
        return _num(math.pow(a.value, b.value))
    return Bin(0, "^", a, b)


def _diff(node: Node) -> Node:
    if isinstance(node, Num):
        return _num(0.0)
    if isinstance(node, Var):
        return _num(1.0 if node.name == "x" else 0.0)
    if isinstance(node, Neg):
        return Neg(node.pos, _diff(node.arg))
    if isinstance(node, Bin):
        u, v = node.left, node.right
        du, dv = _diff(u), _diff(v)
        if node.op == "+":
            return _add(du, dv)
        if node.op == "-":
            return _sub(du, dv)
        if node.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if node.op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, _num(2.0)))
        # power: constant exponent and constant base get the short forms
        if _is_num(v):
            return _mul(_mul(v, _pow(u, _num(v.value - 1.0))), du)
        if _is_num(u):
            return _mul(_mul(node, _num(math.log(u.value))), dv)
        # u^v = exp(v log u):  d = u^v (dv log u + v du / u)
        return _mul(node, _add(_mul(dv, Call(0, "log", u)), _div(_mul(v, du), u)))
    if isinstance(node, Call):
        u = node.arg
        du = _diff(u)
        if node.fn == "abs":
            raise DerivativeUnsupportedError(
                "abs is not differentiable; fall back to finite differences"
            )
        if node.fn == "sin":
            outer = Call(0, "cos", u)
        elif node.fn == "cos":
            outer = Neg(0, Call(0, "sin", u))
        elif node.fn == "exp":
            outer = Call(0, "exp", u)
        elif node.fn == "log":
            outer = _div(_num(1.0), u)
        elif node.fn == "sqrt":
            outer = _div(_num(1.0), _mul(_num(2.0), Call(0, "sqrt", u)))
        elif node.fn == "tanh":
            outer = _sub(_num(1.0), _pow(Call(0, "tanh", u), _num(2.0)))
        else:
            raise DerivativeUnsupportedError(f"no derivative rule for {node.fn}")
        return _mul(outer, du)
    raise TypeError(f"unknown node {node!r}")


def derivative(e: Expr) -> Expr:
    """Symbolic derivative in ``x`` with constant folding, nothing fancier.

    ``abs`` in the tree raises :class:`DerivativeUnsupportedError`; callers
    should fall back to finite differences.
    """
    return Expr(_diff(e.root))
