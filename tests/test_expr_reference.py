"""``vector_fn`` against the tree walker it replaced.

``_walker_fn`` below evaluates the tree node by node on every call, as
``vector_fn`` did before it compiled the tree into closures, with one rule
added since: a power whose exponent is the number 2 or 3 is a product of
its base, ``u*u`` or ``(u*u)*u``.  The two must agree bit for bit, in
value, type and shape, on every node kind, on constant-only trees (the
broadcast branch), on domain errors that become NaN/inf, and for array,
0-d and Python-float inputs.
"""
import warnings

import numpy as np
import pytest

from noisecalc import expr as xp

_UFUNC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
_NUMPY_FN = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
             "sqrt": np.sqrt, "tanh": np.tanh, "abs": np.abs}


def _walk(node, x, t):
    if isinstance(node, xp.Num):
        return node.value
    if isinstance(node, xp.Var):
        return x if node.name == "x" else t
    if isinstance(node, xp.Neg):
        return -_walk(node.arg, x, t)
    if isinstance(node, xp.Bin):
        left = _walk(node.left, x, t)
        if node.op == "^" and isinstance(node.right, xp.Num) and node.right.value in (2, 3):
            square = np.multiply(left, left)
            return square if node.right.value == 2 else np.multiply(square, left)
        return _UFUNC[node.op](left, _walk(node.right, x, t))
    return _NUMPY_FN[node.fn](_walk(node.arg, x, t))


def _walker_fn(e):
    def fn(x, t=0.0):
        with np.errstate(all="ignore"):
            out = _walk(e.root, np.asarray(x, dtype=float), t)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy() \
            if np.shape(out) != np.shape(x) else out
    return fn


CORPUS = [
    # every node kind, both variables
    "x", "t", "-x", "x + t", "x - 2", "3*x", "x/t", "x^3", "x - x^3", "0.5 + 0.1*x^2",
    "sin(x)", "cos(x*t)", "exp(-x^2)", "log(x)", "sqrt(x)", "tanh(x) - t", "abs(x)",
    "-x^2 + t*sin(x)", "x^3^0.5", "2^x", "x^t", "-(x - 1)/(x + 1)",
    "t^3 - x^2",
    # constant in x (the broadcast branch)
    "2", "-3.5", "sin(1) + 2^0.5", "-(4)", "t^2 + 1", "exp(t)",
    # domain errors that become NaN or inf
    "1/x", "0/x", "log(x - 1)", "sqrt(-1 - x^2)", "x^0.5", "(-x)^0.5", "exp(1000*x)",
    "log(0)", "1/0", "(-1)^0.5", "x^-1",
]

INPUTS = [
    np.array([-2.0, -1.0, -0.0, 0.0, 0.25, 1.0, 3.0, np.inf, -np.inf, np.nan]),
    np.linspace(-3.0, 3.0, 257),
    np.random.default_rng(0).standard_normal(256),  # values with rounded powers
    np.array(0.7),
    np.array(-0.0),
    0.7,
    -1.5,
    0.0,
]
TIMES = [0.0, 0.3, np.float64(1.25), -0.5]


def _same(a, b):
    assert type(a) is type(b)
    assert np.shape(a) == np.shape(b)
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()  # values, NaN payloads and sign bits


@pytest.mark.parametrize("src", CORPUS)
def test_compiled_vector_fn_equals_tree_walker_bitwise(src):
    e = xp.parse(src)
    compiled, walker = xp.vector_fn(e), _walker_fn(e)
    for x in INPUTS:
        for t in TIMES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # neither side may warn
                got = compiled(x, t)
                want = walker(x, t)
            _same(got, want)
            # the walker hands back an array input unchanged for "x"; so
            # must the compiled form
            assert (got is x) == (want is x)
    _same(compiled(INPUTS[0]), walker(INPUTS[0]))  # default t


def test_constant_tree_broadcasts_to_a_fresh_array():
    f = xp.vector_fn(xp.parse("2*3"))
    x = np.zeros(4)
    out = f(x, 0.0)
    assert out.shape == (4,) and np.all(out == 6.0) and out.flags.writeable
    out[0] = 1.0
    assert f(x, 0.0)[0] == 6.0
