import math
import sys

import numpy as np
import pytest

from noisecalc import expr as xp
from test_expr_reference import INPUTS as REFERENCE_INPUTS

# derivative-check corpus: 20 expressions, all differentiable, evaluated on
# (0.2, 2.2) where every sub-operation is defined
CORPUS = [
    "x^2 + 3*x - 1",
    "x^3 - x",
    "sin(x)",
    "cos(2*x)",
    "exp(-x)",
    "log(x + 1)",
    "sqrt(2*x)",
    "tanh(3*x)",
    "x*sin(x)",
    "x / (1 + x^2)",
    "exp(x)/x",
    "sin(x)*cos(x)",
    "sqrt(1 + x^2)",
    "log(x)^2",
    "x^2*exp(-x^2)",
    "1/(x + 2)",
    "tanh(x)^3",
    "x^1.5",
    "2^x",
    "(x + t)*(x - t)",
]


def test_basic_arithmetic_examples():
    assert xp.evaluate(xp.parse("x - x^3"), 2.0) == -6.0
    assert xp.evaluate(xp.parse("sqrt(2*x)"), 0.5) == 1.0
    assert xp.evaluate(xp.parse("-x"), 3.0) == -3.0
    assert xp.evaluate(xp.parse("exp(0)"), 0.0) == 1.0


def test_power_right_associative():
    assert xp.evaluate(xp.parse("x ^ 3 ^ 2"), 2.0) == 512.0


def test_unary_minus_binds_looser_than_power():
    assert xp.evaluate(xp.parse("-x^2"), 3.0) == -9.0
    assert xp.evaluate(xp.parse("(-x)^2"), 3.0) == 9.0


def test_precedence_and_division():
    assert xp.evaluate(xp.parse("1 + 2*3"), 0.0) == 7.0
    assert xp.evaluate(xp.parse("8/4/2"), 0.0) == 1.0
    assert xp.evaluate(xp.parse("2 - 3 - 4"), 0.0) == -5.0


def test_numbers_with_exponents():
    assert xp.evaluate(xp.parse("1.5e-3"), 0.0) == 1.5e-3
    assert xp.evaluate(xp.parse("2E2 + .5"), 0.0) == 200.5


def test_syntax_error_positions():
    with pytest.raises(xp.ExprSyntaxError) as err:
        xp.parse("2x")
    assert err.value.pos == 1
    with pytest.raises(xp.ExprSyntaxError) as err:
        xp.parse("x + * 3")
    assert err.value.pos == 4
    with pytest.raises(xp.ExprSyntaxError) as err:
        xp.parse("sin(x")
    assert err.value.pos == 5


def test_unknown_identifier_is_named():
    with pytest.raises(xp.ExprSyntaxError, match="foo"):
        xp.parse("foo(3)")


def test_no_implicit_multiplication():
    with pytest.raises(xp.ExprSyntaxError):
        xp.parse("2 x")


def test_eval_errors_carry_inputs():
    with pytest.raises(xp.ExprEvalError) as err:
        xp.evaluate(xp.parse("1/ (x - 1)"), 1.0)
    assert err.value.x == 1.0
    with pytest.raises(xp.ExprEvalError):
        xp.evaluate(xp.parse("sqrt(x)"), -2.0)
    with pytest.raises(xp.ExprEvalError):
        xp.evaluate(xp.parse("log(x)"), 0.0)
    # exp(-1/x^2) at 0 can fail only at the division: exp(-inf) is 0.
    # x*x at 1e200 overflows in a product, which raises like exp's overflow.
    for src, x in [("exp(x)", 1000.0), ("x^0.5", -1.0), ("0^x", -1.0),
                   ("exp(-1/x^2)", 0.0), ("x*x", 1e200)]:
        with pytest.raises(xp.ExprEvalError) as err:
            xp.evaluate(xp.parse(src), x)
        assert err.value.x == x


def test_eval_purity():
    e = xp.parse("sin(x)*t + x^2")
    assert xp.evaluate(e, 1.2, 3.4) == xp.evaluate(e, 1.2, 3.4)


def test_derivative_examples():
    d = xp.derivative(xp.parse("x^2"))
    for x in (0.0, 1.0, -2.0, 0.5, 10.0):
        assert xp.evaluate(d, x) == pytest.approx(2 * x, abs=1e-12)
    assert xp.evaluate(xp.derivative(xp.parse("sqrt(2*x)")), 0.5) == pytest.approx(1.0)
    dt = xp.derivative(xp.parse("t"))
    assert xp.evaluate(dt, 5.0, 7.0) == 0.0


def test_derivative_of_abs_unsupported():
    with pytest.raises(xp.DerivativeUnsupportedError):
        xp.derivative(xp.parse("abs(x)"))


def test_derivative_corpus_against_central_differences():
    rng = np.random.default_rng(99)
    for src in CORPUS:
        e = xp.parse(src)
        d = xp.derivative(e)
        xs = rng.uniform(0.2, 2.2, 100)
        ts = rng.uniform(0.2, 2.2, 100)
        for x, t in zip(xs, ts):
            h = 1e-6 * max(1.0, abs(x))
            fd = (xp.evaluate(e, x + h, t) - xp.evaluate(e, x - h, t)) / (2 * h)
            sym = xp.evaluate(d, x, t)
            tol = 1e-6 * max(abs(sym), abs(fd), 1e-3)
            assert abs(sym - fd) <= tol, f"{src} at x={x}"


def test_print_parse_idempotent():
    for src in CORPUS + ["-x^2", "-(x + 1)*t", "x^-2", "1 - (2 - 3)"]:
        e = xp.parse(src)
        printed = xp.to_source(e)
        again = xp.parse(printed)
        assert again.root == e.root, f"{src!r} -> {printed!r}"
        assert xp.to_source(again) == printed


def test_vector_fn_matches_scalar_eval():
    e = xp.parse("x^2 - t*sin(x)")
    f = xp.vector_fn(e)
    xs = np.linspace(-2, 2, 11)
    expect = np.array([xp.evaluate(e, float(x), 0.7) for x in xs])
    assert np.allclose(f(xs, 0.7), expect, rtol=1e-14)


def test_vector_fn_domain_issues_become_nonfinite():
    f = xp.vector_fn(xp.parse("sqrt(x)"))
    out = f(np.array([-1.0, 4.0]), 0.0)
    assert math.isnan(out[0]) and out[1] == 2.0


def test_free_variables_limited_to_x_t():
    with pytest.raises(xp.ExprSyntaxError):
        xp.parse("y + 1")


@pytest.mark.parametrize("src, reads", [
    ("t", True),
    ("-t", True),             # under Neg
    ("x + 2*t", True),        # under Bin, on the right
    ("t^2 - x", True),        # under Bin, on the left
    ("exp(-t*x)", True),      # under Call
    ("x", False),
    ("-sin(x)^2 / (1 + x)", False),
    ("3", False),
])
def test_reads_t(src, reads):
    assert xp.reads_t(xp.parse(src)) is reads


# --- whole-number powers compiled as products --------------------------------


def test_cube_within_one_ulp_of_np_power():
    f = xp.vector_fn(xp.parse("x^3"))
    wide = 3.0 * np.random.default_rng(19).standard_normal(1_000_000)
    for x in [np.asarray(v, dtype=float) for v in REFERENCE_INPUTS] + [wide]:
        got, want = f(x), np.power(x, 3.0)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(got[~finite], want[~finite])
        err = np.abs(got[finite] - want[finite])
        assert np.all(err <= np.spacing(np.abs(want[finite])))


def test_square_is_np_power_bitwise():
    x = np.concatenate([np.asarray(REFERENCE_INPUTS[0]),
                        3.0 * np.random.default_rng(20).standard_normal(100_000)])
    assert xp.vector_fn(xp.parse("x^2"))(x).tobytes() == np.power(x, 2.0).tobytes()


def test_small_whole_powers_keep_signed_zero_nan_and_inf():
    x = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -1.0])
    for n in (2, 3):
        got, want = xp.vector_fn(xp.parse(f"x^{n}"))(x), np.power(x, float(n))
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    cube = xp.evaluate(xp.parse("x^3"), -0.0)
    assert cube == 0.0 and math.copysign(1.0, cube) == -1.0


def test_strict_cube_still_raises_on_overflow():
    with pytest.raises(xp.ExprEvalError) as err:
        xp.evaluate(xp.parse("x^3"), 1e103)
    assert err.value.x == 1e103


@pytest.mark.parametrize("src, exponent", [
    ("x^4", lambda x, t: 4.0),
    ("x^2.5", lambda x, t: 2.5),
    ("x^-1", lambda x, t: -1.0),
    ("x^t", lambda x, t: t),
    ("x^3^0.5", lambda x, t: np.power(3.0, 0.5)),
])
def test_other_powers_are_np_power_bitwise(src, exponent):
    x = np.abs(3.0 * np.random.default_rng(21).standard_normal(10_000)) + 0.1
    with np.errstate(all="ignore"):
        want = np.power(x, exponent(x, 0.7))
    assert xp.vector_fn(xp.parse(src))(x, 0.7).tobytes() == want.tobytes()


def test_small_whole_powers_keep_result_type():
    for src in ("x^2", "x^3", "t^3", "2^3"):
        f = xp.vector_fn(xp.parse(src))
        for x in (np.array(0.7), 0.7, np.array([0.7, -1.5])):
            assert type(f(x, 0.3)) is type(np.power(np.asarray(x, dtype=float), 2.0))
    assert type(xp.evaluate(xp.parse("x^3"), 0.7)) is float


def test_derivative_of_a_fourth_power_is_a_lowered_cube():
    d = xp.derivative(xp.parse("x^4"))
    assert xp.to_source(d) == "4 * x^3"
    x = np.linspace(-2.0, 2.0, 9)
    assert np.array_equal(xp.vector_fn(d)(x), np.multiply(4.0, x * x * x))


# --- depth limit ---------------------------------------------------------------

_AT = xp.MAX_DEPTH


@pytest.mark.parametrize("src", [
    "+".join(["x"] * 1200),
    "(" * 250 + "x" + ")" * 250,
    "-".join(["x"] * 400),
    "-" * 5000 + "x",
    "^".join(["x"] * 3000),
], ids=["sum-1200", "parens-250", "difference-400", "minus-5000", "power-3000"])
def test_deep_expressions_are_syntax_errors(src):
    with pytest.raises(xp.ExprSyntaxError, match=f"deeper than {_AT} levels"):
        xp.parse(src)


# each shape at exactly the limit: its tree is MAX_DEPTH high, or its groups
# (parentheses, arguments, unary minus, exponents) MAX_DEPTH deep
_SHAPES = {
    "sum": lambda n: "+".join(["x"] * n),
    "product": lambda n: "*".join(["x"] * n),
    "quotient": lambda n: "/".join(["x"] * n),
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "minus": lambda n: "-" * (n - 1) + "x",
    "power": lambda n: "^".join(["x"] * n),
    "grouped-power": lambda n: "(" * (n - 2) + "x^x" + ")^x" * (n - 2),
    "tanh": lambda n: "tanh(" * (n - 1) + "x" + ")" * (n - 1),
}


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_an_expression_at_the_depth_limit_runs_every_stage(shape):
    build = _SHAPES[shape]
    with pytest.raises(xp.ExprSyntaxError):
        xp.parse(build(_AT + 1))
    e = xp.parse(build(_AT))
    d = xp.derivative(e)
    assert not xp.reads_t(e)
    for tree in (e, d):
        value = xp.evaluate(tree, 0.7)
        assert math.isfinite(value)
        assert xp.vector_fn(tree)(np.array([0.7]))[0] == value


def test_depth_error_points_where_the_limit_is_crossed():
    src = "+".join(["x"] * (_AT + 5))
    with pytest.raises(xp.ExprSyntaxError) as err:
        xp.parse(src)
    assert err.value.pos == src.index("+") + 2 * (_AT - 1)  # the operator of level MAX_DEPTH + 1
    with pytest.raises(xp.ExprSyntaxError) as err:
        xp.parse("(" * (_AT + 5) + "x" + ")" * (_AT + 5))
    assert err.value.pos == _AT  # the group opened at level MAX_DEPTH + 1


def _depth() -> int:
    """Frames on the stack of the caller."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_reads_t_adds_no_frames_per_level():
    """``parse`` builds a ``x + x + ...`` chain in a loop; ``reads_t`` walks
    it with its own stack, so it runs a few frames above its caller."""
    deepest_t = xp.parse(" + ".join(["t"] + ["x"] * 99))  # t is the deepest leaf
    no_t = xp.parse(" + ".join(["x"] * 100))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 20)
    try:
        reads = xp.reads_t(deepest_t), xp.reads_t(no_t)
    finally:
        sys.setrecursionlimit(old)
    assert reads == (True, False)
