import math

import numpy as np
import pytest

from kreingeo.errors import ExpressionError
from kreingeo.expressions import (MAX_DEPTH, BinOp, Call, Num, Var, evaluate,
                                  max_var_index, parse_expression, to_string)

# Hand-checked values, ten per primitive function, frozen to full precision.
_SIN_POINTS = [0.0, 0.5, 1.0, -1.0, math.pi / 6, math.pi / 4, math.pi / 2,
               2.0, -2.5, 3.0]
_EXP_POINTS = [0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 0.1, -3.0, 1.5]
PRIMITIVE_TABLE = (
    [(f"sin(u1)", [x], math.sin(x)) for x in _SIN_POINTS]
    + [(f"cos(u1)", [x], math.cos(x)) for x in _SIN_POINTS]
    + [(f"sinh(u1)", [x], math.sinh(x)) for x in _EXP_POINTS]
    + [(f"cosh(u1)", [x], math.cosh(x)) for x in _EXP_POINTS]
    + [(f"exp(u1)", [x], math.exp(x)) for x in _EXP_POINTS]
    + [
        ("u1 ^ 2", [3.0], 9.0),
        ("u1 ^ 0.5", [4.0], 2.0),
        ("u1 * u2", [3.0, 4.0], 12.0),
        ("u1 / u2", [3.0, 4.0], 0.75),
        ("u1 + u2", [3.0, 4.0], 7.0),
        ("u1 - u2", [3.0, 4.0], -1.0),
        ("pi", [], math.pi),
        ("-u1", [2.5], -2.5),
        ("2 * pi", [], 6.283185307179586),
        ("exp(-u1 ^ 2 / 2)", [1.0], 0.6065306597126334),
    ]
)

# Spot-frozen constants guard the table generator itself.
FROZEN_SPOT_CHECKS = [
    ("sin(u1)", [1.0], 0.8414709848078965),
    ("cos(u1)", [2.0], -0.4161468365471424),
    ("sinh(u1)", [1.0], 1.1752011936438014),
    ("cosh(u1)", [2.0], 3.7621956910836314),
    ("exp(u1)", [-1.0], 0.36787944117144233),
]


@pytest.mark.parametrize("text,point,expected", PRIMITIVE_TABLE)
def test_primitive_values(text, point, expected):
    node = parse_expression(text)
    assert evaluate(node, point) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("text,point,expected", FROZEN_SPOT_CHECKS)
def test_frozen_spot_checks(text, point, expected):
    assert evaluate(parse_expression(text), point) == pytest.approx(expected, abs=1e-15)


def test_precedence_and_associativity():
    assert evaluate(parse_expression("2 + 3 * 4"), []) == 14.0
    assert evaluate(parse_expression("2 * 3 ^ 2"), []) == 18.0
    assert evaluate(parse_expression("2 ^ 3 ^ 2"), []) == 512.0  # right assoc
    assert evaluate(parse_expression("8 / 4 / 2"), []) == 1.0    # left assoc
    assert evaluate(parse_expression("-2 ^ 2"), []) == -4.0      # minus binds looser
    assert evaluate(parse_expression("(-2) ^ 2"), []) == 4.0


def test_vectorized_evaluation():
    node = parse_expression("sin(u1) * cos(u2)")
    u1 = np.linspace(0, 1, 5)
    u2 = np.linspace(1, 2, 5)
    got = evaluate(node, [u1, u2])
    assert np.allclose(got, np.sin(u1) * np.cos(u2))


def test_parse_tree_shape():
    node = parse_expression("cos(u1) + 2")
    assert node == BinOp("+", Call("cos", Var(0)), Num(2.0))


def test_unbalanced_paren_column():
    with pytest.raises(ExpressionError) as err:
        parse_expression("cos(u1")
    assert err.value.column == 7


def test_unknown_identifier_column():
    with pytest.raises(ExpressionError) as err:
        parse_expression("2 + spam(u1)")
    assert err.value.column == 5


def test_illegal_character_column():
    with pytest.raises(ExpressionError) as err:
        parse_expression("u1 + $")
    assert err.value.column == 6


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("u1 u2")


def test_missing_operand():
    with pytest.raises(ExpressionError):
        parse_expression("u1 + ")
    with pytest.raises(ExpressionError):
        parse_expression("* u1")


def _nested_sin(x: float, n: int) -> float:
    for _ in range(n):
        x = math.sin(x)
    return x


# (text nested n levels deep, its value at u1 = 0.5, column at which any
# nesting beyond MAX_DEPTH is reported)
DEPTH_SHAPES = {
    "parentheses": (lambda n: "(" * n + "u1" + ")" * n, lambda n: 0.5, MAX_DEPTH + 2),
    "unary-minus": (lambda n: "-" * n + "u1", lambda n: 0.5 * (-1) ** n, MAX_DEPTH + 2),
    "sum": (lambda n: "+".join(["u1"] * (n + 1)), lambda n: 0.5 * (n + 1), 3 * (MAX_DEPTH + 1)),
    "sin": (lambda n: "sin(" * n + "u1" + ")" * n, lambda n: _nested_sin(0.5, n),
            4 * (MAX_DEPTH + 1) + 1),
}


@pytest.mark.parametrize("shape", DEPTH_SHAPES)
def test_nesting_beyond_max_depth_is_an_expression_error(shape):
    text, value, column = DEPTH_SHAPES[shape]
    for n in (MAX_DEPTH + 1, 5000):
        with pytest.raises(ExpressionError) as err:
            parse_expression(text(n))
        assert err.value.column == column
    assert evaluate(parse_expression(text(MAX_DEPTH)), [0.5]) == pytest.approx(
        value(MAX_DEPTH), rel=1e-12)


def test_max_var_index():
    assert max_var_index(parse_expression("sin(u3) + u1")) == 3
    assert max_var_index(parse_expression("1 + 2")) == 0


def test_variable_beyond_point_length():
    with pytest.raises(ExpressionError):
        evaluate(parse_expression("u2"), [1.0])


@pytest.mark.parametrize("text", [
    "sin(u1) * cos(u2)",
    "u1 ^ 2 + 2 * u1 * u2 - u2 ^ 2",
    "-(u1 + u2) * exp(-u1)",
    "cosh(u1) * cos(u2) / (1 + u1 ^ 2)",
    "2 ^ 3 ^ u1",
    "-u1 ^ 2",
    "1 - -u1",
])
def test_round_trip_identical_tree(text):
    node = parse_expression(text)
    rendered = to_string(node)
    assert parse_expression(rendered) == node


def test_round_trip_of_a_minus_chain_at_the_depth_limit():
    # Each unary minus renders as one more '-', not as '-(...)', so a chain
    # the parser accepts renders to text it accepts.
    node = parse_expression("-" * MAX_DEPTH + "u1")
    rendered = to_string(node)
    assert rendered == "-" * MAX_DEPTH + "u1"
    assert parse_expression(rendered) == node
    assert to_string(parse_expression("--(u1 + u2)")) == "--(u1 + u2)"


def test_round_trip_builtin_expression_sets():
    from kreingeo.catalog import BUILTIN_EXPRESSIONS
    for exprs in BUILTIN_EXPRESSIONS.values():
        for text in exprs:
            node = parse_expression(text)
            assert parse_expression(to_string(node)) == node


def test_double_star_alias():
    assert evaluate(parse_expression("u1 ** 2"), [5.0]) == 25.0
