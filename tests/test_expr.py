"""Expression grammar: parsing, positions, whitelist, domain errors."""

import math

import pytest

from escm import EnergyDomainError, ExprSyntaxError, UnknownSymbolError, parse_model
from escm.errors import EXCERPT_WIDTH
from escm.codegen import expr_value
from escm.expr import compile_expr, parse_expr
from tests.conftest import chain2_dict


def eval_const(source: str) -> float:
    compiled = compile_expr(parse_expr(source), lambda sym: ("const", 1.0))
    return expr_value(compiled, [])


def test_precedence_and_unary():
    assert eval_const("1 + 2*3") == 7.0
    assert eval_const("-2*3 + 1") == -5.0
    assert eval_const("(1 + 2)*3") == 9.0
    assert eval_const("2 - 3 - 4") == -5.0
    assert eval_const("12/4/3") == 1.0


def test_functions():
    assert eval_const("sq(3)") == 9.0
    assert eval_const("pow(2, 3)") == 8.0
    assert eval_const("pow(2, -1)") == 0.5
    assert math.isclose(eval_const("exp(1)"), math.e)
    assert math.isclose(eval_const("tanh(0.5)"), math.tanh(0.5))
    assert eval_const("log(1)") == 0.0


def test_scientific_notation():
    assert eval_const("1e-3 + 2.5E2") == 0.001 + 250.0


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1 + * 2")
    assert err.value.position == 4


def test_syntax_error_quotes_a_bounded_excerpt():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1 + * 2")
    assert str(err.value) == "unexpected token '*' at position 4: '1 + * 2'"
    source = "z.Z1 + " * 100 + "* 2"
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(source)
    assert err.value.source == source and err.value.position == 700
    assert str(err.value) == ("unexpected token '*' at position 700: ..."
                              + repr(source[-EXCERPT_WIDTH:]))
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("* " + source)
    assert str(err.value).endswith(repr(("* " + source)[:EXCERPT_WIDTH]) + "...")


def test_unknown_function_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("abs(z.Z1)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("relu(z.Z1)")


def test_pow_requires_integer_literal():
    with pytest.raises(ExprSyntaxError):
        parse_expr("pow(z.Z1, 0.5)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("pow(z.Z1, z.Z2)")
    parse_expr("pow(z.Z1, -2)")  # negative integers are fine


def test_trailing_garbage_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("1 + 2 )")
    with pytest.raises(ExprSyntaxError):
        parse_expr("z.Z1 z.Z2")


def test_log_domain_error_names_fragment():
    spec = chain2_dict()
    spec["terms"][0]["expr"] = "log(z.Z1)"
    model = parse_model(spec)
    from escm import Point, evaluate

    with pytest.raises(EnergyDomainError) as err:
        evaluate(model, Point.for_model(model, z=[-1.0, 0.0]))
    assert "Z1" in str(err.value)
    assert "log" in str(err.value)


def test_division_by_zero_is_domain_error():
    spec = chain2_dict()
    spec["terms"][0]["expr"] = "z.Z1/u.U1"
    model = parse_model(spec)
    from escm import Point, evaluate

    with pytest.raises(EnergyDomainError):
        evaluate(model, Point.for_model(model, z=[1.0, 0.0], u=[0.0, 0.0]))


def test_unknown_symbol_has_name():
    with pytest.raises(UnknownSymbolError) as err:
        compile_expr(parse_expr("z.Z9 + 1"), _chain2_resolver())
    assert "z.Z9" in str(err.value)


def _chain2_resolver():
    model = parse_model(chain2_dict())
    return model.readout_resolver()
