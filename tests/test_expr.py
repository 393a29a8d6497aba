"""Expression language: parsing, printing, differentiation, evaluation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from sdconformal.expr import (Expression, parse, to_source, evaluate,
                              ExprError, ExprSyntaxError, ExprDomainError,
                              UnknownIdentifierError)
from sdconformal.jets import JetSpace

XY = ("x", "y")


class TestParsing:
    @pytest.mark.parametrize("src,x,y,want", [
        ("x + y*2", 1.0, 3.0, 7.0),
        ("x - y - 1", 5.0, 2.0, 2.0),          # left association
        ("2^3", 0.0, 0.0, 8.0),
        ("-x^2", 2.0, 0.0, -4.0),               # unary minus binds looser than ^
        ("(1 + x)*(1 - x)", 0.5, 0.0, 0.75),
        ("x/y/2", 8.0, 2.0, 2.0),
        ("sin(x)^2 + cos(x)^2", 0.37, 0.0, 1.0),
        ("exp(log(y))", 0.0, 2.5, 2.5),
    ])
    def test_evaluation(self, src, x, y, want):
        space = JetSpace(XY, 0)
        e = parse(src, XY)
        val = evaluate(e, space.seed({"x": x, "y": y}), space=space).value
        assert val == pytest.approx(want, rel=1e-14)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse("x + q", XY)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x + * y", XY)
        assert err.value.offset == 4

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExprError):
            parse("x^y", XY)

    def test_chained_exponent_rejected(self):
        # exponents are integer literals, not expressions
        with pytest.raises(ExprError):
            parse("2^3^1", XY)

    def test_numbers_allowed_in_place_of_expressions(self):
        e = parse("2.5e-1", XY)
        space = JetSpace(XY, 0)
        assert evaluate(e, space.seed({"x": 0, "y": 0}), space=space).value == 0.25


class TestPrinting:
    @pytest.mark.parametrize("src", [
        "x + y", "x - (y - 1)", "x*(y + 2)", "-(x + y)", "x^2*y^3",
        "sin(x*y) - cos(x)/(1 + y^2)", "sqrt(x^2 + y^2)", "x/(y*(x + 1))",
    ])
    def test_roundtrip(self, src):
        e = parse(src, XY)
        again = parse(to_source(e), XY)
        assert again == e

    def test_str_is_parseable(self):
        e = parse("exp(x) - 3*y", XY).diff("x")
        assert parse(str(e), XY) == e


class TestDifferentiation:
    def test_product_rule(self):
        e = parse("x^2*sin(y)", XY)
        dx = e.diff("x")
        space = JetSpace(XY, 0)
        env = space.seed({"x": 2.0, "y": 0.5})
        assert evaluate(dx, env, space=space).value == pytest.approx(
            4.0 * math.sin(0.5), rel=1e-14)

    def test_chain_rule_matches_jet(self):
        e = parse("exp(x*y)/sqrt(1 + x^2)", XY)
        space1 = JetSpace(XY, 1)
        pt = {"x": 0.7, "y": -0.2}
        jet = evaluate(e, space1.seed(pt), space=space1)
        space0 = JetSpace(XY, 0)
        env0 = space0.seed(pt)
        for i, v in enumerate(XY):
            symbolic = evaluate(e.diff(v), env0, space=space0).value
            assert jet.gradient()[i] == pytest.approx(symbolic, rel=1e-13)

    def test_second_derivatives_commute(self):
        e = parse("sin(x*y^2) + x^3/y", XY)
        assert e.diff("x").diff("y") == e.diff("y").diff("x") or True
        # symbolic forms may differ; compare numerically
        space = JetSpace(XY, 0)
        env = space.seed({"x": 1.1, "y": 0.8})
        a = evaluate(e.diff("x").diff("y"), env, space=space).value
        b = evaluate(e.diff("y").diff("x"), env, space=space).value
        assert a == pytest.approx(b, rel=1e-12)


class TestDomainErrors:
    def test_division_by_zero_value(self):
        e = parse("1/x", XY)
        space = JetSpace(XY, 1)
        with pytest.raises(ExprDomainError):
            evaluate(e, space.seed({"x": 0.0, "y": 1.0}), space=space)

    def test_log_of_negative_value(self):
        e = parse("log(x - 2)", XY)
        space = JetSpace(XY, 1)
        with pytest.raises(ExprDomainError):
            evaluate(e, space.seed({"x": 1.0, "y": 0.0}), space=space)

    def test_sin_of_infinite_value(self):
        e = parse("sin(x)", XY)
        space = JetSpace(XY, 1)
        with pytest.raises(ExprDomainError):
            evaluate(e, space.seed({"x": math.inf, "y": 0.0}), space=space)

    @pytest.mark.parametrize("src,x", [("log(x)", 0.0), ("sqrt(x)", -1.0),
                                       ("1/x", 0.0), ("x^-2", 0.0),
                                       ("exp(x)", 800.0)])
    def test_float_evaluation_domain_errors(self, src, x):
        with pytest.raises(ExprDomainError):
            parse(src, XY)({"x": x, "y": 0.0})

    def test_mixed_spaces_are_a_programming_error(self):
        # not a domain error: jets of two spaces must not meet
        e = parse("x + 1", XY)
        env = JetSpace(XY, 1).seed({"x": 1.0, "y": 0.0})
        with pytest.raises(ValueError, match="different spaces"):
            evaluate(e, env, space=JetSpace(XY, 2))


# -- randomized round-trip ------------------------------------------------


def _expr_strategy():
    leaf = st.one_of(
        st.sampled_from([Expression.var("x"), Expression.var("y")]),
        # non-negative leaves: a negative literal prints as unary minus,
        # which the negation branch below already covers
        st.floats(min_value=0, max_value=4, allow_nan=False)
            .map(lambda v: Expression.const(round(v, 3) + 0.0)),
    )

    def extend(children):
        unary = children.map(lambda e: -e)
        power = st.tuples(children, st.integers(2, 4)).map(lambda t: t[0] ** t[1])
        call = st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map(
            lambda t: Expression(
                type(parse(f"{t[0]}(x)", ("x",)).node)(t[0], t[1].node)))
        binop = st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda t: {"+": t[0] + t[2], "-": t[0] - t[2],
                       "*": t[0] * t[2], "/": t[0] / t[2]}[t[1]])
        return st.one_of(unary, power, call, binop)

    return st.recursive(leaf, extend, max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(_expr_strategy())
def test_print_parse_roundtrip(e):
    assert parse(to_source(e), XY) == e
