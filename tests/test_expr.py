"""Expression language: parsing, printing, differentiation, evaluation."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdconformal.expr import (FUNCTIONS, BinOp, Call, Const, Expression,
                              Neg, Pow, Var, compile, parse,
                              jets_at, values_at, ExprError, ExprSyntaxError,
                              ExprDomainError, UnknownIdentifierError)
from sdconformal import expr as expr_module
from sdconformal.jets import Jet, JetDomainError, JetSpace, stack
from oracles import eval_jet, evaluate, reference_eval, to_source, unstack

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
        # evaluation at a plain point is evaluation over order-0 jets
        with pytest.raises(ExprDomainError):
            jets_at(parse(src, XY), JetSpace(XY, 0), {"x": x, "y": 0.0})

    def test_mixed_spaces_are_a_programming_error(self):
        # not a domain error: jets of two spaces must not meet
        e = parse("x + 1", XY)
        env = JetSpace(XY, 1).seed({"x": 1.0, "y": 0.0})
        with pytest.raises(ValueError, match="different spaces"):
            evaluate(e, env, space=JetSpace(XY, 2))


class TestJetsAt:
    SOURCES = [["x*y + sin(x)", "2.5"], ["exp(y)/x", "y^3 - x"]]

    def test_scalar_point_matches_seed_and_evaluate(self):
        space = JetSpace(XY, 3)
        point = {"x": 0.7, "y": -0.4}
        env = space.seed(point)
        got = jets_at([[parse(s, XY) for s in row] for row in self.SOURCES],
                      space, point)
        assert got.coeffs.shape == (2, 2, len(space))
        for i, row in enumerate(self.SOURCES):
            for j, src in enumerate(row):
                want = evaluate(parse(src, XY), env, space=space)
                assert np.array_equal(got.coeffs[i, j], want.coeffs)

    def test_nested_list_over_array_point(self):
        space = JetSpace(XY, 2)
        xs = np.linspace(0.5, 1.5, 5)
        point = {"x": xs, "y": xs[::-1] - 1.0}
        got = jets_at([[parse(s, XY) for s in row] for row in self.SOURCES],
                      space, point)
        assert got.coeffs.shape == (5, 2, 2, len(space))
        # the constant entry carries the point axis, with its value everywhere
        assert np.array_equal(got.coeffs[:, 0, 1],
                              np.tile(space.constant(2.5).coeffs, (5, 1)))
        for n in range(5):
            single = jets_at([[parse(s, XY) for s in row]
                              for row in self.SOURCES], space,
                             {"x": point["x"][n], "y": point["y"][n]})
            assert np.array_equal(got.coeffs[n], single.coeffs)

    def test_three_nesting_levels_round_trip(self):
        space = JetSpace(XY, 1)
        exprs = [[[parse(f"{a}*x + {b}*y + {c}", XY) for c in range(3)]
                  for b in range(2)] for a in range(2)]
        point = {"x": np.array([0.1, 0.2, 0.3, 0.4]), "y": 0.5}
        got = jets_at(exprs, space, point)
        assert got.coeffs.shape == (4, 2, 2, 3, len(space))
        entries = unstack(got, 3)
        for a, b, c in np.ndindex(2, 2, 3):
            want = jets_at(exprs[a][b][c], space, point)
            assert np.array_equal(entries[a][b][c].coeffs, want.coeffs)

    def test_single_expression_is_returned_as_evaluated(self):
        space = JetSpace(XY, 2)
        point = {"x": np.array([0.5, 1.0, 2.0]), "y": np.zeros(3)}
        const = jets_at(parse("2.5", XY), space, point)
        assert const.coeffs.shape == (len(space),)   # not broadcast
        e = parse("x*exp(y)", XY)
        want = evaluate(e, space.seed(point), space=space)
        assert np.array_equal(jets_at(e, space, point).coeffs, want.coeffs)
        assert np.array_equal(eval_jet(e, space, point).coeffs, want.coeffs)

    def test_float_mode_is_gone(self):
        e = parse("x + y", XY)
        assert not callable(e)
        with pytest.raises(TypeError):
            evaluate(e, {"x": 1.0, "y": 2.0})


class TestConstants:
    """Each constant is folded into its plan as a fresh read-only jet;
    nothing is shared between plans or kept between calls."""

    def test_constant_jets_are_fresh_and_read_only(self):
        space = JetSpace(XY, 2)
        e = parse("2.5", XY)
        first = evaluate(e, space.seed({"x": 1.0, "y": 2.0}), space)
        again = evaluate(e, space.seed({"x": -1.0, "y": 0.0}), space)
        assert first is not again
        for jet in (first, again):
            assert np.array_equal(jet.coeffs, space.constant(2.5).coeffs)
            with pytest.raises(ValueError):
                jet.coeffs[0] = 1.0
        # the arithmetic on a folded constant leaves it alone
        plan = compile([parse("2.5*x + 2.5", XY)], space)
        folded = [r for r in plan.registers if isinstance(r, Jet)]
        plan.run(plan.bind(space.seed({"x": 3.0, "y": 1.0})))
        assert len(folded) == 2 and folded[0] is not folded[1]
        for jet in folded:
            assert not jet.coeffs.flags.writeable
            assert np.array_equal(jet.coeffs, space.constant(2.5).coeffs)

    def test_signed_zeros_and_spaces_stay_apart(self):
        space = JetSpace(XY, 1)
        plan = compile([Expression.const(0.0), Expression.const(-0.0)], space)
        plus, minus = plan.run([])
        assert plus is not minus
        assert not np.signbit(plus.coeffs[0]) and np.signbit(minus.coeffs[0])
        assert not plus.coeffs.flags.writeable
        assert not minus.coeffs.flags.writeable
        [other] = compile([Expression.const(0.0)], JetSpace(XY, 2)).run([])
        assert other.space is JetSpace(XY, 2) and len(other.coeffs) == 6

    def test_variables_are_still_fresh_arrays(self):
        space = JetSpace(XY, 1)
        compile([Expression.const(1.0)], space).run([])
        x = space.variable("x", 1.0)
        assert x.coeffs.flags.writeable
        assert np.array_equal(x.coeffs, [1.0, 1.0, 0.0])
        seeded = jets_at(parse("x", XY), space, {"x": 1.0, "y": 0.0})
        assert seeded.coeffs.flags.writeable


class TestOperators:
    @pytest.mark.parametrize("other", ["y", None, [1.0], {"x": 1}])
    def test_unliftable_operands_raise_type_error(self, other):
        e = parse("x", XY)
        for fn in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            with pytest.raises(TypeError):
                fn(e, other)
            with pytest.raises(TypeError):
                fn(other, e)

    def test_numbers_are_lifted_on_either_side(self):
        e = parse("x", XY)
        assert str(2 - e) == "2.0 - x" and str(e / 4) == "x / 4.0"
        assert 1.5 * e == parse("1.5*x", XY) and e + True == parse("x + 1", XY)


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


# -- compiled plans against the tree walk ---------------------------------


class TestPlans:
    def test_a_node_reached_twice_runs_once(self):
        e = parse("sin(x*y)", XY)
        plan = compile([e * e, e], JetSpace(XY, 1))
        assert len(plan.tape) == 3   # x*y, sin, the product; no repeats
        assert plan.names == ("x", "y")

    def test_constant_subtrees_are_folded_read_only(self):
        space = JetSpace(XY, 2)
        plan = compile([parse("2*3 - exp(0.5)^2 + x", XY)], space)
        assert len(plan.tape) == 1   # only the "+ x" is left to run
        folded = [r for r in plan.registers if isinstance(r, Jet)]
        assert folded and all(not r.coeffs.flags.writeable for r in folded)
        want = reference_eval(parse("2*3 - exp(0.5)^2", XY), {}, space)
        assert want.coeffs.tobytes() in {r.coeffs.tobytes() for r in folded}
        const = jets_at(parse("-2.5", XY), space, {"x": 1.0, "y": 0.0})
        with pytest.raises(ValueError):
            const.coeffs[0] = 1.0

    def test_evaluate_compiles_at_every_call(self, monkeypatch):
        compiled = []

        def counting(exprs, space):
            compiled.append(space)
            return compile(exprs, space)

        monkeypatch.setattr(expr_module, "compile", counting)
        e = parse("x*y + 1", XY)
        for order in (0, 1, 0, 1):
            space = JetSpace(XY, order)
            got = evaluate(e, space.seed({"x": 2.0, "y": 3.0}), space)
            assert got.value == 7.0
        assert compiled == [JetSpace(XY, 0), JetSpace(XY, 1)] * 2
        evaluate(parse("2.5", XY), {}, space)   # a lone constant too
        assert len(compiled) == 5

    SOURCES = [["x*y", "sin(x) + 1"], ["2.5", "y^2"], ["x", "exp(x*y)"]]

    def test_jets_at_compiles_once_per_call(self, monkeypatch):
        compiled = []

        def counting(exprs, space):
            compiled.append(len(exprs))
            return compile(exprs, space)

        monkeypatch.setattr(expr_module, "compile", counting)
        space = JetSpace(XY, 1)
        exprs = [[parse(s, XY) for s in row] for row in self.SOURCES]
        jets_at(exprs, space, {"x": 0.5, "y": 0.25})
        jets_at(exprs[0][0], space, {"x": 0.5, "y": 0.25})
        assert compiled == [6, 1]

    def test_jets_at_runs_a_node_shared_by_two_leaves_once(self, monkeypatch):
        calls = []
        sin = Jet.sin

        def counting(jet):
            calls.append(jet)
            return sin(jet)

        monkeypatch.setattr(Jet, "sin", counting)
        e = parse("sin(x*y)", XY)
        d = e.diff("x")   # cos(x*y) * (1*y + x*0): shares x*y, not sin
        space = JetSpace(XY, 1)
        point = {"x": np.array([0.5, -1.0]), "y": np.array([2.0, 0.25])}
        got = jets_at([e, e * 2.0, d, e], space, point)
        assert len(calls) == 1
        env = space.seed(point)
        want = stack([reference_eval(f, env, space) for f in
                      (e, e * 2.0, d, e)], (2,))
        assert got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_no_state_is_kept(self):
        e = parse("x*y + 1", XY)
        assert Expression.__slots__ == ("node",)
        for name in ("_plans", "_CONSTANTS", "_constant", "_as_value"):
            assert not hasattr(e, name) and not hasattr(expr_module, name)
        assert e.free_vars == frozenset(XY)

        def containers():
            return {k: len(v) for k, v in vars(expr_module).items()
                    if isinstance(v, (dict, list, set))}

        before = containers()
        for order in range(3):
            space = JetSpace(XY + ("z",), order)
            jets_at([e, parse("3.25*x - 0.5", XY)], space,
                    {"x": 1.0, "y": 2.0, "z": 0.0})
            evaluate(parse("7.5 + y", XY), space.seed({"x": 0.0, "y": 1.0,
                                                       "z": 0.0}), space)
        assert containers() == before

    def test_outputs_may_be_the_input_jets(self):
        space = JetSpace(XY, 0)
        env = space.seed({"x": 0.25, "y": -1.5})
        plan = compile([parse("y", XY), parse("x", XY)], space)
        assert plan.names == ("y", "x") and plan.tape == ()
        y, x = plan.run([env["y"], env["x"]])
        assert y is env["y"] and x is env["x"]

    def test_the_first_error_of_the_walk_is_raised(self):
        # the folded-looking log(0) is not folded away: it raises when run,
        # after the division the walk meets first
        space = JetSpace(XY, 1)
        env = space.seed({"x": 1.0, "y": 2.0})
        e = parse("1/(x - x) + log(0)", XY)
        plan = compile([e], space)        # compiling raises nothing
        with pytest.raises(ExprDomainError, match="^division by a jet"):
            plan.run([env[name] for name in plan.names])
        with pytest.raises(ExprDomainError, match="^log of a jet"):
            evaluate(parse("log(0) + 1/(x - x)", XY), env, space)
        with pytest.raises(ExprDomainError, match="^log of a jet"):
            evaluate(parse("x + log(2 - 3)", XY), env, space)

    def test_unassigned_variables(self):
        space = JetSpace(XY, 0)
        with pytest.raises(UnknownIdentifierError, match=r"\['y'\]"):
            evaluate(parse("x*y + 1", XY), {"x": 1.0}, space)


_LEAVES = st.one_of(
    st.sampled_from([Var("x"), Var("y")]),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]).map(Const),
    st.floats(-3, 3, allow_nan=False).map(Const),
)


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from(FUNCTIONS), children)
            .map(lambda t: Call(*t)),
        st.tuples(st.sampled_from("+-*/"), children, children)
            .map(lambda t: BinOp(*t)),
        st.tuples(children, st.integers(-3, 4)).map(lambda t: Pow(*t)),
    )


_TREES = st.recursive(_LEAVES, _extend, max_leaves=10).map(Expression)
_COORD = st.one_of(st.sampled_from([0.0, 1.0, -0.5]),
                   st.floats(-2, 2, allow_nan=False))


def _outcome(fn):
    """("ok", bytes and shape of the jet) or ("raised", type, message)."""
    try:
        jet = fn()
    except Exception as exc:   # noqa: BLE001 - compared, not handled
        return ("raised", type(exc), str(exc))
    return ("ok", jet.coeffs.shape, jet.coeffs.tobytes())


@settings(max_examples=150, deadline=None)
@given(_TREES, st.integers(0, 2), st.booleans(),
       st.lists(_COORD, min_size=6, max_size=6))
def test_plans_match_the_tree_walk_bit_for_bit(e, order, batched, coords):
    # e*e reaches one node twice; the derivatives share e's subtrees
    exprs = [e, e.diff("x"), e * e, e.diff("x").diff("y")]
    space = JetSpace(XY, order)
    if batched:
        point = {"x": np.array(coords[:3]), "y": np.array(coords[3:])}
    else:
        point = {"x": coords[0], "y": coords[1]}
    env = space.seed(point)
    batch = np.broadcast_shapes(*(j.coeffs.shape[:-1] for j in env.values()))
    with np.errstate(all="ignore"):
        for f in exprs:
            assert (_outcome(lambda: evaluate(f, env, space))
                    == _outcome(lambda: reference_eval(f, env, space)))
        assert (_outcome(lambda: jets_at(exprs, space, point))
                == _outcome(lambda: stack(
                    [reference_eval(f, env, space) for f in exprs], batch)))


# each raises at every point, four of them with their own message; the
# constant one is folded at compile time unless it raises
_POISON = st.sampled_from(["1/(x - x)", "log(0 - 1)", "sqrt(y - y)",
                           "exp(1000*(x*x + 1))", "(y - y)^-2"])


@settings(max_examples=100, deadline=None)
@given(_TREES, _TREES, _POISON, _POISON, st.sampled_from("+-*/"),
       st.integers(0, 2), st.lists(_COORD, min_size=2, max_size=2))
def test_plans_raise_the_first_error_of_the_walk(e, f, p, q, op, order,
                                                 coords):
    g = Expression(BinOp(op, (e + parse(p, XY)).node,
                         (f + parse(q, XY)).node))
    space = JetSpace(XY, order)
    env = space.seed({"x": coords[0], "y": coords[1]})
    with np.errstate(all="ignore"):
        got = _outcome(lambda: evaluate(g, env, space))
        assert got[0] == "raised"
        assert got == _outcome(lambda: reference_eval(g, env, space))


# -- one domain error -------------------------------------------------------


class TestOneDomainError:
    def test_the_expression_name_is_the_jet_error(self):
        assert ExprDomainError is JetDomainError

    @pytest.mark.parametrize("src,message", [
        ("1/(x - x)", "division by a jet with zero constant term"),
        ("log(y - y)", "log of a jet with nonpositive constant term"),
        ("sqrt(0 - x*x)", "sqrt of a jet with nonpositive constant term"),
        ("exp(1000*(x*x + 1))", "exp overflows at a sample point"),
    ])
    def test_a_plan_raises_the_jet_error_with_its_message(self, src,
                                                          message):
        space = JetSpace(XY, 1)
        env = space.seed({"x": 1.0, "y": 2.0})
        plan = compile([parse(src, XY)], space)
        with pytest.raises(JetDomainError) as exc:
            plan.run([env[name] for name in plan.names])
        assert type(exc.value) is JetDomainError
        assert str(exc.value) == message
        assert exc.value.__cause__ is None


# -- values_at --------------------------------------------------------------


class TestValuesAt:
    EXPRS = ["x*y - 2.5", "y", "sin(x) + 2*3", "1/(1 + x*x)", "7"]

    def test_values_equal_jets_at_each_point(self):
        exprs = [parse(src, XY) for src in self.EXPRS]
        values = values_at(exprs, XY)
        for x, y in [(0.25, -1.5), (-0.0, 3.0), (1e-300, 0.75), (2.0, 2.0)]:
            got = values([x, y])
            want = jets_at(exprs, JetSpace(XY, 0), {"x": x, "y": y}).value
            assert np.array(got).tobytes() == want.tobytes()

    def test_compiles_once_and_raises_the_jet_error(self, monkeypatch):
        compiled = []

        def counting(exprs, space):
            compiled.append(space)
            return compile(exprs, space)

        monkeypatch.setattr(expr_module, "compile", counting)
        values = values_at([parse("log(x)", XY)], XY)
        assert values([1.0, 0.0]) == [0.0]
        with pytest.raises(JetDomainError, match="^log of a jet"):
            values([-1.0, 0.0])
        assert values([math.e, 5.0]) == [1.0]
        assert compiled == [JetSpace(XY, 0)]

    @pytest.mark.parametrize("fn", ["log", "sqrt"])
    def test_log_and_sqrt_of_zero_raise(self, fn):
        values = values_at([parse(f"{fn}(x)", XY)], XY)
        with pytest.raises(JetDomainError, match=f"^{fn} of a jet with"):
            values([-0.0, 1.0])

    @pytest.mark.parametrize("fn", ["sin", "cos"])
    def test_a_sine_domain_error_names_the_function_called(self, fn):
        values = values_at([parse(f"{fn}(x)", XY)], XY)
        with pytest.raises(JetDomainError) as exc:
            values([-math.inf, 0.0])
        assert str(exc.value) == f"{fn} outside its domain at a sample point"

    def test_unassigned_variables_raise_at_once(self):
        with pytest.raises(UnknownIdentifierError, match=r"\['z'\]"):
            values_at([parse("x + z", ("x", "z"))], XY)


# scene-language text: constant subtrees fold at compile time, 1e300 and
# 1e-300 overflow and underflow, and every function meets its domain edge
_ATOMS = st.sampled_from(["x", "y", "0", "1", "2.5", "0.1", "1e300",
                          "1e-300", "3"])


def _text(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children)
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(children, st.integers(-4, 5))
            .map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(FUNCTIONS), children)
            .map(lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda t: f"-{t}"),
    )


_SOURCES = st.recursive(_ATOMS, _text, max_leaves=6)
_VALUES = st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 1e300,
                           -1e300, 1e-300, -1e-300, 0.5, -1.5, 2.0, 3.7])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(_SOURCES, min_size=1, max_size=4), _VALUES, _VALUES)
def test_values_at_is_order0_jets_at(sources, x, y):
    exprs = [parse(src, XY) for src in sources]
    with np.errstate(all="ignore"):
        try:
            want = jets_at(exprs, JetSpace(XY, 0), {"x": x, "y": y}).value
        except JetDomainError as exc:
            want = exc
        try:
            got = values_at(exprs, XY)([x, y])
        except JetDomainError as exc:
            got = exc
    if isinstance(want, JetDomainError):
        assert type(got) is JetDomainError and type(want) is JetDomainError
        assert str(got) == str(want)
    else:
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == want.tobytes()
