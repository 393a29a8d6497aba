"""The expression AST nodes: immutable values made from their fields.

A node equals, and hashes like, a node of the same class with equal
fields; it is made positionally, cannot be changed, and copies and
pickles as the node it is.
"""

import copy
import pickle

import pytest

from sdconformal.expr import BinOp, Call, Const, Neg, Pow, Var, parse

TREE = parse("sin(x)*y^2 - -1/x", ("x", "y")).node


def test_equal_fields_of_one_class_are_equal():
    assert Const(1.0) == Const(1) and hash(Const(1.0)) == hash(Const(1))
    assert BinOp("+", Var("x"), Const(2.0)) == BinOp("+", Var("x"),
                                                      Const(2.0))
    assert Call("sin", Var("x")) != Call("cos", Var("x"))
    assert Pow(Var("x"), 2) != Pow(Var("x"), 3)


def test_nodes_of_other_classes_or_values_are_not_equal():
    # Var("x") and Const("x") hold the one field value "x"; a node is no
    # tuple of its fields
    assert Var("x") != Const("x") and Var("x") != ("x",)
    assert Neg(Var("x")) != Call("sin", Var("x"))
    assert len({Var("x"), Const("x"), Var("x")}) == 2


@pytest.mark.parametrize("node,field", [(Const(1.0), "value"),
                                        (Var("x"), "name"),
                                        (TREE, "lhs")])
def test_nodes_are_immutable(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, None)
    with pytest.raises(AttributeError):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.other = 1


def test_nodes_copy_and_pickle_as_themselves():
    for twin in (copy.copy(TREE), copy.deepcopy(TREE),
                 pickle.loads(pickle.dumps(TREE))):
        assert type(twin) is BinOp and twin == TREE
        assert hash(twin) == hash(TREE)


def test_repr_names_the_fields():
    assert repr(Pow(Var("y"), 2)) == "Pow(base=Var(name='y'), exponent=2)"
