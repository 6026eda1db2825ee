"""Event-expression algebra: exclusivity, idempotence, evaluation."""

import pytest
from hypothesis import given, strategies as st

from ducg import (
    ArcLiteral,
    EventExpression,
    KnowledgeBase,
    MissingParameterError,
    Product,
    RootLiteral,
    StateDef,
    Variable,
    conjoin,
    eval_expression,
)

B1_1 = RootLiteral(1, 1)
B1_2 = RootLiteral(1, 2)
B2_1 = RootLiteral(2, 1)
ARC_A = ArcLiteral(child=5, child_state=1, parent=1, parent_state=1, share=0.5, intensity=0.5)
ARC_B = ArcLiteral(child=5, child_state=1, parent=2, parent_state=1, share=0.5, intensity=0.9)
ARC_C = ArcLiteral(child=6, child_state=1, parent=1, parent_state=1, share=1.0, intensity=0.4)


def expr(*products):
    return EventExpression.make(products)


# --- product construction -----------------------------------------------------


def test_duplicate_literals_collapse():
    p = Product.make([B1_1, B1_1], [ARC_A, ARC_A])
    assert p == Product.make([B1_1], [ARC_A])


def test_two_states_of_one_root_annihilate():
    assert Product.make([B1_1, B1_2], []) is None


def test_two_mechanisms_for_one_child_annihilate():
    assert Product.make([B1_1, B2_1], [ARC_A, ARC_B]) is None


def test_mechanisms_for_distinct_children_coexist():
    p = Product.make([B1_1], [ARC_A, ARC_C])
    assert p is not None and len(p.arcs) == 2


def test_product_literals_are_sorted():
    p = Product.make([B2_1, B1_1], [ARC_C, ARC_A])
    assert p.roots == (B1_1, B2_1)
    assert p.arcs == (ARC_A, ARC_C)


def test_arc_literal_probability():
    kb = KnowledgeBase({1: _root(1)})
    assert Product.make([], [ARC_A]).value(kb) == pytest.approx(0.25)


# --- expression construction ----------------------------------------------------


def test_identical_terms_collapse_in_sum():
    p = Product.make([B1_1], [ARC_A])
    assert expr(p, p).terms == (p,)


def test_annihilated_products_vanish_from_sum():
    e = expr(Product.make([B1_1, B1_2], []), Product.make([B2_1], []))
    assert e.terms == (Product.make([B2_1], []),)


def test_empty_expression():
    e = expr()
    assert not e.terms
    assert eval_expression(e, KnowledgeBase({1: _root(1)})) == 0.0


# --- conjoin --------------------------------------------------------------------


def test_conjoin_keeps_matching_state():
    e = expr(Product.make([B1_1], [ARC_A]), Product.make([B1_2], []))
    out = conjoin(e, B1_1)
    assert out.terms == (Product.make([B1_1], [ARC_A]),)


def test_conjoin_drops_other_roots_products():
    e = expr(Product.make([B1_1], [ARC_A]), Product.make([B2_1], [ARC_B]))
    assert conjoin(e, B1_1).terms == (Product.make([B1_1], [ARC_A]),)
    assert not conjoin(e, RootLiteral(3, 1)).terms


def test_conjoin_empty_stays_empty():
    assert not conjoin(expr(), B1_1).terms


# --- evaluation --------------------------------------------------------------


def _root(vid, prior=None, n=3):
    return Variable(
        id=vid,
        kind="B",
        label=f"b{vid}",
        states=tuple(
            StateDef(k, "normal" if k == 0 else f"s{k}", "normal" if k == 0 else "abnormal")
            for k in range(n)
        ),
        prior=prior if prior is not None else {1: 0.2, 2: 0.3},
    )


def test_eval_multiplies_roots_and_arcs():
    kb = KnowledgeBase({1: _root(1, {1: 0.2}), 2: _root(2, {1: 0.1})})
    e = expr(
        Product.make([B1_1], [ARC_A]),          # 0.2 * 0.25
        Product.make([B1_1, B2_1], [ARC_C]),    # 0.2 * 0.1 * 0.4
    )
    assert eval_expression(e, kb) == pytest.approx(0.2 * 0.25 + 0.2 * 0.1 * 0.4)


def test_eval_state_zero_uses_prior_complement():
    kb = KnowledgeBase({1: _root(1, {1: 0.2, 2: 0.3})})
    e = expr(Product.make([RootLiteral(1, 0)], []))
    assert eval_expression(e, kb) == pytest.approx(0.5)


def test_eval_default_cause_contributes_unit_factor():
    d = Variable(
        id=9,
        kind="D",
        label="wear",
        states=(StateDef(0, "normal", "normal"), StateDef(1, "s1", "abnormal")),
    )
    kb = KnowledgeBase({1: _root(1, {1: 0.2}), 9: d})
    with_d = expr(Product.make([B1_1, RootLiteral(9, 1)], []))
    without = expr(Product.make([B1_1], []))
    assert eval_expression(with_d, kb) == eval_expression(without, kb)


def test_eval_missing_prior_raises():
    kb = KnowledgeBase({1: _root(1, {1: 0.2})})
    e = expr(Product.make([RootLiteral(1, 2)], []))
    with pytest.raises(MissingParameterError):
        eval_expression(e, kb)


# --- property tests ---------------------------------------------------------------

root_literals = st.builds(
    RootLiteral, var=st.integers(1, 4), state=st.integers(0, 2)
)
arc_literals = st.builds(
    ArcLiteral,
    child=st.integers(5, 8),
    child_state=st.integers(1, 2),
    parent=st.integers(1, 4),
    parent_state=st.integers(0, 2),
    share=st.sampled_from([0.25, 0.5, 1.0]),
    intensity=st.sampled_from([0.1, 0.5, 0.9]),
)
products = st.builds(
    Product.make,
    st.lists(root_literals, max_size=3),
    st.lists(arc_literals, max_size=3),
)
expressions = st.builds(
    EventExpression.make, st.lists(products, max_size=5)
)


@given(products)
def test_make_is_stable(p):
    if p is not None:
        assert Product.make(p.roots, p.arcs) == p


@given(expressions)
def test_expression_terms_are_canonical(e):
    assert EventExpression.make(e.terms) == e
    keys = [t.sort_key() for t in e.terms]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@given(expressions, root_literals)
def test_conjoin_is_idempotent_and_pins_state(e, hyp):
    once = conjoin(e, hyp)
    assert conjoin(once, hyp) == once
    assert EventExpression.make(once.terms) == once  # kept in canonical order
    for term in once.terms:
        assert hyp in term.roots


@given(expressions, root_literals, root_literals)
def test_conjoin_on_conflicting_states_empties(e, h1, h2):
    if h1.var == h2.var and h1.state != h2.state:
        assert not conjoin(conjoin(e, h1), h2).terms
