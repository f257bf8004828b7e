"""Coefficient fields: labels, arithmetic helpers, x-handling."""

import gc
from fractions import Fraction

import pytest

from dalg import field_from_label, get_field
from dalg.errors import FieldError, HypothesisError, ParseError
from dalg.fields import ring_of

from oracles import as_fraction, eval_x, is_rational


LABELS = ["Q", "Qi", "Q(a;)", "Q(;x)", "Q(a;x)", "Qi(c;)", "Qi(a,b;x)"]


@pytest.mark.parametrize("label", LABELS)
def test_label_round_trip(label):
    f = field_from_label(label)
    assert f.desc.label == label
    assert field_from_label(f.desc.label).desc == f.desc


@pytest.mark.parametrize("label", LABELS)
def test_ring_is_built_once_per_field(label):
    # ring_of hands back the same (R, F) on every call, and a repeated
    # call leaves nothing for the garbage collector: a new sympy ring
    # domain per call left objects in reference cycles
    f = field_from_label(label)
    R, F = ring_of(f)
    assert ring_of(f)[0] is R and ring_of(f)[1] is F
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        ring_of(f)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_bad_labels_rejected():
    for bad in ["R", "Q(", "Q(a;x", "Zi", "", "Q(1a;)"]:
        with pytest.raises((ParseError, FieldError)):
            field_from_label(bad)


def test_rational_constructor_and_parts():
    f = get_field("Q")
    c = f.q(3, 4)
    assert is_rational(f, c)
    assert as_fraction(f, c) == Fraction(3, 4)
    assert f.is_zero(f.q(0))


def test_i_squares_to_minus_one():
    f = get_field("Qi")
    assert f.is_zero(f.i() * f.i() + f.one)
    with pytest.raises(FieldError):
        get_field("Q").i()


def test_params_are_opaque_constants():
    f = get_field("Q", params=("a",))
    a = f.param("a")
    assert not is_rational(f, a)
    assert f.is_zero(f.derive_x(a))
    with pytest.raises(FieldError):
        f.param("b")


def test_x_derivation_and_evaluation():
    f = get_field("Q", has_x=True)
    x = f.x()
    c = x * x + f.q(3) * x + f.q(1, 2)
    assert f.to_str(f.derive_x(c)) == f.to_str(f.q(2) * x + f.q(3))
    assert as_fraction(f, eval_x(f, c, Fraction(2))) == Fraction(4 + 6) + Fraction(1, 2)
    assert f.x_degree(c) == 2
    assert [as_fraction(f, u) for u in f.as_x_poly(c)] == [
        Fraction(1, 2), Fraction(3), Fraction(1)]
    with pytest.raises(FieldError):
        get_field("Q").x()


def test_x_denominator_rejected_by_x_poly():
    f = get_field("Q", has_x=True)
    c = f.one / f.x()
    with pytest.raises(HypothesisError):
        f.as_x_poly(c)
    with pytest.raises(HypothesisError):
        f.x_degree(c)


def test_gaussian_with_params_and_x():
    f = get_field("Qi", params=("a",), has_x=True)
    c = (f.i() * f.x() + f.param("a")) * (f.i() * f.x() - f.param("a"))
    expanded = -(f.x() * f.x()) - f.param("a") * f.param("a")
    assert f.is_zero(c - expanded)
