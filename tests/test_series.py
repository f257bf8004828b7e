"""Truncated power series: arithmetic kernels, ODE solutions, Newton
lifting of algebraic functions, witness library, and certification."""

import random
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import pytest

from dalg import field_from_label, get_field, parse_poly
from dalg.errors import DalgError, HypothesisError
from dalg.resultant import elim_x
from dalg.series import (SeriesQ, apply_dpoly, newton_algebraic_series,
                         series_add, series_arith, series_compose0,
                         series_derive, series_div, series_exp0,
                         series_integrate, series_mul, series_sub,
                         solve_ode_series, verify_annihilator, witness,
                         witness_names)

from oracles import DEFAULT_JETS, rand_poly, series_eval

F = get_field("Q")
FX = get_field("Q", has_x=True)


def fr(s, j):
    return s.field.as_fraction(s.coefficient(j))


def fr_list(s):
    return [fr(s, j) for j in range(s.N + 1)]


def qs(values, N, field=F, point=0):
    return SeriesQ.from_fractions(field, values, N, point=point)


# ---------------------------------------------------------------------------
# witness library

def test_witness_exponentials():
    e = witness("exp", 10)
    e2 = witness("exp2x", 10)
    for j in range(11):
        assert fr(e, j) == Fraction(1, factorial(j))
        assert fr(e2, j) == Fraction(2**j, factorial(j))


def test_witness_tan():
    assert fr_list(witness("tan", 8)) == [
        0, 1, 0, Fraction(1, 3), 0, Fraction(2, 15), 0,
        Fraction(17, 315), 0]


def test_witness_logistic():
    assert fr_list(witness("logistic", 6)) == [
        Fraction(1, 2), Fraction(1, 4), 0, Fraction(-1, 48), 0,
        Fraction(1, 480), 0]


def test_witness_geometric():
    assert fr_list(witness("geom", 9)) == [1] * 10


def test_witness_expexp_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    s = witness("expexp", 8)
    assert [fr(s, j) * factorial(j) for j in range(9)] == bell


def test_witness_exp_x2():
    s = witness("exp_x2", 8)
    assert s.field.desc.has_x
    assert fr_list(s) == [1, 0, 1, 0, Fraction(1, 2), 0, Fraction(1, 6),
                          0, Fraction(1, 24)]


def test_witness_registry():
    assert "exp" in witness_names() and "logistic" in witness_names()
    with pytest.raises(DalgError, match="unknown witness"):
        witness("sinh", 4)


def test_witness_shifted_point():
    s = witness("exp", 8, point=1)
    assert s.point == 1
    assert fr_list(s) == [Fraction(1, factorial(j)) for j in range(9)]


# ---------------------------------------------------------------------------
# arithmetic kernels

def test_mul_exp_exp_is_exp2x():
    e = witness("exp", 12)
    assert series_mul(e, e) == witness("exp2x", 12)


def test_div_recovers_geometric():
    one = SeriesQ.constant(F, F.one, 9)
    geom = series_div(one, qs([1, -1], 9))
    assert geom == witness("geom", 9)
    with pytest.raises(HypothesisError, match="not invertible"):
        series_div(one, qs([0, 1], 9))


def test_exp0_of_x_is_exp():
    x = qs([0, 1], 10)
    assert series_exp0(x) == witness("exp", 10)
    with pytest.raises(HypothesisError, match="zero constant term"):
        series_exp0(qs([1, 1], 4))


def test_compose_exp_with_x_squared():
    inner = qs([0, 0, 1], 8)
    composed = series_compose0(witness("exp", 8), inner)
    assert fr_list(composed) == fr_list(witness("exp_x2", 8))
    with pytest.raises(HypothesisError, match="inner series"):
        series_compose0(witness("exp", 8), qs([1, 1], 8))


def test_add_sub_round_trip():
    a = witness("tan", 10)
    b = witness("geom", 10)
    assert series_sub(series_add(a, b), b) == a


def test_distributivity_random():
    import random
    rng = random.Random(11)
    for _ in range(50):
        a = qs([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(7)], 6)
        b = qs([rng.randint(-4, 4) for _ in range(7)], 6)
        c = qs([rng.randint(-4, 4) for _ in range(7)], 6)
        lhs = series_mul(series_add(a, b), c)
        rhs = series_add(series_mul(a, c), series_mul(b, c))
        assert lhs == rhs


def test_truncation_bookkeeping():
    s = witness("exp", 10)
    assert series_derive(s).N == 9
    assert series_integrate(s, 0).N == 11
    assert series_add(s, witness("exp", 7)).N == 7
    assert series_mul(s, witness("exp", 4)).N == 4
    assert s.truncate(5).N == 5
    with pytest.raises(DalgError, match="cannot extend"):
        s.truncate(11)
    with pytest.raises(DalgError, match="beyond the truncation"):
        s.coefficient(11)
    with pytest.raises(DalgError, match="different expansion points"):
        series_add(s, witness("exp", 10, point=1))


def test_derive_integrate_inverse():
    s = witness("tan", 9)
    back = series_integrate(series_derive(s), 0)
    assert back.truncate(9) == s


def test_valuation_and_zero_detection():
    s = qs([0, 0, 0, 5], 6)
    assert s.valuation() == 3 and not s.is_zero_to_truncation()
    z = qs([], 6)
    assert z.valuation() == 7 and z.is_zero_to_truncation()


def test_series_arith_dispatch():
    e = witness("exp", 6)
    assert series_arith("mul", e, e) == series_mul(e, e)
    assert series_arith("derive", e) == series_derive(e)
    with pytest.raises(DalgError, match="needs two"):
        series_arith("add", e)
    with pytest.raises(DalgError, match="takes one"):
        series_arith("derive", e, e)
    with pytest.raises(DalgError, match="unknown series operation"):
        series_arith("convolve", e, e)


# ---------------------------------------------------------------------------
# ODE solutions

def test_solve_ode_polynomial_coefficient():
    # (2 - x) f' - f = 0, f(0) = 1/2  has solution 1/(2 - x)
    P = parse_poly("(2 - x)*y1' - y1", FX)
    s = solve_ode_series(P, [Fraction(1, 2)], 12)
    assert fr_list(s) == [Fraction(1, 2**(j + 1)) for j in range(13)]


def test_solve_ode_second_order():
    # f'' + f = 0, f(0) = 0, f'(0) = 1  (sine)
    P = parse_poly("y1'' + y1", F)
    s = solve_ode_series(P, [0, 1], 9)
    want = [0, 1, 0, Fraction(-1, 6), 0, Fraction(1, 120), 0,
            Fraction(-1, 5040), 0, Fraction(1, 362880)]
    assert fr_list(s) == want


def test_solve_ode_hypothesis_errors():
    with pytest.raises(HypothesisError, match="not linear"):
        solve_ode_series(parse_poly("y1'^2 - y1", F), [1], 6)
    with pytest.raises(HypothesisError, match="leading coefficient"):
        solve_ode_series(parse_poly("y1*y1' - 1", F), [0], 6)
    with pytest.raises(DalgError, match="initial jets"):
        solve_ode_series(parse_poly("y1'' + y1", F), [1], 6)
    with pytest.raises(DalgError, match="one jet family"):
        solve_ode_series(parse_poly("y1' - y2", F), [1], 6)


# ---------------------------------------------------------------------------
# Newton lifting

def test_newton_sqrt_one_plus_x():
    Qg = parse_poly("y1^2 - 1 - x", FX)
    s = newton_algebraic_series(Qg, 1, 4)
    assert fr_list(s) == [1, Fraction(1, 2), Fraction(-1, 8),
                          Fraction(1, 16), Fraction(-5, 128)]
    sq = series_mul(s, s)
    assert fr_list(sq) == [1, 1, 0, 0, 0]


def test_newton_shifted_point():
    s = newton_algebraic_series(parse_poly("y1^2 - x", FX), 1, 4, point=1)
    assert s.point == 1
    assert fr_list(s) == [1, Fraction(1, 2), Fraction(-1, 8),
                          Fraction(1, 16), Fraction(-5, 128)]


def test_newton_hypothesis_errors():
    Qg = parse_poly("y1^2 - 1 - x", FX)
    with pytest.raises(HypothesisError, match="not a root"):
        newton_algebraic_series(Qg, 2, 4)
    with pytest.raises(HypothesisError, match="simple root"):
        newton_algebraic_series(parse_poly("y1^2 - 2*y1 + 1 - x^2", FX), 1, 4)
    with pytest.raises(DalgError, match="y1 alone"):
        newton_algebraic_series(parse_poly("y1' - x", FX), 0, 4)


# (field, Qg, y0): y0 is a simple root of Qg(point, .) at each point of
# the grid below.  Over x fields Qg(x, y0) is a multiple of
# x*(x - 1)*(2*x - 1), which vanishes at the grid points only, so the
# series is not constant.
_W = "(2*x^3 - 3*x^2 + x)"
ALGEBRAIC = [
    ("Q", "y1^2 - 2*y1 - 3", 3),
    ("Q", "y1^3 - y1 - 6", 2),
    ("Q(;x)", f"x*y1^2 + y1 - 1 - x + {_W}", 1),
    ("Q(;x)", f"y1^3 - x*y1 - 1 + x - {_W}", 1),
    ("Q(a;x)", f"y1^2 - 1 + a*{_W}", 1),
    ("Q(a;x)", f"y1^3 + x*y1 - 1 - x + a*{_W}", 1),
    ("Qi(;x)", f"y1^2 - 1 + i*{_W}", 1),
    ("Qi(;x)", f"x*y1^2 + i*y1 - i - x + {_W}", 1),
]


@pytest.mark.parametrize("point", [Fraction(0), Fraction(1), Fraction(1, 2)],
                         ids=["0", "1", "1/2"])
@pytest.mark.parametrize("label, text, y0", ALGEBRAIC,
                         ids=[f"{c[0]}-{j}" for j, c in enumerate(ALGEBRAIC)])
def test_algebraic_series_residual_vanishes(label, text, y0, point):
    field = field_from_label(label)
    Qg = parse_poly(text, field)
    s = newton_algebraic_series(Qg, y0, 12, point=point)
    assert s.coeffs[0] == field.q(y0)
    assert label == "Q" or any(s.coeffs[1:])
    coeffs, N = series_eval(Qg, {(1, 1): (s.coeffs, s.N)}, point)
    assert N == 12 and all(field.is_zero(c) for c in coeffs)
    assert newton_algebraic_series(Qg, y0, 6, point=point) == s.truncate(6)


# ---------------------------------------------------------------------------
# evaluating differential polynomials on witnesses

def test_apply_dpoly_residual_zero():
    res = apply_dpoly(parse_poly("y1' - y1", F), {"y1": witness("exp", 10)})
    assert res.N == 9 and res.is_zero_to_truncation()


def test_apply_dpoly_multi_family():
    P = parse_poly("z - y1*y2", F)
    res = apply_dpoly(P, {"y1": witness("exp", 10), "y2": witness("exp", 10),
                          "z": witness("exp2x", 10)})
    assert res.is_zero_to_truncation()


def test_apply_dpoly_cross_field_embed():
    # witness over Q feeds an equation whose field carries x
    res = apply_dpoly(parse_poly("y1' - y1", FX), {"y1": witness("exp", 8)})
    assert res.field.desc.has_x and res.is_zero_to_truncation()


def test_apply_dpoly_errors():
    with pytest.raises(DalgError, match="no witness series"):
        apply_dpoly(parse_poly("y1 + y2", F), {"y1": witness("exp", 6)})
    with pytest.raises(DalgError, match="different expansion points"):
        apply_dpoly(parse_poly("y1 + y2", F),
                    {"y1": witness("exp", 6), "y2": witness("exp", 6, point=1)})
    with pytest.raises(DalgError, match="truncation too small"):
        apply_dpoly(parse_poly("y1''", F), {"y1": witness("exp", 1)})


def test_apply_dpoly_valuation_of_nonsolution():
    # tan' - tan = 1 + tan^2 - tan has constant term 1: valuation 0
    res = apply_dpoly(parse_poly("y1' - y1", F), {"y1": witness("tan", 8)})
    assert res.valuation() == 0


def test_verify_annihilator_updates_record():
    ann = elim_x(parse_poly("y1 - x^2", FX))
    wit = SeriesQ.from_fractions(FX, [0, 0, 1], 12)
    rec = verify_annihilator(ann, {"y1": wit})
    assert rec["certified"] and rec["truncation"] == 11
    assert ann.series_certified and ann.residual_valuation == 12
    rec = verify_annihilator(ann, {"y1": wit}, N=6)
    assert rec["certified"] and rec["truncation"] == 5


# ---------------------------------------------------------------------------
# the ring kernel against plain field arithmetic

def _const(rng, field):
    """Random x-free element: a rational, with i and parameters when the
    field has them."""
    c = field.q(rng.randint(-5, 5), rng.randint(1, 4))
    if field.desc.kind == "Qi":
        c += field.i() * field.q(rng.randint(-3, 3), rng.randint(1, 3))
    for name in field.desc.params:
        c += field.param(name) * field.q(rng.randint(-2, 2))
    return c


def _oracle_valuation(P, wits, point):
    """Check apply_dpoly and verify_annihilator against series_eval and
    return the residual valuation."""
    coeffs, N = series_eval(
        P, {fam: (s.coeffs, s.N) for fam, s in wits.items()}, point)
    assert apply_dpoly(P, wits) == SeriesQ(P.field, point, coeffs, N)
    val = next((j for j, c in enumerate(coeffs) if c), N + 1)
    rec = verify_annihilator(SimpleNamespace(poly=P), wits)
    assert rec == {"certified": val == N + 1, "residual_valuation": val,
                   "truncation": N}
    return val, N


@pytest.mark.parametrize("point", [Fraction(0), Fraction(1, 2)],
                         ids=["0", "1/2"])
@pytest.mark.parametrize("label", ["Q", "Qi", "Qi(c;)", "Q(a;x)", "Qi(a;x)"])
def test_apply_dpoly_matches_field_oracle(label, point):
    field = field_from_label(label)
    rng = random.Random(f"{label}:{point}")
    f = SeriesQ(field, point, [_const(rng, field) for _ in range(6)], 5)
    wits = {(1, 1): f,
            (1, 2): SeriesQ(field, point, [_const(rng, field)
                                           for _ in range(7)], 6)}
    # random polynomials are not annihilators: the residual is nonzero
    for _ in range(4):
        val, N = _oracle_valuation(rand_poly(rng, field, DEFAULT_JETS),
                                   wits, point)
        assert val <= N

    # known annihilators: exp, exp(c x), and y2 = x^e * y1^2 + y1'
    one = SeriesQ.constant(field, field.one, 6, point)
    t = SeriesQ(field, point, [field.zero, field.one], 6)
    exp = series_exp0(t)
    known = [("y1' - y1", {(1, 1): exp})]
    for name in field.desc.params:
        cexp = series_exp0(series_mul(SeriesQ.constant(
            field, field.param(name), 6, point), t))
        known.append((f"y1' - {name}*y1", {(1, 1): cexp}))
    xs, xe = one, ""
    if field.desc.has_x:
        xs, xe = series_add(t, SeriesQ.constant(
            field, field.from_fraction(point), 6, point)), "x*"
    g = series_add(series_mul(xs, series_mul(f, f)), series_derive(f))
    known.append((f"y2 - {xe}y1^2 - y1'", {(1, 1): f, (1, 2): g}))
    for text, wit in known:
        val, N = _oracle_valuation(parse_poly(text, field), wit, point)
        assert val == N + 1 and N >= 4, text
