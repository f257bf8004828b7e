"""Sylvester resultants over exact coefficients, polynomial gcd/exact
division, the three special eliminations, and input preparation."""

import random

import pytest

from dalg import JetVar, get_field, parse_poly
from dalg.errors import DalgError, HypothesisError
from dalg.resultant import (dp_div_exact, dp_gcd, elim_algebraic,
                            elim_hyperexp, elim_x,
                            prepare_primitive_separable, resultant,
                            sylvester_matrix)
from dalg.series import (SeriesQ, newton_algebraic_series, series_integrate,
                         verify_annihilator, witness)

from oracles import as_fraction, rand_poly, sympy_resultant

F = get_field("Q")
FX = get_field("Q", has_x=True)
Z = JetVar.z()


def _parse(text, field=F):
    return parse_poly(text, field)


def test_linear_linear_hand_determinant():
    # det [[y1, y2], [1, -y1]] = -y1^2 - y2 (raw, no sign normalization)
    p = _parse("y1*z + y2")
    q = _parse("z - y1")
    assert resultant(p, q, Z) == _parse("-y1^2 - y2")


def test_quadratic_linear_hand_determinant():
    # res_z(z^2 - y1, z - y2) = y2^2 - y1
    assert resultant(_parse("z^2 - y1"), _parse("z - y2"), Z) == \
        _parse("y2^2 - y1")


def test_sylvester_layout_dimensions():
    lay = sylvester_matrix(_parse("z^2 - y1"), _parse("z - y2"), Z)
    n = len(lay.matrix)
    assert n == 3 and all(len(row) == 3 for row in lay.matrix)
    assert lay.degrees == (2, 1)
    with pytest.raises(DalgError):
        sylvester_matrix(_parse("z - y1"), _parse("y1 + 1"), Z)


def test_resultant_matches_sympy_univariate_200_instances():
    rng = random.Random(41)
    for _ in range(200):
        dp = rng.randint(1, 4)
        dq = rng.randint(1, 4)
        pc = [rng.randint(-5, 5) for _ in range(dp)] + [
            rng.choice([1, 2, -1, 3])]
        qc = [rng.randint(-5, 5) for _ in range(dq)] + [
            rng.choice([1, 2, -1, 3])]
        p = sum((_parse(f"z^{i}").scale(F.q(c)) for i, c in
                 enumerate(pc) if c), _parse("0"))
        q = sum((_parse(f"z^{i}").scale(F.q(c)) for i, c in
                 enumerate(qc) if c), _parse("0"))
        got = resultant(p, q, Z)
        want = sympy_resultant(pc, qc)
        assert got.is_zero() and want == 0 or \
            as_fraction(F, got.constant_coeff()) == want


def test_resultant_multiplicativity_200_instances():
    rng = random.Random(42)
    jets = [JetVar.y(1), JetVar.y(1, 1)]
    done = 0
    while done < 200:
        def rand_in_z(max_deg):
            p = _parse("0")
            for e in range(max_deg + 1):
                if rng.random() < 0.7:
                    c = rand_poly(rng, F, jets, max_terms=2, max_deg=1)
                    p = p + c * _parse("z") ** e
            return p
        p, q, r = rand_in_z(2), rand_in_z(2), rand_in_z(2)
        if min(p.degree_in(Z), q.degree_in(Z), r.degree_in(Z)) < 1:
            continue
        lhs = resultant(p * q, r, Z)
        rhs = resultant(p, r, Z) * resultant(q, r, Z)
        assert lhs == rhs
        done += 1


def test_gcd_and_exact_division():
    g = _parse("y1' - y1")
    a = _parse("y1 + 1") * g
    b = _parse("y1' + 2") * g
    got = dp_gcd(a, b)
    assert dp_div_exact(got, g).total_degree() == 0
    assert dp_div_exact(a, g) == _parse("y1 + 1")
    with pytest.raises(DalgError):
        dp_div_exact(_parse("y1 + 1"), _parse("y1'"))
    with pytest.raises(DalgError):
        dp_div_exact(_parse("y1"), _parse("0"))


def test_gcd_random_common_factor():
    rng = random.Random(43)
    jets = [JetVar.y(1), JetVar.y(1, 1)]
    for _ in range(40):
        g = rand_poly(rng, F, jets, max_terms=2, max_deg=2)
        if g.total_degree() < 1:
            continue
        a = rand_poly(rng, F, jets, max_terms=2, max_deg=1) * g
        b = rand_poly(rng, F, jets, max_terms=2, max_deg=1) * g
        got = dp_gcd(a, b)
        assert not dp_div_exact(got, dp_gcd(got, g.normalize())).is_zero()
        dp_div_exact(a.normalize(), dp_gcd(got, g.normalize()))


def test_elim_algebraic_square_root():
    ann = elim_algebraic(parse_poly("y2' - y1", FX), parse_poly("y1^2 - x", FX))
    assert ann.poly == parse_poly("y2'^2 - x", FX)
    assert ann.target == "y2" and ann.order == 1
    bc = ann.bounds_checked
    assert bc["d_y2"] == (2, 2) and bc["d_x"] == (1, 1) and bc["d"] == (2, 4)
    for got, bound in bc.values():
        assert got <= bound
    g = newton_algebraic_series(parse_poly("y1^2 - x", FX), 1, 16, point=1)
    f = series_integrate(g, 0)
    rec = verify_annihilator(ann, {"y2": f})
    assert rec["certified"]


def test_elim_algebraic_polynomial_case():
    ann = elim_algebraic(parse_poly("y2' - y1^2", FX), parse_poly("y1 - x", FX))
    assert ann.poly == parse_poly("y2' - x^2", FX)


def test_elim_algebraic_rejects_shared_factor():
    with pytest.raises(HypothesisError):
        elim_algebraic(parse_poly("y1^2 - x", FX), parse_poly("y1^2 - x", FX))


def test_elim_hyperexp_gaussian():
    ann = elim_hyperexp(parse_poly("y2 - y1", FX), parse_poly("2*x", FX),
                        parse_poly("1", FX))
    assert ann.poly == parse_poly("y2' - 2*x*y2", FX)
    bc = ann.bounds_checked
    assert bc["d_y2"] == (1, 2) and bc["d_x"] == (1, 1) and bc["d"] == (1, 2)
    rec = verify_annihilator(ann, {"y2": witness("exp_x2", 16)})
    assert rec["certified"] and rec["residual_valuation"] >= 15


def test_elim_hyperexp_square_of_exp():
    ann = elim_hyperexp(parse_poly("y2 - y1^2", FX), parse_poly("1", FX),
                        parse_poly("1", FX))
    assert ann.poly == parse_poly("y2'^2 - 4*y2*y2' + 4*y2^2", FX)


def test_elim_hyperexp_hypothesis_errors():
    with pytest.raises(HypothesisError):
        elim_hyperexp(parse_poly("y2 - x", FX), parse_poly("1", FX),
                      parse_poly("1", FX))
    with pytest.raises(HypothesisError):
        elim_hyperexp(parse_poly("y2 - y1", FX), parse_poly("2*x", FX),
                      parse_poly("4*x", FX))


def test_elim_x_parabola():
    ann = elim_x(parse_poly("y1 - x^2", FX))
    assert ann.poly == parse_poly("y1'^2 - 4*y1", FX)
    bc = ann.bounds_checked
    assert bc["order"] == (1, 1) and bc["d"] == (2, 4)
    wit = SeriesQ.from_fractions(FX, [0, 0, 1] + [0] * 14, 16)
    rec = verify_annihilator(ann, {"y1": wit})
    assert rec["certified"] and rec["residual_valuation"] >= 15


def test_elim_x_direct_derivative_shortcut():
    ann = elim_x(parse_poly("y1' - x", FX))
    assert ann.poly == parse_poly("y1'' - 1", FX)
    assert ann.bounds_checked["order"] == (2, 2)


def test_elim_x_rational_and_cubic():
    assert elim_x(parse_poly("y1*x - 1", FX)).poly == \
        parse_poly("y1^2 + y1'", FX)
    ann = elim_x(parse_poly("z - x^3", FX))
    assert ann.poly == parse_poly("z'^3 - 27*z^2", FX)
    assert ann.target == "z"


def test_elim_x_requires_x():
    with pytest.raises(DalgError):
        elim_x(parse_poly("y1' - y1", FX))


def test_prepare_primitive_separable():
    top = JetVar.y(1, 1)
    cases = [
        ("(y1' - y1)^2", "y1' - y1"),
        ("x*(y1' - y1)", "y1' - y1"),
        ("y1'^2*(y1' - 1)", "y1'^2 - y1'"),
        ("y1*(y1' - y1)", "y1' - y1"),
        ("y1'^2*(y1' - 1)^3*y1", "y1'^2 - y1'"),
    ]
    for raw, want in cases:
        got = prepare_primitive_separable(parse_poly(raw, FX), top)
        assert got == parse_poly(want, FX)
        assert prepare_primitive_separable(got, top) == got
    with pytest.raises(DalgError):
        prepare_primitive_separable(parse_poly("0", FX), top)
