"""End-to-end acceptance checks, one per shipped guarantee.

Every test is standalone and uses exact arithmetic; equality is exact
unless a series truncation order is stated.  Run with -v for one
pass/fail line per criterion.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

from dalg import DPoly, JetVar, get_field, parse_poly, parse_system
from dalg.bounds import (composition_bound, curve, relation_experiment,
                         sufficiency_k, theorem_bound)
from dalg.eliminate import (Annihilator, NotFoundUpTo, composition_system,
                            eliminate_search, sum_product_system)
from dalg.hilbert import (check_dregular, check_regular_sequence, hf,
                          hs_regular_closed_form)
from dalg.resultant import elim_algebraic, elim_hyperexp, elim_x, resultant
from dalg.series import (SeriesQ, apply_dpoly, newton_algebraic_series,
                         series_arith, series_integrate, solve_ode_series,
                         verify_annihilator, witness)

from oracles import DEFAULT_JETS, as_fraction, degree_monomials, rand_poly

F = get_field("Q")
FX = get_field("Q", has_x=True)


def _random_form(rng, keys, d):
    p = DPoly.zero(F)
    for mono in degree_monomials(keys, d):
        c = rng.randint(-5, 5)
        if c:
            p = p + DPoly(F, {mono: F.q(c)}, _raw=True)
    return p


def test_criterion_01_closed_form_hilbert_function_vs_macaulay_rank():
    """For a verified-regular random pair of forms of degrees (2,3) in 3
    variables, hf(k) equals the coefficient of (1-t^2)(1-t^3)/(1-t)^3
    for every k <= 10."""
    rng = random.Random(20260814)
    vars_ = [JetVar.y(1), JetVar.y(2), JetVar.y(3)]
    keys = sorted(v.key for v in vars_)
    gens = [_random_form(rng, keys, d) for d in (2, 3)]
    rep = check_regular_sequence(gens, vars_, cutoff=10)
    assert rep.regular, "the random (2,3) pair must verify as regular"
    closed = hs_regular_closed_form([2, 3], 3, 10)
    assert [hf(gens, vars_, k) for k in range(11)] == closed


def test_criterion_02_sufficiency_never_exceeds_closed_form_bound():
    """The exact counting threshold is at most the closed-form bound on
    the full grid d in 1..4, r_min in 1..4, r_l in 0..r_min,
    r in r_min..r_min+4."""
    for d in range(1, 5):
        for r_min in range(1, 5):
            for r_l in range(0, r_min + 1):
                for r in range(r_min, r_min + 5):
                    assert sufficiency_k(d, r_min, r_l, r) <= \
                        theorem_bound(d, r_min, r_l, r).k_min


def test_criterion_03_hand_valued_bounds():
    """theorem_bound(2,2,1,2) = 10 with threshold 9;
    composition_bound(1,1,2,2) = 70 with threshold 69."""
    tb = theorem_bound(2, 2, 1, 2)
    assert tb.k_min == 10 and str(tb.threshold_fraction) == "9"
    k_min = composition_bound(1, 1, 2, 2)
    assert k_min == 70 and k_min - 1 == 69


def test_criterion_04_product_closure_linear_annihilator():
    """{y1'-y1, y2'-y2, z-y1*y2} yields the degree-1 annihilator z'-2z,
    membership-certified and series-certified with residual valuation
    >= 19 at truncation 20."""
    comps = [(parse_poly("y1' - y1", F), 1), (parse_poly("y2' - y2", F), 1)]
    system = sum_product_system(comps, parse_poly("y1*y2", F))
    ann = eliminate_search(system, "z", 1, 4)
    assert isinstance(ann, Annihilator)
    assert ann.poly == parse_poly("z' - 2*z", F)
    assert ann.degree == 1
    assert ann.membership_certified
    rec = verify_annihilator(ann, {"z": witness("exp2x", 20)})
    assert rec["certified"] and rec["residual_valuation"] >= 19


def test_criterion_05_sum_closure_within_sufficiency_bound():
    """{y1'-y1, y2'-1-y2^2, z-y1-y2} yields an order <= 2 annihilator at
    a layer degree within sufficiency_k(2,2,0,2), series-certified at
    truncation 24 with residual valuation >= 21."""
    comps = [(parse_poly("y1' - y1", F), 1),
             (parse_poly("y2' - 1 - y2^2", F), 1)]
    system = sum_product_system(comps, parse_poly("y1 + y2", F))
    ann = eliminate_search(system, "z", 2, 6)
    assert isinstance(ann, Annihilator)
    assert ann.order <= 2
    assert ann.k_searched <= sufficiency_k(2, 2, 0, 2)
    wit = series_arith("add", witness("exp", 24), witness("tan", 24))
    rec = verify_annihilator(ann, {"z": wit})
    assert rec["certified"] and rec["residual_valuation"] >= 21


def test_criterion_06_quartic_pair_and_its_closed_form_solutions():
    """(a) the two-parameter polynomial family solves both y^2 + y'^4
    and (-1)^k i y'^2 + y exactly over Q(i) with a symbolic parameter;
    (b) with the solution shapes fixed, one prolongation already meets
    the target jets; (c) for the original quartic pair, prolonging
    twice reveals no annihilator up to the tested layer degrees."""
    # (a) w = (1/4)(-1)^k i x^2 + a x + (-1)^(k+1) i a^2
    FA = get_field("Qi", params=("a",), has_x=True)
    a, x = FA.param("a"), FA.x()
    for k in (0, 1):
        s = FA.i() if k == 0 else -FA.i()
        w = FA.q(1, 4) * s * x * x + a * x - s * a * a
        wp = FA.derive_x(w)
        assert FA.is_zero(w * w + wp * wp * wp * wp)
        assert FA.is_zero(s * wp * wp + w)

    # (b) fixed shapes: exp for y1, quadratic offset for y2 - y1
    FI = get_field("Qi")
    system = parse_system("field: Qi\ntarget: y2\n"
                          "y1' - y1\ni*(y2' - y1')^2 + (y2 - y1)\n")
    ann = eliminate_search(system, "y2", 2, 6)
    assert isinstance(ann, Annihilator)
    assert not ann.poly.is_zero()
    assert set(ann.poly.orders()) == {(1, 2)} and ann.order <= 2
    # witness f2 = exp(x) + (i/4) x^2 + x - i solves the pair with
    # f1 = exp(x) (take k = 0, a = 1 in the family above)
    coeffs = [FI.from_fraction(Fraction(1, factorial(j))) for j in range(25)]
    coeffs[0] = coeffs[0] - FI.i()
    coeffs[1] = coeffs[1] + FI.one
    coeffs[2] = coeffs[2] + FI.i() * FI.q(1, 4)
    f2 = SeriesQ(FI, 0, coeffs, 24)
    rec = verify_annihilator(ann, {"y2": f2})
    assert rec["certified"]

    # (c) the quartic pair itself stays silent through two prolongations
    quartic = parse_system("field: Q\ntarget: y2\n"
                           "y1*y1'' - y1'^2\n(y2 - y1)^2 + (y2' - y1')^4\n")
    res = eliminate_search(quartic, "y2", 3, 6)
    assert isinstance(res, NotFoundUpTo)
    assert res.k_max == 6


def test_criterion_07_regularity_does_not_imply_an_annihilator():
    """(h(P1), h(P2)) verifies regular to cutoff 8, yet the series
    1/(c-x) solves P1 and makes P2 vanish for EVERY second component,
    so the pair admits no annihilator for y2."""
    system = parse_system(
        "field: Q\ntarget: y2\n"
        "y1'' - 2*y1*y1'\n(y1' - y1^2)*y2'^2 - y1''*(y1' - y1^2)*y2\n")
    rep = check_dregular(system, 0, cutoff=8)
    assert rep.regular
    # witness 1/(2-x): the c = 2 member of the family, via y' = y^2
    w = solve_ode_series(parse_poly("y1' - y1^2", F), [Fraction(1, 2)], 12)
    assert [as_fraction(w.field, w.coefficient(j)) for j in range(13)] == \
        [Fraction(1, 2 ** (j + 1)) for j in range(13)]
    p1, p2 = system.gens
    assert apply_dpoly(p1, {"y1": w}).is_zero_to_truncation()
    for g in (witness("tan", 12), witness("geom", 12)):
        assert apply_dpoly(p2, {"y1": w, "y2": g}).is_zero_to_truncation()


def test_criterion_08_resultant_eliminations_with_certificates():
    """elim_algebraic, elim_hyperexp, and elim_x reproduce the pinned
    annihilators, satisfy their runtime-asserted degree bounds, and
    series-certify against their witnesses."""
    alg = elim_algebraic(parse_poly("y2' - y1", FX),
                         parse_poly("y1^2 - x", FX))
    assert alg.poly == parse_poly("y2'^2 - x", FX)
    g = newton_algebraic_series(parse_poly("y1^2 - x", FX), 1, 16, point=1)
    rec = verify_annihilator(alg, {"y2": series_integrate(g, 0)})
    assert rec["certified"]

    hyp = elim_hyperexp(parse_poly("y2 - y1", FX), parse_poly("2*x", FX),
                        parse_poly("1", FX))
    assert hyp.poly == parse_poly("y2' - 2*x*y2", FX)
    rec = verify_annihilator(hyp, {"y2": witness("exp_x2", 16)})
    assert rec["certified"]

    exx = elim_x(parse_poly("y1 - x^2", FX))
    assert exx.poly == parse_poly("y1'^2 - 4*y1", FX)
    rec = verify_annihilator(
        exx, {"y1": SeriesQ.from_fractions(FX, [0, 0, 1] + [0] * 14, 16)})
    assert rec["certified"]

    for ann in (alg, hyp, exx):
        assert ann.bounds_checked
        for got, bound in ann.bounds_checked.values():
            assert got <= bound


def test_criterion_09_composition_closure():
    """Composing exp with exp: the chained-jet system plus elimination
    finds an order-2 annihilator whose terms are all degree-2
    homogeneous, so the rescaled witness exp(exp(x)-1) certifies it
    with residual valuation >= 21 at truncation 24."""
    system = composition_system(parse_poly("y1' - y1", F),
                                parse_poly("y2' - y2", F))
    ann = eliminate_search(system, "z", 2, 6)
    assert isinstance(ann, Annihilator)
    assert ann.order == 2
    assert ann.poly.is_homogeneous() and ann.poly.total_degree() == 2
    rec = verify_annihilator(ann, {"z": witness("expexp", 24)})
    assert rec["certified"] and rec["residual_valuation"] >= 21


def test_criterion_10_random_relation_experiment():
    """Seeded experiments: n=1, d=3 observes a relation at k=3 with
    counting bound 4 = (n+1)(d^n - 1); n=2, d=2 observes k=4 against
    the closed-form bound 9 — the observed k >= d^n gap."""
    rep = relation_experiment(1, 3, 42)
    assert rep.k_observed == 3
    assert rep.k_counting == 4 and rep.k_theorem_bound == 4
    rep2 = relation_experiment(2, 2, 42)
    assert rep2.k_observed == 4
    assert rep2.k_theorem_bound == 9
    assert rep2.k_observed >= 2 ** 2  # relation appears by d^n already


def test_criterion_11_property_suites_200_instances_each():
    """Leibniz rule, homogenize/derive commutation, degree preservation
    under derivation, parse round-trip, and resultant multiplicativity,
    each on >= 200 seeded random instances."""
    fields = [F, get_field("Qi", params=("c",), has_x=True)]

    rng = random.Random(1101)
    for n in range(200):
        fl = fields[n % 2]
        p, q = (rand_poly(rng, fl, DEFAULT_JETS) for _ in range(2))
        assert (p * q).derive() == p.derive() * q + p * q.derive()

    rng = random.Random(1102)
    done = 0
    while done < 200:
        fl = fields[done % 2]
        p = rand_poly(rng, fl, DEFAULT_JETS)
        if p.total_degree() < 1:
            continue
        assert p.derive().homogenize() == p.homogenize().derive()
        done += 1

    rng = random.Random(1103)
    done = 0
    while done < 200:
        fl = fields[done % 2]
        p = rand_poly(rng, fl, DEFAULT_JETS)
        if p.total_degree() < 1:
            continue
        assert p.derive().total_degree() == p.total_degree()
        done += 1

    rng = random.Random(1104)
    for n in range(200):
        fl = fields[n % 2]
        p = rand_poly(rng, fl, DEFAULT_JETS)
        assert parse_poly(str(p), fl) == p

    rng = random.Random(1105)
    z = JetVar.z()
    jets = [JetVar.y(1), JetVar.y(1, 1)]
    done = 0
    while done < 200:
        polys = []
        for _ in range(3):
            p = DPoly.zero(F)
            for e in range(3):
                if rng.random() < 0.7:
                    c = rand_poly(rng, F, jets, max_terms=2, max_deg=1)
                    p = p + c * parse_poly("z", F) ** e
            polys.append(p)
        p, q, r = polys
        if min(p.degree_in(z), q.degree_in(z), r.degree_in(z)) < 1:
            continue
        assert resultant(p * q, r, z) == resultant(p, r, z) * resultant(q, r, z)
        done += 1


def test_criterion_12_order_degree_curve_monomial_count_drops():
    """The name records the claim under examination: that the
    order/degree trade-off scan for d=2, r_min=2, r_l=1 over r = 2..8
    starts with a strict decrease in monomial count.  The scan disproves
    it.  Raising the order first lowers the guaranteed degree k_min, but
    the ansatz size C(k_min+r+1, r+1) rises from the first step.

    Both columns are checked against oracles that do not go through
    dalg.bounds: k_min is the exact onset of the counting inequality
    C(r+1+k, r+1) > d^(r-r_l+1) * C(r_min+k, k), and monomial_count is
    the number of monomials of degree exactly k_min in r+2 symbols, the
    homogenized form of a degree <= k_min ansatz in z, ..., z^(r)."""
    d, r_min, r_l = 2, 2, 1
    pts = curve(d, r_min, r_l, 2, 8)
    assert [p.r for p in pts] == list(range(2, 9))

    def counting(r, k):
        return comb(r + 1 + k, r + 1) > d ** (r - r_l + 1) * comb(r_min + k, k)

    for p in pts:
        assert counting(p.r, p.k_min) and not counting(p.r, p.k_min - 1), p
        enumerated = sum(1 for _ in combinations_with_replacement(
            range(p.r + 2), p.k_min))
        assert p.monomial_count == enumerated, p

    counts = [p.monomial_count for p in pts]
    k_mins = [p.k_min for p in pts]
    assert k_mins[1] < k_mins[0], f"k_min={k_mins}"
    assert k_mins == [10, 7, 6, 6, 7, 7, 7]
    assert counts == [286, 330, 462, 924, 3432, 6435, 11440]
    assert counts[1] > counts[0], (
        "expected monomial_count to rise at the first step (the disproof), "
        f"got counts={counts} with k_min={k_mins}")
