"""Metamorphic lift: a system over Q and its lift into a larger field
find the same annihilator.

Lifting maps each rational coefficient into the larger field (the
Q/sympy boundary in series._embed).  The layers keep their span and
column order, and the normal form of a polynomial with rational
coefficients is the same over Q, Q(i), Q(a;) and Q(i)(a;x) (see
dpoly.normalize).  So every lift must print the annihilator found over
Q byte for byte, with a certificate that replays in the larger field,
and the same Hilbert-function profile.
"""

import random

import pytest

from dalg import DPoly, JetVar, field_from_label, get_field, parse_poly
from dalg.eliminate import (Annihilator, composition_system, eliminate_search,
                            rational_system, sum_product_system)
from dalg.hilbert import check_dregular
from dalg.series import _embed
from dalg.system import SystemSpec

from oracles import rand_poly

Q = get_field("Q")
LIFTS = ["Qi", "Q(a;)", "Qi(a;x)"]


def _p(text):
    return parse_poly(text, Q)


def _presets():
    """(name, system over Q, r, k_max) of closure presets at small k."""
    return [
        ("prod", sum_product_system([(_p("y1' - y1"), 1), (_p("y2' - 3*y2"), 1)],
                                    _p("y1*y2")), 1, 3),
        ("sum", sum_product_system([(_p("y1' - y1"), 1), (_p("y2' + 2*y2"), 1)],
                                   _p("y1 + y2")), 2, 3),
        ("quot", rational_system([(_p("y1' - 2*y1"), 1), (_p("y2' - 2*y2"), 1)],
                                 _p("y1"), _p("1 + y2")), 2, 3),
        ("comp", composition_system(_p("y1' - y1"), _p("y2' - 1")), 2, 3),
    ]


def _random_systems(n):
    """Riccati-type systems from the oracles' random polynomials:
    y1' = R(y1) with R quadratic, y2 = S(y1), target y2."""
    rng = random.Random(7)
    y1, y1p, y2 = (DPoly.var(Q, v)
                   for v in (JetVar.y(1), JetVar.y(1, 1), JetVar.y(2)))
    out = []
    for s in range(n):
        ric = y1p - rand_poly(rng, Q, [JetVar.y(1)], max_terms=3, max_deg=2)
        rel = y2 - rand_poly(rng, Q, [JetVar.y(1)], max_terms=2, max_deg=2)
        out.append((f"rand{s}", SystemSpec(field=Q, gens=(ric, rel),
                                           target="y2"), 1, 4))
    return out


CASES = _presets() + _random_systems(6)


def _lift(system, field):
    gens = tuple(DPoly(field, {m: _embed(c, Q, field)
                               for m, c in g.terms.items()})
                 for g in system.gens)
    return SystemSpec(field=field, gens=gens, target=system.target,
                      mode=system.mode)


def _outcome(res):
    if isinstance(res, Annihilator):
        assert res.membership_certified
        return (str(res.poly), res.order, res.degree, res.k_searched)
    return [(a.k, a.rows, a.cols) for a in res.attempts]


@pytest.mark.parametrize("name, system, r, k_max", CASES,
                         ids=[c[0] for c in CASES])
def test_lift_keeps_the_annihilator(name, system, r, k_max):
    want = _outcome(eliminate_search(system, system.target, r, k_max))
    for label in LIFTS:
        lifted = _lift(system, field_from_label(label))
        got = _outcome(eliminate_search(lifted, system.target, r, k_max))
        assert got == want, (name, label)
    # every case finds an annihilator within k_max
    assert isinstance(want, tuple)


@pytest.mark.parametrize("name, system", [c[:2] for c in CASES[:3]],
                         ids=[c[0] for c in CASES[:3]])
def test_lift_keeps_the_hilbert_profile(name, system):
    def profile(spec):
        rep = check_dregular(spec, 0, cutoff=4)
        return (rep.regular, rep.regseq.failure(), rep.profile.values)

    want = profile(system)
    for label in LIFTS:
        assert profile(_lift(system, field_from_label(label))) == want, label
