"""Metamorphic transformations: a system over Q, lifted into a larger
field, with its generators permuted or scaled, finds the same
annihilator.

Lifting maps each rational coefficient into the larger field (the
Q/sympy boundary in series._embed).  None of the transformations
changes the span of a Macaulay layer or its column order, and the
normal form of a polynomial with rational coefficients is the same over
Q, Q(i), Q(a;) and Q(i)(a;x) (see dpoly.normalize).  So every
transformation must print the annihilator found over Q byte for byte,
with a certificate that replays in its field, and keep the Hilbert
function of the full ideal.  Scaling also keeps every prefix ideal, so
it keeps the regularity verdict and the first failure; a permutation
changes the prefixes and may move the failure.
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
# name: (field label, scalars, reversed); generator j of the lifted
# system is multiplied by scalars[j % len(scalars)], and with reversed
# the generator order is reversed
TRANSFORMS = {
    "Qi": ("Qi", (), False),
    "Q(a;)": ("Q(a;)", (), False),
    "Qi(a;x)": ("Qi(a;x)", (), False),
    "reversed": ("Q", (), True),
    "scaled": ("Q", ("-2/3",), False),
    "Qi-scaled": ("Qi", ("i", "1 + i"), False),
    "Q(a;)-scaled": ("Q(a;)", ("a + 1",), False),
}


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


def _transform(system, name):
    label, scalars, reverse = TRANSFORMS[name]
    field = field_from_label(label)
    gens = [DPoly(field, {m: _embed(c, Q, field) for m, c in g.terms.items()})
            for g in system.gens]
    if scalars:
        gens = [g * parse_poly(scalars[j % len(scalars)], field)
                for j, g in enumerate(gens)]
    if reverse:
        gens.reverse()
    return SystemSpec(field=field, gens=tuple(gens), target=system.target,
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
    for t in TRANSFORMS:
        got = _outcome(eliminate_search(_transform(system, t), system.target,
                                        r, k_max))
        assert got == want, (name, t)
    # every case finds an annihilator within k_max
    assert isinstance(want, tuple)


# presets at rho = 0, and the random systems at rho = 1, where rand1 and
# rand5 are not regular
PROFILES = ([(name, system, 0) for name, system, *_ in CASES[:3]]
            + [(name, system, 1) for name, system, *_ in CASES
               if name.startswith("rand")])


@pytest.mark.parametrize("name, system, rho", PROFILES,
                         ids=[c[0] for c in PROFILES])
def test_lift_keeps_the_hilbert_profile(name, system, rho):
    def profile(spec):
        rep = check_dregular(spec, rho, cutoff=4)
        return rep.profile.values, rep.regular, rep.regseq.failure()

    want = profile(system)
    assert want[1] == (name not in ("rand1", "rand5"))
    for t, (_, _, reverse) in TRANSFORMS.items():
        got = profile(_transform(system, t))
        # a permutation keeps only the Hilbert function of the full ideal
        n = 1 if reverse else 3
        assert got[:n] == want[:n], t
