"""Differential polynomials: ring axioms, derivations, homogenization,
and the parse/print round trip, each on seeded random instances."""

import random

import pytest

from dalg import DPoly, JetVar, field_from_label, get_field, parse_poly
from dalg.dpoly import mono_sort_key
from dalg.errors import ParseError

from oracles import (DEFAULT_JETS, degree_monomials, leading_monomial,
                     rand_coeff, rand_poly)

FIELDS = [
    get_field("Q"),
    get_field("Qi"),
    get_field("Q", params=("a",)),
    get_field("Q", has_x=True),
    get_field("Qi", params=("c",), has_x=True),
]


def _triples(seed, per_field=40):
    rng = random.Random(seed)
    for field in FIELDS:
        for _ in range(per_field):
            yield field, [rand_poly(rng, field, DEFAULT_JETS)
                          for _ in range(3)]


def _nonconstant(seed):
    rng = random.Random(seed)
    while True:
        field = FIELDS[rng.randrange(len(FIELDS))]
        p = rand_poly(rng, field, DEFAULT_JETS)
        if p.total_degree() >= 1:
            yield field, p


def test_ring_axioms_200_instances():
    n = 0
    for field, (p, q, r) in _triples(11):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + DPoly.zero(field) == p
        assert p * DPoly.one(field) == p
        assert p - p == DPoly.zero(field)
        n += 1
    assert n >= 200


def test_leibniz_200_instances():
    n = 0
    for _field, (p, q, _r) in _triples(12):
        for mode in ("standard", "chain"):
            assert (p * q).derive(mode=mode) == \
                p.derive(mode=mode) * q + p * q.derive(mode=mode)
        n += 1
    assert n >= 200


def test_derivative_preserves_degree_200_instances():
    gen = _nonconstant(13)
    for _ in range(200):
        _field, p = next(gen)
        dp = p.derive()
        assert not dp.is_zero()
        assert dp.total_degree() == p.total_degree()


def test_homogenize_derive_commutes_200_instances():
    gen = _nonconstant(14)
    for _ in range(200):
        _field, p = next(gen)
        assert p.derive().homogenize() == p.homogenize().derive()


def test_homogenize_dehomogenize_round_trip():
    rng = random.Random(15)
    for field in FIELDS:
        for _ in range(40):
            p = rand_poly(rng, field, DEFAULT_JETS)
            h = p.homogenize()
            assert h.is_homogeneous()
            assert h.dehomogenize() == p


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.desc.label)
def test_dehomogenize_merges_and_cancels(field):
    # not homogeneous: s*y1 and 2*y1 merge into 3*y1, s^2*y2' and -y2'
    # cancel, s^3 becomes the constant 1 and y1*y2 stays as it is
    p = parse_poly("s*y1 + 2*y1 + s^2*y2' - y2' + s^3 + y1*y2", field)
    assert not p.is_homogeneous() and len(p.terms) == 6
    d = p.dehomogenize()
    assert d == p.substitute({JetVar.s(): 1})
    assert d == parse_poly("3*y1 + 1 + y1*y2", field)


def test_parse_round_trip_200_instances():
    n = 0
    rng = random.Random(16)
    for field in FIELDS:
        for _ in range(40):
            p = rand_poly(rng, field, DEFAULT_JETS)
            assert parse_poly(str(p), field) == p
            n += 1
    assert n >= 200


CORPUS = [
    ("Q", "y1' - y1"),
    ("Q", "(y2 - y1)^2 + (y2' - y1')^4"),
    ("Q", "z - y1*y2"),
    ("Q", "-3*y1^2*y2'' + 1/2*y1 - 7"),
    ("Qi", "i*y1' + y1"),
    ("Qi(c;)", "y1' - c*y1"),
    ("Q(;x)", "y1^2 - x"),
    ("Q(;x)", "y1' - 2*x*y1"),
    ("Qi(a;x)", "y1^2 + y1'^4"),
    ("Q", "s*y1 + s^2"),
]


@pytest.mark.parametrize("label,text", CORPUS)
def test_parse_corpus_round_trip(label, text):
    from dalg import field_from_label
    field = field_from_label(label)
    p = parse_poly(text, field)
    assert parse_poly(str(p), field) == p


def test_parse_rejects_garbage():
    field = get_field("Q")
    for bad in ["", "y1 +", "(y1", "y1 ** 2", "w3", "x + y1", "1/0"]:
        with pytest.raises((ParseError, ZeroDivisionError)):
            parse_poly(bad, field)


def test_partial_and_poly_views():
    field = get_field("Q")
    p = parse_poly("y1^2*y2' + 3*y1 - y2'^2", field)
    v = JetVar.y(2, 1)
    assert p.degree_in(v) == 2
    assert p.partial(v) == parse_poly("y1^2 - 2*y2'", field)
    buckets = p.as_poly_in(v)
    assert sorted(buckets) == [0, 1, 2]
    assert buckets[1] == parse_poly("y1^2", field)
    recomposed = DPoly.zero(field)
    for e, c in buckets.items():
        recomposed = recomposed + c * DPoly.var(field, v) ** e
    assert recomposed == p


def test_substitution_is_a_homomorphism():
    rng = random.Random(17)
    field = get_field("Q")
    jets = [JetVar.y(1), JetVar.y(2)]
    for _ in range(50):
        p = rand_poly(rng, field, jets, max_terms=3, max_deg=2)
        q = rand_poly(rng, field, jets, max_terms=3, max_deg=2)
        target = rand_poly(rng, field, [JetVar.y(3)], max_terms=2, max_deg=2)
        bind = {JetVar.y(1): target, JetVar.y(2): DPoly.one(field)}
        assert (p * q).substitute(bind) == \
            p.substitute(bind) * q.substitute(bind)
        assert (p + q).substitute(bind) == \
            p.substitute(bind) + q.substitute(bind)


def test_chain_mode_twists_only_the_first_family():
    field = get_field("Q")
    p = parse_poly("y1", field)
    assert p.derive(mode="chain") == parse_poly("y2'*y1'", field)
    q = parse_poly("y2", field)
    assert q.derive(mode="chain") == parse_poly("y2'", field)
    z = parse_poly("z - y1", field)
    assert z.derive(mode="chain") == parse_poly("z' - y2'*y1'", field)


def test_leading_monomial_order():
    # within a degree, later varkeys are more significant:
    # y2^2 > y1*y2 > y1^2, and higher degree always wins
    field = get_field("Q")
    assert leading_monomial(parse_poly("y1*y2 + y1^2", field)) == \
        ((JetVar.y(1).key, 1), (JetVar.y(2).key, 1))
    assert leading_monomial(parse_poly("y2^2 + y1*y2", field)) == \
        ((JetVar.y(2).key, 2),)
    assert leading_monomial(parse_poly("y1^3 + y2^2", field)) == \
        ((JetVar.y(1).key, 3),)


GREVLEX_KEYS = (JetVar.s().key, JetVar.y(1).key, JetVar.y(2).key,
                JetVar.y(3).key, JetVar.z().key)


def _dense_grevlex_cmp(u, v):
    """Grevlex on dense exponent vectors over ascending variables: higher
    degree wins, then the smaller exponent at the first differing
    variable."""
    if sum(u) != sum(v):
        return 1 if sum(u) > sum(v) else -1
    for a, b in zip(u, v):
        if a != b:
            return 1 if a < b else -1
    return 0


def test_grevlex_key_matches_dense_comparator():
    rng = random.Random(5)
    for _ in range(3000):
        u, v = ([rng.choice((0, 0, 1, 2, 3)) for _ in GREVLEX_KEYS]
                for _ in range(2))
        if rng.random() < 0.5:
            # equal degrees are where the reverse-lexicographic part decides
            v = u[::-1]
        m1, m2 = (tuple((k, e) for k, e in zip(GREVLEX_KEYS, w) if e)
                  for w in (u, v))
        k1, k2 = mono_sort_key(m1), mono_sort_key(m2)
        assert (k1 > k2) - (k1 < k2) == _dense_grevlex_cmp(u, v)


@pytest.mark.parametrize("k", range(5))
def test_grevlex_key_sorts_degree_monomials(k):
    monos = degree_monomials(GREVLEX_KEYS, k)
    assert sorted(monos, key=mono_sort_key, reverse=True) == monos


@pytest.mark.parametrize("label", ["Q", "Qi", "Qi(c;)", "Q(a;x)", "Qi(a;x)"])
def test_normalize_is_a_normal_form(label):
    # no scalar survives normalize(): units of Z[i] such as i, primes of
    # Z[i] such as 1+i, rationals, and random coefficients of the field
    field = field_from_label(label)
    rng = random.Random(1)
    scalars = [field.q(-2, 3)]
    if field.desc.kind == "Qi":
        scalars += [field.i(), field.one + field.i()]
    for _ in range(100):
        p = rand_poly(rng, field, DEFAULT_JETS, max_terms=5)
        s = rand_coeff(rng, field)
        norm = p.normalize()
        ratios = {norm.terms[m] / c for m, c in p.terms.items()}
        assert norm.terms.keys() == p.terms.keys() and len(ratios) == 1
        assert norm.normalize() == norm
        for c in scalars + ([s] if s else []):
            assert (p * c).normalize() == norm, (str(p), str(c))


def test_normalize_gaussian_leading_unit():
    # the leading coefficient lands in re > 0, im >= 0 whatever the scalar
    field = get_field("Qi")
    p = parse_poly("(1+3*i)*y1'' + (-2+i)*y1' + 1", field)
    for c in ("1", "i", "-1", "1+i", "2-i/3"):
        assert str((p * parse_poly(c, field)).normalize()) == str(p)
