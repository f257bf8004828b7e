"""Hilbert functions of homogeneous ideals: hand values, the regular
closed form, regular-sequence detection, and the D-regularity check."""

import random

import pytest

from dalg import DPoly, JetVar, get_field, parse_poly, parse_system
from dalg.dpoly import mono_mul
from dalg.hilbert import (check_dregular, check_regular_sequence, hf,
                          hs_regular_closed_form)
from dalg.linalg import MacaulayLayers, degree_monomials, monomial_count

from oracles import dense_rank

F = get_field("Q")
Y1, Y2, Y3 = JetVar.y(1), JetVar.y(2), JetVar.y(3)


def test_hf_of_free_ring():
    assert [hf([], [Y1, Y2], k) for k in range(5)] == [1, 2, 3, 4, 5]


def test_hf_principal_square():
    # K[y1,y2]/(y1^2): degree-k monomials with y1-exponent <= 1
    gens = [parse_poly("y1^2", F)]
    assert [hf(gens, [Y1, Y2], k) for k in range(6)] == [1, 2, 2, 2, 2, 2]


def test_hf_complete_intersection_two_quadrics():
    # (1-t^2)^2/(1-t)^2 = (1+t)^2 -> 1, 2, 1, 0, ...
    gens = [parse_poly("y1^2", F), parse_poly("y2^2", F)]
    assert [hf(gens, [Y1, Y2], k) for k in range(5)] == [1, 2, 1, 0, 0]


def test_closed_form_matches_binomial_identities():
    assert hs_regular_closed_form([], 3, 4) == [
        monomial_count(3, k) for k in range(5)]
    assert hs_regular_closed_form([2, 2], 2, 4) == [1, 2, 1, 0, 0]
    # (1-t^2)(1-t^3)/(1-t)^3 = (1+t)(1+t+t^2)/(1-t): partial sums of
    # 1+2t+2t^2+t^3, settling at the degree product 2*3 = 6
    assert hs_regular_closed_form([2, 3], 3, 6) == [1, 3, 5, 6, 6, 6, 6]


def test_macaulay_rank_matches_dense_oracle():
    rng = random.Random(31)
    varkeys = sorted(v.key for v in (Y1, Y2, Y3))
    for _ in range(15):
        gens = []
        for d in (2, 3):
            p = DPoly.zero(F)
            for mono in degree_monomials(varkeys, d):
                c = rng.randint(-4, 4)
                if c:
                    p = p + DPoly(F, {mono: F.q(c)}, _raw=True)
            if p.is_zero():
                p = parse_poly("y1^2", F)
            gens.append(p)
        layers = MacaulayLayers(F, gens, varkeys)
        for k in range(2, 7):
            columns, col_pos, _ = layers.columns(k)
            # the oracle rows are mu * g from the generators themselves,
            # not the layer's cleared rows
            rows = [{col_pos[mono_mul(mu, m)]: F.as_fraction(c)
                     for m, c in gens[gi].terms.items()}
                    for gi, mu, _ in layers.rows(k)]
            assert layers.eliminate(k)[0].rank == dense_rank(rows,
                                                             len(columns))


def test_regular_sequence_accepts_monomial_ci():
    gens = [parse_poly("y1^2", F), parse_poly("y2^3", F)]
    rep = check_regular_sequence(gens, [Y1, Y2, Y3], cutoff=8)
    assert rep.regular
    assert rep.failure() is None


def test_regular_sequence_exact_fallback_when_rows_vanish_mod_p():
    # every row of the first generator vanishes mod 999983, so the mod-p
    # rank falls short of the bound and only exact elimination can match
    vars_ = [Y1, Y2, Y3]
    plain = check_regular_sequence(
        [parse_poly("y1^2", F), parse_poly("y2^3", F)], vars_, cutoff=8)
    scaled = check_regular_sequence(
        [parse_poly("999983*y1^2", F), parse_poly("y2^3", F)], vars_,
        cutoff=8)
    assert scaled.hf_values == plain.hf_values
    assert ([p.verdicts for p in scaled.prefixes]
            == [p.verdicts for p in plain.prefixes])
    assert scaled.regular


def test_regular_sequence_rejects_zerodivisor():
    gens = [parse_poly("y1", F), parse_poly("y1*y2", F)]
    rep = check_regular_sequence(gens, [Y1, Y2], cutoff=6)
    assert not rep.regular
    idx, deg = rep.failure()  # 1-based generator index
    assert idx == 2 and deg >= 1


def test_check_dregular_on_linear_ode_pair():
    spec = parse_system(
        "field: Q\ntarget: z\ny1' - y1\ny2' - y2\nz - y1*y2\n")
    rep = check_dregular(spec, 0, cutoff=6)
    assert rep.regular
    assert rep.n_gens == 3
    assert rep.expected_dimension == rep.n_vars - rep.n_gens - 1


def test_check_dregular_profile_columns():
    spec = parse_system("field: Q\ntarget: y1\ny1'' - 2*y1*y1'\n")
    rep = check_dregular(spec, 0, cutoff=6)
    csv = rep.profile.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "degree,hf,closed_form,verdict"
    assert len(lines) >= 8
    for line in lines[1:]:
        deg, val, cf, verdict = line.split(",")
        assert int(val) == int(cf)
        assert verdict in ("regular", "unchecked")


def test_hf_invariant_under_generator_scaling():
    gens = [parse_poly("y1^2 + y2^2", F)]
    scaled = [g.scale(F.q(-7, 3)) for g in gens]
    for k in range(5):
        assert hf(gens, [Y1, Y2], k) == hf(scaled, [Y1, Y2], k)


def test_hf_rejects_inhomogeneous_or_stray_vars():
    from dalg.errors import DalgError
    with pytest.raises(DalgError):
        hf([parse_poly("y1^2 + y1", F)], [Y1], 2)
    with pytest.raises(DalgError):
        hf([parse_poly("y1*y2", F)], [Y1], 2)
