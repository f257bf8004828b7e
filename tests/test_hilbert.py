"""Hilbert functions of homogeneous ideals: hand values, the regular
closed form, regular-sequence detection, and the D-regularity check."""

import random
from fractions import Fraction

import pytest

from dalg import (DPoly, JetVar, field_from_label, get_field, parse_poly,
                  parse_system)
from dalg import hilbert
from dalg.dpoly import mono_mul
from dalg.errors import BudgetExceededError, DalgError
from dalg.hilbert import (check_dregular, check_regular_sequence, hf,
                          hs_regular_closed_form)
from dalg.linalg import (MacaulayLayers, SparseEliminator, modp_rank,
                         monomial_count, ring_vars)
from dalg.system import prolong

from oracles import (DEFAULT_JETS, as_fraction, degree_monomials, dense_rank,
                     layer_columns, layer_rows, rand_poly)

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
            columns, _ = layer_columns(layers, k)
            col_pos = {m: i for i, m in enumerate(columns)}
            # the oracle rows are mu * g from the generators themselves,
            # not the layer's cleared rows
            rows = [{col_pos[mono_mul(mu, m)]: as_fraction(F, c)
                     for m, c in gens[gi].terms.items()}
                    for gi, mu, _ in layer_rows(layers, k)]
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


def _random_homogeneous_systems(seed, count, field=F):
    rng = random.Random(seed)
    for _ in range(count):
        gens = []
        while len(gens) < 3:
            g = rand_poly(rng, field, DEFAULT_JETS[:3], max_terms=3, max_deg=2)
            if g.total_degree():
                gens.append(g.homogenize())
        yield gens, ring_vars(gens)


def _prefix_layers(field, gens, varkeys):
    """MacaulayLayers of gens[:i] for i = 1..len(gens), indexed by i: a
    prefix has the same columns and the same rows as the first blocks
    of the full layer."""
    return {i: MacaulayLayers(field, gens[:i], varkeys)
            for i in range(1, len(gens) + 1)}


def test_running_modp_ranks_give_every_prefix_rank():
    # the running rank at the last row of generator i is the mod-p rank of
    # gens[:i] fed alone, and for these small integer systems its exact rank
    for gens, varkeys in _random_homogeneous_systems(41, 12):
        layers = MacaulayLayers(F, gens, varkeys)
        prefixes = _prefix_layers(F, gens, varkeys)
        for k in range(5):
            ncols = monomial_count(len(varkeys), k)
            running = modp_rank(layers.rows(k), ncols)
            assert len(running) == layers.nrows(k)
            for i in range(1, len(gens) + 1):
                nr = layers.nrows(k, i)
                at_boundary = running[nr - 1] if nr else 0
                alone = modp_rank(prefixes[i].rows(k), ncols)
                assert at_boundary == (alone[-1] if nr else 0)
                assert at_boundary == prefixes[i].eliminate(k)[0].rank


@pytest.mark.parametrize("label", ["Qi", "Q(a;)"])
def test_exact_running_ranks_give_every_prefix_rank(label):
    # one exact pass per degree: the running rank at the last row of
    # generator i is the rank of gens[:i] eliminated alone, and the
    # regularity check reads its HF values from those ranks
    field = field_from_label(label)
    for gens, varkeys in _random_homogeneous_systems(47, 8, field):
        layers = MacaulayLayers(field, gens, varkeys)
        prefixes = _prefix_layers(field, gens, varkeys)
        v, cutoff = len(varkeys), 4
        rep = check_regular_sequence(gens, varkeys, cutoff)
        for k in range(cutoff + 1):
            running = layers.ranks(k)
            assert len(running) == layers.nrows(k)
            for i in range(1, len(gens) + 1):
                nr = layers.nrows(k, i)
                rank = prefixes[i].eliminate(k)[0].rank
                assert (running[nr - 1] if nr else 0) == rank
                assert rep.hf_values[i][k] == monomial_count(v, k) - rank


def _sum_system_layers():
    spec = parse_system("field: Q\ntarget: z\ny1' - y1\ny2' - 1 - y2^2\n"
                        "z - y1 - y2\n")
    gens = [g.homogenize() for g in prolong(spec, 1)]
    return MacaulayLayers(F, gens, ring_vars(gens))


@pytest.mark.parametrize("label", ["Q", "Qi", "Q(a;)"])
def test_block_order_keeps_every_prefix_rank(label):
    # rows() feeds each generator's block by descending multiplier,
    # which on these layers (no last block) is descending leading column;
    # at each generator's last row its running ranks equal those of the
    # rows in generator and multiplier order: mod p over Q, and exact
    # (MacaulayLayers.ranks) over every field
    field = field_from_label(label)
    cases = [MacaulayLayers(field, gens, varkeys) for gens, varkeys
             in _random_homogeneous_systems(53, 6, field)]
    if label == "Q":
        cases.append(_sum_system_layers())
    for layers in cases:
        for k in range(5):
            ncols = monomial_count(len(layers.varkeys), k)
            old = [row for _, _, row in layer_rows(layers, k)]
            elim = SparseEliminator(ncols, field)
            old_exact = []
            for row in old:
                elim.add_row(row)
                old_exact.append(elim.rank)
            exact = layers.ranks(k)
            if label == "Q":
                old_modp = modp_rank(old, ncols)
                block = modp_rank(layers.rows(k), ncols)
            for i in range(1, len(layers.degs) + 1):
                nr = layers.nrows(k, i)
                if not nr:
                    continue
                assert exact[nr - 1] == old_exact[nr - 1], (k, i)
                if label == "Q":
                    assert block[nr - 1] == old_modp[nr - 1], (k, i)


def test_nonregular_pair_fails_first_at_generator_2_degree_3():
    # the benchmark's nonregular pair: the block-ordered pre-screen and
    # the exact ranks it falls back to keep the first failure at (2, 3),
    # with HF equal to the regular closed form below degree 3 and above
    # it at degree 3
    spec = parse_system("field: Q\ntarget: y2\ny1*y2' - 2*y1*y2\n"
                        "y1*y1' - 3*y1\n")
    rep = check_dregular(spec, 0, cutoff=5)
    assert not rep.regular
    assert rep.regseq.failure() == (2, 3)
    hfs = [rep.profile.values[k] for k in range(6)]
    closed = [rep.profile.closed_form[k] for k in range(6)]
    assert hfs[:3] == closed[:3] and hfs[3] > closed[3]


def test_regular_sequence_matches_exact_prefix_ranks():
    # verdicts and HF values against every prefix eliminated exactly
    for gens, varkeys in _random_homogeneous_systems(43, 12):
        prefixes = _prefix_layers(F, gens, varkeys)
        v, cutoff = len(varkeys), 4
        rank = {(0, k): 0 for k in range(cutoff + 1)}
        for i in range(1, len(gens) + 1):
            for k in range(cutoff + 1):
                rank[i, k] = prefixes[i].eliminate(k)[0].rank
        rep = check_regular_sequence(gens, varkeys, cutoff)
        for p in rep.prefixes:
            i, d = p.index, p.degree
            for k in range(cutoff + 1):
                upper = rank[i - 1, k] + (
                    monomial_count(v, k - d) - rank[i - 1, k - d]
                    if k >= d else 0)
                assert p.verdicts[k] == ("regular" if rank[i, k] == upper
                                         else "failed")
                assert rep.hf_values[i][k] == monomial_count(v, k) - rank[i, k]


def test_regular_sequence_makes_one_modp_pass_per_degree(monkeypatch):
    spec = parse_system("field: Q\ntarget: z\ny1' - y1\ny2' - 1 - y2^2\n"
                        "z - y1 - y2\n")
    gens = [g.homogenize() for g in prolong(spec, 1)]
    varkeys = ring_vars(gens)
    layers = MacaulayLayers(F, gens, varkeys)
    v = len(varkeys)
    calls = []

    def counting(rows, ncols):
        rows = list(rows)
        calls.append((ncols, len(rows)))
        return modp_rank(rows, ncols)

    monkeypatch.setattr(hilbert, "modp_rank", counting)
    rep = check_regular_sequence(gens, varkeys, 5)
    assert rep.regular
    expected = [(monomial_count(v, k), layers.nrows(k))
                for k in range(6) if layers.nrows(k)]
    assert calls == expected


@pytest.mark.parametrize("cutoff", [-1, -2])
def test_regular_sequence_rejects_negative_cutoff(cutoff):
    gens = [parse_poly("y1^2", F)]
    with pytest.raises(DalgError, match="cutoff"):
        check_regular_sequence(gens, [Y1, Y2], cutoff)
    spec = parse_system("field: Q\ntarget: y1\ny1' - y1\n")
    with pytest.raises(DalgError, match="cutoff"):
        check_dregular(spec, 0, cutoff=cutoff)


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


def _interpolation_degree(xs, ys):
    """Degree of the Fraction polynomial through the points (xs, ys), or
    None when it needs every point (degree len(xs) - 1)."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, den = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                # basis *= (x - xj), coefficients ascending
                basis = [u - xj * w for u, w in zip([0] + basis, basis + [0])]
                den *= xi - xj
        for e, w in enumerate(basis):
            coeffs[e] += yi * w / den
    deg = max((e for e, c in enumerate(coeffs) if c), default=0)
    return None if deg == len(xs) - 1 else deg


@pytest.mark.parametrize("text", [
    "target: z\ny1' - y1\ny2' - 1 - y2^2\nz - y1 - y2\n",
    "target: z\ny1' - y1\ny2' - y2\nz - y1*y2\n",
    "target: y2\ny1*y2' - 2*y1*y2\ny1*y1' - 3*y1\n"],
    ids=["sum", "prod", "nonregular"])
@pytest.mark.parametrize("rho", range(3))
def test_fitted_degree_is_the_interpolation_degree(text, rho):
    # the fit reads the last (at most 5) HF values up to the cutoff;
    # fit_stable would need HF(cutoff + 1), which no report holds
    spec = parse_system("field: Q\n" + text)
    for cutoff in range(8):
        try:
            rep = check_dregular(spec, rho, cutoff=cutoff)
        except BudgetExceededError:
            # a larger cutoff only adds larger layers
            assert cutoff >= 5
            break
        window = range(max(0, cutoff - 4), cutoff + 1)
        assert rep.fitted_degree == _interpolation_degree(
            list(window), [rep.profile.values[k] for k in window])
        assert rep.fit_stable is None


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


def test_empty_variable_list_is_a_dalg_error():
    # no monomial count exists for a ring without variables
    gens = [parse_poly("3", F)]
    with pytest.raises(DalgError, match="at least one variable"):
        hf(gens, [], 2)
    with pytest.raises(DalgError, match="at least one variable"):
        check_regular_sequence(gens, [], 2)
