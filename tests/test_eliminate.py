"""Annihilator search by Macaulay-layer elimination: closure presets
(sum, product, quotient, composition), certificates, and bound context."""

import random

import pytest

from dalg import (DPoly, JetVar, field_from_label, get_field, parse_poly,
                  parse_system)
from dalg import eliminate as eliminate_mod
from dalg.eliminate import (Annihilator, AnnihilatorSearch, NotFoundAtK,
                            NotFoundUpTo, composition_system,
                            eliminate_search, find_annihilator,
                            rational_system, sum_product_system)
from dalg.errors import BudgetExceededError, DalgError
from dalg.fields import ring_of
from dalg.linalg import (MacaulayLayers, SparseEliminator, budget_limit,
                         code_shifts, mono_code, mono_decode, monomial_count)
from dalg.series import series_arith, verify_annihilator, witness
from dalg.system import SystemSpec

from oracles import (degree_code_table, degree_monomials, field_replay,
                     layer_columns, layer_rows, rand_poly)

F = get_field("Q")


def _parse(text, field=F):
    return parse_poly(text, field)


def _exp_exp_product():
    comps = [(_parse("y1' - y1"), 1), (_parse("y2' - y2"), 1)]
    return sum_product_system(comps, _parse("y1*y2"))


def test_product_of_exponentials():
    ann = eliminate_search(_exp_exp_product(), "z", 1, 4)
    assert isinstance(ann, Annihilator)
    assert ann.poly == _parse("z' - 2*z")
    assert ann.order == 1 and ann.degree == 1
    assert ann.k_searched == 2
    assert ann.membership_certified
    rec = verify_annihilator(ann, {"z": witness("exp2x", 20)})
    assert rec["certified"] and rec["residual_valuation"] >= 19


def test_product_not_found_in_first_layer():
    res = find_annihilator(_exp_exp_product(), "z", 1, 1)
    assert isinstance(res, NotFoundAtK)
    assert res.k == 1 and res.rows == 4 and res.cols == 9


def _exp_tan_sum():
    comps = [(_parse("y1' - y1"), 1), (_parse("y2' - 1 - y2^2"), 1)]
    return sum_product_system(comps, _parse("y1 + y2"))


def test_sum_of_exp_and_tan():
    system = _exp_tan_sum()
    ann = eliminate_search(system, "z", 2, 6)
    assert isinstance(ann, Annihilator)
    assert ann.order == 2 and ann.degree == 3
    assert ann.k_searched == 4
    assert ann.membership_certified
    assert str(ann.poly) == (
        "4*z'^3 - 12*z*z'^2 + 12*z^2*z' - 4*z^3 - z''^2 + 6*z'*z'' - 8*z'^2"
        " - 4*z*z'' + 10*z*z' - 3*z^2 - 3*z'' + 7*z' - 4*z - 3")
    assert ann.bounds_comparison["theorem_k_min"] == 22
    assert ann.bounds_comparison["sufficiency_k"] == 22
    assert ann.k_searched <= ann.bounds_comparison["sufficiency_k"]
    wit = series_arith("add", witness("exp", 24), witness("tan", 24))
    rec = verify_annihilator(ann, {"z": wit})
    assert rec["certified"] and rec["residual_valuation"] >= 21


def test_quotient_is_logistic():
    comps = [(_parse("y1' - y1"), 1), (_parse("y2' - y2"), 1)]
    system = rational_system(comps, _parse("y1"), _parse("1 + y2"))
    ann = eliminate_search(system, "z", 2, 5)
    assert isinstance(ann, Annihilator)
    assert ann.poly == _parse("2*z'^2 - z*z'' - z*z'")
    assert ann.k_searched == 3
    rec = verify_annihilator(ann, {"z": witness("logistic", 20)})
    assert rec["certified"]


def test_composition_of_exponentials():
    system = composition_system(_parse("y1' - y1"), _parse("y2' - y2"))
    ann = eliminate_search(system, "z", 2, 6)
    assert isinstance(ann, Annihilator)
    assert ann.poly == _parse("z'^2 - z*z'' + z*z'")
    assert ann.order == 2 and ann.k_searched == 4
    assert ann.poly.is_homogeneous() and ann.poly.total_degree() == 2
    rec = verify_annihilator(ann, {"z": witness("expexp", 24)})
    assert rec["certified"] and rec["residual_valuation"] >= 21


def test_gaussian_parameter_system():
    field = get_field("Qi", params=("c",))
    q1 = parse_poly("y1' - c*y1", field)
    q2 = parse_poly("i*(y2' - y1')^2 + (y2 - y1)", field)
    system = parse_system(
        "field: Qi(c;)\ntarget: y2\n"
        "y1' - c*y1\ni*(y2' - y1')^2 + (y2 - y1)\n")
    assert system.gens == (q1, q2)
    ann = eliminate_search(system, "y2", 2, 6)
    assert isinstance(ann, Annihilator)
    assert not ann.poly.is_zero()
    assert ann.order == 2 and ann.degree == 3 and ann.k_searched == 4
    assert len(ann.poly.terms) == 11
    fams = set(ann.poly.orders())
    assert fams == {(1, 2)}
    assert ann.membership_certified
    assert str(ann.poly) == (
        "4*y2'*y2''^2 - 8*c*y2'^2*y2'' + 4*c^2*y2'^3 - 4*c*y2*y2''^2"
        " + 8*c^2*y2*y2'*y2'' - 4*c^3*y2*y2'^2 + 4*i*c*y2'^2"
        " - 8*i*c^2*y2*y2' + 4*i*c^3*y2^2 + y2' - c*y2")


def _parameter_sum():
    field = get_field("Q", params=("a",))
    comps = [(_parse("y1' - 1/2*a*y1", field), 1),
             (_parse("y2' - 2/3*y2", field), 1)]
    return sum_product_system(comps, _parse("y1 + y2", field))


def test_parameter_sum_keeps_rational_coefficients():
    # 1/2 and 2/3 must survive clearing into Z[a]: a clearing that loses
    # a denominator changes the annihilator and fails its certificate
    ann = eliminate_search(_parameter_sum(), "z", 2, 4)
    assert isinstance(ann, Annihilator)
    assert ann.membership_certified
    assert str(ann.poly) == "6*z'' - 3*a*z' - 4*z' + 2*a*z"


@pytest.fixture
def prolong_calls(monkeypatch):
    """The arguments of every call of the prolong that eliminate uses."""
    calls = []
    real = eliminate_mod.prolong

    def prolong(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(eliminate_mod, "prolong", prolong)
    return calls


def test_quartic_pair_has_no_low_order_annihilator(prolong_calls):
    # the search prolongs its system once and reuses the layers for
    # every k; each attempt still reports its full layer
    system = parse_system(
        "field: Q\ntarget: y2\n"
        "y1*y1'' - y1'^2\n(y2 - y1)^2 + (y2' - y1')^4\n")
    res = eliminate_search(system, "y2", 3, 6)
    assert isinstance(res, NotFoundUpTo)
    assert res.k_max == 6 and len(res.attempts) == 6
    assert [(a.rows, a.cols) for a in res.attempts] == [
        (0, 10), (3, 55), (30, 220), (168, 715), (690, 2002), (2310, 5005)]
    assert prolong_calls == [(system, 2)]


def test_search_prolongs_once_per_search(prolong_calls):
    system = _exp_tan_sum()
    assert eliminate_search(system, "z", 2, 6).k_searched == 4
    assert prolong_calls == [(system, 2)]
    # a layer searched on its own prolongs for itself
    assert isinstance(find_annihilator(system, "z", 2, 3), NotFoundAtK)
    assert len(prolong_calls) == 2


def test_descending_feed_stores_fewer_nonzeros():
    # the exp+tan sum layer at k = 4, the largest of the search: fed by
    # descending leading column it stores fewer nonzeros than fed in
    # generator and multiplier order, with the same pivots and annihilator
    search = AnnihilatorSearch(_exp_tan_sum(), "z", 2)
    layers = search.layers
    fed, labels = layers.eliminate(4, track=True)
    plain = SparseEliminator(len(layer_columns(layers, 4)[0]), layers.field,
                             True)
    in_order = layer_rows(layers, 4)
    for _, _, row in in_order:
        plain.add_row(row)
    assert set(fed.pivot_of_col) == set(plain.pivot_of_col)
    assert len(labels) == 2418 and fed.rank == 1299
    nnz_fed = sum(len(row) for row in fed.rows)
    nnz_plain = sum(len(row) for row in plain.rows)
    assert nnz_fed < nnz_plain
    assert (nnz_fed, nnz_plain) == (3260, 4265)
    # labels, (gi, multiplier code), follow the feed: leading columns
    # descend, ties in generator order and then multiplier order
    shifts = layers.layer(4)[3]
    position = {(gi, mono_code(mu, shifts)): (-min(row), j)
                for j, (gi, mu, row) in enumerate(in_order)}
    keys = [position[label] for label in labels]
    assert keys == sorted(keys)
    assert search.read(4, fed, labels).k_searched == 4


# ---------------------------------------------------------------------------
# membership certificates: the ring replay and the field oracle

# (system, r, k): a layer whose annihilator's certificate uses cleared
# generators with denominators 1 (Q) and with 2 and 3 (Q(a;))
CERTIFIED = {"prod": (_exp_exp_product, 1, 2),
             "parameter-sum": (_parameter_sum, 2, 1)}


def _layer(name):
    """A fresh search of a CERTIFIED case, its eliminated layer and the
    generators and tags the annihilator's trail uses."""
    build, r, k = CERTIFIED[name]
    search = AnnihilatorSearch(build(), "z", r)
    elim, labels = search.layers.eliminate(k, track=True)
    _, start = layer_columns(search.layers, k)
    ridx = elim.pivot_of_col[max(c for c in elim.pivot_of_col if c >= start)]
    tags = elim.trail_numerators(ridx)[0]
    return search, k, elim, labels, ridx, {labels[t][0] for t in tags}


def _refused(search, k, elim, labels):
    """Both replays refuse the layer's certificate."""
    with pytest.raises(DalgError, match="certificate failed to replay"):
        search.read(k, elim, labels)
    return field_replay(search, k, elim, labels) is False


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_refuses_a_wrong_denominator(name):
    used = _layer(name)[-1]
    assert used
    for gi in used:
        search, k, elim, labels, *_ = _layer(name)
        search.layers.dens[gi] = search.layers.dens[gi] * 2
        assert _refused(search, k, elim, labels), gi


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_refuses_an_altered_cleared_term(name):
    # the layer is built from the altered terms, so its rows and trail
    # agree with each other; only the check of the clearing against the
    # generator itself sees the fault
    for gi in _layer(name)[-1]:
        build, r, k = CERTIFIED[name]
        search = AnnihilatorSearch(build(), "z", r)
        terms = search.layers.terms[gi]
        m, v = terms[0]
        terms[0] = (m, v * 2)
        elim, labels = search.layers.eliminate(k, track=True)
        assert _refused(search, k, elim, labels), gi


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_refuses_a_wrong_column_decode(monkeypatch, name):
    # two columns of the annihilator's row decoded to each other's
    # monomials: the ring replay multiplies monomial tuples, so the row
    # it is compared with no longer matches
    search, k, elim, labels, ridx, _ = _layer(name)
    assert isinstance(search.read(k, elim, labels), Annihilator)
    codes, _, _, _ = search.layers.layer(k)
    row = elim.rows[ridx]
    a, b = next((a, b) for a in row for b in row if row[a] != row[b])
    swap = {codes[a]: codes[b], codes[b]: codes[a]}
    real = eliminate_mod.mono_decode
    monkeypatch.setattr(eliminate_mod, "mono_decode",
                        lambda code, shifts: real(swap.get(code, code), shifts))
    with pytest.raises(DalgError,
                       match="membership certificate failed to replay"):
        search.read(k, elim, labels)


@pytest.mark.parametrize("name", ["prod", "gaussian-parameter"])
def test_certificate_refuses_a_wrong_multiplier_code(name):
    # labels carry multiplier codes, which read() decodes only for the
    # certificate's tags: a tag whose label names another multiplier of
    # the same degree makes the replay multiply the wrong monomial, for
    # each tag in turn whose multipliers have a degree above zero
    _, system, target, r, k_max = next(c for c in AGREEMENT if c[0] == name)
    search = AnnihilatorSearch(system, target, r)
    layers = search.layers
    for k in range(1, k_max + 1):
        elim, labels = layers.eliminate(k, track=True)
        if isinstance(search.read(k, elim, labels), Annihilator):
            break
    _, start = layer_columns(layers, k)
    ridx = elim.pivot_of_col[max(c for c in elim.pivot_of_col if c >= start)]
    table = degree_code_table(len(layers.varkeys), k.bit_length(), k)
    swapped = 0
    for tag in elim.trail_numerators(ridx)[0]:
        gi, mc = labels[tag]
        codes = table[k - layers.degs[gi]]
        if len(codes) < 2:
            continue
        other = codes[codes.index(mc) - 1]
        labels[tag] = (gi, other)
        with pytest.raises(DalgError,
                           match="membership certificate failed to replay"):
            search.read(k, elim, labels)
        labels[tag] = (gi, mc)
        swapped += 1
    assert swapped
    assert isinstance(search.read(k, elim, labels), Annihilator)


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_refuses_an_altered_trail_numerator(name):
    search, k, elim, labels, ridx, _ = _layer(name)
    real = elim.trail_numerators
    for tag in real(ridx)[0]:
        def altered(i, tag=tag):
            nums, den = real(i)
            return {**nums, tag: nums[tag] * 2}, den
        elim.trail_numerators = altered
        assert _refused(search, k, elim, labels), tag


def _riccati_systems(label, n):
    """Systems y1' = R(y1), y2 = S(y1) with target y2, from the oracles'
    random polynomials over the field of label."""
    field = field_from_label(label)
    rng = random.Random(f"riccati:{label}")
    y1p, y2 = DPoly.var(field, JetVar.y(1, 1)), DPoly.var(field, JetVar.y(2))
    return [SystemSpec(field=field, target="y2", gens=(
        y1p - rand_poly(rng, field, [JetVar.y(1)], max_terms=3, max_deg=2),
        y2 - rand_poly(rng, field, [JetVar.y(1)], max_terms=2, max_deg=2)))
            for _ in range(n)]


def _agreement_cases():
    """(name, system, target, r, k_max): the presets and random systems
    over Q, Qi, Q(a;) and Qi(a;x), each with an annihilator by k_max."""
    cases = [
        ("prod", _exp_exp_product(), "z", 1, 2),
        ("sum", _exp_tan_sum(), "z", 2, 4),
        ("quotient", rational_system(
            [(_parse("y1' - y1"), 1), (_parse("y2' - y2"), 1)],
            _parse("y1"), _parse("1 + y2")), "z", 2, 3),
        ("composition", composition_system(_parse("y1' - y1"),
                                           _parse("y2' - y2")), "z", 2, 4),
        ("parameter-sum", _parameter_sum(), "z", 2, 1),
        ("gaussian-parameter", parse_system(
            "field: Qi(c;)\ntarget: y2\n"
            "y1' - c*y1\ni*(y2' - y1')^2 + (y2 - y1)\n"), "y2", 2, 4)]
    for label in ("Q", "Qi", "Q(a;)", "Qi(a;x)"):
        for j, system in enumerate(_riccati_systems(label, 2)):
            cases.append((f"riccati-{label}-{j}", system, "y2", 1, 4))
    return cases


AGREEMENT = _agreement_cases()


@pytest.mark.parametrize("name, system, target, r, k_max", AGREEMENT,
                         ids=[c[0] for c in AGREEMENT])
def test_ring_replay_agrees_with_field_oracle(name, system, target, r, k_max):
    search = AnnihilatorSearch(system, target, r)
    found = 0
    for k in range(1, k_max + 1):
        elim, labels = search.layers.eliminate(k, track=True)
        res = search.read(k, elim, labels)
        want = True if isinstance(res, Annihilator) else None
        assert field_replay(search, k, elim, labels) is want, k
        found += want is True
    assert found


@pytest.mark.parametrize("name, system, target, r, k_max", AGREEMENT,
                         ids=[c[0] for c in AGREEMENT])
def test_layer_rows_match_tuple_oracle(name, system, target, r, k_max):
    # rows built from packed codes equal the oracle's rows built from
    # monomial tuples, in the search's layers (target block last) and in
    # layers of the same generators without a last block; they come
    # generator by generator, and in a block by descending multiplier,
    # which without a last block is descending leading column
    search = AnnihilatorSearch(system, target, r)
    plain = MacaulayLayers(system.field, search.h_gens,
                           search.layers.varkeys)
    for layers in (search.layers, plain):
        for k in range(1, k_max + 1):
            want = layer_rows(layers, k)
            got = list(layers.rows(k))
            assert len(got) == len(want) == layers.nrows(k)
            blocks = {}
            for gi, mu, row in want:
                blocks.setdefault(gi, []).append(row)
            assert got == [row for gi in sorted(blocks)
                           for row in reversed(blocks[gi])], k
            if layers is plain:
                for block in blocks.values():
                    leads = [min(row) for row in reversed(block)]
                    assert all(a > b for a, b in zip(leads, leads[1:])), k


@pytest.mark.parametrize("name, system, target, r, k_max", AGREEMENT,
                         ids=[c[0] for c in AGREEMENT])
def test_layer_columns_match_tuple_oracle(name, system, target, r, k_max):
    # columns enumerated as packed codes decode to the oracle's columns
    # built from monomial tuples, for k = 0..9 (fields 1 to 4 bits
    # wide) up to 50000 columns, so the 12-variable cases stop at k = 7
    # and the others reach k = 9: in the search's layers (target block
    # last), without a last block, and with a last block no monomial of
    # degree k > 0 lies in; the multiplier codes of every degree e <= k
    # decode, in order, to degree_monomials
    search = AnnihilatorSearch(system, target, r)
    varkeys = search.layers.varkeys
    plain = MacaulayLayers(system.field, search.h_gens, varkeys)
    empty = MacaulayLayers(system.field, search.h_gens, varkeys,
                           last={("none", 0, 0)})
    ks = [k for k in range(10) if monomial_count(len(varkeys), k) <= 50000]
    for layers in (search.layers, plain, empty):
        for k in ks:
            monos, start = layer_columns(layers, k)
            codes, index, got_start, shifts = layers.layer(k)
            assert [mono_decode(c, shifts) for c in codes] == monos, k
            assert index == {c: i for i, c in enumerate(codes)}, k
            assert got_start == start, k
            if layers is empty:
                assert start == len(monos) - (k == 0)
    shifts = {k: code_shifts(varkeys, k) for k in ks}
    for k in ks:
        table = degree_code_table(len(varkeys), k.bit_length(), k)
        for e in range(k + 1):
            assert ([mono_decode(c, shifts[k]) for c in table[e]]
                    == degree_monomials(varkeys, e)), (k, e)


@pytest.mark.parametrize("name, system, target, r, k_max", AGREEMENT,
                         ids=[c[0] for c in AGREEMENT])
def test_annihilator_is_the_normalized_field_row(name, system, target, r,
                                                 k_max):
    # read() dehomogenizes and normalizes the stored row in the ring; the
    # result is, term for term and in the same order, the row taken into
    # the field, dehomogenized and normalized there
    search = AnnihilatorSearch(system, target, r)
    field = system.field
    for k in range(1, k_max + 1):
        elim, labels = search.layers.eliminate(k, track=True)
        res = search.read(k, elim, labels)
        if not isinstance(res, Annihilator):
            continue
        columns, start = layer_columns(search.layers, k)
        ridx = elim.pivot_of_col[max(c for c in elim.pivot_of_col
                                     if c >= start)]
        R, F = elim.ring, elim.domain
        row_poly = DPoly(field, {columns[c]: F.convert_from(v, R)
                                 for c, v in elim.rows[ridx].items()})
        want = row_poly.dehomogenize().normalize()
        assert ([(m, repr(c)) for m, c in res.poly.terms.items()]
                == [(m, repr(c)) for m, c in want.terms.items()])
        assert str(res.poly) == str(want)
    # terms that merge and cancel when s = 1, which a homogeneous row
    # never has: s*y1 + 2*y1 merges, s^2*y2' - y2' cancels
    R, F = ring_of(field)
    s, y1, y2p = JetVar.s().key, JetVar.y(1).key, JetVar.y(2, 1).key
    terms = [(((s, 1), (y1, 1)), R.one * 3), (((y1, 1),), R.one * 6),
             (((s, 2), (y2p, 1)), R.one * 2), (((y2p, 1),), -R.one * 2),
             (((s, 1),), -R.one * 4)]
    want = DPoly(field, {m: F.convert_from(v, R) for m, v in terms})
    want = want.dehomogenize().normalize()
    got = eliminate_mod._dehomogenized(field, R, F, terms)
    assert ([(m, repr(c)) for m, c in got.terms.items()]
            == [(m, repr(c)) for m, c in want.terms.items()])


def test_budget_is_enforced():
    with budget_limit(10), pytest.raises(BudgetExceededError):
        find_annihilator(_exp_exp_product(), "z", 1, 2)


def test_input_validation():
    system = _exp_exp_product()
    with pytest.raises(DalgError):
        find_annihilator(system, "z", 1, 0)
    with pytest.raises(DalgError):
        find_annihilator(system, "y9", 1, 2)
    with pytest.raises(DalgError):
        eliminate_search(system, "z", 1, 0)
    comps = [(_parse("y1' - y1"), 1)]
    with pytest.raises(DalgError):
        sum_product_system(comps, _parse("0"))
    with pytest.raises(DalgError):
        sum_product_system([(_parse("y2' - y2"), 1)], _parse("y1"))
    with pytest.raises(DalgError):
        sum_product_system([(_parse("y1' - y1"), 2)], _parse("y1"))
    with pytest.raises(DalgError):
        rational_system(comps, _parse("y1"), _parse("0"))
    with pytest.raises(DalgError):
        composition_system(_parse("y2' - y2"), _parse("y2' - y2"))


def test_annihilator_json_shape():
    ann = eliminate_search(_exp_exp_product(), "z", 1, 3)
    js = ann.to_json()
    for key in ("target", "order", "degree", "k_searched", "polynomial",
                "membership_certified", "series_certified",
                "residual_valuation", "bounds_comparison"):
        assert key in js
    assert js["polynomial"] == "z' - 2*z"
    res = eliminate_search(_exp_exp_product(), "z", 0, 2)
    assert isinstance(res, NotFoundUpTo)
    njs = res.to_json()
    assert njs["found"] is False and njs["k_max"] == 2
    assert all(set(a) == {"k", "rows", "cols"} for a in njs["attempts"])
