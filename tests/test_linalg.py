"""Sparse exact elimination against a dense Fraction oracle, recipe
trails replayed row by row, the mod-p rank engine, budgets, and monomial
layer enumeration."""

import gc
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from dalg import JetVar, field_from_label, get_field, parse_poly, parse_system
from dalg import linalg
from dalg.eliminate import (AnnihilatorSearch, eliminate_search,
                           find_annihilator)
from dalg.errors import BudgetExceededError, DalgError
from dalg.dpoly import mono_mul
from dalg.fields import (clear_denominators, primitive_divisor,
                         ring_cofactors, ring_of)
from dalg.hilbert import check_dregular, hf
from dalg.linalg import (MOD_P, SparseEliminator, budget_limit, check_budget,
                         code_shifts, modp_rank, mono_code, monomial_count,
                         next_degree_codes)

from oracles import (degree_code_table, degree_monomials, dense_rank,
                     gcd_fold_divisor, rand_coeff, reference_add_row,
                     trail_of)


def _random_rows(rng, nrows, ncols, density=0.4, frac=False):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                val = rng.randint(-9, 9)
                if val:
                    row[j] = Fraction(val, rng.randint(1, 3)) if frac else val
        rows.append(row)
    return rows


def _with_combinations(rng, rows, count):
    """rows plus count integer combinations, each of all rows before it."""
    rows = list(rows)
    for _ in range(count):
        combo = {}
        for r in rows:
            c = rng.randint(-3, 3)
            for j, v in r.items():
                combo[j] = combo.get(j, 0) + c * v
        rows.append({j: v for j, v in combo.items() if v})
    return rows


@pytest.mark.parametrize("frac", [False, True])
def test_rank_matches_dense_oracle(frac):
    # the default (fraction-free) mode takes integer rows; rational rows
    # are scaled row-wise first, which leaves the rank unchanged
    rng = random.Random(21 + frac)
    for _ in range(60):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = _random_rows(rng, nrows, ncols, frac=frac)
        elim = SparseEliminator(ncols)
        for r in rows:
            if frac:
                lcm = 1
                for v in r.values():
                    d = Fraction(v).denominator
                    lcm = lcm * d // gcd(lcm, d)
                r = {j: int(v * lcm) for j, v in r.items()}
            elim.add_row(dict(r))
        assert elim.rank == dense_rank(rows, ncols)


def test_rank_with_planted_dependencies():
    rng = random.Random(23)
    for _ in range(40):
        ncols = rng.randint(2, 7)
        # add a combination of the base rows: rank must not grow
        rows = _with_combinations(rng, _random_rows(rng, 3, ncols), 1)
        elim = SparseEliminator(ncols)
        for r in rows:
            elim.add_row(dict(r))
        assert elim.rank == dense_rank(rows, ncols)


def _trail_in_field(elim, i):
    """The recipes of stored row i expanded with every weight in the field:
    rows in descending index order, each divided by its divisor as it is
    reached."""
    R, F = elim.ring, elim.domain

    def conv(v):
        return F.convert_from(v, R)

    weight, out = {i: F.one}, {}
    for j in range(i, -1, -1):
        w = weight.pop(j, F.zero)
        if not w:
            continue
        coeffs, tag, scale, divisor = elim.trails[j]
        w = w / conv(divisor)
        out[tag] = out.get(tag, F.zero) + w * conv(scale)
        for p, b in coeffs.items():
            weight[p] = weight.get(p, F.zero) - w * conv(b)
    return {t: v for t, v in out.items() if v}


@pytest.mark.parametrize("label, size", [
    ("int", 14), ("Qi", 14), ("Qi(c;)", 8), ("Q(a;x)", 8)],
    ids=["int", "Qi", "Qi(c;)", "Q(a;x)"])
def test_trail_replays_each_reduced_row(label, size):
    # rows over a field are cleared to its ring before they are fed in;
    # trail_of, which expands in the ring, must equal an expansion in the
    # field and must replay.  Appended combinations reduce to zero or to
    # long chains of earlier pivot rows, so recipes reach deep before they
    # are expanded.  The dense oracle over parameter fields is slow, hence
    # smaller layers.
    field = None if label == "int" else field_from_label(label)
    R, F = ring_of(field)
    rng = random.Random(24)
    dependent = 0
    for _ in range(30):
        ncols = rng.randint(2, size - 2)
        nrows = rng.randint(1, size)
        if field is None:
            rows = _random_rows(rng, nrows, ncols)
        else:
            rows = [{j: c for j in range(ncols) if rng.random() < 0.4
                     for c in [rand_coeff(rng, field)] if c}
                    for _ in range(nrows)]
        rows = _with_combinations(rng, rows, rng.randint(0, size // 2 - 1))
        fed = rows if field is None else [
            dict(clear_denominators(R, F, r.items())[0]) for r in rows]
        elim = SparseEliminator(ncols, field=field, track=True)
        for t, r in enumerate(fed):
            elim.add_row(r, tag=t)
        zero = Fraction(0) if field is None else field.zero
        assert elim.rank == dense_rank(rows, ncols, zero)
        dependent += len(rows) - elim.rank
        for i, stored in enumerate(elim.rows):
            trail = trail_of(elim, i)
            assert trail == _trail_in_field(elim, i)
            replay = {}
            for tag, coeff in trail.items():
                for j, v in fed[tag].items():
                    replay[j] = (replay.get(j, F.zero)
                                 + coeff * F.convert_from(v, R))
            replay = {j: v for j, v in replay.items() if v}
            assert replay == {j: F.convert_from(v, R) for j, v in stored.items()}
    assert dependent


@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
@pytest.mark.parametrize("label", ["Q", "Qi(c;)"], ids=["Z", "Z[i][c]"])
def test_add_row_leaves_the_callers_row_alone(label, track):
    # the eliminator reduces its own copy of a row in place; no row a
    # caller fed in changes, over a row reduced by pivots with leading
    # entry one (ma == 1, no cofactors call) and by pivots whose lead
    # does not divide the row's entry (ma != 1), two steps of each
    field = field_from_label(label)
    R, _ = ring_of(field)
    one = R.one
    x = R.gens[0] if label != "Q" else 3
    rows = [{0: one, 5: x, 7: one}, {1: x + 2 * one, 4: one},
            {2: one, 6: 3 * one}, {3: 2 * one, 8: one},
            {0: 3 * one, 1: x, 2: one, 3: 5 * one, 9: one}]
    copies = [dict(row) for row in rows]
    elim = SparseEliminator(10, field=field, track=track)
    steps = []
    real = elim._cofactors

    def spy(a, b):
        g, ma, mb = real(a, b)
        steps.append(ma)
        return g, ma, mb
    elim._cofactors = spy
    for t, row in enumerate(rows):
        elim.add_row(row, t)
    assert rows == copies
    assert elim.rank == 5 and elim.rows[-1].keys() == {4, 5, 6, 7, 8, 9}
    # the last row lost columns 0..3, one step by each pivot there; the
    # spy sees only the steps whose pivot lead is not one
    leads = [elim.rows[elim.pivot_of_col[c]][c] for c in range(4)]
    assert sum(lead == one for lead in leads) == 2
    assert sum(lead != one for lead in leads) == 2
    assert len(steps) == 2 and all(ma != one for ma in steps)
    if track:
        nums, den = elim.trail_numerators(4)
        assert set(nums) == set(range(5))


def _unit_and_other_elements(field):
    """Ring elements of field: its units 1, -1 (and i, -i over Q(i)),
    then non-units, some sharing factors."""
    R, F = ring_of(field)

    def ring(c):
        return clear_denominators(R, F, [((), c)])[0][0][1]
    q = field.q
    units = [q(1), q(-1)]
    others = [q(2), q(-3), q(4), q(6), q(-9)]
    if field.desc.kind == "Qi":
        units += [field.i(), -field.i()]
        others += [q(1) + field.i(), q(2) - field.i(), q(2) * field.i()]
    gens = [field.param(p) for p in field.desc.params]
    if field.desc.has_x:
        gens.append(field.x())
    for t in gens:
        others += [t + q(2), q(2) * t - q(3), t * t - q(1), q(-2) * t]
    return [ring(c) for c in units], [ring(c) for c in others]


@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
@pytest.mark.parametrize("label", ["Q", "Qi", "Q(c;)", "Qi(c;)", "Q(;x)"],
                         ids=["Z", "Z[i]", "Z[c]", "Z[i][c]", "Z[x]"])
def test_add_row_matches_the_reference_reduction(label, track):
    # rows of units and non-units, some multiplied by a common factor and
    # some combinations of earlier rows, go through add_row and through
    # the reference reduction, which takes every gcd: both leave the same
    # rows, pivots, recipes and certificates, over pivots with lead one
    # and pivots with other leads
    field = field_from_label(label)
    R, _ = ring_of(field)
    units, others = _unit_and_other_elements(field)
    rng = random.Random(f"reference:{label}:{track}")
    leads = set()
    for _ in range(12):
        ncols = rng.randint(3, 8)
        rows = []
        for _ in range(rng.randint(2, 9)):
            share = rng.choice([0.0, 0.3, 0.7])
            row = {j: rng.choice(units if rng.random() < share else others)
                   for j in range(ncols) if rng.random() < 0.6}
            if row and rng.random() < 0.25:
                f = rng.choice(others)
                row = {j: v * f for j, v in row.items()}
            rows.append(row)
            if rng.random() < 0.3:
                combo = {}
                for r in rows:
                    f = rng.choice(units + others[:2])
                    for j, v in r.items():
                        combo[j] = combo.get(j, R.zero) + f * v
                rows.append({j: v for j, v in combo.items() if v})
        new = SparseEliminator(ncols, field=field, track=track)
        ref = SparseEliminator(ncols, field=field, track=track)
        for t, row in enumerate(rows):
            assert new.add_row(row, t) == reference_add_row(ref, row, t)
        assert new.rows == ref.rows
        assert new.pivot_of_col == ref.pivot_of_col
        assert new.trails == ref.trails
        for i, stored in enumerate(new.rows):
            leads.add(stored[min(stored)] == R.one)
            if track:
                assert new.trail_numerators(i) == ref.trail_numerators(i)
                assert trail_of(new, i) == _trail_in_field(ref, i)
    assert leads == {True, False}


@pytest.mark.parametrize("label", ["Q", "Qi", "Q(c;)", "Qi(c;)", "Q(;x)"],
                         ids=["Z", "Z[i]", "Z[c]", "Z[i][c]", "Z[x]"])
def test_primitive_divisor_is_a_gcd_fold_with_units(label):
    # lists holding a unit (1, -1, i or -i) among non-units, and lists
    # with no unit, give the divisor of a plain gcd fold over every value
    field = field_from_label(label)
    R, _ = ring_of(field)
    units, others = _unit_and_other_elements(field)
    rng = random.Random(f"divisor:{label}")
    for _ in range(60):
        values = [rng.choice(others) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.6:
            values.insert(rng.randint(0, len(values)), rng.choice(units))
        elif rng.random() < 0.5:
            f = rng.choice(others)
            values = [v * f for v in values]
        lead = rng.choice(values)
        assert (primitive_divisor(R, values, lead)
                == gcd_fold_divisor(R, values, lead)), values


def test_modp_rank_lower_bounds_exact_rank():
    rng = random.Random(25)
    for _ in range(30):
        ncols = rng.randint(1, 8)
        rows = _random_rows(rng, rng.randint(1, 8), ncols)
        exact = dense_rank(rows, ncols)
        assert modp_rank(rows, ncols)[-1] <= exact
        # for these tiny integer matrices the bound is almost surely tight
        assert modp_rank(rows, ncols)[-1] == exact
    # rows that vanish mod p, alone or after reduction: the rank drops
    for rows, ncols, exact, low in [
            ([{0: MOD_P, 2: -3 * MOD_P}], 3, 1, 0),
            ([{0: 1, 1: 2}, {0: 1, 1: 2 + MOD_P}], 2, 2, 1),
            ([{0: 1}, {0: 1, 1: MOD_P}, {1: MOD_P**2, 2: MOD_P}], 3, 3, 1)]:
        assert dense_rank(rows, ncols) == exact
        assert modp_rank(rows, ncols)[-1] == low


def test_budget_enforcement():
    with budget_limit(100):
        check_budget(10, 10)
        with pytest.raises(BudgetExceededError):
            check_budget(11, 10)
    err = None
    try:
        with budget_limit(5):
            check_budget(1000, 1000)
    except BudgetExceededError as e:
        err = e
    assert err.rows == 1000 and err.cols == 1000 and err.budget == 5


_PROD_SYS = "field: Q\ntarget: z\ny1' - y1\ny2' - y2\nz - y1*y2\n"


@pytest.mark.parametrize("layer", [
    lambda: find_annihilator(parse_system(_PROD_SYS), "z", 1, 2),
    lambda: hf([parse_poly("y1^2", get_field("Q"))],
               [JetVar.y(1), JetVar.y(2)], 4),
    lambda: check_dregular(parse_system(_PROD_SYS), 0, cutoff=4),
], ids=["find_annihilator", "hf", "check_dregular"])
def test_budget_bounds_every_layer_path(layer):
    layer()
    with budget_limit(10), pytest.raises(BudgetExceededError):
        layer()


def test_budget_is_checked_again_on_a_kept_layer():
    # a layer keeps its codes, not its budget check: read again under a
    # smaller budget, every reader of the kept layer is refused
    layers = AnnihilatorSearch(parse_system(_PROD_SYS), "z", 1).layers
    layers.eliminate(2)
    with budget_limit(10):
        for read in (layers.eliminate, layers.rows, layers.ranks):
            with pytest.raises(BudgetExceededError):
                read(2)


def test_budget_env_override(monkeypatch):
    from dalg.linalg import current_budget
    monkeypatch.delenv("DALG_BUDGET", raising=False)
    assert current_budget() == 2 * 10**7
    monkeypatch.setenv("DALG_BUDGET", "123")
    assert current_budget() == 123
    monkeypatch.setenv("DALG_BUDGET", "")
    assert current_budget() == 2 * 10**7
    # a value that is not a nonnegative integer is an error, not the
    # default
    for bad in ("junk", "-5", "1e6"):
        monkeypatch.setenv("DALG_BUDGET", bad)
        with pytest.raises(DalgError, match="DALG_BUDGET must be a "
                                            "nonnegative integer"):
            current_budget()
    with budget_limit(0):
        assert current_budget() == 0


@pytest.mark.parametrize("n", [-1, 2.5, "10"])
def test_budget_limit_rejects_bad_values(n):
    with pytest.raises(DalgError, match="budget must be a nonnegative"):
        with budget_limit(n):
            pass


def test_degree_monomials_order_and_count():
    keys = [JetVar.s().key, JetVar.y(1).key, JetVar.y(1, 1).key]
    for k in range(5):
        monos = degree_monomials(sorted(keys), k)
        assert len(monos) == monomial_count(3, k)
        assert len(set(monos)) == len(monos)
        for m in monos:
            assert sum(e for _, e in m) == k
        # emitted in a fixed deterministic order
        assert monos == degree_monomials(sorted(keys), k)


@pytest.mark.parametrize("v", range(5))
def test_degree_monomials_are_sorted_exponent_tuples(v):
    # the documented order: exponent tuples over the ascending variables
    # in ascending order; and a call leaves no garbage in a cycle
    keys = list(range(v))
    for k in range(6):
        want = [tuple((x, e) for x, e in zip(keys, exps) if e)
                for exps in sorted(product(range(k + 1), repeat=v))
                if sum(exps) == k]
        gc.collect()
        assert degree_monomials(keys, k) == want
        assert gc.collect() == 0


def test_code_of_a_product_is_the_sum_of_codes():
    # random monomials m1, m2 with deg(m1 * m2) <= k, coded under the
    # field widths of layer k: no exponent overflows its field, so codes
    # add like the monomials multiply, and distinct monomials of degree
    # k have distinct codes
    rng = random.Random(26)
    keys = sorted((1, i, j) for i in (1, 2) for j in range(7))

    def monomial(vars_, d):
        exps = {}
        for _ in range(d):
            x = rng.choice(vars_)
            exps[x] = exps.get(x, 0) + 1
        return tuple(sorted(exps.items()))

    for v in (1, 2, 5, 9, 14):
        for k in (0, 1, 2, 3, 4, 7, 8, 9, 16, 33):
            shifts = code_shifts(keys[:v], k)
            if monomial_count(v, k) <= 5000:
                monos = degree_monomials(keys[:v], k)
                assert len({mono_code(m, shifts) for m in monos}) == len(monos)
            for _ in range(40):
                d1 = rng.randint(0, k)
                m1 = monomial(keys[:v], d1)
                m2 = monomial(keys[:v], rng.randint(0, k - d1))
                assert (mono_code(m1, shifts) + mono_code(m2, shifts)
                        == mono_code(mono_mul(m1, m2), shifts))


@pytest.mark.parametrize("v", range(1, 13))
def test_degree_codes_are_the_sorted_codes_of_each_degree(v):
    # k = 0..9 packs exponents in fields 0 to 4 bits wide; next_degree_codes
    # chained from [0] gives, at every degree e <= k, strictly ascending
    # codes: those of the oracle's degree-e monomials, and the reference
    # table's entry e
    keys = list(range(v))
    for k in range(10):
        w = k.bit_length()
        shifts = code_shifts(keys, k)
        reference = degree_code_table(v, w, k)
        codes = [0]
        for e in range(k + 1):
            if e:
                codes = next_degree_codes(codes, v, w)
            assert all(a < b for a, b in zip(codes, codes[1:])), (k, e)
            assert codes == reference[e], (k, e)
            assert codes == sorted(mono_code(m, shifts)
                                   for m in degree_monomials(keys, e)), (k, e)


def test_no_degree_is_made_twice_at_one_width(monkeypatch):
    # a walk over k makes each degree's codes once per field width, from
    # the degree below, and starts over only where k.bit_length() grows,
    # at k = 1, 2, 4, 8: the exp+tan sum search (12 variables, hit at
    # k = 4) makes 8 steps, and the nonregular pair's regularity check
    # to cutoff 8 makes 18, no (width, degree) twice
    steps = []
    step = linalg.next_degree_codes

    def spy(prev, v, w):
        steps.append((w, len(prev)))
        return step(prev, v, w)

    monkeypatch.setattr(linalg, "next_degree_codes", spy)
    sum_sys = parse_system("field: Q\ntarget: z\ny1' - y1\n"
                           "y2' - 1 - y2^2\nz - y1 - y2\n")
    assert eliminate_search(sum_sys, "z", 2, 6).k_searched == 4
    assert steps == [(1, 1), (2, 1), (2, 12), (2, 78),
                     (3, 1), (3, 12), (3, 78), (3, 364)]
    steps.clear()
    check_dregular(parse_system("field: Q\ntarget: y2\ny1*y2' - 2*y1*y2\n"
                                "y1*y1' - 3*y1\n"), 0, cutoff=8)
    assert len(steps) == len(set(steps)) == 18


@pytest.mark.parametrize("label", ["Q", "Qi", "Qi(c;)", "Q(a;x)"],
                         ids=["Z", "Z[i]", "Z[i][c]", "Z[x,a]"])
def test_cofactors_and_primitive_divisor_over_each_ring(label):
    # random ring elements a = h*a0, b = h*b0 with a common factor h:
    # ring_cofactors gives g, a // g, b // g with g the ring's gcd, and
    # primitive_divisor, which skips its divisions by one, equals
    # g // canonical_unit(lead // g)
    field = field_from_label(label)
    R, F = ring_of(field)
    rng = random.Random(f"cofactors:{label}")

    def element():
        nums, _ = clear_denominators(
            R, F, [((), rand_coeff(rng, field) or field.one)])
        return nums[0][1]

    cofactors = ring_cofactors(R)
    for _ in range(30):
        h, a0, b0 = element(), element(), element()
        a, b = h * a0, h * b0
        g, ma, mb = cofactors(a, b)
        assert g * ma == a and g * mb == b
        assert g == R.gcd(a, b)
        values = [a, b, h * element()]
        lead = rng.choice(values)
        want = R.zero
        for v in values:
            want = R.gcd(want, v)
        want = want // R.canonical_unit(lead // want)
        assert primitive_divisor(R, values, lead) == want
