"""Closed-form degree bounds, the order/degree curve, and the seeded
random-relation experiment."""

import gc
import random
from itertools import product
from math import comb

import pytest

from dalg import bounds
from dalg.bounds import (composition_bound, curve, curve_to_csv, div_bound,
                         iroot, plus_times_bound, relation_experiment,
                         sufficiency_k, theorem_bound)
from dalg.errors import BudgetExceededError, DalgError
from dalg.linalg import SparseEliminator, budget_limit

from oracles import first_relation_degree


def test_hand_valued_bounds():
    tb = theorem_bound(2, 2, 1, 2)
    assert tb.k_min == 10
    assert tb.exact and str(tb.threshold_fraction) == "9"
    assert composition_bound(1, 1, 2, 2) == 70


def test_degenerate_degree_one():
    for r_min in range(1, 4):
        for r in range(r_min, r_min + 3):
            tb = theorem_bound(1, r_min, 0, r)
            assert tb.k_min == 1
            assert sufficiency_k(1, r_min, 0, r) == 1


def test_sufficiency_below_theorem_bound_on_grid():
    for d in range(1, 5):
        for r_min in range(1, 5):
            for r_l in range(0, r_min + 1):
                for r in range(r_min, r_min + 5):
                    assert sufficiency_k(d, r_min, r_l, r) <= \
                        theorem_bound(d, r_min, r_l, r).k_min


def test_fractional_exponent_is_integer_exact():
    # when (r - r_l + 1)/(r - r_min + 1) is not an integer the threshold
    # comparison k > (r+1)(d^(p/q) - 1) must be decided exactly:
    # k > threshold iff (k + r + 1)^q > d^p (r+1)^q
    for d in (2, 3):
        for r_min in (2, 3):
            for r_l in range(r_min):
                for r in range(r_min + 1, r_min + 4):
                    tb = theorem_bound(d, r_min, r_l, r)
                    p = r - r_l + 1
                    q = r - r_min + 1
                    k = tb.k_min
                    assert (k + r + 1) ** q > d ** p * (r + 1) ** q
                    if k > 1:
                        assert (k - 1 + r + 1) ** q <= d ** p * (r + 1) ** q


def test_iroot_matches_sympy_on_grid():
    # sympy is the reference here only; dalg.bounds does not import it
    from sympy import integer_nthroot
    rng = random.Random(31)
    bases = list(range(40)) + [rng.getrandbits(b) for b in (20, 64, 170)]
    cases = [(b ** n + e, n) for n in range(1, 13) for b in bases
             for e in (-1, 0, 1) if b ** n + e >= 0]
    # operands of about 2000 bits, as in the r_min = 700 bound cases,
    # perfect powers among them, and roots of a few bits for large n
    for n in (1, 2, 3, 5, 7, 12, 350, 700, 2100):
        for _ in range(4):
            a = rng.getrandbits(2000) | 1 << 1999
            cases += [(a, n), (a + 1, n), (a - 1, n)]
        r = rng.getrandbits(max(1, 2000 // n))
        cases += [(r ** n + e, n) for e in (-1, 0, 1) if r ** n + e >= 0]
    cases += [(10 ** 702 * 702 ** 2, 2), (7 ** 703 * 706 ** 6, 6)]
    for a, n in cases:
        assert iroot(a, n) == integer_nthroot(a, n), (a, n)
    with pytest.raises(DalgError):
        iroot(-1, 2)
    with pytest.raises(DalgError):
        iroot(4, 0)


def _counting(d, r_min, r_l, r):
    dpow = d ** (r - r_l + 1)
    return lambda k: comb(r + 1 + k, r + 1) > dpow * comb(r_min + k, k)


def _above_threshold(d, r_min, r_l, r):
    p, q = r - r_l + 1, r - r_min + 1
    return lambda k: (k + r + 1) ** q > d ** p * (r + 1) ** q


def _is_onset(holds, k):
    return holds(k) and (k == 1 or not holds(k - 1))


def _grid():
    """d <= 6, r_min <= 8, r_l <= r_min, r_min <= r <= r_min + 8."""
    return [(d, r_min, r_l, r) for d in range(1, 7) for r_min in range(0, 9)
            for r_l in range(0, r_min + 1) for r in range(r_min, r_min + 9)]


def test_onsets_match_naive_scan_on_grid():
    # the scan steps k = 1, 2, ... up to a cap; an onset past the cap is
    # checked at k and k - 1 instead (both predicates are monotone in k)
    cap = 3000
    grid = _grid()
    for d, r_min, r_l, r in grid:
        for holds, k in (
                (_counting(d, r_min, r_l, r), sufficiency_k(d, r_min, r_l, r)),
                (_above_threshold(d, r_min, r_l, r),
                 theorem_bound(d, r_min, r_l, r).k_min)):
            scan = next((j for j in range(1, cap + 1) if holds(j)), None)
            if scan is None:
                assert k > cap and _is_onset(holds, k)
            else:
                assert k == scan
    assert len(grid) == 2430


def test_threshold_display_matches_float_on_grid():
    # a double holds every threshold of the grid to far better than six
    # digits, so its "%.6g" text is an oracle for the exact rounding
    inexact = 0
    for d, r_min, r_l, r in _grid():
        tb = theorem_bound(d, r_min, r_l, r)
        p, q = r - r_l + 1, r - r_min + 1
        if tb.exact:
            # T + r + 1 = (r+1) * d^(p/q), an integer
            t = tb.threshold_fraction
            assert t.denominator == 1
            assert (t + r + 1) ** q == d ** p * (r + 1) ** q
            assert tb.display == str(t)
            continue
        inexact += 1
        assert tb.display == f"{(r + 1) * (d ** (p / q) - 1):.6g}", (d, r_min, r_l, r)
    assert inexact == 1194


def _is_qth_power(n, q):
    lo, hi = 0, 1
    while hi ** q <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** q <= n:
            lo = mid
        else:
            hi = mid
    return lo ** q == n


def test_threshold_exact_iff_root_is_integer_on_grid():
    # T = (r+1)*(d^(p/q) - 1) is exact exactly when d^p (r+1)^q is a
    # perfect q-th power; d = 1 and d = 4 with p/q = 3/2 are such cases
    exact = 0
    for d, r_min, r_l, r in _grid():
        p, q = r - r_l + 1, r - r_min + 1
        tb = theorem_bound(d, r_min, r_l, r)
        assert tb.exact == _is_qth_power(d ** p * (r + 1) ** q, q)
        assert tb.exact == (tb.threshold_fraction is not None)
        exact += tb.exact and p % q != 0
    assert exact == 288
    tb = theorem_bound(4, 1, 0, 2)
    assert tb.exact and tb.threshold_fraction == 21 and tb.k_min == 22
    assert theorem_bound(1, 1, 0, 2).threshold_fraction == 0


def test_threshold_display_past_float_range():
    # (r+1)*(10^(703/3) - 1) is about 1.5e237; d^p alone is 10^703
    tb = theorem_bound(10, 700, 0, 702)
    assert not tb.exact and tb.display == "1.51457e+237"
    assert _is_onset(_above_threshold(10, 700, 0, 702), tb.k_min)
    # p/q = 702/2 reduces to an integer exponent
    tb = theorem_bound(10, 700, 0, 701)
    assert tb.exact and tb.display == str(702 * (10 ** 351 - 1))
    # a non-integral exponent with an exact root: 4^(3/2) = 8
    assert theorem_bound(4, 1, 0, 2).display == "21"
    # an exact threshold prints in full, not as "%.6g" would: 21*(2^21 - 1)
    tb = theorem_bound(4, 19, 0, 20)
    assert tb.exact and tb.display == "44040171"


def test_large_onsets_are_exact():
    k = sufficiency_k(10, 20, 0, 21)
    assert k == 2149418525999
    assert _is_onset(_counting(10, 20, 0, 21), k)
    tb = theorem_bound(10, 61, 0, 63)
    assert not tb.exact and tb.k_min == 137883820162040558192531
    assert _is_onset(_above_threshold(10, 61, 0, 63), tb.k_min)
    # r_min in the hundreds: the onset lies near 1.5e237
    k = sufficiency_k(10, 700, 0, 702)
    assert len(str(k)) == 238
    assert _is_onset(_counting(10, 700, 0, 702), k)


def test_plus_times_and_div_reduce_to_main_bound():
    assert plus_times_bound(3, 2, 2, 3) == theorem_bound(6, 2, 0, 3).k_min
    assert div_bound(2, 3, 2, 2, 3) == plus_times_bound(3, 2, 2, 3)
    assert div_bound(0, 1, 2, 2, 3) == plus_times_bound(1, 2, 2, 3)


def test_bound_argument_validation():
    with pytest.raises(DalgError):
        theorem_bound(0, 1, 0, 1)
    with pytest.raises(DalgError):
        theorem_bound(2, 1, 2, 1)
    with pytest.raises(DalgError):
        theorem_bound(2, 3, 0, 2)
    with pytest.raises(DalgError):
        plus_times_bound(0, 2, 1, 1)
    with pytest.raises(DalgError):
        div_bound(1, 0, 2, 1, 1)
    with pytest.raises(DalgError):
        composition_bound(-1, 0, 1, 1)


def test_curve_shape_and_csv():
    pts = curve(2, 2, 1, 2, 8)
    assert [p.r for p in pts] == list(range(2, 9))
    assert pts[0].k_min == 10
    from math import comb
    for p in pts:
        assert p.monomial_count == comb(p.k_min + p.r + 1, p.r + 1)
    lines = curve_to_csv(pts).strip().splitlines()
    assert lines[0] == "r,k_min,monomial_count"
    assert lines[1] == "2,10,286"
    assert len(lines) == 8


def test_relation_experiment_frozen_values():
    rep = relation_experiment(1, 3, 42)
    assert (rep.k_observed, rep.k_counting, rep.k_theorem_bound) == (3, 4, 4)
    rep2 = relation_experiment(1, 2, 42)
    assert (rep2.k_observed, rep2.k_counting, rep2.k_theorem_bound) == \
        (2, 2, 2)


def test_relation_experiment_reproducible_and_scaled():
    a = relation_experiment(1, 3, 7)
    b = relation_experiment(1, 3, 7)
    assert a.to_json() == b.to_json()
    with pytest.raises(DalgError):
        relation_experiment(4, 2, 1)


def _k_counting(n, d):
    k = 1
    while comb(n + 1 + k, n + 1) <= comb(n + k * d, n):
        k += 1
    return k


def _draw(rng, n, d):
    """One draw of relation_experiment over exponent tuples: coefficients
    in -9..9 over the monomials of degree <= d in ascending tuple order,
    drawn again until a term has degree d."""
    monos = sorted(m for m in product(range(d + 1), repeat=n) if sum(m) <= d)
    while True:
        poly = {}
        for m in monos:
            c = rng.randint(-9, 9)
            if c:
                poly[m] = c
        if any(sum(m) == d for m in poly):
            return poly


def _coded(poly, n, w):
    """poly over exponent tuples as {packed code: coefficient}, the first
    variable in the highest field of w bits."""
    return {sum(e << (n - 1 - i) * w for i, e in enumerate(m)): c
            for m, c in poly.items()}


@pytest.mark.parametrize("n,d", [(1, 2), (1, 3), (2, 2)])
def test_relation_experiment_matches_dense_oracle(monkeypatch, n, d):
    # every draw the walk gets is the same draw made over exponent tuples,
    # coded in fields wide enough for degree k_counting * d, and k_observed
    # is the dense oracle's first relation degree of the last draw
    walked = []
    walk = bounds._first_relation

    def spy(polys, *rest):
        walked.append(polys)
        return walk(polys, *rest)

    monkeypatch.setattr(bounds, "_first_relation", spy)
    k_counting = _k_counting(n, d)
    w = (k_counting * d).bit_length()
    for seed in range(6):
        walked.clear()
        k_observed = relation_experiment(n, d, seed).k_observed
        rng = random.Random(seed)
        for polys in walked:
            draw = [_draw(rng, n, d) for _ in range(n + 1)]
            assert polys == [_coded(p, n, w) for p in draw]
            assert (first_relation_degree(draw, k_counting) > 1) == \
                (polys is walked[-1])
        assert first_relation_degree(draw, k_counting) == k_observed


@pytest.mark.parametrize("n,d", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_degree_walk_matches_dense_oracle(n, d):
    # sparse seeded draws, many of which are dependent early; a walk cut
    # at k_top below the counting onset reports a draw without a relation
    # by then as an internal error
    k_top = 4
    for seed in range(12):
        rng = random.Random(seed)
        monos = [m for m in product(range(d + 1), repeat=n) if sum(m) <= d]
        polys = [{m: rng.choice([-2, -1, 1, 3])
                  for m in rng.sample(monos, rng.randint(1, 3))}
                 for _ in range(n + 1)]
        k = first_relation_degree(polys, k_top)
        coded = [_coded(p, n, (k_top * d).bit_length()) for p in polys]
        if k is None:
            with pytest.raises(DalgError, match="internal error"):
                bounds._first_relation(coded, d, k_top)
        else:
            assert bounds._first_relation(coded, d, k_top) == k


@pytest.mark.parametrize("n,d,seed", [(1, 3, 42), (2, 2, 42), (2, 2, 7)])
def test_degree_walk_feeds_each_row_once(monkeypatch, n, d, seed):
    # a draw that is not dependent at degree 1 feeds each product p^w,
    # |w| <= k_observed, exactly once
    calls = []
    add_row = SparseEliminator.add_row

    def counted(self, row, tag=None):
        calls.append(row)
        return add_row(self, row, tag)

    monkeypatch.setattr(SparseEliminator, "add_row", counted)
    k = relation_experiment(n, d, seed).k_observed
    assert len(calls) == comb(n + 1 + k, n + 1)


@pytest.mark.parametrize("budget, layer", [(1, "5 x 35"), (175, "15 x 165")])
def test_degree_walk_charges_each_degree_before_building_it(monkeypatch,
                                                            budget, layer):
    # k_counting is near 250 for n = 3, d = 4, where a code table up to it
    # would hold ~1.7e8 ints; the walk makes no codes for w, and the only
    # codes made, d steps up to the draws' degree d, come before any
    # degree's budget check
    steps = []
    step = bounds.next_degree_codes

    def spy(prev, v, w):
        steps.append(len(prev))
        return step(prev, v, w)

    monkeypatch.setattr(bounds, "next_degree_codes", spy)
    with budget_limit(budget), pytest.raises(BudgetExceededError) as e:
        relation_experiment(3, 4, 0)
    assert f"matrix of {layer} " in str(e.value) and len(steps) == 4


def test_relation_experiment_leaves_no_cyclic_garbage():
    relation_experiment(2, 2, 42)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        relation_experiment(2, 2, 42)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
