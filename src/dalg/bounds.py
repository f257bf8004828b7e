"""Closed-form degree bounds, order/degree curves, and the random
algebraic-relation experiment.

The main bound states that an annihilator of order r and degree k exists
as soon as k > (r+1) * (d^(1+(r_min-r_l)/(r-r_min+1)) - 1).  The
underlying counting inequality C(r+1+k, r+1) > d^(r-r_l+1) * C(r_min+k, k)
is usually satisfied earlier; sufficiency_k finds its exact onset by
bisection.  Non-integral exponents are handled without floating-point
rounding: k > (r+1)*(d^(p/q)-1) holds iff (k+r+1)^q > d^p * (r+1)^q,
so k_min comes from an exact integer q-th root.  When that root is exact
(d^(p/q) is an integer) so is the threshold; otherwise the printed
threshold is rounded from floor(threshold * 10^s).

relation_experiment finds the first degree k of a dependence among the
products p^w, |w| <= k, of n+1 random polynomials in n variables.  Each
draw walks k = 1, 2, ... with one eliminator, fed at each k only the
products of degree exactly k, each p_j times one of degree k - 1.
Columns are packed codes (linalg.next_degree_codes), ascending as
exponent tuples are, so after degree k the eliminator holds the echelon
form of the whole degree-<= k matrix, whose size the budget checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, gcd, prod

from .errors import DalgError, HypothesisError
from .linalg import SparseEliminator, check_budget, next_degree_codes


def iroot(a, n):
    """(floor(a^(1/n)), whether that root is exact) for integers a >= 0
    and n >= 1.

    Integer Newton steps x -> ((n-1)*x + a // x^(n-1)) // n fall strictly
    from any start above the root down to its floor, where they stop.
    The start is one more than the root of a's leading bits, shifted
    back into place: it lies above the root and already carries about
    half of its bits, so the steps converge quadratically instead of
    creeping down from a power of two.
    """
    if a < 0 or n < 1:
        raise DalgError("iroot needs a >= 0 and n >= 1")
    if a < 2 or n == 1:
        return a, True
    shift = a.bit_length() // n // 2
    if shift:
        x = (iroot(a >> n * shift, n)[0] + 1) << shift
    else:
        x = 1 << -(-a.bit_length() // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x, x ** n == a
        x = y


def _validate(d, r_min, r_l, r):
    if d < 1:
        raise DalgError("d must be a positive integer")
    if r_min < 0 or r_l < 0 or r_l > r_min:
        raise DalgError("need 0 <= r_l <= r_min")
    if r < r_min:
        raise DalgError(f"r = {r} is below r_min = {r_min}")


@dataclass
class ThresholdBound:
    """k_min is the smallest integer strictly above the threshold T.  When
    d^(p/q) is an integer (always with an integer exponent, and for d = 1)
    T is exact and is threshold_fraction; display prints it, or else T
    rounded exactly as "%.6g" would print it."""

    k_min: int
    exact: bool
    threshold_fraction: Fraction | None
    display: str


def _display_6g(d, p, q, r):
    """T = (r+1)*(d^(p/q) - 1) as "%.6g" prints it, rounded exactly.

    With a = (r+1)*10^s, floor(T*10^s) = iroot(d^p * a^q, q) - a; s grows
    until that floor has seven digits.  Unless the root is exact, T*10^s
    lies strictly inside the next unit, so its midpoint rounds the same
    way and is never a tie.
    """
    s = 0
    while True:
        a = (r + 1) * 10 ** s
        root, exact = iroot(d ** p * a ** q, q)
        n = root - a
        if n == 0:
            return "0"
        if n >= 10 ** 6:
            break
        s += 1
    digits = len(str(n)) - 6
    v = Decimal(round(Fraction(2 * n + (not exact), 2 * 10 ** digits)))
    v = v.scaleb(digits - s)
    e = v.adjusted()
    if e < 6:
        return format(v.normalize(), "f")
    return f"{format(v.scaleb(-e).normalize(), 'f')}e+{e:02d}"


def theorem_bound(d, r_min, r_l, r):
    """Smallest integer k strictly above (r+1)*(d^(1+(r_min-r_l)/(r-r_min+1))-1)."""
    _validate(d, r_min, r_l, r)
    p = r - r_l + 1
    q = r - r_min + 1
    g = gcd(p, q)
    p, q = p // g, q // g
    # k + r + 1 > (d^p (r+1)^q)^(1/q) iff k + r + 1 > floor of that root;
    # the root is exact whenever d^(p/q) is an integer, as when q = 1
    root, exact = iroot(d ** p * (r + 1) ** q, q)
    if exact:
        t = Fraction(root - (r + 1))
        return ThresholdBound(k_min=root - r, exact=True,
                              threshold_fraction=t, display=str(t))
    return ThresholdBound(k_min=max(1, root - r), exact=False,
                          threshold_fraction=None,
                          display=_display_6g(d, p, q, r))


def sufficiency_k(d, r_min, r_l, r):
    """Exact onset of the counting inequality behind the main bound.

    C(r+1+k, r+1) / C(r_min+k, k) = prod (k+j) / prod j over j = r_min+1
    .. r+1, so the inequality reads prod (k+j) > d^(r-r_l+1) * prod j:
    r - r_min + 1 factors, not two binomials in k.  The left side rises
    strictly in k, so gallop to a k where it holds, then bisect.
    """
    _validate(d, r_min, r_l, r)
    js = range(r_min + 1, r + 2)
    rhs = d ** (r - r_l + 1) * prod(js)

    def holds(k):
        return prod(k + j for j in js) > rhs

    lo, hi = 0, 1
    while not holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def plus_times_bound(degQ, d, r_min, r):
    """Degree bound for Q(f_1, ..., f_n): main bound with d -> degQ*d, r_l = 0."""
    if degQ < 1:
        raise DalgError("degQ must be a positive integer")
    return theorem_bound(degQ * d, r_min, 0, r).k_min


def div_bound(degQn, degQd, d, r_min, r):
    """Degree bound for the quotient system: degQ = max(degQn, degQd)."""
    if degQn < 0 or degQd < 1:
        raise DalgError("need degQn >= 0 and degQd >= 1")
    return plus_times_bound(max(degQn, degQd, 1), d, r_min, r)


def composition_bound(r1, r2, d1, d2):
    """Smallest k strictly above (r1+r2+1)*((r1+r2+1)! * d1^r2 * d2^r1 - 1)."""
    if min(r1, r2) < 0 or min(d1, d2) < 1:
        raise DalgError("orders must be >= 0 and degrees >= 1")
    s = r1 + r2 + 1
    return s * (factorial(s) * d1 ** r2 * d2 ** r1 - 1) + 1


# ---------------------------------------------------------------------------
# order/degree curve

@dataclass
class CurvePoint:
    r: int
    k_min: int
    monomial_count: int


def curve(d, r_min, r_l, r_from, r_to):
    """One CurvePoint per order r in r_from..r_to.

    k_min is sufficiency_k(d, r_min, r_l, r), the smallest degree at which
    the counting inequality holds.  monomial_count is C(k_min+r+1, r+1),
    the size of a degree <= k_min ansatz in z, ..., z^(r).  Neither column
    is promised to be monotone in r: for d=2, r_min=2, r_l=1 the count
    rises from r=2 on, while k_min falls and then grows again.
    """
    points = []
    for r in range(r_from, r_to + 1):
        k = sufficiency_k(d, r_min, r_l, r)
        points.append(CurvePoint(r=r, k_min=k,
                                 monomial_count=comb(k + r + 1, r + 1)))
    return points


def curve_to_csv(points):
    lines = ["r,k_min,monomial_count"]
    lines.extend(f"{p.r},{p.k_min},{p.monomial_count}" for p in points)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# random algebraic-relation experiment

@dataclass
class RelationReport:
    n: int
    d: int
    seed: int
    k_observed: int
    k_counting: int
    k_theorem_bound: int

    def to_json(self):
        return {"n": self.n, "d": self.d, "seed": self.seed,
                "k_observed": self.k_observed,
                "k_counting": self.k_counting,
                "k_theorem_bound": self.k_theorem_bound}


def _sample_poly(rng, codes, w):
    """Coefficients in -9..9 drawn over codes, the ascending codes of
    degree d in n + 1 variables, again until a term is free of the last
    (bits 0..w-1); keyed by code >> w, those of degree <= d in n."""
    while True:
        poly = {}
        for c in codes:
            v = rng.randint(-9, 9)
            if v:
                poly[c] = v
        if any(not c & ((1 << w) - 1) for c in poly):
            return {c >> w: v for c, v in poly.items()}


def _first_relation(polys, d, k_top):
    """The least k <= k_top at which the products p^w, |w| <= k, of polys
    ({code: coefficient}) are linearly dependent.  On reaching k, feed
    p^w, |w| = k, in ascending w: for j = n down to 0, p_j times each of
    the first C(n - j + k - 1, k - 1) products of degree k - 1 (those in
    p_j.. only), which gives the p^w whose first nonzero exponent is at
    j.  At k_top the rows outnumber the columns: a relation exists."""
    n = len(polys) - 1
    elim = SparseEliminator(comb(n + k_top * d, n))
    prev = [{0: 1}]
    elim.add_row(prev[0])
    for k in range(1, k_top + 1):
        nrows = comb(n + 1 + k, n + 1)
        check_budget(nrows, comb(n + k * d, n))
        cur = []
        for j in range(n, -1, -1):
            for parent in prev[:comb(n - j + k - 1, k - 1)]:
                row = {}
                for ca, va in parent.items():
                    for cb, vb in polys[j].items():
                        row[ca + cb] = row.get(ca + cb, 0) + va * vb
                row = {c: v for c, v in row.items() if v}
                cur.append(row)
                elim.add_row(row)
        if elim.rank < nrows:
            return k
        prev = cur
    raise DalgError(f"internal error: no relation at degree {k_top}, where "
                    "the rows outnumber the columns")


def relation_experiment(n, d, seed):
    """Seeded search for the first degree k admitting an algebraic relation
    among n+1 random dense degree-d polynomials in n variables."""
    if n > 3 or d > 4 or n < 1 or d < 1:
        raise DalgError("desk scale only: need 1 <= n <= 3 and 1 <= d <= 4")
    if d == 1:
        raise DalgError("need d >= 2: n+1 linear polynomials in n variables "
                        "always satisfy a linear relation")
    k_thm = (n + 1) * (d ** n - 1)
    k_counting = 1
    while comb(n + 1 + k_counting, n + 1) <= comb(n + k_counting * d, n):
        k_counting += 1
    # one code layout for every product up to degree k_counting * d
    w = (k_counting * d).bit_length()
    codes = [0]
    for _ in range(d):
        codes = next_degree_codes(codes, n + 1, w)
    rng = random.Random(seed)
    for _ in range(20):
        polys = [_sample_poly(rng, codes, w) for _ in range(n + 1)]
        k = _first_relation(polys, d, k_counting)
        if k > 1:
            return RelationReport(n=n, d=d, seed=seed, k_observed=k,
                                  k_counting=k_counting, k_theorem_bound=k_thm)
    raise HypothesisError("degenerate samples: dependence at degree 1 in "
                          "20 consecutive draws")
