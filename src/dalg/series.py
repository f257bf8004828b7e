"""Truncated power series with exact coefficients, an ODE-driven series
solver, and series certification of annihilators.

A SeriesQ holds Taylor coefficients around a rational expansion point;
index n is the coefficient of t^n with x = point + t.  The truncation
order N means coefficients 0..N are correct; arithmetic tracks how many
output coefficients remain trustworthy (differentiation loses one,
products keep the minimum, integration gains one).

Differential polynomials are evaluated in the ring R = ring_of(field)[0]
of the coefficient field (ints over Q, Gaussian integers over Q(i),
polynomials in the parameters and x otherwise): jets and coefficients
are numerators in R over one common denominator, so no sum or product
takes a gcd of fractions.  verify_annihilator tests a residual by its
numerators alone; apply_dpoly divides once at the end.  The series
solver, solve_ode_series, evaluates the equation A*y^(r) + B = 0
online, in the same ring: the step that fixes coefficient r + t of the
solution computes coefficient t of every jet power and product in the
equation, one convolution sum each, and one division in the field.
newton_algebraic_series has no solver of its own; it returns the ODE
solver's series for the derivative of its algebraic equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .dpoly import DPoly, JetVar
from .errors import DalgError, HypothesisError
from .fields import Field, common_denominator, plain_q, ring_of
from .system import _family_of_label


def _embed(c, src: Field, dst: Field):
    if src.desc == dst.desc:
        return c
    if plain_q(src):
        return dst.from_fraction(Fraction(int(c.numerator),
                                          int(c.denominator)))
    if (src.desc.kind == "Qi" and not src.desc.params and not src.desc.has_x
            and dst.desc.kind == "Qi"):
        re = Fraction(int(c.x.numerator), int(c.x.denominator))
        im = Fraction(int(c.y.numerator), int(c.y.denominator))
        return dst.from_fraction(re) + dst.i() * dst.from_fraction(im)
    raise DalgError(
        f"cannot embed coefficients of {src.desc.label} into {dst.desc.label}")


# ---------------------------------------------------------------------------
# coefficient-list kernels (length = N+1).  _ladd, _lneg, _lmul and
# _lderive work over any ring, so they serve the field lists of SeriesQ
# and the numerator lists of an evaluation alike; the others divide.

def _ladd(a, b):
    return [u + v for u, v in zip(a, b)]


def _lneg(a):
    return [-c for c in a]


def _lmul(a, b, n, zero):
    """Product of two coefficient lists truncated to length n.

    The list with fewer nonzero entries is the outer one, and its zero
    entries are skipped.
    """
    if sum(map(bool, a)) > sum(map(bool, b)):
        a, b = b, a
    out = [zero] * n
    for i, ai in enumerate(a[:n]):
        if not ai:
            continue
        for j, bj in enumerate(b[:n - i], i):
            out[j] += ai * bj
    return out


def _lderive(a):
    return [a[i] * i for i in range(1, len(a))]


def _lintegrate(field, a, c0):
    out = [c0]
    for i, v in enumerate(a):
        out.append(v / field.q(i + 1))
    return out


def _linv(field, a):
    if field.is_zero(a[0]):
        raise HypothesisError(
            "series has no constant term; it is not invertible")
    n = len(a)
    inv0 = field.one / a[0]
    support = [j for j in range(1, n) if a[j]]
    out = [inv0] + [field.zero] * (n - 1)
    for k in range(1, n):
        acc = field.zero
        for j in support:
            if j > k:
                break
            acc = acc + a[j] * out[k - j]
        out[k] = -inv0 * acc
    return out


def _lexp0(field, a):
    if not field.is_zero(a[0]):
        raise HypothesisError(
            "exp requires a series with zero constant term")
    n = len(a)
    out = [field.one] + [field.zero] * (n - 1)
    for k in range(1, n):
        acc = field.zero
        for j in range(1, min(k, len(a) - 1) + 1):
            acc = acc + field.q(j) * a[j] * out[k - j]
        out[k] = acc / field.q(k)
    return out


def _lcompose0(field, a, b, n):
    if not field.is_zero(b[0]):
        raise HypothesisError(
            "composition requires an inner series with zero constant term")
    out = [field.zero] * n
    for c in reversed(a[:n]):
        out = _lmul(out, b, n, field.zero)
        out[0] = out[0] + c
    return out


# ---------------------------------------------------------------------------
# SeriesQ

@dataclass
class SeriesQ:
    """Truncated series around x = point; coefficients 0..N are exact."""
    field: Field
    point: Fraction
    coeffs: list
    N: int

    def __post_init__(self):
        self.point = Fraction(self.point)
        if self.N < 0:
            raise DalgError("truncation order must be >= 0")
        cs = list(self.coeffs[:self.N + 1])
        cs += [self.field.zero] * (self.N + 1 - len(cs))
        self.coeffs = cs

    @staticmethod
    def constant(field, value, N, point=0):
        cs = [field.zero] * (N + 1)
        cs[0] = value
        return SeriesQ(field, point, cs, N)

    @staticmethod
    def from_fractions(field, values, N, point=0):
        cs = [field.from_fraction(Fraction(v)) for v in values]
        return SeriesQ(field, point, cs, N)

    def coefficient(self, j):
        if j > self.N:
            raise DalgError(f"coefficient {j} is beyond the truncation {self.N}")
        return self.coeffs[j]

    def valuation(self):
        """Index of the first nonzero coefficient, or N+1 if none."""
        for j, c in enumerate(self.coeffs):
            if not self.field.is_zero(c):
                return j
        return self.N + 1

    def is_zero_to_truncation(self):
        return self.valuation() == self.N + 1

    def truncate(self, n):
        if n > self.N:
            raise DalgError("cannot extend a truncated series")
        return SeriesQ(self.field, self.point, self.coeffs[:n + 1], n)

    def __eq__(self, other):
        return (isinstance(other, SeriesQ)
                and self.field.desc == other.field.desc
                and self.point == other.point and self.N == other.N
                and self.coeffs == other.coeffs)

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if self.field.is_zero(c):
                continue
            body = self.field.to_str(c)
            if "+" in body or (body.count("-") and not body.startswith("-")):
                body = f"({body})"
            parts.append(body if j == 0 else
                         (f"{body}*t^{j}" if j > 1 else f"{body}*t"))
        head = " + ".join(parts) if parts else "0"
        return f"{head} + O(t^{self.N + 1})"

    def to_json(self):
        return {"point": str(self.point), "N": self.N,
                "coefficients": [self.field.to_str(c) for c in self.coeffs]}


def _unify(a: SeriesQ, b: SeriesQ):
    if a.point != b.point:
        raise DalgError("series have different expansion points")
    if a.field.desc == b.field.desc:
        return a, b
    for s, t in ((a, b), (b, a)):
        try:
            lifted = SeriesQ(t.field, s.point,
                             [_embed(c, s.field, t.field) for c in s.coeffs],
                             s.N)
        except DalgError:
            continue
        return (lifted, t) if s is a else (t, lifted)
    raise DalgError(
        f"series fields {a.field.desc.label} and {b.field.desc.label} "
        f"are not compatible")


def series_add(a, b):
    a, b = _unify(a, b)
    n = min(a.N, b.N)
    return SeriesQ(a.field, a.point, _ladd(a.coeffs, b.coeffs), n)


def series_sub(a, b):
    a, b = _unify(a, b)
    n = min(a.N, b.N)
    return SeriesQ(a.field, a.point,
                   _ladd(a.coeffs, _lneg(b.coeffs)), n)


def series_mul(a, b):
    a, b = _unify(a, b)
    n = min(a.N, b.N)
    return SeriesQ(a.field, a.point,
                   _lmul(a.coeffs, b.coeffs, n + 1, a.field.zero), n)


def series_div(a, b):
    a, b = _unify(a, b)
    n = min(a.N, b.N)
    inv = _linv(b.field, b.coeffs[:n + 1])
    return SeriesQ(a.field, a.point,
                   _lmul(a.coeffs, inv, n + 1, a.field.zero), n)


def series_derive(a):
    if a.N < 1:
        raise DalgError("cannot differentiate below truncation 0")
    return SeriesQ(a.field, a.point, _lderive(a.coeffs), a.N - 1)


def series_integrate(a, c0=0):
    c0 = a.field.from_fraction(Fraction(c0)) if not _is_elem(a.field, c0) else c0
    return SeriesQ(a.field, a.point, _lintegrate(a.field, a.coeffs, c0),
                   a.N + 1)


def series_exp0(a):
    return SeriesQ(a.field, a.point, _lexp0(a.field, a.coeffs), a.N)


def series_compose0(a, b):
    a, b = _unify(a, b)
    n = min(a.N, b.N)
    return SeriesQ(a.field, a.point,
                   _lcompose0(a.field, a.coeffs, b.coeffs, n + 1), n)


def _is_elem(field, c):
    return field.domain.of_type(c)


_BINARY = {"add": series_add, "sub": series_sub, "mul": series_mul,
           "div": series_div, "compose": series_compose0}
_UNARY = {"derive": series_derive, "integrate": series_integrate,
          "exp": series_exp0}


def series_arith(op, a, b=None):
    if op in _BINARY:
        if b is None:
            raise DalgError(f"operation {op!r} needs two series")
        return _BINARY[op](a, b)
    if op in _UNARY:
        if b is not None:
            raise DalgError(f"operation {op!r} takes one series")
        return _UNARY[op](a)
    raise DalgError(f"unknown series operation {op!r}")


# ---------------------------------------------------------------------------
# evaluating differential polynomials on series

def _x_series(field, R, c, point, n):
    """Coefficient c, which may involve x, as a t-list with x = point + t.

    Returns (numerators, denominator) in R.  c = sum_e c_e * x^e of degree
    d, with the c_e over one denominator; with point = a/b the powers of
    b are cleared into it too: b^d * x^e = sum_j C(e, j) * a^(e-j) *
    b^(d-e+j) * t^j.
    """
    nums, den = common_denominator(R, field.domain, field.as_x_poly(c))
    d = len(nums) - 1
    a, b = point.numerator, point.denominator
    out = [R.zero] * n
    for e, ce in enumerate(nums):
        if not ce:
            continue
        for j in range(min(e, n - 1) + 1):
            out[j] += ce * (comb(e, j) * a ** (e - j) * b ** (d - e + j))
    return out, den * b ** d


def _coefficients(P: DPoly, point, n):
    """P's terms for _eval_terms: (terms, den) with one entry (t-list,
    monomial, jet degree) per term, the t-lists (_x_series) truncated to
    length n and scaled to numerators in R over their common
    denominator den."""
    field = P.field
    R = ring_of(field)[0]
    terms = []
    for m, c in P.terms.items():
        cnums, cden = _x_series(field, R, c, point, n)
        if any(v == (0, 0, 0) for v, _ in m):
            raise DalgError(
                "homogenization variable present; dehomogenize first")
        terms.append((cnums, cden, m))
    den = R.one
    for _, cden, _ in terms:
        den = R.lcm(den, cden)
    return [([v * (den // cden) for v in cnums], m, sum(e for _, e in m))
            for cnums, cden, m in terms], den


def _eval_terms(R, coefficients, jets, den, n):
    """A polynomial evaluated on jets held as numerators over one
    denominator.

    coefficients is _coefficients of the polynomial, with t-lists at
    least n long.  jets maps (fam, idx) to the t-lists of its jets, index
    = derivative order, with entries numerators in R over the common
    denominator den.  Returns (numerators, denominator) in R of the value
    truncated to length n.  Each jet power is computed once and shared by
    every monomial, and a term of jet degree e is scaled by
    den^(top - e), top the largest degree, so that every term has the
    same denominator.
    """
    terms, cden = coefficients
    zero = R.zero
    top = max((deg for *_, deg in terms), default=0)
    den_powers = [R.one]
    for _ in range(top):
        den_powers.append(den_powers[-1] * den)

    powers = {}

    def power(v, e):
        ladder = powers.setdefault(v, [None, jets[v[:2]][v[2]]])
        while len(ladder) <= e:
            ladder.append(_lmul(ladder[-1], ladder[1], n, zero))
        return ladder[e]

    acc = [zero] * n
    for cnums, m, deg in terms:
        scale = den_powers[top - deg]
        term = [v * scale for v in cnums[:n]]
        for v, e in m:
            term = _lmul(term, power(v, e), n, zero)
        acc = _ladd(acc, term)
    return acc, cden * den_powers[top]


def _to_field(field, nums, den):
    """The field elements nums[j] / den, one division each."""
    R, F = ring_of(field)
    vals = [F.convert_from(v, R) if v else F.zero for v in nums]
    if den == R.one:
        return vals
    d = F.convert_from(den, R)
    return [v / d if v else v for v in vals]


def _jets(field, series):
    """(jets, den) of field lists, as numerators in the ring over one
    common denominator den.  series maps (fam, idx) to (coefficients, r):
    jets[(fam, idx)] holds the coefficients and their first r
    derivatives."""
    R, F = ring_of(field)
    nums, den = common_denominator(
        R, F, [c for cs, _ in series.values() for c in cs])
    jets, pos = {}, 0
    for fam, (cs, r) in series.items():
        ladder = [nums[pos:pos + len(cs)]]
        pos += len(cs)
        for _ in range(r):
            ladder.append(_lderive(ladder[-1]))
        jets[fam] = ladder
    return jets, den


def _residual(P: DPoly, witnesses):
    """(point, numerators, denominator, truncation N) of P evaluated on
    series witnesses; numerators and denominator lie in the ring of
    P's field, and only numerators 0..N are trustworthy."""
    field = P.field
    wit = {}
    for k, s in witnesses.items():
        fam = _family_of_label(k) if isinstance(k, str) else tuple(k)
        wit[fam] = s
    orders = P.orders()
    missing = [f for f in orders if f not in wit]
    if missing:
        raise DalgError(f"no witness series for famil{'ies' if len(missing)>1 else 'y'} "
                        f"{sorted(missing)}")
    points = {s.point for s in wit.values()}
    if len(points) > 1:
        raise DalgError("witness series have different expansion points")
    point = points.pop() if points else Fraction(0)

    n_eff = min((wit[fam].N - top for fam, top in orders.items()), default=0)
    series = {}
    for fam, top in orders.items():
        s = wit[fam]
        coeffs = ([_embed(c, s.field, field) for c in s.coeffs]
                  if s.field.desc != field.desc else s.coeffs)
        series[fam] = (coeffs[:n_eff + top + 1], top)
    if n_eff < 0:
        raise DalgError("witness truncation too small for the derivatives "
                        "required")
    coefficients = _coefficients(P, point, n_eff + 1)
    vals, vden = _eval_terms(ring_of(field)[0], coefficients,
                             *_jets(field, series), n_eff + 1)
    return point, vals, vden, n_eff


def apply_dpoly(P: DPoly, witnesses) -> SeriesQ:
    """Evaluate P on series witnesses for each jet family it uses.

    witnesses maps a family label ("y1", "z") or key tuple to a SeriesQ.
    x inside coefficients is expanded around the common expansion point.
    The value is computed in the ring and divided once at the end.
    """
    point, nums, den, n = _residual(P, witnesses)
    return SeriesQ(P.field, point, _to_field(P.field, nums, den), n)


# ---------------------------------------------------------------------------
# ODE series solving

def solve_ode_series(P: DPoly, initial, N, point=0) -> SeriesQ:
    """Taylor series at x = point of the solution of P = 0 whose jets
    f(point), f'(point), ..., f^(r-1)(point) are `initial`.

    P must involve a single jet family and be linear in its highest
    derivative, with leading coefficient nonvanishing on the initial
    jets.  Coefficients 0..N are exact.
    """
    return _solve_ode(P, initial, N, point)


# newton_algebraic_series calls this body, not the public name, so that a
# wrapper timing each public name (perfbench's trace) counts its series once
def _solve_ode(P, initial, N, point):
    """The series of solve_ode_series, computed online in the ring R.

    P = A*f^(r) + B, where A and B take jets below order r only.  With
    q_t = (r+t)!/t! * f_(r+t) the coefficients of f^(r), coefficient t
    of P(f) is B_t + sum_(i<=t) A_(t-i) q_i, so P(f)_t = 0 fixes q_t =
    -(B_t + sum_(i<t) A_(t-i) q_i) / A_0.  Step t computes coefficient t
    of every jet below order r, of every jet power and of every partial
    product of a term of P (all their factors are known by then), and
    for a term with f^(r) the sum over i < t against the q_i: one
    convolution sum each, O(t) ring products in all.  Every stored
    coefficient is that of the true series.  The lists are numerators
    over the common denominator D of the coefficients fixed so far (a
    list of jet degree e over D^e, a term's coefficients over their own
    denominator too), and when a new coefficient widens D they are
    rescaled.  Each coefficient is reduced by one gcd in R and divided
    once into the field.
    """
    field = P.field
    fams = set(P.orders())
    if len(fams) != 1:
        raise DalgError("the equation must involve exactly one jet family")
    fam = fams.pop()
    r = P.orders()[fam]
    if len(initial) != r:
        raise DalgError(f"need exactly r = {r} initial jets, got {len(initial)}")
    top = JetVar(fam[0], fam[1], r)
    by_deg = P.as_poly_in(top)
    if max(by_deg) != 1:
        raise HypothesisError(
            "the equation is not linear in its highest derivative")
    point = Fraction(point)
    init = [c if _is_elem(field, c) else field.from_fraction(Fraction(c))
            for c in initial]

    n = N + 1
    f = [field.zero] * n
    for j, c in enumerate(init):
        if j < n:
            f[j] = c / field.q(factorial(j))

    R, F = ring_of(field)
    nums, a0_den = _eval_terms(R, _coefficients(by_deg[1], point, 1),
                               *_jets(field, {fam: (f[:r], r - 1)}), 1)
    a0 = nums[0]        # A_0 = a0 / a0_den
    if not a0:
        raise HypothesisError(
            "leading coefficient vanishes on the initial jets; the series "
            "is not determined")
    terms, cden = _coefficients(P, point, n)
    one, zero = R.one, R.zero
    fn, jet = [], [[] for _ in range(r + 1)]    # f and its jets, over D
    kept = [(fn, 1)] + [(js, 1) for js in jet]  # (list, its power of D)
    products = []       # (a, b, out): out[t] is coefficient t of a*b
    powers = {(o, 1): js for o, js in enumerate(jet)}

    def power(o, e):
        """The list of (f^(o))^e.  A loop, not recursion: a closure that
        calls itself is a reference cycle, which would keep every list
        of the call until the next garbage collection."""
        for d in range(2, e + 1):
            if (o, d) not in powers:
                powers[(o, d)] = out = []
                products.append((powers[(o, d - 1)], jet[o], out))
                kept.append((out, d))
        return powers[(o, e)]

    degree = max(deg for *_, deg in terms)
    plan = []   # (power of D that scales it, partial product, times q)
    for cnums, m, deg in terms:
        part, e_part, with_q = cnums, 0, False
        for v, e in m:
            if v[2] == r:
                with_q = True
                continue
            out = []
            products.append((part, power(v[2], e), out))
            e_part += e
            kept.append((out, e_part))
            part = out
        plan.append((degree - deg, part, with_q))

    D, scale = one, None

    def push(num, den):
        """Append the coefficient num/den of f to fn, widening D."""
        nonlocal D, scale
        if den != one and den != D:
            wide = R.lcm(D, den)
            u = wide // D
            if u != one:
                us = [one, u]
                for values, e in kept:
                    while len(us) <= e:
                        us.append(us[-1] * u)
                    values[:] = [v * us[e] for v in values]
                D, scale = wide, None
        fn.append(num * (D // den))

    K = R.get_field()
    for c in f[:r]:
        c = K.convert_from(c, F)
        push(K.numer(c), K.denom(c))
    for t in range(n - r):
        for o in range(r):
            jet[o].append(fn[t + o] * (factorial(t + o) // factorial(t)))
        for a, b, out in products:
            out.append(_product_coefficient(a, b, t, zero))
        if scale is None:
            scale = [one]
            for _ in range(degree):
                scale.append(scale[-1] * D)
        acc = zero
        for e, part, with_q in plan:
            v = (_product_coefficient(part, jet[r], t, zero) if with_q
                 else part[t])
            if v:
                acc += v * scale[e]
        # acc / (cden * D^degree) is P(f)_t with q_t = 0, so f_(r+t) =
        # q_t * t!/(r+t)! = -acc / (cden * D^degree * A_0) * t!/(r+t)!
        num = -acc * a0_den * factorial(t)
        den = cden * scale[degree] * a0 * factorial(r + t)
        g = R.gcd(num, den)
        num, den = num // g, den // g
        f[r + t] = _to_field(field, [num], den)[0]
        push(num, den)
        jet[r].append(fn[r + t] * (factorial(r + t) // factorial(t)))
    return SeriesQ(field, point, f, N)


def _product_coefficient(a, b, t, zero):
    """Coefficient t of the product of the series with coefficient lists
    a and b; entries b does not have yet count as 0."""
    acc = zero
    for i in range(max(0, t + 1 - len(b)), t + 1):
        u, v = a[i], b[t - i]
        if u and v:
            acc += u * v
    return acc


def newton_algebraic_series(Qg: DPoly, y0, N, point=0) -> SeriesQ:
    """Series of the algebraic function y(x) with Qg(x, y) = 0 and
    y(point) = y0, where y0 is a simple root of Qg(point, .).

    Qg(x, y(x)) vanishes exactly when its value at the point and its
    derivative Qg_y * y' + Qg_x do.  That ODE is linear in y' with
    leading coefficient Qg_y(point, y0) != 0, so its series solution
    from y0 is unique: the limit of the Newton iteration, coefficient
    for coefficient.
    """
    field = Qg.field
    if set(Qg.orders()) != {(1, 1)} or Qg.orders()[(1, 1)] != 0:
        raise DalgError("Qg must be a polynomial in y1 alone (order 0)")
    y0 = y0 if _is_elem(field, y0) else field.from_fraction(Fraction(y0))
    start = {(1, 1): SeriesQ.constant(field, y0, 0, point)}
    if _residual(Qg, start)[1][0]:
        raise HypothesisError("y0 is not a root of Qg at the expansion point")
    if not _residual(Qg.partial(JetVar.y(1)), start)[1][0]:
        raise HypothesisError("y0 is not a simple root; Newton iteration "
                              "cannot start")
    return _solve_ode(Qg.derive(), [y0], N, point)


# ---------------------------------------------------------------------------
# certification

def verify_annihilator(ann, witnesses, N=None) -> dict:
    """Series-certify an annihilator against witness series.

    The residual is P evaluated on the witnesses; it is certified when
    every trustworthy residual coefficient vanishes.  Its numerators in
    the ring are tested directly: the common denominator is nonzero, so
    the valuation is theirs.  The annihilator's series_certified /
    residual_valuation fields are updated in place.
    """
    wit = dict(witnesses)
    if N is not None:
        wit = {k: (s.truncate(N) if s.N > N else s) for k, s in wit.items()}
    _, nums, _, n = _residual(ann.poly, wit)
    valuation = next((j for j, v in enumerate(nums) if v), n + 1)
    certified = valuation == n + 1
    ann.series_certified = certified
    ann.residual_valuation = valuation
    return {"certified": certified, "residual_valuation": valuation,
            "truncation": n}


# ---------------------------------------------------------------------------
# witness library

_WITNESS_ODE = {
    "exp": ("Q", "y1' - y1", ["1"]),
    "exp2x": ("Q", "y1' - 2*y1", ["1"]),
    "tan": ("Q", "y1' - 1 - y1^2", ["0"]),
    "geom": ("Q", "y1' - y1^2", ["1"]),
    "logistic": ("Q", "y1' - y1 + y1^2", ["1/2"]),
    "exp_x2": ("Q(;x)", "y1' - 2*x*y1", ["1"]),
    "expexp": ("Q", "y1*y1'' - y1'^2 - y1*y1'", ["1", "1"]),
}


def witness_names():
    return sorted(_WITNESS_ODE)


def witness(name, N, point=0) -> SeriesQ:
    """Library of named solution series (expanded at the given point)."""
    try:
        fld, ode, init = _WITNESS_ODE[name]
    except KeyError:
        raise DalgError(f"unknown witness {name!r}; available: "
                        f"{', '.join(witness_names())}")
    from .grammar import parse_poly
    from .fields import field_from_label
    field = field_from_label(fld)
    P = parse_poly(ode, field)
    init_f = [Fraction(v) for v in init]
    return solve_ode_series(P, init_f, N, point=point)
