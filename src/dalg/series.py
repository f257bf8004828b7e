"""Truncated power series with exact coefficients, an ODE-driven series
solver, and series certification of annihilators.

A SeriesQ holds Taylor coefficients around a rational expansion point;
index n is the coefficient of t^n with x = point + t.  The truncation
order N means coefficients 0..N are correct; arithmetic tracks how many
output coefficients remain trustworthy (differentiation loses one,
products keep the minimum, integration gains one).

Differential polynomials are evaluated in the ring R = ring_of(K0)[0] of
the x-free field K0 = x_free(field)[0], which is the coefficient field
without x: with x = point + t every Taylor coefficient is free of x, so
R holds ints over Q and Q(;x), Gaussian integers over Q(i) and Qi(;x),
and polynomials in the parameters otherwise.  Jets and coefficients are
numerators in R over one common denominator, so no sum or product takes
a gcd of fractions.  Each coefficient crosses between the field and K0
once: witness coefficients and initial jets on the way in (one that
involves x raises HypothesisError), solution and residual coefficients
on the way out; a SeriesQ keeps the field's elements.  One evaluator,
_Online, does all of it online: its step t computes coefficient t of
every jet power and partial product of the polynomial, one convolution
sum each.  verify_annihilator reads the residual's numerators from it
in order and stops at the first nonzero one; apply_dpoly takes them all
and divides once at the end.  The series solver, solve_ode_series,
evaluates the equation A*y^(r) + B = 0 with y^(r) held out: each step
returns the rest of coefficient t and A_0, and one division in K0 fixes
coefficient r + t of the solution.  newton_algebraic_series has no
solver of its own; it returns the ODE solver's series for the
derivative of its algebraic equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm

from .dpoly import DPoly, JetVar
from .errors import DalgError, HypothesisError
from .fields import (Field, _join_terms, common_denominator, plain_q,
                     ring_of, x_free)
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
# coefficient-list kernels of SeriesQ arithmetic (length = N+1)

def _ladd(a, b):
    return [u + v for u, v in zip(a, b)]


def _lneg(a):
    return [-c for c in a]


def _lmul(a, b, n, zero):
    """Product of two coefficient lists truncated to length n."""
    return [_product_coefficient(a, b, k, zero) for k in range(n)]


def _lderive(a):
    return [a[i] * i for i in range(1, len(a))]


def _lintegrate(a, c0):
    return [c0] + [v / (i + 1) for i, v in enumerate(a)]


def _linv(field, a):
    if field.is_zero(a[0]):
        raise HypothesisError(
            "series has no constant term; it is not invertible")
    inv0 = field.one / a[0]
    out = [inv0]
    for k in range(1, len(a)):
        out.append(-inv0 * _product_coefficient(a, out, k, field.zero))
    return out


def _lexp0(field, a):
    if not field.is_zero(a[0]):
        raise HypothesisError(
            "exp requires a series with zero constant term")
    da = _lderive(a)
    out = [field.one]
    for k in range(1, len(a)):
        out.append(_product_coefficient(da, out, k - 1, field.zero) / k)
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
            terms = self.field.term_strings(c)
            body = _join_terms(terms)
            if len(terms) > 1:
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
    return SeriesQ(a.field, a.point, _lintegrate(a.coeffs, c0),
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
    """Coefficient c, which may involve x, as a t-list with x = point + t,
    of length min(d + 1, n) for c of degree d in x.

    Returns (numerators, denominator) in R, the ring of the x-free field
    K0 of field: every Taylor coefficient is free of x.  c = sum_e c_e *
    x^e, with the c_e converted to K0 and put over one denominator; with
    point = a/b the powers of b are cleared into it too: b^d * x^e =
    sum_j C(e, j) * a^(e-j) * b^(d-e+j) * t^j.
    """
    K0, into, _ = x_free(field)
    nums, den = common_denominator(
        R, ring_of(K0)[1], [into(ce) for ce in field.as_x_poly(c)])
    d = len(nums) - 1
    a, b = point.numerator, point.denominator
    out = [R.zero] * min(d + 1, n)
    for e, ce in enumerate(nums):
        if not ce:
            continue
        for j in range(min(e, n - 1) + 1):
            out[j] += ce * (comb(e, j) * a ** (e - j) * b ** (d - e + j))
    return out, den * b ** d


def _coefficients(P: DPoly, R, point, n):
    """P's terms for _Online: (terms, den) with one entry (t-list,
    monomial, jet degree) per term, the t-lists (_x_series, at most n
    long) scaled to numerators in R over their common denominator den."""
    field = P.field
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


class _Online:
    """P evaluated online on series, in the ring R of the x-free field
    K0 of its field (ints over Q and Q(;x), ZZ_I over Q(i) and Qi(;x),
    polynomials in the parameters otherwise).

    push(fam, num, den) appends the next coefficient of a family's
    series, f_i = num/den, and with it coefficient i - o of each of its
    jets f^(o), (f^(o))_(i-o) = i!/(i-o)! * f_i.  step(t) computes
    coefficient t of every jet power and of every partial product of a
    term of P, one convolution sum each over coefficients computed
    before, and returns coefficient t of P.  Every list holds numerators
    over the common denominator D of the coefficients pushed so far (a
    list of jet degree e over D^e, a term's coefficients over their own
    denominator cden too); when a push widens D they are rescaled.

    One jet, held = (fam, idx, order), may be held out of the terms, with
    exponent at most 1: step(t) then counts its coefficient t, not yet
    pushed, as 0 and also returns the factor that multiplies it.
    """

    def __init__(self, P: DPoly, point, n, held=None):
        self.R = ring_of(x_free(P.field)[0])[0]
        terms, self.cden = _coefficients(P, self.R, point, n)
        self.jets = {fam: [[] for _ in range(top + 1)]
                     for fam, top in P.orders().items()}
        self.kept = [(js, 1) for jet in self.jets.values() for js in jet]
        self.products = []  # (a, b, out): out[t] is coefficient t of a*b
        self.powers = {}
        self.degree = max((deg for *_, deg in terms), default=0)
        self.plan = []      # (power of D, constant, list, takes held)
        for cnums, m, deg in terms:
            part, e_part, with_held = None, 0, False
            for v, e in m:
                if v == held:
                    with_held = True
                    continue
                power = self._power(v, e)
                e_part += e
                part = power if part is None else self._product(
                    part, power, e_part)
            # an x-free coefficient is one constant: it scales the term
            c = self.R.one
            if part is None:
                part = cnums
            elif len(cnums) == 1:
                c = cnums[0]
            else:
                part = self._product(cnums, part, e_part)
            self.plan.append((self.degree - deg, c, part, with_held))
        self.held = self.jets[held[:2]][held[2]] if held else None
        self.D, self.scale = self.R.one, None

    def _product(self, a, b, e):
        """A new list for a*b, whose entries are over D^e."""
        out = []
        self.products.append((a, b, out))
        self.kept.append((out, e))
        return out

    def _power(self, v, e):
        """The list of (f^(o))^e for v = (fam, idx, o)."""
        powers = self.powers
        powers.setdefault((v, 1), self.jets[v[:2]][v[2]])
        for d in range(2, e + 1):
            if (v, d) not in powers:
                powers[(v, d)] = self._product(powers[(v, d - 1)],
                                               powers[(v, 1)], d)
        return powers[(v, e)]

    def push(self, fam, num, den):
        """Append the coefficient num/den to fam's series, widening D."""
        R = self.R
        one = R.one
        if den != one and den != self.D:
            wide = R.lcm(self.D, den)
            u = wide // self.D
            if u != one:
                us = [one, u]
                for values, e in self.kept:
                    while len(us) <= e:
                        us.append(us[-1] * u)
                    values[:] = [v * us[e] for v in values]
                self.D, self.scale = wide, None
        jet = self.jets[fam]
        num, i = num * (self.D // den), len(jet[0])
        for o, js in enumerate(jet[:i + 1]):
            js.append(num * perm(i, o))

    def step(self, t):
        """(acc, a0): coefficient t of P, with the held jet's coefficient t
        counted as 0, and the factor a0 of that coefficient in it (A_0
        for P = A*f^(r) + B), both numerators over cden * D^degree."""
        R = self.R
        zero = R.zero
        for a, b, out in self.products:
            out.append(_product_coefficient(a, b, t, zero))
        if self.scale is None:
            powers = [R.one]
            for _ in range(self.degree):
                powers.append(powers[-1] * self.D)
            self.scale = [c * powers[e] for e, c, *_ in self.plan]
        acc = a0 = zero
        for (_, _, part, with_held), s in zip(self.plan, self.scale):
            if with_held:
                v = _product_coefficient(part, self.held, t, zero)
                if part[0]:
                    a0 += part[0] * s
            else:
                v = part[t] if t < len(part) else zero
            if v:
                acc += v * s
        return acc, a0


def _product_coefficient(a, b, t, zero):
    """Coefficient t of the product of the series with coefficient lists
    a and b; entries a list does not have count as 0."""
    acc = zero
    for i in range(max(0, t + 1 - len(b)), min(t + 1, len(a))):
        u, v = a[i], b[t - i]
        if u and v:
            acc += u * v
    return acc


def _to_field(field, nums, den):
    """The field elements nums[j] / den, for nums and den in the ring of
    the x-free field K0: one division each in K0, then one conversion."""
    K0, _, back = x_free(field)
    R, F = ring_of(K0)
    vals = [F.convert_from(v, R) if v else F.zero for v in nums]
    if den != R.one:
        d = F.convert_from(den, R)
        vals = [v / d if v else v for v in vals]
    return [back(v) for v in vals]


def _residual(P: DPoly, witnesses):
    """(point, numerators, denominator, truncation N) of P evaluated on
    series witnesses; numerators and denominator lie in the ring of the
    x-free field K0 of P's field, and only numerators 0..N are
    trustworthy.  The numerators are an iterator that computes each one
    when it is asked for.  Each witness coefficient is converted to K0
    once; one that involves x raises HypothesisError."""
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
        series[fam] = coeffs[:n_eff + top + 1]
    if n_eff < 0:
        raise DalgError("witness truncation too small for the derivatives "
                        "required")
    ev = _Online(P, point, n_eff + 1)
    K0, into, _ = x_free(field)
    R, F = ring_of(K0)
    nums, den = common_denominator(
        R, F, [into(c) for cs in series.values() for c in cs])
    nums = iter(nums)
    for fam, cs in series.items():
        for _ in cs:
            ev.push(fam, next(nums), den)
    return (point, (ev.step(t)[0] for t in range(n_eff + 1)),
            ev.cden * ev.D ** ev.degree, n_eff)


def apply_dpoly(P: DPoly, witnesses) -> SeriesQ:
    """Evaluate P on series witnesses for each jet family it uses.

    witnesses maps a family label ("y1", "z") or key tuple to a SeriesQ.
    x inside coefficients is expanded around the common expansion point.
    The value is computed in the ring and divided once at the end.
    """
    point, nums, den, n = _residual(P, witnesses)
    return SeriesQ(P.field, point, _to_field(P.field, list(nums), den), n)


# ---------------------------------------------------------------------------
# ODE series solving

def solve_ode_series(P: DPoly, initial, N, point=0) -> SeriesQ:
    """Taylor series at x = point of the solution of P = 0 whose jets
    f(point), f'(point), ..., f^(r-1)(point) are `initial`.

    P must involve a single jet family and be linear in its highest
    derivative, with leading coefficient nonvanishing on the initial
    jets.  The initial jets are constants: one that involves x raises
    HypothesisError.  Coefficients 0..N are exact.
    """
    return _solve_ode(P, initial, N, point)


# newton_algebraic_series calls this body, not the public name, so that a
# wrapper timing each public name (perfbench's trace) counts its series once
def _solve_ode(P, initial, N, point):
    """The series of solve_ode_series, computed online in the ring R of
    the x-free field K0 of P's field.

    P = A*f^(r) + B, where A and B take jets below order r only.  With
    q_t = (r+t)!/t! * f_(r+t) the coefficients of f^(r), coefficient t
    of P(f) is B_t + sum_(i<=t) A_(t-i) q_i, so P(f)_t = 0 fixes q_t =
    -(B_t + sum_(i<t) A_(t-i) q_i) / A_0.  _Online evaluates P with
    f^(r) held out: its step t returns that sum and A_0, both over
    cden * D^degree, and q_t is over D, so f_(r+t) = q_t * t!/(r+t)! =
    -acc * t! / (A_0 * D * (r+t)!).  Each coefficient is reduced by one
    gcd in R and divided once into K0; the initial jets are converted
    into K0 and the solution's coefficients out of it, once each.
    """
    field = P.field
    fams = set(P.orders())
    if len(fams) != 1:
        raise DalgError("the equation must involve exactly one jet family")
    fam = fams.pop()
    r = P.orders()[fam]
    if len(initial) != r:
        raise DalgError(f"need exactly r = {r} initial jets, got {len(initial)}")
    if max(P.as_poly_in(JetVar(fam[0], fam[1], r))) != 1:
        raise HypothesisError(
            "the equation is not linear in its highest derivative")
    if N < 0:
        raise DalgError("truncation order must be >= 0")
    point = Fraction(point)
    K0, into, back = x_free(field)
    init = [into(c) if _is_elem(field, c) else K0.from_fraction(Fraction(c))
            for c in initial]
    f0 = [c / factorial(j) for j, c in enumerate(init)]
    f = [back(c) for c in f0]

    R, F = ring_of(K0)
    ev = _Online(P, point, N + 1, held=(fam[0], fam[1], r))
    nums, den = common_denominator(R, F, f0)
    for v in nums:
        ev.push(fam, v, den)
    for t in range(max(N + 1 - r, 1)):
        acc, a0 = ev.step(t)
        if not a0:
            raise HypothesisError(
                "leading coefficient vanishes on the initial jets; the "
                "series is not determined")
        if r + t > N:
            break
        num = -acc * factorial(t)
        den = a0 * ev.D * factorial(r + t)
        g = R.gcd(num, den)
        num, den = num // g, den // g
        f.append(_to_field(field, [num], den)[0])
        ev.push(fam, num, den)
    return SeriesQ(field, point, f, N)


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
    if next(_residual(Qg, start)[1]):
        raise HypothesisError("y0 is not a root of Qg at the expansion point")
    if not next(_residual(Qg.partial(JetVar.y(1)), start)[1]):
        raise HypothesisError("y0 is not a simple root; Newton iteration "
                              "cannot start")
    return _solve_ode(Qg.derive(), [y0], N, point)


# ---------------------------------------------------------------------------
# certification

def verify_annihilator(ann, witnesses, N=None) -> dict:
    """Series-certify an annihilator against witness series.

    The residual is P evaluated on the witnesses; it is certified when
    every trustworthy residual coefficient vanishes.  Its numerators in
    the ring are tested directly, in order, and the evaluation stops at
    the first nonzero one: the common denominator is nonzero, so the
    valuation is theirs.  The annihilator's series_certified /
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
