"""Truncated power series with exact coefficients, an ODE-driven series
solver, and series certification of annihilators.

A SeriesQ holds Taylor coefficients around a rational expansion point;
index n is the coefficient of t^n with x = point + t.  The truncation
order N means coefficients 0..N are correct; arithmetic tracks how many
output coefficients remain trustworthy (differentiation loses one,
products keep the minimum, integration gains one).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .dpoly import DPoly, JetVar
from .errors import DalgError, HypothesisError
from .fields import Field, plain_q
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
# raw coefficient-list kernels (length = N+1, entries in field.domain)

def _ladd(field, a, b):
    n = min(len(a), len(b))
    return [a[i] + b[i] for i in range(n)]


def _lneg(field, a):
    return [-c for c in a]


def _lmul(field, a, b, n=None):
    if n is None:
        n = min(len(a), len(b))
    out = [field.zero] * n
    for i, ai in enumerate(a):
        if i >= n:
            break
        if field.is_zero(ai):
            continue
        lim = min(len(b), n - i)
        for j in range(lim):
            out[i + j] = out[i + j] + ai * b[j]
    return out


def _lderive(field, a):
    return [a[i] * field.q(i) for i in range(1, len(a))]


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
    out = [inv0] + [field.zero] * (n - 1)
    for k in range(1, n):
        acc = field.zero
        for j in range(1, min(k, len(a) - 1) + 1):
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
        out = _lmul(field, out, b, n)
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
    return SeriesQ(a.field, a.point, _ladd(a.field, a.coeffs, b.coeffs), n)


def series_sub(a, b):
    a, b = _unify(a, b)
    n = min(a.N, b.N)
    return SeriesQ(a.field, a.point,
                   _ladd(a.field, a.coeffs, _lneg(a.field, b.coeffs)), n)


def series_mul(a, b):
    a, b = _unify(a, b)
    n = min(a.N, b.N)
    return SeriesQ(a.field, a.point,
                   _lmul(a.field, a.coeffs, b.coeffs, n + 1), n)


def series_div(a, b):
    a, b = _unify(a, b)
    n = min(a.N, b.N)
    inv = _linv(b.field, b.coeffs[:n + 1])
    return SeriesQ(a.field, a.point, _lmul(a.field, a.coeffs, inv, n + 1), n)


def series_derive(a):
    if a.N < 1:
        raise DalgError("cannot differentiate below truncation 0")
    return SeriesQ(a.field, a.point, _lderive(a.field, a.coeffs), a.N - 1)


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

def _x_series(field, c, point, n):
    """Coefficient c, which may involve x, as a t-list with x = point+t."""
    xs = field.as_x_poly(c)
    pt = field.from_fraction(Fraction(point))
    out = [field.zero] * n
    for e, ce in enumerate(xs):
        if field.is_zero(ce):
            continue
        for j in range(min(e, n - 1) + 1):
            power = pt ** (e - j) if e > j else field.one
            out[j] = out[j] + field.q(comb(e, j)) * power * ce
    return out


def _eval_terms(P: DPoly, jet_lists, n, point):
    """P evaluated on raw jet coefficient lists, truncated to length n.

    jet_lists maps (fam, idx) -> list of t-lists, index = derivative order.
    """
    field = P.field
    acc = [field.zero] * n
    for m, c in P.terms.items():
        term = _x_series(field, c, point, n)
        for (f, i, o), e in m:
            if (f, i, o) == (0, 0, 0):
                raise DalgError(
                    "homogenization variable present; dehomogenize first")
            base = jet_lists[(f, i)][o]
            for _ in range(e):
                term = _lmul(field, term, base, n)
        acc = _ladd(field, acc, term)
    return acc


def apply_dpoly(P: DPoly, witnesses) -> SeriesQ:
    """Evaluate P on series witnesses for each jet family it uses.

    witnesses maps a family label ("y1", "z") or key tuple to a SeriesQ.
    x inside coefficients is expanded around the common expansion point.
    """
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

    n_eff = None
    jet_lists = {}
    for fam, top in orders.items():
        s = wit[fam]
        coeffs = ([_embed(c, s.field, field) for c in s.coeffs]
                  if s.field.desc != field.desc else list(s.coeffs))
        ladder = [coeffs]
        for _ in range(top):
            ladder.append(_lderive(field, ladder[-1]))
        jet_lists[fam] = ladder
        avail = s.N - top
        n_eff = avail if n_eff is None else min(n_eff, avail)
    if n_eff is None:
        n_eff = 0
    if n_eff < 0:
        raise DalgError("witness truncation too small for the derivatives "
                        "required")
    vals = _eval_terms(P, jet_lists, n_eff + 1, point)
    return SeriesQ(field, point, vals, n_eff)


# ---------------------------------------------------------------------------
# ODE series solving

def solve_ode_series(P: DPoly, initial, N, point=0) -> SeriesQ:
    """Taylor series at x = point of the solution of P = 0 whose jets
    f(point), f'(point), ..., f^(r-1)(point) are `initial`.

    P must involve a single jet family and be linear in its highest
    derivative, with leading coefficient nonvanishing on the initial
    jets.  Coefficients 0..N are exact.
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
    A = by_deg[1]
    B = by_deg.get(0, DPoly.zero(field))
    point = Fraction(point)
    init = [c if _is_elem(field, c) else field.from_fraction(Fraction(c))
            for c in initial]

    n = N + 1
    f = [field.zero] * n
    for j, c in enumerate(init):
        if j < n:
            f[j] = c / field.q(factorial(j))

    first = True
    for _ in range(max(N - r + 2, 2)):
        ladder = [f]
        for _ in range(max(r - 1, 0)):
            ladder.append(_lderive(field, ladder[-1]) + [field.zero])
        jet_lists = {fam: [lst[:n] for lst in ladder]}
        a_vals = _eval_terms(A, jet_lists, n, point)
        if first and field.is_zero(a_vals[0]):
            raise HypothesisError(
                "leading coefficient vanishes on the initial jets; the "
                "series is not determined")
        first = False
        b_vals = _eval_terms(B, jet_lists, n, point)
        top_vals = _lmul(field, _lneg(field, b_vals),
                         _linv(field, a_vals), n)
        new = list(f[:])
        for j in range(r, n):
            new[j] = top_vals[j - r] * field.q(factorial(j - r), factorial(j))
        if new == f:
            break
        f = new
    return SeriesQ(field, point, f, N)


def newton_algebraic_series(Qg: DPoly, y0, N, point=0) -> SeriesQ:
    """Series of the algebraic function y(x) with Qg(x, y) = 0 and
    y(point) = y0, where y0 is a simple root of Qg(point, .)."""
    field = Qg.field
    y1 = JetVar.y(1)
    if set(Qg.orders()) != {(1, 1)} or Qg.orders()[(1, 1)] != 0:
        raise DalgError("Qg must be a polynomial in y1 alone (order 0)")
    point = Fraction(point)
    y0 = y0 if _is_elem(field, y0) else field.from_fraction(Fraction(y0))
    dQ = Qg.partial(y1)
    n = N + 1
    y = [field.zero] * n
    y[0] = y0
    val0 = _eval_terms(Qg, {(1, 1): [y]}, 1, point)[0]
    if not field.is_zero(val0):
        raise HypothesisError("y0 is not a root of Qg at the expansion point")
    d0 = _eval_terms(dQ, {(1, 1): [y]}, 1, point)[0]
    if field.is_zero(d0):
        raise HypothesisError("y0 is not a simple root; Newton iteration "
                              "cannot start")
    for _ in range(N + 2):
        q_vals = _eval_terms(Qg, {(1, 1): [y]}, n, point)
        if all(field.is_zero(c) for c in q_vals):
            break
        d_vals = _eval_terms(dQ, {(1, 1): [y]}, n, point)
        step = _lmul(field, q_vals, _linv(field, d_vals), n)
        y = [y[i] - step[i] for i in range(n)]
    return SeriesQ(field, point, y, N)


# ---------------------------------------------------------------------------
# certification

def verify_annihilator(ann, witnesses, N=None) -> dict:
    """Series-certify an annihilator against witness series.

    The residual is P evaluated on the witnesses; it is certified when
    every trustworthy residual coefficient vanishes.  The annihilator's
    series_certified / residual_valuation fields are updated in place.
    """
    wit = dict(witnesses)
    if N is not None:
        wit = {k: (s.truncate(N) if s.N > N else s) for k, s in wit.items()}
    residual = apply_dpoly(ann.poly, wit)
    certified = residual.is_zero_to_truncation()
    valuation = residual.valuation()
    ann.series_certified = certified
    ann.residual_valuation = valuation
    return {"certified": certified, "residual_valuation": valuation,
            "truncation": residual.N}


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
