"""Independent output checks: plain Fraction Taylor series, no dalg.series.

Every returned annihilator is evaluated on the Taylor series of the
function it should annihilate, computed here from first principles, and
must leave a zero residual up to the truncation.  Hilbert-function
profiles are compared with prod(1 - t^d) / (1 - t)^v computed here.
The only thing read from dalg is the output itself: the annihilator's
term dictionary and the coefficient elements sympy holds.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


class G:
    """Gaussian rational re + im*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def lift(v):
        return v if isinstance(v, G) else G(v)

    def __add__(self, o):
        o = G.lift(o)
        return G(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __mul__(self, o):
        o = G.lift(o)
        return G(self.re * o.re - self.im * o.im,
                 self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = G.lift(o)
        n = o.re * o.re + o.im * o.im
        return self * G(o.re / n, -o.im / n)

    def __bool__(self):
        return bool(self.re) or bool(self.im)


# ---------------------------------------------------------------------------
# truncated series as coefficient lists (index n = coefficient of t^n)

def s_mul(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if not ai:
            continue
        for j in range(min(len(b), n - i)):
            out[i + j] = out[i + j] + ai * b[j]
    return out


def s_deriv(a):
    return [a[i] * i for i in range(1, len(a))]


def s_exp0(a, n):
    """exp of a series with zero constant term: n*e_n = sum k*a_k*e_(n-k)."""
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m in range(1, n):
        out[m] = sum((k * a[k] * out[m - k] for k in range(1, m + 1)),
                     Fraction(0)) / m
    return out


def exp_series(a, n):
    """exp(a*x) at 0."""
    return [Fraction(a) ** j / factorial(j) for j in range(n)]


def tanlike_series(b, c, n):
    """y(0) = 0, y' = b + c*y^2, from (m+1)*y_(m+1) = [m=0]*b + c*(y^2)_m."""
    y = [Fraction(0)] * n
    for m in range(n - 1):
        sq = sum((y[i] * y[m - i] for i in range(m + 1)), Fraction(0))
        y[m + 1] = ((b if m == 0 else 0) + c * sq) / (m + 1)
    return y


def logistic_series(q, n):
    """z = e^(qx) / (1 + e^(qx)) as e^(qx) times the inverse of 1 + e^(qx)."""
    e = exp_series(q, n)
    den = [e[0] + 1] + e[1:]
    inv = [Fraction(1) / den[0]] + [Fraction(0)] * (n - 1)
    for m in range(1, n):
        inv[m] = -sum((den[k] * inv[m - k] for k in range(1, m + 1)),
                      Fraction(0)) / den[0]
    return s_mul(e, inv, n)


def expexp_series(outer, inner, n):
    """exp(outer * (e^(inner x) - 1))."""
    e = exp_series(inner, n)
    return s_exp0([Fraction(0)] + [outer * v for v in e[1:]], n)


def sqrt1_series(n):
    """sqrt(1 + t) by the binomial series."""
    out = [Fraction(1)]
    for j in range(1, n):
        out.append(out[-1] * (Fraction(1, 2) - (j - 1)) / j)
    return out


def integrate0(a):
    return [Fraction(0)] + [v / (i + 1) for i, v in enumerate(a)]


# ---------------------------------------------------------------------------
# reading the annihilator

def _rat(q):
    return Fraction(int(q.numerator), int(q.denominator))


def _const_poly(poly_elem):
    terms = list(poly_elem.terms())
    if any(any(e) for e, _ in terms):
        raise ValueError("coefficient has a non-constant denominator")
    return terms[0][1] if terms else 0


def coeff_x_poly(field_desc, c, param_value=None):
    """Coefficient as an ascending list of numbers in x.

    Plain Q: one Fraction.  Q(;x): the x-polynomial (ground denominator).
    Qi(c;): the parameter specialised to param_value, as one G number.
    """
    if field_desc.kind == "Q" and not field_desc.params and not field_desc.has_x:
        return [_rat(c)]
    if field_desc.kind == "Q" and field_desc.has_x and not field_desc.params:
        den = _rat(_const_poly(c.denom))
        out = []
        for (e,), v in c.numer.terms():
            while len(out) <= e:
                out.append(Fraction(0))
            out[e] += _rat(v) / den
        return out or [Fraction(0)]
    if field_desc.kind == "Qi" and len(field_desc.params) == 1 \
            and not field_desc.has_x:
        def ev(p):
            acc = G(0)
            for (e,), v in p.terms():
                acc = acc + G(_rat(v.x), _rat(v.y)) * Fraction(param_value) ** e
            return acc
        return [ev(c.numer) / ev(c.denom)]
    raise ValueError(f"unsupported coefficient field {field_desc.label}")


def residual(poly, jets, n, point=0, param_value=None):
    """Residual of poly on the series jets {(fam, idx): coefficient list}.

    The series are Taylor coefficients in t = x - point, each with n
    trustworthy entries.  Returns the residual's trustworthy prefix.
    """
    orders = {}
    for m in poly.terms:
        for (fam, idx, order), _ in m:
            if fam == 0:
                raise ValueError("homogenization variable in an annihilator")
            orders[(fam, idx)] = max(orders.get((fam, idx), 0), order)
    ladders = {}
    for fam, top in orders.items():
        lad = [list(jets[fam][:n])]
        for _ in range(top):
            lad.append(s_deriv(lad[-1]))
        ladders[fam] = lad
    width = n - max(orders.values(), default=0)
    acc = [0] * width
    pt = Fraction(point)
    for m, c in poly.terms.items():
        xs = coeff_x_poly(poly.field.desc, c, param_value)
        # x^e = (pt + t)^e
        term = [0] * width
        for e, ce in enumerate(xs):
            for j in range(min(e, width - 1) + 1):
                term[j] = term[j] + ce * comb(e, j) * pt ** (e - j)
        for (fam, idx, order), e in m:
            for _ in range(e):
                term = s_mul(term, ladders[(fam, idx)][order], width)
        acc = [u + v for u, v in zip(acc, term)]
    return acc


def vanishes(poly, jets, n, point=0, param_value=None):
    return not any(residual(poly, jets, n, point, param_value))


# ---------------------------------------------------------------------------
# Hilbert functions

def regular_hf(degrees, v, upto):
    """Coefficients 0..upto of prod(1 - t^d) / (1 - t)^v."""
    num = [1] + [0] * upto
    for d in degrees:
        num = [num[k] - (num[k - d] if k >= d else 0) for k in range(upto + 1)]
    inv = [comb(k + v - 1, v - 1) for k in range(upto + 1)]
    return [sum(num[i] * inv[k - i] for i in range(k + 1))
            for k in range(upto + 1)]
