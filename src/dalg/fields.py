"""Exact coefficient fields for differential polynomials.

A coefficient lives in one of:

    Q                rationals
    Q(i)             Gaussian rationals, i^2 = -1
    Q(c1,...,cm; x)  reduced fractions of polynomials in the constant
                     parameters c_j and the independent variable x

and the three ingredients combine freely: the Gaussian extension, the
parameter list and the presence of x are independent switches.  Elements
are kept in canonical form (fractions fully reduced, denominator
sign-normalized).  Over plain Q they are fractions.Fraction, with ints
as the ring, and sympy is not imported at all.  Every other field stores
sympy domain elements (GaussianRational, or FracElement over QQ or
QQ_I), and sympy is imported when the first such field is built.

Only x has a nonzero derivative (x' = 1); parameters are constants.

This module also owns the ring of each field (ring_of), numerators over
a common denominator (common_denominator, clear_denominators) and the
one canonical primitive form over the ring (primitive_divisor), which
the eliminator's stored rows, DPoly.normalize and the series kernels
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import FieldError, HypothesisError

_RESERVED = {"s", "x", "i", "z"}


@dataclass(frozen=True)
class FieldDesc:
    """Descriptor of a coefficient field.

    kind is "Q" or "Qi"; params is an ordered tuple of constant-parameter
    names; has_x tells whether the independent variable may appear in
    coefficients.
    """

    kind: str = "Q"
    params: tuple = ()
    has_x: bool = False

    def __post_init__(self):
        if self.kind not in ("Q", "Qi"):
            raise FieldError(f"unknown field kind {self.kind!r}")
        seen = set()
        for p in self.params:
            if not p.isidentifier():
                raise FieldError(f"bad parameter name {p!r}")
            if p in _RESERVED or p[0] in ("y",) or p in seen:
                raise FieldError(f"parameter name {p!r} is reserved or repeated")
            seen.add(p)

    @property
    def label(self):
        if not self.params and not self.has_x:
            return self.kind
        inner = ",".join(self.params) + ";" + ("x" if self.has_x else "")
        return f"{self.kind}({inner})"

    @staticmethod
    def from_label(text):
        text = text.strip()
        if "(" in text:
            head, _, rest = text.partition("(")
            if not rest.endswith(")"):
                raise FieldError(f"malformed field label {text!r}")
            inner = rest[:-1]
            if ";" in inner:
                par, _, xpart = inner.partition(";")
            else:
                par, xpart = inner, ""
            params = tuple(p.strip() for p in par.split(",") if p.strip())
            xpart = xpart.strip()
            if xpart not in ("", "x"):
                raise FieldError(f"malformed field label {text!r}")
            return FieldDesc(head.strip(), params, xpart == "x")
        if text in ("Q", "Qi"):
            return FieldDesc(text)
        raise FieldError(f"unknown field label {text!r}")


class Field:
    """A concrete coefficient field.  Obtain instances via get_field().

    Coefficients support +, -, *, / directly: Fractions over plain Q,
    raw sympy domain elements otherwise.  This class supplies
    construction, derivation, x-structure queries and canonical printing.
    """

    def __init__(self, desc: FieldDesc):
        self.desc = desc
        self.gaussian = desc.kind == "Qi"
        names = (("x",) if desc.has_x else ()) + desc.params
        self._names = names
        self._gens = {}
        if plain_q(self):
            self.base = self.domain = RATIONALS
            self._qq = None
        else:
            import sympy
            from sympy.polys.domains import QQ, QQ_I
            self._qq = QQ
            self.base = QQ_I if self.gaussian else QQ
            self.domain = self.base
            if names:
                syms = tuple(sympy.Symbol(n) for n in names)
                self.domain = self.base.frac_field(*syms)
                self._gens = dict(zip(names, self.domain.gens))
        self.zero = self.domain.zero
        self.one = self.domain.one

    def __repr__(self):
        return f"Field({self.desc.label})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.desc == other.desc

    def __hash__(self):
        return hash(self.desc)

    # -- construction -------------------------------------------------

    def q(self, num, den=1):
        if self._qq is None:
            return Fraction(num, den)
        return self.domain.convert(self._qq(num, den), self._qq)

    def from_fraction(self, fr):
        return self.q(fr.numerator, fr.denominator)

    def i(self):
        if self.desc.kind != "Qi":
            raise FieldError("i is only available over Q(i)")
        return self.domain.convert(self.base.new(self._qq(0), self._qq(1)),
                                   self.base)

    def param(self, name):
        if name not in self.desc.params:
            raise FieldError(f"unknown parameter {name!r} in field {self.desc.label}")
        return self._gens[name]

    def x(self):
        if not self.desc.has_x:
            raise FieldError(f"x is not a coefficient of field {self.desc.label}")
        return self._gens["x"]

    # -- predicates ---------------------------------------------------

    def is_zero(self, c):
        return c == self.zero

    def _ground_const(self, poly):
        """Base-domain value of a constant polynomial, else None."""
        terms = list(poly.terms())
        if not terms:
            return self.base.zero
        if len(terms) > 1:
            return None
        mon, coef = terms[0]
        return None if any(mon) else coef

    def is_rational(self, c):
        if not self._names:
            return not self.gaussian or c.y == 0
        den = self._ground_const(c.denom)
        if den is None or not den:
            return False
        num = self._ground_const(c.numer)
        if num is None:
            return False
        return not self.gaussian or (num / den).y == 0

    def as_fraction(self, c):
        """Exact Fraction value of a rational coefficient."""
        if self._names:
            den = self._ground_const(c.denom)
            num = self._ground_const(c.numer)
            if den is None or not den or num is None:
                raise FieldError("coefficient is not rational")
            coef = num / den
        else:
            coef = c
        if self.gaussian:
            if coef.y != 0:
                raise FieldError("coefficient is not rational")
            coef = coef.x
        return Fraction(int(coef.numerator), int(coef.denominator))

    # -- calculus -----------------------------------------------------

    def derive_x(self, c):
        """d/dx on a coefficient; zero unless the field carries x."""
        if not self.desc.has_x:
            return self.zero
        xg = self.domain.field.ring.gens[0]
        n, d = c.numer, c.denom
        return self.domain.field.new(n.diff(xg) * d - n * d.diff(xg), d * d)

    # -- x-structure --------------------------------------------------

    def _xdeg(self, poly):
        return max((mon[0] for mon in poly.monoms()), default=0)

    def x_degree(self, c):
        """Degree in x of a coefficient with x-free denominator."""
        if not self.desc.has_x:
            return 0
        if self._xdeg(c.denom):
            raise HypothesisError("coefficient has x in its denominator")
        return self._xdeg(c.numer)

    def as_x_poly(self, c):
        """Coefficient list [c_0, ..., c_d] with c = sum c_e * x^e and
        every c_e free of x.  Requires an x-free denominator."""
        if not self.desc.has_x:
            return [c]
        ring = self.domain.field.ring
        if self._xdeg(c.denom):
            raise HypothesisError("coefficient has x in its denominator")
        if self.is_zero(c):
            return [self.zero]
        d = self._xdeg(c.numer)
        buckets = [ring.zero for _ in range(d + 1)]
        for mon, coef in c.numer.terms():
            rest = (0,) + mon[1:]
            buckets[mon[0]] += ring.from_terms([(rest, coef)])
        return [self.domain.field.new(b, c.denom) for b in buckets]

    def eval_x(self, c, point):
        """Substitute a rational value for x; the result stays in the field."""
        if not self.desc.has_x:
            return c
        ring = self.domain.field.ring
        pt = Fraction(point)
        val = self.base.convert(self._qq(pt.numerator, pt.denominator),
                                self._qq)

        def subst(poly):
            out = ring.zero
            for mon, coef in poly.terms():
                rest = (0,) + mon[1:]
                out += ring.from_terms([(rest, coef * val ** mon[0])])
            return out

        den = subst(c.denom)
        if not den:
            raise HypothesisError("denominator vanishes at the expansion point")
        return self.domain.field.new(subst(c.numer), den)

    # -- printing -------------------------------------------------------

    def _gauss_str(self, g):
        """(sign, body) for a Gaussian rational as a grammar factor."""
        re, im = g.x, g.y
        if im == 0:
            return (1 if re >= 0 else -1), _rat_str(abs(re))
        if re == 0:
            mag = abs(im)
            body = "i" if mag == 1 else f"{_rat_str(mag)}*i"
            return (1 if im > 0 else -1), body
        body = _rat_str(re)
        body += "+" if im > 0 else "-"
        mag = abs(im)
        body += "i" if mag == 1 else f"{_rat_str(mag)}*i"
        return 1, f"({body})"

    def _coef_str(self, coef):
        if self.gaussian:
            return self._gauss_str(coef)
        return (1 if coef >= 0 else -1), _rat_str(abs(coef))

    def _poly_terms(self, poly, scale=None):
        """Signed term strings of a polynomial over the base."""
        out = []
        order = sorted(poly.terms(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))
        for mon, coef in order:
            if scale is not None:
                coef = coef * scale
            vars_part = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self._names, mon)
                if e
            )
            sign, cs = self._coef_str(coef)
            if vars_part:
                body = vars_part if cs == "1" else f"{cs}*{vars_part}"
            else:
                body = cs
            out.append((sign, body))
        return out

    def term_strings(self, c):
        """List of (sign, body) with body a grammar factor or factor product."""
        if not self._names:
            return [self._coef_str(c)]
        if not c.numer:
            return [(1, "0")]
        den_terms = list(c.denom.terms())
        if len(den_terms) == 1 and not any(den_terms[0][0]):
            # constant denominator: distribute it over the terms
            return self._poly_terms(c.numer, self.base.one / den_terms[0][1])
        num = _join_terms(self._poly_terms(c.numer))
        den = _join_terms(self._poly_terms(c.denom))
        return [(1, f"({num})/({den})")]

    def to_str(self, c):
        return _join_terms(self.term_strings(c))


def _rat_str(q):
    n, d = q.numerator, q.denominator
    return str(int(n)) if d == 1 else f"{int(n)}/{int(d)}"


def _join_terms(terms):
    if not terms:
        return "0"
    parts = []
    for sign, body in terms:
        if not parts:
            parts.append(("-" if sign < 0 else "") + body)
        else:
            parts.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(parts)


_FIELDS = {}


def get_field(kind="Q", params=(), has_x=False):
    """Shared Field instance for a descriptor."""
    desc = FieldDesc(kind, tuple(params), bool(has_x))
    if desc not in _FIELDS:
        _FIELDS[desc] = Field(desc)
    return _FIELDS[desc]


def field_from_label(text):
    desc = FieldDesc.from_label(text)
    return get_field(desc.kind, desc.params, desc.has_x)


# ---------------------------------------------------------------------------
# the ring of a field and the canonical primitive form over it

def plain_q(field):
    """True when coefficients are plain rationals (no field means Q).

    Layers over plain Q have integer rows, which modp_rank also reads.
    """
    return field is None or (field.desc.kind == "Q" and not field.desc.params
                             and not field.desc.has_x)


class _Integers:
    """The ring of plain Q: Python ints, with the methods dalg calls on a
    sympy ring domain."""

    zero, one = 0, 1
    gcd = staticmethod(gcd)
    lcm = staticmethod(lcm)

    @staticmethod
    def canonical_unit(a):
        return -1 if a < 0 else 1

    @staticmethod
    def get_field():
        return RATIONALS


class _Rationals:
    """Plain Q: Fractions, with the methods dalg calls on a sympy field
    domain.  convert_from takes an int of INTEGERS or a Fraction."""

    zero, one = Fraction(0), Fraction(1)

    @staticmethod
    def convert_from(a, K):
        return a if K is RATIONALS else Fraction(a)

    @staticmethod
    def of_type(a):
        return isinstance(a, Fraction)

    @staticmethod
    def numer(a):
        return a.numerator

    @staticmethod
    def denom(a):
        return a.denominator


INTEGERS, RATIONALS = _Integers(), _Rationals()


def ring_of(field):
    """(R, F): the ring whose elements rows hold, and the field over it.

    Over plain Q (also when there is no field) they are INTEGERS and
    RATIONALS, ints and Fractions.  Otherwise F is the field's sympy
    domain and R is ZZ_I for Q(i), and with parameters or x the
    polynomial ring in those names over ZZ or ZZ_I.  (F.get_ring() would
    have a field as its ground, whose gcd and lcm of constants are 1.)
    """
    if plain_q(field):
        return INTEGERS, RATIONALS
    F = field.domain
    if F.is_FractionField:
        return F.domain.get_ring().poly_ring(*F.symbols), F
    return F.get_ring(), F


def sympy_domain(field):
    """(D, into, back): the sympy domain D whose elements stand for the
    field's coefficients in a sympy polynomial ring, and the maps into D
    and back.  Only plain Q converts, between Fraction and QQ; sympy is
    imported here for it."""
    if not plain_q(field):
        return field.domain, _same, _same
    from sympy.polys.domains import QQ
    return (QQ, lambda c: QQ(c.numerator, c.denominator),
            lambda c: Fraction(int(c.numerator), int(c.denominator)))


def _same(c):
    return c


def common_denominator(R, F, values):
    """(numerators, den) over R with values[j] = numerators[j] / den, for
    field elements values; den is their least common denominator."""
    K = R.get_field()
    parts = [K.convert_from(c, F) if c else K.zero for c in values]
    one = den = R.one
    for c in parts:
        d = K.denom(c)
        if d != one and d != den:
            den = R.lcm(den, d)
    return [K.numer(c) * (den // K.denom(c)) for c in parts], den


def clear_denominators(R, F, terms):
    """(cleared terms over R, den in F) with cleared = den * terms."""
    terms = list(terms)
    nums, den = common_denominator(R, F, [c for _, c in terms])
    return [(m, v) for (m, _), v in zip(terms, nums)], F.convert_from(den, R)


def primitive_divisor(R, values, lead):
    """The gcd over R of values, times the unit that makes lead canonical.

    Divided by it, values are primitive and lead (one of them) is positive
    over ZZ, in re > 0, im >= 0 over ZZ_I, or over a polynomial ring has
    such a leading coefficient.
    """
    gcd, one = R.gcd, R.one
    g = R.zero
    for v in values:
        g = gcd(g, v)
        if g == one:
            break
    return g // R.canonical_unit(lead // g)
