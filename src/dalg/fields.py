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

This module also owns the ring of each field (ring_of), its gcd with
cofactors (ring_cofactors), numerators over a common denominator
(common_denominator, clear_denominators) and the one canonical primitive
form over the ring (primitive_divisor), which the eliminator's stored
rows, DPoly.normalize and the series kernels use.  x_free maps a field
to its x-free field K0, the same field without x (Q(;x) to Q, Qi(a;x)
to Qi(a;)), with the pair of conversions into and back between K0 and
the x-free elements of the field; into raises HypothesisError on an
element that involves x.  The series kernels evaluate in the ring of K0.
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
        self._ring = None   # (R, F) of ring_of, built on first use
        self._x_free = None  # (K0, into, back) of x_free, likewise

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
    def cofactors(a, b):
        g = gcd(a, b)
        return g, a // g, b // g

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
    The pair is built once per Field, on the first call: each new sympy
    ring domain costs time and leaves objects in reference cycles.
    """
    if plain_q(field):
        return INTEGERS, RATIONALS
    if field._ring is None:
        F = field.domain
        if F.is_FractionField:
            field._ring = F.domain.get_ring().poly_ring(*F.symbols), F
        else:
            field._ring = F.get_ring(), F
    return field._ring


def x_free(field):
    """(K0, into, back): the x-free field K0 of field, which is the same
    field without x, and the conversions between K0 and the elements of
    field that are free of x.  into raises HypothesisError on an element
    that involves x.  A field without x is its own K0, with both maps the
    identity.  Built once per Field, on the first call.

    Over Q(;x) K0 is plain Q, so its ring is the ints.  Both maps keep
    the form field arithmetic gives an element: with parameters, the
    numerator and denominator of an x-free element are those of its
    form in K0 with a zero x-exponent in front of each monomial.  Over
    Qi(;x) back cancels an integral numerator and denominator, as
    arithmetic does: sympy reduces a Gaussian fraction only then.
    """
    if field._x_free is None:
        field._x_free = _x_free_maps(field)
    return field._x_free


def _x_free_maps(field):
    desc = field.desc
    if not desc.has_x:
        return field, _same, _same
    K0 = get_field(desc.kind, desc.params)
    frac = field.domain.field
    ring = frac.ring

    def check(c):
        if any(m[0] for m in c.numer) or any(m[0] for m in c.denom):
            raise HypothesisError(
                f"coefficient {field.to_str(c)} involves x; it is not an "
                f"element of {K0.desc.label}")

    if desc.params:
        frac0 = K0.domain.field
        ring0 = frac0.ring

        def into(c):
            check(c)
            return frac0.raw_new(
                ring0.from_dict({m[1:]: v for m, v in c.numer.items()}),
                ring0.from_dict({m[1:]: v for m, v in c.denom.items()}))

        def back(c):
            return frac.raw_new(
                ring.from_dict({(0,) + m: v for m, v in c.numer.items()}),
                ring.from_dict({(0,) + m: v for m, v in c.denom.items()}))
    elif desc.kind == "Qi":
        def into(c):
            check(c)
            return c.numer.LC / c.denom.LC

        def back(c):
            # integral numerator and denominator, as field arithmetic
            # leaves them: cancel then gives the coprime canonical form
            den = lcm(int(c.x.denominator), int(c.y.denominator))
            return frac.new(ring.ground_new(c * den), ring.ground_new(den))
    else:
        QQ = field._qq

        def into(c):
            check(c)
            q = c.numer.LC / c.denom.LC
            return Fraction(int(q.numerator), int(q.denominator))

        def back(c):
            return frac.raw_new(ring.ground_new(QQ(c.numerator)),
                                ring.ground_new(QQ(c.denominator)))
    return K0, into, back


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


def ring_cofactors(R):
    """The map (a, b) -> (g, a // g, b // g), g = gcd(a, b), of the ring R.

    Over a sympy polynomial ring it is the element method, which finds
    the cofactors with the gcd; the domain's cofactors would divide
    twice more.  Elsewhere it is R.cofactors.
    """
    if getattr(R, "is_PolynomialRing", False):
        return type(R.one).cofactors
    return R.cofactors


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

    Over plain Q the gcd is one math.gcd call.  Over the other rings an
    entry 1 or -1 makes the gcd 1, so the result is the inverse of lead's
    canonical unit with no gcd computed; otherwise the gcd is folded
    entry by entry until it reaches 1.  values is read more than once.
    """
    one = R.one
    if R is INTEGERS:
        g = gcd(*values)
    elif one in values or -one in values:
        g = one
    else:
        ring_gcd = R.gcd
        g = R.zero
        for v in values:
            g = ring_gcd(g, v)
            if g == one:
                break
    # a sympy division by one costs several multiplications: skip it
    unit = R.canonical_unit(lead if g == one else lead // g)
    return g if unit == one else g // unit
