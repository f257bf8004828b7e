"""Sparse differential polynomials in jet variables.

A differential polynomial is a finite sum of terms  c * m  where c is a
coefficient (see fields.py) and m is a monomial in the jet variables

    s            homogenization variable, s' = 0
    y1, y1', y1'', ...   derivatives of the i-th unknown function
    z, z', ...           derivatives of the distinguished unknown z

The independent variable x and constant parameters never appear in
monomials; they live inside coefficients.  The derivation acts by
(y_i^(j))' = y_i^(j+1), s' = 0 and x' = 1.  A second derivation, used
for composed functions, sends y1^(l) to y2' * y1^(l+1) and everything
else the usual way.

Monomials are ordered by graded reverse lexicographic order with respect
to the variable order s < y1 < y1' < ... < y2 < ... < z < z' < ...

normalize() gives the normal form of a polynomial up to scalars: its
coefficients, cleared into the ring of the field (fields.ring_of), are
primitive there, and the leading one is positive, or in re > 0, im >= 0
over Q(i); over parameter fields that holds for the leading
coefficient's own leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DalgError, FieldError
from .fields import (Field, _join_terms, clear_denominators, primitive_divisor,
                     ring_of)

_FAM_CODES = {"s": 0, "y": 1, "z": 2}
_FAM_NAMES = {0: "s", 1: "y", 2: "z"}


@dataclass(frozen=True, order=True)
class JetVar:
    """A single jet variable, identified by (family, index, order)."""

    fam: int
    index: int
    order: int

    @staticmethod
    def s():
        return JetVar(0, 0, 0)

    @staticmethod
    def y(index, order=0):
        if index < 1:
            raise DalgError("y-family indices start at 1")
        return JetVar(1, index, order)

    @staticmethod
    def z(order=0):
        return JetVar(2, 1, order)

    @property
    def key(self):
        return (self.fam, self.index, self.order)

    @property
    def family_label(self):
        if self.fam == 0:
            return "s"
        return "z" if self.fam == 2 else f"y{self.index}"

    def __str__(self):
        if self.fam == 0:
            return "s"
        base = self.family_label
        if self.order == 0:
            return base
        if self.order <= 3:
            return base + "'" * self.order
        return f"{base}^({self.order})"

    def __repr__(self):
        return f"JetVar({self})"


def var_key(v):
    return v.key if isinstance(v, JetVar) else v


def key_to_var(k):
    return JetVar(*k)


# ---------------------------------------------------------------------------
# monomials: sorted tuples of (varkey, exponent) with positive exponents

def mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for k, e in m2:
        d[k] = d.get(k, 0) + e
    return tuple(sorted(d.items()))


def mono_deg(m):
    return sum(e for _, e in m)


def mono_quo(m2, m1):
    d = dict(m2)
    for k, e in m1:
        d[k] -= e
        if d[k] < 0:
            raise DalgError("monomial division is not exact")
    return tuple(sorted((k, e) for k, e in d.items() if e))


def mono_sort_key(m):
    """Sort key of graded reverse lexicographic order: by degree, then
    the smaller exponent of the first (smallest) variable where two
    monomials of equal degree differ ranks higher."""
    return (mono_deg(m), tuple((k, -e) for k, e in m))


def mono_str(m):
    if not m:
        return "1"
    return "*".join(
        str(key_to_var(k)) if e == 1 else f"{key_to_var(k)}^{e}" for k, e in m
    )


# ---------------------------------------------------------------------------

class DPoly:
    """Immutable sparse differential polynomial over a Field."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None, _raw=False):
        self.field = field
        if _raw:
            self.terms = terms
        else:
            self.terms = {m: c for m, c in (terms or {}).items()
                          if not field.is_zero(c)}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(field):
        return DPoly(field, {}, _raw=True)

    @staticmethod
    def const(field, c):
        c = _as_coeff(field, c)
        if field.is_zero(c):
            return DPoly.zero(field)
        return DPoly(field, {(): c}, _raw=True)

    @staticmethod
    def one(field):
        return DPoly.const(field, 1)

    @staticmethod
    def var(field, v):
        return DPoly(field, {((var_key(v), 1),): field.one}, _raw=True)

    # -- basic structure -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DPoly.const(self.field, other)
        if not isinstance(other, DPoly):
            return NotImplemented
        return self.field.desc == other.field.desc and self.terms == other.terms

    def __hash__(self):
        return hash((self.field.desc, tuple(sorted(self.terms))))

    def total_degree(self):
        """Total degree in the jet variables (including s); -1 for 0."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def variables(self):
        ks = set()
        for m in self.terms:
            ks.update(k for k, _ in m)
        return [key_to_var(k) for k in sorted(ks)]

    def orders(self):
        """Max derivative order per present family, as {(fam, index): order}."""
        out = {}
        for m in self.terms:
            for (fam, idx, order), _ in m:
                if fam == 0:
                    continue
                key = (fam, idx)
                out[key] = max(out.get(key, -1), order)
        return out

    def degree_in(self, v):
        k = var_key(v)
        best = 0
        for m in self.terms:
            for kk, e in m:
                if kk == k:
                    best = max(best, e)
        return best

    def constant_coeff(self):
        return self.terms.get((), self.field.zero)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.field.desc != other.field.desc:
            raise FieldError("mixed coefficient fields")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) or _is_coeff(self.field, other):
            other = DPoly.const(self.field, other)
        if not isinstance(other, DPoly):
            return NotImplemented
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            tot = out.get(m, f.zero) + c
            if f.is_zero(tot):
                out.pop(m, None)
            else:
                out[m] = tot
        return DPoly(f, out, _raw=True)

    __radd__ = __add__

    def __neg__(self):
        return DPoly(self.field, {m: -c for m, c in self.terms.items()}, _raw=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)) or _is_coeff(self.field, other):
            other = DPoly.const(self.field, other)
        if not isinstance(other, DPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        f = self.field
        if isinstance(other, (int, Fraction)) or _is_coeff(f, other):
            c = _as_coeff(f, other)
            if f.is_zero(c):
                return DPoly.zero(f)
            return DPoly(f, {m: cc * c for m, cc in self.terms.items()}, _raw=True)
        if not isinstance(other, DPoly):
            return NotImplemented
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                tot = out.get(m)
                tot = c if tot is None else tot + c
                if f.is_zero(tot):
                    out.pop(m, None)
                else:
                    out[m] = tot
        return DPoly(f, out, _raw=True)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise DalgError("negative powers of differential polynomials")
        out = DPoly.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def scale(self, c):
        return self * c

    # -- calculus ----------------------------------------------------------

    def derive(self, mode="standard"):
        """Total derivative; mode "chain" uses y1^(l) -> y2' * y1^(l+1)."""
        if mode not in ("standard", "chain"):
            raise DalgError(f"unknown derivation mode {mode!r}")
        f = self.field
        out = DPoly.zero(f)
        chain_factor = ((var_key(JetVar.y(2, 1)), 1),)
        for m, c in self.terms.items():
            dc = f.derive_x(c)
            if not f.is_zero(dc):
                out = out + DPoly(f, {m: dc}, _raw=True)
            for k, e in m:
                fam, idx, order = k
                if fam == 0:
                    continue
                rest = mono_quo(m, ((k, 1),))
                bumped = mono_mul(rest, (((fam, idx, order + 1), 1),))
                if mode == "chain" and fam == 1 and idx == 1:
                    bumped = mono_mul(bumped, chain_factor)
                out = out + DPoly(f, {bumped: c * e}, _raw=True)
        return out

    def partial(self, v):
        """Formal partial derivative with respect to one jet variable."""
        k = var_key(v)
        f = self.field
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            if k not in d:
                continue
            e = d[k]
            rest = mono_quo(m, ((k, 1),))
            out[rest] = out.get(rest, f.zero) + c * e
        return DPoly(f, out)

    # -- homogenization ------------------------------------------------------

    def homogenize(self):
        if not self.terms:
            raise DalgError("cannot homogenize the zero polynomial")
        skey = JetVar.s().key
        if any(k == skey for m in self.terms for k, _ in m):
            raise DalgError("polynomial already contains s")
        d = self.total_degree()
        out = {}
        for m, c in self.terms.items():
            gap = d - mono_deg(m)
            mm = mono_mul(m, ((skey, gap),)) if gap else m
            out[mm] = c
        return DPoly(self.field, out, _raw=True)

    def dehomogenize(self):
        """self with s = 1: s leaves each monomial, and the coefficients
        of monomials that become equal are summed."""
        skey = JetVar.s().key
        out = {}
        for m, c in self.terms.items():
            m = tuple(p for p in m if p[0] != skey)
            out[m] = out[m] + c if m in out else c
        return DPoly(self.field, out)

    def is_homogeneous(self):
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    # -- substitution -----------------------------------------------------

    def substitute(self, bindings):
        """Replace jet variables by polynomials or coefficients."""
        f = self.field
        table = {}
        for v, val in bindings.items():
            if isinstance(val, DPoly):
                table[var_key(v)] = val
            else:
                table[var_key(v)] = DPoly.const(f, val)
        out = DPoly.zero(f)
        for m, c in self.terms.items():
            piece = DPoly.const(f, c)
            plain = []
            for k, e in m:
                if k in table:
                    piece = piece * table[k] ** e
                else:
                    plain.append((k, e))
            if plain:
                piece = piece * DPoly(f, {tuple(plain): f.one}, _raw=True)
            out = out + piece
        return out

    # -- views ---------------------------------------------------------------

    def as_poly_in(self, v):
        """Map exponent -> coefficient polynomial free of v."""
        k = var_key(v)
        f = self.field
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.pop(k, 0)
            rest = tuple(sorted(d.items()))
            bucket = out.setdefault(e, {})
            bucket[rest] = bucket.get(rest, f.zero) + c
        return {e: DPoly(f, t) for e, t in out.items() if any(not f.is_zero(c) for c in t.values())}

    # -- normal form -----------------------------------------------------------

    def normalize(self):
        """The normal form of self up to scalars (see the module docstring)."""
        if not self.terms:
            return self
        f = self.field
        R, F = ring_of(f)
        monos = sorted(self.terms, key=mono_sort_key, reverse=True)
        cleared, _ = clear_denominators(R, F, [(m, self.terms[m]) for m in monos])
        g = primitive_divisor(R, [c for _, c in cleared], cleared[0][1])
        return DPoly(f, {m: F.convert_from(c // g, R) for m, c in cleared},
                     _raw=True)

    # -- printing -----------------------------------------------------------

    def __str__(self):
        terms = []
        for m in sorted(self.terms, key=mono_sort_key, reverse=True):
            ms = mono_str(m)
            for sign, body in self.field.term_strings(self.terms[m]):
                if ms != "1":
                    body = ms if body == "1" else f"{body}*{ms}"
                terms.append((sign, body))
        return _join_terms(terms)

    def __repr__(self):
        return f"DPoly({self})"


def _is_coeff(field, val):
    try:
        return field.domain.of_type(val)
    except Exception:
        return False


def _as_coeff(field, val):
    if isinstance(val, int):
        return field.q(val)
    if isinstance(val, Fraction):
        return field.from_fraction(val)
    if _is_coeff(field, val):
        return val
    raise FieldError(f"cannot interpret {val!r} as a coefficient")
