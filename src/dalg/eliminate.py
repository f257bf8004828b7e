"""Constructive search for annihilating equations of a designated function.

Given a system of differential polynomials and a target family y_l, the
degree-k component of the homogenized prolonged ideal is row-reduced
with all monomials involving a non-target variable ordered first.  A
reduced row whose leading column lies in the trailing block is then
supported entirely on monomials in {s, y_l, ..., y_l^(r)}; setting s = 1
turns it into an annihilator of order <= r and degree <= k.

A search over k = 1..k_max prolongs and homogenizes the system once
(AnnihilatorSearch) and eliminates one layer per k from the same
Macaulay layers.

This works inside the homogenized ideal: an inhomogeneous element of
degree k whose homogenization has degree k' > k is only found at layer
k'.  NotFoundAtK is therefore relative to the homogenized layer.

Every returned annihilator carries an exact membership certificate: the
reduction trail, as numerators over one denominator in the ring of the
field, is replayed as a polynomial identity over that ring against the
cleared prolonged generators, and each generator it uses is checked
against its clearing (dens[gi] * h_gens[gi] == terms[gi]) once per
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .dpoly import DPoly, JetVar, mono_mul, mono_sort_key
from .errors import DalgError
from .fields import primitive_divisor
from .linalg import MacaulayLayers, mono_decode, ring_vars
from .system import SystemSpec, _family_of_label, prolong
from . import bounds as _bounds


@dataclass
class Annihilator:
    """A target-only differential polynomial certified to lie in the ideal."""
    poly: DPoly
    target: str
    order: int
    degree: int
    k_searched: int
    membership_certified: bool
    series_certified: bool | None = None
    residual_valuation: int | None = None
    bounds_checked: dict | None = None
    bounds_comparison: dict | None = None

    def to_json(self):
        out = {
            "target": self.target,
            "order": self.order,
            "degree": self.degree,
            "k_searched": self.k_searched,
            "polynomial": str(self.poly),
            "membership_certified": self.membership_certified,
            "series_certified": self.series_certified,
            "residual_valuation": self.residual_valuation,
        }
        if self.bounds_checked is not None:
            out["bounds_checked"] = self.bounds_checked
        if self.bounds_comparison is not None:
            out["bounds_comparison"] = self.bounds_comparison
        return out


@dataclass
class NotFoundAtK:
    k: int
    rows: int
    cols: int


@dataclass
class NotFoundUpTo:
    k_max: int
    attempts: list = dc_field(default_factory=list)

    def to_json(self):
        return {"found": False, "k_max": self.k_max,
                "attempts": [{"k": a.k, "rows": a.rows, "cols": a.cols}
                             for a in self.attempts]}


class AnnihilatorSearch:
    """The Macaulay layers of one search over (system, target, r).

    The system is prolonged to order r - r_l, homogenized and cleared
    into the ring of its field once, and the one MacaulayLayers in
    layers serves every degree k.  read() turns an eliminated layer
    into the search's answer at that degree.
    """

    def __init__(self, system: SystemSpec, l, r):
        l = l or system.target
        fam = _family_of_label(l)
        orders = system.orders()
        if fam not in orders:
            raise DalgError(f"target {l} does not appear in the system")
        r_l = orders[fam]
        if r < r_l:
            raise DalgError(
                f"r = {r} is below the target's order {r_l} in the system")
        self.target, self.fam = l, fam
        self.h_gens = [g.homogenize() for g in prolong(system, r - r_l)]
        target_keys = {JetVar.s().key} | {(fam[0], fam[1], j)
                                          for j in range(r + 1)}
        self.layers = MacaulayLayers(system.field, self.h_gens,
                                     ring_vars(self.h_gens), last=target_keys)
        self._checked = {}

    def read(self, k, elim, labels):
        """The annihilator at the degree-k layer reduced into elim, whose
        row tags index labels, (gi, multiplier code) pairs, or
        NotFoundAtK.

        The annihilator is the echelon row at the largest pivot column
        of the target block.  Monomial tuples are decoded from their
        packed codes here and nowhere else in the search: that row's
        columns, and the multiplier of each row its certificate uses.
        The certificate is replayed in the ring R of the field, with
        products of monomial tuples, so a fault in the codes or their
        decoding fails it: the trail's numerators over their
        denominator den must give sum num * mu * terms[gi] == den * row,
        with terms[gi] the cleared terms of generator gi.  Each
        generator the trail uses is also checked against the generator
        itself, dens[gi] * h_gens[gi] == terms[gi], once per search, so
        a clearing fault fails the certificate too.  The row is then
        dehomogenized and normalized in R (_dehomogenized).
        """
        layers, field = self.layers, self.layers.field
        codes, _, target_start, shifts = layers.layer(k)
        hits = [c for c in elim.pivot_of_col if c >= target_start]
        if not hits:
            return NotFoundAtK(k=k, rows=len(labels), cols=len(codes))
        ridx = elim.pivot_of_col[max(hits)]

        entries = elim.rows[ridx]
        if any(c < target_start for c in entries):
            raise DalgError(
                "internal error: reduced row leaks non-target columns")
        monos = {c: mono_decode(codes[c], shifts) for c in entries}
        R, F = elim.ring, elim.domain
        nums, den = elim.trail_numerators(ridx)
        combo = {}
        for tag, w in nums.items():
            gi, mc = labels[tag]
            mu = mono_decode(mc, shifts)
            for mo, c in layers.terms[gi]:
                m = mono_mul(mu, mo)
                v = combo.get(m, R.zero) + w * c
                if v:
                    combo[m] = v
                else:
                    combo.pop(m, None)
        certified = (combo == {monos[c]: den * v for c, v in entries.items()}
                     and all(self._cleared(gi, R, F)
                             for gi in {labels[tag][0] for tag in nums}))
        if not certified:
            raise DalgError(
                "internal error: membership certificate failed to replay")

        poly = _dehomogenized(field, R, F,
                              ((monos[c], v) for c, v in entries.items()))
        return Annihilator(poly=poly, target=self.target,
                           order=poly.orders().get(self.fam, 0),
                           degree=poly.total_degree(), k_searched=k,
                           membership_certified=certified)

    def _cleared(self, gi, R, F):
        """Whether dens[gi] * h_gens[gi] == terms[gi], checked once per
        generator and search in R: with dens[gi] = a/b and a coefficient
        n/d of the generator, a cleared term v must have v*b*d == a*n."""
        if gi not in self._checked:
            K = R.get_field()
            den = K.convert_from(self.layers.dens[gi], F)
            a, b = K.numer(den), K.denom(den)
            cleared = dict(self.layers.terms[gi])
            terms = self.h_gens[gi].terms

            def agrees(m, c):
                c = K.convert_from(c, F)
                return cleared[m] * b * K.denom(c) == a * K.numer(c)
            self._checked[gi] = (
                bool(a) and cleared.keys() == terms.keys()
                and all(agrees(m, c) for m, c in terms.items()))
        return self._checked[gi]


def _dehomogenized(field, R, F, terms):
    """The polynomial of (monomial, coefficient in R) terms with s = 1,
    in normal form: DPoly(...).dehomogenize().normalize() of the terms
    taken into the field, computed in R.

    Coefficients of monomials that become equal are summed in R, the
    result is made primitive with its lead at the largest monomial, and
    each coefficient is converted to the field once.
    """
    skey = JetVar.s().key
    merged = {}
    for m, v in terms:
        m = tuple(p for p in m if p[0] != skey)
        merged[m] = merged[m] + v if m in merged else v
    monos = sorted((m for m, v in merged.items() if v), key=mono_sort_key,
                   reverse=True)
    g = primitive_divisor(R, [merged[m] for m in monos], merged[monos[0]])
    if g != R.one:
        merged = {m: merged[m] // g for m in monos}
    return DPoly(field, {m: F.convert_from(merged[m], R) for m in monos},
                 _raw=True)


def find_annihilator(system: SystemSpec, l, r, k, _search=None):
    """Search the degree-k layer of h(I)^(r - r_l) for a target-only row.

    Returns an Annihilator or NotFoundAtK.  l defaults to the system's
    declared target; r is the order budget for the annihilator.  A
    search over several k hands in its AnnihilatorSearch as _search.
    """
    if k < 1:
        raise DalgError("layer degree k must be >= 1")
    search = _search or AnnihilatorSearch(system, l, r)
    elim, labels = search.layers.eliminate(k, track=True)
    return search.read(k, elim, labels)


def _bounds_comparison(system: SystemSpec, l, r):
    orders = system.orders()
    fam = _family_of_label(l)
    r_l = orders[fam]
    r_min = sum(orders.values())
    d = 1
    for g in system.gens:
        d *= g.total_degree()
    if r < r_min:
        return {"d": d, "r_min": r_min, "r_l": r_l, "r": r,
                "note": "r below r_min: closed-form bound not applicable"}
    tb = _bounds.theorem_bound(d, r_min, r_l, r)
    return {"d": d, "r_min": r_min, "r_l": r_l, "r": r,
            "theorem_k_min": tb.k_min,
            "sufficiency_k": _bounds.sufficiency_k(d, r_min, r_l, r)}


def eliminate_search(system: SystemSpec, l, r, k_max):
    """First annihilator over layers k = 1..k_max, with bound context."""
    if k_max < 1:
        raise DalgError("k_max must be >= 1")
    l = l or system.target
    search = AnnihilatorSearch(system, l, r)
    attempts = []
    for k in range(1, k_max + 1):
        res = find_annihilator(system, l, r, k, _search=search)
        if isinstance(res, Annihilator):
            res.bounds_comparison = _bounds_comparison(system, l, r)
            return res
        attempts.append(res)
    return NotFoundUpTo(k_max=k_max, attempts=attempts)


# ---------------------------------------------------------------------------
# preset system builders

def _check_univariate(p: DPoly, idx: int):
    fams = set(p.orders())
    if fams != {(1, idx)}:
        raise DalgError(
            f"component {idx} must involve exactly the y{idx} family")


def _components_gens(components, field):
    gens = []
    for pos, (p, r_i) in enumerate(components, start=1):
        if p.field.desc != field.desc:
            raise DalgError("component fields do not match")
        _check_univariate(p, pos)
        if p.orders()[(1, pos)] != r_i:
            raise DalgError(
                f"declared order {r_i} does not match ord(P{pos}) = "
                f"{p.orders()[(1, pos)]}")
        gens.append(p)
    return gens


def sum_product_system(components, Q: DPoly) -> SystemSpec:
    """System (P_1, ..., P_n, z - Q(y_1, ..., y_n)) with target z."""
    if not components:
        raise DalgError("need at least one component")
    field = components[0][0].field
    gens = _components_gens(components, field)
    if Q.is_zero():
        raise DalgError("Q must be nonzero")
    qfams = set(Q.orders())
    if any(f[0] != 1 for f in qfams):
        raise DalgError("Q must involve only the y families")
    if any(f not in {(1, i) for i in range(1, len(gens) + 1)} for f in qfams):
        raise DalgError("Q mentions a family without a component equation")
    z = DPoly.var(field, JetVar.z())
    return SystemSpec(field=field, gens=tuple(gens) + (z - Q,), target="z")


def rational_system(components, Qn: DPoly, Qd: DPoly) -> SystemSpec:
    """System (P_1, ..., P_n, Qd*z - Qn) with target z."""
    if not components:
        raise DalgError("need at least one component")
    field = components[0][0].field
    gens = _components_gens(components, field)
    if Qd.is_zero():
        raise DalgError("denominator Qd must be nonzero")
    for q, name in ((Qn, "Qn"), (Qd, "Qd")):
        if any(f[0] != 1 for f in q.orders()):
            raise DalgError(f"{name} must involve only the y families")
    z = DPoly.var(field, JetVar.z())
    return SystemSpec(field=field, gens=tuple(gens) + (Qd * z - Qn,),
                      target="z")


def composition_system(P1: DPoly, P2: DPoly) -> SystemSpec:
    """System for z = f1 o f2 where P1 annihilates f1 and P2 annihilates f2.

    P1 lives in the y1 family (its jets stand for derivatives of f1
    composed with f2) and P2 in the y2 family.  Generators: derivatives
    of P1 up to r2 and of P2 up to r1 (both standard), plus the twisted
    derivatives d^j(z - y1) for j <= r1+r2, where d(y1^(l)) = y2'*y1^(l+1).
    """
    field = P1.field
    if P2.field.desc != field.desc:
        raise DalgError("component fields do not match")
    if set(P1.orders()) != {(1, 1)}:
        raise DalgError("P1 must involve exactly the y1 family")
    if set(P2.orders()) != {(1, 2)}:
        raise DalgError("P2 must involve exactly the y2 family")
    r1 = P1.orders()[(1, 1)]
    r2 = P2.orders()[(1, 2)]
    gens = []
    cur = P1
    gens.append(cur)
    for _ in range(r2):
        cur = cur.derive()
        gens.append(cur)
    cur = P2
    gens.append(cur)
    for _ in range(r1):
        cur = cur.derive()
        gens.append(cur)
    link = DPoly.var(field, JetVar.z()) - DPoly.var(field, JetVar.y(1))
    cur = link
    gens.append(cur)
    for _ in range(r1 + r2):
        cur = cur.derive(mode="chain")
        gens.append(cur)
    return SystemSpec(field=field, gens=tuple(gens), target="z", mode="chain")
