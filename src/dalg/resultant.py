"""Sylvester resultants over exact coefficients and the three special
eliminations: algebraic subfunction, hyperexponential subfunction, and
elimination of x.  Each elimination asserts its closed-form degree
bounds at runtime and reports them alongside the result.

Multivariate gcd and exact division are delegated to sympy's sparse
polynomial rings, which are built (and sympy imported) on first use;
this module owns the Sylvester layout, the fraction-free determinant,
and the elimination constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dpoly import DPoly, JetVar, var_key
from .eliminate import Annihilator
from .errors import DalgError, HypothesisError
from .fields import sympy_domain
from .linalg import check_budget
from .system import family_label


# ---------------------------------------------------------------------------
# sympy ring bridge

_RING_CACHE = {}


def _ring_for(field, varkeys, with_coeff_gens):
    """(R, pos, ncoef, into, back): a PolyRing R over the coefficient
    field (or its base, with x/params as the ncoef leading generators
    when with_coeff_gens is set), the position of each jet variable, and
    the maps of coefficients into R's domain and back."""
    key = (field.desc, tuple(varkeys), with_coeff_gens)
    hit = _RING_CACHE.get(key)
    if hit is not None:
        return hit
    from sympy.polys.rings import ring
    jet_names = [f"j{f}_{i}_{o}" for f, i, o in varkeys]
    dom, into, back = sympy_domain(field)
    if with_coeff_gens:
        names = list(field._names) + jet_names
        dom = field.base
    else:
        names = jet_names
    if not names:
        raise DalgError("internal error: empty variable set for ring bridge")
    info = (ring(",".join(names), dom)[0],
            {vk: pos for pos, vk in enumerate(varkeys)},
            len(field._names) if with_coeff_gens else 0, into, back)
    _RING_CACHE[key] = info
    return info


def _poly_varkeys(*polys):
    keys = set()
    for p in polys:
        for m in p.terms:
            keys.update(k for k, _ in m)
    return sorted(keys)


def _to_sym(p: DPoly, info):
    """DPoly -> PolyElement of the ring of info (see _ring_for).  With
    ncoef > 0 the coefficient's numerator exponents are spliced in front
    of the jet exponents (denominators must be ground)."""
    R, pos, ncoef, into, _ = info
    field = p.field
    nv = ncoef + len(pos)
    data = {}
    for m, c in p.terms.items():
        jet = [0] * (nv - ncoef)
        for k, e in m:
            jet[pos[k]] = e
        if ncoef == 0:
            data[tuple(jet)] = data.get(tuple(jet), R.domain.zero) + into(c)
            continue
        numer, denom = c.numer, c.denom
        if not denom.is_ground:
            raise DalgError(
                "coefficient has a polynomial denominator; normalize() first")
        scale = denom.LC
        for cexp, base in numer.iterterms():
            exp = tuple(cexp) + tuple(jet)
            data[exp] = data.get(exp, R.domain.zero) + base / scale
    return R.from_dict({e: c for e, c in data.items() if c})


def _from_sym(q, field, varkeys, info):
    """PolyElement -> DPoly (inverse of _to_sym on the same ring)."""
    _, _, ncoef, _, back = info
    terms = {}
    if ncoef == 0:
        for exp, c in q.iterterms():
            mono = tuple(sorted((vk, e) for vk, e in zip(varkeys, exp) if e))
            terms[mono] = terms.get(mono, field.zero) + back(c)
    else:
        frac = field.domain.one.field
        ring = frac.ring
        for exp, base in q.iterterms():
            cexp, jexp = exp[:ncoef], exp[ncoef:]
            mono = tuple(sorted((vk, e) for vk, e in zip(varkeys, jexp) if e))
            coeff = frac.new(ring.from_dict({tuple(cexp): base}))
            terms[mono] = terms.get(mono, field.zero) + coeff
    return DPoly(field, terms)


def dp_div_exact(a: DPoly, b: DPoly) -> DPoly:
    """Exact quotient a / b; raises if b does not divide a."""
    if b.is_zero():
        raise DalgError("division by the zero polynomial")
    if a.is_zero():
        return DPoly.zero(a.field)
    field = a.field
    varkeys = _poly_varkeys(a, b)
    if not varkeys:
        return DPoly.const(field, a.constant_coeff() / b.constant_coeff())
    from sympy.polys.polyerrors import ExactQuotientFailed
    info = _ring_for(field, varkeys, False)
    try:
        q = _to_sym(a, info).exquo(_to_sym(b, info))
    except ExactQuotientFailed:
        raise DalgError("inexact polynomial division")
    return _from_sym(q, field, varkeys, info)


def dp_gcd(a: DPoly, b: DPoly) -> DPoly:
    """Gcd of the content-normalized inputs, computed in the polynomial
    ring over the base rationals with x and any parameters as ring
    variables.  The result is again content-normalized, so it is the
    primitive gcd."""
    field = a.field
    if a.is_zero():
        return b.normalize()
    if b.is_zero():
        return a.normalize()
    a = a.normalize()
    b = b.normalize()
    varkeys = _poly_varkeys(a, b)
    if not field._names and not varkeys:
        return DPoly.one(field)
    info = _ring_for(field, varkeys, bool(field._names))
    g = _to_sym(a, info).gcd(_to_sym(b, info))
    return _from_sym(g, field, varkeys, info).normalize()


# ---------------------------------------------------------------------------
# Sylvester matrix and fraction-free determinant

@dataclass
class SylvesterLayout:
    """Square matrix of v-free coefficients whose determinant is
    Res_v(P, Q): the first deg_v(Q) columns hold P's coefficients, the
    remaining deg_v(P) columns hold Q's."""
    variable: JetVar
    degrees: tuple
    matrix: list


def _coeff_vector(p: DPoly, v: JetVar):
    by_exp = p.as_poly_in(v)
    d = max(by_exp)
    return [by_exp.get(e, DPoly.zero(p.field)) for e in range(d, -1, -1)]


def _sylvester(pc, qc, field):
    """Sylvester matrix of two descending coefficient lists: column j
    holds pc shifted down j places for j < deg Q, then qc likewise.
    Its n x n entries are charged to the matrix budget before it is
    built."""
    dp, dq = len(pc) - 1, len(qc) - 1
    n = dp + dq
    check_budget(n, n)
    zero = DPoly.zero(field)
    M = [[zero] * n for _ in range(n)]
    for j in range(dq):
        for t, c in enumerate(pc):
            M[j + t][j] = c
    for j in range(dp):
        for t, c in enumerate(qc):
            M[j + t][dq + j] = c
    return M


def sylvester_matrix(P: DPoly, Q: DPoly, v: JetVar) -> SylvesterLayout:
    dp = P.degree_in(v)
    dq = Q.degree_in(v)
    if dp <= 0 or dq <= 0:
        raise DalgError(
            f"degenerate resultant: inputs must both have positive degree "
            f"in {v} (got {dp} and {dq})")
    return SylvesterLayout(variable=v, degrees=(dp, dq),
                           matrix=_sylvester(_coeff_vector(P, v),
                                             _coeff_vector(Q, v), P.field))


def _bareiss_det(M, field):
    """Fraction-free determinant of a square matrix of DPoly entries."""
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = DPoly.one(field)
    for k in range(n - 1):
        if M[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not M[i][k].is_zero()),
                        None)
            if swap is None:
                return DPoly.zero(field)
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[i][j] * M[k][k] - M[i][k] * M[k][j]
                M[i][j] = num if k == 0 else dp_div_exact(num, prev)
            M[i][k] = DPoly.zero(field)
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant(P: DPoly, Q: DPoly, v) -> DPoly:
    """Res_v(P, Q) as a fraction-free Sylvester determinant.

    The raw determinant is returned (no content normalization) so that
    multiplicativity Res(P*R, Q) = Res(P, Q)*Res(R, Q) holds exactly.
    """
    if not isinstance(v, JetVar):
        v = JetVar(*var_key(v))
    layout = sylvester_matrix(P, Q, v)
    return _bareiss_det(layout.matrix, P.field)


# ---------------------------------------------------------------------------
# degree helpers

def _family_degree(p: DPoly, fam):
    best = 0
    for m in p.terms:
        tot = sum(e for (f, i, _), e in m if (f, i) == fam)
        best = max(best, tot)
    return best


def _x_degree(p: DPoly):
    best = 0
    for c in p.terms.values():
        d = p.field.x_degree(c)
        if d > best:
            best = d
    return best


def _assert_bounds(bounds):
    for name, (value, bound) in bounds.items():
        if value > bound:
            raise DalgError(
                f"internal error: degree bound violated for {name}: "
                f"{value} > {bound}")


def _as_annihilator(poly: DPoly, target: str, fam, bounds) -> Annihilator:
    _assert_bounds(bounds)
    return Annihilator(poly=poly, target=target,
                       order=poly.orders().get(fam, 0),
                       degree=poly.total_degree(), k_searched=0,
                       membership_certified=None, bounds_checked=bounds)


# ---------------------------------------------------------------------------
# special eliminations

def elim_algebraic(P: DPoly, Qg: DPoly) -> Annihilator:
    """Annihilator for f(x) = F(x, g(x)) where g is algebraic with
    minimal polynomial Qg(x, y1) and P relates f's jets (family y2) to g
    (the order-0 variable y1).  Qg must be irreducible and coprime to P;
    the resultant eliminates y1."""
    y1 = JetVar.y(1)
    fam1, fam2 = (1, 1), (1, 2)
    if Qg.orders().get(fam1) != 0 or set(Qg.orders()) != {fam1}:
        raise DalgError("Qg must be a polynomial in y1 alone (order 0)")
    if P.orders().get(fam1, None) != 0:
        raise DalgError("P must involve y1 at order 0 and not its derivatives")
    R = resultant(P, Qg, y1)
    if R.is_zero():
        raise HypothesisError(
            "resultant vanished: Qg divides P or shares a factor with it; "
            "Qg must be irreducible over C(x) and coprime to P")
    d_y1_Q = Qg.degree_in(y1)
    d_y1_P = P.degree_in(y1)
    bounds = {
        "d_y2": (_family_degree(R, fam2),
                 d_y1_Q * _family_degree(P, fam2)),
        "d_x": (_x_degree(R),
                _x_degree(P) * d_y1_Q + d_y1_P * _x_degree(Qg)),
        "d": (R.total_degree(),
              P.total_degree() * d_y1_Q + d_y1_P * Qg.total_degree()),
    }
    return _as_annihilator(R.normalize(), "y2", fam2, bounds)


def _coeff_of_const(p, what):
    if isinstance(p, DPoly):
        if p.variables():
            raise DalgError(f"{what} must be free of jet variables")
        return p.constant_coeff()
    return p


def _x_poly_check(field, c, what):
    try:
        field.as_x_poly(c)
    except HypothesisError:
        raise HypothesisError(f"{what} must be a polynomial in x")


def elim_hyperexp(P: DPoly, u, v) -> Annihilator:
    """Annihilator for f with P(g, f, f', ...) = 0 where g is
    hyperexponential: g'/g = u/v with coprime x-polynomials u, v.  g is
    the order-0 variable y1, f's jets are the y2 family.  Construction:
    P1 = v * P' with y1' bound to y1*u/v, then Res_y1(P, P1)."""
    field = P.field
    y1 = JetVar.y(1)
    fam1, fam2 = (1, 1), (1, 2)
    cu = _coeff_of_const(u, "u")
    cv = _coeff_of_const(v, "v")
    if field.is_zero(cv):
        raise DalgError("v must be nonzero")
    _x_poly_check(field, cu, "u")
    _x_poly_check(field, cv, "v")
    if not _coprime_x(field, cu, cv):
        raise HypothesisError("u and v must be coprime polynomials in x")
    if P.orders().get(fam1, None) != 0:
        raise HypothesisError(
            "P must depend on y1 (at order 0) so that there is something "
            "to eliminate")
    Pp = P.derive()
    P1 = Pp.substitute({JetVar.y(1, 1): DPoly.var(field, y1) * (cu / cv)})
    P1 = P1 * cv
    if P1.degree_in(y1) <= 0:
        raise HypothesisError(
            "v*P' with y1' -> y1*u/v is free of y1; prepare P with "
            "prepare_primitive_separable and retry")
    Q = resultant(P, P1, y1)
    if Q.is_zero():
        raise HypothesisError(
            "resultant vanished: P is not primitive and separable in its "
            "top derivative; apply prepare_primitive_separable first")
    d1 = P.degree_in(y1)
    du = field.x_degree(cu)
    dv = field.x_degree(cv)
    bounds = {
        "d_y2": (_family_degree(Q, fam2), 2 * d1 * _family_degree(P, fam2)),
        "d_x": (_x_degree(Q), d1 * (2 * _x_degree(P) + max(du, dv))),
        "d": (Q.total_degree(), 2 * d1 * P.total_degree()),
    }
    return _as_annihilator(Q.normalize(), "y2", fam2, bounds)


def _coprime_x(field, cu, cv):
    if not field.desc.has_x:
        return True
    if field.is_zero(cu) or field.is_zero(cv):
        return True
    g = cu.numer.gcd(cv.numer)
    return all(exp[0] == 0 for exp, _ in g.iterterms())


def _single_family(P: DPoly):
    fams = set(P.orders())
    if len(fams) != 1:
        raise DalgError("P must involve exactly one jet family")
    return fams.pop()


def elim_x(P: DPoly) -> Annihilator:
    """Autonomous annihilator from one with C[x] coefficients: P' if P'
    is free of x, otherwise Res_x(P, P').  Order grows by at most one
    and the degree is bounded by 2*d_x*d."""
    field = P.field
    if not field.desc.has_x:
        raise DalgError("the coefficient field has no x to eliminate")
    fam = _single_family(P)
    for c in P.terms.values():
        _x_poly_check(field, c, "every coefficient of P")
    dx = _x_degree(P)
    if dx == 0:
        raise DalgError("P is already free of x; nothing to eliminate")
    r = P.orders()[fam]
    d = P.total_degree()
    Q = P.derive()
    if _x_degree(Q) > 0:
        Q = _resultant_in_x(P, Q)
        if Q.is_zero():
            raise HypothesisError(
                "Res_x(P, P') vanished: P is not primitive and separable in "
                "its top derivative; apply prepare_primitive_separable first")
    out = Q.normalize()
    bounds = {"order": (out.orders().get(fam, 0), r + 1),
              "d": (out.total_degree(), 2 * dx * d)}
    label = family_label(*fam)
    return _as_annihilator(out, label, fam, bounds)


def _x_coeff_vector(p: DPoly):
    """p as a polynomial in x with x-free DPoly coefficients,
    descending in the x-exponent."""
    field = p.field
    buckets = {}
    for m, c in p.terms.items():
        for e, base in enumerate(field.as_x_poly(c)):
            if field.is_zero(base):
                continue
            cur = buckets.setdefault(e, {})
            cur[m] = cur.get(m, field.zero) + base
    top = max(buckets)
    out = []
    for e in range(top, -1, -1):
        out.append(DPoly(field, buckets.get(e, {})))
    return out


def _resultant_in_x(P: DPoly, Q: DPoly) -> DPoly:
    field = P.field
    pc = _x_coeff_vector(P)
    qc = _x_coeff_vector(Q)
    dp, dq = len(pc) - 1, len(qc) - 1
    if dp <= 0 or dq <= 0:
        raise DalgError("degenerate resultant in x")
    return _bareiss_det(_sylvester(pc, qc, field), field)


# ---------------------------------------------------------------------------
# preparation

def prepare_primitive_separable(P: DPoly, top) -> DPoly:
    """Primitive (no content in `top`), squarefree-in-`top` part of P.
    Idempotent; degrees never increase."""
    if P.is_zero():
        raise DalgError("P must be nonzero")
    if not isinstance(top, JetVar):
        top = JetVar(*var_key(top))
    field = P.field
    cur = P.normalize()
    while True:
        before = cur
        if cur.degree_in(top) > 0:
            coeffs = list(cur.as_poly_in(top).values())
            g = coeffs[0]
            for c in coeffs[1:]:
                g = dp_gcd(g, c)
                if g.total_degree() == 0 and _x_degree(g) == 0:
                    break
            if g.total_degree() > 0 or _x_degree(g) > 0:
                cur = dp_div_exact(cur, g)
            dtop = cur.partial(top)
            if not dtop.is_zero():
                g2 = dp_gcd(cur, dtop)
                if g2.total_degree() > 0 or _x_degree(g2) > 0:
                    cur = dp_div_exact(cur, g2)
        cur = cur.normalize()
        if cur == before:
            return cur
