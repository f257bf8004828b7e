"""Degree-truncated Hilbert functions of homogeneous ideals.

The degree-k component of an ideal generated by homogeneous polynomials
is spanned by monomial multiples of the generators (the Macaulay layer);
its rank gives HF_I(k) = C(v-1+k, v-1) - rank.  A regular sequence has
the closed-form series prod(1-t^d_j) / (1-t)^v, and regularity of each
generator modulo its predecessors is tested degree by degree through the
injectivity of the multiplication map.

The check runs degree by degree, feeding each layer generator by
generator, so the running rank at the last row of generator i is the
rank of the prefix gens[:i].  Inside a generator's block the rows come
by descending multiplier (MacaulayLayers.rows), which on these layers,
with no last block, is descending leading column: it makes less
fill-in and changes no prefix rank, since a prefix rank depends only
on the span of the prefix.  rank_i(k) <= rank_{i-1}(k) +
HF_{i-1}(k - d_i) always holds, and meeting that bound is exactly the
injectivity condition.  Over plain Q the layer is first reduced mod p,
and a mod-p rank meeting the bound is exact.  Other prefixes read the
exact running ranks of the layer (MacaulayLayers.ranks), one pass per
degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .dpoly import var_key
from .errors import DalgError, WindowError
from .linalg import (MacaulayLayers, check_budget, modp_rank, monomial_count,
                     ring_vars)
from .system import prolong


def _as_keys(vars_):
    varkeys = tuple(sorted(var_key(v) for v in vars_))
    if not varkeys:
        raise DalgError("need at least one variable")
    return varkeys


def _validate_gens(gens, varkeys):
    vset = set(varkeys)
    for g in gens:
        if g.is_zero():
            raise DalgError("zero generator")
        if not g.is_homogeneous():
            raise DalgError(f"non-homogeneous generator: {g}")
        for m in g.terms:
            for k, _ in m:
                if k not in vset:
                    raise DalgError(
                        f"generator uses a variable outside the ring: {g}")


def hf(gens, vars_, k):
    """Hilbert function value dim (R/I)_k, exact."""
    if k < 0:
        return 0
    varkeys = _as_keys(vars_)
    _validate_gens(gens, varkeys)
    if not gens:
        return monomial_count(len(varkeys), k)
    layers = MacaulayLayers(gens[0].field, gens, varkeys)
    return monomial_count(len(varkeys), k) - layers.eliminate(k)[0].rank


def hs_regular_closed_form(degrees, v, upto):
    """Coefficients 0..upto of prod(1 - t^d_j) / (1 - t)^v."""
    if v < 1:
        raise DalgError("need at least one variable")
    out = [monomial_count(v, k) for k in range(upto + 1)]
    for d in degrees:
        out = [out[k] - (out[k - d] if k >= d else 0)
               for k in range(upto + 1)]
    return out


# ---------------------------------------------------------------------------
# regular sequences

@dataclass
class PrefixReport:
    """Verdicts for generator i tested modulo its predecessors."""
    index: int
    degree: int
    verdicts: dict
    first_failure: int | None

    @property
    def regular(self):
        return self.first_failure is None


@dataclass
class RegSeqReport:
    cutoff: int
    prefixes: list
    hf_values: dict
    regular: bool

    def failure(self):
        for p in self.prefixes:
            if p.first_failure is not None:
                return (p.index, p.first_failure)
        return None


def check_regular_sequence(gens, vars_, cutoff):
    """Per-prefix, per-degree injectivity test of the multiplication maps.

    For each prefix and each degree j <= cutoff it checks
    HF_i(j) = HF_{i-1}(j) - HF_{i-1}(j - d_i); a failure is conclusive,
    success is bounded by the cutoff.
    """
    if cutoff < 0:
        raise DalgError("cutoff must be nonnegative")
    varkeys = _as_keys(vars_)
    _validate_gens(gens, varkeys)
    if not gens:
        raise DalgError("empty generator list")
    layers = MacaulayLayers(gens[0].field, gens, varkeys)
    v = len(varkeys)
    n = len(gens)
    # every prefix layer is within budget before any is reduced, checked
    # prefix by prefix, so an abort names the first prefix layer too large
    for i in range(1, n + 1):
        for k in range(cutoff + 1):
            check_budget(layers.nrows(k, i), monomial_count(v, k))

    # ranks[i][k] = rank of the degree-k layer of the first i generators;
    # generator i is regular at k exactly when it meets the bound
    # ranks[i-1][k] + HF_{i-1}(k - d_i), which needs prefix i - 1 only at
    # degrees <= k and so is known when prefix i is reached
    ranks = [[0] * (cutoff + 1) for _ in range(n + 1)]
    verdicts = [{} for _ in range(n)]
    first_fail = [None] * n
    for k in range(cutoff + 1):
        running = exact = None
        if layers.int_mode and layers.nrows(k):
            running = modp_rank(layers.rows(k), monomial_count(v, k))
        for i in range(1, n + 1):
            d_i = layers.degs[i - 1]
            prev = ranks[i - 1]
            upper = prev[k] + (monomial_count(v, k - d_i) - prev[k - d_i]
                               if k >= d_i else 0)
            nr = layers.nrows(k, i)
            rank = running[nr - 1] if running and nr else 0
            if rank != upper:
                # short of the bound mod p, or not over plain Q: only the
                # exact rank decides, from one exact pass per degree
                exact = exact or layers.ranks(k)
                rank = exact[nr - 1] if nr else 0
            ranks[i][k] = rank
            verdicts[i - 1][k] = "regular" if rank == upper else "failed"
            if rank != upper and first_fail[i - 1] is None:
                first_fail[i - 1] = k
    prefixes = [PrefixReport(index=i, degree=layers.degs[i - 1],
                             verdicts=verdicts[i - 1],
                             first_failure=first_fail[i - 1])
                for i in range(1, n + 1)]
    hf_values = {i: {k: monomial_count(v, k) - ranks[i][k]
                     for k in range(cutoff + 1)}
                 for i in range(1, n + 1)}
    return RegSeqReport(cutoff=cutoff, prefixes=prefixes,
                        hf_values=hf_values,
                        regular=all(p.regular for p in prefixes))


# ---------------------------------------------------------------------------
# profiles and dimension estimates

@dataclass
class HilbertProfile:
    values: dict
    closed_form: dict | None = None
    verdicts: dict = dc_field(default_factory=dict)

    def to_csv(self):
        lines = ["degree,hf,closed_form,verdict"]
        for k in sorted(self.values):
            cf = "" if self.closed_form is None or k not in self.closed_form \
                else str(self.closed_form[k])
            lines.append(f"{k},{self.values[k]},{cf},"
                         f"{self.verdicts.get(k, 'unchecked')}")
        return "\n".join(lines) + "\n"


@dataclass
class DimEstimate:
    degree: int
    coefficients: tuple
    stable: bool | None

    def evaluate(self, k):
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * k + c
        return acc


def hilbert_dim_estimate(profile, window):
    """Fit the interpolating polynomial through HF values on the window.

    Returns its degree and coefficients (ascending).  The fit is flagged
    unstable when a profile value just outside the window disagrees; the
    window must leave at least one vanishing top difference, otherwise
    the degree cannot be certified.
    """
    window = list(window)
    if len(window) < 2:
        raise WindowError("window too short: need at least 2 degrees")
    try:
        vals = [Fraction(profile.values[k]) for k in window]
    except KeyError as e:
        raise WindowError(f"degree {e.args[0]} missing from profile")
    if any(b - a != 1 for a, b in zip(window, window[1:])):
        raise WindowError("window degrees must be consecutive")

    diffs = [vals]
    while len(diffs[-1]) > 1:
        last = diffs[-1]
        diffs.append([b - a for a, b in zip(last, last[1:])])
    deg = 0
    for m in range(len(diffs) - 1, -1, -1):
        if any(x != 0 for x in diffs[m]):
            deg = m
            break
    if deg >= len(window) - 1:
        raise WindowError(
            f"window too short to certify degree {deg}: need length >= {deg + 2}")

    # Newton forward form sum_j diff_j[0] * C(k - k0, j), expanded
    k0 = window[0]
    coeffs = [Fraction(0)] * (deg + 1)
    basis = [Fraction(1)]
    fact = 1
    for j in range(deg + 1):
        cj = diffs[j][0] / fact
        for e, b in enumerate(basis):
            coeffs[e] += cj * b
        # multiply basis by (k - k0 - j) for the next iteration
        nxt = [Fraction(0)] * (len(basis) + 1)
        for e, b in enumerate(basis):
            nxt[e + 1] += b
            nxt[e] += b * (-(k0 + j))
        basis = nxt
        fact *= (j + 1)

    est = DimEstimate(degree=deg, coefficients=tuple(coeffs), stable=None)
    nxt_k = window[-1] + 1
    if nxt_k in profile.values:
        est.stable = est.evaluate(nxt_k) == profile.values[nxt_k]
    return est


# ---------------------------------------------------------------------------
# D-regularity

@dataclass
class DRegReport:
    regular: bool
    rho: int
    cutoff: int
    n_vars: int
    n_gens: int
    expected_dimension: int
    fitted_degree: int | None
    fit_stable: bool | None
    profile: HilbertProfile
    regseq: RegSeqReport


def default_cutoff(gens):
    return max(8, 2 * max(g.total_degree() for g in gens) + 2)


def check_dregular(spec, rho, cutoff=None):
    """Prolong to order rho, homogenize, and test for a regular sequence."""
    gens = [g.homogenize() for g in prolong(spec, rho)]
    if cutoff is None:
        cutoff = default_cutoff(gens)
    varkeys = ring_vars(gens)
    report = check_regular_sequence(gens, varkeys, cutoff)
    v = len(varkeys)
    n = len(gens)
    values = report.hf_values[n]
    closed = hs_regular_closed_form([g.total_degree() for g in gens], v, cutoff)
    verdicts = {}
    for k in range(cutoff + 1):
        vs = {p.verdicts[k] for p in report.prefixes}
        verdicts[k] = "failed" if "failed" in vs else "regular"
    profile = HilbertProfile(values=dict(values),
                             closed_form={k: closed[k] for k in range(cutoff + 1)},
                             verdicts=verdicts)
    fitted = None
    stable = None
    lo = max(0, cutoff - 4)
    try:
        est = hilbert_dim_estimate(profile, range(lo, cutoff + 1))
        fitted = est.degree
        stable = est.stable
    except WindowError:
        pass
    return DRegReport(regular=report.regular, rho=rho, cutoff=cutoff,
                      n_vars=v, n_gens=n,
                      expected_dimension=v - 1 - n,
                      fitted_degree=fitted, fit_stable=stable,
                      profile=profile, regseq=report)
