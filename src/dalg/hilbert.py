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

from .dpoly import var_key
from .errors import DalgError
from .fields import plain_q
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
        if plain_q(layers.field) and layers.nrows(k):
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
# profiles and fitted degrees

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


def _fitted_degree(values):
    """Degree of the polynomial through the values at consecutive
    degrees: the largest order of finite difference that is not all
    zero, or None unless that order is below the top one,
    len(values) - 1 (otherwise the values do not pin the degree down)."""
    diffs, deg = values, 0
    for m in range(len(diffs)):
        if any(diffs):
            deg = m
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return deg if deg < len(values) - 1 else None


# ---------------------------------------------------------------------------
# D-regularity

@dataclass
class DRegReport:
    """fitted_degree is the degree of the polynomial through the last
    (at most 5) Hilbert values up to the cutoff, or None when those
    values do not pin it down (see _fitted_degree).  fit_stable is
    always None: it would compare the fit with HF(cutoff + 1), which the
    profile never holds."""
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
    window = range(max(0, cutoff - 4), cutoff + 1)
    return DRegReport(regular=report.regular, rho=rho, cutoff=cutoff,
                      n_vars=v, n_gens=n,
                      expected_dimension=v - 1 - n,
                      fitted_degree=_fitted_degree([values[k] for k in window]),
                      fit_stable=None,
                      profile=profile, regseq=report)
