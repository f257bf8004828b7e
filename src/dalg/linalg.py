"""Exact sparse row reduction and a fast modular rank engine.

Rows live over a fixed ordered column set.  The eliminator keeps rows in
row-echelon form with the deterministic pivot rule "first nonzero entry
under the column order".  Over plain Q the arithmetic is fraction-free
(integer cross-multiplication with content stripping); over other fields
it divides by the pivot.

With tracking on, each stored row keeps a recipe instead of a trail: the
pivot rows it was reduced by with their multipliers, the tag of the row
fed in, that row's multiplier and the final divisor, all folded from the
reduction steps with plain integers (field elements over other fields).
Recording a recipe costs no more than the elimination it records.
trail_of() expands the recipes on demand into an exact combination of
the rows fed in, which callers replay as membership certificates.

The modular engine computes matrix rank over F_p with dense float64
BLAS blocks.  A mod-p rank never exceeds the rational rank, so a caller
holding a matching upper bound can certify exactness; otherwise it must
fall back to the exact eliminator.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from fractions import Fraction
from heapq import heappop, heappush
from math import comb, gcd, lcm
from operator import not_

import numpy as np

from .errors import BudgetExceededError

DEFAULT_BUDGET = 2 * 10**7

# below 2**20, so 8192-term float64 dot products stay exact (< 2**53)
MOD_P = 999983

_budget_override = None


@contextmanager
def budget_limit(n):
    """Scoped matrix entry budget; takes precedence over DALG_BUDGET."""
    global _budget_override
    prev = _budget_override
    _budget_override = n
    try:
        yield
    finally:
        _budget_override = prev


def current_budget():
    """Matrix entry budget; the DALG_BUDGET variable overrides the default."""
    if _budget_override is not None:
        return _budget_override
    raw = os.environ.get("DALG_BUDGET")
    if raw:
        try:
            return int(raw)
        except ValueError:
            pass
    return DEFAULT_BUDGET


def check_budget(rows, cols, budget=None):
    budget = current_budget() if budget is None else budget
    if rows * cols > budget:
        raise BudgetExceededError(rows, cols, budget)


# ---------------------------------------------------------------------------
# monomial layers

def degree_monomials(varkeys, k):
    """Monomials of total degree k, in descending grevlex order.

    varkeys must be sorted ascending; for dense exponent tuples over an
    ascending variable list, ascending tuple order is descending grevlex,
    so the exponent tuples are emitted in plain sorted order.
    """
    v = len(varkeys)
    out = []

    def rec(pos, remaining, acc):
        if pos == v - 1:
            acc.append(remaining)
            out.append(tuple(acc))
            acc.pop()
            return
        for e in range(remaining + 1):
            acc.append(e)
            rec(pos + 1, remaining - e, acc)
            acc.pop()

    if v == 0:
        return [()] if k == 0 else []
    rec(0, k, [])
    return [
        tuple((varkeys[i], e) for i, e in enumerate(exps) if e)
        for exps in out
    ]


def monomial_count(v, k):
    return comb(v - 1 + k, v - 1)


# ---------------------------------------------------------------------------
# exact sparse eliminator

def plain_q(field):
    """True when coefficients are plain rationals (no field means Q).

    Layers over plain Q are reduced fraction-free with integer rows; every
    other field is reduced with its own division.
    """
    return field is None or (field.desc.kind == "Q" and not field.desc.params
                             and not field.desc.has_x)


def int_rows_data(field, gens):
    """Per generator: terms as (monomial, int) with cleared denominators."""
    out = []
    for g in gens:
        pairs = []
        den = 1
        for m, c in g.terms.items():
            n, d = field.plain_rational_parts(c)
            pairs.append((m, n, d))
            den = lcm(den, d)
        out.append([(m, n * (den // d)) for m, n, d in pairs])
    return out


class SparseEliminator:
    """Incremental row echelon form over Q (integer rows) or a Field.

    With track=True, trails[i] is the recipe (coeffs, tag, scale, divisor)
    of stored row i: row_i = (scale*input - sum_p coeffs[p]*row_p) / divisor,
    where input is the row fed in under tag and every p < i.
    """

    def __init__(self, ncols, field=None, track=False):
        self.ncols = ncols
        self.field = field
        self.int_mode = plain_q(field)
        self.track = track
        self.rows = []
        self.trails = []
        self.pivot_of_col = {}
        self.pivot_col_of_row = []

    @property
    def rank(self):
        return len(self.rows)

    def _store(self, row, c, recipe):
        self.pivot_of_col[c] = len(self.rows)
        self.rows.append(row)
        self.pivot_col_of_row.append(c)
        self.trails.append(recipe)
        return c

    # -- integer rows ---------------------------------------------------

    def _add_int(self, row, tag, steps):
        while row:
            c = min(row)
            p = self.pivot_of_col.get(c)
            if p is None:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if row[c] < 0:
                    g = -g
                if g != 1:
                    row = {cc: v // g for cc, v in row.items()}
                recipe = None
                if steps is not None:
                    # fold the steps: each one scaled the running row by
                    # ma, so a step's mb picks up every later ma
                    coeffs = {}
                    scale = 1
                    for q, ma, mb in reversed(steps):
                        coeffs[q] = mb * scale
                        scale *= ma
                    recipe = (coeffs, tag, scale, g)
                return self._store(row, c, recipe)
            prow = self.rows[p]
            a, b = prow[c], row[c]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            new = dict(row) if ma == 1 else {cc: v * ma for cc, v in row.items()}
            for cc, v in prow.items():
                w = new.get(cc, 0) - v * mb
                if w:
                    new[cc] = w
                else:
                    new.pop(cc, None)
            row = new
            if steps is not None:
                steps.append((p, ma, mb))
        return None

    # -- field rows -------------------------------------------------------

    def _add_field(self, row, tag, steps):
        f = self.field
        while row:
            c = min(row)
            p = self.pivot_of_col.get(c)
            if p is None:
                piv = row[c]
                inv = f.one / piv
                row = {cc: v * inv for cc, v in row.items()}
                recipe = None if steps is None else (dict(steps), tag, f.one, piv)
                return self._store(row, c, recipe)
            prow = self.rows[p]
            factor = row[c]
            new = dict(row)
            for cc, v in prow.items():
                w = new.get(cc, f.zero) - v * factor
                if f.is_zero(w):
                    new.pop(cc, None)
                else:
                    new[cc] = w
            row = new
            if steps is not None:
                steps.append((p, factor))
        return None

    def add_row(self, row, tag=None):
        """Reduce a row and store it if independent; returns its pivot column.

        Integer mode expects integer entries; field mode expects Coeff.
        When tracking, the reduction steps are kept as the row's recipe.
        """
        if not row:
            return None
        steps = [] if self.track else None
        if self.int_mode:
            return self._add_int(dict(row), tag, steps)
        return self._add_field(dict(row), tag, steps)

    def row_fractions(self, i):
        """Entries of stored row i over Q as {col: Fraction} (integer mode)."""
        return {c: Fraction(v) for c, v in self.rows[i].items()}

    def trail_of(self, i):
        """Stored row i as a combination {tag: coefficient} of the input rows.

        Expands the recipes on demand: rows are visited in descending
        index order, so a row's weight is final before its recipe hands
        weight down to the earlier rows it was reduced by.  Coefficients
        are Fractions in integer mode and field elements otherwise; tags
        whose coefficients cancel are left out.
        """
        if self.trails[i] is None:
            return None
        if self.int_mode:
            one, zero, is_zero = Fraction(1), Fraction(0), not_
        else:
            f = self.field
            one, zero, is_zero = f.one, f.zero, f.is_zero
        weight = {i: one}
        heap = [-i]
        out = {}
        while heap:
            j = -heappop(heap)
            w = weight.pop(j)
            if is_zero(w):
                continue
            coeffs, tag, scale, divisor = self.trails[j]
            w = w / divisor
            out[tag] = out.get(tag, zero) + w * scale
            for p, b in coeffs.items():
                if p in weight:
                    weight[p] -= w * b
                else:
                    weight[p] = -(w * b)
                    heappush(heap, -p)
        return {t: v for t, v in out.items() if not is_zero(v)}


# ---------------------------------------------------------------------------
# modular rank

def modp_rank(rows, ncols, p=MOD_P, chunk=256):
    """Rank over F_p of integer rows; never exceeds the rank over Q."""
    pivcols = []
    pivmat = np.zeros((0, ncols))
    buf = np.zeros((chunk, ncols))
    nbuf = 0

    def flush(block):
        nonlocal pivcols, pivmat
        if pivcols:
            sel = block[:, pivcols]
            # accumulate in slices so dot products stay below 2**53
            step = 8192
            for s in range(0, len(pivcols), step):
                block = block - sel[:, s:s + step] @ pivmat[s:s + step]
                block %= p
        for i in range(block.shape[0]):
            r = block[i]
            nz = np.nonzero(r)[0]
            if nz.size == 0:
                continue
            c = int(nz[0])
            inv = pow(int(r[c]), p - 2, p)
            r = (r * inv) % p
            if i + 1 < block.shape[0]:
                col = block[i + 1:, c].copy()
                mask = col != 0
                if mask.any():
                    block[i + 1:][mask] = (block[i + 1:][mask] - np.outer(col[mask], r)) % p
            if pivcols:
                col = pivmat[:, c].copy()
                mask = col != 0
                if mask.any():
                    pivmat[mask] = (pivmat[mask] - np.outer(col[mask], r)) % p
            pivmat = np.vstack([pivmat, r[None, :]])
            pivcols.append(c)

    for row in rows:
        for c, v in row.items():
            buf[nbuf, c] = v % p
        nbuf += 1
        if nbuf == chunk:
            flush(buf[:nbuf].copy())
            buf[:] = 0.0
            nbuf = 0
    if nbuf:
        flush(buf[:nbuf].copy())
    return len(pivcols)
