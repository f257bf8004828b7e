"""Macaulay layers, exact sparse row reduction and a sparse mod-p rank.

MacaulayLayers is the one builder of Macaulay layers: it orders the
columns, makes the rows monomial * generator (integer-cleared over plain
Q) and checks the work budget before any row of a layer is built.

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

modp_rank reduces the same sparse integer rows over F_p with plain
integer arithmetic.  A mod-p rank never exceeds the rational rank, so a
caller holding a matching upper bound can certify exactness; otherwise
it must fall back to the exact eliminator.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from fractions import Fraction
from heapq import heappop, heappush
from math import comb, gcd, lcm
from operator import not_

from .dpoly import mono_mul
from .errors import BudgetExceededError

DEFAULT_BUDGET = 2 * 10**7

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


def check_budget(rows, cols):
    budget = current_budget()
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
# Macaulay layers

class MacaulayLayers:
    """Macaulay layers of homogeneous generators over one variable set.

    The degree-k layer has one row mu*g for each generator g and each
    monomial mu of degree k - deg g.  Its columns are the degree-k
    monomials in descending grevlex order; with last, a set of variable
    keys, the monomials whose variables all lie in last move to the end
    in the same order.  Over plain Q the generators' terms are cleared to
    integers once, so rows feed the fraction-free eliminator and
    modp_rank alike.
    """

    def __init__(self, field, gens, varkeys, last=None):
        self.field = field
        self.varkeys = list(varkeys)
        self.last = last
        self.degs = [g.total_degree() for g in gens]
        self.int_mode = plain_q(field)
        self.terms = (int_rows_data(field, gens) if self.int_mode
                      else [list(g.terms.items()) for g in gens])
        self._cols = {}

    def columns(self, k):
        """(monomials, column of each monomial, first column of the last
        block) of the degree-k layer."""
        if k not in self._cols:
            monos = degree_monomials(self.varkeys, k)
            tail = [] if self.last is None else [
                m for m in monos if all(x in self.last for x, _ in m)]
            if tail:
                in_tail = set(tail)
                monos = [m for m in monos if m not in in_tail] + tail
            self._cols[k] = (monos, {m: i for i, m in enumerate(monos)},
                             len(monos) - len(tail))
        return self._cols[k]

    def nrows(self, k, upto=None):
        """Row count of the degree-k layer of gens[:upto]."""
        v = len(self.varkeys)
        return sum(monomial_count(v, k - d) for d in self.degs[:upto] if d <= k)

    def rows(self, k, upto=None):
        """(gi, mu, row) for each row of the degree-k layer of gens[:upto],
        generator by generator; the work budget is checked first."""
        check_budget(self.nrows(k, upto), monomial_count(len(self.varkeys), k))
        _, index, _ = self.columns(k)
        return ((gi, mu, {index[mono_mul(mu, m)]: c for m, c in self.terms[gi]})
                for gi, d in enumerate(self.degs[:upto]) if d <= k
                for mu in degree_monomials(self.varkeys, k - d))

    def eliminate(self, k, upto=None, track=False):
        """Row-reduce the degree-k layer of gens[:upto].

        Returns the eliminator and the (gi, mu) of each row; a row's tag
        is its position in that list.
        """
        rows = self.rows(k, upto)
        elim = SparseEliminator(len(self.columns(k)[0]), self.field, track)
        labels = []
        for gi, mu, row in rows:
            elim.add_row(row, len(labels))
            labels.append((gi, mu))
        return elim, labels


# ---------------------------------------------------------------------------
# modular rank

def modp_rank(rows, ncols):
    """Rank over F_p, p = MOD_P, of integer rows of a layer ncols wide.

    Each stored pivot row is scaled to a leading 1 and every row fed in is
    reduced by them, sparse, under the same column order as the exact
    eliminator.  The rank never exceeds the rank over Q.  The rows carry
    their own columns, so ncols only names the layer's width.
    """
    pivots = {}
    for row in rows:
        row = {c: v % MOD_P for c, v in row.items() if v % MOD_P}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], -1, MOD_P)
                pivots[c] = {cc: v * inv % MOD_P for cc, v in row.items()}
                break
            f = row[c]
            for cc, v in prow.items():
                w = (row.get(cc, 0) - f * v) % MOD_P
                if w:
                    row[cc] = w
                else:
                    row.pop(cc, None)
    return len(pivots)
