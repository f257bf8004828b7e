"""Macaulay layers, exact sparse row reduction and a sparse mod-p rank.

MacaulayLayers is the one builder of Macaulay layers: it orders the
columns, makes the rows monomial * generator and checks the work budget
before any row of a layer is built.  Inside the builder a monomial is a
packed integer code (code_shifts, mono_code), one bit field per
variable: columns and multipliers are read from one table of ascending
codes per field width, grown by next_degree_codes, a product's column
from the sum of two codes, and a row is labelled by its multiplier's code.
Monomial tuples are decoded (mono_decode) only by the search that reads
an annihilator and replays its certificate.  Each generator is cleared
of denominators once, into the ring R of its field: ints over plain Q,
Gaussian integers over Q(i), and polynomials over those in the
parameters and x otherwise.  The fields module owns that
ring (ring_of, ring_cofactors, clear_denominators) and the canonical
primitive form over it (primitive_divisor); this module only uses them.
ring_vars reads the variables of a layer's ring off its generators.

Rows live over a fixed ordered column set.  The eliminator keeps rows in
row-echelon form with the deterministic pivot rule "first nonzero entry
under the column order".  There is one reduction, fraction-free over R
for every field: cross-multiplication by the pivots over their gcd, the
gcd and both cofactors from one ring_cofactors call, with a row made
primitive when it is stored.  A pivot whose lead is 1 needs no gcd: the
row is reduced by its entry times the pivot row, with no cofactors
call, and a stored row holding an entry 1 or -1 is primitive with no
gcd computed (primitive_divisor).  Entries never leave R, so no
operation needs a gcd of fractions.

The order rows are fed in is free.  The set of pivot columns depends
only on the span of the rows and on the column order, and the echelon
row at the largest pivot of a trailing block is, up to a scalar, the
only element of the span supported on that block; so the annihilator
read from it is, once normalized, the same for every feed order, and
only its certificate differs.  The order does decide the fill-in.
MacaulayLayers.eliminate feeds a layer's rows by descending leading
column, ties in generator order: rows that start late are short, so
they become pivots first and the rows that start early are reduced by
sparse pivots.  Every other reader takes the one row stream of
MacaulayLayers.rows: generator by generator, and inside each
generator's block by descending multiplier, which on a layer without a
last block is descending leading column as well.  MacaulayLayers.ranks
and the mod-p pre-screen read the rank of each prefix of the generators
from their running ranks over that stream.  A prefix rank depends only
on the span of the prefix, so the order inside a block changes no
prefix rank, only the fill-in.  The rows are built as they are read,
and the whole layer is never held.

With tracking on, each stored row keeps a recipe instead of a trail: the
pivot rows it was reduced by with their multipliers, the tag of the row
fed in, that row's multiplier and the final divisor, all folded from the
reduction steps in R.  Recording a recipe costs no more than the
elimination it records.  trail_numerators() expands the recipes on
demand into numerators in R over one common denominator: an exact
combination of the rows fed in, which callers replay in R as a
membership certificate.

modp_rank reduces the same sparse integer rows over F_p with plain
integer arithmetic and reports the rank after every row, so one pass
over a layer fed generator by generator, in any order inside each
generator's block, gives the rank of each prefix of the generators.  A
mod-p rank never exceeds the rational rank, so a caller holding a
matching upper bound can certify exactness; otherwise it must fall back
to the exact eliminator.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from heapq import heappop, heappush
from math import comb

from .dpoly import JetVar
from .errors import BudgetExceededError, DalgError
from .fields import (clear_denominators, plain_q, primitive_divisor,
                     ring_cofactors, ring_of)

DEFAULT_BUDGET = 2 * 10**7

MOD_P = 999983

_budget_override = None


@contextmanager
def budget_limit(n):
    """Scoped matrix entry budget; takes precedence over DALG_BUDGET.
    A budget that is not a nonnegative integer raises DalgError."""
    global _budget_override
    if not isinstance(n, int) or n < 0:
        raise DalgError(f"budget must be a nonnegative integer, got {n!r}")
    prev = _budget_override
    _budget_override = n
    try:
        yield
    finally:
        _budget_override = prev


def current_budget():
    """Matrix entry budget; the DALG_BUDGET variable overrides the default.
    A DALG_BUDGET that is not a nonnegative integer raises DalgError."""
    if _budget_override is not None:
        return _budget_override
    raw = os.environ.get("DALG_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        n = int(raw)
        if n >= 0:
            return n
    except ValueError:
        pass
    raise DalgError(f"DALG_BUDGET must be a nonnegative integer, got {raw!r}")


def check_budget(rows, cols):
    budget = current_budget()
    if rows * cols > budget:
        raise BudgetExceededError(rows, cols, budget)


# ---------------------------------------------------------------------------
# monomial layers

def monomial_count(v, k):
    return comb(v - 1 + k, v - 1)


def ring_vars(polys):
    """Ordered ring variables for a set of polynomials: s plus every jet
    family filled from order 0 up to its maximum occurring order."""
    fams = {}
    for p in polys:
        for m in p.terms:
            for (fam, idx, order), _ in m:
                if fam:
                    fams[(fam, idx)] = max(fams.get((fam, idx), 0), order)
    keys = [JetVar.s().key]
    for (fam, idx), top in sorted(fams.items()):
        keys.extend((fam, idx, j) for j in range(top + 1))
    return sorted(keys)


# ---------------------------------------------------------------------------
# exact sparse eliminator

class SparseEliminator:
    """Incremental row echelon form over the ring of a field.

    Rows hold elements of R = ring_of(field)[0] (ints over plain Q) and
    are reduced fraction-free: a step cross-multiplies by the pivots
    divided by their gcd, and a stored row is divided by the gcd of its
    entries and given a canonical leading unit, so a stored lead that
    is a unit is 1.  A step by a pivot with lead 1 takes no gcd: its
    cofactors are 1 and the row's entry.  Every step cancels the lead
    column by deleting it, and a divisor that is a unit is applied as a
    product with its inverse.  With track=True, trails[i] is the recipe
    (coeffs, tag, scale, divisor) of stored row i, all in R:
    row_i = (scale*input - sum_p coeffs[p]*row_p) / divisor, where input
    is the row fed in under tag and every p < i.
    """

    def __init__(self, ncols, field=None, track=False):
        self.ncols = ncols
        self.int_mode = plain_q(field)
        self.ring, self.domain = ring_of(field)
        self._cofactors = ring_cofactors(self.ring)
        self.track = track
        self.rows = []
        self.trails = []
        self.pivot_of_col = {}

    @property
    def rank(self):
        return len(self.rows)

    def _store(self, row, c, recipe):
        self.pivot_of_col[c] = len(self.rows)
        self.rows.append(row)
        self.trails.append(recipe)
        return c

    def _add(self, row, tag, steps):
        R = self.ring
        cofactors, one, zero = self._cofactors, R.one, R.zero
        while row:
            c = min(row)
            p = self.pivot_of_col.get(c)
            if p is None:
                g = primitive_divisor(R, row.values(), row[c])
                if g != one:
                    # a unit divides as a product with its inverse,
                    # which a sympy ring finds several times faster
                    u = R.canonical_unit(g)
                    if g * u == one:
                        row = {cc: v * u for cc, v in row.items()}
                    else:
                        row = {cc: v // g for cc, v in row.items()}
                recipe = None
                if steps is not None:
                    # fold the steps: each one scaled the running row by
                    # ma, so a step's mb picks up every later ma
                    coeffs = {}
                    scale = one
                    for q, ma, mb in reversed(steps):
                        coeffs[q] = mb if scale == one else mb * scale
                        if ma != one:
                            scale *= ma
                    recipe = (coeffs, tag, scale, g)
                return self._store(row, c, recipe)
            prow = self.rows[p]
            lead = prow[c]
            # ma * row - mb * prow: the lead column cancels, so it is
            # deleted here and skipped below
            if lead == one:
                ma, mb = one, row.pop(c)
            else:
                _, ma, mb = cofactors(lead, row.pop(c))
                if ma != one:
                    row = {cc: v * ma for cc, v in row.items()}
            for cc, v in prow.items():
                if cc != c:
                    w = row.get(cc, zero) - v * mb
                    if w:
                        row[cc] = w
                    else:
                        del row[cc]
            if steps is not None:
                steps.append((p, ma, mb))
        return None

    def add_row(self, row, tag=None):
        """Reduce a row and store it if independent; returns its pivot column.

        Entries are elements of the ring (ints over plain Q).  The row
        is copied once and the copy reduced in place, so the caller's
        row never changes.  When tracking, the reduction steps are kept
        as the row's recipe.
        """
        if not row:
            return None
        return self._add(dict(row), tag, [] if self.track else None)

    def trail_numerators(self, i):
        """Stored row i as (numerators, den) in R, with row i equal to
        sum numerators[tag] * input / den over the input rows fed in
        under each tag.  Row i must have been stored with tracking on.

        Expands the recipes on demand: rows are visited in descending
        index order, so a row's weight is final before its recipe hands
        weight down to the earlier rows it was reduced by.  Weights are
        numerators in R over one common denominator, which each recipe
        with a divisor other than one multiplies by it.  A weight keeps
        the denominator it was last written over and is brought up to
        the current one when it is next read, so a divisor costs nothing
        for the weights it does not reach.  Tags whose numerators cancel
        are left out.
        """
        R = self.ring
        one = R.one
        dens = [one]    # dens[k]: the common denominator after k divisors
        factors = {}    # k -> dens[-1] // dens[k]

        def lift(v, k):
            """v, a numerator over dens[k], as one over dens[-1]."""
            if k == len(dens) - 1:
                return v
            if k not in factors:
                factors[k] = dens[-1] // dens[k]
            return v * factors[k]

        weight = {i: (one, 0)}
        heap = [-i]
        out = {}
        while heap:
            j = -heappop(heap)
            w = lift(*weight.pop(j))
            if not w:
                continue
            coeffs, tag, scale, divisor = self.trails[j]
            if divisor != one:
                # w / dens[-1] / divisor is w over the next denominator
                dens.append(dens[-1] * divisor)
                factors.clear()
            top = len(dens) - 1
            v = lift(*out[tag]) if tag in out else R.zero
            out[tag] = (v + (w if scale == one else w * scale), top)
            for p, b in coeffs.items():
                if p in weight:
                    weight[p] = (lift(*weight[p]) - w * b, top)
                else:
                    weight[p] = (-(w * b), top)
                    heappush(heap, -p)
        return {t: lift(*v) for t, v in out.items() if v[0]}, dens[-1]


# ---------------------------------------------------------------------------
# Macaulay layers

def code_shifts(varkeys, k):
    """Bit offset of each variable's field in the packed code of a
    monomial of degree at most k.

    A monomial's code is the sum of e << shifts[x] over its factors
    x^e.  Each field is k.bit_length() bits wide, so it holds every
    exponent up to k; the codes of two monomials whose product has
    degree at most k therefore add without a carry, and their sum is the
    code of the product.  The first variable has the highest field, so
    ascending codes are ascending dense exponent tuples over the
    ascending variables, which is descending grevlex order.
    """
    w = k.bit_length()
    top = len(varkeys) - 1
    return {x: (top - i) * w for i, x in enumerate(varkeys)}


def mono_code(m, shifts):
    """Packed code of the monomial m under code_shifts."""
    code = 0
    for x, e in m:
        code += e << shifts[x]
    return code


def mono_decode(code, shifts):
    """The monomial tuple of a packed code under code_shifts: each
    exponent is read from the highest field down, with no mask, so an
    exponent that overflowed its field decodes to a wrong monomial."""
    mono = []
    for x, s in shifts.items():
        e = code >> s
        if e:
            mono.append((x, e))
            code -= e << s
    return tuple(mono)


def next_degree_codes(prev, v, w):
    """Ascending codes, under fields w bits wide, of the monomials of
    degree e + 1 in v >= 1 variables, from prev, those of degree e, with
    no set and no sort: a monomial whose first nonzero exponent is at
    variable j is x_j times one in the variables j.. only, whose codes
    are those of prev below 1 << (v - j) * w.  x_j's field is then the
    highest in use, so each group is ascending and below the next."""
    out = []
    for j in range(v - 1, -1, -1):
        one = 1 << (v - 1 - j) * w
        out += [one + c for c in prev[:bisect_left(prev, one << w)]]
    return out


def _coded_rows(index, terms, codes):
    """The row mu*g of each multiplier code, g given by its coded terms."""
    for mc in codes:
        yield {index[mc + tc]: c for tc, c in terms}


class MacaulayLayers:
    """Macaulay layers of homogeneous generators over one variable set.

    The degree-k layer has one row mu*g for each generator g and each
    monomial mu of degree k - deg g.  Its columns are the degree-k
    monomials in descending grevlex order; with last, a set of variable
    keys, the monomials whose variables all lie in last move to the end
    in the same order.  Each generator's terms are cleared to the ring
    once: terms[gi] is dens[gi] * gens[gi], with terms in R and dens in
    F (see ring_of).  Over plain Q the rows are integer rows, which
    modp_rank reads as well.

    Inside the builder every monomial is its code under the layer's
    code_shifts: a layer that first reaches degree k adds it, from k - 1,
    to the one table of its field width (next_degree_codes), whose entry
    k holds the columns and entry k - deg g the multipliers of g; the
    last block is the codes one bit mask zeroes, and mu*t sits at
    index[code(mu) + code(t)].  A row is labelled by its generator and
    its multiplier's code; monomial tuples are decoded only by the
    search that reads an annihilator (eliminate.AnnihilatorSearch.read).
    """

    def __init__(self, field, gens, varkeys, last=None):
        self.field = field
        self.varkeys = list(varkeys)
        self.last = last
        self.degs = [g.total_degree() for g in gens]
        R, F = ring_of(field)
        self.terms, self.dens = [], []
        for g in gens:
            terms, den = clear_denominators(R, F, g.terms.items())
            self.terms.append(terms)
            self.dens.append(den)
        # (w, codes of each degree under fields w bits wide), and (k,
        # layer(k)) of the layer asked for last: callers walk k upward
        self._codes, self._layer = (0, [[0]]), None

    def layer(self, k):
        """(column codes, column of each code, first column of the last
        block, code_shifts) of the degree-k layer."""
        if self._layer is None or self._layer[0] != k:
            v, w = len(self.varkeys), k.bit_length()
            shifts = code_shifts(self.varkeys, k)
            if self._codes[0] != w:
                self._codes = (w, [[0]])
            table = self._codes[1]
            while len(table) <= k:
                table.append(next_degree_codes(table[-1], v, w))
            codes = table[k]
            start = len(codes)
            if self.last is not None:
                mask = sum(((1 << w) - 1) << s for x, s in shifts.items()
                           if x not in self.last)
                head = [c for c in codes if c & mask]
                start = len(head)
                codes = head + [c for c in codes if not c & mask]
            index = dict(zip(codes, range(len(codes))))
            self._layer = (k, (codes, index, start, shifts))
        return self._layer[1]

    def nrows(self, k, upto=None):
        """Row count of the degree-k layer of gens[:upto]."""
        v = len(self.varkeys)
        return sum(monomial_count(v, k - d) for d in self.degs[:upto] if d <= k)

    def _factors(self, k):
        """The column of each code in the degree-k layer, and (gi,
        multiplier codes, coded terms) of each generator with rows in
        it: what rows and eliminate build their rows from.  The work
        budget is checked on every call, so a layer kept from an earlier
        call is checked again under the budget in force now."""
        check_budget(self.nrows(k), monomial_count(len(self.varkeys), k))
        _, index, _, shifts = self.layer(k)
        table = self._codes[1]
        # coded from terms on every call, so rows always follow terms
        return index, [(gi, table[k - d],
                        [(mono_code(m, shifts), c) for m, c in self.terms[gi]])
                       for gi, d in enumerate(self.degs) if d <= k]

    def rows(self, k):
        """The rows of the degree-k layer, generator by generator, and
        inside a generator's block by descending multiplier, built as
        they are read, so a caller that streams them never holds the
        whole layer.  The work budget is checked first.

        Without a last block the columns follow a monomial order, so
        descending multipliers are descending leading columns.
        """
        index, blocks = self._factors(k)
        return (row for _, codes, terms in blocks
                for row in _coded_rows(index, terms, reversed(codes)))

    def eliminate(self, k, track=False):
        """Row-reduce the degree-k layer.

        Rows are fed by descending leading column (their smallest column
        index), ties in generator order, then in multiplier order: one
        stable sort of the rows as built.  The order is free, since the
        pivot columns depend only on the row span and the column order
        (see the module docstring); this one makes little fill-in, as
        rows that start late are short and their pivots reduce the rows
        fed after them.  Returns the eliminator and the (gi, multiplier
        code) of each row in feed order; a row's tag is its position in
        that list.
        """
        index, blocks = self._factors(k)
        fed = [(gi, mc, row) for gi, codes, terms in blocks
               for mc, row in zip(codes, _coded_rows(index, terms, codes))]
        fed.sort(key=lambda e: min(e[2], default=0), reverse=True)
        elim = SparseEliminator(len(index), self.field, track)
        labels = [(gi, mc) for gi, mc, _ in fed]
        for j, entry in enumerate(fed):
            fed[j] = None   # each row is released once it is fed
            elim.add_row(entry[2], j)
        return elim, labels

    def ranks(self, k):
        """Exact running ranks of the degree-k layer, as modp_rank gives
        them: entry j is the rank of its first j + 1 rows.  Rows are fed
        as rows() gives them, generator by generator and one block at a
        time, unlike eliminate, so the entry at each generator's last row
        is the rank of that prefix."""
        rows = self.rows(k)
        elim = SparseEliminator(len(self.layer(k)[0]), self.field)
        out = array("l")
        for row in rows:
            elim.add_row(row)
            out.append(elim.rank)
        return out


# ---------------------------------------------------------------------------
# modular rank

def modp_rank(rows, ncols):
    """Running ranks over F_p, p = MOD_P, of integer rows of a layer
    ncols wide: an array whose entry j is the rank of the first j + 1
    rows, one machine integer per row.

    Each stored pivot row is scaled to a leading 1 and every row fed in is
    reduced by them, sparse, under the same column order as the exact
    eliminator.  Rows fed later never change an earlier entry, so for a
    layer fed generator by generator (as MacaulayLayers.rows gives it)
    the entry at each generator's last row is the rank of that prefix
    alone.  No entry exceeds the rank over Q of the same rows.  The rows
    carry their own columns, so ncols only names the layer's width.
    """
    pivots = {}
    ranks = array("l")
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
        ranks.append(len(pivots))
    return ranks
