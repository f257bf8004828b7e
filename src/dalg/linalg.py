"""Macaulay layers, exact sparse row reduction and a sparse mod-p rank.

MacaulayLayers is the one builder of Macaulay layers: it orders the
columns, makes the rows monomial * generator and checks the work budget
before any row of a layer is built.  Inside a layer a monomial is a
packed integer code (code_shifts, mono_code), one bit field per
variable, so the column of a product is found from the sum of two codes
and no row entry builds a monomial tuple.  Each generator is cleared of
denominators once, into the ring R of its field: ints over plain Q,
Gaussian integers over Q(i), and polynomials over those in the
parameters and x otherwise.  The fields module owns that ring (ring_of,
ring_cofactors, clear_denominators) and the canonical primitive form
over it (primitive_divisor); this module only uses them.  ring_vars
reads the variables of a layer's ring off its generators.

Rows live over a fixed ordered column set.  The eliminator keeps rows in
row-echelon form with the deterministic pivot rule "first nonzero entry
under the column order".  There is one reduction, fraction-free over R
for every field: cross-multiplication by the pivots over their gcd, the
gcd and both cofactors from one ring_cofactors call, with a row made
primitive when it is stored.  Entries never leave R, so no operation
needs a gcd of fractions.

The order rows are fed in is free.  The set of pivot columns depends
only on the span of the rows and on the column order, and the echelon
row at the largest pivot of a trailing block is, up to a scalar, the
only element of the span supported on that block; so the annihilator
read from it is, once normalized, the same for every feed order, and
only its certificate differs.  The order does decide the fill-in.
MacaulayLayers.eliminate feeds a layer's rows by descending leading
column, ties in generator order: rows that start late are short, so
they become pivots first and the rows that start early are reduced by
sparse pivots.  MacaulayLayers.ranks and the mod-p pre-screen read the
rank of each prefix of the generators from their running ranks, so
they feed generator by generator, in the block order of
MacaulayLayers.rows: inside each generator's block, by descending
leading column as well.  A prefix rank depends only on the span of the
prefix, so the order inside a block changes no prefix rank, only the
fill-in.  The rows are streamed one block at a time, and the whole
layer is never held.

With tracking on, each stored row keeps a recipe instead of a trail: the
pivot rows it was reduced by with their multipliers, the tag of the row
fed in, that row's multiplier and the final divisor, all folded from the
reduction steps in R.  Recording a recipe costs no more than the
elimination it records.  trail_numerators() expands the recipes on
demand into numerators in R over one common denominator: an exact
combination of the rows fed in, which callers replay in R as a
membership certificate.  trail_of() divides it once into coefficients
of the field.

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
from contextlib import contextmanager
from heapq import heappop, heappush
from itertools import combinations
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

def degree_monomials(varkeys, k):
    """Monomials of total degree k, in descending grevlex order.

    varkeys must be sorted ascending; for dense exponent tuples over an
    ascending variable list, ascending tuple order is descending grevlex,
    so the exponent tuples are emitted in plain sorted order.  They come
    from stars and bars: bars at positions b_0 < ... < b_(v-2) among
    k + v - 1 slots give the exponents b_0, b_1 - b_0 - 1, ..., and
    combinations() yields the bars, and so the tuples, in ascending order.
    A plain loop, not a recursive closure: a closure that refers to
    itself is a reference cycle, which would keep each call's lists
    until the next garbage collection.
    """
    v = len(varkeys)
    if v == 0:
        return [()] if k == 0 else []
    # one (variable, exponent) pair object serves every monomial using it
    pairs = [[(x, e) for e in range(k + 1)] for x in varkeys]
    last, end = pairs[-1], k + v - 2
    out = []
    for bars in combinations(range(k + v - 1), v - 1):
        mono = []
        prev = -1
        for p, b in zip(pairs, bars):
            if b - prev - 1:
                mono.append(p[b - prev - 1])
            prev = b
        if end - prev:
            mono.append(last[end - prev])
        out.append(tuple(mono))
    return out


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
    entries and given a canonical leading unit.  With track=True,
    trails[i] is the recipe (coeffs, tag, scale, divisor) of stored row
    i, all in R: row_i = (scale*input - sum_p coeffs[p]*row_p) / divisor,
    where input is the row fed in under tag and every p < i.
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
                    row = {cc: v // g for cc, v in row.items()}
                recipe = None
                if steps is not None:
                    # fold the steps: each one scaled the running row by
                    # ma, so a step's mb picks up every later ma
                    coeffs = {}
                    scale = one
                    for q, ma, mb in reversed(steps):
                        coeffs[q] = mb * scale
                        scale *= ma
                    recipe = (coeffs, tag, scale, g)
                return self._store(row, c, recipe)
            prow = self.rows[p]
            _, ma, mb = cofactors(prow[c], row[c])
            new = dict(row) if ma == one else {cc: v * ma for cc, v in row.items()}
            for cc, v in prow.items():
                w = new.get(cc, zero) - v * mb
                if w:
                    new[cc] = w
                else:
                    new.pop(cc, None)
            row = new
            if steps is not None:
                steps.append((p, ma, mb))
        return None

    def add_row(self, row, tag=None):
        """Reduce a row and store it if independent; returns its pivot column.

        Entries are elements of the ring (ints over plain Q).  When
        tracking, the reduction steps are kept as the row's recipe.
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
            out[tag] = (v + w * scale, top)
            for p, b in coeffs.items():
                if p in weight:
                    weight[p] = (lift(*weight[p]) - w * b, top)
                else:
                    weight[p] = (-(w * b), top)
                    heappush(heap, -p)
        return {t: lift(*v) for t, v in out.items() if v[0]}, dens[-1]

    def trail_of(self, i):
        """Stored row i as a combination {tag: coefficient} of the input
        rows, or None without tracking.  Coefficients are elements of the
        field (Fractions over plain Q): trail_numerators divided once by
        its denominator."""
        if self.trails[i] is None:
            return None
        R, F = self.ring, self.domain
        nums, den = self.trail_numerators(i)
        d = F.convert_from(den, R)
        return {t: F.convert_from(v, R) / d for t, v in nums.items()}


# ---------------------------------------------------------------------------
# Macaulay layers

def code_shifts(varkeys, k):
    """Bit offset of each variable's field in the packed code of a
    monomial of degree at most k.

    A monomial's code is the sum of e << shifts[x] over its factors
    x^e.  Each field is k.bit_length() bits wide, so it holds every
    exponent up to k; the codes of two monomials whose product has
    degree at most k therefore add without a carry, and their sum is the
    code of the product.
    """
    w = k.bit_length()
    return {x: i * w for i, x in enumerate(varkeys)}


def mono_code(m, shifts):
    """Packed code of the monomial m under code_shifts."""
    code = 0
    for x, e in m:
        code += e << shifts[x]
    return code


def _lead_desc(entry):
    """Sort key: descending leading (smallest) column of entry's row."""
    return -min(entry[-1], default=0)


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

    Inside a layer a monomial is its packed code (mono_code under the
    layer's code_shifts): the columns are indexed by code, and the
    entry of mu*t in a row sits at index[code(mu) + code(t)], with no
    product of monomial tuples.  Monomial tuples remain only where
    callers read them: the columns (columns(), layer()) and the
    multiplier of each row (rows()).
    """

    def __init__(self, field, gens, varkeys, last=None):
        self.field = field
        self.varkeys = list(varkeys)
        self.last = last
        self.degs = [g.total_degree() for g in gens]
        self.int_mode = plain_q(field)
        R, F = ring_of(field)
        self.terms, self.dens = [], []
        for g in gens:
            terms, den = clear_denominators(R, F, g.terms.items())
            self.terms.append(terms)
            self.dens.append(den)
        self._layer = None
        self._monos = {}

    def _monomials(self, e):
        """Monomials of degree e in descending grevlex order, enumerated
        once per degree: the multipliers of a generator of degree k - e
        in layer k, and the columns of layer e before the last block
        moves to the end."""
        if e not in self._monos:
            self._monos[e] = degree_monomials(self.varkeys, e)
        return self._monos[e]

    def layer(self, k):
        """(monomials, column of each monomial's code, first column of
        the last block, code_shifts) of the degree-k layer.

        Only the layer asked for last is kept, with the codes of its
        multipliers: a search and a regularity check each work through
        their layers one degree at a time.
        """
        if self._layer is None or self._layer[0] != k:
            monos = self._monomials(k)
            tail = [] if self.last is None else [
                m for m in monos if all(x in self.last for x, _ in m)]
            if tail:
                in_tail = set(tail)
                monos = [m for m in monos if m not in in_tail] + tail
            shifts = code_shifts(self.varkeys, k)
            index = {mono_code(m, shifts): i for i, m in enumerate(monos)}
            self._layer = (k, (monos, index, len(monos) - len(tail), shifts),
                           {})
        return self._layer[1]

    def columns(self, k):
        """(monomials, column of each monomial, first column of the last
        block) of the degree-k layer.  The index by monomial is built on
        each call; the layer itself keeps its columns by code."""
        monos, _, start, _ = self.layer(k)
        return monos, {m: i for i, m in enumerate(monos)}, start

    def nrows(self, k, upto=None):
        """Row count of the degree-k layer of gens[:upto]."""
        v = len(self.varkeys)
        return sum(monomial_count(v, k - d) for d in self.degs[:upto] if d <= k)

    def rows(self, k, upto=None):
        """(gi, mu, row) for each row of the degree-k layer of gens[:upto].

        Rows come generator by generator, and inside a generator's block
        by descending leading column, ties in multiplier order.  The
        blocks are built one at a time as the rows are read, so a
        caller that streams them never holds the whole layer.  The work
        budget is checked first.
        """
        check_budget(self.nrows(k, upto), monomial_count(len(self.varkeys), k))
        return self._blocks(k, upto)

    def _blocks(self, k, upto):
        monos, index, start, shifts = self.layer(k)
        mu_codes = self._layer[2]   # codes of the multipliers, by degree
        for gi, d in enumerate(self.degs[:upto]):
            if d > k:
                continue
            # coded from terms on every call, so rows always follow terms
            terms = [(mono_code(m, shifts), c) for m, c in self.terms[gi]]
            mus = self._monomials(k - d)
            if k - d not in mu_codes:
                mu_codes[k - d] = [mono_code(m, shifts) for m in mus]
            codes = mu_codes[k - d]
            if start == len(monos):
                # without a last block the columns follow a monomial order,
                # so the lead of mu*g is mu times the lead of g, and the
                # leading columns descend as the multipliers ascend: the
                # block needs no sort and is built row by row
                for mu, mc in zip(reversed(mus), reversed(codes)):
                    yield gi, mu, {index[mc + tc]: c for tc, c in terms}
                continue
            block = [(mu, {index[mc + tc]: c for tc, c in terms})
                     for mu, mc in zip(mus, codes)]
            block.sort(key=_lead_desc)
            for mu, row in block:
                yield gi, mu, row

    def eliminate(self, k, upto=None, track=False):
        """Row-reduce the degree-k layer of gens[:upto].

        Rows are fed by descending leading column (their smallest column
        index), ties in generator order and then in multiplier order.
        The order is free, since the pivot columns depend only on the
        row span and the column order (see the module docstring), and
        this one makes little fill-in: rows that start late are short,
        and the pivots they make are what the rows fed after them are
        reduced by.  Returns the eliminator and the (gi, mu) of each row
        in feed order; a row's tag is its position in that list.
        """
        rows = sorted(self.rows(k, upto), key=_lead_desc)
        # popped from the end, so each row is released once it is fed
        rows.reverse()
        elim = SparseEliminator(len(self.layer(k)[0]), self.field, track)
        labels = []
        while rows:
            gi, mu, row = rows.pop()
            elim.add_row(row, len(labels))
            labels.append((gi, mu))
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
        for _, _, row in rows:
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
    layer fed generator by generator (as MacaulayLayers.rows gives it,
    each generator's block by descending leading column) the entry at
    each generator's last row is the rank of that prefix alone.  No
    entry exceeds the rank over Q of the same rows.  The rows carry
    their own columns, so ncols only names the layer's width.
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
