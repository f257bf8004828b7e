"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: dense Fraction arithmetic, no
sharing with the package's own elimination or resultant code paths,
and certificates replayed over the field, not its ring.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial

import sympy

from dalg import DPoly, JetVar
from dalg.dpoly import mono_mul, mono_sort_key


def degree_monomials(varkeys, k):
    """Monomials of total degree k as tuples, in descending grevlex
    order, enumerated with no packed codes.

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


def dense_rank(rows, ncols, zero=Fraction(0)):
    """Row rank by plain Gaussian elimination, dividing by each pivot.

    Entries are taken over Fraction, or over the field whose zero is
    given (sympy field elements of dalg.Field).
    """
    mat = [[zero + r.get(j, zero) for j in range(ncols)] for r in rows]
    rank = 0
    col = 0
    nrows = len(mat)
    while rank < nrows and col < ncols:
        piv = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for i in range(nrows):
            if i != rank and mat[i][col]:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def first_relation_degree(polys, k_max):
    """The least k <= k_max at which the products p^w, |w| <= k, of the
    integer polynomials polys ({exponent tuple: coefficient}) are
    linearly dependent, or None: at each k the whole degree-<= k product
    matrix is rebuilt from exponent tuples, each p^w as a plain product
    of powers, and its dense_rank compared with its row count."""
    def times(a, b):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                out[m] = out.get(m, 0) + ca * cb
        return out

    one = {tuple(0 for _ in next(iter(polys[0]))): 1}
    for k in range(1, k_max + 1):
        rows = []
        for w in product(range(k + 1), repeat=len(polys)):
            if sum(w) <= k:
                row = one
                for p, e in zip(polys, w):
                    for _ in range(e):
                        row = times(row, p)
                rows.append(row)
        cols = sorted({m for row in rows for m in row})
        index = {m: j for j, m in enumerate(cols)}
        mat = [{index[m]: Fraction(c) for m, c in row.items() if c}
               for row in rows]
        if dense_rank(mat, len(cols)) < len(rows):
            return k
    return None


def layer_columns(layers, k):
    """(monomials, first column of the last block) of the degree-k layer
    of a linalg.MacaulayLayers, built from monomial tuples: the
    degree-k monomials of degree_monomials, with those whose variables
    all lie in layers.last moved to the end in the same order.
    """
    monos = degree_monomials(layers.varkeys, k)
    if layers.last is None:
        return monos, len(monos)
    tail = [m for m in monos if all(x in layers.last for x, _ in m)]
    in_tail = set(tail)
    head = [m for m in monos if m not in in_tail]
    return head + tail, len(head)


def layer_rows(layers, k):
    """(gi, mu, row) for each row of the degree-k layer of a
    linalg.MacaulayLayers, in generator order and then multiplier
    order, built from monomial tuples: the entry of mu times a cleared
    term t of generator gi sits at the column of mono_mul(mu, t) in
    layer_columns.
    """
    monos, _ = layer_columns(layers, k)
    col_pos = {m: i for i, m in enumerate(monos)}
    return [(gi, mu, {col_pos[mono_mul(mu, m)]: c
                      for m, c in layers.terms[gi]})
            for gi, d in enumerate(layers.degs) if d <= k
            for mu in degree_monomials(layers.varkeys, k - d)]


def degree_code_table(v, w, k):
    """Ascending codes, under fields w bits wide, of the monomials of
    each degree 0..k in v >= 1 variables: entry e lists degree e.  The
    reference for linalg.next_degree_codes, built another way.

    Built from the last variable up, with no set and no sort: the codes
    of degree e in the last j + 1 variables are, for each exponent a of
    the first of them in ascending order, a in that variable's field
    (bit j * w) in front of the codes of degree e - a in the last j
    variables.  That field is the highest in use, so each list is
    ascending as it is built.
    """
    table = [[e] for e in range(k + 1)]
    for j in range(1, v):
        s = j * w
        table = [[(a << s) + c for a in range(e + 1) for c in table[e - a]]
                 for e in range(k + 1)]
    return table


def code_monomial(code, shifts, k):
    """The monomial tuple of a packed code of layer k under
    linalg.code_shifts: each exponent masked out of its own field,
    k.bit_length() bits wide."""
    mask = (1 << k.bit_length()) - 1
    return tuple(sorted((x, code >> s & mask) for x, s in shifts.items()
                        if code >> s & mask))


def trail_of(elim, i):
    """Stored row i of a tracked linalg.SparseEliminator as a
    combination {tag: coefficient} of the input rows, coefficients in
    the field: its trail_numerators divided once by their denominator."""
    R, F = elim.ring, elim.domain
    nums, den = elim.trail_numerators(i)
    d = F.convert_from(den, R)
    return {t: F.convert_from(v, R) / d for t, v in nums.items()}


def gcd_fold_divisor(R, values, lead):
    """The gcd over R of every value, times the unit that makes lead
    canonical: a plain fold with no early stop and no unit shortcut."""
    g = R.zero
    for v in values:
        g = R.gcd(g, v)
    return g // R.canonical_unit(lead // g)


def reference_add_row(elim, row, tag=None):
    """Reduce row into elim's rows, pivot_of_col and trails as the
    fraction-free reduction does with no unit shortcut: every step takes
    the gcd of the two leads and its cofactors, scales the row and
    subtracts the pivot row over every column, the lead column included,
    and the recipe fold multiplies every factor; a row is stored divided
    by gcd_fold_divisor.  Returns the pivot column or None, as
    SparseEliminator.add_row does."""
    R = elim.ring
    steps = [] if elim.track else None
    row = dict(row)
    while row:
        c = min(row)
        p = elim.pivot_of_col.get(c)
        if p is None:
            g = gcd_fold_divisor(R, list(row.values()), row[c])
            row = {cc: v // g for cc, v in row.items()}
            recipe = None
            if steps is not None:
                coeffs = {}
                scale = R.one
                for q, ma, mb in reversed(steps):
                    coeffs[q] = mb * scale
                    scale = scale * ma
                recipe = (coeffs, tag, scale, g)
            elim.pivot_of_col[c] = len(elim.rows)
            elim.rows.append(row)
            elim.trails.append(recipe)
            return c
        prow = elim.rows[p]
        g = R.gcd(prow[c], row[c])
        ma, mb = prow[c] // g, row[c] // g
        row = {cc: v * ma for cc, v in row.items()}
        for cc, v in prow.items():
            w = row.get(cc, R.zero) - v * mb
            if w:
                row[cc] = w
            else:
                del row[cc]
        if steps is not None:
            steps.append((p, ma, mb))
    return None


def sympy_resultant(p_coeffs, q_coeffs):
    """Sylvester determinant of two univariate rational polynomials.

    Coefficient lists are ascending (constant first).  Built as the
    textbook Sylvester matrix and evaluated with sympy's dense
    Matrix.det, sharing no code with the package's Bareiss routine.
    (sympy.resultant itself uses a subresultant PRS whose sign can
    deviate from the Sylvester determinant, e.g. for res(t+2, t^3+5).)
    """
    m, n = len(p_coeffs) - 1, len(q_coeffs) - 1
    pd = [sympy.Rational(c) for c in reversed(p_coeffs)]
    qd = [sympy.Rational(c) for c in reversed(q_coeffs)]
    size = m + n
    rows = [[0] * size for _ in range(size)]
    for j in range(n):
        rows[j][j:j + m + 1] = pd
    for j in range(m):
        rows[n + j][j:j + n + 1] = qd
    return sympy.Matrix(rows).det()


def rand_coeff(rng, field):
    """Random field element exercising i, parameters, and x when present."""
    c = field.q(rng.randint(-6, 6), rng.randint(1, 4))
    if field.desc.kind == "Qi" and rng.random() < 0.4:
        c = c + field.i() * field.q(rng.randint(-3, 3))
    for p in field.desc.params:
        if rng.random() < 0.3:
            c = c + field.param(p) * field.q(rng.randint(-2, 2))
    if field.desc.has_x and rng.random() < 0.4:
        c = c * field.x() + field.q(rng.randint(-2, 2))
    return c


def rand_poly(rng, field, jets, max_terms=4, max_deg=3, allow_zero=False):
    """Random sparse differential polynomial over the given jets."""
    p = DPoly.zero(field)
    for _ in range(rng.randint(1, max_terms)):
        mono = DPoly.one(field)
        for _ in range(rng.randint(0, max_deg)):
            mono = mono * DPoly.var(field, rng.choice(jets))
        p = p + mono.scale(rand_coeff(rng, field))
    if not allow_zero and p.is_zero():
        return DPoly.var(field, jets[0])
    return p


DEFAULT_JETS = [JetVar.y(1), JetVar.y(1, 1), JetVar.y(2), JetVar.y(2, 1),
                JetVar.y(1, 2)]


def series_eval(P, witnesses, point=0):
    """P evaluated on truncated series by plain field arithmetic.

    witnesses maps each jet family (fam, idx) of P to (coefficients, N):
    Taylor coefficients at x = point, in P's field.  Each coefficient of
    P, polynomial in x, becomes its Taylor list c^(j)(point) / j!; each
    monomial is multiplied out one factor at a time, and every sum and
    product is taken in the field.  Returns (coefficients, N) of the value, N the smallest
    witness truncation less the order it is differentiated to.
    """
    field = P.field
    orders = P.orders()
    N = min((witnesses[fam][1] - top for fam, top in orders.items()),
            default=0)
    n = N + 1

    def jet(fam, o):
        cs = witnesses[fam][0]
        return [cs[j + o] * field.q(factorial(j + o), factorial(j))
                for j in range(n)]

    def mul(a, b):
        return [sum((a[i] * b[j - i] for i in range(j + 1)), field.zero)
                for j in range(n)]

    def taylor(c):
        out = []
        for j in range(n):
            out.append(eval_x(field, c, point) * field.q(1, factorial(j)))
            c = field.derive_x(c)
        return out

    total = [field.zero] * n
    for mono, c in P.terms.items():
        term = taylor(c)
        for (f, i, o), e in mono:
            for _ in range(e):
                term = mul(term, jet((f, i), o))
        total = [u + v for u, v in zip(total, term)]
    return total, N


def field_replay(search, k, elim, labels):
    """The membership certificate of the annihilator row of a reduced
    degree-k layer of an eliminate.AnnihilatorSearch, replayed over the
    field: None when the layer has no annihilator row, else whether the
    row equals sum coeff * mu * dens[gi] * h_gens[gi] over the row's
    trail (trail_of, coefficients in the field), with every product a
    DPoly product of field elements and generators read as they are,
    not as their cleared rows.  Columns are layer_columns, and each
    label's multiplier code is decoded by code_monomial.
    """
    layers = search.layers
    field = layers.field
    columns, start = layer_columns(layers, k)
    shifts = layers.layer(k)[3]
    hits = [c for c in elim.pivot_of_col if c >= start]
    if not hits:
        return None
    ridx = elim.pivot_of_col[max(hits)]
    R, F = elim.ring, elim.domain
    row = DPoly(field, {columns[c]: F.convert_from(v, R)
                        for c, v in elim.rows[ridx].items()})
    combo = DPoly.zero(field)
    for tag, coeff in trail_of(elim, ridx).items():
        gi, mc = labels[tag]
        mu = code_monomial(mc, shifts, k)
        piece = DPoly(field, {mu: field.one}) * search.h_gens[gi]
        combo = combo + piece * (coeff * layers.dens[gi])
    return combo == row


# ---------------------------------------------------------------------------
# reading elements and polynomials, through public methods only

def as_fraction(field, c):
    """Exact Fraction value of a rational field element, read from its
    printed form; ValueError when c is not rational."""
    return Fraction(field.to_str(c))


def is_rational(field, c):
    try:
        as_fraction(field, c)
    except ValueError:
        return False
    return True


def eval_x(field, c, point):
    """c with the rational point substituted for x, by Horner's rule on
    as_x_poly; c's denominator must be free of x."""
    val = field.from_fraction(Fraction(point))
    out = field.zero
    for ce in reversed(field.as_x_poly(c)):
        out = out * val + ce
    return out


def leading_monomial(P):
    """The largest monomial of P in the package's monomial order."""
    return max(P.terms, key=mono_sort_key)
