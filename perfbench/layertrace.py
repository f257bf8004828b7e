"""Outside-in layer trace of dalg, installed from the benchmark's files.

Tracer.install() wraps the public entry points of dalg.eliminate,
dalg.system (as imported by eliminate and hilbert), dalg.linalg,
dalg.hilbert, dalg.series and dalg.resultant by replacing module and
class attributes; uninstall() puts the originals back.  Nothing under
src/ is edited, and untraced passes run the unwrapped code.

Each span is [name, parent span id, job id, start, end, attrs], kept in
memory and written out at the end.  A span's self time is its duration
minus the durations of its direct children (one thread, so children do
not overlap).  Counters are deterministic work counts taken at the same
boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

KS = range(1, 7)
JOBS = ("sum", "quot", "comp", "prod", "nofind", "dreg_sum", "dreg_prod",
        "nonregular", "gauss", "hyperexp", "alg", "elimx")

# (name, unit, better); every metric a traced run reports
PER_LAYER = (
    [("import.s", "s", "lower"), ("grammar.parse_s", "s", "lower"),
     ("system.prolong_s", "s", "lower"),
     ("system.prolong_calls", "count", "lower")]
    + [(f"eliminate.layer_s.k{k}", "s", "lower") for k in KS]
    + [(f"eliminate.layer_rows.k{k}", "count", "lower") for k in KS]
    + [(f"eliminate.layer_cols.k{k}", "count", "lower") for k in KS]
    + [("eliminate.self_s", "s", "lower"),
       ("linalg.int.add_row_s", "s", "lower"),
       ("linalg.int.rows_in", "count", "lower"),
       ("linalg.int.pivots", "count", "lower"),
       ("linalg.int.pivot_yield", "ratio", "higher"),
       ("linalg.int.nnz_in", "count", "lower"),
       ("linalg.int.nnz_stored", "count", "lower"),
       ("linalg.int.trail_terms", "count", "lower"),
       ("linalg.int.max_trail_bits", "bits", "lower"),
       ("linalg.int.max_coeff_bits", "bits", "lower"),
       ("linalg.field.add_row_s", "s", "lower"),
       ("linalg.field.rows_in", "count", "lower"),
       ("linalg.field.pivots", "count", "lower"),
       ("linalg.field.trail_terms", "count", "lower"),
       ("linalg.modp.s", "s", "lower"),
       ("linalg.modp.calls", "count", "lower"),
       ("hilbert.check_s", "s", "lower"),
       ("hilbert.self_s", "s", "lower"),
       ("hilbert.exact_fallbacks", "count", "lower"),
       ("hilbert.prescreen_yield", "ratio", "higher"),
       ("series.witness_s", "s", "lower"),
       ("series.verify_s", "s", "lower"),
       ("series.certified", "count", "higher"),
       ("resultant.elim_s", "s", "lower"),
       ("resultant.calls", "count", "lower")]
    + [(f"job.{j}.s", "s", "lower") for j in JOBS]
    + [("trace.overhead_s", "s", "lower")]
)

# counters that depend on a job's shape, not on its coefficients
STRUCTURAL = tuple(
    [f"eliminate.layer_rows.k{k}" for k in KS]
    + [f"eliminate.layer_cols.k{k}" for k in KS]
    + ["system.prolong_calls", "linalg.int.rows_in", "linalg.field.rows_in",
       "linalg.modp.calls", "resultant.calls"])


def _bits(v):
    """Bit length of an integer, or of the larger part of a fraction."""
    if isinstance(v, int):
        return abs(v).bit_length()
    num = getattr(v, "numerator", None)
    if num is None:
        return 0
    return max(abs(int(num)).bit_length(), int(v.denominator).bit_length())


def _values(trail):
    """Numbers a trail holds: a mapping's values, or, for a tuple, the
    values of its mappings and its plain numbers (a common denominator)."""
    if hasattr(trail, "values"):
        return list(trail.values())
    return [v for part in trail
            for v in (_values(part) if hasattr(part, "values") else [part])]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self.passes = []          # (first span id, end span id, counts)
        self._undo = []
        self._layer = None        # attrs of the open eliminate.layer span
        self._hilbert = 0         # depth of open hilbert.check spans
        self._modp_cols = None    # column count of the last mod-p call

    def start_pass(self):
        self.counts = defaultdict(int)
        self._first = len(self.spans)
        self.install()

    def finish_pass(self):
        self.uninstall()
        self.passes.append((self._first, len(self.spans), dict(self.counts)))

    def pass_spans(self, i):
        a, b, _ = self.passes[i]
        return list(enumerate(self.spans[a:b], start=a))

    # -- spans ------------------------------------------------------------

    def begin(self, name, attrs=None):
        sid = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else None,
                           self.job, perf_counter(), None, attrs])
        self.stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][4] = perf_counter()
        self.stack.pop()

    def _timed(self, name, after=None):
        """Wrapper factory: one span per call, then after(result, args)."""
        def make(orig):
            def wrapper(*args, **kwargs):
                sid = self.begin(name)
                try:
                    res = orig(*args, **kwargs)
                finally:
                    self.end(sid)
                if after is not None:
                    after(res, args)
                return res
            return wrapper
        return make

    def _patch(self, owner, attr, make):
        # an entry point a later version of dalg drops is skipped, and
        # its layer then reports 0
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._undo.append((owner, attr, orig))

    # -- installation -----------------------------------------------------

    def install(self):
        mod = importlib.import_module
        E, H, L = mod("dalg.eliminate"), mod("dalg.hilbert"), mod("dalg.linalg")
        S, R = mod("dalg.series"), mod("dalg.resultant")
        c = self.counts

        def count(key):
            def after(res, args):
                c[key] += 1
            return after

        self._patch(E, "eliminate_search", self._timed("eliminate.search"))
        self._patch(E, "find_annihilator", self._layer_wrapper)
        for owner in (E, H):
            self._patch(owner, "prolong", self._timed(
                "system.prolong", count("system.prolong_calls")))
        self._patch(H, "check_dregular", self._hilbert_wrapper)
        self._patch(H, "modp_rank", self._modp_wrapper)
        self._patch(L.SparseEliminator, "__init__", self._init_wrapper)
        self._patch(L.SparseEliminator, "add_row", self._add_row_wrapper)
        for name in ("solve_ode_series", "newton_algebraic_series",
                     "series_arith", "series_integrate"):
            self._patch(S, name, self._timed("series.witness"))

        def certified(res, args):
            c["series.certified"] += bool(res["certified"])
        self._patch(S, "verify_annihilator",
                    self._timed("series.verify", certified))
        for name in ("elim_hyperexp", "elim_algebraic", "elim_x"):
            self._patch(R, name, self._timed("resultant.elim",
                                             count("resultant.calls")))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- wrappers with layer bookkeeping ----------------------------------

    def _layer_wrapper(self, orig):
        def find_annihilator(*args, **kwargs):
            k = args[3] if len(args) > 3 else kwargs["k"]
            attrs = {"k": k, "rows": 0, "cols": 0}
            prev, self._layer = self._layer, attrs
            sid = self.begin("eliminate.layer", attrs)
            try:
                return orig(*args, **kwargs)
            finally:
                self.end(sid)
                self._layer = prev
        return find_annihilator

    def _hilbert_wrapper(self, orig):
        def check_dregular(*args, **kwargs):
            self._hilbert += 1
            sid = self.begin("hilbert.check")
            try:
                return orig(*args, **kwargs)
            finally:
                self.end(sid)
                self._hilbert -= 1
                self._modp_cols = None
        return check_dregular

    def _modp_wrapper(self, orig):
        def modp_rank(rows, ncols, *args, **kwargs):
            attrs = {"rows": 0, "cols": ncols}

            def counted():
                for row in rows:
                    attrs["rows"] += 1
                    yield row
            self.counts["linalg.modp.calls"] += 1
            sid = self.begin("linalg.modp", attrs)
            try:
                return orig(counted(), ncols, *args, **kwargs)
            finally:
                self.end(sid)
                self._modp_cols = ncols
        return modp_rank

    def _init_wrapper(self, orig):
        def __init__(elim, ncols, *args, **kwargs):
            orig(elim, ncols, *args, **kwargs)
            if self._layer is not None:
                self._layer["cols"] = ncols
            if self._hilbert:
                # the exact path right after a mod-p call on the same
                # layer means the pre-screen did not settle the rank
                if self._modp_cols == ncols:
                    self.counts["hilbert.exact_fallbacks"] += 1
                self._modp_cols = None
        return __init__

    def _add_row_wrapper(self, orig):
        c = self.counts

        def add_row(elim, row, *args, **kwargs):
            mode = "int" if elim.int_mode else "field"
            sid = self.begin(f"linalg.{mode}.add_row")
            try:
                piv = orig(elim, row, *args, **kwargs)
            finally:
                self.end(sid)
            sid = self.begin("trace.count")
            c[f"linalg.{mode}.rows_in"] += 1
            if self._layer is not None:
                self._layer["rows"] += 1
            if mode == "int":
                c["linalg.int.nnz_in"] += len(row)
            if piv is not None:
                idx = elim.pivot_of_col[piv]
                trail = elim.trails[idx]
                c[f"linalg.{mode}.pivots"] += 1
                if trail is not None:
                    c[f"linalg.{mode}.trail_terms"] += len(_values(trail))
                if mode == "int":
                    stored = elim.rows[idx]
                    c["linalg.int.nnz_stored"] += len(stored)
                    c["linalg.int.max_coeff_bits"] = max(
                        c["linalg.int.max_coeff_bits"],
                        max(map(_bits, stored.values())))
                    if trail:
                        c["linalg.int.max_trail_bits"] = max(
                            c["linalg.int.max_trail_bits"],
                            max(map(_bits, _values(trail)), default=0))
            self.end(sid)
            return piv
        return add_row

    # -- reading the spans --------------------------------------------------

    def write(self, path, t0):
        """Spans as JSON lines, times in seconds from t0."""
        with open(path, "w") as fh:
            for sid, (name, parent, job, a, b, attrs) in enumerate(self.spans):
                rec = {"id": sid, "parent": parent, "job": job, "name": name,
                       "start": round(a - t0, 6), "end": round(b - t0, 6)}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def pass_metrics(spans, counts):
    """Per-layer times and counters of one traced pass.

    spans are (sid, span) pairs of the pass; ids are global.
    """
    child = defaultdict(float)
    for _, (name, parent, _, a, b, _) in spans:
        if parent is not None:
            child[parent] += b - a
    out = defaultdict(float)
    for k in KS:
        out[f"eliminate.layer_rows.k{k}"] = 0
        out[f"eliminate.layer_cols.k{k}"] = 0
    for sid, (name, parent, _, a, b, attrs) in spans:
        dur = b - a
        self_t = dur - child[sid]
        if name == "eliminate.layer":
            k = attrs["k"]
            out[f"eliminate.layer_s.k{k}"] += dur
            out[f"eliminate.layer_rows.k{k}"] += attrs["rows"]
            out[f"eliminate.layer_cols.k{k}"] += attrs["cols"]
            out["eliminate.self_s"] += self_t
        elif name == "eliminate.search":
            out["eliminate.self_s"] += self_t
        elif name == "hilbert.check":
            out["hilbert.check_s"] += dur
            out["hilbert.self_s"] += self_t
        elif name == "linalg.modp":
            out["linalg.modp.s"] += dur
        elif name.startswith("job."):
            out[f"{name}.s"] += dur
        elif name != "trace.count":
            out[f"{name}_s"] += dur
    out.update(counts)
    rows_in = counts.get("linalg.int.rows_in", 0)
    out["linalg.int.pivot_yield"] = (counts.get("linalg.int.pivots", 0)
                                     / rows_in if rows_in else 0.0)
    calls = counts.get("linalg.modp.calls", 0)
    out["hilbert.prescreen_yield"] = (
        (calls - counts.get("hilbert.exact_fallbacks", 0)) / calls
        if calls else 0.0)
    return dict(out)


def largest_layers(spans):
    """Per job name, its largest layer (rows, cols) by cell count, from
    the (sid, span) pairs of one pass; (0, 0) for jobs without layers."""
    largest = {}
    for _, (name, parent, job, a, b, attrs) in spans:
        jname = job.split(":", 1)[1]
        largest.setdefault(jname, (0, 0))
        if name not in ("eliminate.layer", "linalg.modp"):
            continue
        cells = attrs["rows"] * attrs["cols"]
        cur = largest[jname]
        if cells > cur[0] * cur[1]:
            largest[jname] = (attrs["rows"], attrs["cols"])
    return largest
