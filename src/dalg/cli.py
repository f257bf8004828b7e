"""Command-line frontend for the exact differential-algebra toolkit.

Subcommands expose every public operation with JSON/CSV/text output:

  bound       closed-form degree bounds (threshold, k_min, sufficiency_k)
  curve       order/degree trade-off curve as CSV (plus optional plot script)
  eliminate   annihilator search for raw systems and sum/prod/div/compose presets
  reselim     resultant-based special eliminations (algebraic, hyperexp, elim-x)
  hilbert     truncated Hilbert-function profile of a homogenized system
  checkdreg   differential-regularity verdict for a system at prolongation rho
  verify      truncated-series residual check of a polynomial against witnesses
  experiment  seeded random search for the first algebraic-relation degree

Exit codes: 0 success; 2 usage or parse error, or a missing module (sympy
for Q(i), parameter and x fields); 3 matrix budget exceeded; 4 search
exhausted with nothing found; 5 hypothesis violation.

A run is fully determined by its arguments: identical arguments produce
byte-identical stdout.  JSON payloads validate against the
schemas shipped under schemas/ inside the package.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .errors import BudgetExceededError, DalgError, HypothesisError

# Each handler imports the modules it needs, so a subcommand loads only
# those; bound and curve need neither sympy nor the polynomial layers.

_DEFAULT_FMT = {
    "bound": "text",
    "curve": "csv",
    "eliminate": "json",
    "reselim": "json",
    "hilbert": "csv",
    "checkdreg": "json",
    "verify": "json",
    "experiment": "json",
}


def schema_path(subcommand):
    """Filesystem path of the published JSON schema for a subcommand."""
    return os.path.join(os.path.dirname(__file__), "schemas",
                        f"{subcommand}.schema.json")


def load_schema(subcommand):
    with open(schema_path(subcommand), encoding="utf-8") as fh:
        return json.load(fh)


def _emit_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _pick(fmt, args, *, json_obj=None, csv_text=None, text=None):
    """Render the payload in the resolved format or reject it."""
    if fmt == "json" and json_obj is not None:
        return _emit_json(json_obj)
    if fmt == "csv" and csv_text is not None:
        return csv_text
    if fmt == "text" and text is not None:
        return text
    raise DalgError(
        f"format {fmt!r} is not supported by subcommand {args.subcommand!r}")


# ---------------------------------------------------------------------------
# bound

def _need(args, names, mode):
    for n in names:
        if getattr(args, n.replace("-", "_")) is None:
            raise DalgError(f"--{n} is required with --{mode}")


def cmd_bound(fmt, args):
    from . import bounds as _bounds
    if args.thm:
        _need(args, ["d", "rmin", "rl", "r"], "thm")
        mode = "thm"
        params = {"d": args.d, "r_min": args.rmin, "r_l": args.rl, "r": args.r}
        d, r_l = args.d, args.rl
    elif args.plus_times:
        _need(args, ["degq", "d", "rmin", "r"], "plus-times")
        mode = "plus-times"
        params = {"degQ": args.degq, "d": args.d, "r_min": args.rmin,
                  "r": args.r}
        # validates the arguments; the bound is the main one at degQ*d
        _bounds.plus_times_bound(args.degq, args.d, args.rmin, args.r)
        d, r_l = args.degq * args.d, 0
    elif args.div:
        _need(args, ["degqn", "degqd", "d", "rmin", "r"], "div")
        mode = "div"
        params = {"degQn": args.degqn, "degQd": args.degqd, "d": args.d,
                  "r_min": args.rmin, "r": args.r}
        # validates the arguments; the bound is the main one at degQ*d
        _bounds.div_bound(args.degqn, args.degqd, args.d, args.rmin, args.r)
        d, r_l = max(args.degqn, args.degqd, 1) * args.d, 0
    else:
        _need(args, ["r1", "r2", "d1", "d2"], "comp")
        mode = "comp"
        params = {"r1": args.r1, "r2": args.r2, "d1": args.d1, "d2": args.d2}
        k_min = _bounds.composition_bound(args.r1, args.r2, args.d1, args.d2)
        payload = {"mode": mode, "params": params,
                   "threshold": str(k_min - 1), "threshold_exact": True,
                   "k_min": k_min, "sufficiency_k": None}
        line = (f"threshold={k_min - 1}  k_min={k_min}  sufficiency_k=-\n")
        csv_text = ("mode,threshold,k_min,sufficiency_k\n"
                    f"comp,{k_min - 1},{k_min},\n")
        return _pick(fmt, args,
                     json_obj=payload, text=line, csv_text=csv_text), 0

    tb = _bounds.theorem_bound(d, args.rmin, r_l, args.r)
    suff = _bounds.sufficiency_k(d, args.rmin, r_l, args.r)
    payload = {"mode": mode, "params": params, "threshold": tb.display,
               "threshold_exact": tb.exact, "k_min": tb.k_min,
               "sufficiency_k": suff}
    line = f"threshold={tb.display}  k_min={tb.k_min}  sufficiency_k={suff}\n"
    csv_text = ("mode,threshold,k_min,sufficiency_k\n"
                f"{mode},{tb.display},{tb.k_min},{suff}\n")
    return _pick(fmt, args, json_obj=payload, text=line, csv_text=csv_text), 0


# ---------------------------------------------------------------------------
# curve

_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot an order/degree curve CSV (columns r,k_min,monomial_count).

Usage: python3 plot_curve.py CURVE.csv [OUT.png]
"""
import csv
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "curve.csv"
out = sys.argv[2] if len(sys.argv) > 2 else path.rsplit(".", 1)[0] + ".png"
rs, kmins, counts = [], [], []
with open(path, encoding="utf-8") as fh:
    for row in csv.DictReader(fh):
        rs.append(int(row["r"]))
        kmins.append(int(row["k_min"]))
        counts.append(int(row["monomial_count"]))
fig, ax1 = plt.subplots(figsize=(6, 4))
ax1.plot(rs, kmins, "o-", color="tab:blue", label="k_min")
ax1.set_xlabel("order r")
ax1.set_ylabel("minimal degree k", color="tab:blue")
ax2 = ax1.twinx()
ax2.plot(rs, counts, "s--", color="tab:red", label="monomial count")
ax2.set_yscale("log")
ax2.set_ylabel("monomial count", color="tab:red")
fig.tight_layout()
fig.savefig(out, dpi=150)
print(out)
'''


def cmd_curve(fmt, args):
    from . import bounds as _bounds
    pts = _bounds.curve(args.d, args.rmin, args.rl, args.r_from, args.r_to)
    csv_text = _bounds.curve_to_csv(pts)
    payload = {"d": args.d, "r_min": args.rmin, "r_l": args.rl,
               "points": [{"r": p.r, "k_min": p.k_min,
                           "monomial_count": p.monomial_count} for p in pts]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if args.plot_script:
        with open(args.plot_script, "w", encoding="utf-8") as fh:
            fh.write(_PLOT_SCRIPT)
    return _pick(fmt, args,
                 json_obj=payload, csv_text=csv_text, text=csv_text), 0


# ---------------------------------------------------------------------------
# eliminate

def _point(text):
    """The rational expansion point of --point."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DalgError(
            f"--point must be a rational number, got {text!r}") from None


def _parse_witnesses(specs, n, point):
    from .series import witness
    wit = {}
    for s in specs or []:
        label, eq, name = s.partition("=")
        if not eq or not label or not name:
            raise DalgError(
                f"--witness must look like label=name, got {s!r}")
        wit[label] = witness(name, n, point=point)
    return wit


def _components(texts, field):
    from .grammar import parse_poly
    comps = []
    for i, text in enumerate(texts, start=1):
        p = parse_poly(text, field)
        fams = p.orders()
        if set(fams) != {(1, i)}:
            raise DalgError(
                f"component {i} must be written in the y{i} family alone")
        comps.append((p, fams[(1, i)]))
    return comps


def _annihilator_text(ann):
    how = (f"found at layer k={ann.k_searched}" if ann.k_searched
           else "by resultant")
    lines = [f"annihilator for {ann.target} (order {ann.order}, "
             f"degree {ann.degree}, {how}):",
             f"  {ann.poly}"]
    if ann.membership_certified is not None:
        lines.append(f"  membership_certified={ann.membership_certified}")
    if ann.series_certified is not None:
        lines.append(f"  series_certified={ann.series_certified} "
                     f"residual_valuation={ann.residual_valuation}")
    return "\n".join(lines) + "\n"


def _notfound_text(res):
    tried = ", ".join(f"k={a.k} ({a.rows}x{a.cols})" for a in res.attempts)
    return f"no annihilator up to k_max={res.k_max}; tried {tried}\n"


def cmd_eliminate(fmt, args):
    from .eliminate import (Annihilator, composition_system,
                            eliminate_search, rational_system,
                            sum_product_system)
    from .fields import field_from_label
    from .grammar import parse_poly, parse_system
    from .series import verify_annihilator
    from .system import family_label
    presets = [args.sum, args.prod, args.div, args.compose,
               args.raw is not None]
    if sum(bool(f) for f in presets) != 1:
        raise DalgError(
            "choose exactly one of --raw FILE, --sum, --prod, --div, "
            "--compose")
    point = _point(args.point)

    if args.raw is not None:
        with open(args.raw, encoding="utf-8") as fh:
            system = parse_system(fh.read())
        target = args.target or system.target
    else:
        field = field_from_label(args.field)
        texts = args.p or []
        if not texts:
            raise DalgError("presets need at least one --p component")
        if args.compose:
            if len(texts) != 2:
                raise DalgError("--compose takes exactly two --p components")
            p1 = parse_poly(texts[0], field)
            p2 = parse_poly(texts[1], field)
            system = composition_system(p1, p2)
        else:
            comps = _components(texts, field)
            labels = [family_label(1, i) for i in range(1, len(comps) + 1)]
            if args.div:
                if args.qn is None or args.qd is None:
                    raise DalgError("--div needs --qn and --qd")
                qn = parse_poly(args.qn, field)
                qd = parse_poly(args.qd, field)
                system = rational_system(comps, qn, qd)
            else:
                if args.q is not None:
                    q_text = args.q
                elif args.sum:
                    q_text = " + ".join(labels)
                else:
                    q_text = "*".join(labels)
                q = parse_poly(q_text, field)
                system = sum_product_system(comps, q)
        target = "z"

    res = eliminate_search(system, target, args.r, args.kmax)
    if not isinstance(res, Annihilator):
        payload = res.to_json()
        return _pick(fmt, args, json_obj=payload, text=_notfound_text(res)), 4

    wit = _parse_witnesses(args.witness, args.trunc, point)
    if wit:
        verify_annihilator(res, wit)
    return _pick(fmt, args,
                 json_obj=res.to_json(), text=_annihilator_text(res)), 0


# ---------------------------------------------------------------------------
# reselim

def cmd_reselim(fmt, args):
    from .fields import field_from_label
    from .grammar import parse_poly
    from .resultant import elim_algebraic, elim_hyperexp, elim_x
    from .series import verify_annihilator
    modes = [args.alg, args.hyperexp, args.elimx]
    if sum(bool(f) for f in modes) != 1:
        raise DalgError("choose exactly one of --alg, --hyperexp, --elimx")
    field = field_from_label(args.field)
    if args.p is None:
        raise DalgError("--p is required")
    p = parse_poly(args.p, field)
    if args.alg:
        if args.qg is None:
            raise DalgError("--alg needs --qg")
        ann = elim_algebraic(p, parse_poly(args.qg, field))
    elif args.hyperexp:
        if args.u is None or args.v is None:
            raise DalgError("--hyperexp needs --u and --v")
        u = parse_poly(args.u, field)
        v = parse_poly(args.v, field)
        ann = elim_hyperexp(p, u, v)
    else:
        ann = elim_x(p)

    wit = _parse_witnesses(args.witness, args.trunc, _point(args.point))
    if wit:
        verify_annihilator(ann, wit)
    return _pick(fmt, args,
                 json_obj=ann.to_json(), text=_annihilator_text(ann)), 0


# ---------------------------------------------------------------------------
# hilbert / checkdreg

def _load_system(path):
    from .grammar import parse_system
    with open(path, encoding="utf-8") as fh:
        return parse_system(fh.read())


def cmd_hilbert(fmt, args):
    from .hilbert import check_dregular
    system = _load_system(args.system)
    rep = check_dregular(system, args.rho, cutoff=args.cutoff)
    prof = rep.profile
    rows = [{"degree": k, "hf": prof.values[k],
             "closed_form": (None if prof.closed_form is None
                             else prof.closed_form.get(k)),
             "verdict": prof.verdicts.get(k, "unchecked")}
            for k in sorted(prof.values)]
    payload = {"rho": rep.rho, "cutoff": rep.cutoff, "regular": rep.regular,
               "rows": rows}
    csv_text = prof.to_csv()
    return _pick(fmt, args,
                 json_obj=payload, csv_text=csv_text, text=csv_text), 0


def cmd_checkdreg(fmt, args):
    from .hilbert import check_dregular
    system = _load_system(args.system)
    rep = check_dregular(system, args.rho, cutoff=args.cutoff)
    failure = rep.regseq.failure()
    payload = {
        "regular": rep.regular,
        "rho": rep.rho,
        "cutoff": rep.cutoff,
        "n_vars": rep.n_vars,
        "n_gens": rep.n_gens,
        "expected_dimension": rep.expected_dimension,
        "fitted_degree": rep.fitted_degree,
        "fit_stable": rep.fit_stable,
        "first_failure": (None if failure is None
                          else {"generator": failure[0],
                                "degree": failure[1]}),
    }
    text = (f"regular={rep.regular} rho={rep.rho} cutoff={rep.cutoff} "
            f"expected_dimension={rep.expected_dimension} "
            f"fitted_degree={rep.fitted_degree}\n")
    code = 0 if rep.regular else 5
    return _pick(fmt, args, json_obj=payload, text=text), code


# ---------------------------------------------------------------------------
# verify / experiment

def cmd_verify(fmt, args):
    from .fields import field_from_label
    from .grammar import parse_poly
    from .series import verify_annihilator
    field = field_from_label(args.field)
    p = parse_poly(args.poly, field)
    wit = _parse_witnesses(args.witness, args.trunc, _point(args.point))
    if not wit:
        raise DalgError("verify needs at least one --witness label=name")
    payload = verify_annihilator(SimpleNamespace(poly=p), wit)
    text = (f"certified={payload['certified']} "
            f"residual_valuation={payload['residual_valuation']} "
            f"truncation={payload['truncation']}\n")
    return _pick(fmt, args, json_obj=payload, text=text), 0


def cmd_experiment(fmt, args):
    from . import bounds as _bounds
    rep = _bounds.relation_experiment(args.n, args.d, args.seed)
    payload = rep.to_json()
    text = (f"n={rep.n} d={rep.d} seed={rep.seed} "
            f"k_observed={rep.k_observed} k_counting={rep.k_counting} "
            f"k_theorem_bound={rep.k_theorem_bound}\n")
    return _pick(fmt, args, json_obj=payload, text=text), 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    ap = argparse.ArgumentParser(
        prog="dalg",
        description="Exact toolkit for annihilators of differentially "
                    "algebraic functions: degree bounds, elimination, "
                    "Hilbert-function regularity checks, resultants, and "
                    "truncated-series certification.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "text"],
                        default=None, help="output format (per-command "
                        "default: %(default)s)")
    common.add_argument("--budget", type=int, default=None,
                        help="matrix entry budget (overrides DALG_BUDGET)")

    sub = ap.add_subparsers(dest="subcommand", required=True)

    b = sub.add_parser("bound", parents=[common],
                       help="closed-form degree bounds")
    grp = b.add_mutually_exclusive_group(required=True)
    grp.add_argument("--thm", action="store_true",
                     help="general bound from (d, r_min, r_l, r)")
    grp.add_argument("--plus-times", action="store_true",
                     help="bound for Q(f_1..f_n) with deg Q = --degq")
    grp.add_argument("--div", action="store_true",
                     help="bound for a quotient with numerator/denominator "
                          "degrees --degqn/--degqd")
    grp.add_argument("--comp", action="store_true",
                     help="bound for a composition f1 o f2")
    for name in ("d", "rmin", "rl", "r", "degq", "degqn", "degqd",
                 "r1", "r2", "d1", "d2"):
        b.add_argument(f"--{name}", type=int, default=None)
    b.set_defaults(func=cmd_bound)

    c = sub.add_parser("curve", parents=[common],
                       help="order/degree trade-off curve (CSV)")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--rmin", type=int, required=True)
    c.add_argument("--rl", type=int, required=True)
    c.add_argument("--r-from", type=int, required=True)
    c.add_argument("--r-to", type=int, required=True)
    c.add_argument("--out", default=None, help="also write the CSV here")
    c.add_argument("--plot-script", default=None,
                   help="write a matplotlib plot script here")
    c.set_defaults(func=cmd_curve)

    e = sub.add_parser("eliminate", parents=[common],
                       help="annihilator search by Macaulay-layer elimination")
    e.add_argument("--raw", default=None, metavar="FILE",
                   help="system file (field:/target: headers + generators)")
    e.add_argument("--sum", action="store_true",
                   help="annihilate a sum of ODE solutions")
    e.add_argument("--prod", action="store_true",
                   help="annihilate a product of ODE solutions")
    e.add_argument("--div", action="store_true",
                   help="annihilate a quotient (--qn / --qd)")
    e.add_argument("--compose", action="store_true",
                   help="annihilate a composition (two --p components)")
    e.add_argument("--field", default="Q",
                   help="coefficient field label for presets (default Q)")
    e.add_argument("--p", action="append", metavar="POLY",
                   help="component ODE for y1, y2, ... (repeatable)")
    e.add_argument("--q", default=None,
                   help="combination polynomial Q(y1..yn) for --sum/--prod")
    e.add_argument("--qn", default=None, help="quotient numerator")
    e.add_argument("--qd", default=None, help="quotient denominator")
    e.add_argument("--target", default=None,
                   help="target label override for --raw")
    e.add_argument("--r", type=int, required=True,
                   help="order budget for the annihilator")
    e.add_argument("--kmax", type=int, default=8,
                   help="largest layer degree to search (default 8)")
    e.add_argument("--witness", action="append", metavar="LABEL=NAME",
                   help="series-certify against a library witness")
    e.add_argument("--trunc", type=int, default=20, metavar="N",
                   help="witness truncation order (default 20)")
    e.add_argument("--point", default="0",
                   help="witness expansion point (rational, default 0)")
    e.set_defaults(func=cmd_eliminate)

    rs = sub.add_parser("reselim", parents=[common],
                        help="resultant-based special eliminations")
    rs.add_argument("--alg", action="store_true",
                    help="eliminate an algebraic y1 with minimal polynomial "
                         "--qg")
    rs.add_argument("--hyperexp", action="store_true",
                    help="eliminate a hyperexponential y1 with y1'/y1 = u/v")
    rs.add_argument("--elimx", action="store_true",
                    help="eliminate the independent variable x")
    rs.add_argument("--field", default="Q(;x)",
                    help="coefficient field label (default Q(;x))")
    rs.add_argument("--p", default=None, metavar="POLY")
    rs.add_argument("--qg", default=None, metavar="POLY")
    rs.add_argument("--u", default=None, metavar="POLY")
    rs.add_argument("--v", default=None, metavar="POLY")
    rs.add_argument("--witness", action="append", metavar="LABEL=NAME")
    rs.add_argument("--trunc", type=int, default=16, metavar="N")
    rs.add_argument("--point", default="0")
    rs.set_defaults(func=cmd_reselim)

    h = sub.add_parser("hilbert", parents=[common],
                       help="Hilbert-function profile (CSV)")
    h.add_argument("--system", required=True, metavar="FILE")
    h.add_argument("--rho", type=int, default=0,
                   help="prolongation order (default 0)")
    h.add_argument("--cutoff", type=int, default=None)
    h.set_defaults(func=cmd_hilbert)

    cd = sub.add_parser("checkdreg", parents=[common],
                        help="differential-regularity check")
    cd.add_argument("--system", required=True, metavar="FILE")
    cd.add_argument("--rho", type=int, default=0)
    cd.add_argument("--cutoff", type=int, default=None)
    cd.set_defaults(func=cmd_checkdreg)

    v = sub.add_parser("verify", parents=[common],
                       help="series-certify a polynomial against witnesses")
    v.add_argument("--field", default="Q")
    v.add_argument("--poly", required=True, metavar="POLY")
    v.add_argument("--witness", action="append", metavar="LABEL=NAME")
    v.add_argument("--trunc", type=int, default=20, metavar="N")
    v.add_argument("--point", default="0")
    v.set_defaults(func=cmd_verify)

    x = sub.add_parser("experiment", parents=[common],
                       help="seeded random algebraic-relation experiment")
    x.add_argument("--n", type=int, required=True)
    x.add_argument("--d", type=int, required=True)
    x.add_argument("--seed", type=int, required=True)
    x.set_defaults(func=cmd_experiment)
    return ap


def _budget(n):
    """The work budget scope of --budget n.  A --budget or DALG_BUDGET
    that is not a nonnegative integer fails on entry, on every
    subcommand, so it is a usage error and never runs a default."""
    if n is None and not os.environ.get("DALG_BUDGET"):
        return contextlib.nullcontext()
    from .linalg import budget_limit, current_budget
    return budget_limit(current_budget() if n is None else n)


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    fmt = args.format or _DEFAULT_FMT[args.subcommand]
    try:
        with _budget(args.budget):
            out, code = args.func(fmt, args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (DalgError, OSError, ModuleNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
