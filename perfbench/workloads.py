"""Seeded job lists of the three workloads.

make_inputs(workload, seed) draws small integer coefficients from the
seed and writes every job's input as text, without touching dalg.
build_jobs() parses that text with dalg.grammar and returns Job objects.
Each job's run() is one closed-loop call sequence into dalg; check()
compares its output with the structural invariants pinned here and
with the independent series and Hilbert-function checks in checks.py.

The seed changes coefficients only: every job keeps its class, its hit
layer and its layer sizes (pinned in LAYERS and checked by traced runs).
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

import checks

WORKLOADS = ("closure-q", "regularity-q", "field-coeffs")

# Largest layer (rows, cols) each job builds, by cells: the hit layer of
# a search, layer k_max of an exhausted search, or the largest mod-p
# layer of a regularity check.  Traced runs check these.  The default
# budget allows rows*cols <= 2e7.
LAYERS = {
    "sum": (2418, 1365), "quot": (504, 364), "comp": (1165, 715),
    "prod": (38, 45), "nofind": (2310, 5005),
    "dreg_sum": (2310, 1287), "dreg_prod": (1716, 1287),
    "nonregular": (70, 126),
    "gauss": (224, 210), "hyperexp": (0, 0), "alg": (0, 0), "elimx": (0, 0),
}

# closure jobs left out on purpose: rows x cols of the first layer over
# the default budget (find_annihilator with budget=1 reports the size)
EXCLUDED = {
    "prod exp*tan, r=2, k=5": (6279, 4368),
    "comp exp o tan, r=3, k=5": (9295, 6188),
}

QUARTIC = ("field: Q\ntarget: y2\n"
           "y1*y1'' - y1'^2\n(y2 - y1)^2 + (y2' - y1')^4\n")
QUARTIC_ATTEMPTS = [(0, 10), (3, 55), (30, 220), (168, 715), (690, 2002),
                    (2310, 5005)]


def _signed(rng, mags):
    return rng.choice(mags) * rng.choice((1, -1))


def _tan_like(rng):
    """b, c of y' = b + c*y^2 with b*c > 0, so y is a scaled tan.  With
    b*c < 0 it would be a tanh, rational in an exponential, and its sum
    with exp(a*x) could satisfy an equation of lower order."""
    sign = rng.choice((1, -1))
    return sign * rng.choice((1, 2)), sign * rng.choice((1, 2))


def make_inputs(workload, seed):
    """Plain-data inputs for one workload; equal seeds give equal inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closure-q":
        a, (b, c) = _signed(rng, (1, 2, 3)), _tan_like(rng)
        q = _signed(rng, (1, 2, 3))
        outer, inner = _signed(rng, (1, 2)), _signed(rng, (1, 2))
        p1, p2 = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        return [
            {"name": "sum", "a": a, "b": b, "c": c},
            {"name": "quot", "q": q},
            {"name": "comp", "outer": outer, "inner": inner},
            {"name": "prod", "p1": p1, "p2": p2},
            {"name": "nofind"},
        ]
    if workload == "regularity-q":
        a1, (b1, c1) = _signed(rng, (1, 2, 3)), _tan_like(rng)
        a2, (b2, c2) = _signed(rng, (1, 2, 3)), _tan_like(rng)
        return [
            {"name": "dreg_sum", "a": a1, "b": b1, "c": c1},
            {"name": "dreg_prod", "a": a2, "b": b2, "c": c2},
            {"name": "nonregular", "b": _signed(rng, (1, 2, 3)),
             "c": _signed(rng, (1, 2, 3))},
        ]
    if workload == "field-coeffs":
        return [
            {"name": "gauss", "alpha": _signed(rng, (1, 2, 3)),
             "beta": _signed(rng, (1, 2, 3))},
            {"name": "hyperexp", "m": _signed(rng, (1, 2, 3))},
            {"name": "alg", "n": rng.choice((1, 2, 3))},
            {"name": "elimx", "m": _signed(rng, (1, 2, 3))},
        ]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Job:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


def _summary(res, certify=None):
    """Output record of a search or elimination; certify(res) runs the
    dalg.series certification of a hit."""
    from dalg.eliminate import Annihilator
    if not isinstance(res, Annihilator):
        return {"found": False,
                "attempts": [(a.rows, a.cols) for a in res.attempts]}
    return {"found": True, "poly": res.poly, "text": str(res.poly),
            "order": res.order, "degree": res.degree, "k": res.k_searched,
            "terms": len(res.poly.terms),
            "membership": res.membership_certified,
            "series": certify(res) if certify else None}


def _expect_ann(out, order, degree, k=None, terms=None):
    errs = []
    if not out.get("found"):
        return ["no annihilator found"]
    if (out["order"], out["degree"]) != (order, degree):
        errs.append(f"order/degree {out['order']}/{out['degree']}, "
                    f"expected {order}/{degree}")
    if k is not None and out["k"] != k:
        errs.append(f"hit layer {out['k']}, expected {k}")
    if terms is not None and out["terms"] != terms:
        errs.append(f"{out['terms']} terms, expected {terms}")
    if out.get("membership") is False:
        errs.append("membership certificate not replayed")
    cert = out.get("series")
    if cert is not None and not cert["certified"]:
        errs.append(f"dalg.series did not certify: {cert}")
    return errs


def _expect_vanish(out, jets, n, point=0, param_value=None):
    if not out.get("found"):
        return []
    if checks.vanishes(out["poly"], jets, n, point, param_value):
        return []
    return ["independent series residual is nonzero"]


def _closure_jobs(inputs):
    from dalg import eliminate as E, series as S
    from dalg.fields import get_field
    from dalg.grammar import parse_poly, parse_system
    F = get_field("Q")
    N = 24
    jobs = []
    for inp in inputs:
        name = inp["name"]
        if name == "nofind":
            search = (parse_system(QUARTIC), "y2", 3, 6)

            def run(search=search):
                return _summary(E.eliminate_search(*search))

            def check(out):
                if out["found"]:
                    return ["quartic pair unexpectedly found an annihilator"]
                if out["attempts"] != QUARTIC_ATTEMPTS:
                    return [f"attempts {out['attempts']} differ from the "
                            f"pinned {QUARTIC_ATTEMPTS}"]
                return []

            jobs.append(Job(name, run, check))
            continue
        if name == "sum":
            a, b, c = inp["a"], inp["b"], inp["c"]
            P1 = parse_poly(f"y1' - {a}*y1", F)
            P2 = parse_poly(f"y2' - {b} - {c}*y2^2", F)
            system = E.sum_product_system([(P1, 1), (P2, 1)],
                                          parse_poly("y1 + y2", F))

            def witness(P1=P1, P2=P2):
                return S.series_arith("add", S.solve_ode_series(P1, [1], N),
                                      S.solve_ode_series(P2, [0], N))

            search, shape = (system, "z", 2, 6), (2, 3, 4)
            true = [u + v for u, v in zip(checks.exp_series(a, N + 1),
                                          checks.tanlike_series(b, c, N + 1))]
        elif name == "quot":
            q = inp["q"]
            system = E.rational_system(
                [(parse_poly(f"y1' - {q}*y1", F), 1),
                 (parse_poly(f"y2' - {q}*y2", F), 1)],
                parse_poly("y1", F), parse_poly("1 + y2", F))
            ode = parse_poly(f"y1' - {q}*y1 + {q}*y1^2", F)

            def witness(ode=ode):
                return S.solve_ode_series(ode, [Fraction(1, 2)], N)

            search, shape = (system, "z", 2, 5), (2, 2, 3)
            true = checks.logistic_series(q, N + 1)
        elif name == "comp":
            o, i = inp["outer"], inp["inner"]
            system = E.composition_system(parse_poly(f"y1' - {o}*y1", F),
                                          parse_poly(f"y2' - {i}*y2", F))
            ode = parse_poly(f"y1*y1'' - y1'^2 - {i}*y1*y1'", F)

            def witness(ode=ode, zp=o * i):
                return S.solve_ode_series(ode, [1, zp], N)

            search, shape = (system, "z", 2, 6), (2, 2, 4)
            true = checks.expexp_series(o, i, N + 1)
        elif name == "prod":
            p1, p2 = inp["p1"], inp["p2"]
            system = E.sum_product_system(
                [(parse_poly(f"y1' - {p1}*y1", F), 1),
                 (parse_poly(f"y2' - {p2}*y2", F), 1)],
                parse_poly("y1*y2", F))
            ode = parse_poly(f"y1' - {p1 + p2}*y1", F)

            def witness(ode=ode):
                return S.solve_ode_series(ode, [1], N)

            search, shape = (system, "z", 1, 4), (1, 1, 2)
            true = checks.exp_series(p1 + p2, N + 1)
        else:
            raise ValueError(name)

        def run(search=search, witness=witness):
            return _summary(E.eliminate_search(*search),
                            lambda res: S.verify_annihilator(
                                res, {"z": witness()}))

        def check(out, shape=shape, true=true):
            order, degree, k = shape
            return (_expect_ann(out, order, degree, k=k)
                    + _expect_vanish(out, {(2, 1): true}, N + 1))

        jobs.append(Job(name, run, check))
    return jobs


# generator degrees after prolongation (generator-major) and ring size,
# worked out by hand from the system shapes
DREG_SHAPES = {
    "dreg_sum": {"rho": 1, "cutoff": 5, "degrees": [1, 1, 2, 2, 1, 1],
                 "v": 9},
    "dreg_prod": {"rho": 0, "cutoff": 8, "degrees": [1, 2, 2], "v": 6},
    "nonregular": {"rho": 0, "cutoff": 5, "degrees": [2, 2], "v": 5,
                   "failure": (2, 3)},
}


def _regularity_jobs(inputs):
    from dalg import hilbert as H
    from dalg.grammar import parse_system
    jobs = []
    for inp in inputs:
        name = inp["name"]
        shape = DREG_SHAPES[name]
        if name == "dreg_sum":
            text = (f"field: Q\ntarget: z\ny1' - {inp['a']}*y1\n"
                    f"y2' - {inp['b']} - {inp['c']}*y2^2\nz - y1 - y2\n")
        elif name == "dreg_prod":
            text = (f"field: Q\ntarget: z\ny1' - {inp['a']}*y1\n"
                    f"y2' - {inp['b']} - {inp['c']}*y2^2\nz - y1*y2\n")
        else:
            text = (f"field: Q\ntarget: y2\ny1*y2' - {inp['b']}*y1*y2\n"
                    f"y1*y1' - {inp['c']}*y1\n")
        spec = parse_system(text)

        def run(spec=spec, shape=shape):
            rep = H.check_dregular(spec, shape["rho"], cutoff=shape["cutoff"])
            return {"regular": rep.regular, "failure": rep.regseq.failure(),
                    "n_vars": rep.n_vars, "n_gens": rep.n_gens,
                    "hf": [rep.profile.values[k]
                           for k in range(shape["cutoff"] + 1)]}

        def check(out, shape=shape):
            errs = []
            n = len(shape["degrees"])
            if (out["n_vars"], out["n_gens"]) != (shape["v"], n):
                errs.append(f"ring {out['n_vars']} vars / {out['n_gens']} "
                            f"gens, expected {shape['v']} / {n}")
            closed = checks.regular_hf(shape["degrees"], shape["v"],
                                       shape["cutoff"])
            fail = shape.get("failure")
            if fail is None:
                if not out["regular"] or out["failure"] is not None:
                    errs.append(f"verdict not regular: {out['failure']}")
                if out["hf"] != closed:
                    errs.append(f"HF {out['hf']} != closed form {closed}")
            else:
                if out["regular"] or out["failure"] != fail:
                    errs.append(f"first failure {out['failure']}, "
                                f"expected {fail}")
                d = fail[1]
                if out["hf"][:d] != closed[:d] or out["hf"][d] <= closed[d]:
                    errs.append(f"HF {out['hf']} vs closed form {closed} "
                                f"does not break first at degree {d}")
            return errs

        jobs.append(Job(name, run, check))
    return jobs


# c is specialised to this value for the independent check of the
# Gaussian-parameter annihilator
GAUSS_C = Fraction(2, 3)


def _field_jobs(inputs):
    from dalg import eliminate as E, series as S
    # the package's resultant() function shadows the module attribute
    R = importlib.import_module("dalg.resultant")
    from dalg.fields import get_field
    from dalg.grammar import parse_poly, parse_system
    FX = get_field("Q", has_x=True)
    jobs = []
    for inp in inputs:
        name = inp["name"]
        if name == "gauss":
            al, be = inp["alpha"], inp["beta"]
            system = parse_system(
                f"field: Qi(c;)\ntarget: y2\ny1' - c*y1\n"
                f"{al}*i*(y2' - y1')^2 + {be}*(y2 - y1)\n")
            FC = system.field
            # f2 = exp(c x) + A x^2 + x + C solves the pair, with
            # A = beta*i/(4 alpha) and C = -alpha*i/beta
            Ng = 12
            cpar, ii = FC.param("c"), FC.i()
            A = ii * FC.q(be, 4 * al)
            C = -ii * FC.q(al, be)
            coeffs = [cpar ** j * FC.q(1, factorial(j)) for j in range(Ng + 1)]
            coeffs[0] += C
            coeffs[1] += FC.one
            coeffs[2] += A
            wit = S.SeriesQ(FC, 0, coeffs, Ng)

            def run(system=system, wit=wit):
                return _summary(E.eliminate_search(system, "y2", 2, 6),
                                lambda res: S.verify_annihilator(
                                    res, {"y2": wit}))

            cv = GAUSS_C
            true = [checks.G(v) for v in checks.exp_series(cv, Ng + 1)]
            true[0] = true[0] + checks.G(0, -Fraction(al, be))
            true[1] = true[1] + 1
            true[2] = true[2] + checks.G(0, Fraction(be, 4 * al))

            def check(out, true=true, Ng=Ng):
                return (_expect_ann(out, 2, 3, k=4, terms=11)
                        + _expect_vanish(out, {(1, 2): true}, Ng + 1,
                                         param_value=GAUSS_C))
        elif name == "hyperexp":
            m = inp["m"]
            P = parse_poly("y2 - y1", FX)
            u, v = parse_poly(f"{2 * m}*x", FX), parse_poly("1", FX)
            ode = parse_poly(f"y1' - {2 * m}*x*y1", FX)
            N = 16

            def run(P=P, u=u, v=v, ode=ode, N=N):
                return _summary(R.elim_hyperexp(P, u, v),
                                lambda res: S.verify_annihilator(
                                    res, {"y2": S.solve_ode_series(
                                        ode, [1], N)}))

            true = checks.s_exp0([0, 0, Fraction(m)] + [0] * (N - 2), N + 1)

            def check(out, true=true, N=N):
                return (_expect_ann(out, 1, 1)
                        + _expect_vanish(out, {(1, 2): true}, N + 1))
        elif name == "alg":
            n = inp["n"]
            P = parse_poly("y2' - y1", FX)
            Qg = parse_poly(f"y1^2 - {n * n}*x", FX)
            N = 16

            def run(P=P, Qg=Qg, n=n, N=N):
                return _summary(R.elim_algebraic(P, Qg),
                                lambda res: S.verify_annihilator(
                                    res, {"y2": S.series_integrate(
                                        S.newton_algebraic_series(
                                            Qg, n, N, point=1), 0)}))

            # y2 = integral of n*sqrt(x), expanded at x = 1
            true = checks.integrate0([n * v for v in checks.sqrt1_series(N + 1)])

            def check(out, true=true, N=N):
                return (_expect_ann(out, 1, 2)
                        + _expect_vanish(out, {(1, 2): true}, N + 1, point=1))
        elif name == "elimx":
            m = inp["m"]
            P = parse_poly(f"y1 - {m}*x^2", FX)
            N = 16
            wit = S.SeriesQ.from_fractions(FX, [0, 0, m] + [0] * (N - 2), N)

            def run(P=P, wit=wit):
                return _summary(R.elim_x(P), lambda res: S.verify_annihilator(
                    res, {"y1": wit}))

            true = [Fraction(0), Fraction(0), Fraction(m)] + [Fraction(0)] * (N - 2)

            def check(out, true=true, N=N):
                return (_expect_ann(out, 1, 2)
                        + _expect_vanish(out, {(1, 1): true}, N + 1))
        else:
            raise ValueError(name)
        jobs.append(Job(name, run, check))
    return jobs


def build_jobs(workload, inputs):
    """Parse the generated inputs into runnable jobs (needs dalg importable)."""
    if workload == "closure-q":
        return _closure_jobs(inputs)
    if workload == "regularity-q":
        return _regularity_jobs(inputs)
    if workload == "field-coeffs":
        return _field_jobs(inputs)
    raise ValueError(f"unknown workload {workload!r}")


def digest(out):
    """Deterministic text of a job output (the DPoly itself is dropped)."""
    return repr(sorted((k, v) for k, v in out.items() if k != "poly"))
