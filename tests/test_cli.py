"""Command-line interface: output schemas, formats, exit codes, and
byte determinism."""

import json
from math import comb

import jsonschema
import pytest

from dalg.cli import load_schema, main

PROD_SYS = "field: Q\ntarget: z\ny1' - y1\ny2' - y2\nz - y1*y2\n"
NONREG_SYS = "field: Q\ntarget: y1\ny1^2 - y1*y2\ny1*y2 - y2^2\ny1*y2\n"
SUM_SYS = "field: Q\ntarget: z\ny1' - y1\ny2' - 1 - y2^2\nz - y1 - y2\n"


@pytest.fixture(autouse=True)
def _isolate_budget(monkeypatch):
    monkeypatch.delenv("DALG_BUDGET", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, schema, *argv, expect=0):
    code, out, err = run(capsys, *argv)
    assert code == expect, f"exit {code}, stderr: {err}"
    obj = json.loads(out)
    jsonschema.validate(obj, load_schema(schema))
    return obj


# ---------------------------------------------------------------------------
# bound

def test_bound_thm_json(capsys):
    obj = run_json(capsys, "bound", "bound", "--thm", "--d", "2", "--rmin",
                   "2", "--rl", "1", "--r", "2", "--format", "json")
    assert obj["k_min"] == 10 and obj["threshold"] == "9"
    assert obj["threshold_exact"] is True
    assert obj["sufficiency_k"] == 10


def test_bound_thm_exact_root_json(capsys):
    # the exponent 3/2 is not an integer, but 4^(3/2) = 8 is, so the
    # threshold 3*(8 - 1) = 21 is exact
    obj = run_json(capsys, "bound", "bound", "--thm", "--d", "4", "--rmin",
                   "1", "--rl", "0", "--r", "2", "--format", "json")
    assert obj == {"mode": "thm",
                   "params": {"d": 4, "r_min": 1, "r_l": 0, "r": 2},
                   "threshold": "21", "threshold_exact": True,
                   "k_min": 22, "sufficiency_k": 18}


def test_bound_past_float_range(capsys):
    # the threshold 702*(10^351 - 1) is far beyond a double
    code, out, err = run(capsys, "bound", "--thm", "--d", "10", "--rmin",
                         "700", "--rl", "0", "--r", "701")
    t = 702 * (10 ** 351 - 1)
    assert (code, err) == (0, "")
    head, _, k = out.rpartition("  sufficiency_k=")
    assert head == f"threshold={t}  k_min={t + 1}"
    # the counting inequality C(702+k, 702) > 10^702 * C(700+k, k) starts at k
    k = int(k)
    assert comb(702 + k, 702) > 10 ** 702 * comb(700 + k, k)
    assert comb(701 + k, 702) <= 10 ** 702 * comb(699 + k, k - 1)


def test_bound_comp_text_default(capsys):
    code, out, _ = run(capsys, "bound", "--comp", "--r1", "1", "--r2", "1",
                       "--d1", "2", "--d2", "2")
    assert code == 0
    assert out == "threshold=69  k_min=70  sufficiency_k=-\n"


def test_bound_csv(capsys):
    code, out, _ = run(capsys, "bound", "--plus-times", "--degq", "3",
                       "--d", "2", "--rmin", "2", "--r", "3",
                       "--format", "csv")
    assert code == 0
    head, row = out.strip().splitlines()
    assert head == "mode,threshold,k_min,sufficiency_k"
    assert row.startswith("plus-times,")


def test_bound_missing_parameter_exit2(capsys):
    code, _, err = run(capsys, "bound", "--thm", "--d", "2")
    assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------------------
# curve

def test_curve_csv_and_artifacts(capsys, tmp_path):
    out_csv = tmp_path / "curve.csv"
    plot = tmp_path / "plot_curve.py"
    code, out, _ = run(capsys, "curve", "--d", "2", "--rmin", "2", "--rl",
                       "1", "--r-from", "2", "--r-to", "8",
                       "--out", str(out_csv), "--plot-script", str(plot))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,k_min,monomial_count"
    assert lines[1] == "2,10,286"
    assert out_csv.read_text() == out
    script = plot.read_text()
    assert script.startswith("#!/usr/bin/env python3")
    assert "matplotlib" in script and "Agg" in script


def test_curve_json(capsys):
    obj = run_json(capsys, "curve", "curve", "--d", "2", "--rmin", "2",
                   "--rl", "1", "--r-from", "2", "--r-to", "4",
                   "--format", "json")
    assert [p["r"] for p in obj["points"]] == [2, 3, 4]
    assert obj["points"][0] == {"r": 2, "k_min": 10, "monomial_count": 286}


# ---------------------------------------------------------------------------
# eliminate

def test_eliminate_product_preset(capsys):
    obj = run_json(capsys, "eliminate", "eliminate", "--prod", "--p",
                   "y1' - y1", "--p", "y2' - y2", "--r", "1",
                   "--witness", "z=exp2x")
    assert obj["target"] == "z" and obj["order"] == 1
    assert obj["k_searched"] == 2
    assert obj["membership_certified"] is True
    assert obj["series_certified"] is True
    assert obj["polynomial"] == "z' - 2*z"


def test_eliminate_kmax_too_small_exit4(capsys):
    obj = run_json(capsys, "eliminate", "eliminate", "--prod", "--p",
                   "y1' - y1", "--p", "y2' - y2", "--r", "1",
                   "--kmax", "1", expect=4)
    assert obj["found"] is False
    assert obj["k_max"] == 1 and len(obj["attempts"]) == 1


def test_eliminate_budget_exit3(capsys):
    code, _, err = run(capsys, "eliminate", "--prod", "--p", "y1' - y1",
                       "--p", "y2' - y2", "--r", "1", "--budget", "10")
    assert code == 3 and "budget" in err


def test_eliminate_raw_system(capsys, tmp_path):
    sys_file = tmp_path / "prod.sys"
    sys_file.write_text(PROD_SYS)
    obj = run_json(capsys, "eliminate", "eliminate", "--raw", str(sys_file),
                   "--r", "1")
    assert obj["polynomial"] == "z' - 2*z"


def test_eliminate_raw_chain_system_without_inner_family(capsys, tmp_path):
    # the chain rule brings in y2' although the system has no y2 equation;
    # the layer's ring is read from the prolonged generators
    sys_file = tmp_path / "chain.sys"
    sys_file.write_text("field: Q\ntarget: z\nmode: chain\ny1' - y1\nz - y1\n")
    obj = run_json(capsys, "eliminate", "eliminate", "--raw", str(sys_file),
                   "--r", "2", "--kmax", "3", expect=4)
    assert obj["attempts"] == [{"k": 1, "rows": 2, "cols": 11},
                               {"k": 2, "rows": 24, "cols": 66},
                               {"k": 3, "rows": 156, "cols": 286}]


def test_eliminate_missing_file_exit2(capsys, tmp_path):
    code, _, err = run(capsys, "eliminate", "--raw",
                       str(tmp_path / "nope.sys"), "--r", "1")
    assert code == 2 and err.startswith("error:")


def test_eliminate_preset_conflict_exit2(capsys):
    code, _, err = run(capsys, "eliminate", "--sum", "--prod", "--p",
                       "y1' - y1", "--r", "1")
    assert code == 2 and "exactly one" in err


def test_eliminate_bad_witness_spec_exit2(capsys):
    code, _, err = run(capsys, "eliminate", "--prod", "--p", "y1' - y1",
                       "--p", "y2' - y2", "--r", "1", "--witness", "zz")
    assert code == 2 and "label=name" in err


# ---------------------------------------------------------------------------
# reselim

def test_reselim_algebraic(capsys):
    obj = run_json(capsys, "reselim", "reselim", "--alg", "--p", "y2' - y1",
                   "--qg", "y1^2 - x")
    assert obj["polynomial"] == "y2'^2 - x"
    assert obj["target"] == "y2" and obj["order"] == 1
    assert obj["bounds_checked"]["d"] == [2, 4]


def test_reselim_hyperexp_with_witness(capsys):
    obj = run_json(capsys, "reselim", "reselim", "--hyperexp", "--p",
                   "y2 - y1", "--u", "2*x", "--v", "1",
                   "--witness", "y2=exp_x2")
    assert obj["polynomial"] == "y2' - 2*x*y2"
    assert obj["series_certified"] is True


def test_reselim_elimx_text(capsys):
    code, out, _ = run(capsys, "reselim", "--elimx", "--p", "y1 - x^2",
                       "--format", "text")
    assert code == 0
    assert "annihilator for y1" in out and "by resultant" in out
    assert "y1'^2 - 4*y1" in out


@pytest.mark.parametrize("mode, n", [
    (("--hyperexp", "--p", "y2 - y1", "--u", "2*x", "--v", "1"), 2),
    (("--elimx", "--p", "y1 - 3*x^2"), 3),
    (("--alg", "--p", "y2' - y1", "--qg", "y1^2 - 4*x"), 3),
], ids=["hyperexp", "elimx", "alg"])
def test_reselim_budget_exit3(capsys, mode, n):
    # the n x n Sylvester matrix is charged before it is built; a budget
    # of exactly n*n entries lets the elimination run
    code, out, err = run(capsys, "reselim", *mode, "--budget", "1")
    assert code == 3 and out == ""
    assert err == (f"error: matrix of {n} x {n} = {n * n} entries exceeds "
                   f"budget 1\n")
    assert run(capsys, "reselim", *mode, "--budget", str(n * n))[0] == 0


def test_reselim_hypothesis_exit5(capsys):
    code, _, err = run(capsys, "reselim", "--alg", "--p", "y1^2 - x",
                       "--qg", "y1^2 - x")
    assert code == 5 and err.startswith("error:")


# ---------------------------------------------------------------------------
# hilbert / checkdreg

def test_hilbert_csv_default(capsys, tmp_path):
    sys_file = tmp_path / "prod.sys"
    sys_file.write_text(PROD_SYS)
    code, out, _ = run(capsys, "hilbert", "--system", str(sys_file),
                       "--rho", "0", "--cutoff", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,hf,closed_form,verdict"
    for k in range(9):
        deg, hf, cf, verdict = lines[k + 1].split(",")
        assert (int(deg), int(hf), int(cf)) == (k, (k + 1) ** 2, (k + 1) ** 2)
        assert verdict == "regular"


def test_hilbert_json(capsys, tmp_path):
    sys_file = tmp_path / "prod.sys"
    sys_file.write_text(PROD_SYS)
    obj = run_json(capsys, "hilbert", "hilbert", "--system", str(sys_file),
                   "--cutoff", "6", "--format", "json")
    assert obj["regular"] is True and obj["rho"] == 0
    assert [r["hf"] for r in obj["rows"]] == [(k + 1) ** 2 for k in range(7)]


def test_checkdreg_regular(capsys, tmp_path):
    sys_file = tmp_path / "prod.sys"
    sys_file.write_text(PROD_SYS)
    obj = run_json(capsys, "checkdreg", "checkdreg", "--system",
                   str(sys_file), "--cutoff", "6")
    assert obj["regular"] is True and obj["first_failure"] is None
    assert obj["expected_dimension"] == obj["n_vars"] - obj["n_gens"] - 1


def test_checkdreg_text_is_the_readme_line(capsys, tmp_path):
    sys_file = tmp_path / "prod.sys"
    sys_file.write_text(PROD_SYS)
    code, out, _ = run(capsys, "checkdreg", "--system", str(sys_file),
                       "--cutoff", "6", "--format", "text")
    assert code == 0
    assert out == ("regular=True rho=0 cutoff=6 expected_dimension=2 "
                   "fitted_degree=2\n")


def test_checkdreg_nonregular_exit5(capsys, tmp_path):
    sys_file = tmp_path / "nonreg.sys"
    sys_file.write_text(NONREG_SYS)
    obj = run_json(capsys, "checkdreg", "checkdreg", "--system",
                   str(sys_file), "--cutoff", "6", expect=5)
    assert obj["regular"] is False
    assert obj["first_failure"] == {"generator": 2, "degree": 3}


def test_checkdreg_budget_exit3(capsys, tmp_path):
    sys_file = tmp_path / "prod.sys"
    sys_file.write_text(PROD_SYS)
    code, out, err = run(capsys, "checkdreg", "--system", str(sys_file),
                         "--budget", "50")
    assert code == 3 and out == "" and "budget 50" in err


@pytest.mark.parametrize("budget, layer", [
    ("50", "9 x 45 = 405"), ("3000", "45 x 165 = 7425"),
    ("200000", "495 x 1287 = 637065"), ("1000000", "990 x 1287 = 1274130")])
@pytest.mark.parametrize("sub", ["checkdreg", "hilbert"])
def test_regularity_budget_names_first_prefix_layer(capsys, tmp_path, sub,
                                                     budget, layer):
    # prefix by prefix, degree by degree, the first layer over budget
    sys_file = tmp_path / "sum.sys"
    sys_file.write_text(SUM_SYS)
    code, out, err = run(capsys, sub, "--system", str(sys_file), "--rho",
                         "1", "--cutoff", "5", "--budget", budget)
    assert (code, out) == (3, "")
    assert err == (f"error: matrix of {layer} entries exceeds budget "
                   f"{budget}\n")


@pytest.mark.parametrize("sub, cutoff", [("checkdreg", "-1"),
                                         ("hilbert", "-2")])
def test_negative_cutoff_exit2(capsys, tmp_path, sub, cutoff):
    sys_file = tmp_path / "prod.sys"
    sys_file.write_text(PROD_SYS)
    code, out, err = run(capsys, sub, "--system", str(sys_file),
                         "--cutoff", cutoff)
    assert (code, out) == (2, "")
    assert err == "error: cutoff must be nonnegative\n"


PROD_ARGS = ("eliminate", "--prod", "--p", "y1' - y1", "--p", "y2' - y2",
             "--r", "1")


@pytest.mark.parametrize("value", ["abc", "-5", "1e6"])
def test_bad_budget_variable_exit2(capsys, monkeypatch, value):
    # never a silent run under the default budget, nor an abort that
    # reports a negative budget
    monkeypatch.setenv("DALG_BUDGET", value)
    code, out, err = run(capsys, *PROD_ARGS)
    assert (code, out) == (2, "")
    assert err == (f"error: DALG_BUDGET must be a nonnegative integer, "
                   f"got {value!r}\n")


@pytest.mark.parametrize("argv", [
    PROD_ARGS,
    ("bound", "--thm", "--d", "2", "--rmin", "2", "--rl", "1", "--r", "2")],
    ids=["eliminate", "bound"])
def test_negative_budget_flag_exit2(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert (code, out) == (2, "")
    assert err == "error: budget must be a nonnegative integer, got -1\n"


def test_budget_flag_overrides_bad_variable(capsys, monkeypatch):
    monkeypatch.setenv("DALG_BUDGET", "abc")
    code, _, err = run(capsys, *PROD_ARGS, "--budget", "10")
    assert code == 3 and err.endswith("exceeds budget 10\n")


def test_system_parse_error_exit2(capsys, tmp_path):
    sys_file = tmp_path / "bad.sys"
    sys_file.write_text("field: Q\ntarget: z\nthis is (not a poly\n")
    code, _, err = run(capsys, "hilbert", "--system", str(sys_file))
    assert code == 2 and err.startswith("error: line 3")


@pytest.mark.parametrize("depth,code", [(150, 0), (200, 2), (10000, 2)])
def test_deep_nesting_in_the_exit_code_contract(capsys, depth, code):
    # nesting deeper than the interpreter's recursion limit allows is a
    # parse error (exit 2) with a one-line message, not a traceback
    poly = "(" * depth + "z' - z" + ")" * depth
    got, out, err = run(capsys, "verify", "--poly", poly, "--witness", "z=exp")
    assert got == code and "Traceback" not in err
    if code:
        assert out == ""
        assert err.startswith("error: expression nested too deeply")


def test_deep_nesting_in_a_system_file_exit2(capsys, tmp_path):
    sys_file = tmp_path / "deep.sys"
    sys_file.write_text("field: Q\ntarget: z\n" + "(" * 200 + "z" + ")" * 200
                        + "\n")
    code, _, err = run(capsys, "hilbert", "--system", str(sys_file))
    assert code == 2
    assert err.startswith("error: line 3: expression nested too deeply")


# ---------------------------------------------------------------------------
# verify / experiment

def test_verify_certifies_witness(capsys):
    obj = run_json(capsys, "verify", "verify", "--poly", "y1' - y1",
                   "--witness", "y1=exp")
    assert obj == {"certified": True, "residual_valuation": 20,
                   "truncation": 19}


def test_verify_rejects_nonsolution(capsys):
    obj = run_json(capsys, "verify", "verify", "--poly", "y1' - y1",
                   "--witness", "y1=tan")
    assert obj["certified"] is False and obj["residual_valuation"] == 0


def test_verify_needs_witness_exit2(capsys):
    code, _, err = run(capsys, "verify", "--poly", "y1' - y1")
    assert code == 2 and "--witness" in err


def test_verify_unsupported_format_exit2(capsys):
    code, _, err = run(capsys, "verify", "--poly", "y1' - y1",
                       "--witness", "y1=exp", "--format", "csv")
    assert code == 2 and err.startswith("error:")


# the three subcommands that expand witnesses at --point, and the key of
# their series verdict
_POINT_ARGV = {
    "eliminate": (("eliminate", "--prod", "--p", "y1' - y1", "--p",
                   "y2' - y2", "--r", "1", "--witness", "z=exp2x"),
                  "series_certified"),
    "reselim": (("reselim", "--hyperexp", "--p", "y2 - y1", "--u", "2*x",
                 "--v", "1", "--witness", "y2=exp_x2"), "series_certified"),
    "verify": (("verify", "--poly", "z' - 2*z", "--witness", "z=exp2x"),
               "certified"),
}


@pytest.mark.parametrize("point", ["1/0", "abc"])
@pytest.mark.parametrize("sub", sorted(_POINT_ARGV))
def test_bad_point_exit2(capsys, sub, point):
    code, out, err = run(capsys, *_POINT_ARGV[sub][0], "--point", point)
    assert code == 2 and out == ""
    assert err == f"error: --point must be a rational number, got {point!r}\n"


@pytest.mark.parametrize("sub", sorted(_POINT_ARGV))
def test_rational_point_certifies(capsys, sub):
    argv, verdict = _POINT_ARGV[sub]
    obj = run_json(capsys, sub, *argv, "--point", "1/2")
    assert obj[verdict] is True


def test_experiment_json(capsys):
    obj = run_json(capsys, "experiment", "experiment", "--n", "1", "--d",
                   "3", "--seed", "42")
    assert obj["k_observed"] == 3
    assert obj["k_counting"] == 4 and obj["k_theorem_bound"] == 4


def test_experiment_linear_polynomials_exit2(capsys):
    # n+1 linear polynomials in n variables are always linearly dependent,
    # so no draw could ever count; the run is refused before sampling
    code, out, err = run(capsys, "experiment", "--n", "1", "--d", "1",
                         "--seed", "0")
    assert (code, out) == (2, "")
    assert "d >= 2" in err and "linear relation" in err


def test_experiment_budget_exit3(capsys):
    # the degree-1 product matrix (4 rows, 10 columns) is checked before
    # it is built; without the check this run goes on for minutes
    code, out, err = run(capsys, "experiment", "--n", "2", "--d", "3",
                         "--seed", "3", "--budget", "1")
    assert code == 3 and out == ""
    assert err == "error: matrix of 4 x 10 = 40 entries exceeds budget 1\n"


def test_experiment_budget_exit3_before_large_tables(capsys):
    # n = 3, d = 4 counts up to degree ~250, yet the first check comes
    # before anything of degree 1 is built
    code, out, err = run(capsys, "experiment", "--n", "3", "--d", "4",
                         "--seed", "0", "--budget", "1")
    assert code == 3 and out == ""
    assert err == "error: matrix of 5 x 35 = 175 entries exceeds budget 1\n"


# ---------------------------------------------------------------------------
# cross-cutting

def test_json_output_is_byte_deterministic(capsys):
    argv = ["eliminate", "--prod", "--p", "y1' - y1", "--p", "y2' - y2",
            "--r", "1", "--witness", "z=exp2x"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second and first.endswith("\n")


def test_unknown_subcommand_usage_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
