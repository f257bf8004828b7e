"""The import boundary: plain-Q work never loads sympy, and the lazy
package keeps its public names.

Each case runs in a fresh interpreter, since this test process has
sympy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROD_SYS = "field: Q\ntarget: z\ny1' - y1\ny2' - y2\nz - y1*y2\n"

ALL = [
    "Annihilator", "BudgetExceededError", "DPoly", "DalgError", "Field",
    "FieldDesc", "FieldError", "HypothesisError", "JetVar", "NotFoundAtK",
    "NotFoundUpTo", "ParseError", "SeriesQ", "SystemSpec", "WindowError",
    "apply_dpoly", "check_dregular", "composition_bound",
    "composition_system", "curve", "div_bound", "dp_div_exact", "dp_gcd",
    "elim_algebraic", "elim_hyperexp", "elim_x", "eliminate_search",
    "family_label", "field_from_label", "find_annihilator", "get_field",
    "hf", "hs_regular_closed_form", "newton_algebraic_series", "parse_poly",
    "parse_system", "plus_times_bound", "poly_to_str",
    "prepare_primitive_separable", "prolong", "rational_system",
    "relation_experiment", "resultant", "series_arith", "solve_ode_series",
    "sufficiency_k", "sum_product_system", "sylvester_matrix",
    "system_to_str", "theorem_bound", "verify_annihilator", "witness",
    "witness_names",
]


def _python(code, cwd):
    """Run code in a fresh interpreter on ./src; returns its last stdout
    line parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DALG_BUDGET", None)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(argv, cwd):
    """(exit code, stdout, sympy loaded) of dalg's main on argv."""
    code = (
        "import contextlib, io, json, sys\n"
        "from dalg.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, out.getvalue(), 'sympy' in sys.modules]))\n")
    return tuple(_python(code, cwd))


@pytest.mark.parametrize("argv", [
    ["bound", "--thm", "--d", "2", "--rmin", "2", "--rl", "1", "--r", "2"],
    ["bound", "--thm", "--d", "10", "--rmin", "700", "--rl", "0",
     "--r", "701", "--format", "json"],
    ["curve", "--d", "2", "--rmin", "2", "--rl", "1", "--r-from", "2",
     "--r-to", "5", "--format", "csv"],
    ["eliminate", "--prod", "--p", "y1' - y1", "--p", "y2' - y2", "--r", "1",
     "--witness", "z=exp2x"],
    ["checkdreg", "--system", "prod.sys", "--cutoff", "6"],
    ["verify", "--poly", "y1' - 1 - y1^2", "--witness", "y1=tan",
     "--point", "1/3", "--trunc", "10"],
], ids=["bound", "bound-rmin700", "curve", "eliminate-prod", "checkdreg",
        "verify"])
def test_plain_q_commands_leave_sympy_unloaded(tmp_path, argv):
    (tmp_path / "prod.sys").write_text(PROD_SYS)
    code, out, loaded = _cli(argv, tmp_path)
    assert code == 0 and out
    assert not loaded


def test_gaussian_field_loads_sympy(tmp_path):
    code, out, loaded = _cli(
        ["eliminate", "--prod", "--field", "Qi", "--p", "y1' - i*y1",
         "--p", "y2' - y2", "--r", "1"], tmp_path)
    assert code == 0 and "(-1-i)*z" in out
    assert loaded


def test_eliminate_search_over_q_in_process(tmp_path):
    code = (
        "import json, sys\n"
        "from dalg import (get_field, parse_poly, sum_product_system,\n"
        "                  eliminate_search, verify_annihilator, witness,\n"
        "                  series_arith)\n"
        "F = get_field('Q')\n"
        "P = lambda t: parse_poly(t, F)\n"
        "system = sum_product_system([(P(\"y1' - y1\"), 1),\n"
        "                             (P(\"y2' - 1 - y2^2\"), 1)],\n"
        "                            P('y1 + y2'))\n"
        "ann = eliminate_search(system, 'z', 2, 4)\n"
        "wit = series_arith('add', witness('exp', 24), witness('tan', 24))\n"
        "rec = verify_annihilator(ann, {'z': wit})\n"
        "print(json.dumps([ann.k_searched, ann.membership_certified,\n"
        "                  rec['certified'], 'sympy' in sys.modules]))\n")
    assert _python(code, tmp_path) == [4, True, True, False]


def test_import_dalg_loads_no_submodule(tmp_path):
    code = ("import json, sys\nimport dalg\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.startswith(('dalg.', 'sympy')))))\n")
    assert _python(code, tmp_path) == []


def test_all_names_unchanged_and_resolvable(tmp_path):
    code = ("import json\nimport dalg\n"
            "names = [n for n in dalg.__all__ if getattr(dalg, n) is None]\n"
            "print(json.dumps([dalg.__all__, names, dalg.__version__]))\n")
    assert _python(code, tmp_path) == [ALL, [], "0.1.0"]


@pytest.mark.parametrize("imports", [
    "import dalg.resultant\nimport dalg",
    "import dalg\ndalg.resultant\nimport dalg.resultant",
    "import dalg\nfrom dalg.resultant import elim_x\nimport dalg.resultant",
    "from dalg.cli import main\nmain(['reselim', '--elimx', '--p', 'y1 - x^2'])\n"
    "import dalg",
    "import importlib\nimportlib.import_module('dalg.resultant')\nimport dalg",
], ids=["submodule-first", "name-first", "from-import", "via-cli",
        "importlib"])
def test_package_resultant_is_the_function(tmp_path, imports):
    code = ("import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            + "".join(f"    {line}\n" for line in imports.splitlines())
            + "import json, sys, types\n"
            "f = dalg.resultant\n"
            "mod = sys.modules['dalg.resultant']\n"
            "print(json.dumps([isinstance(f, types.FunctionType),\n"
            "                  f is mod.resultant]))\n")
    assert _python(code, tmp_path) == [True, True]
