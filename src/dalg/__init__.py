"""Exact-arithmetic toolkit for closure properties of differentially
algebraic functions.

The package computes annihilating differential polynomials for sums,
products, quotients, and compositions of solutions of algebraic ODEs,
entirely over exact coefficient fields.  The main entry points:

- :func:`dalg.eliminate.eliminate_search` — Macaulay-layer elimination
  with exact membership certificates;
- :mod:`dalg.resultant` — Sylvester-resultant shortcuts for algebraic
  and hyperexponential inputs and for eliminating the independent
  variable;
- :mod:`dalg.hilbert` — truncated Hilbert-function regularity checks;
- :mod:`dalg.bounds` — closed-form order/degree bounds and curves;
- :mod:`dalg.series` — truncated power-series certification;
- ``dalg`` console script — the command-line frontend (:mod:`dalg.cli`).

Every name below is imported from its module on first access (PEP 562),
so ``import dalg`` loads nothing else; plain-Q work never imports sympy
(see :mod:`dalg.fields`).  ``dalg.resultant`` is the function
:func:`dalg.resultant.resultant`, also after the submodule is imported.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# the module each public name lives in
_HOMES = {
    "bounds": ("composition_bound", "curve", "div_bound", "plus_times_bound",
               "relation_experiment", "sufficiency_k", "theorem_bound"),
    "dpoly": ("DPoly", "JetVar"),
    "eliminate": ("Annihilator", "NotFoundAtK", "NotFoundUpTo",
                  "composition_system", "eliminate_search",
                  "find_annihilator", "rational_system",
                  "sum_product_system"),
    "errors": ("BudgetExceededError", "DalgError", "FieldError",
               "HypothesisError", "ParseError", "WindowError"),
    "fields": ("Field", "FieldDesc", "field_from_label", "get_field"),
    "grammar": ("parse_poly", "parse_system", "poly_to_str", "system_to_str"),
    "hilbert": ("check_dregular", "hf", "hs_regular_closed_form"),
    "resultant": ("dp_div_exact", "dp_gcd", "elim_algebraic", "elim_hyperexp",
                  "elim_x", "prepare_primitive_separable", "resultant",
                  "sylvester_matrix"),
    "series": ("SeriesQ", "apply_dpoly", "newton_algebraic_series",
               "series_arith", "solve_ode_series", "verify_annihilator",
               "witness", "witness_names"),
    "system": ("SystemSpec", "family_label", "prolong"),
}
_HOME_OF = {name: mod for mod, names in _HOMES.items() for name in names}

__all__ = [
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


def __getattr__(name):
    mod = _HOME_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """The package module.  Importing the submodule dalg.resultant binds
    it as a package attribute; the function of that name is kept
    instead, as an eager ``from .resultant import resultant`` did."""

    def __setattr__(self, name, value):
        if name == "resultant" and isinstance(value, types.ModuleType):
            value = value.resultant
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
