"""Differential polynomial systems and prolongation."""

from __future__ import annotations

from dataclasses import dataclass

from .dpoly import DPoly, JetVar
from .errors import DalgError
from .fields import Field


def _family_of_label(label):
    if label == "z":
        return (2, 1)
    if label[0] == "y" and label[1:].isdigit() and int(label[1:]) >= 1:
        return (1, int(label[1:]))
    raise DalgError(f"not a jet family label: {label!r}")


def family_label(fam, idx):
    if fam == 2:
        return "z"
    if fam == 1:
        return f"y{idx}"
    raise DalgError("s is not a differentiable family")


@dataclass(frozen=True)
class SystemSpec:
    """A finite set of generators with a distinguished target family.

    Generators must be nonzero and free of the homogenization variable s.
    mode selects the derivation used when prolonging: "standard" treats
    every family alike, "chain" differentiates y1 through y2 as the inner
    function of a composition.
    """

    field: Field
    gens: tuple
    target: str
    mode: str = "standard"

    def __post_init__(self):
        if not self.gens:
            raise DalgError("a system needs at least one generator")
        skey = JetVar.s().key
        for g in self.gens:
            if not isinstance(g, DPoly):
                raise DalgError("generators must be differential polynomials")
            if g.field.desc != self.field.desc:
                raise DalgError("generator field does not match system field")
            if g.is_zero():
                raise DalgError("zero generator")
            if any(k == skey for m in g.terms for k, _ in m):
                raise DalgError("generators must not contain s")
        _family_of_label(self.target)
        if self.mode not in ("standard", "chain"):
            raise DalgError(f"unknown derivation mode {self.mode!r}")
        if self.target_family not in self.orders():
            raise DalgError(f"target {self.target} does not appear in the system")

    @property
    def target_family(self):
        return _family_of_label(self.target)

    def orders(self):
        """Max derivative order per family over all generators."""
        out = {}
        for g in self.gens:
            for key, order in g.orders().items():
                out[key] = max(out.get(key, -1), order)
        return out


def prolong(spec: SystemSpec, m: int):
    """All derivatives of the generators up to order m, generator-major."""
    if m < 0:
        raise DalgError("prolongation order must be nonnegative")
    out = []
    for g in spec.gens:
        cur = g
        out.append(cur)
        for _ in range(m):
            cur = cur.derive(mode=spec.mode)
            out.append(cur)
    return out
