"""Text format for differential polynomials and systems.

Polynomials are written with the operators + - * / ^ and parentheses.
Jet variables are s, z and y1, y2, ...; derivatives are marked with
apostrophes (y1'') or with ^(j) immediately after a bare jet name
(y1^(4)).  ^INT elsewhere is a power.  There is no implicit
multiplication, and a division's right operand must be free of jet
variables.  The independent variable x, the imaginary unit i and any
declared parameters may appear wherever a number may.

A system file holds one polynomial per line plus header lines

    field: Q | Qi | Q(<params>;x) | ...
    target: z | y<i>
    mode: standard | chain        (optional)

and # starts a comment.
"""

from __future__ import annotations

import re

from .dpoly import DPoly, JetVar
from .errors import ParseError
from .fields import Field, field_from_label
from .system import SystemSpec

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<prime>'+)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos + 1)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append((m.lastgroup, m.group(), m.start() + 1))
    return tokens


class _Parser:
    def __init__(self, text, field: Field):
        self.tokens = _tokenize(text)
        self.field = field
        self.k = 0
        self.end_pos = len(text) + 1

    # -- token helpers ---------------------------------------------------

    def peek(self, ahead=0):
        i = self.k + ahead
        return self.tokens[i] if i < len(self.tokens) else (None, None, self.end_pos)

    def take(self):
        tok = self.peek()
        if tok[0] is not None:
            self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    # -- grammar ----------------------------------------------------------

    def parse(self):
        if not self.tokens:
            raise ParseError("empty input", 1)
        try:
            node = self.expr()
        except RecursionError:
            # only "(" recurses: nesting past the interpreter's limit
            raise ParseError("expression nested too deeply",
                             self.peek()[2]) from None
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = node + rhs if val == "+" else node - rhs
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.power()
                if val == "*":
                    node = node * rhs
                else:
                    node = self._divide(node, rhs, pos)
            else:
                return node

    def _divide(self, node, rhs, pos):
        if any(m for m in rhs.terms):
            raise ParseError("division by a jet variable is not allowed", pos)
        c = rhs.constant_coeff()
        if self.field.is_zero(c):
            raise ParseError("division by zero", pos)
        return node * (self.field.one / c)

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.power()
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            ekind, eval_, epos = self.take()
            if ekind != "int":
                raise ParseError("expected an integer exponent after ^", epos)
            node = node ** int(eval_)
        return node

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return DPoly.const(self.field, int(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            return self._name_atom(val, pos)
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {val!r}", pos)

    def _name_atom(self, name, pos):
        f = self.field
        jet = _jet_name(name, pos)
        if jet is not None:
            fam, idx = jet
            order = self._derivative_postfix(fam, pos)
            if fam == 0:
                return DPoly.var(f, JetVar.s())
            if fam == 1:
                return DPoly.var(f, JetVar.y(idx, order))
            return DPoly.var(f, JetVar.z(order))
        if name == "x":
            if not f.desc.has_x:
                raise ParseError(f"x is not available over {f.desc.label}", pos)
            return DPoly.const(f, f.x())
        if name == "i":
            if f.desc.kind != "Qi":
                raise ParseError(f"i is not available over {f.desc.label}", pos)
            return DPoly.const(f, f.i())
        if name in f.desc.params:
            return DPoly.const(f, f.param(name))
        raise ParseError(f"unknown name {name!r}", pos)

    def _derivative_postfix(self, fam, pos):
        kind, val, ppos = self.peek()
        if kind == "prime":
            if fam == 0:
                raise ParseError("s cannot be differentiated", ppos)
            self.take()
            return len(val)
        if kind == "op" and val == "^" and self.peek(1)[:2] == ("op", "("):
            if fam == 0:
                raise ParseError("s cannot be differentiated", ppos)
            self.take()
            self.take()
            okind, oval, opos = self.take()
            if okind != "int":
                raise ParseError("expected an integer derivative order", opos)
            self.expect_op(")")
            return int(oval)
        return 0


def _jet_name(name, pos):
    """Return (fam, index) when name denotes a jet family, else None."""
    if name == "s":
        return (0, 0)
    if name == "z":
        return (2, 1)
    if name[0] == "y" and name[1:].isdigit():
        idx = int(name[1:])
        if idx < 1:
            raise ParseError("y-family indices start at 1", pos)
        return (1, idx)
    if name == "y":
        raise ParseError("y needs an index, as in y1", pos)
    return None


def parse_poly(text, field):
    """Parse one polynomial over the given Field (or field label)."""
    if isinstance(field, str):
        field = field_from_label(field)
    return _Parser(text, field).parse()


def poly_to_str(p: DPoly) -> str:
    return str(p)


# ---------------------------------------------------------------------------
# system files

_HEADER_RE = re.compile(r"^(field|target|mode)\s*:\s*(.*)$")


def parse_system(text) -> SystemSpec:
    field = None
    target = None
    mode = "standard"
    gen_lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEADER_RE.match(line)
        if m:
            key, val = m.group(1), m.group(2).strip()
            if key == "field":
                try:
                    field = field_from_label(val)
                except Exception as e:
                    raise ParseError(f"line {ln}: bad field label {val!r}: {e}", 1)
            elif key == "target":
                target = val
            else:
                if val not in ("standard", "chain"):
                    raise ParseError(f"line {ln}: mode must be standard or chain", 1)
                mode = val
            continue
        gen_lines.append((ln, line))
    if field is None:
        raise ParseError("missing field: header", 1)
    if target is None:
        raise ParseError("missing target: header", 1)
    if _jet_name(target, 1) in (None, (0, 0)):
        raise ParseError(f"target must be z or y<i>, got {target!r}", 1)
    gens = []
    for ln, line in gen_lines:
        try:
            gens.append(parse_poly(line, field))
        except ParseError as e:
            raise ParseError(f"line {ln}: {e}") from None
    return SystemSpec(field=field, gens=tuple(gens), target=target, mode=mode)


def system_to_str(spec: SystemSpec) -> str:
    lines = [f"field: {spec.field.desc.label}", f"target: {spec.target}"]
    if spec.mode != "standard":
        lines.append(f"mode: {spec.mode}")
    lines.extend(str(g) for g in spec.gens)
    return "\n".join(lines) + "\n"
