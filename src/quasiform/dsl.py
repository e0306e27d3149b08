"""Script language for declaring forms and queueing decision commands.

A script is a field declaration, form definitions, and commands:

    field F2(a, b, c);
    form q1 = <1, a, b, a*b, c>;
    form q2 = <1, a, c, a*c, b>;
    invariants q1;
    compare q1 q2;

Coefficient expressions use +, *, /, ^, parentheses, the constants 0 and 1,
and declared variables, evaluated in F2(declared names); integer literals
appear only as exponents, at most gf2poly.MAX_EXPONENT.  Lines starting
with # (to end of line) are comments.  A coefficient larger than MAX_TERMS
terms raises ResourceLimit; a power, before it is taken.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import (
    DslSyntaxError,
    ResourceLimit,
    UndeclaredVariable,
    ZeroCoefficient,
)
from .fieldtower import DEFAULT_DEPTH_LIMIT, FieldTower, TowerElem
from .forms import QuasilinearForm
from .gf2poly import MAX_EXPONENT, Poly, RatFn

COMMAND_ARITY = {
    "invariants": 1,
    "compare": 2,
    "ruling": 1,
    "regular": 1,
    "splitting": 1,
    "corpus": 0,
}

_KEYWORDS = frozenset(COMMAND_ARITY) | {"field", "form", "F2"}
# each level of parentheses costs the recursive descent four frames, so
# this keeps deep input well inside the interpreter's recursion limit
MAX_NESTING = 100
# the most terms a coefficient's numerator and denominator hold together,
# so no product in a script multiplies more than MAX_TERMS^2 term pairs
MAX_TERMS = 1024
_PUNCT = frozenset("()<>,;=+*/^")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", or the punctuation character itself
    value: str
    line: int
    column: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass(frozen=True)
class FormDef:
    """A named form of a script; its coefficients are `form.coeffs`."""
    name: str
    form: QuasilinearForm


@dataclass(frozen=True)
class Command:
    name: str
    args: Tuple[str, ...]
    line: int
    column: int


@dataclass(frozen=True)
class Script:
    field: FieldTower
    forms: Tuple[FormDef, ...]
    commands: Tuple[Command, ...]

    def form_by_name(self, name: str) -> FormDef:
        for fd in self.forms:
            if fd.name == name:
                return fd
        raise KeyError(name)

    def render(self) -> str:
        """Canonical text whose parse is equivalent to this script: each
        coefficient is printed as its `str`, whatever text defined it."""
        lines = []
        if self.field.base_vars:
            lines.append("field F2(" + ", ".join(self.field.base_vars) + ");")
        for fd in self.forms:
            lines.append(f"form {fd.name} = <"
                         + ", ".join(map(str, fd.form.coeffs)) + ">;")
        for cmd in self.commands:
            lines.append(" ".join((cmd.name,) + cmd.args) + ";")
        return "\n".join(lines) + "\n"


class _Parser:
    """Recursive descent over the token list; evaluates each coefficient
    expression in F2(declared names) and lifts the result into the field."""

    def __init__(self, tokens: List[Token],
                 depth_limit: int = DEFAULT_DEPTH_LIMIT):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0
        self.field = FieldTower.rational((), depth_limit=depth_limit)
        self.field_declared = False
        self.forms: List[FormDef] = []
        self.form_names: Dict[str, int] = {}
        self.commands: List[Command] = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(tok, f"expected {what}, found "
                           f"{tok.value or 'end of input'!r}")
        return self.next()

    def fail(self, tok: Token, message: str):
        raise DslSyntaxError(message, tok.line, tok.column)

    def bounded(self, tok: Token, value: RatFn, power: int = 1) -> RatFn:
        """`value`, or ResourceLimit at `tok` if it has more than
        MAX_TERMS terms.  With power = k, the bound is on value^n for any
        n with k bits set: value^n = N^n / D^n, and N^n is a product of
        k powers N^(2^i), each with as many terms as N."""
        if (len(value.num.packed) ** power
                + len(value.den.packed) ** power > MAX_TERMS):
            raise ResourceLimit(
                f"line {tok.line}, column {tok.column}: coefficient above "
                f"{MAX_TERMS} terms, the most a script coefficient holds")
        return value

    def parse_script(self) -> Script:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                self.fail(tok, f"expected a statement, found {tok.value!r}")
            if tok.value == "field":
                self.parse_field()
            elif tok.value == "form":
                self.parse_form()
            elif tok.value in COMMAND_ARITY:
                self.parse_command()
            else:
                self.fail(tok, f"unknown statement {tok.value!r}")
        return Script(field=self.field,
                      forms=tuple(self.forms),
                      commands=tuple(self.commands))

    def parse_field(self) -> None:
        kw = self.next()
        if self.field_declared:
            self.fail(kw, "duplicate field declaration")
        if self.forms:
            self.fail(kw, "field must be declared before any form")
        name = self.expect("ident", "'F2'")
        if name.value != "F2":
            self.fail(name, f"the base field is F2, found {name.value!r}")
        self.expect("(", "'('")
        names: List[str] = []
        if self.peek().kind != ")":
            while True:
                v = self.expect("ident", "a variable name")
                if v.value in _KEYWORDS:
                    self.fail(v, f"{v.value!r} cannot name a variable")
                if v.value in names:
                    self.fail(v, f"duplicate variable {v.value!r}")
                names.append(v.value)
                if self.peek().kind != ",":
                    break
                self.next()
        self.expect(")", "')' or ','")
        self.expect(";", "';'")
        self.field = FieldTower.rational(tuple(names),
                                         depth_limit=self.field.depth_limit)
        self.field_declared = True

    def parse_form(self) -> None:
        self.next()
        name = self.expect("ident", "a form name")
        if name.value in _KEYWORDS:
            self.fail(name, f"{name.value!r} cannot name a form")
        if name.value in self.form_names:
            self.fail(name, f"form {name.value!r} is already defined")
        self.expect("=", "'='")
        self.expect("<", "'<'")
        coeffs: List[TowerElem] = []
        while True:
            value = self.parse_expr()
            if value.is_zero:
                raise ZeroCoefficient(
                    f"coefficient {len(coeffs) + 1} of form {name.value!r} "
                    f"is zero")
            coeffs.append(self.field.scalar(value))
            if self.peek().kind != ",":
                break
            self.next()
        self.expect(">", "'>' or ','")
        self.expect(";", "';'")
        form = QuasilinearForm(self.field, coeffs)
        self.form_names[name.value] = len(self.forms)
        self.forms.append(FormDef(name=name.value, form=form))

    def parse_command(self) -> None:
        kw = self.next()
        arity = COMMAND_ARITY[kw.value]
        args: List[str] = []
        for _ in range(arity):
            arg = self.expect("ident", "a form name")
            if arg.value not in self.form_names:
                self.fail(arg, f"form {arg.value!r} is not defined")
            args.append(arg.value)
        self.expect(";", "';'")
        self.commands.append(Command(name=kw.value, args=tuple(args),
                                     line=kw.line, column=kw.column))

    # expression grammar: expr := term (+ term)*; term := factor ((*|/)
    # factor)*; factor := atom (^ INT)?; atom := 0 | 1 | ident | ( expr )

    def parse_expr(self) -> RatFn:
        value = self.parse_term()
        while self.peek().kind == "+":
            op = self.next()
            value = self.bounded(op, value + self.parse_term())
        return value

    def parse_term(self) -> RatFn:
        value = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            rhs = self.parse_factor()
            if op.kind == "*":
                value = self.bounded(op, value * rhs)
            else:
                if rhs.is_zero:
                    self.fail(op, "division by zero")
                value = self.bounded(op, value / rhs)
        return value

    def parse_factor(self) -> RatFn:
        value = self.parse_atom()
        if self.peek().kind == "^":
            op = self.next()
            tok = self.expect("int", "an integer exponent")
            lit = tok.value.lstrip("0") or "0"
            # int() refuses more than 4,300 digits, so count them first
            if len(lit) > len(str(MAX_EXPONENT)) or int(lit) > MAX_EXPONENT:
                raise ResourceLimit(f"line {tok.line}, column {tok.column}: "
                                    f"exponent above {MAX_EXPONENT}")
            exp = int(lit)
            value = self.bounded(op, value, exp.bit_count()) ** exp
        return value

    def parse_atom(self) -> RatFn:
        tok = self.peek()
        if tok.kind == "int":
            if tok.value in ("0", "1"):
                self.next()
                return RatFn.one() if tok.value == "1" else RatFn.zero()
            self.fail(tok, "integers other than 0 and 1 are only "
                           "allowed as exponents")
        if tok.kind == "ident":
            self.next()
            if tok.value in _KEYWORDS:
                self.fail(tok, f"{tok.value!r} cannot appear in an expression")
            if tok.value not in self.field.base_vars:
                raise UndeclaredVariable(
                    f"line {tok.line}, column {tok.column}: variable "
                    f"{tok.value!r} is not declared")
            return RatFn.from_poly(
                Poly.variable(tok.value, self.field.base_vars))
        if tok.kind == "(":
            if self.nesting == MAX_NESTING:
                self.fail(tok, f"parentheses nested deeper than "
                               f"{MAX_NESTING} levels")
            self.next()
            self.nesting += 1
            value = self.parse_expr()
            self.nesting -= 1
            self.expect(")", "')'")
            return value
        self.fail(tok, f"expected an expression, found "
                       f"{tok.value or 'end of input'!r}")


def parse(text: str, depth_limit: int = DEFAULT_DEPTH_LIMIT) -> Script:
    """Parse and validate a script; expressions are evaluated eagerly so
    zero coefficients and undeclared variables surface here."""
    return _Parser(tokenize(text), depth_limit).parse_script()


def scripts_equivalent(a: Script, b: Script) -> bool:
    """Same field, same form names with equal coefficients, same commands."""
    if a.field != b.field:
        return False
    if len(a.forms) != len(b.forms):
        return False
    for fa, fb in zip(a.forms, b.forms):
        if fa.name != fb.name or fa.form.coeffs != fb.form.coeffs:
            return False
    return [(c.name, c.args) for c in a.commands] == \
           [(c.name, c.args) for c in b.commands]
