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

The text is scanned by one compiled pattern into plain (kind, value,
offset) tuples; a line and column are computed from an offset only for an
error or a command.  `tokenize` returns the same tokens with positions.
The recursive descent evaluates each coefficient as it reads it.  A term
that starts with a run of declared variables with literal exponents, such
as a^2*b*a, packs the run into one monomial, adding each exponent into its
variable's slot (gf2poly.monomial_times), and builds it as one Poly, with
no product.
Parentheses, sums, quotients, 0, 1 and the factors after them are RatFn
arithmetic.  Either way a script fails with the same error at the same
token.
"""

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import (
    DslSyntaxError,
    ResourceLimit,
    UndeclaredVariable,
    ZeroCoefficient,
)
from .fieldtower import DEFAULT_DEPTH_LIMIT, FieldTower, TowerElem
from .forms import QuasilinearForm
from .gf2poly import MAX_EXPONENT, Poly, RatFn, monomial_times

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

# token kinds: the number of the scanner's group that matched
_EOF, _INT, _IDENT, _PUNCT, _BAD = range(5)
_Token = Tuple[int, str, int]  # kind, value, offset
_BLANKS = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
# one token per match, with the blanks and comments after it; `\w` is
# exactly str.isalnum() or "_", and ASCII digits start an integer.  An
# unexpected character swallows the rest of the text, so it can only be
# the last match
_SCAN = re.compile(r"(?:([0-9]+)|(\w+)|([()<>,;=+*/^])|(.[\s\S]*))"
                   + _BLANKS)
_LEADING = re.compile(_BLANKS)


def _scan(text: str) -> List[_Token]:
    """(kind, value, offset) for each token of `text`, then an end token;
    DslSyntaxError at the first character no token starts with."""
    tokens = [(m.lastindex, m[m.lastindex], m.start())
              for m in _SCAN.finditer(text, _LEADING.match(text).end())]
    if not text.isascii():
        # a non-ASCII digit or numeral is a word character, but starts no
        # identifier; ASCII words start with a letter or "_"
        for kind, value, offset in tokens:
            if kind == _IDENT and not (value[0].isalpha() or value[0] == "_"):
                _bad_character(text, offset)
    if tokens and tokens[-1][0] == _BAD:
        _bad_character(text, tokens[-1][2])
    # a comment on the last line does not move the end
    last = text.rfind("\n") + 1
    comment = text.find("#", last)
    tokens.append((_EOF, "", len(text) if comment < 0 else comment))
    return tokens


def _position(text: str, offset: int) -> Tuple[int, int]:
    """1-based line and column of `offset` in `text`."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def _bad_character(text: str, offset: int):
    raise DslSyntaxError(f"unexpected character {text[offset]!r}",
                         *_position(text, offset))


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "eof", or the punctuation character itself
    value: str
    line: int
    column: int


def tokenize(text: str) -> List[Token]:
    """The tokens the parser reads, with their line and column."""
    names = ("eof", "int", "ident")
    out: List[Token] = []
    line, last = 1, 0
    for kind, value, offset in _scan(text):
        line += text.count("\n", last, offset)
        last = offset
        out.append(Token(value if kind == _PUNCT else names[kind], value,
                         line, offset - text.rfind("\n", 0, offset)))
    return out


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
    """Recursive descent over the scanned tokens; evaluates each coefficient
    expression in F2(declared names) and lifts the result into the field."""

    def __init__(self, text: str, depth_limit: int = DEFAULT_DEPTH_LIMIT):
        self.text = text
        self.tokens = _scan(text)
        self.pos = 0
        self.nesting = 0
        self.depth_limit = depth_limit
        # the declared field, or F2() once a form or the end needs one
        self.field: Optional[FieldTower] = None
        self.field_declared = False
        self.forms: List[FormDef] = []
        self.form_names: Dict[str, int] = {}
        self.commands: List[Command] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, punct: str, what: str) -> _Token:
        if self.tokens[self.pos][1] != punct:
            self.unexpected(what)
        return self.next()

    def expect_ident(self, what: str) -> _Token:
        if self.tokens[self.pos][0] != _IDENT:
            self.unexpected(what)
        return self.next()

    def unexpected(self, what: str):
        tok = self.peek()
        self.fail(tok, f"expected {what}, found {tok[1] or 'end of input'!r}")

    def where(self, tok: _Token) -> str:
        return "line {}, column {}".format(*_position(self.text, tok[2]))

    def fail(self, tok: _Token, message: str):
        raise DslSyntaxError(message, *_position(self.text, tok[2]))

    def bounded(self, tok: _Token, value: RatFn, power: int = 1) -> RatFn:
        """`value`, or ResourceLimit at `tok` if it has more than
        MAX_TERMS terms.  With power = k, the bound is on value^n for any
        n with k bits set: value^n = N^n / D^n, and N^n is a product of
        k powers N^(2^i), each with as many terms as N."""
        if (len(value.num.packed) ** power
                + len(value.den.packed) ** power > MAX_TERMS):
            raise ResourceLimit(
                f"{self.where(tok)}: coefficient above {MAX_TERMS} terms, "
                f"the most a script coefficient holds")
        return value

    def parse_script(self) -> Script:
        while self.peek()[0] != _EOF:
            tok = self.peek()
            if tok[0] != _IDENT:
                self.fail(tok, f"expected a statement, found {tok[1]!r}")
            if tok[1] == "field":
                self.parse_field()
            elif tok[1] == "form":
                self.parse_form()
            elif tok[1] in COMMAND_ARITY:
                self.parse_command()
            else:
                self.fail(tok, f"unknown statement {tok[1]!r}")
        return Script(field=self.field_or_default(),
                      forms=tuple(self.forms),
                      commands=tuple(self.commands))

    def parse_field(self) -> None:
        kw = self.next()
        if self.field_declared:
            self.fail(kw, "duplicate field declaration")
        if self.forms:
            self.fail(kw, "field must be declared before any form")
        tok = self.expect_ident("'F2'")
        if tok[1] != "F2":
            self.fail(tok, f"the base field is F2, found {tok[1]!r}")
        self.expect("(", "'('")
        names: List[str] = []
        if self.peek()[1] != ")":
            while True:
                tok = self.expect_ident("a variable name")
                v = tok[1]
                if v in _KEYWORDS:
                    self.fail(tok, f"{v!r} cannot name a variable")
                if v in names:
                    self.fail(tok, f"duplicate variable {v!r}")
                names.append(v)
                if self.peek()[1] != ",":
                    break
                self.next()
        self.expect(")", "')' or ','")
        self.expect(";", "';'")
        self.field = FieldTower.rational(tuple(names),
                                         depth_limit=self.depth_limit)
        self.field_declared = True

    def field_or_default(self) -> FieldTower:
        """The declared field, F2() if none was declared first."""
        if self.field is None:
            self.field = FieldTower.rational((), depth_limit=self.depth_limit)
        return self.field

    def parse_form(self) -> None:
        self.next()
        self.field_or_default()
        tok = self.expect_ident("a form name")
        name = tok[1]
        if name in _KEYWORDS:
            self.fail(tok, f"{name!r} cannot name a form")
        if name in self.form_names:
            self.fail(tok, f"form {name!r} is already defined")
        self.expect("=", "'='")
        self.expect("<", "'<'")
        coeffs: List[TowerElem] = []
        while True:
            value = self.parse_expr()
            if value.is_zero:
                raise ZeroCoefficient(
                    f"coefficient {len(coeffs) + 1} of form {name!r} "
                    f"is zero")
            # check_declared passed every name in it: no second name check
            coeffs.append(TowerElem(self.field, {0: value}))
            if self.peek()[1] != ",":
                break
            self.next()
        self.expect(">", "'>' or ','")
        self.expect(";", "';'")
        form = QuasilinearForm(self.field, coeffs)
        self.form_names[name] = len(self.forms)
        self.forms.append(FormDef(name=name, form=form))

    def parse_command(self) -> None:
        kw = self.next()
        args: List[str] = []
        for _ in range(COMMAND_ARITY[kw[1]]):
            tok = self.expect_ident("a form name")
            if tok[1] not in self.form_names:
                self.fail(tok, f"form {tok[1]!r} is not defined")
            args.append(tok[1])
        self.expect(";", "';'")
        line, column = _position(self.text, kw[2])
        self.commands.append(Command(name=kw[1], args=tuple(args),
                                     line=line, column=column))

    # expression grammar: expr := term (+ term)*; term := (run | factor)
    # ((*|/) factor)*; run := ident (^ INT)? (* ident (^ INT)?)*;
    # factor := atom (^ INT)?; atom := 0 | 1 | ident | ( expr )

    def parse_expr(self) -> RatFn:
        value = self.parse_term()
        while self.peek()[1] == "+":
            op = self.next()
            value = self.bounded(op, value + self.parse_term())
        return value

    def parse_term(self) -> RatFn:
        if self.peek()[0] == _IDENT:
            value = self.parse_monomial()
        else:
            value = self.parse_factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()
            rhs = self.parse_factor()
            if op[1] == "*":
                value = self.bounded(op, value * rhs)
            else:
                if rhs.is_zero:
                    self.fail(op, "division by zero")
                value = self.bounded(op, value / rhs)
        return value

    def parse_monomial(self) -> RatFn:
        """The leading run ident (^ INT)? (* ident (^ INT)?)* of a term as
        one packed monomial (gf2poly.monomial_times).  Its exponents pass
        MAX_EXPONENT exactly where the product of the factors read so far
        would, and a monomial has one term, under every bound, so the run
        fails where and as the product does."""
        tokens = self.tokens
        mono = 0
        while True:
            tok = self.next()
            self.check_declared(tok)
            e = 1
            if tokens[self.pos][1] == "^":
                self.pos += 1
                e = self.parse_exponent()
            mono = monomial_times(mono, tok[1], e)
            if tokens[self.pos][1] != "*" or tokens[self.pos + 1][0] != _IDENT:
                return RatFn.from_poly(Poly.monomial(mono))
            self.pos += 1

    def parse_factor(self) -> RatFn:
        value = self.parse_atom()
        if self.peek()[1] == "^":
            op = self.next()
            exp = self.parse_exponent()
            value = self.bounded(op, value, exp.bit_count()) ** exp
        return value

    def parse_exponent(self) -> int:
        tok = self.peek()
        if tok[0] != _INT:
            self.unexpected("an integer exponent")
        self.pos += 1
        lit = tok[1].lstrip("0") or "0"
        # int() refuses more than 4,300 digits, so count them first
        if len(lit) > len(str(MAX_EXPONENT)) or int(lit) > MAX_EXPONENT:
            raise ResourceLimit(
                f"{self.where(tok)}: exponent above {MAX_EXPONENT}")
        return int(lit)

    def check_declared(self, tok: _Token) -> None:
        """Fail unless the variable `tok` is declared (a keyword never
        is)."""
        name = tok[1]
        if name not in self.field.base_vars:
            if name in _KEYWORDS:
                self.fail(tok, f"{name!r} cannot appear in an expression")
            raise UndeclaredVariable(
                f"{self.where(tok)}: variable {name!r} is not declared")

    def parse_atom(self) -> RatFn:
        tok = self.peek()
        if tok[0] == _INT:
            if tok[1] in ("0", "1"):
                self.next()
                return RatFn.one() if tok[1] == "1" else RatFn.zero()
            self.fail(tok, "integers other than 0 and 1 are only "
                           "allowed as exponents")
        if tok[0] == _IDENT:
            self.next()
            self.check_declared(tok)
            return RatFn.from_poly(
                Poly.variable(tok[1], self.field.base_vars))
        if tok[1] == "(":
            if self.nesting == MAX_NESTING:
                self.fail(tok, f"parentheses nested deeper than "
                               f"{MAX_NESTING} levels")
            self.next()
            self.nesting += 1
            value = self.parse_expr()
            self.nesting -= 1
            self.expect(")", "')'")
            return value
        self.unexpected("an expression")


def parse(text: str, depth_limit: int = DEFAULT_DEPTH_LIMIT) -> Script:
    """Parse and validate a script; expressions are evaluated eagerly so
    zero coefficients and undeclared variables surface here."""
    return _Parser(text, depth_limit).parse_script()


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
