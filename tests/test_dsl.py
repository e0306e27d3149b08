"""Script parsing, report generation, the built-in corpus, and the
command-line entry point with its exit codes."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import quasiform.cli as cli
from quasiform.birational import decide_birational, decide_stably_equivalent
from quasiform.corpus import CASES, run_corpus
from quasiform.dsl import (
    MAX_NESTING,
    MAX_TERMS,
    parse,
    scripts_equivalent,
    tokenize,
)
from quasiform.errors import (
    DimensionTooSmall,
    DslSyntaxError,
    IsotropicInput,
    ResourceLimit,
    UndeclaredVariable,
    ZeroCoefficient,
)
from quasiform.fieldtower import DEFAULT_DEPTH_LIMIT, FieldTower, TowerElem
from quasiform.forms import QuasilinearForm, invariants, is_anisotropic
from quasiform.gf2poly import MAX_EXPONENT, Poly, RatFn
from quasiform.pfister import norm_degree
from quasiform.splitting import essential_dimension, first_witt_index

from oracles import sample_expression, sample_monomial_form


class TestTokenizer:
    def test_positions(self):
        toks = tokenize("field F2(a);\nform p = <a>;")
        assert toks[0].value == "field" and toks[0].line == 1
        forms = [t for t in toks if t.value == "form"]
        assert forms[0].line == 2 and forms[0].column == 1

    def test_bad_character(self):
        with pytest.raises(DslSyntaxError) as exc:
            tokenize("field F2(a)$")
        assert exc.value.line == 1 and exc.value.column == 12

    def test_comments_skipped(self):
        toks = tokenize("# a comment\nfield # mid\nF2")
        assert [t.value for t in toks] == ["field", "F2", ""]

    def test_non_ascii_identifiers_keep_tokens_and_positions(self):
        # a letter starts a name, and any letter or digit continues it;
        # columns count characters
        toks = tokenize("field F2(\u00e9, a\u00b2, \u0394x_1);\n"
                        "form p = <\u00e9*a\u00b2^3>; # \u00b2 end")
        assert [(t.kind, t.value, t.line, t.column) for t in toks[3:8]] == [
            ("ident", "\u00e9", 1, 10), (",", ",", 1, 11),
            ("ident", "a\u00b2", 1, 13), (",", ",", 1, 15),
            ("ident", "\u0394x_1", 1, 17)]
        assert [(t.kind, t.value, t.column) for t in toks[14:]] == [
            ("ident", "\u00e9", 11), ("*", "*", 12),
            ("ident", "a\u00b2", 13), ("^", "^", 15), ("int", "3", 16),
            (">", ">", 17), (";", ";", 18), ("eof", "", 20)]
        s = parse("field F2(\u00e9, a\u00b2);\nform p = <\u00e9*a\u00b2^3>;")
        assert str(s.forms[0].form.coeffs[0]) == "a\u00b2^3*\u00e9"

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff13",
                                       "\u0663a", "\u2165"])
    def test_integers_are_ascii_digits(self, digit):
        # superscript two, Arabic-Indic three, fullwidth three, and the
        # numeral six: word characters, but no letter starts them
        with pytest.raises(DslSyntaxError,
                           match="unexpected character") as exc:
            parse(f"field F2(a);\nform p = <1, a^{digit}>;")
        assert exc.value.line == 2 and exc.value.column == 16


class TestParser:
    def test_example_script(self):
        s = parse("field F2(a,b); form p = <1,a,b,a*b>; invariants p;")
        assert s.field.base_vars == ("a", "b")
        assert [fd.name for fd in s.forms] == ["p"]
        assert s.forms[0].form.dim == 4
        assert [(c.name, c.args) for c in s.commands] == \
            [("invariants", ("p",))]

    def test_zero_coefficient(self):
        with pytest.raises(ZeroCoefficient):
            parse("form p = <1, 0>;")
        with pytest.raises(ZeroCoefficient):
            parse("field F2(a); form p = <a + a>;")

    def test_zero_coefficient_names_its_position(self):
        with pytest.raises(ZeroCoefficient, match="coefficient 3 of form 'p'"):
            parse("field F2(a); form p = <1, a, a + a>;")

    def test_undeclared_variable(self):
        with pytest.raises(UndeclaredVariable):
            parse("form p = <x>;")
        with pytest.raises(UndeclaredVariable):
            parse("field F2(a); form p = <a*z>;")

    def test_syntax_error_positions(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("field F2(a);\nform p = <a*>;")
        assert exc.value.line == 2 and exc.value.column == 13

    def test_constants_only_field(self):
        s = parse("form p = <1, 1+1+1>; invariants p;")
        assert s.field.base_vars == ()
        assert s.forms[0].form.dim == 2

    def test_default_field_is_built_only_when_none_is_declared(
            self, monkeypatch):
        """A script without a field declaration gets F2() with the parser's
        depth limit; a declared field is the only tower built."""
        built = []
        rational = FieldTower.rational

        def recording(names, depth_limit=DEFAULT_DEPTH_LIMIT):
            built.append(tuple(names))
            return rational(names, depth_limit)

        monkeypatch.setattr(FieldTower, "rational", staticmethod(recording))
        for text in ("form p = <1, 1+1+1>; invariants p;", "corpus;", ""):
            del built[:]
            field = parse(text, depth_limit=3).field
            assert field == FieldTower(()) and field.depth_limit == 3
            assert built == [()]
        del built[:]
        field = parse("field F2(a, b); form p = <a, b>;", depth_limit=5).field
        assert field.base_vars == ("a", "b") and field.depth_limit == 5
        assert built == [("a", "b")]

    def test_command_checks_form_names(self):
        with pytest.raises(DslSyntaxError):
            parse("compare p q;")
        with pytest.raises(DslSyntaxError):
            parse("field F2(a); form p = <a>; compare p q;")

    def test_duplicate_and_ordering_rules(self):
        with pytest.raises(DslSyntaxError):
            parse("field F2(a); field F2(b);")
        with pytest.raises(DslSyntaxError, match="before any form"):
            parse("form p = <1>; field F2(a);")
        with pytest.raises(DslSyntaxError):
            parse("field F2(a); form p = <a>; form p = <1>;")
        with pytest.raises(DslSyntaxError):
            parse("field F2(a, a);")

    def test_expression_grammar(self):
        s = parse("field F2(a,b); form p = <(a+b)^2/b, 1/(a*b)^3, a^0>;")
        coeffs = s.forms[0].form.coeffs
        a, b = s.field.var("a"), s.field.var("b")
        assert coeffs[0] == (a.square() + b.square()) * b.invert()
        assert coeffs[1] == (a * b).invert() ** 3
        assert coeffs[2] == s.field.one()

    def test_integer_literals_only_as_exponents(self):
        with pytest.raises(DslSyntaxError):
            parse("field F2(a); form p = <3*a>;")
        with pytest.raises(DslSyntaxError):
            parse("field F2(a); form p = <a^b>;")

    def test_division_by_zero_expression(self):
        with pytest.raises(DslSyntaxError):
            parse("field F2(a); form p = <1/(a+a)>;")

    def test_coefficient_terms_are_bounded(self, monkeypatch):
        field = "field F2(a,b,c,d); form p = <1, {}>;"
        # (a+b)^511 has 512 terms, over a denominator of 512 terms
        at_limit = parse(field.format("(a+b)^511/(c+d)^511"))
        fn = at_limit.forms[0].form.coeffs[1].coeffs[0]
        assert len(fn.num.terms) + len(fn.den.terms) == MAX_TERMS
        # one term over the limit, found after a product and after a sum
        for expr, column in (("(a+b)^511*(c+d)", 42),
                             ("(a+b)^511+(c+d)^511", 42)):
            with pytest.raises(ResourceLimit, match=f"column {column}: "
                               f"coefficient above {MAX_TERMS} terms"):
                parse(field.format(expr))
        # a power is refused on the bound 4^8 + 1 before it is taken
        powers = []
        real = RatFn.__pow__
        monkeypatch.setattr(RatFn, "__pow__",
                            lambda x, n: powers.append(n) or real(x, n))
        with pytest.raises(ResourceLimit, match=f"above {MAX_TERMS} terms"):
            parse(field.format("(a+b+c+1)^255"))
        assert powers == []

    def test_exponent_literals_are_bounded(self):
        with pytest.raises(ResourceLimit, match=f"line 1, column 26: "
                           f"exponent above {MAX_EXPONENT}"):
            parse(f"field F2(a); form p = <1^{MAX_EXPONENT + 1}>;")
        # leading zeros do not count towards the bound
        s = parse("field F2(a); form p = <a^" + "0" * 5000 + "3>;")
        assert s.forms[0].form.coeffs[0] == s.field.var("a") ** 3

    def test_coefficients_are_lifted_once(self, monkeypatch):
        calls = Counter()

        def count(cls, name):
            real = getattr(cls, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(cls, name, counted)

        for name in ("__add__", "__mul__", "invert", "__pow__", "__init__"):
            count(TowerElem, name)
        count(FieldTower, "scalar")
        parse("field F2(a,b,c); form p = <(a+b)^3/c, a*(b+1)^2, 1/(a+c)>;"
              "form q = <1, ((a*b)^2 + c)/(b+c)^0>;")
        # one TowerElem built per coefficient, with no second name check
        assert calls == {"__init__": 5}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_coefficients_match_tower_arithmetic(self, data):
        """Reference: the same expression evaluated with FieldTower.var and
        TowerElem arithmetic."""
        F = FieldTower.rational(("a", "b", "c"))
        atoms = st.sampled_from(["0", "1", "a", "b", "c"])

        def exprs(depth):
            if depth == 0:
                return atoms
            sub = exprs(depth - 1)
            return st.one_of(atoms,
                             st.tuples(st.sampled_from("+*/"), sub, sub),
                             st.tuples(st.just("^"), sub,
                                       st.integers(0, 5)))

        def text(e):
            return e if isinstance(e, str) else f"({render(e)})"

        def render(e):
            if isinstance(e, str):
                return e
            op, x, y = e
            return f"{text(x)}{op}{y if op == '^' else text(y)}"

        def value(e):
            if e in ("0", "1"):
                return F.one() if e == "1" else F.zero()
            if isinstance(e, str):
                return F.var(e)
            op, x, y = e
            if op == "^":
                return value(x) ** y
            x, y = value(x), value(y)
            if op == "+":
                return x + y
            if op == "*":
                return x * y
            if y.is_zero:
                raise ZeroDivisionError
            return x * y.invert()

        expr = data.draw(exprs(3))
        script = f"field F2(a, b, c); form p = <{render(expr)}>;"
        try:
            expected = value(expr)
        except ZeroDivisionError:
            with pytest.raises(DslSyntaxError, match="division by zero"):
                parse(script)
            return
        if expected.is_zero:
            with pytest.raises(ZeroCoefficient):
                parse(script)
            return
        assert parse(script).forms[0].form.coeffs == (expected,)

    def test_coefficients_match_the_expression_oracle(self):
        """Seeded: sums, products, quotients, runs of repeated variables
        with powers, 0, 1 and nested powers of parentheses, each against
        its value computed factor by factor (oracles.sample_expression)."""
        rng = random.Random(27)
        outcomes = Counter()
        for _ in range(400):
            text, value = sample_expression(rng, ("a", "b", "c"))
            script = f"field F2(a, b, c);\nform p = <1, {text}>;\n"
            if value is None:
                with pytest.raises(DslSyntaxError, match="division by zero"):
                    parse(script)
                outcomes["division by zero"] += 1
            elif value.is_zero:
                with pytest.raises(ZeroCoefficient):
                    parse(script)
                outcomes["zero"] += 1
            else:
                s = parse(script)
                assert s.forms[0].form.coeffs[1] == s.field.scalar(value)
                assert scripts_equivalent(s, parse(s.render()))
                outcomes["value"] += 1
        assert min(outcomes.values()) >= 20 and outcomes["value"] >= 250

    def test_variable_runs_equal_their_products(self):
        s = parse("field F2(a, b);\nform p = <a*a, a^2, b*a^3*b^0*a, "
                  "a^4*b, a*b^2*b/b, a*b^2*b^0*(b+1)>;")
        c = s.forms[0].form.coeffs
        a, b = s.field.var("a"), s.field.var("b")
        assert c[0] == c[1] == a.square()
        assert c[2] == c[3] == a ** 4 * b
        assert c[4] == a * b ** 2
        assert c[5] == a * b ** 2 * (b + s.field.one())

    @pytest.mark.parametrize("expr", ["a^20000*a^20000", "a^32767*a",
                                      "b*a^16384*b*a^16384"])
    def test_variable_runs_keep_the_exponent_limit(self, expr):
        with pytest.raises(ResourceLimit,
                           match=f"^exponent above {MAX_EXPONENT}, the "
                                 f"largest a polynomial holds$"):
            parse(f"field F2(a, b); form p = <1, {expr}*c>;")
        s = parse("field F2(a); form p = <a^32766*a>;")
        assert s.forms[0].form.coeffs[0] == s.field.var("a") ** MAX_EXPONENT

    @pytest.mark.parametrize("expr, error, column", [
        ("a*b^2*z*a", UndeclaredVariable, 20),
        ("a*b^2*form*a", DslSyntaxError, 20),
        ("a*b^2*a*F2", DslSyntaxError, 22),
        ("a^2*b^x", DslSyntaxError, 20),
    ])
    def test_variable_runs_report_the_failing_token(self, expr, error,
                                                   column):
        with pytest.raises(error, match=f"line 2, column {column}: "):
            parse(f"field F2(a, b);\nform p = <1, {expr}>;")

    def test_monomial_coefficients_multiply_nothing(self, monkeypatch):
        """A coefficient that is a run of variables is one packed
        monomial: parsing multiplies no polynomial or fraction."""
        calls = Counter()

        def count(cls, name):
            real = getattr(cls, name)

            def counted(*args):
                calls[cls.__name__] += 1
                return real(*args)
            monkeypatch.setattr(cls, name, counted)

        count(Poly, "__mul__")
        count(RatFn, "__mul__")
        rng = random.Random(5)
        names = ("a", "b", "c", "d")
        for dim in range(1, 9):
            exponents = [[rng.choice((0, 0, 1, 2, 3)) for _ in names]
                         for _ in range(dim)]
            body = ", ".join(
                "*".join(v if e == 1 else f"{v}^{e}"
                         for v, e in zip(names, exps) if e) or "1"
                for exps in exponents)
            s = parse(f"field F2(a, b, c, d);\nform q = <{body}>;\n"
                      f"form r = <a*b*a*c^2*a, d, b^0*c>;\ninvariants q;")
            assert [str(c) for c in s.forms[0].form.coeffs] == body.split(", ")
        assert calls == {}
        # the counters see the factors that are not a leading run
        parse("field F2(a, b); form p = <(a+b)*a, 1*a>;")
        assert calls == {"RatFn": 2, "Poly": 2}

    def test_render_round_trip(self):
        text = ("field F2(a, b, c);\n"
                "form q1 = <1, a, b, a*b, c>;\n"
                "form q2 = <(a+b)^3/c, 1>;\n"
                "invariants q1;\ncompare q1 q2;\nsplitting q2;\ncorpus;\n")
        s = parse(text)
        assert scripts_equivalent(s, parse(s.render()))

    def test_render_prints_canonical_coefficients(self):
        s = parse("field F2(a, b);\nform q = <(a+b)^2, 1/a, a^3/b>;\n")
        coeffs = s.forms[0].form.coeffs
        assert s.render() == ("field F2(a, b);\nform q = <"
                              + ", ".join(str(c) for c in coeffs) + ">;\n")
        assert [str(c) for c in coeffs] == ["a^2+b^2", "(1)/(a)",
                                            "(a^3)/(b)"]
        assert scripts_equivalent(s, parse(s.render()))

    @given(st.lists(st.sampled_from(
        ["1", "a", "b", "a*b", "a+1", "(a+b)^2", "1/a", "a^3/b"]),
        min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, exprs):
        text = "field F2(a, b);\nform p = <" + ", ".join(exprs) + ">;\n"
        s = parse(text)
        assert scripts_equivalent(s, parse(s.render()))


class TestRun:
    def test_invariants_report(self):
        s = parse("field F2(a,b); form p = <1,a,b,a*b>; invariants p;")
        report = cli.run(s)
        assert set(report) == {"version", "field", "forms", "results"}
        entry = report["results"][0]
        assert entry["total_index"] == 0
        assert entry["first_witt_index"] == 2
        assert entry["splitting_pattern"] == [4, 2, 1]
        assert entry["essential_dimension"] == 1
        assert entry["norm_degree"] == 4

    def test_compare_report(self):
        s = parse("field F2(a,b,c);"
                  "form q1 = <1,a,b,a*b,c>; form q2 = <1,a,c,a*c,b>;"
                  "compare q1 q2;")
        entry = cli.run(s)["results"][0]
        assert entry["similar"] is False
        assert entry["birational"] is True
        assert entry["stably_equivalent"] is True

    def test_ruling_report_with_verification(self):
        s = parse("field F2(a,b); form p = <1,a,b,a*b>; ruling p;")
        entry = cli.run(s, verify_certificates=True)["results"][0]
        assert entry["ruled"] is True
        assert entry["witt_index"] == 2
        assert entry["subquadric"] == ["1", "a", "b"]
        assert entry["certificate_verified"] is True
        assert len(entry["fibers"]) == 2
        # without the flag the verification key is absent
        entry = cli.run(s)["results"][0]
        assert "certificate_verified" not in entry

    def test_ruling_report_not_ruled(self):
        s = parse("field F2(a,b,c); form q = <1,a,b,a*b,c>; ruling q;")
        entry = cli.run(s)["results"][0]
        assert entry["ruled"] is False and "reason" in entry

    def test_regular_and_splitting_reports(self):
        s = parse("field F2(a,b,c); form q = <1,a,b,a*b,c>;"
                  "regular q; splitting q;")
        regular, splitting = cli.run(s)["results"]
        assert regular["regular"] is False
        assert splitting["splitting_pattern"][0] == 5
        assert splitting["witt_increments"][0] == 1

    def test_isotropic_form_reports_null_witt_data(self):
        s = parse("field F2(a); form q = <a, a^3>; invariants q;")
        entry = cli.run(s)["results"][0]
        assert entry["total_index"] == 1
        assert entry["first_witt_index"] is None
        assert entry["norm_degree"] is None

    def test_report_bytes_deterministic(self):
        text = ("field F2(a,b); form p = <1,a,b,a*b>;"
                "invariants p; ruling p; corpus;")
        r1 = json.dumps(cli.run(parse(text)), indent=2)
        r2 = json.dumps(cli.run(parse(text)), indent=2)
        assert r1 == r2


def _script(field, forms, command):
    lines = [f"field F2({', '.join(field.base_vars)});"]
    for name, q in forms.items():
        lines.append(f"form {name} = <"
                     + ", ".join(str(c) for c in q.coeffs) + ">;")
    return "\n".join(lines + [command + ";"])


def _frozen_forms():
    F = FieldTower.rational(("a", "b", "c"))
    a, b, c, one = F.var("a"), F.var("b"), F.var("c"), F.one()
    forms = [QuasilinearForm(F, coeffs) for coeffs in (
        [one, a, b, a * b],                              # pfister2
        [one, a, b, a * b, c, a * c, b * c, a * b * c],  # pfister3
        [one, a, b, a * b, c],                           # five_dim
        [one, a, b],                                     # three_dim_neighbor
        [one, a, c, a * c, b])]
    for n in (2, 3, 4):
        G = FieldTower.rational(tuple(f"t{i}" for i in range(1, n + 1)))
        forms.append(QuasilinearForm(G, [G.var(v) for v in G.base_vars]))
    return forms


class TestCommandShortcuts:
    """`invariants` reads the total index and i1 off the splitting pattern
    and `compare` reuses its stable-equivalence verdict; both must agree
    with the library."""

    def _sampled(self, seed, count, only_anisotropic=True, min_dim=2):
        rng = random.Random(seed)
        F = FieldTower.rational(("a", "b", "c"))
        forms = []
        while len(forms) < count:
            q, _ = sample_monomial_form(rng, F, rng.randint(min_dim, 4), 3)
            if not only_anisotropic or is_anisotropic(q):
                forms.append(q)
        return forms

    def test_invariants_report_matches_forms_and_norm_degree(self):
        F = FieldTower.rational(("a", "b", "c"))
        a, b, one = F.var("a"), F.var("b"), F.one()
        isotropic = [QuasilinearForm(F, coeffs) for coeffs in (
            [a, a ** 3, b],
            [one, a, b, a * b, a * b ** 3],
            [one, a * b ** 2])]
        sampled = self._sampled(41, 16, only_anisotropic=False, min_dim=1)
        assert any(not is_anisotropic(q) for q in sampled)
        for q in _frozen_forms() + isotropic + sampled:
            entry = cli.run(parse(_script(q.field, {"q": q},
                                          "invariants q")))["results"][0]
            inv = invariants(q)
            assert entry["total_index"] == inv.total_index
            assert entry["anisotropic_dim"] == inv.anisotropic_dim
            assert entry["anisotropic"] == is_anisotropic(q)
            if is_anisotropic(q):
                assert entry["norm_degree"] == norm_degree(q)[0]
            else:
                assert entry["norm_degree"] is None
                with pytest.raises(IsotropicInput):
                    norm_degree(q)

    def test_invariants_match_splitting(self):
        for q in _frozen_forms() + self._sampled(31, 12):
            entry = cli.run(parse(_script(q.field, {"q": q},
                                          "invariants q")))["results"][0]
            assert entry["first_witt_index"] == first_witt_index(q)
            assert entry["essential_dimension"] == essential_dimension(q)

    def test_compare_birational_matches_library(self):
        # the 5-dim forms are birational but not similar (FROZEN five_dim)
        frozen = [q for q in _frozen_forms()
                  if q.field.base_vars == ("a", "b", "c") and q.dim <= 5]
        forms = frozen + self._sampled(37, 4)
        for i, p in enumerate(forms):
            for q in forms[i + 1:]:
                entry = cli.run(parse(_script(
                    p.field, {"p": p, "q": q}, "compare p q")))["results"][0]
                assert entry["birational"] == decide_birational(p, q)

    def test_compare_reads_stable_equivalence_off_similarity(self):
        """Similar forms of dim >= 2 are stably equivalent without a
        function field; a similar pair of dim 1 still fails as stable
        equivalence does."""
        frozen = [q for q in _frozen_forms()
                  if q.field.base_vars == ("a", "b", "c") and q.dim <= 5]
        for p in frozen + self._sampled(43, 4):
            F = p.field
            q = p.scale(F.var("a") * F.var("c") + F.one())
            entry = cli.run(parse(_script(
                F, {"p": p, "q": q}, "compare p q")))["results"][0]
            assert entry["similar"]
            assert entry["stably_equivalent"] == \
                decide_stably_equivalent(p, q)
            assert entry["birational"] == decide_birational(p, q)
        with pytest.raises(DimensionTooSmall,
                           match="stable equivalence needs dimension"):
            cli.run(parse("field F2(a,b); form p = <a>; form q = <b>;"
                          "compare p q;"))


class TestCorpus:
    def test_all_cases_pass(self):
        results = run_corpus()
        assert len(results) == len(CASES)
        failed = [r for r in results if not r["ok"]]
        assert failed == []

    def test_mismatch_reporting(self, monkeypatch):
        name, compute, expected = CASES[0]
        wrong = dict(expected)
        wrong["total_index"] = 99
        monkeypatch.setattr("quasiform.corpus.CASES",
                            [(name, compute, wrong)])
        results = run_corpus()
        assert not results[0]["ok"]
        keys = [m["key"] for m in results[0]["mismatches"]]
        assert keys == ["total_index"]


# <1, a, a*b^2> is isotropic: a*b^2 is a square times a
ISOTROPIC_PAIR = b"field F2(a,b); form p = <1, a, a*b^2>; form q = <1, b>;"


class TestMain:
    def write(self, tmp_path, text):
        path = tmp_path / "script.qf"
        path.write_text(text)
        return str(path)

    def test_success_and_json_output(self, tmp_path, capsys):
        script = self.write(tmp_path,
                            "field F2(a,b); form p = <1,a,b,a*b>;"
                            "invariants p;")
        out = tmp_path / "report.json"
        assert cli.main(["run", script, "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"][0]["first_witt_index"] == 2
        human = capsys.readouterr().out
        assert "invariants p" in human

    def test_json_to_stdout(self, tmp_path, capsys):
        script = self.write(tmp_path, "form p = <1>; invariants p;")
        assert cli.main(["run", script, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["forms"] == {"p": ["1"]}

    @pytest.mark.parametrize("script, json_out", [
        pytest.param(b"form p = <1, 0>;", None, id="bad-script"),
        pytest.param(None, None, id="missing-file"),
        pytest.param("directory", None, id="directory"),
        pytest.param(b"\xff\xfe", None, id="not-utf8"),
        pytest.param(b"form p = <1>; invariants p;", "missing/out.json",
                     id="unwritable-json"),
        pytest.param(ISOTROPIC_PAIR + b"compare p q;", None,
                     id="isotropic-compare"),
        pytest.param(ISOTROPIC_PAIR + b"compare q p;", None,
                     id="isotropic-compare-swapped"),
    ])
    def test_input_error_exit(self, tmp_path, capsys, script, json_out):
        path = tmp_path / "script.qf"
        if script == "directory":
            path.mkdir()
        elif script is not None:
            path.write_bytes(script)
        argv = ["run", str(path)]
        if json_out is not None:
            argv += ["--json", str(tmp_path / json_out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_json_fails_before_the_work(self, tmp_path, capsys,
                                                  monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the script ran before the target check")

        monkeypatch.setattr(cli, "parse", never)
        monkeypatch.setattr(cli, "run", never)
        script = self.write(tmp_path, "form p = <1>; invariants p;")
        target = str(tmp_path / "missing" / "out.json")
        assert cli.main(["run", script, "--json", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deep_nesting_exit(self, tmp_path, capsys):
        deep = "(" * 5000 + "a" + ")" * 5000
        script = self.write(tmp_path, f"field F2(a); form q = <{deep}, 1>;")
        assert cli.main(["run", script]) == 2
        err = capsys.readouterr().err
        assert f"nested deeper than {MAX_NESTING}" in err
        at_limit = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
        script = self.write(tmp_path,
                            f"field F2(a); form q = <{at_limit}, 1>;")
        assert cli.main(["run", script]) == 0

    def test_coefficient_size_exit(self, tmp_path, capsys):
        script = self.write(tmp_path, "field F2(a,b,c);"
                            "form q = <1, a, (a+b+c+1)^255>; invariants q;")
        assert cli.main(["run", script]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ")
        assert f"above {MAX_TERMS} terms" in err

    @pytest.mark.parametrize("exponent, code, message", [
        pytest.param("9" * 5000, 3, f"exponent above {MAX_EXPONENT}",
                     id="5000-digits"),
        pytest.param("\u00b2", 2, "line 1, column 29: unexpected character",
                     id="superscript-two"),
        pytest.param("20000*a^20000", 3, f"exponent above {MAX_EXPONENT}",
                     id="product"),
        pytest.param("32767*a", 3, f"exponent above {MAX_EXPONENT}",
                     id="product-by-a"),
    ])
    def test_exponent_literal_exit(self, tmp_path, capsys, exponent, code,
                                   message):
        script = self.write(tmp_path, "field F2(a); form q = <1, a^"
                            f"{exponent}>; invariants q;")
        assert cli.main(["run", script]) == code
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert "Traceback" not in err

    def test_depth_limit_exit(self, tmp_path, capsys):
        # <1, t1, ..., t5, t1*t2> has norm degree 32, and the bounds leave
        # its levels of dim 7, 6 and 5 open, so it builds k(q_0), k(q_1)
        # and k(q_2): depth 3
        script = self.write(tmp_path,
                            "field F2(t1,t2,t3,t4,t5);"
                            "form g = <1,t1,t2,t3,t4,t5,t1*t2>; invariants g;")
        assert cli.main(["run", script, "--max-tower-depth", "2"]) == 3
        assert "resource limit" in capsys.readouterr().err
        assert cli.main(["run", script, "--max-tower-depth", "3",
                         "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["splitting_pattern"] == [7, 6, 5, 4, 2, 1]
        # the generic dim-5 form has maximal norm degree 16, which fixes
        # every level: depth 0, no function field
        script = self.write(tmp_path,
                            "field F2(t1,t2,t3,t4,t5);"
                            "form g = <t1,t2,t3,t4,t5>; invariants g;")
        assert cli.main(["run", script, "--max-tower-depth", "1",
                         "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["splitting_pattern"] == [5, 4, 3, 2, 1]

    def test_timeout_exit(self, tmp_path, capsys):
        script = self.write(tmp_path,
                            "field F2(t1,t2,t3,t4,t5);"
                            "form g = <t1,t2,t3,t4,t5>; invariants g;")
        for value in ["0.000001", "1e-300"]:
            code = cli.main(["run", script, "--timeout-seconds", value])
            assert code == 3
            assert "resource limit" in capsys.readouterr().err

    def test_bad_flag_values(self, tmp_path, capsys):
        script = self.write(tmp_path, "form p = <1>;")
        # nan, inf and 1e10 are floats that signal.setitimer rejects
        for value in ["0", "nan", "inf", "1e10"]:
            assert cli.main(["run", script, "--timeout-seconds", value]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--timeout-seconds" in err
        assert cli.main(["run", script, "--max-tower-depth", "0"]) == 2

    def test_corpus_failure_exit(self, tmp_path, monkeypatch, capsys):
        script = self.write(tmp_path, "corpus;")
        assert cli.main(["run", script]) == 0
        monkeypatch.setattr(
            "quasiform.cli.run_corpus",
            lambda: [{"name": "stub", "ok": False, "mismatches": []}])
        assert cli.main(["run", script]) == 1

    def test_failed_certificate_exit(self, tmp_path, monkeypatch, capsys):
        script = self.write(tmp_path,
                            "field F2(a,b); form p = <1,a,b,a*b>;"
                            "ruling p;")
        assert cli.main(["run", script, "--verify-certificates"]) == 0

        real = cli.construct_ruling

        class Lying:
            def __init__(self, dec):
                self._dec = dec

            def __getattr__(self, name):
                return getattr(self._dec, name)

            def verify(self):
                return False

        monkeypatch.setattr(cli, "construct_ruling",
                            lambda form: Lying(real(form)))
        assert cli.main(["run", script, "--verify-certificates"]) == 1
        # without the flag the certificate is still checked, and a failing
        # verdict is reported
        assert cli.main(["run", script]) == 1
        capsys.readouterr()
        assert cli.main(["run", script, "--json", "-"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["certificate_verified"] is False
