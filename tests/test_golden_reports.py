"""Frozen `cli.run` reports: the same scripts must keep giving the same
JSON, byte for byte.

The scripts cover `invariants` (splitting data, first Witt index, essential
dimension and norm degree), `compare` (isometric, similar but not isometric
with a pinned `similarity_factor` string, stably equivalent of unequal
dimension, birational but not similar) and `ruling` with verified
certificates.  The reports under `tests/golden/` were written by

    PYTHONPATH=src python tests/test_golden_reports.py [NAME ...]

with the library as it was before the norm field was built by doubling;
`ruling_pfister3` (the ruling of <<a,b,c>>) with the library as it was
before polynomials were stored as packed exponent vectors;
`ruling_neighbors` with the library as it was while the fibers of a
ruling still came from a linear solve over k(X).
Rewrite them only with a change that is meant to alter an answer.
"""

import json
import sys
from pathlib import Path

import pytest

import quasiform.cli as cli
from quasiform.dsl import parse

GOLDEN = Path(__file__).resolve().parent / "golden"

SCRIPTS = {
    "invariants": """
        field F2(a,b,c);
        form pfister2 = <1, a, b, a*b>;
        form neighbor = <1, a, b>;
        form five = <1, a, b, a*b, c>;
        form generic = <a, b, c>;
        form generic4 = <1, a, b, c>;
        form scaled = <c, a*c, b*c^3, a*b*c>;
        form isotropic = <a, a^3, b>;
        form point = <a>;
        invariants pfister2; invariants neighbor; invariants five;
        invariants generic; invariants generic4; invariants scaled;
        invariants isotropic; invariants point;
    """,
    "compare": """
        field F2(a,b,c);
        form p = <1, a, b>;
        form p_iso = <b*c^2, a^3, 1>;
        form p_times_b = <a, b, a*b>;
        form p_times_c = <c, a*c, b*c>;
        form pfister2 = <1, a, b, a*b>;
        form q1 = <1, a, b, a*b, c>;
        form q2 = <1, a, c, a*c, b>;
        form other = <1, a, c>;
        form generic4 = <1, a, b, c>;
        form generic4_times_a = <a, a^2, a*b, a*c>;
        form pfister2_times_c = <c, a*c, b*c, a*b*c>;
        form q1_times_c = <c, a*c, b*c, a*b*c, c^2>;
        form generic4_times_b = <1, b, a*b, b*c>;
        form generic4_times_abc = <a*c, b*c^3, a^3*b*c, a*b>;
        compare p p_iso; compare p p_times_b; compare p p_times_c;
        compare p_times_b p_times_c; compare p pfister2; compare q1 q2;
        compare p other; compare pfister2 p_times_b;
        compare generic4 generic4_times_a; compare pfister2 pfister2_times_c;
        compare q1 q1_times_c; compare generic4 generic4_times_b;
        compare generic4 generic4_times_abc;
        compare generic4_times_b generic4_times_abc;
    """,
    "ruling": """
        field F2(a,b,c);
        form pfister2 = <1, a, b, a*b>;
        form scaled = <c, a*c, b*c, a*b*c>;
        form generic = <a, b, c>;
        ruling pfister2; ruling scaled; ruling generic;
    """,
    # the 3-fold quasi-Pfister form <<a,b,c>>: a ruling over a depth-3
    # tower, the heaviest certificate replay here
    "ruling_pfister3": """
        field F2(a,b,c);
        form pfister3 = <1, a, b, a*b, c, a*c, b*c, a*b*c>;
        ruling pfister3;
    """,
    # rulings whose fibers carry denominators and binomials, and r = 3;
    # one script per base field, so the report is a list
    "ruling_neighbors": ("""
        field F2(a,b,c);
        form neighbor6 = <1, a, b, a*b, c, a*c>;
        form neighbor7 = <1, a, b, a*b, c, a*c, b*c>;
        form fractions = <1/a, b, b/a, 1>;
        form binomials = <1, a+b, b*c, (a+b)*b*c>;
        ruling neighbor6; ruling neighbor7; ruling fractions;
        ruling binomials;
    """, """
        field F2(a,b);
        form scaled = <a+1, (a+1)*b, (a+1)*(a+b), (a+1)*b*(a+b)>;
        ruling scaled;
    """),
}


def render(name: str) -> str:
    """The report as `quasiform run --json` writes it; a tuple of
    scripts gives the list of their reports."""
    script = SCRIPTS[name]
    if isinstance(script, tuple):
        report = [cli.run(parse(s), verify_certificates=True)
                  for s in script]
    else:
        report = cli.run(parse(script), verify_certificates=True)
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert render(name) == expected


@pytest.mark.parametrize(
    "name", sorted(n for n in SCRIPTS if n.startswith("ruling")))
def test_plain_ruling_report_omits_only_the_verdict(name):
    # a plain run checks the certificate too, and reports a passing one by
    # leaving the verdict out
    script = SCRIPTS[name]
    for text in script if isinstance(script, tuple) else (script,):
        parsed = parse(text)
        verified = cli.run(parsed, verify_certificates=True)
        for entry in verified["results"]:
            if entry["ruled"]:
                assert entry.pop("certificate_verified") is True
        assert json.dumps(cli.run(parsed)) == json.dumps(verified)


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(SCRIPTS):
        (GOLDEN / f"{name}.json").write_text(render(name), encoding="utf-8")
