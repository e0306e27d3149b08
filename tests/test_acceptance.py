"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises a complete user-visible behavior through the public
API (and for the ruling check, through the command line), asserts exact
values, and enforces the stated runtime budget where one exists.  The
generated suites are seeded, so failures reproduce.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quasiform

from quasiform.errors import InconsistencyDetected, NotRuled
from quasiform.fieldtower import FieldTower
from quasiform.forms import (
    QuasilinearForm,
    decide_similar,
    generic_subform,
    is_anisotropic,
    total_index,
)
from quasiform.pfister import QuasiPfisterForm, albert_multiply, quasi_pfister
from quasiform.splitting import (
    check_hl_bound,
    essential_dimension,
    first_witt_index,
    function_field,
    splitting_pattern,
    total_index_over,
)
from quasiform.birational import (
    construct_ruling,
    decide_birational,
    essdim_domination_check,
    is_isotropic_over,
    is_regular_quadric,
    unique_self_map_check,
)

from oracles import (
    FROZEN,
    brute_isotropy_kernel,
    karpenko_violations,
    kernel_vector_to_elems,
    monomial_total_index,
    monomials_up_to,
    numeric_rank,
    parity_class,
    sample_monomial_form,
)


@pytest.fixture
def F():
    return FieldTower.rational(("a", "b", "c"))


def five_dim(F):
    a, b = F.var("a"), F.var("b")
    return QuasilinearForm(F, [F.one(), a, b, a * b, F.var("c")])


def monomial(field, exps):
    term = field.one()
    for var, e in zip(field.base_vars, exps):
        term = term * field.var(var) ** e
    return term


def guided_monomial_form(rng, field, dim, max_degree):
    # distinct coefficient parity classes force anisotropy, so higher
    # dimensions still contribute nontrivial cases to a random suite
    by_class = {}
    for m in monomials_up_to(len(field.base_vars), max_degree):
        by_class.setdefault(parity_class(m), []).append(m)
    classes = rng.sample(sorted(by_class), dim)
    exps = [rng.choice(by_class[cl]) for cl in classes]
    return QuasilinearForm(field, [monomial(field, e) for e in exps])


def test_criterion_01_five_dim_pair_not_similar_but_birational(F):
    a, b, c = F.var("a"), F.var("b"), F.var("c")
    q1 = QuasilinearForm(F, [F.one(), a, b, a * b, c])
    q2 = QuasilinearForm(F, [F.one(), a, c, a * c, b])
    start = time.monotonic()
    assert decide_similar(q1, q2) is None
    assert decide_birational(q1, q2) is True
    assert time.monotonic() - start < 10.0


def test_criterion_02_generic_diagonal_forms_regular_and_unruled():
    for n in range(2, 6):
        start = time.monotonic()
        names = [f"t{i}" for i in range(1, n + 1)]
        K = FieldTower.rational(names)
        q = QuasilinearForm(K, [K.var(nm) for nm in names])
        assert is_anisotropic(q)
        assert splitting_pattern(q).dims == tuple(range(n, 0, -1))
        assert first_witt_index(q) == 1
        assert is_regular_quadric(q).regular is True
        with pytest.raises(NotRuled):
            construct_ruling(q)
        if n == 5:
            assert time.monotonic() - start < 60.0


def test_criterion_03_five_dim_form_anisotropic_irregular(F):
    q = five_dim(F)
    start = time.monotonic()
    assert is_anisotropic(q)
    assert first_witt_index(q) == 1
    assert is_regular_quadric(q).regular is False
    assert time.monotonic() - start < 10.0


def test_criterion_04_pfister_rulings_verify_through_cli(F, tmp_path):
    # library route: certificates must verify as exact identities
    for slots in (["a", "b"], ["a", "b", "c"]):
        ruling = construct_ruling(quasi_pfister([F.var(s) for s in slots]))
        assert ruling.verify() is True

    # command-line route: re-verification of both rulings in one run
    script = tmp_path / "rulings.qf"
    script.write_text(
        "field F2(a,b,c);\n"
        "form p2 = <1,a,b,a*b>;\n"
        "form p3 = <1,a,b,a*b,c,a*c,b*c,a*b*c>;\n"
        "ruling p2;\n"
        "ruling p3;\n",
        encoding="utf-8")
    # the command runs the package this test imported, found on the
    # child's path as on pytest's own
    src = str(Path(quasiform.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "quasiform.cli", "run", str(script),
         "--verify-certificates", "--json", "-"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    for entry in report["results"]:
        assert entry["ruled"] is True
        assert entry["certificate_verified"] is True
    assert elapsed < 120.0


def test_criterion_05_regularity_conditions_agree_pairwise(F):
    rng = random.Random(50)
    disagreements = 0
    checked = 0
    for dim in (2, 3, 4, 5):
        for _ in range(30):
            q, _ = sample_monomial_form(rng, F, dim, 2)
            report = is_regular_quadric(q)
            # rational base: all three conditions are evaluated
            assert report.differentials_independent is not None
            assert report.generic_splitting is not None
            values = {
                report.coefficient_products_independent,
                report.differentials_independent,
                report.generic_splitting,
            }
            if len(values) > 1:
                disagreements += 1
            checked += 1
    assert checked >= 100
    assert disagreements == 0


def test_criterion_06_first_index_bound_and_unique_self_map(F):
    rng = random.Random(60)
    suite = []
    for dim in (2, 3, 4):
        for _ in range(50):
            suite.append(sample_monomial_form(rng, F, dim, 2)[0])
    for dim in (5, 6):
        for _ in range(35):
            suite.append(guided_monomial_form(rng, F, dim, 3))
    assert len(suite) >= 200

    violations = 0
    anisotropic = 0
    for q in suite:
        if not is_anisotropic(q):
            continue
        anisotropic += 1
        if not check_hl_bound(q):
            violations += 1
        i1 = first_witt_index(q)
        assert karpenko_violations((q.dim, q.dim - i1)) == []
        assert unique_self_map_check(q) == (i1 == 1)
    assert anisotropic >= 100
    assert violations == 0


def test_criterion_07_generic_subforms_drop_index_stepwise(F):
    p2 = quasi_pfister([F.var("a"), F.var("b")])
    p3 = quasi_pfister([F.var("a"), F.var("b"), F.var("c")])
    cases = [(p2, FROZEN["pfister2"]["i1"]),
             (p3, FROZEN["pfister3"]["i1"]),
             (five_dim(F), FROZEN["five_dim"]["i1"])]
    for q, frozen_i1 in cases:
        i1 = first_witt_index(q)
        assert i1 == frozen_i1
        for j in (1, 2):
            assert first_witt_index(generic_subform(q, j)) == max(i1 - j, 1)


def test_criterion_08_total_index_stable_across_function_fields(F):
    X = quasi_pfister([F.var("a"), F.var("b")])
    Y = X.subform(range(3))
    kX = function_field(X).tower
    kY = function_field(Y).tower
    binary = QuasilinearForm(F, [F.one(), F.var("a")])
    for A in (X, Y, binary):
        assert total_index_over(A, kX) == total_index_over(A, kY)


def test_criterion_09_essential_dimension_respects_domination(F):
    a, b, c = F.var("a"), F.var("b"), F.var("c")
    one = F.one()
    p2 = QuasilinearForm(F, [one, a, b, a * b])
    suite = [
        QuasilinearForm(F, [one, a]),
        QuasilinearForm(F, [one, b]),
        QuasilinearForm(F, [one, c]),
        QuasilinearForm(F, [a, b]),
        QuasilinearForm(F, [one, a, b]),
        QuasilinearForm(F, [a, b, c]),
        QuasilinearForm(F, [one, a * b, c]),
        QuasilinearForm(F, [one, a, b * c]),
        QuasilinearForm(F, [one, a * b, a * c]),
        QuasilinearForm(F, [a, a * b, a * b * c]),
        QuasilinearForm(F, [c, a * c, b * c]),
        p2,
        p2.scale(b),
        QuasilinearForm(F, [one, b, c, b * c]),
        QuasilinearForm(F, [one, c, a * b, a * b * c]),
        QuasilinearForm(F, [one, a, b, c]),
        QuasilinearForm(F, [one, a, b, a * b * c]),
        QuasilinearForm(F, [one, a, a * b, c]),
        QuasilinearForm(F, [one, a, b, a * b, c]),
        QuasilinearForm(F, [one, a, c, a * c, b]),
    ]
    assert len(suite) == 20
    assert all(is_anisotropic(q) for q in suite)

    es = [essential_dimension(q) for q in suite]
    iso = [[is_isotropic_over(Y, X) for Y in suite] for X in suite]
    for i, j in itertools.permutations(range(20), 2):
        if iso[i][j]:
            assert es[i] <= es[j]
            assert (es[i] == es[j]) == iso[j][i]

    inconsistencies = 0
    for i, j in itertools.combinations(range(20), 2):
        try:
            essdim_domination_check(suite[i], suite[j])
        except InconsistencyDetected:
            inconsistencies += 1
    assert inconsistencies == 0


def test_criterion_10_pfister_products_multiply_values():
    start = time.monotonic()
    for n in (1, 2, 3):
        m = 1 << n
        names = ([f"s{i}" for i in range(n)]
                 + [f"x{i}" for i in range(m)]
                 + [f"y{i}" for i in range(m)])
        K = FieldTower.rational(names)
        P = QuasiPfisterForm(K, [K.var(f"s{i}") for i in range(n)])
        xs = [K.var(f"x{i}") for i in range(m)]
        ys = [K.var(f"y{i}") for i in range(m)]
        product = albert_multiply(P, xs, ys)
        assert P.evaluate(product) == P.evaluate(xs) * P.evaluate(ys)
    assert time.monotonic() - start < 30.0


def test_criterion_11_rank_total_index_matches_brute_search():
    K = FieldTower.rational(("a", "b"))
    rng = random.Random(110)
    monos = monomials_up_to(2, 2)
    mismatches = 0
    checked = 0
    for dim in (1, 2, 3, 4):
        for combo in itertools.product(monos, repeat=dim):
            q = QuasilinearForm(K, [monomial(K, e) for e in combo])
            index = total_index(q)
            assert index == monomial_total_index(combo)
            kernel = brute_isotropy_kernel(combo, 3)
            if bool(kernel) != (index > 0):
                mismatches += 1
                continue
            vectors = [kernel_vector_to_elems(K, K.base_vars, v)
                       for v in kernel]
            for vec in vectors:
                value = K.zero()
                for coeff, entry in zip(q.coeffs, vec):
                    value = value + coeff * entry * entry
                assert value.is_zero
            found = numeric_rank(vectors, K, rng) if vectors else 0
            if found != index:
                mismatches += 1
            checked += 1
    assert checked == 6 + 36 + 216 + 1296
    assert mismatches == 0
