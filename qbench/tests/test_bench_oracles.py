"""The benchmark's oracles agree with the library's worked examples, with
hand-derived patterns, and with the library on sampled inputs."""

import itertools
import random

import pytest

from quasiform import cli, dsl
from quasiform.corpus import CASES

from qbench import oracles
from qbench.workloads import WORKLOADS, _form_text, _with_parity

EXPECTED = {name: expected for name, _, expected in CASES}

# corpus forms as exponent vectors over (a, b, c)
ONE, A, B, C = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
AB, AC = (1, 1, 0), (1, 0, 1)


def test_two_fold_pfister_invariants_match_corpus():
    exp = EXPECTED["two-fold-pfister-invariants"]
    q = [ONE, A, B, AB]
    assert oracles.total_index(q) == exp["total_index"]
    assert oracles.norm_degree(q) == exp["norm_degree"]
    assert oracles.first_witt_index(q) == exp["first_witt_index"]
    report = dict(exp, dim=4, anisotropic_dim=4)
    assert oracles.check_invariants(q, report) == []


def test_five_dim_form_matches_corpus():
    exp = EXPECTED["five-dim-form-is-not-regular"]
    q = [ONE, A, B, AB, C]
    assert oracles.norm_degree(q) == exp["norm_degree"]
    assert oracles.first_witt_index(q) == exp["first_witt_index"]


def test_five_dim_pair_verdicts_match_corpus():
    exp = EXPECTED["five-dim-pair-not-similar-but-birational"]
    q1, q2 = [ONE, A, B, AB, C], [ONE, A, C, AC, B]
    report = dict(exp, isometric=False)
    assert oracles.check_compare(q1, q2, report) == []
    flipped = dict(report, stably_equivalent=False, birational=False)
    assert oracles.check_compare(q1, q2, flipped)


def test_generic_three_form_matches_corpus():
    exp = EXPECTED["generic-three-form-is-regular-not-ruled"]
    q = [A, B, C]
    assert oracles.first_witt_index(q) == 1
    assert exp["splitting_pattern"][:2] == [3, 3 - 1]
    assert oracles.check_ruling(q, {"ruled": exp["ruled"]}) == []


def test_two_fold_ruling_matches_corpus():
    exp = EXPECTED["two-fold-pfister-ruling"]
    q = [ONE, A, B, AB]
    report = {"ruled": exp["ruled"], "witt_index": exp["witt_index"],
              "subquadric": ["x"] * exp["subquadric_dim"],
              "certificate_verified": exp["certificate_verified"]}
    assert oracles.check_ruling(q, report) == []
    assert oracles.check_ruling(q, dict(report, certificate_verified=False))


def test_neighbor_detection_matches_corpus():
    exp = EXPECTED["three-dim-neighbor-detection"]
    q = [ONE, A, B]
    assert oracles.is_neighbor(q) == exp["is_neighbor"]
    assert oracles.norm_degree(q) == exp["envelope_dim"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pfister_pattern_first_step(n):
    # <<t1,...,tn>> splits with pattern (2^n, 2^(n-1), ...); its coefficient
    # at mask m is the product of the t_k over the bits k of m
    q = [tuple(m >> k & 1 for k in range(n)) for m in range(1 << n)]
    assert oracles.norm_degree(q) == 1 << n
    assert oracles.first_witt_index(q) == 1 << (n - 1)


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_generic_form_patterns(n):
    # <t1,...,tn> has norm degree 2^(n-1); it is a neighbour only for n <= 3
    q = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert oracles.norm_degree(q) == 1 << (n - 1)
    assert oracles.is_neighbor(q) == (n <= 3)
    assert oracles.hl_bound(n) == n - (1 << ((n - 1).bit_length() - 1))


def test_total_index_counts_parity_classes():
    assert oracles.total_index([(2, 0), (0, 2), (4, 4)]) == 2
    assert oracles.total_index([(1, 0), (3, 2), (0, 1)]) == 1


def test_translates():
    assert oracles.translates(frozenset({0, 1, 2}), frozenset({4, 5, 6}))
    assert not oracles.translates(frozenset({0, 1, 2}), frozenset({0, 1, 4}))


def _run(names, forms, command):
    return cli.run(dsl.parse(_form_text(names, forms, command)))["results"][0]


@pytest.mark.parametrize("seed", range(6))
def test_invariants_oracle_matches_library(seed):
    rng = random.Random(seed)
    dim = 3 + seed % 2
    coeffs = [_with_parity(rng, m, 3) for m in rng.sample(range(8), dim)]
    report = _run(("a", "b", "c"), {"q": coeffs}, "invariants q")
    assert oracles.check_invariants(coeffs, report) == []


def test_rank_oracle_matches_library():
    w = WORKLOADS["rank-stream"]
    previous = None
    for query in itertools.islice(w.timed(11), 150):
        answer = w.execute(query)
        assert w.check(query, answer, previous) == []
        previous = answer


def test_ruling_oracle_matches_library():
    w = WORKLOADS["ruling-verify"]
    for query in itertools.islice(w.timed(11), 5):
        assert w.check(query, w.execute(query), None) == []


def test_compare_oracle_matches_library():
    w = WORKLOADS["compare-pool"]
    for query in itertools.islice(w.timed(11), 12):
        assert w.check(query, w.execute(query), None) == []
