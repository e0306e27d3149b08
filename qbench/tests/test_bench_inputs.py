"""Workload inputs depend on the seed alone."""

import itertools

import pytest

from qbench.workloads import WORKLOADS


def _texts(name, stream, count=40):
    # rank-stream payloads are form objects; their coefficient exponents
    # and the printed form are the inputs
    return "\n".join(
        f"{q.coeffs!r} {q.split} {q.twin} {q.payload}"
        for q in itertools.islice(stream, count)).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    w = WORKLOADS[name]
    assert _texts(name, w.timed(7)) == _texts(name, w.timed(7))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seeds_give_different_inputs(name):
    w = WORKLOADS[name]
    assert _texts(name, w.timed(7)) != _texts(name, w.timed(8))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warmup_inputs_are_disjoint_from_timed_ones(name):
    w = WORKLOADS[name]
    timed = {q.payload if isinstance(q.payload, str) else str(q.payload)
             for q in itertools.islice(w.timed(7), 200)}
    warm = {q.payload if isinstance(q.payload, str) else str(q.payload)
            for q in itertools.islice(w.warmup(7), 20)}
    assert not timed & warm


def test_rank_stream_forms_are_unique():
    keys = [tuple(sorted(q.coeffs))
            for q in itertools.islice(WORKLOADS["rank-stream"].timed(3), 3000)]
    assert len(keys) == len(set(keys))


def test_rank_stream_twins_follow_their_binomial_form():
    stream = list(itertools.islice(WORKLOADS["rank-stream"].timed(3), 500))
    twins = [i for i, q in enumerate(stream) if q.twin]
    assert 0.15 * len(stream) < len(twins) < 0.35 * len(stream)
    for i in twins:
        original, twin = stream[i - 1], stream[i]
        assert not original.twin
        assert any(len(c) == 2 for c in original.coeffs)
        assert len(twin.coeffs) == len(original.coeffs)


def test_compare_pool_verdicts_take_both_values():
    from qbench import oracles

    w = WORKLOADS["compare-pool"]
    pairs = list(itertools.islice(w.timed(5), 66))
    iso, neighbours_equal = set(), set()
    for q in pairs:
        mono = [c[0] for c in q.coeffs]
        p, r = mono[:q.split], mono[q.split:]
        iso.add(oracles.parity_classes(p) == oracles.parity_classes(r))
        if oracles.is_neighbor(p) and oracles.is_neighbor(r):
            neighbours_equal.add(oracles.norm_span(p) == oracles.norm_span(r))
    assert iso == {True, False}
    assert neighbours_equal == {True, False}
