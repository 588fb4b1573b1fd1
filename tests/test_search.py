"""Riemannian search over U(d^2) and fingerprint invariants."""

import concurrent.futures
import os

import numpy as np
import pytest

import rmlab
from rmlab import (
    directional_derivative_check,
    find_solution,
    fingerprint,
    fingerprints_close,
    haar_unitary,
    make_flip,
    make_trivial,
    quasifree_conjugate,
    riemannian_gradient,
    search_unitary_solution,
    ybe_defect,
    ybe_objective,
)
from rmlab.errors import DomainError, ShapeError
from rmlab.search import ordered_map

RNG = np.random.default_rng(99)


def test_haar_unitary_is_unitary():
    for n in (2, 3, 5):
        u = haar_unitary(n, RNG)
        assert np.linalg.norm(u @ u.conj().T - np.eye(n)) <= 1e-12


def test_haar_unitary_seeded_and_distinct():
    a = haar_unitary(4, np.random.default_rng(7))
    b = haar_unitary(4, np.random.default_rng(7))
    c = haar_unitary(4, np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_defect_vanishes_on_solutions():
    assert np.linalg.norm(ybe_defect(make_flip(2).matrix)) <= 1e-14
    assert np.linalg.norm(ybe_defect(make_trivial(3, 1j).matrix)) <= 1e-14
    assert np.linalg.norm(ybe_defect(rmlab.builtin("r2").matrix)) <= 1e-13


def test_defect_nonzero_off_solutions():
    u = haar_unitary(4, np.random.default_rng(3))
    assert np.linalg.norm(ybe_defect(u)) > 1e-3


def test_defect_rejects_bad_side():
    with pytest.raises(ShapeError):
        ybe_defect(np.eye(3))


def test_objective_is_squared_defect_norm():
    u = haar_unitary(4, np.random.default_rng(11))
    value, grad = ybe_objective(u)
    assert abs(value - np.linalg.norm(ybe_defect(u)) ** 2) <= 1e-12
    assert grad.shape == u.shape


def test_gradient_matches_finite_differences():
    for seed in (0, 1, 2):
        u = haar_unitary(4, np.random.default_rng(seed))
        err = directional_derivative_check(
            u, 2, np.random.default_rng(seed + 100)
        )
        assert err <= 1e-6


def test_gradient_at_a_solution_has_no_tangent_part():
    u = make_flip(2).matrix
    _, g = ybe_objective(u)
    assert np.linalg.norm(riemannian_gradient(u, g)) <= 1e-12


def test_riemannian_gradient_is_skew():
    u = haar_unitary(4, np.random.default_rng(5))
    _, g = ybe_objective(u)
    t = riemannian_gradient(u, g)
    assert np.linalg.norm(t + t.conj().T) <= 1e-12


def test_search_validates_arguments():
    with pytest.raises(DomainError):
        search_unitary_solution(1)
    with pytest.raises(DomainError):
        search_unitary_solution(2, max_iterations=0)


@pytest.mark.parametrize("target", [float("nan"), 0.0, -1e-8, float("inf")])
def test_search_refuses_a_target_that_is_not_finite_and_positive(target):
    # A NaN target never converges, so every restart would run out
    # its iteration budget.
    with pytest.raises(DomainError, match="target_residual"):
        search_unitary_solution(2, max_iterations=1, target_residual=target)


def test_ordered_map_caps_the_pool_at_tasks_and_cpus(monkeypatch):
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    args = [(k, 2) for k in range(5)]
    want = [k * k for k in range(5)]
    for jobs in (5, 2, 64):
        assert list(ordered_map(pow, args, jobs)) == want
    assert list(ordered_map(pow, args[:2], 5)) == want[:2]
    assert seen == [3, 2, 3, 2]
    # One usable CPU (or an unknown count) maps serially, with no pool.
    for cpus in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert list(ordered_map(pow, args, 5)) == want
    assert seen == [3, 2, 3, 2]


def test_search_started_at_a_solution_stops_immediately():
    run = search_unitary_solution(2, initial=make_flip(2).matrix)
    assert run.converged
    assert run.steps == 0
    assert run.objective <= 1e-16


def test_search_single_seed_converges():
    run = search_unitary_solution(2, seed=0)
    assert run.converged
    assert run.objective <= 1e-8
    assert run.matrix.shape == (4, 4)


def test_find_solution_returns_verified_solution():
    res = find_solution(2, restarts=3, seed=0)
    assert res.success
    assert res.solution is not None
    assert res.solution.ybe_residual <= 1e-8
    assert res.restarts_used >= 1
    assert len(res.objectives) == res.restarts_used


def test_find_solution_zero_restarts():
    res = find_solution(2, restarts=0, seed=0)
    assert not res.success
    assert res.solution is None
    assert res.objectives == ()


def test_find_solution_parallel_matches_serial():
    serial = find_solution(2, restarts=4, seed=3, jobs=1)
    parallel = find_solution(2, restarts=4, seed=3, jobs=2)
    assert serial.success == parallel.success
    assert serial.restarts_used == parallel.restarts_used
    assert serial.objectives == parallel.objectives
    assert np.array_equal(serial.solution.matrix, parallel.solution.matrix)


def test_fingerprint_invariant_under_basis_change():
    r = rmlab.builtin("r2")
    fp = fingerprint(r)
    for seed in (1, 2):
        u = haar_unitary(2, np.random.default_rng(seed))
        assert fingerprints_close(fp, fingerprint(quasifree_conjugate(r, u)))


def test_fingerprint_separates_flip_from_trivial():
    assert not fingerprints_close(
        fingerprint(make_flip(2)), fingerprint(make_trivial(2, 1.0))
    )


def test_fingerprint_dimension_mismatch_is_not_close():
    assert not fingerprints_close(
        fingerprint(make_flip(2)), fingerprint(make_flip(3))
    )


def test_fingerprint_cycle_values_match_characters():
    r = rmlab.builtin("r3special")
    fp = fingerprint(r)
    for n, value in enumerate(fp.cycle_values, start=2):
        word = rmlab.BraidWord.from_ints(list(range(1, n)))
        assert abs(value - rmlab.character(r, word)) <= 1e-12
