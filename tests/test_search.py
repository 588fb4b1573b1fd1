"""Riemannian search over U(d^2) and fingerprint invariants."""

import concurrent.futures
import os

import numpy as np
import pytest
import scipy.linalg

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
from rmlab.search import _polish, _reunitarize, ordered_map

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


def _reference_descent(d, seed, max_iterations):
    """Reference descent on np.kron factors, building the defect once
    for the objective and again inside the gradient."""
    def objective(u):
        eye = np.eye(d, dtype=complex)
        a, b = np.kron(u, eye), np.kron(eye, u)
        delta = a @ b @ a - b @ a @ b
        return float(np.vdot(delta, delta).real)

    u = haar_unitary(d * d, np.random.default_rng(seed))
    target = 1e-8 ** 2
    step, steps, backtracks = 1.0, 0, 0
    value = objective(u)
    for _ in range(max_iterations):
        if value <= target:
            break
        xi = riemannian_gradient(u, rmlab.ybe_euclidean_gradient(u, d))
        grad_norm = float(np.linalg.norm(xi))
        if grad_norm < 1e-14:
            break
        slope = -2.0 * grad_norm ** 2
        t = min(step * 4.0, 1.0)
        accepted = False
        while t >= 1e-18:
            trial = u @ scipy.linalg.expm(-t * xi)
            trial_value = objective(trial)
            if trial_value <= value + 1e-4 * t * slope:
                accepted = True
                break
            t /= 2.0
            backtracks += 1
        if not accepted:
            break
        u, value, step = trial, trial_value, t
        steps += 1
        if steps % 64 == 0:
            u = _reunitarize(u)
            value = objective(u)
    u = _polish(u, d) if value <= max(target, 1e-6) else _reunitarize(u)
    defect = ybe_defect(u, d)
    return steps, backtracks, float(np.vdot(defect, defect).real), u


@pytest.mark.parametrize("d", [2, 3])
def test_gradient_matches_the_reference_formula_bitwise(d):
    from rmlab.tensor import trace_out_first, trace_out_last

    eye = np.eye(d, dtype=complex)
    for seed in range(3):
        u = haar_unitary(d * d, np.random.default_rng(seed))
        a, b = np.kron(u, eye), np.kron(eye, u)
        delta_h = (a @ b @ a - b @ a @ b).conj().T
        m_a = b @ a @ delta_h + delta_h @ a @ b - b @ delta_h @ b
        m_b = a @ delta_h @ a - a @ b @ delta_h - delta_h @ b @ a
        want = (trace_out_last(m_a, d) + trace_out_first(m_b, d)).conj().T
        assert np.array_equal(rmlab.ybe_euclidean_gradient(u, d), want)
        assert np.array_equal(ybe_defect(u), a @ b @ a - b @ a @ b)


@pytest.mark.parametrize("d,seed,max_iterations", [
    (2, 0, 2000), (2, 1, 2000), (2, 2, 2000), (2, 3, 2000), (3, 1, 60),
])
def test_descent_matches_the_reference_loop_bitwise(d, seed,
                                                    max_iterations):
    run = search_unitary_solution(d, seed=seed,
                                  max_iterations=max_iterations)
    steps, backtracks, value, u = _reference_descent(d, seed,
                                                     max_iterations)
    assert (run.steps, run.backtracks, run.objective) == (
        steps, backtracks, value)
    assert np.array_equal(run.matrix, u)


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
