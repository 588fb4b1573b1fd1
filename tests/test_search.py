"""Riemannian search over U(d^2) and fingerprint invariants."""

import concurrent.futures
import os

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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
from rmlab.search import (
    _defect_jacobian,
    _geodesic,
    _polish,
    _reunitarize,
    _skew,
    ordered_map,
)

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
    for the objective and again inside the gradient.  Each step
    exponentiates through one eigh of i(-xi) and starts at the last
    accepted step size, doubled (up to 1) after a first-try accept.
    At 1e-6 the point goes once to the polish, which is kept only at or
    below 1e-20; otherwise the descent goes on to the target.  A run
    that ends above 1e-6 keeps its polish only under that same rule."""
    def objective(u):
        eye = np.eye(d, dtype=complex)
        a, b = np.kron(u, eye), np.kron(eye, u)
        delta = a @ b @ a - b @ a @ b
        return float(np.vdot(delta, delta).real)

    u = haar_unitary(d * d, np.random.default_rng(seed))
    target = 1e-8 ** 2
    t, steps, backtracks = 1.0, 0, 0
    value = objective(u)
    handed_off, polished = False, None
    for _ in range(max_iterations):
        if value <= target:
            break
        if value <= 1e-6 and not handed_off:
            handed_off, trial = True, _polish(u, d)
            if objective(trial) <= 1e-20:
                polished = trial
                break
        xi = riemannian_gradient(u, rmlab.ybe_euclidean_gradient(u, d))
        grad_norm = float(np.linalg.norm(xi))
        if grad_norm < 1e-14:
            break
        slope = -2.0 * grad_norm ** 2
        w, v = np.linalg.eigh(1j * -xi)
        halvings = 0
        accepted = False
        while t >= 1e-18:
            trial = (u @ v * np.exp(-1j * t * w)) @ v.conj().T
            trial_value = objective(trial)
            if trial_value <= value + 1e-4 * t * slope:
                accepted = True
                break
            t /= 2.0
            halvings += 1
        backtracks += halvings
        if not accepted:
            break
        u, value = trial, trial_value
        if halvings == 0:
            t = min(2.0 * t, 1.0)
        steps += 1
        if steps % 64 == 0:
            u = _reunitarize(u)
            value = objective(u)
    if polished is None:
        polished = _polish(u, d)
        if value > 1e-6 and objective(polished) > 1e-20:
            polished = _reunitarize(u)
    u = polished
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


# Seed 25 stalls in the first polish and takes the fallback; seed 311
# ends at the step cap above 1e-6 and is polished there.
@pytest.mark.parametrize("d,seed,max_iterations", [
    (2, 0, 2000), (2, 1, 2000), (2, 2, 2000), (2, 3, 2000), (2, 25, 2000),
    (2, 311, 2000), (3, 1, 60),
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


@pytest.mark.parametrize("seed", [25, 205])
def test_a_stalled_polish_falls_back_to_the_descent(seed, monkeypatch):
    # Near a degenerate solution Gauss-Newton converges only linearly:
    # the polish at 1e-6 stops above 1e-20, so the descent goes on from
    # the unpolished point to the target and polishes once more.
    polished = []

    def counted(u, d):
        polished.append(_polish(u, d))
        return polished[-1]

    monkeypatch.setattr(rmlab.search, "_polish", counted)
    run = search_unitary_solution(2, seed=seed)
    first = ybe_defect(polished[0], 2)
    assert 1e-20 < np.vdot(first, first).real <= 1e-16
    assert len(polished) == 2 and run.converged
    assert rmlab.verify(run.matrix, 2).ybe_residual <= 1e-13


@pytest.mark.parametrize("seed", [271, 311, 312, 500, 649, 685, 754])
def test_a_run_at_the_step_cap_is_polished_before_it_gives_up(seed):
    # Each descent runs out its 2,000 steps above the 1e-6 handoff (seed
    # 271 at 5.8e-3); one polish of where it stopped converges.
    run = search_unitary_solution(2, seed=seed)
    assert run.steps == 2000 and run.converged
    assert rmlab.verify(run.matrix, 2).ybe_residual <= 1e-13


def test_trials_count_every_accepted_and_rejected_point():
    for seed in (0, 2):
        run = search_unitary_solution(2, seed=seed)
        assert run.converged
        assert run.backtracks > 0
        assert run.trials == run.steps + run.backtracks


@pytest.mark.parametrize("n", [4, 9, 16])
def test_eigh_exponential_matches_expm_and_stays_unitary(n):
    rng = np.random.default_rng(n)
    u = haar_unitary(n, rng)
    xi = _skew(rng.standard_normal((n, n)))
    path = _geodesic(u, xi)
    for t in (-0.7, 1e-3, 1.0, 2.5):
        point = path(t)
        want = u @ scipy.linalg.expm(t * xi)
        assert np.abs(point - want).max() <= 1e-14 * max(1.0, abs(t))
        assert np.abs(point.conj().T @ point - np.eye(n)).max() <= 1e-14


def test_skew_coordinates_span_the_skew_hermitian_matrices():
    n = 3
    basis = _skew(np.eye(n * n).reshape(-1, n, n))
    assert np.array_equal(basis, -basis.conj().transpose(0, 2, 1))
    flat = np.concatenate([basis.real, basis.imag], axis=1)
    assert np.linalg.matrix_rank(flat.reshape(n * n, -1)) == n * n


@pytest.mark.parametrize("d", [2, 3])
def test_polish_jacobian_matches_central_differences(d):
    rng = np.random.default_rng(40 + d)
    n = d * d
    u = haar_unitary(n, rng)
    jac = _defect_jacobian(u, d, rmlab.rmatrix.braid_defect(u, d))
    assert jac.shape == (2 * d ** 6, n * n)
    h = 1e-6

    def defect(x):
        m = ybe_defect(_geodesic(u, _skew(x.reshape(n, n)))(1.0), d)
        return np.concatenate([m.real.ravel(), m.imag.ravel()])

    for _ in range(3):
        x = rng.standard_normal(n * n)
        numeric = (defect(h * x) - defect(-h * x)) / (2.0 * h)
        assert np.abs(jac @ x - numeric).max() <= 1e-7 * np.abs(numeric).max()


@pytest.mark.parametrize("d", [2, 3])
def test_polish_jacobian_matches_the_kronecker_formula(d):
    # The slot-wise products sum the six terms in another order, so
    # the columns agree to rounding.
    rng = np.random.default_rng(50 + d)
    n = d * d
    u = haar_unitary(n, rng)
    state = rmlab.rmatrix.braid_defect(u, d)
    a, b, ab, ba, _ = state
    jac = _defect_jacobian(u, d, state)
    eye = np.eye(d)
    for k, x in enumerate(np.eye(n * n)):
        du = u @ _skew(x.reshape(n, n))
        da, db = np.kron(du, eye), np.kron(eye, du)
        dd = da @ ba + a @ db @ a + ab @ da - db @ ab - b @ da @ b - ba @ db
        want = np.concatenate([dd.real.ravel(), dd.imag.ravel()])
        assert np.abs(jac[:, k] - want).max() <= 1e-13


@pytest.mark.parametrize("d", [2, 3])
def test_polish_builds_at_most_two_jacobians(d, monkeypatch):
    # One factorization serves every step that halves the objective;
    # a failed step refactors once, and a failure on fresh factors ends
    # the polish.
    builds = []

    def counted(*args):
        builds.append(args)
        return _defect_jacobian(*args)

    monkeypatch.setattr(rmlab.search, "_defect_jacobian", counted)
    run = search_unitary_solution(d, seed=0)
    assert run.converged
    assert 1 <= len(builds) <= 2
    assert rmlab.verify(run.matrix, d).ybe_residual <= 1e-13


def test_benchmark_searches_hand_off_early(monkeypatch):
    # The twelve searches of the benchmark's search workload: the
    # handoff at 1e-6 keeps them within 500 steps and 16 Jacobians in
    # all (1,296 and 24 when the descent ran on to 1e-16), each found
    # at its first restart.
    builds = []

    def counted(*args):
        builds.append(args)
        return _defect_jacobian(*args)

    monkeypatch.setattr(rmlab.search, "_defect_jacobian", counted)
    steps = 0
    for d, seed in [(2, s) for s in range(8)] + [(3, s) for s in range(4)]:
        found = find_solution(d, restarts=16, seed=seed)
        assert found.success and found.restarts_used == 1
        steps += found.run.steps
    assert steps <= 500 and len(builds) <= 16


@pytest.mark.parametrize("name", [
    name for name, r in rmlab.all_builtins().items() if r.d in (2, 3)
])
def test_polish_returns_perturbed_builtins_to_solutions(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    r = rmlab.random_conjugate(rmlab.builtin(name), rng)
    n = r.d * r.d
    omega = _skew(rng.standard_normal((n, n)))
    start = _geodesic(r.matrix, omega / np.linalg.norm(omega))(1e-6)
    before = np.linalg.norm(ybe_defect(start, r.d))
    polished = rmlab.verify(_polish(start, r.d), r.d)
    # The flips are solutions to first order along every direction, so
    # their start is only about 1e-12 off; the others start near 2e-6.
    assert polished.ybe_residual <= min(1e-12, before / 100)


def test_find_solution_returns_verified_solution():
    res = find_solution(2, restarts=3, seed=0)
    assert res.success
    assert res.solution is not None
    assert res.solution.ybe_residual <= 1e-8
    assert res.restarts_used >= 1
    assert len(res.objectives) == res.restarts_used


def test_find_solution_zero_restarts():
    # The empty search: no run, and no error.
    res = find_solution(2, restarts=0, seed=0)
    assert not res.success
    assert res.solution is None
    assert res.run is None
    assert res.restarts_used == 0
    assert res.objectives == ()


@pytest.mark.parametrize("restarts", [-1, -16])
def test_find_solution_rejects_a_negative_restart_count(monkeypatch,
                                                        restarts):
    def refuse(*args, **kwargs):
        raise AssertionError("a descent ran")

    monkeypatch.setattr(rmlab.search, "search_unitary_solution", refuse)
    with pytest.raises(DomainError, match="restarts"):
        find_solution(2, restarts=restarts)


def test_find_solution_parallel_matches_serial():
    serial = find_solution(2, restarts=4, seed=3, jobs=1)
    parallel = find_solution(2, restarts=4, seed=3, jobs=2)
    assert serial.success == parallel.success
    assert serial.restarts_used == parallel.restarts_used
    assert serial.objectives == parallel.objectives
    assert np.array_equal(serial.solution.matrix, parallel.solution.matrix)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(rmlab.builtin_names()),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fingerprint_invariant_under_basis_change(name, seed):
    r = rmlab.builtin(name)
    u = haar_unitary(r.d, np.random.default_rng(seed))
    assert fingerprints_close(fingerprint(r),
                              fingerprint(quasifree_conjugate(r, u)))


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
