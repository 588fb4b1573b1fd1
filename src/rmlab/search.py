"""Numerical search for unitary Yang-Baxter solutions.

The objective is the squared Frobenius norm of the braid defect
(U x 1)(1 x U)(U x 1) - (1 x U)(U x 1)(1 x U) over U(d^2).  Riemannian
steepest descent follows the closed-form gradient's skew-Hermitian
tangent coordinate along an eigh exponential with warm-started Armijo
steps.  At an objective of 1e-6 the run is projected onto U(d^2) and
polished by Gauss-Newton steps on one SVD-factored Jacobian, reused
while each step halves the objective; a polish that stalls above the
squared target or verify's gate is dropped, and the descent goes on to
the target before a last polish, which a run that stops short keeps
only under that same rule.  Seeds make every run reproducible.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .braid import BraidWord, character
from .errors import DomainError, ShapeError, VerificationError
from .rmatrix import (DEFAULT_TOL, RMatrix, braid_defect, require_dense,
                      verify)
from .tensor import (CLUSTER_TOL, partial_trace_left, trace_out_first,
                     trace_out_last)

__all__ = [
    "Fingerprint",
    "SearchRun",
    "SearchResult",
    "ybe_defect",
    "ybe_objective",
    "ybe_euclidean_gradient",
    "riemannian_gradient",
    "directional_derivative_check",
    "haar_unitary",
    "search_unitary_solution",
    "find_solution",
    "fingerprint",
    "fingerprints_close",
]

#: Character arguments entering a fingerprint besides the cycle words.
FINGERPRINT_WORDS = ((1, 1), (1, 1, 2, 2), (1, -2, 1, -2))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Gaussian)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _infer_d(u: np.ndarray) -> int:
    side = u.shape[0]
    d = math.isqrt(side)
    if d * d != side:
        raise ShapeError(f"side {side} is not a perfect square")
    return d


def ybe_defect(u: np.ndarray, d: int | None = None) -> np.ndarray:
    """Braid defect ABA - BAB with A = U x 1, B = 1 x U."""
    u = np.asarray(u, dtype=complex)
    return braid_defect(u, d if d is not None else _infer_d(u))[-1]


def _squared_norm(delta: np.ndarray) -> float:
    return float(np.vdot(delta, delta).real)


def ybe_euclidean_gradient(u: np.ndarray, d: int | None = None,
                           state: tuple | None = None) -> np.ndarray:
    """Gradient G with d(objective) = 2 Re <G, dU> (Frobenius pairing).

    Differentiating tr(D* D) with D = ABA - BAB and collecting the
    dA = dU x 1 and dB = 1 x dU contributions leaves one partial trace
    over each identity slot.  ``state`` is ``braid_defect(u, d)`` when
    the caller has already built it.
    """
    u = np.asarray(u, dtype=complex)
    d = _infer_d(u) if d is None else d
    a, b, ab, ba, delta = braid_defect(u, d) if state is None else state
    delta_h = delta.conj().T
    m_a = ba @ delta_h + delta_h @ a @ b - b @ delta_h @ b
    m_b = a @ delta_h @ a - ab @ delta_h - delta_h @ b @ a
    return (trace_out_last(m_a, d) + trace_out_first(m_b, d)).conj().T


def ybe_objective(u: np.ndarray, d: int | None = None):
    """Objective value and Euclidean gradient at a d^2 x d^2 matrix."""
    u = np.asarray(u, dtype=complex)
    d = _infer_d(u) if d is None else d
    state = braid_defect(u, d)
    return _squared_norm(state[-1]), ybe_euclidean_gradient(u, d, state)


def riemannian_gradient(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Skew-Hermitian tangent coordinate of the gradient at U."""
    h = u.conj().T @ g
    return (h - h.conj().T) / 2.0


def _geodesic(u: np.ndarray, xi: np.ndarray):
    """t -> U exp(t xi) for skew-Hermitian xi: with (w, V) = eigh(i xi),
    exp(t xi) = V exp(-i t w) V*, so each point costs one GEMM."""
    w, v = np.linalg.eigh(1j * xi)
    uv, vh = u @ v, v.conj().T
    return lambda t: (uv * np.exp(-1j * t * w)) @ vh


def directional_derivative_check(u: np.ndarray, d: int,
                                 rng: np.random.Generator) -> float:
    """Worst relative mismatch of analytic vs central-difference slopes.

    Four random normalized skew-Hermitian directions are exponentiated
    around U with step h = 1e-5; mismatches are scaled by
    max(1, |analytic slope|).
    """
    h = 1e-5
    g = ybe_euclidean_gradient(u, d)
    worst = 0.0
    n = u.shape[0]
    for _ in range(4):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        omega = (z - z.conj().T) / 2.0
        omega /= np.linalg.norm(omega)
        analytic = 2.0 * np.vdot(g, u @ omega).real
        path = _geodesic(u, omega)
        plus, minus = (_squared_norm(ybe_defect(path(t), d))
                       for t in (h, -h))
        numeric = (plus - minus) / (2.0 * h)
        scale = max(1.0, abs(analytic))
        worst = max(worst, abs(analytic - numeric) / scale)
    return worst


def _reunitarize(u: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def _skew(x: np.ndarray) -> np.ndarray:
    """Skew-Hermitian matrices with real coordinates x (..., n, n): the
    real part antisymmetric from above the diagonal, the imaginary
    part symmetric from on and below it."""
    up, low = np.triu(x, 1), np.tril(x)
    return (up - up.swapaxes(-1, -2)
            + 1j * (low + np.tril(x, -1).swapaxes(-1, -2)))


def _defect_jacobian(u: np.ndarray, d: int, state: tuple) -> np.ndarray:
    """Real Jacobian of the defect of U exp(xi) at xi = 0 in the
    coordinates of xi: rows the real, then imaginary parts of D's
    entries, dD = dA BA + A dB A + AB dA - dB AB - B dA B - BA dB.
    Each m (x) 1 or 1 (x) m acts on one slot of a reshaped product (no
    Kronecker product is formed); the six terms accumulate in place."""
    a, b, ab, ba, _ = state
    n, big = d * d, d ** 3
    du = u @ _skew(np.eye(n * n).reshape(-1, n, n))
    shape = (len(du), big, big)

    def left(m, x, lead):  # (1_lead (x) m (x) 1) x
        y = x.reshape(-1, lead, n, big * big // (lead * n))
        return (m.reshape(-1, 1, n, n) @ y).reshape(shape)

    def right(x, lead):  # x (1_lead (x) dU (x) 1), through the transpose
        return left(du.swapaxes(1, 2), x.T, lead).swapaxes(1, 2)

    dd = left(du, ba, 1)
    dd += left(u, left(du, a, d), 1)
    dd += right(ab, 1)
    dd -= left(du, ab, d)
    dd -= left(u, left(du, b, 1), d)
    dd -= right(ba, d)
    dd = dd.reshape(len(du), -1).T
    return np.concatenate([dd.real, dd.imag])


def _polish(u: np.ndarray, d: int) -> np.ndarray:
    """Gauss-Newton on the defect over U exp(xi), from and back to the
    polar projection of U.

    The real Jacobian is factored by SVD without singular values at or
    below 1e-8 relative (the conjugation orbit makes it rank-deficient);
    its factors give minimum-norm steps while each step at least halves
    the objective.  A step that does not is dropped.  On old factors it
    triggers a refactorization at the current point, unless it did not
    lower the objective at all (the rounding floor); on fresh ones it
    ends the polish, as do an objective of 1e-30 and 60 steps.
    """
    u = _reunitarize(u)
    state = braid_defect(u, d)
    value, factors = _squared_norm(state[-1]), None
    for _ in range(60):
        if value <= 1e-30:
            break
        if factors is None:
            w, s, vh = np.linalg.svd(_defect_jacobian(u, d, state),
                                     full_matrices=False)
            keep = s > 1e-8 * s[0]
            factors, fresh = (w[:, keep] / -s[keep], vh[keep]), True
        delta = state[-1].reshape(-1)
        x = np.concatenate([delta.real, delta.imag]) @ factors[0] @ factors[1]
        trial = _geodesic(u, _skew(x.reshape(u.shape)))(1.0)
        trial_state = braid_defect(trial, d)
        trial_value = _squared_norm(trial_state[-1])
        if trial_value <= value / 2:
            u, state, value, fresh = trial, trial_state, trial_value, False
        elif fresh or trial_value >= value:
            break
        else:
            factors = None
    return _reunitarize(u)


@dataclass(frozen=True)
class SearchRun:
    converged: bool
    objective: float
    steps: int
    gradient_norm: float
    matrix: np.ndarray = field(repr=False)
    backtracks: int
    trials: int


@dataclass(frozen=True)
class SearchResult:
    success: bool
    solution: RMatrix | None
    run: SearchRun | None
    restarts_used: int
    objectives: tuple


def search_unitary_solution(d: int, seed: int = 0,
                            max_iterations: int = 2000,
                            target_residual: float = 1e-8,
                            initial: np.ndarray | None = None) -> SearchRun:
    """One descent run from a Haar-random (or given) starting point.

    ``converged`` means the objective fell below the squared target
    residual; the returned matrix is exactly unitary (final polar
    projection).  ``steps`` counts accepted descent steps,
    ``backtracks`` the step halvings and ``trials`` the defect builds
    at trial points; the accepted trial's build goes on to the next
    gradient.  Each step takes one ``eigh`` and starts at the last
    accepted step size, doubled (up to 1) after a first-try acceptance.
    At max(target, 1e-6) the point is polished once; if that reaches the
    target and ``DEFAULT_TOL ** 2``, the descent ends there.  A run that
    ends above max(target, 1e-6) is polished too, and keeps the polished
    point only under that same rule.
    """
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    if max_iterations < 1:
        raise DomainError(f"need max_iterations >= 1, got {max_iterations}")
    if not 0.0 < target_residual < math.inf:
        raise DomainError(f"target_residual {target_residual} not in (0, inf)")
    require_dense(d ** 6, f"a d = {d} solution")
    rng = np.random.default_rng(seed)
    if initial is None:
        u = haar_unitary(d * d, rng)
    else:
        u = _reunitarize(np.asarray(initial, dtype=complex))
    target = target_residual ** 2
    t = 1.0
    steps = backtracks = trials = 0
    state = braid_defect(u, d)
    value = _squared_norm(state[-1])
    grad_norm, handoff, polished = math.inf, max(target, 1e-6), None
    gate = min(target, DEFAULT_TOL ** 2)
    for _ in range(max_iterations):
        if value <= target:
            break
        if value <= handoff:  # once; on a stall the descent goes on
            handoff, trial = 0.0, _polish(u, d)
            if _squared_norm(ybe_defect(trial, d)) <= gate:
                polished = trial
                break
        xi = riemannian_gradient(u, ybe_euclidean_gradient(u, d, state))
        grad_norm = float(np.linalg.norm(xi))
        if grad_norm < 1e-14:
            break
        slope = -2.0 * grad_norm ** 2
        path = _geodesic(u, -xi)
        first = trials
        while t >= 1e-18:
            trial = path(t)
            trial_state = braid_defect(trial, d)
            trial_value = _squared_norm(trial_state[-1])
            trials += 1
            if trial_value <= value + 1e-4 * t * slope:
                break
            t /= 2.0
            backtracks += 1
        else:
            break
        u, value, state = trial, trial_value, trial_state
        if trials == first + 1:  # accepted on the first try
            t = min(2.0 * t, 1.0)
        steps += 1
        if steps % 64 == 0:
            u = _reunitarize(u)
            state = braid_defect(u, d)
            value = _squared_norm(state[-1])
    if polished is None:
        polished = _polish(u, d)
        if value > max(target, 1e-6) and _squared_norm(
                ybe_defect(polished, d)) > gate:
            polished = _reunitarize(u)
    value = _squared_norm(ybe_defect(polished, d))
    return SearchRun(value <= target, value, steps, grad_norm, polished,
                     backtracks, trials)


def ordered_map(fn, args: list, jobs: int = 1):
    """``fn(*a)`` for each tuple ``a`` in ``args``, in order.

    The pool gets min(jobs, tasks, CPUs) workers.  With at most one,
    this is a lazy serial ``starmap``, so a consumer that stops early
    skips the rest; otherwise the results come back as a list in task
    order.
    """
    workers = min(jobs, len(args), os.cpu_count() or 1)
    if workers <= 1:
        return itertools.starmap(fn, args)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*args)))


def find_solution(d: int, restarts: int = 16, seed: int = 0,
                  max_iterations: int = 2000, target_residual: float = 1e-8,
                  jobs: int = 1) -> SearchResult:
    """Restart the descent until a run converges and verifies.

    Success needs both gates: objective below the squared target and
    acceptance by :func:`rmlab.rmatrix.verify` at ``DEFAULT_TOL``.  The
    per-restart final objectives are always reported; with no
    convergence the best run comes back with ``success`` False, and
    ``restarts=0`` is the empty search (no run, ``success`` False).

    ``jobs`` > 1 evaluates restarts in a process pool.  Runs are still
    consumed in seed order, so the outcome is identical to the serial
    scan (parallel mode may compute restarts the serial scan would
    have skipped, but never reports them).
    """
    if restarts < 0:
        raise DomainError(f"need restarts >= 0, got {restarts}")
    objectives, best, solution = [], None, None
    args = [(d, seed + k, max_iterations, target_residual)
            for k in range(restarts)]
    for k, run in enumerate(ordered_map(search_unitary_solution, args, jobs)):
        objectives.append(run.objective)
        if best is None or run.objective < best.objective:
            best = run
        if run.converged:
            try:
                solution = verify(run.matrix, d,
                                  label=f"search(d={d}, seed={seed + k})")
            except VerificationError:
                continue
            best = run
            break
    return SearchResult(solution is not None, solution, best,
                        len(objectives), tuple(objectives))


@dataclass(frozen=True)
class Fingerprint:
    spectrum_r: tuple
    spectrum_phi: tuple
    cycle_values: tuple
    word_values: tuple

    def as_vector(self) -> np.ndarray:
        parts = (self.spectrum_r + self.spectrum_phi
                 + self.cycle_values + self.word_values)
        return np.asarray(parts, dtype=complex)


def fingerprint(r: RMatrix) -> Fingerprint:
    """Equivalence-class invariants used to bucket search results.

    Sorted spectra of R and of its partial trace, the character values
    on cycles of 2..5 strands (computed as normalized traces of partial
    trace powers), and the characters of three fixed non-cycle words.
    """
    def sorted_spectrum(m):
        evals = sorted(
            np.linalg.eigvals(m), key=lambda z: (round(z.real, 12),
                                                 round(z.imag, 12))
        )
        return tuple(complex(z) for z in evals)

    phi = partial_trace_left(r.as_element()).matrix
    d = r.d
    cycle_values = []
    power = np.eye(d, dtype=complex)
    for _ in range(4):
        power = power @ phi
        cycle_values.append(complex(np.trace(power)) / d)
    word_values = tuple(
        complex(character(r, BraidWord.from_ints(w)))
        for w in FINGERPRINT_WORDS
    )
    return Fingerprint(
        sorted_spectrum(r.matrix),
        sorted_spectrum(phi),
        tuple(cycle_values),
        word_values,
    )


def fingerprints_close(a: Fingerprint, b: Fingerprint) -> bool:
    """Whether every entry agrees within ``CLUSTER_TOL``."""
    va, vb = a.as_vector(), b.as_vector()
    if va.shape != vb.shape:
        return False
    return bool(np.max(np.abs(va - vb)) <= CLUSTER_TOL)
