"""Numerical search for unitary Yang-Baxter solutions.

The objective is the squared Frobenius norm of the braid defect

    (U x 1)(1 x U)(U x 1) - (1 x U)(U x 1)(1 x U)

over the unitary group U(d^2).  Minimization is Riemannian steepest
descent: the Euclidean gradient has a closed form (six triple-product
adjoint terms collapsing to two partial traces), its skew-Hermitian
tangent coordinate drives an exponential retraction with Armijo
backtracking, and a converged run is finished off with a least-squares
polish before re-verification.

Seeds make everything reproducible; a run either ends below the target
residual and (after polish) yields a verified solution, or reports the
best objective it reached.
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
from .rmatrix import RMatrix, braid_defect, require_dense, verify
from .tensor import partial_trace_left, trace_out_first, trace_out_last

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
    if d is None:
        d = _infer_d(u)
    a, b, ab, ba, delta = braid_defect(u, d) if state is None else state
    delta_h = delta.conj().T
    m_a = ba @ delta_h + delta_h @ a @ b - b @ delta_h @ b
    m_b = a @ delta_h @ a - ab @ delta_h - delta_h @ b @ a
    return (trace_out_last(m_a, d) + trace_out_first(m_b, d)).conj().T


def ybe_objective(u: np.ndarray, d: int | None = None):
    """Objective value and Euclidean gradient at a d^2 x d^2 matrix."""
    u = np.asarray(u, dtype=complex)
    if d is None:
        d = _infer_d(u)
    state = braid_defect(u, d)
    return _squared_norm(state[-1]), ybe_euclidean_gradient(u, d, state)


def riemannian_gradient(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Skew-Hermitian tangent coordinate of the gradient at U."""
    h = u.conj().T @ g
    return (h - h.conj().T) / 2.0


def directional_derivative_check(u: np.ndarray, d: int,
                                 rng: np.random.Generator,
                                 directions: int = 4,
                                 h: float = 1e-5) -> float:
    """Worst relative mismatch of analytic vs central-difference slopes.

    Random normalized skew-Hermitian directions are exponentiated
    around U; mismatches are scaled by max(1, |analytic slope|).
    """
    import scipy.linalg  # slow to import; loaded on first use
    g = ybe_euclidean_gradient(u, d)
    worst = 0.0
    n = u.shape[0]
    for _ in range(directions):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        omega = (z - z.conj().T) / 2.0
        omega /= np.linalg.norm(omega)
        analytic = 2.0 * np.vdot(g, u @ omega).real
        plus, minus = (
            _squared_norm(ybe_defect(u @ scipy.linalg.expm(t * omega), d))
            for t in (h, -h))
        numeric = (plus - minus) / (2.0 * h)
        scale = max(1.0, abs(analytic))
        worst = max(worst, abs(analytic - numeric) / scale)
    return worst


def _reunitarize(u: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def _polish(u: np.ndarray, d: int) -> np.ndarray:
    """Least-squares refinement of defect + unitarity, then projection."""
    import scipy.optimize  # slow to import; loaded on first use

    n = d * d

    def residuals(x):
        m = (x[:n * n] + 1j * x[n * n:]).reshape(n, n)
        delta = ybe_defect(m, d).reshape(-1)
        drift = (m.conj().T @ m - np.eye(n)).reshape(-1)
        stacked = np.concatenate([delta, drift])
        return np.concatenate([stacked.real, stacked.imag])

    x0 = np.concatenate([u.real.reshape(-1), u.imag.reshape(-1)])
    sol = scipy.optimize.least_squares(
        residuals, x0, xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=400,
    )
    m = (sol.x[:n * n] + 1j * sol.x[n * n:]).reshape(n, n)
    return _reunitarize(m)


@dataclass(frozen=True)
class SearchRun:
    converged: bool
    objective: float
    steps: int
    gradient_norm: float
    matrix: np.ndarray = field(repr=False)
    backtracks: int


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
    projection), ``steps`` counts accepted descent steps and
    ``backtracks`` the step halvings.  Each trial point's defect is
    built once; the accepted trial's goes on to the next gradient.
    """
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    if max_iterations < 1:
        raise DomainError(f"need max_iterations >= 1, got {max_iterations}")
    if not 0.0 < target_residual < math.inf:
        raise DomainError(f"target_residual {target_residual} not in (0, inf)")
    require_dense(d ** 6, f"a d = {d} solution")
    import scipy.linalg  # slow to import; loaded on first use
    rng = np.random.default_rng(seed)
    if initial is None:
        u = haar_unitary(d * d, rng)
    else:
        u = _reunitarize(np.asarray(initial, dtype=complex))
    target = target_residual ** 2
    step = 1.0
    steps = backtracks = 0
    state = braid_defect(u, d)
    value = _squared_norm(state[-1])
    grad_norm = math.inf
    for _ in range(max_iterations):
        if value <= target:
            break
        xi = riemannian_gradient(u, ybe_euclidean_gradient(u, d, state))
        grad_norm = float(np.linalg.norm(xi))
        if grad_norm < 1e-14:
            break
        slope = -2.0 * grad_norm ** 2
        t = min(step * 4.0, 1.0)
        accepted = False
        while t >= 1e-18:
            trial = u @ scipy.linalg.expm(-t * xi)
            trial_state = braid_defect(trial, d)
            trial_value = _squared_norm(trial_state[-1])
            if trial_value <= value + 1e-4 * t * slope:
                accepted = True
                break
            t /= 2.0
            backtracks += 1
        if not accepted:
            break
        u, value, step, state = trial, trial_value, t, trial_state
        steps += 1
        if steps % 64 == 0:
            u = _reunitarize(u)
            state = braid_defect(u, d)
            value = _squared_norm(state[-1])
    if value <= max(target, 1e-6):
        u = _polish(u, d)
    else:
        u = _reunitarize(u)
    value = _squared_norm(ybe_defect(u, d))
    return SearchRun(value <= target, value, steps, grad_norm, u, backtracks)


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
                  max_iterations: int = 2000,
                  target_residual: float = 1e-8,
                  polish_tol: float = 1e-10, jobs: int = 1) -> SearchResult:
    """Restart the descent until a run converges and verifies.

    Success needs both gates: objective below the squared target and
    acceptance by :func:`rmlab.rmatrix.verify` at ``polish_tol``.  The
    per-restart final objectives are always reported; with no
    convergence the best run comes back with ``success`` False.

    ``jobs`` > 1 evaluates restarts in a process pool.  Runs are still
    consumed in seed order, so the outcome is identical to the serial
    scan (parallel mode may compute restarts the serial scan would
    have skipped, but never reports them).
    """
    best: SearchRun | None = None
    objectives = []
    used = 0
    solution = None
    args = [(d, seed + k, max_iterations, target_residual)
            for k in range(restarts)]
    runs = ordered_map(search_unitary_solution, args, jobs)
    for k, run in enumerate(runs):
        used = k + 1
        objectives.append(run.objective)
        if best is None or run.objective < best.objective:
            best = run
        if run.converged:
            try:
                solution = verify(
                    run.matrix, d, tol=polish_tol,
                    label=f"search(d={d}, seed={seed + k})",
                )
            except VerificationError:
                continue
            best = run
            break
    return SearchResult(
        solution is not None, solution, best, used, tuple(objectives)
    )


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


def fingerprints_close(a: Fingerprint, b: Fingerprint,
                       tol: float = 1e-9) -> bool:
    va, vb = a.as_vector(), b.as_vector()
    if va.shape != vb.shape:
        return False
    return bool(np.max(np.abs(va - vb)) <= tol)
