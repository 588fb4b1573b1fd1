"""Relative commutants, fixed points and finite-dimensional structure.

Three towers of subalgebras of F^n = M_d^(x) n are computed for a
solution R, all as explicit Hilbert-Schmidt-orthonormal bases:

* M: solutions of a twisted intertwining equation against the ordered
  word phi^{n-1}(R) ... R.
* N: the largest subalgebra carried into its own right-padded copy by
  conjugation with that word composed with the shift.
* L: the trace-compatible expectations of represented braid words,
  grown over an escalating (strands, length) schedule.

All subspace computations reduce to SVD null spaces with a relative
cutoff of 1e-9 on singular values, and each result keeps only the
orthonormal columns of its null space.  Block structure (the Wedderburn
profile) is detected on first read, with a seeded randomized center
construction, and reported as a sorted tuple of full matrix block
sizes; detection can fail on degenerate draws, in which case the
profile is left unresolved rather than guessed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneracyError,
    DomainError,
    InternalConsistencyError,
    ShapeError,
)
from .braid import word_walk
from .rmatrix import RMatrix
from .tensor import (
    AlgebraElement,
    as_complex_matrix,
    eig_normal,
    embed,
    frobenius_norm,
    kron,
    pad_left,
    pad_right,
    shifted_product,
    trace_out_last,
)

__all__ = [
    "SubalgebraBasis",
    "apply_endo",
    "relative_commutant_M",
    "relative_commutant_N",
    "relative_commutant_L",
    "fixed_subalgebra",
    "braid_image_commutant",
    "wedderburn_decompose",
    "profile_string",
    "nullspace",
]

#: Relative singular value cutoff for rank and null space decisions.
NULLSPACE_RTOL = 1e-9

#: Absolute floor under the relative cutoff.  All matrices entering
#: rank decisions here are built from unit-scale data, so anything
#: this small is rounding noise even when the whole matrix is noise.
NULLSPACE_ATOL = 1e-12


def _svd_cutoff(s: np.ndarray, rtol: float) -> float:
    if s.size == 0:
        return NULLSPACE_ATOL
    return max(rtol * float(s[0]), NULLSPACE_ATOL)


def nullspace(a: np.ndarray, rtol: float = NULLSPACE_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of ``a``.

    Singular values below ``rtol`` times the largest (or below the
    absolute noise floor) are treated as zero.  An all-zero or empty
    matrix has a full null space.
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    # Tall matrices only need the economy factorization; wide ones
    # need every right singular vector to expose the null directions.
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = int(np.sum(s > _svd_cutoff(s, rtol)))
    return vh[rank:].conj().T


def _rank(rows: np.ndarray, rtol: float = NULLSPACE_RTOL) -> int:
    if rows.size == 0:
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > _svd_cutoff(s, rtol)))


def _row_space_basis(rows: np.ndarray, rtol: float = NULLSPACE_RTOL
                     ) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the given row vectors."""
    if rows.size == 0:
        return np.zeros((rows.shape[1], 0), dtype=complex)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > _svd_cutoff(s, rtol)))
    return vh[:rank].T


def operator_matrix(map_fn, d: int, level: int) -> np.ndarray:
    """Matrix of a linear map on F^level in the matrix-unit basis.

    Column (p * D + q) holds the row-major vectorization of the image
    of the matrix unit e_pq, so ``vec(map(x)) = T @ vec(x)``.
    """
    dim = d ** level
    unit = np.zeros((dim, dim), dtype=complex)
    cols = []
    for p in range(dim):
        for q in range(dim):
            unit[p, q] = 1.0
            # Copy so map_fn may keep (or freeze) its argument.
            image = map_fn(unit.copy())
            cols.append(np.asarray(image, dtype=complex).reshape(-1))
            unit[p, q] = 0.0
    return np.stack(cols, axis=1)


def word_ordered(r: RMatrix, n: int) -> np.ndarray:
    """phi^(n-1)(R) ... phi(R) R as a level n + 1 matrix."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return shifted_product(r.matrix, r.d, 2, n + 1, range(n - 1, -1, -1))


def word_product(r: RMatrix, n: int) -> np.ndarray:
    """R phi(R) ... phi^(n-1)(R) as a level n + 1 matrix."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return shifted_product(r.matrix, r.d, 2, n + 1, range(n))


def apply_endo(r: RMatrix, x: AlgebraElement) -> AlgebraElement:
    """The canonical endomorphism of R applied to a level-k element.

    Returns u_k (x (x) 1) u_k* at level k + 1, where u_k is the ordered
    product R phi(R) ... phi^(k-1)(R).  Scalars land at level 1.
    """
    if x.d != r.d:
        raise ShapeError(f"dimension mismatch: R has d={r.d}, x has d={x.d}")
    k = x.level
    if k == 0:
        return AlgebraElement(
            r.d, 1, complex(x.matrix[0, 0]) * np.eye(r.d, dtype=complex)
        )
    u = word_product(r, k)
    out = u @ embed(x, k + 1).matrix @ u.conj().T
    return AlgebraElement(r.d, k + 1, out)


@dataclass(frozen=True, eq=False)
class SubalgebraBasis:
    """Hilbert-Schmidt-orthonormal basis of a unital *-subalgebra of F^level.

    ``columns`` holds the l2-orthonormal row-major vectorizations of
    the basis, read-only; the elements (``basis``) and the block
    profile are derived from it on first read and then cached.
    ``block_profile`` is the sorted tuple of matrix block sizes of the
    algebra (so the squares sum to the dimension), or None when the
    randomized detection, seeded with ``seed``, could not resolve it.
    ``converged`` is False only for truncation-based computations that
    hit their budget.
    """

    d: int
    level: int
    columns: np.ndarray = field(repr=False)
    seed: int = 0
    converged: bool = True
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.columns.shape[1]

    def span_columns(self) -> np.ndarray:
        """l2-orthonormal vectorizations of the basis, as columns."""
        return self.columns

    def _matrices(self) -> list:
        dim = self.d ** self.level
        scale = math.sqrt(dim)
        return [self.columns[:, i].reshape(dim, dim) * scale
                for i in range(self.dimension)]

    @functools.cached_property
    def basis(self) -> tuple:
        return tuple(AlgebraElement(self.d, self.level, m)
                     for m in self._matrices())

    @functools.cached_property
    def block_profile(self) -> tuple | None:
        try:
            return wedderburn_decompose(self._matrices(), seed=self.seed)
        except (DomainError, DegeneracyError):
            return None

    def profile_text(self) -> str:
        return profile_string(self.block_profile)


def profile_string(profile) -> str:
    """Render a block profile like (1, 1, 2) as 'C^2 (+) M_2'."""
    if profile is None:
        return "unresolved"
    ones = sum(1 for k in profile if k == 1)
    parts = []
    if ones == 1:
        parts.append("C")
    elif ones > 1:
        parts.append(f"C^{ones}")
    parts.extend(f"M_{k}" for k in sorted(profile) if k > 1)
    return " (+) ".join(parts) if parts else "0"


def relative_commutant_M(r: RMatrix, n: int, seed: int = 0
                         ) -> SubalgebraBasis:
    """Level-n relative commutant M_{R,n}.

    The defining equation, with u the ordered word phi^(n-1)(R)...R at
    level n + 1: u* (x (x) 1) u = 1 (x) x.
    """
    d = r.d
    u = word_ordered(r, n)
    eye_d = np.eye(d, dtype=complex)

    def defect(x):
        return u.conj().T @ kron(x, eye_d) @ u - kron(eye_d, x)

    t = operator_matrix(defect, d, n)
    cols = nullspace(t)
    return SubalgebraBasis(d, n, cols, seed)


def fixed_subalgebra(r: RMatrix, n: int, seed: int = 0) -> SubalgebraBasis:
    """Fixed points of the canonical endomorphism inside F^n."""
    d = r.d
    u = word_product(r, n)
    eye_d = np.eye(d, dtype=complex)

    def defect(x):
        big = kron(x, eye_d)
        return u @ big @ u.conj().T - big

    t = operator_matrix(defect, d, n)
    cols = nullspace(t)
    return SubalgebraBasis(d, n, cols, seed)


def relative_commutant_N(r: RMatrix, n: int, seed: int = 0
                         ) -> SubalgebraBasis:
    """Largest subalgebra V of F^n with u phi(V) u* inside V (x) 1.

    Computed by shrinking from the full algebra: at each round, keep
    the x whose image u (1 (x) x) u* lies in the right-padded copy of
    the current space, until the dimension stabilizes.  The limit is
    automatically a unital *-subalgebra.
    """
    d = r.d
    u = word_ordered(r, n)
    dim = d ** n
    big = d ** (n + 1)
    eye_d = np.eye(d, dtype=complex)

    t_op = operator_matrix(
        lambda x: u @ kron(eye_d, x) @ u.conj().T, d, n
    )
    # Isometry onto the right-padded copy: vec(x (x) 1) / sqrt(d).
    e_op = operator_matrix(lambda x: kron(x, eye_d), d, n) / math.sqrt(d)
    # Compression back down: vec-level matrix of the right partial trace.
    comp = operator_matrix(lambda z: trace_out_last(z, d) / d, d, n + 1)

    q = np.eye(dim * dim, dtype=complex)
    max_rounds = dim * dim + 1
    for _ in range(max_rounds):
        tq = t_op @ q
        outside = tq - e_op @ (e_op.conj().T @ tq)
        compressed = comp @ tq
        drift = compressed - q @ (q.conj().T @ compressed)
        constraints = np.vstack([outside, drift])
        keep = nullspace(constraints)
        if keep.shape[1] == q.shape[1]:
            break
        q = q @ keep
    else:
        raise InternalConsistencyError("stabilization did not terminate")
    return SubalgebraBasis(d, n, q, seed)


def relative_commutant_L(r: RMatrix, n: int, max_strands: int = 4,
                         max_len: int = 6, seed: int = 0
                         ) -> SubalgebraBasis:
    """Span of level-n expectations of represented braid words.

    Words are enumerated over an escalating schedule starting at
    (n + 1 strands, length 4), growing both budgets in lockstep (the
    length keeps growing alone once the strand cap binds).  The span is
    accepted when its dimension is unchanged for two consecutive
    schedule steps; otherwise it is returned with ``converged=False``.
    The result is closed under multiplication before block detection.
    """
    d = r.d
    if max_strands < 2:
        raise DomainError("need max_strands >= 2")
    start_strands = min(n + 1, max_strands)
    schedule = [(start_strands, 4)]
    while schedule[-1] != (max_strands, max_len):
        m, length = schedule[-1]
        nxt = (min(m + 1, max_strands), min(length + 1, max_len))
        if nxt == schedule[-1]:
            break
        schedule.append(nxt)

    dim = d ** n
    records = []  # (max_generator, length, expectation vector)
    for word, prod in word_walk(r, max_strands, max_len):
        maxgen = max(gen for gen, _ in word)
        # The product sits at level maxgen + 1: E_n below it, padding
        # above it.
        prod = pad_right(prod, d, max(n - maxgen - 1, 0))
        for _ in range(maxgen + 1 - n):
            prod = trace_out_last(prod, d) / d
        records.append((maxgen, len(word), prod.reshape(-1)))
    identity_vec = np.eye(dim, dtype=complex).reshape(-1)

    dims = []
    chosen = schedule[-1]
    converged = False
    for step_idx, (m, length) in enumerate(schedule):
        rows = [identity_vec]
        rows += [v for mg, ln, v in records if mg <= m - 1 and ln <= length]
        dims.append(_rank(np.stack(rows)))
        if step_idx >= 2 and dims[-1] == dims[-2] == dims[-3]:
            chosen = (m, length)
            converged = True
            break

    basis_cols = _row_space_basis(np.stack(rows))

    # Close the truncated span under multiplication; products of
    # expectations stay inside the true algebra, so this only improves
    # the truncation.
    scale = math.sqrt(dim)
    for _ in range(dim * dim):
        mats = [basis_cols[:, i].reshape(dim, dim) * scale
                for i in range(basis_cols.shape[1])]
        extra = [(a @ b).reshape(-1) for a in mats for b in mats]
        stacked = np.vstack([basis_cols.T, np.stack(extra)])
        new_cols = _row_space_basis(stacked)
        if new_cols.shape[1] == basis_cols.shape[1]:
            break
        basis_cols = new_cols

    return SubalgebraBasis(
        d, n, basis_cols, seed, converged,
        meta={"schedule": tuple(schedule), "dims": tuple(dims),
              "chosen": chosen},
    )


def braid_image_commutant(r: RMatrix, n: int, seed: int = 0
                          ) -> SubalgebraBasis:
    """Commutant of the represented braid generators inside F^n."""
    d = r.d
    if n < 2:
        # B_1 is trivial; everything commutes.
        dim = d ** n
        return SubalgebraBasis(d, n, np.eye(dim * dim, dtype=complex), seed)
    images = [pad_right(pad_left(r.matrix, d, k), d, n - k - 2)
              for k in range(n - 1)]

    def defect(y):
        return np.vstack([y @ g - g @ y for g in images])

    t = operator_matrix(defect, d, n)
    cols = nullspace(t)
    return SubalgebraBasis(d, n, cols, seed)


def hermitian_probe(mats, rng) -> np.ndarray:
    """A random real combination of the Hermitian and skew parts of mats.

    Draws one standard normal coefficient per part from ``rng``.
    """
    herm = []
    for b in mats:
        herm.append((b + b.conj().T) / 2.0)
        herm.append((b - b.conj().T) / 2.0j)
    coeffs = rng.standard_normal(len(herm))
    return sum(c * h for c, h in zip(coeffs, herm))


def _check_algebra(mats, cols, tol: float = 1e-9) -> None:
    """Validate unital, *-closed, multiplicatively closed span."""
    dim = mats[0].shape[0]
    proj = cols @ cols.conj().T

    def distance(m):
        v = m.reshape(-1)
        return float(np.linalg.norm(v - proj @ v))

    eye_res = distance(np.eye(dim, dtype=complex)) / math.sqrt(dim)
    if eye_res > tol:
        raise DomainError(f"span is not unital (residual {eye_res:.3e})")
    for m in mats:
        if distance(m.conj().T) > tol * max(1.0, frobenius_norm(m)):
            raise DomainError("span is not closed under adjoints")
    for a in mats:
        for b in mats:
            p = a @ b
            if distance(p) > tol * max(1.0, frobenius_norm(p)):
                raise DomainError("span is not closed under products")


def wedderburn_decompose(span, tol: float = 1e-9, seed: int = 0,
                         max_retries: int = 6) -> tuple:
    """Matrix block sizes of a finite-dimensional unital *-algebra.

    The input span (algebra elements or raw matrices) is validated to
    be a unital *-closed multiplicatively closed subspace, then probed
    with a seeded random Hermitian central element: its spectral
    projections cut the algebra into the central summands, and each
    block size is the square root of that compression's linear
    dimension.  Eigenvalue collisions trigger a retry with fresh
    coefficients; persistent failure raises a degeneracy error.

    Returns the block sizes as a sorted tuple, e.g. (1, 1, 2).
    """
    mats = []
    for item in span:
        if isinstance(item, AlgebraElement):
            mats.append(np.asarray(item.matrix, dtype=complex))
        else:
            mats.append(as_complex_matrix(item))
    if not mats:
        raise DomainError("empty span")
    dim = mats[0].shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise ShapeError("span matrices must share one shape")

    cols = _row_space_basis(np.stack([m.reshape(-1) for m in mats]))
    k = cols.shape[1]
    basis = [cols[:, i].reshape(dim, dim) for i in range(k)]
    _check_algebra(basis, cols, tol=tol)

    # Center: z with [z, b] = 0 for every basis element, solved in
    # span coordinates.
    rows = []
    for b in basis:
        block = np.stack(
            [(c @ b - b @ c).reshape(-1) for c in basis], axis=1,
        )
        rows.append(block)
    center_coords = nullspace(np.vstack(rows))
    m_dim = center_coords.shape[1]
    center = [(cols @ center_coords[:, i]).reshape(dim, dim)
              for i in range(m_dim)]

    rng = np.random.default_rng(seed)
    last_error = ""
    for attempt in range(max_retries):
        g = hermitian_probe(center, rng)
        clusters = eig_normal(g)
        if len(clusters) != m_dim:
            last_error = (
                f"central probe found {len(clusters)} clusters, "
                f"expected {m_dim}"
            )
            continue
        blocks = []
        ok = True
        for cl in clusters:
            p = cl.projection
            compressed = np.stack([(p @ b @ p).reshape(-1) for b in basis])
            rank = _rank(compressed)
            size = math.sqrt(rank)
            if abs(size - round(size)) > 1e-6 or round(size) < 1:
                last_error = f"non-square block dimension {rank}"
                ok = False
                break
            blocks.append(int(round(size)))
        if ok and sum(b * b for b in blocks) == k:
            return tuple(sorted(blocks))
        if ok:
            last_error = (
                f"block sizes {blocks} inconsistent with dimension {k}"
            )
    raise DegeneracyError(
        f"block detection failed after {max_retries} attempts: {last_error}",
        retries=max_retries,
    )
