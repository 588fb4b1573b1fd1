"""Dense tensor-algebra kernel.

Everything in this package lives in matrix algebras M_d^{(x) n}, the
n-fold tensor power of the d x d complex matrices, realized as dense
d^n x d^n arrays.  Conventions, used consistently everywhere:

* Kronecker/tensor factor 1 is the leftmost factor; ``kron(a, b)`` puts
  ``a`` on slot 1.  Row index (i-1)*d + j of a two-slot matrix means
  basis vector e_i (x) e_j.
* ``kron`` is the package's one Kronecker kernel: a broadcast product
  that batches leading axes, so the pads below take stacks as well.
* ``shift(x, k)`` prepends k identity slots on the left (the canonical
  endomorphism direction), ``embed(x, n)`` appends identity slots on
  the right (the trace-compatible inclusion).
* All traces on :class:`AlgebraElement` are normalized: trace /
  dimension.  The raw-array kernels below them (``pad_left``,
  ``pad_right``, ``shifted_product``, ``trace_out_first``,
  ``trace_out_last``) take plain ndarrays plus d and are unnormalized;
  inner loops use them so that no per-step element is built.  The pads
  and partial traces treat leading axes as a batch of matrices.

Levels are tracked explicitly through :class:`AlgebraElement` so that
mixing incompatible levels is an error rather than a silent reshape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import LevelError, NormalityError, ShapeError

__all__ = [
    "AlgebraElement",
    "EigenCluster",
    "as_complex_matrix",
    "eig_normal",
    "embed",
    "expectation_to_level",
    "frobenius_norm",
    "hs_inner",
    "identity_element",
    "is_unitary",
    "kron",
    "normalized_trace",
    "operator_norm_estimate",
    "partial_trace_left",
    "partial_trace_right",
    "shift",
    "spectral_clusters",
]

#: Relative tolerance used to cluster eigenvalues of normal matrices.
CLUSTER_TOL = 1e-9


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce input to a finite, square complex ndarray."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ShapeError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class AlgebraElement:
    """A d^level x d^level matrix tagged with its local dimension and level.

    Level 0 is the scalars (a 1 x 1 matrix).  The tag is what lets
    embeddings, shifts and partial traces check direction instead of
    guessing from shapes.
    """

    d: int
    level: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise ShapeError(f"local dimension must be >= 1, got {self.d}")
        if self.level < 0:
            raise LevelError(f"level must be >= 0, got {self.level}")
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != self.d ** self.level:
            raise ShapeError(
                f"matrix has shape {m.shape}, expected "
                f"({self.d ** self.level}, {self.d ** self.level}) "
                f"for d={self.d}, level={self.level}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.d ** self.level


def identity_element(d: int, level: int) -> AlgebraElement:
    return AlgebraElement(d, level, np.eye(d ** level, dtype=complex))


def kron(a, b) -> np.ndarray:
    """Kronecker product with `a` on the left (slot 1), broadcast over
    leading axes; bit for bit numpy's ``kron`` on a matrix pair or a
    stack paired with one matrix (each entry is the same product)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    p = a[..., :, None, :, None] * b[..., None, :, None, :]
    *batch, ra, rb, ca, cb = p.shape
    return p.reshape(*batch, ra * rb, ca * cb)


def pad_right(m: np.ndarray, d: int, k: int) -> np.ndarray:
    """Raw ``embed``: tensor k identity slots of dimension d on the right."""
    return m if k == 0 else kron(m, np.eye(d ** k, dtype=complex))


def pad_left(m: np.ndarray, d: int, k: int) -> np.ndarray:
    """Raw ``shift``: tensor k identity slots of dimension d on the left."""
    return m if k == 0 else kron(np.eye(d ** k, dtype=complex), m)


def shifted_product(factors, d: int, m_level: int) -> np.ndarray:
    """Product of shift(m, k) over the (k, m) ``factors``, in order.

    Each m is a raw matrix at level ``m_level``.  The running product
    stays at the least level that holds it: at each step the lower of
    the product and the next factor is padded on the right to the
    larger of their levels, so the result is at level m_level + max k
    (the 1 x 1 identity when there are no factors).
    """
    acc, level = np.eye(1, dtype=complex), 0
    for k, m in factors:
        top = max(level, m_level + k)
        acc = pad_right(acc, d, top - level) @ pad_right(
            pad_left(m, d, k), d, top - m_level - k)
        level = top
    return acc


def embed(x: AlgebraElement, target_level: int) -> AlgebraElement:
    """Include x into level ``target_level``, tensoring identity on the right.

    This is the inclusion compatible with the normalized trace and with
    the conditional expectations onto lower levels.
    """
    if target_level < x.level:
        raise LevelError(
            f"cannot embed level {x.level} down to level {target_level}"
        )
    if target_level == x.level:
        return x
    return AlgebraElement(
        x.d, target_level, pad_right(x.matrix, x.d, target_level - x.level)
    )


def shift(x: AlgebraElement, k: int = 1) -> AlgebraElement:
    """Tensor k identity slots on the left: the k-step canonical shift."""
    if k < 0:
        raise LevelError(f"shift steps must be >= 0, got {k}")
    if k == 0:
        return x
    return AlgebraElement(x.d, x.level + k, pad_left(x.matrix, x.d, k))


def normalized_trace(x: AlgebraElement) -> complex:
    """tr(x) / d^level."""
    return complex(np.trace(x.matrix)) / x.dim


def trace_out_first(m: np.ndarray, d: int) -> np.ndarray:
    """Unnormalized partial trace of a raw matrix over its first slot."""
    s = m.shape[-1] // d
    return np.einsum("...asat->...st", m.reshape(*m.shape[:-2], d, s, d, s))


def trace_out_last(m: np.ndarray, d: int) -> np.ndarray:
    """Unnormalized partial trace of a raw matrix over its last slot."""
    s = m.shape[-1] // d
    return np.einsum("...sbtb->...st", m.reshape(*m.shape[:-2], s, d, s, d))


def partial_trace_left(x: AlgebraElement) -> AlgebraElement:
    """Normalized partial trace over slot 1, landing one level down."""
    if x.level < 1:
        raise LevelError("partial trace needs at least one slot")
    return AlgebraElement(x.d, x.level - 1,
                          trace_out_first(x.matrix, x.d) / x.d)


def partial_trace_right(x: AlgebraElement) -> AlgebraElement:
    """Normalized partial trace over the last slot."""
    if x.level < 1:
        raise LevelError("partial trace needs at least one slot")
    return AlgebraElement(x.d, x.level - 1,
                          trace_out_last(x.matrix, x.d) / x.d)


def expectation_to_level(x: AlgebraElement, n: int) -> AlgebraElement:
    """Iterated right partial trace down to level n (E_n; E_0 is the trace).

    Idempotent at n == level, a level error for n > level.
    """
    if n > x.level:
        raise LevelError(f"cannot take expectation up: {x.level} -> {n}")
    y = x
    while y.level > n:
        y = partial_trace_right(y)
    return y


def frobenius_norm(matrix) -> float:
    return float(np.linalg.norm(np.asarray(matrix, dtype=complex)))


def operator_norm_estimate(matrix) -> float:
    """Largest singular value (exact for the dense sizes used here)."""
    a = np.asarray(matrix, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def is_unitary(matrix, tol: float = 1e-10) -> bool:
    a = as_complex_matrix(matrix)
    defect = frobenius_norm(a.conj().T @ a - np.eye(a.shape[0]))
    return defect <= tol


def hs_inner(a, b) -> complex:
    """Normalized Hilbert-Schmidt inner product tau(a* b).

    Conjugate-linear in the first argument.
    """
    am = np.asarray(a, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    if am.shape != bm.shape:
        raise ShapeError(f"shape mismatch {am.shape} vs {bm.shape}")
    return complex(np.vdot(am, bm)) / am.shape[0]


class SpectralClusters(NamedTuple):
    """Index arrays of the clusters, ordered by first member; the least
    distance between two clusters, and the greatest inside one."""

    groups: list
    gap: float
    spread: float


def spectral_clusters(values, radius: float) -> SpectralClusters:
    """Connected components of "closer than radius" on real or complex
    values; on sorted reals, the runs between gaps above ``radius``."""
    v = np.ravel(values)
    n = len(v)
    dist = np.abs(v[:, None] - v)
    # Take the least label among neighbours, then that label's own,
    # until each component is labelled by its least member.
    labels = np.arange(n)
    while True:
        least = np.where(dist <= radius, labels, n).min(axis=1, initial=n)
        if np.array_equal(least[least], labels):
            break
        labels = least[least]
    order = np.argsort(labels, kind="stable")
    ends = [*np.flatnonzero(labels[order] == order).tolist(), n]
    same = labels[:, None] == labels
    return SpectralClusters([order[a:b] for a, b in zip(ends, ends[1:])],
                            float(dist[~same].min(initial=np.inf)),
                            float(dist[same].max(initial=0.0)))


class EigenCluster(NamedTuple):
    value: complex
    multiplicity: int
    projection: np.ndarray


def eig_normal(matrix, tol: float = CLUSTER_TOL) -> list[EigenCluster]:
    """Spectral decomposition of a normal matrix with eigenvalue clustering.

    Eigenvalues closer than ``tol`` times the spectral scale are merged
    into one cluster; each cluster gets the orthogonal projection onto
    its joint eigenspace.  Clusters are returned sorted by (real, imag)
    of the representative value, so the order is deterministic.

    Raises
    ------
    NormalityError
        if ``norm(x x* - x* x) > tol * norm(x)^2`` in Frobenius norm.
    """
    a = as_complex_matrix(matrix)
    scale = frobenius_norm(a)
    defect = frobenius_norm(a @ a.conj().T - a.conj().T @ a)
    if defect > tol * max(scale * scale, 1e-300):
        raise NormalityError(
            f"matrix is not normal within tolerance: defect={defect:.3e}, "
            f"bound={tol * scale * scale:.3e}",
            defect=defect,
        )
    # The Hermitian and skew parts of a normal matrix commute, so the
    # skew part keeps each eigenspace of the Hermitian one: diagonalize
    # it on each of those clusters; eigenvalues are Rayleigh quotients.
    wx, q = np.linalg.eigh((a + a.conj().T) / 2.0)
    for idx in spectral_clusters(wx, tol * max(1.0, *np.abs(wx))).groups:
        if len(idx) > 1:
            v = q[:, idx]
            y = v.conj().T @ (a - a.conj().T) @ v / 2.0j
            q[:, idx] = v @ np.linalg.eigh(y)[1]
    evals = np.einsum("ij,ij->j", q.conj(), a @ q)
    radius = tol * max(1.0, *np.abs(evals))
    return sorted((EigenCluster(complex(np.mean(evals[i])), len(i),
                                q[:, i] @ q[:, i].conj().T)
                   for i in spectral_clusters(evals, radius).groups),
                  key=lambda cl: (cl.value.real, cl.value.imag))
