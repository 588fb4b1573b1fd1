"""Relative commutants, fixed points and finite-dimensional structure.

Three towers of subalgebras of F^n = M_d^(x) n are computed for a
solution R as Hilbert-Schmidt-orthonormal bases: M, the x with
lambda(x) = x (x) 1 for lambda(x) = u (1 (x) x) u* and the ordered word
u = phi^{n-1}(R) ... R; N, the largest subalgebra lambda carries into
its own right-padded copy; and L, the algebra generated by E_n(A_m),
the trace-preserving expectation onto F^n of the algebra A_m of the
m-strand braid images (built once per R, ``rmatrix.memo``).

With K_ab the block of u at last output slot b and first input slot a,
sum_ab |K_ab x - x K_ab|^2 = |lambda(x) - x (x) 1|^2, so M = {K_ab}'.
x is fixed iff x (x) 1 commutes with w = R phi(R) ... phi^(n-1)(R), so
the fixed points are {w_ij}' for w = sum w_ij (x) e_ij over the last
slot.  These, the braid-image commutants, A_m and L are B' or B'' for a
*-algebra B, a sum of blocks M_k (x) 1_n: two random Hermitian probes
of B give its frames, linked and certified (:func:`_probe_frames`),
and :func:`_star_commutant` and :func:`_star_algebra` build B' and B''
from them, solving only at small D or if that fails: B'' as (B')'.

Null spaces and row spaces come from one rank kernel, :func:`_subspace`,
which keeps the singular values above max(1e-9 scale, 1e-12), with
scale the largest row norm before any cancellation or a bound on it,
so a residual that is all rounding noise is cut as noise.  Dense
operators are checked against ``DENSE_ENTRY_CAP`` before they are
built.  A block profile is read on first use off the same frames, probed
on the algebra's own basis (:func:`wedderburn_decompose`), and is left
unresolved, not guessed, when the probes link no certified frames.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegeneracyError, DomainError, InternalConsistencyError,
                     ShapeError)
from .rmatrix import RMatrix, memo, require_dense
from .tensor import (AlgebraElement, as_complex_matrix, embed, pad_left,
                     pad_right, shifted_product, spectral_clusters,
                     trace_out_last)

__all__ = [
    "SubalgebraBasis", "apply_endo", "relative_commutant_M",
    "relative_commutant_N", "relative_commutant_L", "fixed_subalgebra",
    "braid_image_commutant", "commutant_of", "wedderburn_decompose",
    "profile_string", "nullspace",
]

#: Rank cutoff, relative to the rows' scale before cancellation.
NULLSPACE_RTOL = 1e-9

#: Absolute floor under the relative cutoff.  All matrices entering
#: rank decisions here are built from unit-scale data, so anything
#: this small is rounding noise even when the whole matrix is noise.
NULLSPACE_ATOL = 1e-12

#: Seed of every probe generator, read at call time.  Probes are
#: certified, and a failed one falls back or leaves a profile
#: unresolved, so no result depends on it.
PROBE_SEED = 0

#: Largest D whose commutant is solved in full, without a probe; the
#: timings it rests on are in README "Commutants and fixed points".
FULL_SOLVE_DIM = 4

#: Relative distance within which probe eigenvalues share a cluster.
PROBE_MERGE_TOL = 1e-3

#: Largest entry an input of unit scale may leave outside a certified
#: span in its frames, and the frames' orthonormality defect.
CERTIFY_ATOL = 1e-9


def _subspace(a: np.ndarray, scale=None, rows=False) -> np.ndarray:
    """Orthonormal columns spanning the null space of ``a``, or with
    ``rows`` orthonormal rows spanning its row space, cut by the rank
    rule above (``scale`` defaults to the largest row norm).  QR first
    cuts a tall A = QR to R, and a wide A = R^T Q^T, for its row space,
    to R^T.  An all-zero A has a full null space."""
    a = np.asarray(a, dtype=complex)
    height, width = a.shape
    if not a.any():
        return np.eye(width, dtype=complex)[:0 if rows else width]
    scale = np.linalg.norm(a, axis=1).max() if scale is None else scale
    if rows and height < width:
        q, tri = np.linalg.qr(a.T)
        return _subspace(tri.T, scale, rows) @ q.T
    if height > width:
        a = np.linalg.qr(a, mode="r")
    # A wide null space needs every right singular vector.
    _, s, vh = np.linalg.svd(a, full_matrices=height < width)
    keep = int(np.sum(s > max(NULLSPACE_RTOL * float(scale), NULLSPACE_ATOL)))
    return vh[:keep] if rows else vh[keep:].conj().T


def nullspace(a: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning the null space of ``a``
    (:func:`_subspace`); an all-zero or empty ``a`` has a full one."""
    return _subspace(a, scale)


def word_product(r: RMatrix, n: int, reverse: bool = False) -> np.ndarray:
    """R phi(R) ... phi^(n-1)(R) as a level n + 1 matrix, or with
    ``reverse`` phi^(n-1)(R) ... phi(R) R (:func:`_lambda_word`)."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    order = range(n)[::-1] if reverse else range(n)
    return shifted_product(((k, r.matrix) for k in order), r.d, 2)


#: The u of lambda(x) = u (1 (x) x) u*: phi^(n-1)(R) ... phi(R) R.
_lambda_word = functools.partial(word_product, reverse=True)


def apply_endo(r: RMatrix, x: AlgebraElement) -> AlgebraElement:
    """The canonical endomorphism of R applied to a level-k element.

    Returns u_k (x (x) 1) u_k* at level k + 1, where u_k is the ordered
    product R phi(R) ... phi^(k-1)(R).  Scalars land at level 1.
    """
    if x.d != r.d:
        raise ShapeError(f"dimension mismatch: R has d={r.d}, x has d={x.d}")
    k = x.level
    if k == 0:
        return AlgebraElement(r.d, 1, complex(x.matrix[0, 0]) * np.eye(r.d))
    u = word_product(r, k)
    return AlgebraElement(r.d, k + 1, u @ embed(x, k + 1).matrix @ u.conj().T)


@dataclass(frozen=True, eq=False)
class SubalgebraBasis:
    """Hilbert-Schmidt-orthonormal basis of a unital *-subalgebra of F^level.

    ``columns`` holds the read-only l2-orthonormal row-major vectors of
    the basis; ``basis`` and ``block_profile`` (the sorted matrix block
    sizes, or None if unresolved) are derived on first read and cached.
    ``converged`` is False only for truncated computations.
    """

    d: int
    level: int
    columns: np.ndarray = field(repr=False)
    converged: bool = True
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.columns.shape[1]

    @functools.cached_property
    def basis(self) -> tuple:
        dim = self.d ** self.level
        return tuple(AlgebraElement(self.d, self.level, m) for m in
                     self.columns.T.reshape(-1, dim, dim) * math.sqrt(dim))

    @functools.cached_property
    def block_profile(self) -> tuple | None:
        try:
            return wedderburn_decompose(self)
        except (DomainError, DegeneracyError):
            return None


def profile_string(profile) -> str:
    """Render a block profile like (1, 1, 2) as 'C^2 (+) M_2'."""
    if profile is None:
        return "unresolved"
    ones = sum(1 for k in profile if k == 1)
    parts = ["C" if ones == 1 else f"C^{ones}"] if ones else []
    parts += [f"M_{k}" for k in sorted(profile) if k > 1]
    return " (+) ".join(parts) or "0"


def relative_commutant_M(r: RMatrix, n: int) -> SubalgebraBasis:
    """Level-n relative commutant M_{R,n} = {x : lambda(x) = x (x) 1}:
    the commutant of the blocks K_ab of the lambda word u, at its last
    output slot b and first input slot a."""
    d, dim = r.d, r.d ** n
    require_dense(d ** (4 * n + 2), f"the level-{n} M operator")
    u = _lambda_word(r, n).reshape(dim, d, d, dim)
    return SubalgebraBasis(d, n, _star_commutant(
        u.transpose(2, 1, 0, 3).reshape(d * d, dim, dim)))


def fixed_subalgebra(r: RMatrix, n: int) -> SubalgebraBasis:
    """Fixed points of the canonical endomorphism in F^n: the commutant
    of the last-slot blocks u_ij of R phi(R) ... phi^(n-1)(R)."""
    d, dim = r.d, r.d ** n
    require_dense(d ** (4 * n + 2), f"the level-{n} fixed-point operator")
    u = word_product(r, n).reshape(dim, d, dim, d)
    return SubalgebraBasis(d, n, _star_commutant(
        u.transpose(1, 3, 0, 2).reshape(d * d, dim, dim)))


def relative_commutant_N(r: RMatrix, n: int) -> SubalgebraBasis:
    """Largest subalgebra V of F^n with u phi(V) u* inside V (x) 1.

    From the full algebra, each round keeps the x whose image
    u (1 (x) x) u* lies in the right-padded copy of the current space,
    until the dimension stabilizes; the limit is a unital *-subalgebra.
    """
    d, dim = r.d, r.d ** n
    require_dense(d ** (4 * n + 2), f"the level-{n} N operator")
    u = _lambda_word(r, n)
    q = np.eye(dim * dim, dtype=complex)
    for _ in range(dim * dim + 1):
        # Each image z = lambda(x) of a basis column x compresses to
        # E(z) = tr_last(z) / d; its part outside the padded copy is
        # z - E(z) (x) 1, of norm at most |z| = sqrt(d) for unit x, and
        # the drift of E(z) from the basis is at most 1.
        images = u @ pad_left(q.T.reshape(-1, dim, dim), d, 1) @ u.conj().T
        compressed = trace_out_last(images, d) / d
        outside = images - pad_right(compressed, d, 1)
        outside = outside.reshape(len(images), -1).T
        compressed = compressed.reshape(len(images), -1).T
        drift = compressed - q @ (q.conj().T @ compressed)
        keep = nullspace(np.vstack([outside, drift]), 2.0 * math.sqrt(d))
        if keep.shape[1] == q.shape[1]:
            break
        q = q @ keep
    else:
        raise InternalConsistencyError("stabilization did not terminate")
    return SubalgebraBasis(d, n, q)


def _generator_images(r: RMatrix, m: int) -> np.ndarray:
    """The m-strand braid generator images at level m, as a stack."""
    size = r.d ** m
    return np.array([pad_right(pad_left(r.matrix, r.d, k), r.d, m - k - 2)
                     for k in range(m - 1)]).reshape(-1, size, size)


def _braid_algebra(r: RMatrix, m: int) -> np.ndarray:
    """The columns of A_m, the algebra of the m-strand braid images."""
    return _star_algebra(_generator_images(r, m))


def relative_commutant_L(r: RMatrix, n: int,
                         max_strands: int = 4) -> SubalgebraBasis:
    """The algebra generated by E_n(A_m) at the largest strand count m.

    m runs from max(n, 2) to max(max_strands, n); ``meta["dims"]`` holds
    dim E_n(A_m) for each m, and the result is ``converged`` when the
    last two agree (a single strand count never is).  Each A_m is kept
    on r (``rmatrix.memo``), so all calls on one solution share it.
    """
    d = r.d
    if n < 1 or max_strands < 2:
        raise DomainError("need n >= 1 and max_strands >= 2")
    dims = []
    for m in range(max(n, 2), max(max_strands, n) + 1):
        # E_n traces out the last m - n slots with the normalized trace.
        rest, size = d ** (m - n), d ** m
        algebra = memo(r, _braid_algebra, m)
        images = trace_out_last(algebra.T.reshape(-1, size, size), rest)
        expect = _subspace(images.reshape(len(images), -1) / rest, rows=True)
        dims.append(len(expect))
    gens = expect.reshape(-1, d ** n, d ** n) * math.sqrt(d ** n)
    return SubalgebraBasis(d, n, _star_algebra(gens),
                           converged=len(dims) > 1 and dims[-1] == dims[-2],
                           meta={"dims": tuple(dims)})


def braid_image_commutant(r: RMatrix, n: int) -> SubalgebraBasis:
    """Commutant of the braid generator images in F^n (all of it if n < 2)."""
    d = r.d
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    require_dense((n - 1) * d ** (4 * n), f"the level-{n} braid operator")
    return SubalgebraBasis(d, n, _star_commutant(_generator_images(r, n)))


def commutant_of(mats, span=None) -> np.ndarray:
    """Orthonormal coordinates of {x in span : x m = m x for all m in mats}.

    ``mats`` and ``span`` are stacks of D x D matrices; the default span,
    the matrix units, gives the columns ``SubalgebraBasis`` stores.  The
    null space of the stacked commutator rows is the result, cut against
    2 max |m|_F, a bound on |x m - m x| for unit x, so a system that is
    all rounding noise (or an empty ``mats``) keeps its null space.
    """
    mats = np.asarray(mats, dtype=complex)
    dim = mats.shape[-1]
    width = dim * dim if span is None else len(span)
    require_dense(len(mats) * dim * dim * width, "the commutant rows")
    if span is None:
        # Row-major vec(x m - m x) = (1 (x) m^T - m (x) 1) vec(x).
        rows = pad_left(mats.transpose(0, 2, 1), dim, 1)
        rows -= pad_right(mats, dim, 1)
    else:
        rows = span @ mats[:, None] - mats[:, None] @ span
        rows = rows.reshape(len(mats), width, -1).transpose(0, 2, 1)
    norm2 = max((np.vdot(m, m).real for m in mats), default=0.0)
    return nullspace(rows.reshape(-1, width), 2.0 * math.sqrt(norm2))


def _star_commutant(mats) -> np.ndarray:
    """:func:`commutant_of` ``mats`` as row-major columns, for a
    *-closed commutant: every matrix unit for exact scalars (or no
    matrices), one full solve at D <= ``FULL_SOLVE_DIM``, else {p_a, h}'
    from certified frames (:func:`_probe_frames`), or if there are none
    the span of h1's cluster blocks v_i v_j* solved against all ``mats``.
    """
    mats = np.asarray(mats, dtype=complex)
    dim = mats.shape[-1]
    if np.array_equal(mats, mats[:, :1, :1] * np.eye(dim)):
        return np.eye(dim * dim, dtype=complex)
    if dim <= FULL_SOLVE_DIM:
        return commutant_of(mats)
    vecs, groups, links = _probe_frames(mats)
    if links is None:
        span = np.concatenate([np.einsum("pi,qj->ijpq", v, v.conj()).reshape(
            -1, dim, dim) for v in (vecs[:, g] for g in groups)])
        return span.reshape(len(span), -1).T @ commutant_of(mats, span=span)
    # Basis element (root, p, q) in the frames: 1/sqrt(k) at (a, p, q)
    # for each of the k clusters a of the root's component.
    frames, root, cluster, offset = links
    sizes, comp = np.bincount(cluster), root[cluster]
    u, v = np.nonzero(cluster[:, None] == cluster)
    lead = np.where(root == np.arange(len(root)), sizes ** 2, 0)
    units = np.zeros((lead.sum(), dim, dim))
    units[(np.cumsum(lead) - lead)[comp[u]] + offset[u] * sizes[cluster[u]]
          + offset[v], u, v] = np.bincount(root)[comp[u]] ** -0.5
    return (frames @ units @ frames.conj().T).reshape(len(units), -1).T


def _star_algebra(mats) -> np.ndarray:
    """The unital algebra B generated by unitaries or by a *-closed set
    ``mats``, as row-major columns: span{1} for exact scalars; above
    ``FULL_SOLVE_DIM``, {p_a, h}'' from certified frames
    (:func:`_probe_frames`), spanned by the F_a F_b* / sqrt(n) of each
    component's clusters; else (B')', two :func:`_star_commutant` calls.
    """
    mats = np.asarray(mats, dtype=complex)
    dim = mats.shape[-1]
    if np.array_equal(mats, mats[:, :1, :1] * np.eye(dim)):
        return np.eye(dim, dtype=complex).reshape(-1, 1) / math.sqrt(dim)
    if dim <= FULL_SOLVE_DIM or (links := _probe_frames(mats)[2]) is None:
        return _star_commutant(_star_commutant(mats).T.reshape(-1, dim, dim))
    frames, root, cluster, _ = links
    counts = np.bincount(root)
    require_dense(dim * dim * int(counts @ counts), "the generated algebra")
    cols, done = np.empty((counts @ counts, dim * dim), complex), 0
    for head in np.flatnonzero(counts):
        # The component's frames F_a, stacked, and every F_a F_b*.
        f = frames[:, root[cluster] == head].reshape(
            dim, counts[head], -1).transpose(1, 0, 2)
        units = f[:, None] @ f.conj().transpose(0, 2, 1) / math.sqrt(
            f.shape[2])
        cols[done:done + len(f) ** 2] = units.reshape(-1, dim * dim)
        done += len(f) ** 2
    return cols.T


def _probe_frames(mats) -> tuple:
    """Two probes h1, h2 of ``mats`` drawn from ``PROBE_SEED``; h1's
    eigenvectors and clusters (:func:`_eigenspaces`), and the frames
    that h = h2 links between them (:func:`_linked_frames`) or None.
    If there are none, each cluster is split by the eigenspaces of h2's
    compression to it and linked once more by h = e^(i h2), which links
    any two clusters that h2 joins by a path."""
    rng = np.random.default_rng(PROBE_SEED)
    vecs, groups = _eigenspaces(hermitian_probe(mats, rng))
    h2, sizes = hermitian_probe(mats, rng), [len(g) for g in groups]
    links = _linked_frames(mats, vecs, sizes, h2)
    if links is None:
        parts = [(v, *_eigenspaces(v.conj().T @ h2 @ v))
                 for v in (vecs[:, g] for g in groups)]
        evals, q = np.linalg.eigh(h2)
        links = _linked_frames(mats, np.hstack([v @ w for v, w, _ in parts]),
                               [len(g) for *_, runs in parts for g in runs],
                               (q * np.exp(1j * evals)) @ q.conj().T)
    return vecs, groups, links


def _block_sums(a, starts) -> np.ndarray:
    """Sums of ``a`` (or of each matrix it stacks) over each pair of the
    contiguous runs of indices that begin at ``starts``."""
    return np.add.reduceat(np.add.reduceat(a, starts, axis=-2), starts,
                           axis=-1)


def _linked_frames(mats, vecs, sizes, h) -> tuple | None:
    """Frames F_a = V_a W_a that h links between the clusters of the
    eigenvectors ``vecs`` (runs of ``sizes``), certified; or None.

    Clusters a, b are linked if h's block H_ab in ``vecs`` has |H_ab|_F
    > ``CERTIFY_ATOL`` |h|_F.  A cluster's root is the first one it
    links, and W_b = H_b,root sqrt(n_b) / |H_b,root|_F carries the
    root's frame to b.  Orthonormal frames span {p_a, h}'' by the F_a
    F_b* of each component, inside the algebra of ``mats``, and all of
    it if every m lies in it within ``CERTIFY_ATOL``.  Returns the
    frames, each cluster's root, and each column's cluster and offset.
    """
    h, own = vecs.conj().T @ h @ vecs, np.arange(len(sizes))
    tol, eye = CERTIFY_ATOL * float(np.linalg.norm(h)), np.eye(len(h))
    sizes = np.array(sizes)
    starts = np.cumsum(sizes) - sizes
    links = _block_sums(np.abs(h) ** 2, starts)
    root = ((links > tol * tol) | (own[:, None] == own)).argmax(axis=1)
    if np.any(root[root] != root) or np.any(sizes[root] != sizes):
        return None
    norm = np.sqrt(np.where(root == own, sizes, links[own, root]) / sizes)
    cluster = np.repeat(own, sizes)
    offset, comp = np.arange(len(h)) - starts[cluster], root[cluster]
    carry = np.where((cluster[:, None] == cluster) & (comp != cluster)[
        :, None], h[:, starts[comp] + offset] / norm[cluster, None], eye)
    # Each m in the frames, less its part in the span: on the pattern,
    # the mean of each block's diagonal.
    g = (frames := vecs @ carry).conj().T @ mats @ frames
    pattern = (comp[:, None] == comp) & (offset[:, None] == offset)
    mean = _block_sums(np.where(pattern, g, 0.0), starts) / sizes
    off = g - np.where(pattern, mean[..., cluster[:, None], cluster], 0.0)
    if max(np.abs(carry.conj().T @ carry - eye).max(),
           np.abs(off).max(initial=0.0)) > CERTIFY_ATOL:
        return None
    return frames, root, cluster, offset


def _eigenspaces(h) -> tuple:
    """Eigenvectors of the Hermitian ``h`` in ascending eigenvalue
    order, and the runs of their indices whose eigenvalues lie within
    ``PROBE_MERGE_TOL`` of the spectral scale."""
    evals, vecs = np.linalg.eigh(h)
    radius = PROBE_MERGE_TOL * max(1.0, float(np.abs(evals).max()))
    return vecs, spectral_clusters(evals, radius).groups


def hermitian_probe(mats, rng) -> np.ndarray:
    """A random real combination of the Hermitian and skew parts of mats:
    x + x* for x = sum (c_h - i c_s) b / 2, with c_h and c_s for (b + b*)/2
    and (b - b*)/2i drawn from ``rng``, one standard normal each."""
    coeffs = rng.standard_normal(2 * len(mats)).reshape(-1, 2)
    x = np.tensordot((coeffs[:, 0] - 1j * coeffs[:, 1]) / 2, mats, axes=1)
    return x + x.conj().T


def wedderburn_decompose(span) -> tuple:
    """Matrix block sizes of a finite-dimensional unital *-algebra A,
    as a sorted tuple such as (1, 1, 2).

    The input (algebra elements, raw matrices, or a
    :class:`SubalgebraBasis`) is probed on its k orthonormal basis
    matrices (:func:`_probe_frames`).  Certified frames put the span in
    {h1, h2}'' = (+) M_c (x) 1_n, with c clusters per linked component,
    so it is that unital *-algebra iff sum c^2 = k: the profile is the
    c's.  Other counts raise a domain error, no frames a degeneracy one.
    """
    if isinstance(span, SubalgebraBasis):
        cols, dim = span.columns, span.d ** span.level
    else:
        mats = [as_complex_matrix(getattr(x, "matrix", x)) for x in span]
        if not mats:
            raise DomainError("empty span")
        dim = mats[0].shape[0]
        if any(m.shape != (dim, dim) for m in mats):
            raise ShapeError("span matrices must share one shape")
        cols = _subspace(np.stack([m.reshape(-1) for m in mats]), rows=True).T
    k = cols.shape[1]
    require_dense(k * dim * dim, "the Wedderburn probe stack")
    links = _probe_frames(cols.T.reshape(k, dim, dim))[2]
    if links is None:
        raise DegeneracyError("the probes link no certified frames")
    counts = np.bincount(links[1])
    if counts @ counts != k:
        raise DomainError(f"span of dimension {k} is not a unital *-algebra:"
                          f" its probes' frames span {counts @ counts}")
    return tuple(sorted(int(c) for c in counts[counts > 0]))
