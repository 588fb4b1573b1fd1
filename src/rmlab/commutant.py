"""Relative commutants, fixed points and finite-dimensional structure.

Three towers of subalgebras of F^n = M_d^(x) n are computed for a
solution R, all as explicit Hilbert-Schmidt-orthonormal bases:

* M: the x with lambda(x) = x (x) 1, where lambda(x) = u (1 (x) x) u*
  for the ordered word u = phi^{n-1}(R) ... R.
* N: the largest subalgebra carried into its own right-padded copy by
  lambda.
* L: the algebra generated by E_n(A_m), the trace-preserving
  expectation onto F^n of the algebra A_m generated by the m-strand
  braid generator images; :func:`generated_algebra` closes both.  A_m
  does not depend on n, so the levels of one report share each closure.

M, the fixed points and the braid-image commutants are commutants,
computed by one kernel, :func:`commutant_of`.  With K_ab the block of
u at last output slot b and first input slot a, u (1 (x) x) =
(x (x) 1) u iff K_ab x = x K_ab for all a, b, and sum_ab |K_ab x -
x K_ab|^2 = |lambda(x) - x (x) 1|^2: M = {K_ab}', the fixed points of
the unital trace-preserving channel E_n lambda = sum_ab K_ab . K_ab*/d.
N applies lambda to its current basis by conjugation.  Likewise x in
F^n is fixed iff x (x) 1 commutes with the word w = R phi(R) ...
phi^(n-1)(R); writing w = sum w_ij (x) e_ij over the last slot, the
fixed points are the commutant {w_ij}'.

Those two are solved on a probe-reduced span, as both commutants are
*-closed: w is unitary, so x (x) 1 commutes with w iff it commutes
with w* = sum w_ij* (x) e_ji, and the braid generators are unitary.
Every solution x then commutes with a random Hermitian h drawn from
the sets and their adjoints, so it is block diagonal in h's
eigenbasis, and only the sum of m^2 over h's eigenvalue multiplicities
m unknowns remain instead of D^2; they are solved against a second
probe and certified (:func:`_star_commutant`).  M's blocks, and
general sets, whose commutant need not be *-closed (a Jordan block),
keep the full matrix-unit span.

Subspaces are SVD null or row spaces, kept as orthonormal columns.  A
null space keeps the singular values above 1e-9 times a bound on its
system for unit x (2 max |m|_F over a commutant's inputs m, 2 sqrt(d)
for a round of N), so a system that is all rounding noise keeps its
whole null space.  A row space (closure frontiers, E_n images, the
Wedderburn input) keeps those above 1e-9 of its own largest one.  Both
have a floor of 1e-12, and dense operators are checked against
``DENSE_ENTRY_CAP`` before they are built.  Block structure (the
Wedderburn profile) is detected on first read from the eigenspaces of
one seeded random Hermitian element of the algebra, drawn by the same
:func:`_probe_eigenspaces` as the commutant probes, and reported as a
sorted tuple of full matrix block sizes; detection can fail on
degenerate draws, in which case the profile is left unresolved rather
than guessed.
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
from .rmatrix import RMatrix, require_dense
from .tensor import (
    AlgebraElement,
    as_complex_matrix,
    embed,
    pad_left,
    pad_right,
    shifted_product,
    spectral_clusters,
    trace_out_last,
)

__all__ = [
    "SubalgebraBasis",
    "apply_endo",
    "relative_commutant_M",
    "relative_commutant_N",
    "relative_commutant_L",
    "generated_algebra",
    "fixed_subalgebra",
    "braid_image_commutant",
    "commutant_of",
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

#: Probes drawn before a block profile is left unresolved.
WEDDERBURN_RETRIES = 6

#: Relative distance within which probe eigenvalues share a cluster.
PROBE_MERGE_TOL = 1e-3

#: Largest |x m - m x| entry a certified commutant basis element x
#: (unit Frobenius norm) may leave on an input m of unit scale.
CERTIFY_ATOL = 1e-9


def _svd_cutoff(s: np.ndarray, scale=None) -> float:
    return max(NULLSPACE_RTOL * float(s[0] if scale is None else scale),
               NULLSPACE_ATOL)


def nullspace(a: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of ``a``.

    Singular values below ``NULLSPACE_RTOL`` times ``scale`` (by default
    the largest one), or below the absolute noise floor, are treated as
    zero.  An all-zero or empty matrix has a full null space.
    """
    a = np.asarray(a, dtype=complex)
    if not a.any():
        return np.eye(a.shape[1], dtype=complex)
    # A tall A = QR has the singular values and right singular vectors
    # of its square R; a wide A needs all of them for the null space.
    if a.shape[0] > a.shape[1]:
        a = np.linalg.qr(a, mode="r")
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = int(np.sum(s > _svd_cutoff(s, scale)))
    return vh[rank:].conj().T


def _row_space_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the given row vectors."""
    if rows.size == 0:
        return np.zeros((rows.shape[1], 0), dtype=complex)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > _svd_cutoff(s)))
    return vh[:rank].T


def word_product(r: RMatrix, n: int) -> np.ndarray:
    """R phi(R) ... phi^(n-1)(R) as a level n + 1 matrix."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return shifted_product(((k, r.matrix) for k in range(n)), r.d, 2)


def _lambda_word(r: RMatrix, n: int) -> np.ndarray:
    """phi^(n-1)(R) ... phi(R) R as a level n + 1 matrix: the u of
    lambda(x) = u (1 (x) x) u*."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return shifted_product(((k, r.matrix) for k in range(n - 1, -1, -1)),
                           r.d, 2)


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
        return list(self.columns.T.reshape(-1, dim, dim) * math.sqrt(dim))

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
    """Level-n relative commutant M_{R,n} = {x : lambda(x) = x (x) 1}:
    the commutant of the blocks K_ab of the lambda word u, at its last
    output slot b and first input slot a."""
    d, dim = r.d, r.d ** n
    require_dense(d ** (4 * n + 2), f"the level-{n} M operator")
    u = _lambda_word(r, n).reshape(dim, d, d, dim)
    blocks = u.transpose(2, 1, 0, 3).reshape(d * d, dim, dim)
    return SubalgebraBasis(d, n, commutant_of(blocks), seed)


def fixed_subalgebra(r: RMatrix, n: int, seed: int = 0) -> SubalgebraBasis:
    """Fixed points of the canonical endomorphism in F^n: the commutant
    of the last-slot blocks u_ij of R phi(R) ... phi^(n-1)(R)."""
    d = r.d
    require_dense(d ** (4 * n + 2), f"the level-{n} fixed-point operator")
    dim = d ** n
    u = word_product(r, n).reshape(dim, d, dim, d)
    blocks = u.transpose(1, 3, 0, 2).reshape(d * d, dim, dim)
    return SubalgebraBasis(d, n, _star_commutant(blocks, seed), seed)


def relative_commutant_N(r: RMatrix, n: int, seed: int = 0
                         ) -> SubalgebraBasis:
    """Largest subalgebra V of F^n with u phi(V) u* inside V (x) 1.

    Computed by shrinking from the full algebra: at each round, keep
    the x whose image u (1 (x) x) u* lies in the right-padded copy of
    the current space, until the dimension stabilizes.  The limit is
    automatically a unital *-subalgebra.
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
    return SubalgebraBasis(d, n, q, seed)


def generated_algebra(mats) -> np.ndarray:
    """l2-orthonormal columns spanning the unital algebra generated by
    ``mats``, a stack of D x D matrices; columns are row-major vectors.

    Closes span{1} under right multiplication: each round multiplies the
    frontier by every matrix in one batched matmul, projects the basis
    out twice, and keeps the residual's row space as the next frontier.
    A basis wider than D^2 means rounding noise kept the frontier alive
    (near-degenerate generators), so the closure stops with an error.
    """
    mats = np.asarray(mats, dtype=complex)
    dim = mats.shape[-1]
    basis = frontier = np.eye(dim).reshape(-1, 1) / math.sqrt(dim)
    while frontier.shape[1]:
        width = basis.shape[1] + frontier.shape[1] * len(mats)
        require_dense(dim * dim * width, "the generated algebra")
        rows = frontier.T.reshape(-1, 1, dim, dim) @ mats
        rows = rows.reshape(-1, dim * dim)
        for _ in range(2):
            rows = rows - (rows @ basis.conj()) @ basis.T
        frontier = _row_space_basis(rows)
        basis = np.hstack([basis, frontier])
        if basis.shape[1] > dim * dim:
            raise InternalConsistencyError(
                f"algebra closure exceeded {dim * dim} dimensions")
    return basis


def _generator_images(r: RMatrix, m: int) -> np.ndarray:
    """The m-strand braid generator images at level m, as a stack."""
    size = r.d ** m
    return np.array([pad_right(pad_left(r.matrix, r.d, k), r.d, m - k - 2)
                     for k in range(m - 1)]).reshape(-1, size, size)


def relative_commutant_L(r: RMatrix, n: int, max_strands: int = 4,
                         seed: int = 0, closures: dict | None = None
                         ) -> SubalgebraBasis:
    """The algebra generated by E_n(A_m) at the largest strand count m.

    m runs from max(n, 2) to max(max_strands, n); ``meta["dims"]`` holds
    dim E_n(A_m) for each m, and the result is ``converged`` when the
    last two agree (a single strand count never is).  ``closures``
    caches the columns of A_m by m, for this R and across levels.
    """
    d = r.d
    if n < 1 or max_strands < 2:
        raise DomainError("need n >= 1 and max_strands >= 2")
    closures = {} if closures is None else closures
    dims = []
    for m in range(max(n, 2), max(max_strands, n) + 1):
        if m not in closures:
            closures[m] = generated_algebra(_generator_images(r, m))
        # E_n traces out the last m - n slots with the normalized trace.
        rest, size = d ** (m - n), d ** m
        images = trace_out_last(closures[m].T.reshape(-1, size, size), rest)
        expect = _row_space_basis(images.reshape(len(images), -1) / rest)
        dims.append(expect.shape[1])
    gens = expect.T.reshape(-1, d ** n, d ** n) * math.sqrt(d ** n)
    return SubalgebraBasis(d, n, generated_algebra(gens), seed,
                           converged=len(dims) > 1 and dims[-1] == dims[-2],
                           meta={"dims": tuple(dims)})


def braid_image_commutant(r: RMatrix, n: int, seed: int = 0
                          ) -> SubalgebraBasis:
    """Commutant of the braid generator images in F^n (all of it if n < 2)."""
    d = r.d
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    require_dense((n - 1) * d ** (4 * n), f"the level-{n} braid operator")
    return SubalgebraBasis(d, n, _star_commutant(_generator_images(r, n),
                                                 seed), seed)


def commutant_of(mats, span=None) -> np.ndarray:
    """Orthonormal coordinates of {x in span : x m = m x for all m in mats}.

    ``mats`` and ``span`` are stacks of D x D matrices.  The default span,
    the matrix units, gives the row-major columns ``SubalgebraBasis``
    stores.  One preallocated array holds the commutator rows of every m;
    its null space is the result, so an empty ``mats`` gives everything.
    The rank cutoff scales with 2 max |m|_F, a bound on |x m - m x| for
    unit x, so a system that is all rounding noise keeps its null space.
    """
    mats = np.asarray(mats, dtype=complex)
    dim = mats.shape[-1]
    width = dim * dim if span is None else len(span)
    rows = np.empty((len(mats) * dim * dim, width), dtype=complex)
    for k, m in enumerate(mats):
        block = rows[k * dim * dim:(k + 1) * dim * dim]
        if span is None:
            # Row-major vec(x m - m x) = (1 (x) m^T - m (x) 1) vec(x).
            np.subtract(pad_left(m.T, dim, 1), pad_right(m, dim, 1), out=block)
        else:
            block[:] = (span @ m - m @ span).reshape(width, -1).T
    norm2 = max((np.vdot(m, m).real for m in mats), default=0.0)
    return nullspace(rows, 2.0 * math.sqrt(norm2))


def _star_commutant(mats, seed: int) -> np.ndarray:
    """:func:`commutant_of` ``mats`` as row-major columns: probe, solve,
    certify.

    Exact only when the commutant of ``mats`` is *-closed: then each
    solution commutes with any Hermitian probe h of ``mats`` and lies in
    span{v_i v_j* : v_i, v_j eigenvectors of a first probe h1 in one
    cluster}.  Eigenvalues within ``PROBE_MERGE_TOL`` times the spectral
    scale share a cluster: that only enlarges the span, and nearer ones
    would leave rounding noise at the null space cutoff.  On that span
    only the commutator with a second probe h2 is solved.  As {h1, h2}'
    contains the commutant, the answer can only be too big; it is kept
    when max|x m - m x| <= ``CERTIFY_ATOL`` for every basis element x
    and every m, and else the span is solved against all of ``mats``.
    An empty ``mats`` gives every matrix unit.
    """
    mats = np.asarray(mats, dtype=complex)
    if not len(mats):
        return commutant_of(mats)
    rng = np.random.default_rng(seed)
    vecs, groups = _probe_eigenspaces(mats, rng)
    dim = len(vecs)
    span = np.concatenate([
        np.einsum("pi,qj->ijpq", v, v.conj()).reshape(-1, dim, dim)
        for v in (vecs[:, i] for i in groups)
    ])
    to_units = span.reshape(len(span), -1).T
    cols = to_units @ commutant_of(hermitian_probe(mats, rng)[None], span)
    x = cols.T.reshape(-1, dim, dim)
    worst = max(np.abs(x @ m - m @ x).max(initial=0.0) for m in mats)
    if worst > CERTIFY_ATOL:
        cols = to_units @ commutant_of(mats, span=span)
    return cols


def _probe_eigenspaces(mats, rng) -> tuple:
    """Eigenvectors of one :func:`hermitian_probe` of ``mats``, as
    columns in ascending eigenvalue order, and the runs of their
    indices whose eigenvalues lie within ``PROBE_MERGE_TOL`` times the
    spectral scale of each other."""
    evals, vecs = np.linalg.eigh(hermitian_probe(mats, rng))
    radius = PROBE_MERGE_TOL * max(1.0, float(np.abs(evals).max()))
    return vecs, spectral_clusters(evals, radius).groups


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
    """Validate unital, *-closed, multiplicatively closed span; each
    check projects one stack: the unit, the adjoints, or a @ mats."""

    def residual(stack) -> float:
        # The largest distance from the span over max(1, Frobenius norm).
        v = stack.reshape(len(stack), -1)
        far = np.linalg.norm(v - (v @ cols.conj()) @ cols.T, axis=1)
        return float((far / np.maximum(1.0, np.linalg.norm(v, axis=1))).max())

    if (eye_res := residual(np.eye(mats.shape[-1])[None])) > tol:
        raise DomainError(f"span is not unital (residual {eye_res:.3e})")
    if residual(mats.conj().transpose(0, 2, 1)) > tol:
        raise DomainError("span is not closed under adjoints")
    if any(residual(a @ mats) > tol for a in mats):
        raise DomainError("span is not closed under products")


def wedderburn_decompose(span, tol: float = 1e-9, seed: int = 0) -> tuple:
    """Matrix block sizes of a finite-dimensional unital *-algebra A.

    The input span (algebra elements or raw matrices) is validated to
    be a unital *-closed multiplicatively closed subspace, then probed
    with a seeded random Hermitian element of A.  For a generic probe
    each eigenspace projection p_a is minimal in A, so
    links[a, b] = dim p_a A p_b = sum_i |V_a* b_i V_b|_F^2, over an
    orthonormal basis b_i and with V_a the eigenvectors of p_a, is 1
    within a matrix block and 0 across blocks; the block sizes are its
    row sums.  Colliding probe eigenvalues leave links off that form
    and trigger a retry with fresh coefficients; persistent failure
    raises a degeneracy error.

    Returns the block sizes as a sorted tuple, e.g. (1, 1, 2).
    """
    mats = [as_complex_matrix(getattr(x, "matrix", x)) for x in span]
    if not mats:
        raise DomainError("empty span")
    dim = mats[0].shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise ShapeError("span matrices must share one shape")

    cols = _row_space_basis(np.stack([m.reshape(-1) for m in mats]))
    k = cols.shape[1]
    require_dense(k * dim * dim, "the Wedderburn probe stack")
    basis = cols.T.reshape(k, dim, dim)
    _check_algebra(basis, cols, tol=tol)

    rng = np.random.default_rng(seed)
    last_error = ""
    for _ in range(WEDDERBURN_RETRIES):
        vecs, groups = _probe_eigenspaces(basis, rng)
        # The runs are contiguous: sum the compressions' weights over
        # each pair of runs.
        starts = [int(g[0]) for g in groups]
        weight = (np.abs(vecs.conj().T @ basis @ vecs) ** 2).sum(axis=0)
        links = np.add.reduceat(np.add.reduceat(weight, starts, axis=0),
                                starts, axis=1)
        ones = np.rint(links)
        sizes = ones.sum(axis=1)
        if np.abs(links - ones).max() > tol or ones.max() > 1:
            last_error = f"probe compressions of dimension {links.max():.3g}"
        elif not np.array_equal(ones @ ones, ones * sizes[:, None]):
            last_error = "probe compressions do not form blocks"
        elif sizes.sum() != k:
            last_error = (f"probe compressions sum to {sizes.sum():.0f}, "
                          f"not the dimension {k}")
        else:
            # One row per block: the first projection of each.
            first = ~np.tril(ones, -1).any(axis=1)
            return tuple(sorted(int(x) for x in sizes[first]))
    raise DegeneracyError(
        f"block detection failed after {WEDDERBURN_RETRIES} attempts: "
        f"{last_error}", retries=WEDDERBURN_RETRIES,
    )
