"""Unitary solutions of the Yang-Baxter equation on C^d (x) C^d.

An :class:`RMatrix` is a verified unitary d^2 x d^2 matrix R satisfying

    (R (x) 1)(1 (x) R)(R (x) 1) = (1 (x) R)(R (x) 1)(1 (x) R).

Construction always goes through :func:`verify`, which computes the
unitarity and Yang-Baxter residuals along two independent code paths
and refuses to hand out an unverified object.  Derived solutions
(adjoints, conjugates, tensor products, box sums, cabling powers) are
re-verified; a failure there is an internal-consistency error, not bad
input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, InternalConsistencyError, ResourceError,
                     ShapeError, VerificationError)
from .tensor import (DEFAULT_TOL, AlgebraElement, as_complex_matrix, embed,
                     frobenius_norm, is_unitary, kron, shift,
                     shifted_product)

__all__ = [
    "RMatrix",
    "SimpleRSpec",
    "NormalFormSpec",
    "verify",
    "make_trivial",
    "make_flip",
    "make_simple",
    "make_normal_form",
    "adjoint",
    "scalar_multiple",
    "flip_conjugate",
    "quasifree_conjugate",
    "tensor_product",
    "box_sum",
    "cabling_power",
    "require_dense",
    "is_involutive",
    "is_trivial",
    "flip_matrix",
    "memo",
]

#: Residual agreement required between the two verification routes.
ROUTE_AGREEMENT_TOL = 1e-12

#: Dense-size guard: the most complex entries one dense matrix built
#: from a solution may hold (2^24 entries, about 268 MB).
DENSE_ENTRY_CAP = 2 ** 24


def require_dense(entries: int, what: str) -> None:
    """Refuse, before allocation, a dense array above ``DENSE_ENTRY_CAP``."""
    if entries > DENSE_ENTRY_CAP:
        raise ResourceError(
            f"{what} needs {entries} entries, above the cap {DENSE_ENTRY_CAP}"
        )


@functools.lru_cache(maxsize=None)
def _flip_cached(d: int) -> np.ndarray:
    # Row i*d + j of the flip is row j*d + i of the identity.
    f = np.eye(d * d, dtype=complex).reshape(d, d, -1).transpose(1, 0, 2)
    f = f.reshape(d * d, d * d)
    f.setflags(write=False)
    return f


def flip_matrix(d: int) -> np.ndarray:
    """The tensor flip e_i (x) e_j -> e_j (x) e_i as a d^2 x d^2 matrix."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    require_dense(d ** 6, f"a d = {d} solution")
    return _flip_cached(d)


@dataclass(frozen=True)
class RMatrix:
    """A verified unitary Yang-Baxter solution.

    Attributes
    ----------
    d : local dimension (>= 1).
    matrix : the d^2 x d^2 matrix, read-only.
    ybe_residual, unitarity_residual : Frobenius residuals recorded at
        verification time.
    label : human-readable provenance tag, free-form.
    """

    d: int
    matrix: np.ndarray = field(repr=False)
    ybe_residual: float
    unitarity_residual: float
    label: str = ""

    def as_element(self) -> AlgebraElement:
        return AlgebraElement(self.d, 2, self.matrix)

    def relabel(self, label: str) -> "RMatrix":
        return RMatrix(
            self.d, self.matrix, self.ybe_residual, self.unitarity_residual,
            label,
        )

    def __getstate__(self):
        # The memo is derived, may be large and may key on local
        # functions, so a pickled solution leaves it out.
        return {k: v for k, v in vars(self).items() if k != "_memo"}


def memo(r: RMatrix, build, *args):
    """``build(r, *args)``, built once and kept in r's instance dict,
    keyed on the function object (not a name wrappers may share) and
    the arguments; so it dies with r, a relabelled or re-verified copy
    starts empty, and a build that raises keeps nothing."""
    kept = vars(r).setdefault("_memo", {})
    if (key := (build, *args)) not in kept:
        kept[key] = build(r, *args)
    return kept[key]


def braid_defect(r: np.ndarray, d: int) -> tuple:
    """(A, B, AB, BA, ABA - BAB) for A = R (x) 1 and B = 1 (x) R."""
    eye = np.eye(d, dtype=complex)
    a = kron(r, eye)
    b = kron(eye, r)
    ab, ba = a @ b, b @ a
    return a, b, ab, ba, ab @ a - ba @ b


def _ybe_residual_direct(r: np.ndarray, d: int) -> float:
    return frobenius_norm(braid_defect(r, d)[-1])


def _ybe_residual_endo(r: np.ndarray, d: int) -> float:
    # Independent route: R phi(R) R = phi(R) R phi(R) with the level
    # bookkeeping done by the tensor module.
    x = AlgebraElement(d, 2, r)
    a = embed(x, 3).matrix
    b = shift(x, 1).matrix
    return frobenius_norm(a @ b @ a - b @ a @ b)


def verify(matrix, d: int | None = None, tol: float = DEFAULT_TOL,
           label: str = "") -> RMatrix:
    """Verify unitarity and the Yang-Baxter equation, returning an RMatrix.

    The Yang-Baxter residual is computed twice, once from raw Kronecker
    products and once through the shift/embed bookkeeping; the two must
    agree to 1e-12 or an internal-consistency error is raised.

    Raises
    ------
    DomainError     unless 0 <= tol < inf (NaN would pass any residual).
    ShapeError      if the matrix is not d^2 x d^2 for some integer d.
    ResourceError   if the level-3 check, with d^6 entries, is above
        ``DENSE_ENTRY_CAP``.
    VerificationError  if either residual exceeds ``tol``; the error
        carries both residuals.
    """
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"need a tolerance 0 <= tol < inf, got {tol}")
    r = as_complex_matrix(matrix)
    n = r.shape[0]
    side = math.isqrt(n)
    if side * side != n:
        raise ShapeError(f"matrix side {n} is not a perfect square")
    if d is None:
        d = side
    elif d * d != n:
        raise ShapeError(f"matrix side {n} does not match d={d}")
    require_dense(d ** 6, f"a d = {d} solution")

    unit_res = frobenius_norm(r.conj().T @ r - np.eye(n))
    ybe_res = _ybe_residual_direct(r, d)
    ybe_res_endo = _ybe_residual_endo(r, d)
    if abs(ybe_res - ybe_res_endo) > ROUTE_AGREEMENT_TOL:
        raise InternalConsistencyError(
            "Yang-Baxter residual routes disagree: "
            f"{ybe_res:.6e} vs {ybe_res_endo:.6e}"
        )
    if unit_res > tol or ybe_res > tol:
        raise VerificationError(
            f"verification failed (ybe={ybe_res:.3e}, "
            f"unitarity={unit_res:.3e}, tol={tol:.1e})",
            ybe_residual=ybe_res,
            unitarity_residual=unit_res,
        )
    r = r.copy()
    r.setflags(write=False)
    return RMatrix(d, r, ybe_res, unit_res, label)


def make_trivial(d: int, q: complex = 1.0) -> RMatrix:
    """The scalar solution q * identity, |q| = 1."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    require_dense(d ** 6, f"a d = {d} solution")
    q = complex(q)
    if abs(abs(q) - 1.0) > 1e-12:
        raise DomainError(f"|q| must be 1, got |q|={abs(q)}")
    return verify(q * np.eye(d * d, dtype=complex), d,
                  label=f"trivial(d={d})")


def make_flip(d: int) -> RMatrix:
    return verify(flip_matrix(d), d, label=f"flip(d={d})")


@dataclass(frozen=True)
class SimpleRSpec:
    """Data for a simple solution: orthogonal projections plus phases.

    ``projections`` is a tuple of d x d Hermitian idempotents, pairwise
    orthogonal and summing to the identity.  ``phases`` is the N x N
    array of unimodular coefficients c[i, j]; the diagonal c[i, i]
    multiplies p_i (x) p_i and the off-diagonal c[i, j] multiplies
    (p_i (x) p_j) F.
    """

    projections: tuple
    phases: np.ndarray = field(repr=False)

    def __post_init__(self):
        projs = tuple(as_complex_matrix(p) for p in self.projections)
        if not projs:
            raise DomainError("need at least one projection")
        object.__setattr__(self, "projections", projs)
        c = np.asarray(self.phases, dtype=complex)
        n = len(projs)
        if c.shape != (n, n):
            raise ShapeError(f"phases must be {n} x {n}, got {c.shape}")
        object.__setattr__(self, "phases", c)

    @property
    def d(self) -> int:
        return self.projections[0].shape[0]

    def validate(self) -> None:
        d, tol = self.d, DEFAULT_TOL
        total = np.zeros((d, d), dtype=complex)
        for i, p in enumerate(self.projections):
            if p.shape != (d, d):
                raise ShapeError("projections must share one dimension")
            if frobenius_norm(p - p.conj().T) > tol:
                raise DomainError(f"projection {i} is not Hermitian")
            if frobenius_norm(p @ p - p) > tol:
                raise DomainError(f"projection {i} is not idempotent")
            total += p
        for i, p in enumerate(self.projections):
            for j, q in enumerate(self.projections[i + 1:], i + 1):
                if frobenius_norm(p @ q) > tol:
                    raise DomainError(f"projections {i},{j} not orthogonal")
        if frobenius_norm(total - np.eye(d)) > tol:
            raise DomainError("projections do not sum to the identity")
        if np.max(np.abs(np.abs(self.phases) - 1.0)) > tol:
            raise DomainError("phases must be unimodular")


def make_simple(spec: SimpleRSpec, label: str = "") -> RMatrix:
    """Build sum_i c_ii p_i (x) p_i + sum_{i != j} c_ij (p_i (x) p_j) F."""
    d = spec.d
    require_dense(d ** 6, f"a d = {d} solution")
    spec.validate()
    f = flip_matrix(d)
    r = np.zeros((d * d, d * d), dtype=complex)
    n = len(spec.projections)
    for i, p in enumerate(spec.projections):
        for j, q in enumerate(spec.projections):
            block = kron(p, q)
            r += spec.phases[i, j] * (block if i == j else block @ f)
    return verify(r, d, label=label or f"simple(d={d}, blocks={n})")


@dataclass(frozen=True)
class NormalFormSpec:
    """Block data (dim, sign) for an involutive normal form.

    Blocks are stored canonically: sign descending (+1 first), then
    dimension descending.  Two specs are equal iff they describe the
    same solution up to equivalence.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = []
        for dim, sign in self.blocks:
            dim, sign = int(dim), int(sign)
            if dim < 1:
                raise DomainError(f"block dimension must be >= 1, got {dim}")
            if sign not in (+1, -1):
                raise DomainError(f"block sign must be +1 or -1, got {sign}")
            blocks.append((dim, sign))
        if not blocks:
            raise DomainError("need at least one block")
        blocks.sort(key=lambda b: (-b[1], -b[0]))
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def d(self) -> int:
        return sum(dim for dim, _ in self.blocks)

    def signed_weights(self) -> list[float]:
        """The signed block weights sign * dim / d, in canonical order."""
        d = self.d
        return [sign * dim / d for dim, sign in self.blocks]


def make_normal_form(spec: NormalFormSpec) -> RMatrix:
    """The involutive solution with consecutive coordinate blocks.

    Block i acts on the coordinate window of its dimension; diagonal
    coefficients are the block signs and all off-diagonal coefficients
    are 1, so the result squares to the identity exactly.
    """
    n = len(spec.blocks)
    # The block of each coordinate, in order.
    owner = np.repeat(np.arange(n), [dim for dim, _ in spec.blocks])
    projs = [np.diag(owner == i).astype(complex) for i in range(n)]
    phases = np.ones((n, n), dtype=complex)
    np.fill_diagonal(phases, [sign for _, sign in spec.blocks])
    label = "normal_form(" + ",".join(
        f"{dim}:{'+' if sign > 0 else '-'}" for dim, sign in spec.blocks
    ) + ")"
    return make_simple(SimpleRSpec(tuple(projs), phases), label=label)


def _derive(matrix, d, label):
    try:
        return verify(matrix, d, label=label)
    except VerificationError as exc:
        raise InternalConsistencyError(
            f"derived solution failed verification: {exc}"
        ) from exc


def adjoint(r: RMatrix) -> RMatrix:
    return _derive(r.matrix.conj().T, r.d, f"adjoint({r.label})")


def scalar_multiple(r: RMatrix, c: complex) -> RMatrix:
    c = complex(c)
    if abs(abs(c) - 1.0) > 1e-12:
        raise DomainError(f"|c| must be 1, got |c|={abs(c)}")
    return _derive(c * r.matrix, r.d, f"scalar({r.label})")


def flip_conjugate(r: RMatrix) -> RMatrix:
    f = flip_matrix(r.d)
    return _derive(f @ r.matrix @ f, r.d, f"flip_conj({r.label})")


def quasifree_conjugate(r: RMatrix, u) -> RMatrix:
    """Conjugate by u (x) u for a unitary u on C^d."""
    u = as_complex_matrix(u)
    if u.shape != (r.d, r.d):
        raise ShapeError(f"u must be {r.d} x {r.d}, got {u.shape}")
    if not is_unitary(u):
        raise DomainError("u is not unitary within tolerance")
    return _derive(conjugate_by_square(r.matrix, u), r.d,
                   f"quasifree({r.label})")


def conjugate_by_square(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(u (x) u) m (u (x) u)* for a d x d matrix u."""
    big = kron(u, u)
    return big @ m @ big.conj().T


def tensor_product(r: RMatrix, s: RMatrix) -> RMatrix:
    """The solution R (x) S on C^(dd') after regrouping tensor slots.

    The Kronecker product of the two matrices acts on slots ordered
    (1, 2, 1', 2'); the result must act on ((1,1'), (2,2')).  The
    regrouping is a basis-index permutation: swap slots 2 and 1' in
    both the row and the column index.
    """
    d, dp = r.d, s.d
    big = d * dp
    k = kron(r.matrix, s.matrix).reshape((d, d, dp, dp) * 2)
    out = k.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(big * big, -1)
    return _derive(out, big, f"({r.label}) (x) ({s.label})")


def box_sum(r: RMatrix, s: RMatrix) -> RMatrix:
    """Direct-sum-with-flip solution on C^(d+d').

    Basis vectors of the first summand come first.  Pure pairs inside
    one summand use that summand's solution; mixed pairs are flipped.
    """
    d, dp = r.d, s.d
    big = d + dp
    out = np.zeros((big * big, big * big), dtype=complex)
    idx1 = [i * big + j for i in range(d) for j in range(d)]
    idx2 = [(d + i) * big + (d + j) for i in range(dp) for j in range(dp)]
    out[np.ix_(idx1, idx1)] = r.matrix
    out[np.ix_(idx2, idx2)] = s.matrix
    first = np.arange(big) < d
    kk, ll = np.nonzero(first[:, None] != first)
    out[ll * big + kk, kk * big + ll] = 1.0
    return _derive(out, big, f"({r.label}) ⊞ ({s.label})")


def cabling_power(r: RMatrix, n: int) -> RMatrix:
    """The n-th cabling power, a solution with local dimension d^n.

    Built literally: the braid image of the full twist on two cabled
    strands lives at level 2n, and grouping n consecutive slots into
    one is the identity on row-major indices, so the level-2n matrix is
    reinterpreted directly at local dimension d^n and re-verified.

    Raises a resource error when the level-2n matrix, with d^(4n)
    entries, exceeds ``DENSE_ENTRY_CAP``.
    """
    if n < 1:
        raise DomainError(f"cabling power must be >= 1, got {n}")
    d = r.d
    require_dense(d ** (4 * n), "cabling power")
    if n == 1:
        return _derive(r.matrix, d, f"cable({r.label}, 1)")
    # R_n = R phi(R) ... phi^(n-1)(R) at level n + 1, then
    # phi^(n-1)(R_n) ... phi(R_n) R_n at level 2n.
    rn = shifted_product(((k, r.matrix) for k in range(n)), d, 2)
    acc = shifted_product(((k, rn) for k in range(n - 1, -1, -1)), d, n + 1)
    return _derive(acc, d ** n, f"cable({r.label}, {n})")


def is_involutive(r: RMatrix, tol: float = DEFAULT_TOL) -> bool:
    return frobenius_norm(r.matrix @ r.matrix - np.eye(r.d ** 2)) <= tol


def is_trivial(r: RMatrix, tol: float = DEFAULT_TOL) -> bool:
    c = np.trace(r.matrix) / (r.d ** 2)
    return frobenius_norm(r.matrix - c * np.eye(r.d ** 2)) <= tol
