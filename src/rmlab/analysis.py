"""Structural analysis of Yang-Baxter solutions.

The entry point is :func:`analyze`, which assembles an
:class:`AnalysisReport` out of independent sections: spectra, the
partial trace invariant, commutant towers, fixed points, ergodicity,
index bounds, concentration-based triviality, involutive normal forms
and (for d = 2) an explicit classification into the four known
families.  A failing section is recorded in ``report.errors`` instead
of aborting the rest.

Everything is deterministic in the inputs: probes use ``PROBE_SEED``.
What sections share is kept on the solution by ``rmatrix.memo``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DomainError, InternalConsistencyError, NormalFormError,
                     RmlabError)
from . import commutant
from .commutant import (SubalgebraBasis, _eigenspaces, fixed_subalgebra,
                        hermitian_probe, profile_string,
                        relative_commutant_L, relative_commutant_M,
                        relative_commutant_N)
from .corpus import _family4_matrix
from .rmatrix import (DENSE_ENTRY_CAP, NormalFormSpec, RMatrix,
                      conjugate_by_square, is_involutive, is_trivial, memo,
                      quasifree_conjugate, verify)
from .tensor import (CLUSTER_TOL, DEFAULT_TOL, eig_normal, frobenius_norm,
                     operator_norm_estimate, pad_left, pad_right,
                     partial_trace_left, partial_trace_right, trace_out_last)

__all__ = [
    "AnalysisReport",
    "ConcentrationData",
    "Dim2Classification",
    "ErgodicityResult",
    "IndexBounds",
    "PartialTraceData",
    "ReductionLeaf",
    "ReductionSplit",
    "ReductionResult",
    "analyze",
    "classify_dim2",
    "ergodicity_necessary_check",
    "index_bounds",
    "is_ergodic",
    "is_irreducible",
    "normal_form_of_involutive",
    "partial_trace_invariant",
    "phi_image",
    "reduce_involutive",
    "triviality_by_concentration",
    "CONCENTRATION_THRESHOLD",
]

#: Spectral concentration below this radius forces the solution to be
#: scalar: 1 - 2^(-1/4).
CONCENTRATION_THRESHOLD = 1.0 - 2.0 ** (-0.25)

#: Residual within which a basis change exposes structure: a d = 2
#: family's support, or a split of an involutive solution.
STRUCTURE_TOL = 1e-8


def phi_image(r: RMatrix) -> np.ndarray:
    """Normalized left partial trace of R, a d x d matrix."""
    return partial_trace_left(r.as_element()).matrix


class Eigenvalue(NamedTuple):
    value: complex
    multiplicity: int


def _spectrum(r: RMatrix, partial: bool) -> tuple:
    """The distinct eigenvalues, with multiplicities, of R or with
    ``partial`` of its partial trace; read through ``memo``."""
    return tuple(Eigenvalue(cl.value, cl.multiplicity) for cl in
                 eig_normal(phi_image(r) if partial else r.matrix))


@dataclass(frozen=True)
class PartialTraceData:
    matrix: np.ndarray = field(repr=False)
    left_right_residual: float
    normality_defect: float
    operator_norm: float
    spectrum: tuple


def partial_trace_invariant(r: RMatrix, tol: float = 1e-10
                            ) -> PartialTraceData:
    """The left partial trace of R with its invariance certificates.

    For a verified solution the left and right partial traces agree,
    the common value is normal, and its operator norm is at most 1.
    Violations beyond ``tol`` are internal-consistency errors.
    """
    left = partial_trace_left(r.as_element()).matrix
    right = partial_trace_right(r.as_element()).matrix
    lr = frobenius_norm(left - right)
    defect = frobenius_norm(left @ left.conj().T - left.conj().T @ left)
    if lr > tol or defect > tol:
        raise InternalConsistencyError(
            f"partial trace invariance broken: left-right={lr:.3e}, "
            f"normality={defect:.3e}"
        )
    norm = operator_norm_estimate(left)
    if norm > 1.0 + tol:
        raise InternalConsistencyError(
            f"partial trace has operator norm {norm} > 1")
    return PartialTraceData(left, lr, defect, norm, memo(r, _spectrum, True))


@dataclass(frozen=True)
class ErgodicityResult:
    ergodic: bool
    max_deviation: float
    witness: tuple | None


def is_ergodic(r: RMatrix) -> ErgodicityResult:
    """Test the averaging identity E_1(R (x (x) 1) R*) = tr(x) 1.

    Equivalent to the entrywise tensor identity
    sum_{m,n} R^{im}_{kn} conj(R^{jm}_{ln}) = delta_ij delta_kl; the
    worst (i, j, k, l), if off by more than ``DEFAULT_TOL``, is the witness.
    """
    d = r.d
    t4 = r.matrix.reshape(d, d, d, d)
    got = np.einsum("imkn,jmln->ijkl", t4, t4.conj())
    eye = np.eye(d)
    want = np.einsum("ij,kl->ijkl", eye, eye)
    dev = np.abs(got - want)
    max_dev = float(dev.max())
    if max_dev <= DEFAULT_TOL:
        return ErgodicityResult(True, max_dev, None)
    witness = tuple(int(v) for v in np.unravel_index(dev.argmax(), dev.shape))
    return ErgodicityResult(False, max_dev, witness)


def ergodicity_necessary_check(r: RMatrix) -> float:
    """|tr(R* phi(R)) - 1/d^2|, which vanishes for ergodic solutions."""
    d = r.d
    a = pad_right(r.matrix, d, 1)
    b = pad_left(r.matrix, d, 1)
    value = complex(np.vdot(a, b)) / d ** 3
    return abs(value - 1.0 / d ** 2)


def is_irreducible(r: RMatrix) -> bool:
    """True when the level-1 relative commutant is the scalars."""
    return memo(r, relative_commutant_M, 1).dimension == 1


@dataclass(frozen=True)
class IndexBounds:
    lower: float
    upper: float
    sources: tuple

    def __post_init__(self):
        if not (1.0 - 1e-12 <= self.lower <= self.upper + 1e-12):
            raise InternalConsistencyError(
                f"index bounds out of order: [{self.lower}, {self.upper}]"
            )


def index_bounds(r: RMatrix) -> IndexBounds:
    """Rigorous lower and upper bounds for the endomorphism index.

    Lower: distinct eigenvalue counts of R and of its partial trace
    (the latter squared).  Upper: d^2 always, improved by the fourth
    power of the inverse partial trace norm when no eigenvalue of it is
    within ``CLUSTER_TOL`` of 0.  Both spectra are read through ``memo``.
    """
    d = r.d
    spec_r, spec_phi = memo(r, _spectrum, False), memo(r, _spectrum, True)
    lower_r = float(len(spec_r))
    lower_phi = float(len(spec_phi)) ** 2
    lower = max(1.0, lower_r, lower_phi)
    sources = [
        f"distinct eigenvalues of R: {int(lower_r)}",
        f"distinct eigenvalues of partial trace, squared: {int(lower_phi)}",
        f"dimension bound d^2 = {d * d}",
    ]
    upper = float(d * d)
    min_abs = min(abs(cl.value) for cl in spec_phi)
    if min_abs > CLUSTER_TOL:
        inv_norm_bound = (1.0 / min_abs) ** 4
        if inv_norm_bound < upper:
            upper = inv_norm_bound
            sources.append(
                f"inverse partial trace norm^4: {inv_norm_bound:.6g}"
            )
    lower = min(lower, upper)
    return IndexBounds(lower, upper, tuple(sources))


@dataclass(frozen=True)
class ConcentrationData:
    margin: float
    threshold: float
    concluded_trivial: bool


def triviality_by_concentration(r: RMatrix) -> ConcentrationData:
    """Distance of the spectrum from the best single phase.

    margin = min over |mu| = 1 of max_k |lambda_k - mu|.  Since
    |lambda - mu| grows with the angle between them, the best mu faces
    the middle of the largest gap g between neighbouring eigenvalue
    angles (the wrap-around gap included), and the margin is exactly
    2 cos(g / 4).  A margin below 1 - 2^(-1/4) forces the solution to
    be scalar; that implication is asserted and its failure would be an
    internal-consistency error.
    """
    angles = np.sort(np.angle(np.linalg.eigvals(r.matrix)))
    gap = max(np.max(np.diff(angles), initial=0.0),
              angles[0] + 2.0 * math.pi - angles[-1])
    margin = 2.0 * math.cos(gap / 4.0)
    concluded = margin < CONCENTRATION_THRESHOLD
    if concluded and not is_trivial(r):
        raise InternalConsistencyError(
            f"spectrum concentrated (margin {margin:.6f}) but the "
            "solution is not scalar"
        )
    return ConcentrationData(margin, CONCENTRATION_THRESHOLD, concluded)


def normal_form_of_involutive(r: RMatrix) -> NormalFormSpec:
    """Read the block data of an involutive solution off its partial trace.

    The partial trace of a normal-form solution is constant on each
    block with value sign * dim / d, so an eigenvalue v of multiplicity
    m decodes to m / (d |v|) blocks of dimension d |v| and sign(v).
    Non-integer decodings mean the input is not equivalent to a normal
    form; involution and a Hermitian partial trace hold to ``CLUSTER_TOL``.
    """
    if not is_involutive(r, tol=CLUSTER_TOL):
        raise DomainError("solution is not involutive")
    d = r.d
    phi = phi_image(r)
    herm_defect = frobenius_norm(phi - phi.conj().T)
    if herm_defect > CLUSTER_TOL:
        raise NormalFormError(
            f"partial trace not Hermitian (defect {herm_defect:.3e})"
        )
    blocks = []
    total = 0
    for cl in eig_normal((phi + phi.conj().T) / 2.0):
        v = cl.value.real
        if abs(v) * d < 0.5:
            raise NormalFormError(
                f"partial trace eigenvalue {v:.3e} too close to zero"
            )
        dim_f = abs(v) * d
        dim = round(dim_f)
        count_f = cl.multiplicity / dim_f
        count = round(count_f)
        if abs(dim_f - dim) > 1e-6 or abs(count_f - count) > 1e-6:
            raise NormalFormError(
                f"eigenvalue {v:.6f} (multiplicity {cl.multiplicity}) "
                "does not decode to integer block data"
            )
        sign = 1 if v > 0 else -1
        blocks.extend([(dim, sign)] * count)
        total += dim * count
    if total != d:
        raise NormalFormError(
            f"decoded blocks cover dimension {total}, expected {d}"
        )
    return NormalFormSpec(tuple(blocks))


@dataclass(frozen=True)
class ReductionLeaf:
    """A terminal factor: 'trivial' (= sign * identity) or 'flip'."""

    kind: str
    sign: int
    dim: int

    def blocks(self) -> tuple:
        if self.kind == "trivial":
            return ((self.dim, self.sign),)
        return ((1, self.sign),) * self.dim


@dataclass(frozen=True)
class ReductionSplit:
    dim: int
    conjugator: np.ndarray = field(repr=False)
    left: object
    right: object

    def blocks(self) -> tuple:
        return self.left.blocks() + self.right.blocks()


@dataclass(frozen=True)
class ReductionResult:
    root: object
    spec: NormalFormSpec

    @property
    def blocks(self) -> tuple:
        return self.spec.blocks


def reduce_involutive(r: RMatrix) -> ReductionResult:
    """Recursively split an involutive solution along its commutant.

    Any proper projection p in the level-1 relative commutant induces
    a basis change after which the solution maps range(p) x range(p)
    and its complement pair into themselves (two smaller involutive
    solutions S and T) and swaps the mixed subspaces through some
    unitary off-diagonal block.  The summands are reduced in turn; the
    whole solution stays character-equivalent to the box sum of S and
    T regardless of the off-diagonal block.  Leaves are scalar (+-1)
    or irreducible with constant partial trace (the flip class);
    anything else stops the reduction with a normal-form error.  The
    collected leaf data is cross-checked against
    :func:`normal_form_of_involutive`.  Residuals: ``STRUCTURE_TOL``.
    """
    if not is_involutive(r, tol=STRUCTURE_TOL):
        raise DomainError("solution is not involutive")
    rng = np.random.default_rng(commutant.PROBE_SEED)

    def descend(cur: RMatrix):
        d = cur.d
        if is_trivial(cur, tol=STRUCTURE_TOL):
            c = complex(np.trace(cur.matrix)) / d ** 2
            sign = 1 if c.real > 0 else -1
            if abs(c - sign) > STRUCTURE_TOL:
                raise NormalFormError(f"scalar leaf value {c} is not +-1")
            return ReductionLeaf("trivial", sign, d)
        m = relative_commutant_M(cur, 1)
        if m.dimension == 1:
            phi = phi_image(cur)
            sign = 1 if np.trace(phi).real > 0 else -1
            resid = frobenius_norm(phi - sign * np.eye(d) / d)
            if resid > STRUCTURE_TOL:
                raise NormalFormError(
                    "irreducible factor is neither scalar nor of flip "
                    f"class (partial trace residual {resid:.3e})"
                )
            return ReductionLeaf("flip", sign, d)
        # The probe's first eigenspace is a proper projection in M.
        vecs, groups = _eigenspaces(hermitian_probe(
            [b.matrix for b in m.basis], rng))
        if len(groups) < 2:
            raise InternalConsistencyError(
                "probe of a non-scalar algebra produced one spectral cluster"
            )
        rank = len(groups[0])
        u = vecs.conj().T
        aligned = quasifree_conjugate(cur, u).matrix
        ww = [i * d + j for i in range(rank) for j in range(rank)]
        cc = [i * d + j for i in range(rank, d) for j in range(rank, d)]
        wc = [i * d + j for i in range(rank) for j in range(rank, d)]
        cw = [i * d + j for i in range(rank, d) for j in range(rank)]
        s = verify(aligned[np.ix_(ww, ww)], rank, tol=STRUCTURE_TOL)
        t = verify(aligned[np.ix_(cc, cc)], d - rank, tol=STRUCTURE_TOL)
        off = aligned[np.ix_(cw, wc)]
        recon = np.zeros_like(aligned)
        recon[np.ix_(ww, ww)] = s.matrix
        recon[np.ix_(cc, cc)] = t.matrix
        recon[np.ix_(cw, wc)] = off
        recon[np.ix_(wc, cw)] = off.conj().T
        unit_defect = frobenius_norm(off.conj().T @ off - np.eye(len(wc)))
        drift = frobenius_norm(aligned - recon)
        if drift > STRUCTURE_TOL or unit_defect > STRUCTURE_TOL:
            raise NormalFormError(
                "aligned solution does not split along the projection "
                f"(drift {drift:.3e}, off-block defect {unit_defect:.3e})"
            )
        return ReductionSplit(d, u, descend(s), descend(t))

    root = descend(r)
    spec = NormalFormSpec(root.blocks())
    direct = normal_form_of_involutive(r)
    if spec.blocks != direct.blocks:
        raise InternalConsistencyError(
            f"reduction blocks {spec.blocks} disagree with the partial "
            f"trace decoding {direct.blocks}"
        )
    return ReductionResult(root, spec)


@dataclass(frozen=True)
class Dim2Classification:
    family: int | None
    parameters: dict
    conjugator: np.ndarray | None = field(repr=False, default=None)
    residual: float = math.inf

    @property
    def classified(self) -> bool:
        return self.family is not None


#: 0 on the supports of the diagonal and antidiagonal families, 1 off.
_FAM2_OFF = 1.0 - np.eye(4)[[0, 2, 1, 3]]
_FAM3_OFF = 1.0 - np.eye(4)[[3, 1, 2, 0]]


def _basis_unitary_from_vector(v: np.ndarray) -> np.ndarray:
    """Unitary sending the line of v to e_1 (rows are the new basis)."""
    v = v / np.linalg.norm(v)
    k = 0 if abs(v[0]) > 1e-12 else 1
    v = v * (np.conj(v[k]) / abs(v[k]))
    w = np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)
    return np.stack([v.conj(), w.conj()], axis=0)


def _fixed_point_axis(fixed: SubalgebraBasis) -> np.ndarray:
    """The largest traceless Hermitian or skew part of a basis element
    of a d = 2 fixed-point algebra.

    For span{1, P} every such part is a multiple of P - 1/2, and for an
    orthonormal basis the largest is at least 1/2 in norm, so its two
    eigenvalues are far apart; a random combination can land near a
    scalar and merge them.  The sign puts the lower eigenvector nearer
    e_1, so an input already in canonical form keeps the identity basis.
    """
    parts = []
    for b in fixed.basis:
        t = b.matrix - np.trace(b.matrix) / 2.0 * np.eye(2)
        parts += [(t + t.conj().T) / 2.0, (t - t.conj().T) / 2.0j]
    h = max(parts, key=frobenius_norm)
    return -h if h[0, 0].real > 0.0 else h


def _try_family4(r: RMatrix,
                 fixed: SubalgebraBasis) -> Dim2Classification | None:
    for v in np.linalg.eigh(_fixed_point_axis(fixed))[1].T:
        w = _basis_unitary_from_vector(v)
        aligned = conjugate_by_square(r.matrix, w)
        off = aligned.copy()
        off[:2, :2] = 0.0
        off[2:, 2:] = 0.0
        if frobenius_norm(off) > 1e-6:
            continue
        q = aligned[0, 0] * math.sqrt(2.0)
        if abs(abs(q) - 1.0) > 1e-6:
            continue
        gamma = aligned[0, 1] / (q / math.sqrt(2.0))
        resid, u = min(
            ((frobenius_norm(conjugate_by_square(r.matrix, c)
                             - _family4_matrix(q)), c)
             for c in (np.diag([1.0, g]) @ w for g in (gamma, gamma.conj()))),
            key=lambda pair: pair[0],
        )
        if resid <= STRUCTURE_TOL:
            return Dim2Classification(4, {"q": complex(q)}, u, float(resid))
    return None


#: The fixed generic Hermitian of the closed-form seeds: any H whose two
#: diagonal entries differ in the solution's product basis will do.
_SEED_HERMITIAN = np.array([[0.71, 0.33 - 0.47j], [0.33 + 0.47j, -0.29]])


def _diag_seed_vectors(r: RMatrix):
    """Candidate eigenbasis vectors for the product-basis families,
    unit and yielded lazily: the R^2 seeds are built only if asked for.

    The map x -> (left partial trace of R (x (x) 1) R*) commutes with
    conjugation of R, and for the product-basis families its
    eigenvectors are supported on single matrix units of the right
    basis, so singular vectors of those eigenvectors recover the basis.
    Then one closed-form seed per spectral projection P of R^2: in that
    basis P is a sum of terms P_i (x) P_j, so tr_2[P (1 (x) H)] is
    diagonal there, and its eigenvectors are the basis.
    """
    d = r.d
    # Entry (kl, ab) of the map: sum_ij R[ik, aj] conj(R[il, bj]) / d.
    t4 = r.matrix.reshape(d, d, d, d)
    m = np.einsum("ikaj,ilbj->klab", t4, t4.conj()).reshape(d * d, -1) / d
    for x in np.linalg.eig(m)[1].T:
        u_l, _, v_r = np.linalg.svd(x.reshape(d, d))
        for v in (u_l[:, 0], v_r[0, :].conj()):
            yield v / np.linalg.norm(v)
    probe = pad_left(_SEED_HERMITIAN, d, 1)
    for cl in eig_normal(r.matrix @ r.matrix):
        v = np.linalg.eigh(trace_out_last(cl.projection @ probe, d))[1][:, 0]
        yield v / np.linalg.norm(v)


def _candidate_bases(r: RMatrix):
    """The basis change of each seed, then of each polished seed, the
    last seed first; a seed is built only when its turn comes."""
    seeds = []
    for v in _diag_seed_vectors(r):
        seeds.append(v)
        yield _basis_unitary_from_vector(v)
    for v in reversed(seeds):
        yield _polish_seed(r, v)


#: Change of basis carrying the overlap form q*diag-antidiag(1,-1,-1,1)
#: onto antidiagonal support.  The diagonal and antidiagonal families
#: intersect in a single quasifree orbit; its members are reported as
#: family 3, whose split-commutant condition q^2 = p r they satisfy.
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def _polish_seed(r: RMatrix, v: np.ndarray) -> np.ndarray:
    """The basis change of v after six Gauss-Newton steps toward the
    support nearer at v, in the two real coordinates z of the line
    v + z v_perp, with a forward-difference Jacobian of step h."""
    h = 1e-7
    w = _basis_unitary_from_vector(v)
    aligned = conjugate_by_square(r.matrix, w)
    off = min(_FAM2_OFF, _FAM3_OFF,
              key=lambda mask: frobenius_norm(aligned * mask))

    def residual(u: np.ndarray) -> np.ndarray:
        m = conjugate_by_square(r.matrix, _basis_unitary_from_vector(u))
        return (m * off).view(float).ravel()

    for _ in range(6):
        v, perp = w.conj()  # the rows of w are v* and v_perp*
        f = residual(v)
        jac = np.stack([residual(v + h * perp) - f,
                        residual(v + 1j * h * perp) - f], axis=1) / h
        x = np.linalg.lstsq(jac, -f, rcond=None)[0]
        w = _basis_unitary_from_vector(v + complex(x[0], x[1]) * perp)
    return w


def _extract_product_family(r: RMatrix, w: np.ndarray, tol: float
                            ) -> Dim2Classification:
    """The diagonal or antidiagonal family R shows in the basis w, or,
    when R is not within ``tol`` of either support there, family None
    with the distance to the nearer support."""
    aligned = conjugate_by_square(r.matrix, w)
    s2 = frobenius_norm(aligned * _FAM2_OFF)
    s3 = frobenius_norm(aligned * _FAM3_OFF)
    miss = Dim2Classification(None, {}, None, float(min(s2, s3)))
    if min(s2, s3) > tol:
        return miss
    if s2 <= s3:
        p, q = complex(aligned[0, 0]), complex(aligned[1, 2])
        rr, s = complex(aligned[2, 1]), complex(aligned[3, 3])
        on_overlap = max(abs(p - s), abs(q - rr), abs(q + p)) <= max(tol, s2)
        if on_overlap:
            promoted = _extract_product_family(r, _HADAMARD @ w, tol)
            if promoted.family == 3:
                return promoted
        params = {"p": p, "q": q, "r": rr, "s": s}
        return Dim2Classification(2, params, w, float(s2))
    mid = abs(aligned[1, 1] - aligned[2, 2])
    if mid > tol:
        return miss
    params = {
        "p": complex(aligned[0, 3]),
        "q": complex((aligned[1, 1] + aligned[2, 2]) / 2.0),
        "r": complex(aligned[3, 0]),
    }
    return Dim2Classification(3, params, w, float(s3))


#: The last resort of ``classify_dim2`` accepts a support residual up to
#: this multiple of sqrt(ybe_residual): the solution variety is singular
#: on the supports, so a solution with defect delta can lie about
#: sqrt(delta) off them (d = 2 search endpoints: up to 0.75 sqrt(delta)).
LAST_RESORT_C = 2.0


def classify_dim2(r: RMatrix) -> Dim2Classification:
    """Classify a d = 2 solution into the four known families.

    Decision order: scalar solutions; non-ergodic solutions on their
    endomorphism fixed points (the Pauli-type family; ergodic ones have
    only scalar fixed points); then closed-form seeds for a product
    eigenbasis exposing the diagonal and antidiagonal families, R^2's
    projection seeds only when the map's seeds fail, and, only when no
    seed is exact, each seed again after a Gauss-Newton polish
    (``_polish_seed``), R^2's projection seeds first.  When all of
    these fail at ``STRUCTURE_TOL``, the candidate nearest a support gets
    a last chance at ``LAST_RESORT_C`` times the square root of
    ``r.ybe_residual``.  Unclassifiable inputs are returned with
    ``family=None`` and the best residual found.
    """
    if r.d != 2:
        raise DomainError(f"classification needs d = 2, got d = {r.d}")
    if is_trivial(r):
        q = complex(np.trace(r.matrix)) / 4.0
        resid = frobenius_norm(r.matrix - q * np.eye(4))
        return Dim2Classification(
            1, {"q": q}, np.eye(2, dtype=complex), float(resid)
        )
    if not is_ergodic(r).ergodic:
        fixed = memo(r, fixed_subalgebra, 1)
        if fixed.dimension > 1 and (out := _try_family4(r, fixed)):
            return out

    # Near a degenerate point of R^2 the seeds are accurate only to about
    # rounding / gap; polished, the projection seeds are the ones to land.
    tried = []
    for w in _candidate_bases(r):
        out = _extract_product_family(r, w, STRUCTURE_TOL)
        if out.classified:
            return out
        tried.append((out.residual, w))
    w = min(tried, key=lambda pair: pair[0])[1]
    loose = LAST_RESORT_C * math.sqrt(r.ybe_residual)
    return _extract_product_family(r, w, max(STRUCTURE_TOL, loose))


def _feasible_fixed_cap(d: int, cap: int) -> int:
    """Highest fixed-point level up to ``cap`` (at least 1) whose
    operator, with d^(4n+2) entries, fits within ``DENSE_ENTRY_CAP``."""
    n = 1
    while n + 1 <= cap and d ** (4 * (n + 1) + 2) <= DENSE_ENTRY_CAP:
        n += 1
    return n


def _jsonable(value):
    """The JSON form of a report value: dataclasses and named tuples
    become {field: ...}, arrays their row-major entries, tuples lists,
    complex numbers [re, im] and numpy scalars Python ones."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    elif hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = tuple(value.astype(complex).reshape(-1))
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    return value


class _Section(NamedTuple):
    """One report section.  ``name`` keys its failure in ``errors`` and,
    up to its first dot, its entry in ``to_dict``.  ``compute(r, report)``
    gives the report attribute ``attr`` (None: not applicable),
    ``markdown(value, report)`` its lines and ``encode(value)`` its JSON.
    """

    name: str
    attr: str
    compute: Callable
    markdown: Callable | None
    encode: Callable = _jsonable


def _spectrum_text(spectrum) -> str:
    return ", ".join(f"{v:.6g} (x{m})" for v, m in spectrum)


def _tower(r, report, name: str) -> dict:
    """Levels 1 to ``n_cap`` of the commutant tower ``name``, filled into
    ``report.commutants`` one by one so a failing level keeps those
    below it."""
    build = {"M": relative_commutant_M, "N": relative_commutant_N,
             "L": relative_commutant_L}[name]
    for n in range(1, report.n_cap + 1):
        report.commutants.setdefault(n, {})[name] = memo(r, build, n)
    return report.commutants


def _towers_text(commutants, report) -> str:
    return "\n".join(
        f"* level {n}: " + ", ".join(
            f"{name}: {profile_string(b.block_profile)} (dim {b.dimension}"
            + ("" if b.converged else ", truncated") + ")"
            for name, b in by_name.items())
        for n, by_name in sorted(commutants.items()))


def _towers_json(commutants) -> dict:
    return {str(n): {name: {"dimension": b.dimension,
                            "profile": _jsonable(b.block_profile),
                            "profile_text": profile_string(b.block_profile),
                            "converged": b.converged}
                     for name, b in by_name.items()}
            for n, by_name in commutants.items()}


def _dim2_text(c, report) -> str:
    if c.family is None:
        return f"* d=2 family: unclassified (best residual {c.residual:.3e})"
    params = ", ".join(f"{k}={v:.6g}" for k, v in sorted(c.parameters.items()))
    return f"* d=2 family: {c.family} ({params}), residual {c.residual:.3e}"


def _exact_index(r, report) -> tuple | None:
    family = report.dim2 and report.dim2.family
    blocks = report.normal_form and report.normal_form.blocks
    if report.trivial:
        return (1.0, "scalar solution")
    if family in (2, 3):
        return (4.0, "product-basis family at d = 2")
    if family == 4:
        return (2.0, "Pauli-type family at d = 2")
    if blocks and all(dim == 1 for dim, _ in blocks):
        return (float(r.d ** 2), "involutive with rank-one blocks")
    return None


#: The report sections, in the order they run and print.  The lambdas
#: look their functions up at call time, so patching or wrapping a
#: module function reaches ``analyze``.
_SECTIONS = (
    _Section("spectrum", "spectrum", lambda r, rep: memo(r, _spectrum, False),
             lambda v, rep: f"* spectrum of R: {_spectrum_text(v)}"),
    _Section("partial_trace", "partial_trace",
             lambda r, rep: partial_trace_invariant(r),
             lambda v, rep: "* partial trace spectrum: "
             f"{_spectrum_text(v.spectrum)} (norm {v.operator_norm:.6g})"),
    *(_Section(f"commutants.{x}", "commutants",
               lambda r, rep, x=x: _tower(r, rep, x),
               _towers_text, _towers_json) for x in "MNL"),
    _Section("fixed_dims", "fixed_dims", lambda r, rep: tuple(
                 memo(r, fixed_subalgebra, n).dimension for n in
                 range(1, _feasible_fixed_cap(r.d, rep.fixed_cap) + 1)),
             lambda v, rep: "* fixed point dimensions: "
             + ", ".join(map(str, v))),
    _Section("ergodic", "ergodic", lambda r, rep: is_ergodic(r),
             lambda v, rep: f"* ergodic: {v.ergodic} (max deviation "
             f"{v.max_deviation:.3e}, necessary gap {rep.necessary_gap:.3e})"),
    _Section("necessary_gap", "necessary_gap",
             lambda r, rep: ergodicity_necessary_check(r), None),
    _Section("irreducible", "irreducible", lambda r, rep:
             memo(r, relative_commutant_M, 1).dimension == 1,
             lambda v, rep: f"* irreducible: {v}"),
    _Section("index_bounds", "bounds", lambda r, rep: index_bounds(r),
             lambda v, rep: f"* index bounds: [{v.lower:.6g}, {v.upper:.6g}]"),
    _Section("concentration", "concentration",
             lambda r, rep: triviality_by_concentration(r),
             lambda v, rep: f"* concentration margin: {v.margin:.6f} "
             f"(threshold {v.threshold:.6f})"),
    _Section("normal_form", "normal_form",
             lambda r, rep: normal_form_of_involutive(r)
             if rep.involutive else None,
             lambda v, rep: "* normal form blocks: " + " + ".join(
                 f"{n}:{'+' if sign > 0 else '-'}" for n, sign in v.blocks),
             lambda v: [{"dim": dim, "sign": sign} for dim, sign in v.blocks]),
    _Section("dim2", "dim2",
             lambda r, rep: classify_dim2(r) if r.d == 2 else None,
             _dim2_text),
    _Section("exact_index", "exact_index", _exact_index,
             lambda v, rep: f"* exact index: {v[0]:.6g} ({v[1]})",
             lambda v: {"value": v[0], "reason": v[1]}),
)


@dataclass
class AnalysisReport:
    label: str
    d: int
    n_cap: int
    fixed_cap: int
    ybe_residual: float
    unitarity_residual: float
    involutive: bool
    trivial: bool
    spectrum: tuple | None = None
    partial_trace: PartialTraceData | None = None
    commutants: dict = field(default_factory=dict)
    fixed_dims: tuple | None = None
    ergodic: ErgodicityResult | None = None
    necessary_gap: float | None = None
    irreducible: bool | None = None
    bounds: IndexBounds | None = None
    concentration: ConcentrationData | None = None
    normal_form: NormalFormSpec | None = None
    dim2: Dim2Classification | None = None
    exact_index: tuple | None = None
    errors: dict = field(default_factory=dict)

    def _sections(self):
        """(row, value) of each set attribute, in table order; the three
        towers share ``commutants``, which counts as unset when empty."""
        for row in {row.attr: row for row in _SECTIONS}.values():
            value = getattr(self, row.attr)
            if value not in (None, {}):
                yield row, value

    def to_dict(self) -> dict:
        out = {name: _jsonable(getattr(self, name)) for name in (
            "label", "d", "n_cap", "fixed_cap", "ybe_residual",
            "unitarity_residual", "involutive", "trivial", "errors")}
        for row, value in self._sections():
            out[row.name.partition(".")[0]] = row.encode(value)
        return out

    def to_markdown(self) -> str:
        note = " (endomorphism is an automorphism)" if self.trivial else ""
        lines = [
            f"# Analysis: {self.label or 'unnamed solution'}",
            "",
            f"* d = {self.d}, residuals: ybe {self.ybe_residual:.3e}, "
            f"unitarity {self.unitarity_residual:.3e}",
            f"* involutive: {self.involutive}, trivial: {self.trivial}{note}",
        ]
        lines += [row.markdown(value, self)
                  for row, value in self._sections() if row.markdown]
        lines += [f"* [error] {name}: {message}"
                  for name, message in sorted(self.errors.items())]
        return "\n".join(lines + [""])


def analyze(r: RMatrix, n_cap: int = 2, fixed_cap: int = 4
            ) -> AnalysisReport:
    """Run every analysis section on a verified solution.

    Sections are independent; a failure is recorded under its name in
    ``errors`` and the remaining sections still run.  Raises
    ``DomainError`` unless n_cap >= 0 and fixed_cap >= 1.
    """
    if n_cap < 0 or fixed_cap < 1:
        raise DomainError(
            f"need n_cap >= 0 and fixed_cap >= 1, got {n_cap}, {fixed_cap}")
    report = AnalysisReport(
        r.label, r.d, n_cap, fixed_cap, r.ybe_residual,
        r.unitarity_residual, is_involutive(r), is_trivial(r))
    for row in _SECTIONS:
        try:
            setattr(report, row.attr, row.compute(r, report))
        except RmlabError as exc:
            report.errors[row.name] = str(exc)
    return report
