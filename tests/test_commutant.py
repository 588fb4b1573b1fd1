"""Commutant towers, fixed points, and algebra-structure detection."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rmlab
import rmlab.commutant
import rmlab.rmatrix
from rmlab import (
    AlgebraElement,
    apply_endo,
    braid_image_commutant,
    classify_dim2,
    fixed_subalgebra,
    nullspace,
    profile_string,
    relative_commutant_L,
    relative_commutant_M,
    relative_commutant_N,
    wedderburn_decompose,
)
from rmlab.commutant import (
    _generator_images,
    _subspace,
    commutant_of,
)
from rmlab.errors import (DegeneracyError, DomainError,
                          InternalConsistencyError, ResourceError)
from rmlab.rmatrix import require_dense

from closure import generated_algebra

RNG = np.random.default_rng(31)


def _operator_matrix(map_fn, d, level):
    """Reference: the matrix of a linear map on F^level, one matrix unit
    per column, so column p * D + q is the row-major image of e_pq."""
    dim = d ** level
    cols = []
    for p in range(dim):
        for q in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[p, q] = 1.0
            cols.append(np.asarray(map_fn(unit), dtype=complex).reshape(-1))
    return np.stack(cols, axis=1)


def span_columns_contain(outer, inner, tol=1e-9):
    cols = outer.columns
    proj = cols @ cols.conj().T
    for el in inner.basis:
        v = el.matrix.reshape(-1)
        v = v / np.linalg.norm(v)
        if np.linalg.norm(proj @ v - v) > tol:
            return False
    return True


def test_nullspace_of_zero_matrix_is_full():
    assert nullspace(np.zeros((3, 3))).shape == (3, 3)
    # noise at machine scale must be treated as zero too
    noisy = 1e-17 * RNG.standard_normal((6, 4))
    assert nullspace(noisy).shape == (4, 4)


def test_nullspace_rank_one():
    a = np.outer([1.0, 2.0], [1.0, 1.0, 0.0])
    ns = nullspace(a)
    assert ns.shape == (3, 2)
    assert np.linalg.norm(a @ ns) <= 1e-12


def test_nullspace_wide_matrix():
    a = np.array([[1.0, 0.0, 0.0, 0.0]])
    ns = nullspace(a)
    assert ns.shape == (4, 3)
    assert np.linalg.norm(a @ ns) <= 1e-12


def test_wedderburn_full_matrix_algebra():
    units = []
    for k in range(9):
        m = np.zeros((3, 3), dtype=complex)
        m[k // 3, k % 3] = 1.0
        units.append(m)
    assert wedderburn_decompose(units) == (3,)


def test_wedderburn_refuses_the_probe_stack_before_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the algebra was probed")

    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    # The k x D x D stack of the basis the probes draw from: 9 * 3 * 3.
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 9 * 9 - 1)
    monkeypatch.setattr(rmlab.commutant, "hermitian_probe", refuse)
    with pytest.raises(ResourceError, match="needs 81 entries"):
        wedderburn_decompose(units)
    monkeypatch.undo()
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 9 * 9)
    assert wedderburn_decompose(units) == (3,)


def test_wedderburn_leaves_a_profile_unresolved_without_frames(monkeypatch):
    # A scalar probe has one eigenspace, which is minimal only in C, so
    # neither it nor the split links certified frames of M_2.
    monkeypatch.setattr(rmlab.commutant, "hermitian_probe",
                        lambda mats, rng: np.eye(len(mats[0])))
    with pytest.raises(DegeneracyError, match="no certified frames"):
        wedderburn_decompose(np.eye(4, dtype=complex).reshape(4, 2, 2))
    r = rmlab.make_flip(2)
    assert relative_commutant_M(r, 1).block_profile is None
    report = rmlab.analyze(r, n_cap=1, fixed_cap=1)
    assert "unresolved" in report.to_markdown()


def _fit_ten(blocks):
    """The (k, m) pairs, in order, that keep the sum of k * m <= 10."""
    kept = []
    for k, m in blocks:
        if sum(a * b for a, b in kept) + k * m <= 10:
            kept.append((k, m))
    return kept


#: Block lists (k, m) of (+) M_k (x) 1_m, of size at most 10.
_BLOCKS = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                   min_size=1, max_size=5).map(_fit_ten)


def _planted(blocks, rng):
    """The matrix units of (+) M_k (x) 1_m in a Haar-random basis q, as
    a stack, and q."""
    dim = sum(k * m for k, m in blocks)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, tri = np.linalg.qr(z)
    q = q * (np.diagonal(tri) / np.abs(np.diagonal(tri)))
    mats, start = [], 0
    for k, m in blocks:
        for unit in np.eye(k * k).reshape(-1, k, k):
            x = np.zeros((dim, dim), dtype=complex)
            x[start:start + k * m, start:start + k * m] = np.kron(
                unit, np.eye(m))
            mats.append(q @ x @ q.conj().T)
        start += k * m
    return np.array(mats), q


@settings(max_examples=40, deadline=None)
@given(_BLOCKS, st.integers(0, 2 ** 32 - 1))
@example([(2, 2), (2, 2)], 1)
@example([(1, 3), (1, 3), (2, 2)], 2)
@example([(3, 1), (3, 1), (1, 4)], 3)
def test_wedderburn_reads_planted_profiles(blocks, seed):
    """(+) M_k (x) 1_m in a Haar-random basis: the profile is the k's."""
    mats, _ = _planted(blocks, np.random.default_rng(seed))
    want = tuple(sorted(k for k, _ in blocks))
    assert wedderburn_decompose(mats) == want


@settings(max_examples=40, deadline=None)
@given(_BLOCKS.filter(lambda blocks: len(blocks) > 1 or blocks[0][1] > 1),
       st.sampled_from(["drop", "add", "nilpotent"]),
       st.integers(0, 2 ** 32 - 1))
@example([(1, 2), (1, 1)], "drop", 0)
@example([(2, 1), (1, 1)], "nilpotent", 1)
def test_wedderburn_refuses_broken_planted_algebras(blocks, how, seed):
    """A planted algebra less one random direction, or with one random
    or strictly upper triangular matrix added: not a unital *-algebra.
    A full matrix algebra would absorb any addition, so it is not
    drawn."""
    rng = np.random.default_rng(seed)
    mats, q = _planted(blocks, rng)
    assume(how != "drop" or len(mats) > 1)
    if how == "drop":
        c = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(
            len(mats))
        mats = np.tensordot(nullspace(c[None]).T, mats, axes=1)
    else:
        z = rng.standard_normal(q.shape) + 1j * rng.standard_normal(q.shape)
        z = np.triu(z, 1) if how == "nilpotent" else z
        mats = np.concatenate([mats, (q @ z @ q.conj().T)[None]])
    cols = _subspace(mats.reshape(len(mats), -1), rows=True).T
    with pytest.raises(DomainError):
        _check_algebra(cols.T.reshape(-1, *q.shape), cols)
    with pytest.raises(DomainError, match=r"is not a unital \*-algebra"):
        wedderburn_decompose(mats)


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
_E01 = np.array([[0, 1], [0, 0]], dtype=complex)


def _check_algebra(mats, cols) -> None:
    """Reference: a unital, *-closed, product-closed span within 1e-9;
    each check projects one stack on ``cols``: 1, adjoints, a @ mats."""

    def residual(stack) -> float:
        # The largest distance from the span over max(1, Frobenius norm).
        v = stack.reshape(len(stack), -1)
        far = np.linalg.norm(v - (v @ cols.conj()) @ cols.T, axis=1)
        return float((far / np.maximum(1.0, np.linalg.norm(v, axis=1))).max())

    if (eye_res := residual(np.eye(mats.shape[-1])[None])) > 1e-9:
        raise DomainError(f"span is not unital (residual {eye_res:.3e})")
    if residual(mats.conj().transpose(0, 2, 1)) > 1e-9:
        raise DomainError("span is not closed under adjoints")
    if any(residual(a @ mats) > 1e-9 for a in mats):
        raise DomainError("span is not closed under products")


@pytest.mark.parametrize("span,message,frames", [
    ([np.diag([1.0, 0.0])], r"span is not unital \(residual 7\.071e-01\)", 2),
    ([np.eye(2), _E01], "span is not closed under adjoints", 4),
    ([np.eye(2), _PAULI_X, _PAULI_Z], "span is not closed under products",
     4),
], ids=["unital", "adjoints", "products"])
def test_check_algebra_names_the_first_failing_property(span, message,
                                                        frames):
    # The reference names the property; wedderburn_decompose counts the
    # dimension of the probes' frames against the span's.
    mats = np.array(span, dtype=complex)
    cols = _subspace(mats.reshape(len(mats), -1), rows=True).T
    with pytest.raises(DomainError, match=f"^{message}$"):
        _check_algebra(cols.T.reshape(-1, 2, 2), cols)
    with pytest.raises(DomainError, match=(
            rf"^span of dimension {len(span)} is not a unital \*-algebra: "
            rf"its probes' frames span {frames}$")):
        wedderburn_decompose(span)


@pytest.mark.parametrize("name", rmlab.builtin_names())
def test_every_tower_span_passes_the_algebra_check(name):
    r = rmlab.builtin(name)
    for n in (1, 2):
        for build in (relative_commutant_M, relative_commutant_N,
                      relative_commutant_L):
            cols = build(r, n).columns
            _check_algebra(cols.T.reshape(-1, r.d ** n, r.d ** n), cols)


def test_commutant_of_refuses_its_rows_before_building(monkeypatch):
    # Three 6 x 6 matrices: 3 * 36 commutator rows of 36 columns, or of
    # one column against a span of one matrix.
    mats = RNG.standard_normal((3, 6, 6)).astype(complex)
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 3 * 36 * 36 - 1)
    with pytest.raises(ResourceError, match="needs 3888 entries"):
        commutant_of(mats)
    assert commutant_of(mats, span=np.eye(6)[None]).shape == (1, 1)
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 3 * 36 * 36)
    assert commutant_of(mats).shape == (36, 1)


def test_commutant_of_keeps_what_commutes_up_to_rounding():
    # Within 1e-11 of the identity: every commutator is rounding-sized
    # against the inputs, though above the absolute floor of 1e-12.
    h = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    near_one = np.eye(4) + 1e-11 * (h + h.conj().T)
    assert commutant_of(near_one[None]).shape == (16, 16)
    assert commutant_of(np.array([_PAULI_X, _PAULI_Z])).shape == (4, 1)


def test_wedderburn_commutative_algebra():
    # regression: a commutative algebra has rank-zero commutator data
    # and must not be mistaken for one without a center
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0]).astype(complex)
    assert wedderburn_decompose([p, q, p + q]) == (1, 1)


def test_wedderburn_mixed_profile():
    mats = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((5, 5), dtype=complex)
            m[i, j] = 1.0
            mats.append(m)
    for k in (2, 3, 4):
        m = np.zeros((5, 5), dtype=complex)
        m[k, k] = 1.0
        mats.append(m)
    assert wedderburn_decompose(mats) == (1, 1, 1, 2)


def test_profile_string():
    assert profile_string((1, 1, 2)) == "C^2 (+) M_2"
    assert profile_string((1,)) == "C"
    assert profile_string((3,)) == "M_3"


def test_apply_endo_level_one_is_conjugation():
    r = rmlab.builtin("r2")
    x = AlgebraElement(2, 1, RNG.standard_normal((2, 2)))
    y = apply_endo(r, x)
    w = r.matrix @ np.kron(x.matrix, np.eye(2)) @ r.matrix.conj().T
    assert y.level == 2
    assert np.allclose(y.matrix, w)


def test_m_profiles_on_known_examples():
    for r, profile in [(rmlab.make_flip(2), (2,)),
                       (rmlab.make_flip(3), (3,)),
                       (rmlab.make_trivial(2, 1j), (1,)),
                       (rmlab.builtin("r2"), (1, 1)),
                       (rmlab.builtin("r2sym"), (2,)),
                       (rmlab.builtin("r3"), (1,))]:
        assert relative_commutant_M(r, 1).block_profile == profile


def test_m_detects_split_for_special_family3():
    r = rmlab.builtin("r3special")
    m = relative_commutant_M(r, 1)
    assert m.block_profile == (1, 1)
    assert m.dimension == 2


def test_m_elements_satisfy_defining_relation():
    r = rmlab.builtin("r2")
    m = relative_commutant_M(r, 1)
    for el in m.basis:
        lhs = r.matrix.conj().T @ np.kron(el.matrix, np.eye(2)) @ r.matrix
        rhs = np.kron(np.eye(2), el.matrix)
        assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_m_level_two_of_flip_is_full():
    m = relative_commutant_M(rmlab.make_flip(2), 2)
    assert m.block_profile == (4,)


def test_n_contains_m():
    for name in ("r2", "r3", "uf", "flip2"):
        r = rmlab.builtin(name)
        m = relative_commutant_M(r, 1)
        n = relative_commutant_N(r, 1)
        assert span_columns_contain(n, m)


@pytest.mark.parametrize("eps,dims", [
    (1e-12, (4, 16)), (1e-10, (4, 16)), (1e-8, (2, 6)),
])
def test_m_and_n_of_near_degenerate_family_two(eps, dims):
    # r = p + eps: at eps = 0 the member has M = N = M_2 and M_4 at
    # n = 1, 2.  Below the 1e-9 cutoff both systems read as that member,
    # above it both as the generic member's C^2 and C^2 (+) M_2.
    r = rmlab.family_r2(np.exp(0.5j), np.exp(-1.3j),
                        np.exp(1j * (0.5 + eps)), np.exp(-1.3j))
    for n, dim in zip((1, 2), dims):
        m, nn = relative_commutant_M(r, n), relative_commutant_N(r, n)
        assert (m.dimension, nn.dimension) == (dim, dim)
        assert m.block_profile is not None
        assert nn.block_profile == m.block_profile


def _random_m_n_draw(case, rng):
    if case == "simple":
        d = int(rng.integers(2, 4))
        return rmlab.random_conjugate(
            rmlab.make_simple(rmlab.random_simple_spec(d, rng)), rng)
    return _random_draw(case, rng)


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from([2, 3, 4, "simple"]), n=st.integers(1, 2),
       seed=st.integers(0, 2 ** 16))
def test_m_inside_n_on_random_draws(case, n, seed):
    r = _random_m_n_draw(case, np.random.default_rng(seed))
    m = relative_commutant_M(r, n).columns
    q = relative_commutant_N(r, n).columns
    assert np.abs(m - q @ (q.conj().T @ m)).max(initial=0.0) <= 1e-9


def test_n_full_for_uf():
    # non-scalar diagonal u: N is everything, M is the diagonal part
    n = relative_commutant_N(rmlab.builtin("uf"), 1)
    assert n.block_profile == (2,)
    m = relative_commutant_M(rmlab.builtin("uf"), 1)
    assert m.block_profile == (1, 1)


def test_l_inside_m():
    for name in ("flip2", "r2", "r3special", "box21"):
        r = rmlab.builtin(name)
        l = relative_commutant_L(r, 1)
        m = relative_commutant_M(r, 1)
        assert span_columns_contain(m, l)


def test_l_reports_convergence_flag():
    l = relative_commutant_L(rmlab.builtin("r2"), 1)
    assert l.converged
    assert l.dimension == 2


def test_fixed_subalgebra_trivial_solution():
    # the identity endomorphism fixes everything
    f = fixed_subalgebra(rmlab.make_trivial(2, 1.0), 1)
    assert f.dimension == 4
    assert f.block_profile == (2,)


def test_fixed_subalgebra_flip():
    f = fixed_subalgebra(rmlab.make_flip(2), 1)
    assert f.dimension == 1


def test_fixed_subalgebra_r4_doubles():
    r = rmlab.builtin("r4")
    dims = [fixed_subalgebra(r, n).dimension for n in (1, 2, 3)]
    assert dims == [2, 4, 8]


def test_fixed_elements_are_fixed():
    r = rmlab.builtin("r4")
    f = fixed_subalgebra(r, 1)
    for el in f.basis:
        image = apply_endo(r, el)
        embedded = np.kron(el.matrix, np.eye(2))
        assert np.linalg.norm(image.matrix - embedded) <= 1e-10


def test_braid_image_commutant_flip():
    c = braid_image_commutant(rmlab.make_flip(2), 2)
    assert c.dimension >= 1


def test_level_validation():
    with pytest.raises(DomainError):
        relative_commutant_M(rmlab.builtin("r2"), 0)
    with pytest.raises(DomainError):
        fixed_subalgebra(rmlab.builtin("r2"), -1)
    with pytest.raises(DomainError):
        braid_image_commutant(rmlab.builtin("r2"), -1)
    assert braid_image_commutant(rmlab.builtin("r2"), 0).dimension == 1


def test_dimension_and_basis_never_run_block_detection(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("block detection ran")

    monkeypatch.setattr(rmlab.commutant, "wedderburn_decompose", refuse)
    f = fixed_subalgebra(rmlab.builtin("trivial2"), 2)
    assert f.dimension == 16
    assert len(f.basis) == 16
    assert classify_dim2(rmlab.builtin("r4")).family == 4


@pytest.mark.parametrize("name", ["r2", "r4", "box21"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "build", [relative_commutant_M, relative_commutant_N, fixed_subalgebra]
)
def test_block_profile_is_detected_once_on_first_read(monkeypatch, name,
                                                      n, build):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return wedderburn_decompose(*args, **kwargs)

    monkeypatch.setattr(rmlab.commutant, "wedderburn_decompose", counted)
    b = build(rmlab.builtin(name), n)
    assert calls == []
    profile = b.block_profile
    assert b.block_profile == profile
    assert calls == [{}]
    assert profile == wedderburn_decompose(b.basis)


@pytest.mark.parametrize("b", [
    relative_commutant_M(rmlab.builtin("r2"), 2),
    relative_commutant_N(rmlab.builtin("uf"), 1),
    relative_commutant_L(rmlab.builtin("box21"), 1),
    braid_image_commutant(rmlab.builtin("r2"), 1),
], ids=["M", "N", "L", "braid"])
def test_span_columns_are_read_only_and_orthonormal(b):
    cols = b.columns
    assert cols.shape == (b.d ** (2 * b.level), b.dimension)
    assert not cols.flags.writeable
    with pytest.raises(ValueError):
        cols[0, 0] = 1.0
    assert np.allclose(cols.conj().T @ cols, np.eye(b.dimension),
                       atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(["r2", "r3", "r4", "box21", "simple3", "nfmix"]),
    seed=st.integers(0, 2 ** 16),
)
def test_level_one_profiles_survive_quasifree_conjugation(name, seed):
    r = rmlab.builtin(name)
    u = rmlab.haar_unitary(r.d, np.random.default_rng(seed))
    s = rmlab.quasifree_conjugate(r, u)
    dims = []
    for build in (
        lambda x: relative_commutant_L(x, 1, max_strands=3),
        lambda x: relative_commutant_M(x, 1),
        lambda x: relative_commutant_N(x, 1),
    ):
        before, after = build(r), build(s)
        assert before.block_profile is not None
        assert before.block_profile == after.block_profile
        assert before.dimension == after.dimension
        dims.append(before.dimension)
    assert dims == sorted(dims)


@pytest.mark.parametrize("name,m,dim", [
    # Schur-Weyl: the flip generates the image of C[S_m], whose
    # dimension sums f_lambda^2 over partitions with at most d rows.
    ("flip2", 3, 5),
    ("flip2", 4, 14),
    ("flip3", 4, 23),
    ("trivial2", 4, 1),
])
def test_generated_algebra_schur_weyl_dimensions(name, m, dim):
    r = rmlab.builtin(name)
    cols = generated_algebra(_generator_images(r, m))
    assert cols.shape == (r.d ** (2 * m), dim)


@pytest.mark.parametrize("name,m", [
    ("r2", 3), ("r3", 3), ("box21", 3), ("nfmix", 4), ("simple3", 3),
])
def test_generated_algebra_is_the_closed_span_of_its_generators(name, m):
    gens = _generator_images(rmlab.builtin(name), m)
    cols = generated_algebra(gens)
    size = gens[0].shape[0]
    assert np.allclose(cols.conj().T @ cols, np.eye(cols.shape[1]),
                       atol=1e-12)
    proj = cols @ cols.conj().T

    def inside(x):
        v = x.reshape(-1) / np.linalg.norm(x)
        return np.linalg.norm(proj @ v - v) <= 1e-9

    assert inside(np.eye(size))
    assert all(inside(g) for g in gens)
    mats = [cols[:, i].reshape(size, size) for i in range(cols.shape[1])]
    assert all(inside(a @ b) for a in mats for b in mats)


def test_generated_algebra_of_random_matrices_is_everything():
    mats = RNG.standard_normal((2, 3, 3)) + 1j * RNG.standard_normal((2, 3, 3))
    assert generated_algebra(mats).shape == (9, 9)


# (dimension, profile, converged, meta["dims"]) of L for every builtin
# but diag3, whose 639-dimensional A_4 takes seconds to close.
L_TABLE = {
    ("box21", 1): (2, (1, 1), True, (2, 2, 2)),
    ("box21", 2): (6, (1, 1, 2), False, (2, 5, 6)),
    ("flip2", 1): (1, (1,), True, (1, 1, 1)),
    ("flip2", 2): (2, (1, 1), True, (2, 2, 2)),
    ("flip3", 1): (1, (1,), True, (1, 1, 1)),
    ("flip3", 2): (2, (1, 1), True, (2, 2, 2)),
    ("nfmix", 1): (2, (1, 1), True, (2, 2, 2)),
    ("nfmix", 2): (6, (1, 1, 2), True, (2, 6, 6)),
    ("r2", 1): (2, (1, 1), True, (2, 2, 2)),
    ("r2", 2): (6, (1, 1, 2), True, (4, 6, 6)),
    ("r2sym", 1): (2, (1, 1), True, (2, 2, 2)),
    ("r2sym", 2): (6, (1, 1, 2), True, (4, 6, 6)),
    ("r3", 1): (1, (1,), True, (1, 1, 1)),
    ("r3", 2): (3, (1, 1, 1), True, (3, 3, 3)),
    ("r3special", 1): (1, (1,), True, (1, 1, 1)),
    ("r3special", 2): (2, (1, 1), True, (2, 2, 2)),
    ("r4", 1): (1, (1,), True, (1, 1, 1)),
    ("r4", 2): (2, (1, 1), True, (2, 2, 2)),
    ("simple3", 1): (2, (1, 1), True, (2, 2, 2)),
    ("simple3", 2): (6, (1, 1, 2), True, (3, 6, 6)),
    ("trivial2", 1): (1, (1,), True, (1, 1, 1)),
    ("trivial2", 2): (1, (1,), True, (1, 1, 1)),
    ("uf", 1): (2, (1, 1), True, (2, 2, 2)),
    ("uf", 2): (6, (1, 1, 2), True, (4, 6, 6)),
}


@pytest.mark.parametrize("name,n", sorted(L_TABLE))
def test_l_pinned_table(name, n):
    l = relative_commutant_L(rmlab.builtin(name), n)
    assert (l.dimension, l.block_profile, l.converged,
            l.meta["dims"]) == L_TABLE[name, n]


def test_l_with_one_strand_count_is_not_converged():
    l = relative_commutant_L(rmlab.builtin("r2"), 3, max_strands=3)
    assert l.meta["dims"] == (l.dimension,)
    assert not l.converged


@pytest.mark.parametrize("name", ["r2", "box21", "flip3", "uf"])
def test_analyze_builds_L_bitwise_equal_to_standalone_calls(name):
    r = rmlab.builtin(name)
    report = rmlab.analyze(r)
    for n in (1, 2):
        shared, alone = report.commutants[n]["L"], relative_commutant_L(r, n)
        assert shared.columns.tobytes() == alone.columns.tobytes()
        assert shared.meta == alone.meta
        assert shared.converged == alone.converged


def test_analyze_closes_each_braid_algebra_once(monkeypatch):
    # Each A_m is built once, by whichever route, for both levels of L.
    r = rmlab.builtin("box21")
    build = rmlab.commutant._star_algebra
    strands = []

    def counted(mats):
        m = round(math.log(mats.shape[-1], r.d))
        if np.array_equal(mats, _generator_images(r, m)):
            strands.append(m)
        return build(mats)

    monkeypatch.setattr(rmlab.commutant, "_star_algebra", counted)
    report = rmlab.analyze(r)
    assert not report.errors
    assert strands == [2, 3, 4]


def test_shared_closures_are_filled_once_and_reused(monkeypatch):
    # A_2, A_3, A_4 and L's own algebra on the first call; only L's on
    # the second, which reads the A_m kept on r.
    r, build = rmlab.builtin("r2"), rmlab.commutant._star_algebra
    sizes = []

    def counted(mats):
        sizes.append(mats.shape[-1])
        return build(mats)

    monkeypatch.setattr(rmlab.commutant, "_star_algebra", counted)
    first = relative_commutant_L(r, 1)
    assert sizes == [4, 8, 16, 2]
    second = relative_commutant_L(r, 1)
    assert sizes == [4, 8, 16, 2, 2]
    assert first.columns.tobytes() == second.columns.tobytes()


def test_require_dense_reads_the_cap_at_call_time(monkeypatch):
    require_dense(2 ** 24, "x")
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 10)
    require_dense(10, "x")
    with pytest.raises(ResourceError, match="the thing needs 11 entries"):
        require_dense(11, "the thing")


@pytest.mark.parametrize(
    "build", [relative_commutant_M, relative_commutant_N, fixed_subalgebra]
)
def test_operators_refuse_before_building(monkeypatch, build):
    def refuse(*args, **kwargs):
        raise AssertionError("operator was built")

    r = rmlab.builtin("r2")
    # Each level-1 operator has d^(4n + 2) = 64 entries.
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 63)
    monkeypatch.setattr(rmlab.commutant, "_lambda_word", refuse)
    monkeypatch.setattr(rmlab.commutant, "commutant_of", refuse)
    with pytest.raises(ResourceError):
        build(r, 1)
    monkeypatch.undo()
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 64)
    assert build(r, 1).dimension >= 1


def test_braid_image_commutant_refuses_before_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("operator was built")

    r = rmlab.builtin("r2")
    # (n - 1) * d^(4n) entries at n = 3.
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 2 * 2 ** 12 - 1)
    monkeypatch.setattr(rmlab.commutant, "commutant_of", refuse)
    with pytest.raises(ResourceError):
        braid_image_commutant(r, 3)
    monkeypatch.undo()
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 2 * 2 ** 12)
    assert braid_image_commutant(r, 3).dimension >= 1


_NEAR_DEGENERATE_L = """
import numpy as np
import rmlab
import rmlab.rmatrix
from rmlab.commutant import _generator_images
from rmlab.errors import InternalConsistencyError
from closure import generated_algebra
rmlab.rmatrix.DENSE_ENTRY_CAP = 4 * 256 * 256
eps = float({eps!r})
r = rmlab.family_r2(np.exp(0.5j), np.exp(-1.3j),
                    np.exp(1j * (0.5 + eps)), np.exp(-1.3j))
try:
    generated_algebra(_generator_images(r, 4))
except InternalConsistencyError as exc:
    print(f"InternalConsistencyError: {{exc}}")
"""


@pytest.mark.parametrize("eps", [1e-8])
def test_closure_of_near_degenerate_generators_stops(eps, run_python):
    # r = p + eps splits two eigenvalues by eps, so rounding noise,
    # amplified by 1 / eps where a residual of size eps is normalized,
    # keeps the closure's frontier alive past D^2 columns under either
    # BLAS thread count.  A closure of k generators in M_D never asks
    # for more than (k + 1) D^2 columns, so the cap (k = 3, D = 16 at
    # four strands) turns a runaway into a ResourceError instead of a
    # hang; the closure must stop first.  A_4 itself is built from the
    # probes' frames (test_l_of_near_degenerate_family_two_is_c2_and_m2).
    for threads in (1, 2):
        proc = run_python("-c", _NEAR_DEGENERATE_L.format(eps=eps),
                          threads=threads)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(
            "InternalConsistencyError: algebra closure exceeded 256")


# L and M at levels 1 and 2, with the closure's dimension at 4 strands.
# Which rounding noise survives a closure round depends on the BLAS's
# summation order, so each runs under one and two BLAS threads.
_L_AGAINST_M = """
import numpy as np
import rmlab
from rmlab.commutant import _generator_images
from rmlab.corpus import random_conjugate, random_family2
from closure import generated_algebra
{build}
print(generated_algebra(_generator_images(r, 4)).shape[1])
for n in (1, 2):
    lb, mb = rmlab.relative_commutant_L(r, n), rmlab.relative_commutant_M(r, n)
    a, b = lb.columns, mb.columns
    print(lb.dimension, lb.converged, lb.block_profile, mb.block_profile,
          np.abs(a - b @ (b.conj().T @ a)).max() <= 1e-9)
"""

_DEFECT_A = """
rng = np.random.default_rng(0)
for _ in range(13):
    r = random_conjugate(random_family2(rng)[0], rng)
"""


@pytest.mark.parametrize("build", [
    _DEFECT_A,
    "r = rmlab.family_r2(np.exp(0.5j), np.exp(-1.3j), "
    "np.exp(1j * (0.5 + 1e-5)), np.exp(-1.3j))",
    "r = rmlab.family_r2(np.exp(0.5j), np.exp(-1.3j), "
    "np.exp(1j * (0.5 + 1e-3)), np.exp(-1.3j))",
], ids=["conjugate13", "eps1e-05", "eps1e-03"])
def test_l_of_family_two_lies_in_m(build, run_python):
    # Cut against its own residual, a closure round keeps rounding noise
    # on these inputs: A_4 = 234 and L = M_2, M_4 outside M on the 13th
    # family-2 conjugate of rng seed 0, and L_1 = 3 on the eps inputs.
    # Cut against the products' scale, L is C^2 and C^2 (+) M_2, as M
    # is, whatever the BLAS thread count.
    want = ["70", "2 True (1, 1) (1, 1) True",
            "6 True (1, 1, 2) (1, 1, 2) True"]
    for threads in (1, 2):
        proc = run_python("-c", _L_AGAINST_M.format(build=build),
                          threads=threads)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == want


def test_generated_algebra_refuses_before_each_round(monkeypatch):
    gens = _generator_images(rmlab.make_flip(2), 3)
    # Round one: the unit and its two products, 3 columns of 64.
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 3 * 64 - 1)
    with pytest.raises(ResourceError):
        generated_algebra(gens)
    # Round two needs 3 + 2 * 2 columns, which the cap refuses.
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 3 * 64)
    with pytest.raises(ResourceError):
        generated_algebra(gens)
    with pytest.raises(ResourceError):
        relative_commutant_L(rmlab.make_flip(2), 1, max_strands=3)


@pytest.mark.parametrize("name,n,dim", [
    ("flip2", 2, 10), ("flip2", 3, 20), ("flip3", 3, 165),
])
def test_commutant_of_schur_weyl_dimensions(name, n, dim):
    # The flip images span S_n acting on (C^d)^(x) n, whose commutant is
    # the symmetric tensors in M_d^(x) n: C(d^2 + n - 1, n) dimensions.
    r = rmlab.builtin(name)
    cols = commutant_of(_generator_images(r, n))
    assert cols.shape == (r.d ** (2 * n), dim)


@pytest.mark.parametrize("dim,count", [(2, 2), (3, 2), (8, 3)])
def test_commutant_of_random_matrices_is_the_scalars(dim, count):
    rng = np.random.default_rng(dim)
    mats = (rng.standard_normal((count, dim, dim))
            + 1j * rng.standard_normal((count, dim, dim)))
    cols = commutant_of(mats)
    assert cols.shape == (dim * dim, 1)
    unit = np.eye(dim).reshape(-1) / np.sqrt(dim)
    assert abs(abs(np.vdot(unit, cols[:, 0])) - 1.0) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 9])
def test_commutant_of_nothing_is_everything(dim):
    cols = commutant_of(np.zeros((0, dim, dim)))
    assert np.array_equal(cols, np.eye(dim * dim))


@pytest.mark.parametrize("name,n", [
    ("r2", 2), ("r2", 3), ("r4", 3), ("nfmix", 3), ("box21", 2),
    ("flip3", 2), ("simple3", 3),
])
def test_commutant_of_matches_the_operator_build(name, n):
    # The per-matrix-unit operator the braid commutant used to build.
    images = _generator_images(rmlab.builtin(name), n)
    t = _operator_matrix(lambda y: np.vstack([y @ g - g @ y for g in images]),
                         rmlab.builtin(name).d, n)
    assert commutant_of(images).tobytes() == nullspace(t).tobytes()


@pytest.mark.parametrize("build", [relative_commutant_M, relative_commutant_N,
                                   relative_commutant_L])
@pytest.mark.parametrize("name,n", [("r2", 2), ("box21", 1), ("flip3", 1),
                                    ("simple3", 2), ("trivial2", 2)])
def test_center_equals_the_double_loop_reference(build, name, n):
    b = build(rmlab.builtin(name), n)
    mats = [e.matrix for e in b.basis]
    dim = mats[0].shape[0]
    cols = _subspace(np.stack([m.reshape(-1) for m in mats]), rows=True).T
    basis = [cols[:, i].reshape(dim, dim) for i in range(cols.shape[1])]
    rows = []
    for m in basis:
        rows.append(np.stack([(c @ m - m @ c).reshape(-1) for c in basis],
                             axis=1))
    want = nullspace(np.vstack(rows))
    got = commutant_of(basis, span=np.array(basis))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["r2", "r4", "box21", "simple3", "nfmix"])
@pytest.mark.parametrize("n", [1, 2])
def test_fixed_points_commute_with_the_word_blocks(name, n):
    r = rmlab.builtin(name)
    d, dim = r.d, r.d ** n
    u = rmlab.commutant.word_product(r, n)
    f = fixed_subalgebra(r, n)
    for el in f.basis:
        big = np.kron(el.matrix, np.eye(d))
        assert np.linalg.norm(u @ big - big @ u) <= 1e-10
    # Nothing is missed: the fixed points are the whole null space of
    # the defect x -> u (x (x) 1) u* - x (x) 1.
    pad = np.eye(d)
    t = _operator_matrix(
        lambda x: u @ np.kron(x, pad) @ u.conj().T - np.kron(x, pad), d, n)
    assert nullspace(t).shape == (dim * dim, f.dimension)


@pytest.mark.parametrize("name", ["r2", "r4", "box21", "flip3", "simple3",
                                  "trivial2", "diag3", "nfmix"])
@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_operators_match_the_per_unit_build(name, n):
    r = rmlab.builtin(name)
    d = r.d
    # The ordered word phi^(n-1)(R) ... phi(R) R, as a Kronecker loop.
    u = np.eye(d ** (n + 1))
    for k in range(n - 1, -1, -1):
        u = u @ np.kron(np.kron(np.eye(d ** k), r.matrix),
                        np.eye(d ** (n - 1 - k)))
    got = rmlab.commutant._lambda_word(r, n)
    assert got.shape == u.shape
    assert np.abs(got - u).max() <= 1e-15
    # M is the null space of the defining equation u* (x (x) 1) u = 1 (x) x.
    one = np.eye(d)
    old = _operator_matrix(
        lambda x: u.conj().T @ np.kron(x, one) @ u - np.kron(one, x), d, n)
    _assert_same_subspace(relative_commutant_M(r, n), nullspace(old))


def _last_slot_blocks(r, n):
    dim = r.d ** n
    u = rmlab.commutant.word_product(r, n).reshape(dim, r.d, dim, r.d)
    return u.transpose(1, 3, 0, 2).reshape(r.d * r.d, dim, dim)


def _lambda_blocks(r, n):
    dim = r.d ** n
    u = rmlab.commutant._lambda_word(r, n).reshape(dim, r.d, r.d, dim)
    return u.transpose(2, 1, 0, 3).reshape(r.d * r.d, dim, dim)


# The matrices each dispatched commutant is the commutant of.
_INPUTS = {relative_commutant_M: _lambda_blocks,
           fixed_subalgebra: _last_slot_blocks,
           braid_image_commutant: _generator_images}


def _assert_same_subspace(b, reference, tol=1e-12):
    cols = b.columns
    assert cols.shape == reference.shape
    assert not cols.flags.writeable
    assert np.allclose(cols.conj().T @ cols, np.eye(b.dimension),
                       atol=1e-12)
    gap = cols @ cols.conj().T - reference @ reference.conj().T
    assert np.abs(gap).max() <= tol


@pytest.mark.parametrize("name,n", [
    (name, n) for name in rmlab.builtin_names()
    for n in range(1, 4 if rmlab.builtin(name).d == 2 else 3)
])
def test_reduced_commutants_match_the_matrix_unit_reference(name, n):
    r = rmlab.builtin(name)
    _assert_same_subspace(fixed_subalgebra(r, n),
                          commutant_of(_last_slot_blocks(r, n)))
    _assert_same_subspace(braid_image_commutant(r, n),
                          commutant_of(_generator_images(r, n)))


@pytest.mark.parametrize("probe", ["zero", "reseeded"])
@pytest.mark.parametrize("name,n", [("r4", 2), ("box21", 2), ("r3", 3),
                                    ("simple3", 2), ("trivial2", 2)])
def test_reduced_commutants_do_not_depend_on_the_probe(monkeypatch, probe,
                                                       name, n):
    r = rmlab.builtin(name)
    want = [fixed_subalgebra(r, n).columns,
            braid_image_commutant(r, n).columns]
    draw = rmlab.commutant.hermitian_probe
    if probe == "zero":
        # One cluster: the span is every matrix unit.
        monkeypatch.setattr(rmlab.commutant, "hermitian_probe",
                            lambda mats, rng: np.zeros(mats[0].shape))
    else:
        monkeypatch.setattr(
            rmlab.commutant, "hermitian_probe",
            lambda mats, rng: draw(mats, np.random.default_rng(12345)))
    for b, reference in zip((fixed_subalgebra(r, n),
                             braid_image_commutant(r, n)), want):
        _assert_same_subspace(b, reference)


@pytest.mark.parametrize("shape", [(0, 5), (7, 3), (3, 7), (1024, 256)])
def test_nullspace_of_zeros_skips_the_svd(monkeypatch, shape):
    if max(shape) < 16:
        # The shortcut returns what the SVD path gives a zero matrix.
        _, _, vh = np.linalg.svd(np.zeros(shape, dtype=complex))
        assert np.array_equal(vh.conj().T, np.eye(shape[1]))

    def refuse(*args, **kwargs):
        raise AssertionError("svd was taken")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    got = nullspace(np.zeros(shape))
    assert got.dtype == complex
    assert np.array_equal(got, np.eye(shape[1]))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_family4_fixed_points_double_at_each_level(seed):
    rng = np.random.default_rng(seed)
    r = rmlab.random_conjugate(rmlab.random_family4(rng)[0], rng)
    assert [fixed_subalgebra(r, n).dimension for n in range(1, 6)] == [
        2, 4, 8, 16, 32]


def _random_draw(family, rng):
    """A random conjugate of a d = 2 family (1-4) or a d = 3 builtin."""
    if family == 1:
        base = rmlab.make_trivial(2, rmlab.random_unimodular(rng))
    elif family == 2:
        base = rmlab.random_family2(rng, symmetric=bool(rng.integers(2)))[0]
    elif family == 3:
        base = rmlab.random_family3(rng, special=bool(rng.integers(2)))[0]
    elif family == 4:
        base = rmlab.random_family4(rng)[0]
    else:
        base = rmlab.builtin(family)
    return rmlab.random_conjugate(base, rng)


@settings(max_examples=25, deadline=None)
@given(case=st.one_of(
    st.tuples(st.sampled_from([1, 2, 3, 4]), st.integers(1, 4)),
    st.tuples(st.sampled_from(["box21", "diag3", "flip3", "simple3"]),
              st.integers(1, 2))),
    seed=st.integers(0, 2 ** 16))
def test_certified_commutants_match_the_full_system(case, seed):
    # Every dispatched commutant, on both sides of FULL_SOLVE_DIM, spans
    # the null space of its full matrix-unit system.
    family, n = case
    r = _random_draw(family, np.random.default_rng(seed))
    # Each example also draws its probes from its own seed.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rmlab.commutant, "PROBE_SEED", seed)
        got = {build: build(r, n) for build in _INPUTS}
    for build, inputs in _INPUTS.items():
        _assert_same_subspace(got[build], commutant_of(inputs(r, n)),
                              tol=1e-10)


@pytest.mark.parametrize("build,name,n,second", [
    # Levels above D = FULL_SOLVE_DIM, where the probe route runs.  At
    # those levels a probe of the first matrix alone passes the
    # certificate on every builtin's fixed points and braid images;
    # r3's M at n = 3 is a system where it does not.
    (fixed_subalgebra, "r2", 3, "scalar"),
    (fixed_subalgebra, "box21", 2, "scalar"),
    (braid_image_commutant, "flip2", 3, "scalar"),
    (braid_image_commutant, "r3", 3, "scalar"),
    (fixed_subalgebra, "simple3", 2, "scalar"),
    (relative_commutant_M, "box21", 2, "scalar"),
    (relative_commutant_M, "r3", 3, "first matrix"),
])
def test_a_failed_certificate_falls_back_to_every_matrix(monkeypatch, build,
                                                          name, n, second):
    r = rmlab.builtin(name)
    want = build(r, n).columns
    draw, solve = rmlab.commutant.hermitian_probe, commutant_of
    probes, solved = [], []

    def weak_second_probe(mats, rng):
        if not probes:
            probes.append(draw(mats, rng))
        elif second == "scalar":
            probes.append(np.eye(len(mats[0])))
        else:
            probes.append(draw(mats[:1], rng))
        return probes[-1]

    def counted(mats, span=None):
        solved.append(len(mats))
        return solve(mats, span)

    monkeypatch.setattr(rmlab.commutant, "hermitian_probe",
                        weak_second_probe)
    monkeypatch.setattr(rmlab.commutant, "commutant_of", counted)
    got = build(r, n)
    # A scalar probe links no clusters, a probe of the first matrix
    # alone too few; either builds a commutant that is too big, with no
    # solve.  The certificate refuses it, so the first probe's span is
    # solved against every matrix, once.
    mats = _INPUTS[build](r, n)
    assert solved == [len(mats)]
    _assert_same_subspace(got, want)


def test_scalar_up_to_rounding_blocks_make_no_solve(monkeypatch):
    rng = np.random.default_rng(5)
    r = rmlab.random_conjugate(
        rmlab.make_trivial(2, rmlab.random_unimodular(rng)), rng)

    def refuse(*args, **kwargs):
        raise AssertionError("a null space was solved")

    monkeypatch.setattr(rmlab.commutant, "nullspace", refuse)
    # One cluster, which the second probe links to itself by a scalar:
    # its frame gives all 256 matrix units, with no solve.
    b = fixed_subalgebra(r, 4)
    assert b.dimension == 256
    _assert_same_subspace(b, np.eye(256))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 40),
       rank=st.integers(0, 12), seed=st.integers(0, 2 ** 16))
def test_nullspace_of_tall_systems_matches_the_full_svd(rows, cols, rank,
                                                        seed):
    # Tall and wide systems alike: the rank kernel's null space and row
    # space span the plain SVD's, at the planted rank.
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    a = ((rng.standard_normal((rows, rank))
          + 1j * rng.standard_normal((rows, rank)))
         @ (rng.standard_normal((rank, cols))
            + 1j * rng.standard_normal((rank, cols))))
    # The reference is the SVD of the whole matrix, cut by the same rule:
    # 1e-9 of the largest row norm, with a floor of 1e-12.
    _, s, vh = np.linalg.svd(a)
    cut = max(1e-9 * np.linalg.norm(a, axis=1).max(), 1e-12)
    keep = int(np.sum(s > cut)) if a.any() else 0
    assert keep == rank
    got = nullspace(a)
    row_space = _subspace(a, rows=True).T
    for kernel, want in [(got, vh[keep:].conj().T),
                         (row_space, vh[:keep].T)]:
        assert kernel.shape == want.shape
        assert np.allclose(kernel.conj().T @ kernel,
                           np.eye(kernel.shape[1]), atol=1e-12)
        gap = kernel @ kernel.conj().T - want @ want.conj().T
        assert np.abs(gap).max() <= 1e-10
    assert np.linalg.norm(a @ got) <= 1e-9 * max(1.0, float(s[0]))


@pytest.mark.parametrize("build,name,n,dim", [
    (fixed_subalgebra, "trivial2", 4, 256),
    (relative_commutant_M, "flip3", 2, 81),
    (braid_image_commutant, "r2", 1, 4),
])
def test_exact_scalars_make_no_probe_and_no_solve(monkeypatch, build, name,
                                                  n, dim):
    def refuse(*args, **kwargs):
        raise AssertionError("a probe or a solve was made")

    for kernel in ("hermitian_probe", "commutant_of", "nullspace"):
        monkeypatch.setattr(rmlab.commutant, kernel, refuse)
    b = build(rmlab.builtin(name), n)
    assert np.array_equal(b.columns, np.eye(dim))


def test_m_is_built_from_the_probe_links(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a null space was solved")

    monkeypatch.setattr(rmlab.commutant, "nullspace", refuse)
    r = rmlab.builtin("box21")
    b = relative_commutant_M(r, 2)
    # The second probe's links between the first probe's clusters give
    # M at D = 9 with no null space solved.
    monkeypatch.undo()
    _assert_same_subspace(b, commutant_of(_lambda_blocks(r, 2)))


@pytest.mark.parametrize("build", list(_INPUTS))
@pytest.mark.parametrize("name,n", [("r2", 1), ("r2", 2), ("r4", 2),
                                    ("box21", 1), ("simple3", 1)])
def test_small_systems_make_one_full_solve(monkeypatch, build, name, n):
    r = rmlab.builtin(name)
    mats = _INPUTS[build](r, n)
    dim = r.d ** n
    assert dim <= rmlab.commutant.FULL_SOLVE_DIM
    exact = np.array_equal(mats, mats[:, :1, :1] * np.eye(dim))
    solve = rmlab.commutant.commutant_of
    spans = []

    def refuse(*args, **kwargs):
        raise AssertionError("a probe was drawn")

    def counted(mats, span=None):
        spans.append(span)
        return solve(mats, span)

    monkeypatch.setattr(rmlab.commutant, "hermitian_probe", refuse)
    monkeypatch.setattr(rmlab.commutant, "commutant_of", counted)
    b = build(r, n)
    assert spans == ([] if exact else [None])
    _assert_same_subspace(b, solve(mats))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_family4_level4_fixed_points_make_no_solve(seed):
    rng = np.random.default_rng(seed)
    r = rmlab.random_conjugate(rmlab.random_family4(rng)[0], rng)

    def refuse(*args, **kwargs):
        raise AssertionError("a null space was solved")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rmlab.commutant, "nullspace", refuse)
        assert fixed_subalgebra(r, 4).dimension == 16


def _span_solve(mats):
    """The probe route's solve on the first probe's span: against the
    second probe alone, or against every matrix if that answer fails
    the certificate.  Both probes are drawn as the dispatcher draws."""
    dim = mats.shape[-1]
    rng = np.random.default_rng(rmlab.commutant.PROBE_SEED)
    vecs, groups = rmlab.commutant._eigenspaces(
        rmlab.commutant.hermitian_probe(mats, rng))
    h2 = rmlab.commutant.hermitian_probe(mats, rng)
    span = np.concatenate([
        np.einsum("pi,qj->ijpq", vecs[:, g], vecs[:, g].conj()).reshape(
            -1, dim, dim) for g in groups])
    to_units = span.reshape(len(span), -1).T
    cols = to_units @ commutant_of(h2[None], span)
    x = cols.T.reshape(-1, dim, dim)
    worst = max(np.abs(x @ m - m @ x).max() for m in mats)
    if worst > rmlab.commutant.CERTIFY_ATOL:
        cols = to_units @ commutant_of(mats, span)
    return cols


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(
    st.tuples(st.sampled_from([2, 3, 4]), st.integers(3, 4)),
    st.tuples(st.sampled_from(["box21", "diag3", "flip3", "simple3"]),
              st.just(2))),
    seed=st.integers(0, 2 ** 16))
def test_linked_commutants_match_the_span_solve(case, seed):
    # The commutant built from the second probe's links is the null
    # space the span solve finds from the same two probes.
    family, n = case
    r = _random_draw(family, np.random.default_rng(seed))
    for build, inputs in _INPUTS.items():
        mats = inputs(r, n)
        if np.array_equal(mats, mats[:, :1, :1] * np.eye(r.d ** n)):
            continue
        _assert_same_subspace(build(r, n), _span_solve(mats))


def test_a_second_probe_off_the_linked_form_falls_back(monkeypatch):
    r = rmlab.builtin("r4")
    mats = _last_slot_blocks(r, 3)
    rng = np.random.default_rng(rmlab.commutant.PROBE_SEED)
    vecs, groups = rmlab.commutant._eigenspaces(
        rmlab.commutant.hermitian_probe(mats, rng))
    # A rank-one coupling between two clusters of two: h2's block
    # between them, and e^(i h2)'s, is no multiple of a unitary.
    a, b = [g[0] for g in groups if len(g) > 1][:2]
    x = np.outer(vecs[:, a], vecs[:, b].conj())
    draw = rmlab.commutant.hermitian_probe
    link = rmlab.commutant._linked_frames
    probes, linked, solved = [], [], []

    def planted(mats, rng):
        probes.append(draw(mats, rng))
        if len(probes) == 2:
            probes[-1] = probes[-1] + x + x.conj().T
        return probes[-1]

    def spied(*args):
        linked.append(link(*args))
        return linked[-1]

    def counted(mats, span=None):
        solved.append(len(mats))
        return commutant_of(mats, span)

    monkeypatch.setattr(rmlab.commutant, "hermitian_probe", planted)
    monkeypatch.setattr(rmlab.commutant, "_linked_frames", spied)
    monkeypatch.setattr(rmlab.commutant, "commutant_of", counted)
    got = fixed_subalgebra(r, 3)
    # The first link and the one after the split both refuse.
    assert linked == [None, None] and solved == [len(mats)]
    _assert_same_subspace(got, commutant_of(mats))


@pytest.mark.parametrize("build,name,n", [
    (fixed_subalgebra, "simple3", 2),
    (braid_image_commutant, "uf", 3),
    (braid_image_commutant, "diag3", 3),
])
def test_merged_clusters_are_split_and_linked(monkeypatch, build, name, n):
    # Each first probe merges two eigenvalues of different blocks into
    # one cluster, which the second probe does not see as scalar; split
    # by its compression, the clusters link, with no null space solved.
    def refuse(*args, **kwargs):
        raise AssertionError("a null space was solved")

    r = rmlab.builtin(name)
    monkeypatch.setattr(rmlab.commutant, "nullspace", refuse)
    got = build(r, n)
    monkeypatch.undo()
    _assert_same_subspace(got, commutant_of(_INPUTS[build](r, n)))


def _assert_same_algebra(got, want):
    # Orthonormal columns, as many as the reference's, whose span holds
    # the reference's columns.
    assert got.shape == want.shape
    assert np.allclose(got.conj().T @ got, np.eye(got.shape[1]),
                       atol=1e-12)
    assert np.abs(want - got @ (got.conj().T @ want)).max() <= 1e-9


@settings(max_examples=30, deadline=None)
@given(case=st.one_of(
    st.tuples(st.sampled_from([1, 2, 3, 4]), st.integers(2, 4)),
    st.tuples(st.sampled_from(["box21", "diag3", "flip3", "simple3"]),
              st.integers(2, 3))),
    seed=st.integers(0, 2 ** 16))
def test_star_algebra_matches_the_closure(case, seed):
    # The algebra of the braid images, built from the probes' frames on
    # both sides of FULL_SOLVE_DIM, is the closure's.
    family, m = case
    r = _random_draw(family, np.random.default_rng(seed))
    gens = _generator_images(r, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rmlab.commutant, "PROBE_SEED", seed)
        got = rmlab.commutant._star_algebra(gens)
    _assert_same_algebra(got, generated_algebra(gens))


@pytest.mark.parametrize("name,m", [("diag3", 3), ("diag3", 4), ("uf", 3),
                                    ("box21", 4), ("simple3", 4)])
def test_braid_algebras_are_read_off_the_links(monkeypatch, name, m):
    def refuse(*args, **kwargs):
        raise AssertionError("the double commutant ran")

    gens = _generator_images(rmlab.builtin(name), m)
    monkeypatch.setattr(rmlab.commutant, "_star_commutant", refuse)
    got = rmlab.commutant._star_algebra(gens)
    monkeypatch.undo()
    if name != "diag3" or m < 4:  # diag3's A_4 closure takes seconds
        _assert_same_algebra(got, generated_algebra(gens))
    else:
        assert got.shape == (81 ** 2, 639)


def _scalar_second_probes(monkeypatch) -> list:
    """Make every second probe the identity, and list the probes: a
    scalar second probe links no clusters, and splits none, so each
    call of ``_probe_frames`` returns no frames."""
    draw, probes = rmlab.commutant.hermitian_probe, []

    def probe(mats, rng):
        probes.append(np.eye(len(mats[0])) if len(probes) % 2
                      else draw(mats, rng))
        return probes[-1]

    monkeypatch.setattr(rmlab.commutant, "hermitian_probe", probe)
    return probes


def test_a_failed_algebra_certificate_falls_back_to_the_double_commutant(
        monkeypatch):
    # Without frames, box21's A_3 is (A_3')', each commutant the span
    # of h1's cluster blocks solved against its inputs.
    gens = _generator_images(rmlab.builtin("box21"), 3)
    probes = _scalar_second_probes(monkeypatch)
    got = rmlab.commutant._star_algebra(gens)
    assert len(probes) == 6 and got.shape == (27 ** 2, 5)
    _assert_same_algebra(got, generated_algebra(gens))


def test_a_failed_algebra_certificate_refuses_an_oversized_solve(
        monkeypatch):
    # Without frames, box21's A_4' is solved on the 1,581 blocks of h1's
    # clusters against 3 images of 81^2 entries: over the cap, refused
    # before its rows are built.
    def refuse(*args, **kwargs):
        raise AssertionError("the rows were solved")

    gens = _generator_images(rmlab.builtin("box21"), 4)
    _scalar_second_probes(monkeypatch)
    monkeypatch.setattr(rmlab.commutant, "nullspace", refuse)
    with pytest.raises(ResourceError, match="needs 31118823 entries"):
        rmlab.commutant._star_algebra(gens)


def test_star_algebra_refuses_before_its_basis(monkeypatch):
    # box21's A_4 on the link route: 14 columns of 81^2 entries.
    def refuse(*args, **kwargs):
        raise AssertionError("the double commutant ran")

    gens = _generator_images(rmlab.builtin("box21"), 4)
    monkeypatch.setattr(rmlab.commutant, "_star_commutant", refuse)
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 14 * 81 ** 2 - 1)
    with pytest.raises(ResourceError, match=f"needs {14 * 81 ** 2} entries"):
        rmlab.commutant._star_algebra(gens)
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 14 * 81 ** 2)
    assert rmlab.commutant._star_algebra(gens).shape == (81 ** 2, 14)


# L at levels 1 and 2 of draw 75, counted from 0, of the family 2, 3
# and 4 conjugates drawn in turn from seed 0: the dimensions of E_n(A_m)
# and whether L lies in M.
_DRAW_75 = """
import numpy as np
import rmlab
rng = np.random.default_rng(0)
for k in range(76):
    family = (rmlab.random_family2, rmlab.random_family3,
              rmlab.random_family4)[k % 3]
    r = rmlab.random_conjugate(family(rng)[0], rng)
for n in (1, 2):
    lb, mb = rmlab.relative_commutant_L(r, n), rmlab.relative_commutant_M(r, n)
    a, b = lb.columns, mb.columns
    print(lb.dimension, lb.converged, lb.meta["dims"],
          np.abs(a - b @ (b.conj().T @ a)).max() <= 1e-12)
"""


def test_l_of_draw_75_is_converged_and_inside_m(run_python):
    # h1's eigenvalues of draw 75's A_4 come in near pairs, some merged
    # into one cluster and some not, so no frames link; its double
    # commutant is 70-dimensional, and L is C^2, then C^2 (+) M_2.
    want = ["2 True (2, 2, 2) True", "6 True (4, 6, 6) True"]
    for threads in (1, 2):
        proc = run_python("-c", _DRAW_75, threads=threads)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == want


def test_l_of_the_first_120_draws_lies_in_m():
    rng = np.random.default_rng(0)
    for k in range(120):
        family = (rmlab.random_family2, rmlab.random_family3,
                  rmlab.random_family4)[k % 3]
        r = rmlab.random_conjugate(family(rng)[0], rng)
        for n in (1, 2):
            a = relative_commutant_L(r, n).columns
            b = relative_commutant_M(r, n).columns
            leak = float(np.abs(a - b @ (b.conj().T @ a)).max())
            assert leak <= 1e-9, (k, n, leak)


# L at levels 1 and 2 along the near-degenerate family-2 line, with
# whether it lies in M and took under a second.
_EPS_FAMILY = """
import time
import numpy as np
import rmlab
for eps in np.logspace(-9, -2, 16):
    r = rmlab.family_r2(np.exp(0.5j), np.exp(-1.3j),
                        np.exp(1j * (0.5 + eps)), np.exp(-1.3j))
    for n in (1, 2):
        start = time.perf_counter()
        try:
            lb = rmlab.relative_commutant_L(r, n)
        except rmlab.RmlabError as exc:
            print(n, type(exc).__name__)
            continue
        fast = time.perf_counter() - start < 1.0
        a, b = lb.columns, rmlab.relative_commutant_M(r, n).columns
        print(n, lb.dimension, lb.converged,
              np.abs(a - b @ (b.conj().T @ a)).max() <= 1e-9, fast)
"""


def test_l_of_near_degenerate_family_two_is_c2_and_m2(run_python):
    # Rounding noise, amplified by 1 / eps, keeps a closure of A_4
    # alive on parts of this line.  Built from the probes' frames, L_1
    # is 2 and L_2 is 6 at every eps, converged and inside M, under one
    # and two BLAS threads.
    want = ["1 2 True True True", "2 6 True True True"] * 16
    for threads in (1, 2):
        proc = run_python("-c", _EPS_FAMILY, threads=threads)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == want
