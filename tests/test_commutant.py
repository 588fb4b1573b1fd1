"""Commutant towers, fixed points, and algebra-structure detection."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    _check_algebra,
    _generator_images,
    _row_space_basis,
    commutant_of,
    generated_algebra,
)
from rmlab.errors import (DegeneracyError, DomainError,
                          InternalConsistencyError, ResourceError)
from rmlab.rmatrix import require_dense

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
    cols = outer.span_columns()
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
        raise AssertionError("the algebra was checked or probed")

    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    # The k x D x D stack of the basis and its products: 9 * 3 * 3.
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 9 * 9 - 1)
    monkeypatch.setattr(rmlab.commutant, "_check_algebra", refuse)
    monkeypatch.setattr(rmlab.commutant, "hermitian_probe", refuse)
    with pytest.raises(ResourceError, match="needs 81 entries"):
        wedderburn_decompose(units)
    monkeypatch.undo()
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 9 * 9)
    assert wedderburn_decompose(units) == (3,)


def test_wedderburn_leaves_a_profile_unresolved_after_its_retries(
        monkeypatch):
    # A scalar probe has one eigenspace, which is minimal only in C.
    monkeypatch.setattr(rmlab.commutant, "hermitian_probe",
                        lambda mats, rng: np.eye(len(mats[0])))
    with pytest.raises(DegeneracyError) as info:
        wedderburn_decompose(np.eye(4, dtype=complex).reshape(4, 2, 2))
    assert info.value.retries == 6
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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                min_size=1, max_size=5).map(_fit_ten),
       st.integers(0, 2 ** 32 - 1))
@example([(2, 2), (2, 2)], 1)
@example([(1, 3), (1, 3), (2, 2)], 2)
@example([(3, 1), (3, 1), (1, 4)], 3)
def test_wedderburn_reads_planted_profiles(blocks, seed):
    """(+) M_k (x) 1_m in a Haar-random basis: the profile is the k's."""
    rng = np.random.default_rng(seed)
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
    want = tuple(sorted(k for k, _ in blocks))
    assert wedderburn_decompose(mats) == want


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
_E01 = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.mark.parametrize("span,message", [
    ([np.diag([1.0, 0.0])], r"span is not unital \(residual 7\.071e-01\)"),
    ([np.eye(2), _E01], "span is not closed under adjoints"),
    ([np.eye(2), _PAULI_X, _PAULI_Z], "span is not closed under products"),
], ids=["unital", "adjoints", "products"])
def test_check_algebra_names_the_first_failing_property(span, message):
    mats = np.array(span, dtype=complex)
    cols = _row_space_basis(mats.reshape(len(mats), -1))
    with pytest.raises(DomainError, match=f"^{message}$"):
        _check_algebra(cols.T.reshape(-1, 2, 2), cols)
    with pytest.raises(DomainError, match=f"^{message}$"):
        wedderburn_decompose(span)


@pytest.mark.parametrize("name", rmlab.builtin_names())
def test_every_tower_span_passes_the_algebra_check(name):
    r = rmlab.builtin(name)
    closures = {}
    for n in (1, 2):
        towers = [relative_commutant_M(r, n), relative_commutant_N(r, n)]
        # diag3's 639-dimensional A_4 takes seconds to close.
        if name != "diag3":
            towers.append(relative_commutant_L(r, n, closures=closures))
        for b in towers:
            cols = b.span_columns()
            _check_algebra(cols.T.reshape(-1, r.d ** n, r.d ** n), cols)


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
    m = relative_commutant_M(r, n).span_columns()
    q = relative_commutant_N(r, n).span_columns()
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
    b = build(rmlab.builtin(name), n, seed=7)
    assert calls == []
    profile = b.block_profile
    assert b.block_profile == profile
    assert calls == [{"seed": 7}]
    assert profile == wedderburn_decompose(b.basis, seed=7)


@pytest.mark.parametrize("b", [
    relative_commutant_M(rmlab.builtin("r2"), 2),
    relative_commutant_N(rmlab.builtin("uf"), 1),
    relative_commutant_L(rmlab.builtin("box21"), 1),
    braid_image_commutant(rmlab.builtin("r2"), 1),
], ids=["M", "N", "L", "braid"])
def test_span_columns_are_read_only_and_orthonormal(b):
    cols = b.span_columns()
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
    r = rmlab.builtin("box21")
    close = rmlab.commutant.generated_algebra
    strands = []

    def counted(mats):
        m = round(math.log(mats.shape[-1], r.d))
        if np.array_equal(mats, _generator_images(r, m)):
            strands.append(m)
        return close(mats)

    monkeypatch.setattr(rmlab.commutant, "generated_algebra", counted)
    report = rmlab.analyze(r)
    assert not report.errors
    assert strands == [2, 3, 4]


def test_shared_closures_are_filled_once_and_reused():
    r, closures = rmlab.builtin("r2"), {}
    first = relative_commutant_L(r, 1, closures=closures)
    assert sorted(closures) == [2, 3, 4]
    kept = dict(closures)
    second = relative_commutant_L(r, 1, closures=closures)
    assert all(closures[m] is kept[m] for m in kept)
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


# Which rounding noise survives a closure round depends on the BLAS's
# summation order, which changes with its thread count, so the
# near-degenerate closures run in a child process with one BLAS thread.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}

_NEAR_DEGENERATE_L = """
import numpy as np
import rmlab
import rmlab.rmatrix
from rmlab.errors import InternalConsistencyError
rmlab.rmatrix.DENSE_ENTRY_CAP = 4 * 256 * 256
eps = float({eps!r})
r = rmlab.family_r2(np.exp(0.5j), np.exp(-1.3j),
                    np.exp(1j * (0.5 + eps)), np.exp(-1.3j))
try:
    rmlab.relative_commutant_L(r, 1)
except InternalConsistencyError as exc:
    print(f"InternalConsistencyError: {{exc}}")
"""


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_closure_of_near_degenerate_generators_stops(eps):
    # r = p + eps splits two eigenvalues by eps, so rounding noise keeps
    # the closure's frontier alive past D^2 columns (with two OpenBLAS
    # threads eps = 1e-6 happens to converge instead).  A closure of k
    # generators in M_D never asks for more than (k + 1) D^2 columns, so
    # the cap (k = 3, D = 16 at four strands) turns a runaway into a
    # ResourceError instead of a hang; the closure must stop first.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, **_ONE_BLAS_THREAD)
    proc = subprocess.run(
        [sys.executable, "-c", _NEAR_DEGENERATE_L.format(eps=eps)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "InternalConsistencyError: algebra closure exceeded 256")


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
    mats = b._matrices()
    dim = mats[0].shape[0]
    cols = _row_space_basis(np.stack([m.reshape(-1) for m in mats]))
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


def _assert_same_subspace(b, reference, tol=1e-12):
    cols = b.span_columns()
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
    want = [fixed_subalgebra(r, n).span_columns(),
            braid_image_commutant(r, n).span_columns()]
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
    st.tuples(st.sampled_from([1, 2, 3, 4]), st.integers(1, 3)),
    st.tuples(st.sampled_from(["box21", "diag3", "flip3", "simple3"]),
              st.integers(1, 2))),
    seed=st.integers(0, 2 ** 16))
def test_certified_commutants_match_the_full_system(case, seed):
    family, n = case
    r = _random_draw(family, np.random.default_rng(seed))
    _assert_same_subspace(fixed_subalgebra(r, n, seed=seed),
                          commutant_of(_last_slot_blocks(r, n)), tol=1e-10)
    _assert_same_subspace(braid_image_commutant(r, n, seed=seed),
                          commutant_of(_generator_images(r, n)), tol=1e-10)


@pytest.mark.parametrize("build,name,n,second", [
    (fixed_subalgebra, "r2", 2, "scalar"),
    (fixed_subalgebra, "box21", 1, "scalar"),
    (braid_image_commutant, "flip2", 3, "scalar"),
    (braid_image_commutant, "r3", 3, "scalar"),
    (fixed_subalgebra, "simple3", 1, "scalar"),
    (fixed_subalgebra, "box21", 1, "first matrix"),
    (fixed_subalgebra, "simple3", 1, "first matrix"),
])
def test_a_failed_certificate_falls_back_to_every_matrix(monkeypatch, build,
                                                          name, n, second):
    r = rmlab.builtin(name)
    want = build(r, n).span_columns()
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
    # A scalar probe keeps the whole span, a probe of the first matrix
    # alone too much of it; the certificate refuses either answer, so
    # the span is solved again against every matrix.
    mats = (_last_slot_blocks(r, n) if build is fixed_subalgebra
            else _generator_images(r, n))
    assert solved == [1, len(mats)]
    _assert_same_subspace(got, want)


def test_scalar_up_to_rounding_blocks_solve_one_probe(monkeypatch):
    rng = np.random.default_rng(5)
    r = rmlab.random_conjugate(
        rmlab.make_trivial(2, rmlab.random_unimodular(rng)), rng)
    shapes = []
    solve = rmlab.commutant.nullspace

    def recorded(a, *args):
        shapes.append(a.shape)
        return solve(a, *args)

    monkeypatch.setattr(rmlab.commutant, "nullspace", recorded)
    assert fixed_subalgebra(r, 4).dimension == 256
    # One cluster, so the span is every matrix unit, solved against the
    # second probe alone: D^2 rows, not d^2 D^2.
    assert shapes == [(256, 256)]


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 12),
       rank=st.integers(0, 12), seed=st.integers(0, 2 ** 16))
def test_nullspace_of_tall_systems_matches_the_full_svd(rows, cols, rank,
                                                        seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    a = ((rng.standard_normal((rows, rank))
          + 1j * rng.standard_normal((rows, rank)))
         @ (rng.standard_normal((rank, cols))
            + 1j * rng.standard_normal((rank, cols))))
    # The reference is the SVD of the whole matrix, cut by the same rule.
    _, s, vh = np.linalg.svd(a)
    keep = int(np.sum(s > max(1e-9 * s[0], 1e-12))) if a.any() else 0
    want = vh[keep:].conj().T
    got = nullspace(a)
    assert got.shape == want.shape
    gap = got @ got.conj().T - want @ want.conj().T
    assert np.abs(gap).max() <= 1e-10
    assert np.linalg.norm(a @ got) <= 1e-9 * max(1.0, float(s[0]))
