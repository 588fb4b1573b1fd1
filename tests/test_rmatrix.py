import gc
import pickle
import weakref

import numpy as np
import pytest

import rmlab
from rmlab import (
    NormalFormSpec,
    SimpleRSpec,
    adjoint,
    box_sum,
    cabling_power,
    flip_conjugate,
    flip_matrix,
    is_involutive,
    is_trivial,
    kron,
    make_flip,
    make_normal_form,
    make_simple,
    make_trivial,
    quasifree_conjugate,
    scalar_multiple,
    tensor_product,
    verify,
)
from rmlab.commutant import _braid_algebra, relative_commutant_L
from rmlab.errors import DomainError, ResourceError, VerificationError
from rmlab.rmatrix import memo

RNG = np.random.default_rng(99)


def haar(n):
    z = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_flip_matrix_sends_e_i_e_j_to_e_j_e_i(d):
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    assert np.array_equal(flip_matrix(d), f)


def test_verify_accepts_flip():
    r = verify(flip_matrix(3), 3)
    assert r.d == 3
    assert r.ybe_residual <= 1e-13
    assert r.unitarity_residual <= 1e-13


def test_verify_rejects_nonunitary():
    with pytest.raises(VerificationError):
        verify(np.eye(4) * 2.0, 2)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_verify_refuses_a_tolerance_outside_zero_to_infinity(tol):
    # A NaN tolerance used to pass every residual, so the all-ones
    # matrix (unitarity residual 15.1) verified.
    for matrix in (np.ones((4, 4)), flip_matrix(2)):
        with pytest.raises(DomainError, match="tolerance"):
            verify(matrix, 2, tol=tol)


def test_verify_rejects_unitary_nonsolution():
    u = haar(4)
    # a generic unitary does not satisfy the braid relation
    with pytest.raises(VerificationError):
        verify(u, 2)


def test_rmatrix_records_residuals():
    r = make_flip(2)
    assert r.label == "flip(d=2)" or "flip" in r.label
    el = r.as_element()
    assert el.level == 2
    assert el.d == 2


def test_trivial_constructor():
    r = make_trivial(3, 1j)
    assert is_trivial(r)
    assert not is_involutive(r)
    assert np.allclose(r.matrix, 1j * np.eye(9))
    with pytest.raises(DomainError):
        make_trivial(2, 2.0)  # not unit modulus


def test_flip_is_involutive_not_trivial():
    for d in (2, 3, 4):
        f = make_flip(d)
        assert is_involutive(f)
        assert not is_trivial(f)
        assert np.allclose(f.matrix @ f.matrix, np.eye(d * d))


def test_simple_constructor_diagonal_phases():
    # one-block simple spec with c_11 = phase reduces to a scalar solution
    p = np.eye(2)
    spec = SimpleRSpec((p,), np.array([[1j]]))
    r = make_simple(spec)
    assert is_trivial(r)
    assert np.allclose(r.matrix, 1j * np.eye(4))


def test_simple_constructor_two_blocks():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    c = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    r = make_simple(SimpleRSpec((p0, p1), c))
    # all coefficients 1 with rank-one blocks gives the flip back
    assert np.allclose(r.matrix, flip_matrix(2))


def test_simple_spec_validation():
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(DomainError):
        make_simple(SimpleRSpec((p,), np.array([[1.0]])))  # not a partition
    q = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(DomainError):
        make_simple(
            SimpleRSpec((p, q), np.array([[1.0, 2.0], [1.0, 1.0]]))
        )  # off-diagonal coefficient not unit modulus


def test_normal_form_blocks_sorted():
    # canonical order: positive blocks first, larger dimensions first
    spec = NormalFormSpec(((1, 1), (2, -1), (1, 1)))
    assert spec.blocks == ((1, 1), (1, 1), (2, -1))
    r = make_normal_form(spec)
    assert is_involutive(r)
    assert r.d == 4


def test_normal_form_of_flip():
    spec = NormalFormSpec(((1, 1), (1, 1)))
    r = make_normal_form(spec)
    assert np.allclose(r.matrix, flip_matrix(2), atol=1e-13)


def test_adjoint_is_solution():
    r = rmlab.builtin("r2")
    ra = adjoint(r)
    assert np.allclose(ra.matrix, r.matrix.conj().T)
    assert ra.ybe_residual <= 1e-12


def test_scalar_multiple():
    r = make_flip(2)
    s = scalar_multiple(r, 1j)
    assert np.allclose(s.matrix, 1j * r.matrix)
    with pytest.raises(DomainError):
        scalar_multiple(r, 0.5)


def test_quasifree_conjugation_preserves_solutions():
    r = rmlab.builtin("r3")
    u = haar(2)
    s = quasifree_conjugate(r, u)
    assert s.ybe_residual <= 1e-12
    assert np.allclose(s.matrix, kron(u, u) @ r.matrix @ kron(u, u).conj().T)


def test_flip_conjugate_involution():
    r = rmlab.builtin("r2")
    s = flip_conjugate(flip_conjugate(r))
    assert np.allclose(s.matrix, r.matrix, atol=1e-13)


def test_tensor_product_flips():
    t = tensor_product(make_flip(2), make_flip(3))
    assert t.d == 6
    assert np.allclose(t.matrix, flip_matrix(6), atol=1e-13)


def test_tensor_product_commutes_with_adjoint():
    a = rmlab.builtin("r2")
    b = rmlab.builtin("r3")
    lhs = tensor_product(adjoint(a), adjoint(b)).matrix
    rhs = adjoint(tensor_product(a, b)).matrix
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_box_sum_identities():
    one = make_trivial(1, 1.0)
    assert np.allclose(box_sum(one, one).matrix, flip_matrix(2), atol=1e-13)
    assert np.allclose(
        box_sum(make_flip(2), make_flip(2)).matrix, flip_matrix(4),
        atol=1e-13,
    )


def test_box_sum_commutes_with_adjoint():
    a = rmlab.builtin("r3")
    b = rmlab.builtin("r4")
    lhs = box_sum(adjoint(a), adjoint(b)).matrix
    rhs = adjoint(box_sum(a, b)).matrix
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_box_sum_block_layout():
    a = make_trivial(2, 1.0)
    b = make_trivial(1, -1.0)
    m = box_sum(a, b).matrix
    d = 3
    # pure first-summand pair keeps the first solution
    assert m[0 * d + 1, 0 * d + 1] == pytest.approx(1.0)
    # pure second-summand pair keeps the second
    assert m[2 * d + 2, 2 * d + 2] == pytest.approx(-1.0)
    # mixed pairs are swapped
    assert m[2 * d + 0, 0 * d + 2] == pytest.approx(1.0)


def test_cabling_square_of_flip():
    c = cabling_power(make_flip(2), 2)
    assert c.d == 4
    assert np.allclose(c.matrix, flip_matrix(4), atol=1e-13)


def test_cabling_identity_power():
    r = rmlab.builtin("r4")
    c = cabling_power(r, 1)
    assert np.allclose(c.matrix, r.matrix)


def test_cabling_respects_cap():
    with pytest.raises(ResourceError):
        cabling_power(make_flip(3), 5)
    with pytest.raises(DomainError):
        cabling_power(make_flip(2), 0)


def test_cabling_is_a_solution():
    r = rmlab.builtin("r2")
    c = cabling_power(r, 2)
    assert c.ybe_residual <= 1e-12
    assert c.unitarity_residual <= 1e-12


@pytest.mark.parametrize("name", rmlab.builtin_names())
def test_builtins_verify(name):
    r = rmlab.builtin(name)
    assert r.ybe_residual <= 1e-12
    assert r.unitarity_residual <= 1e-12


def test_family_generators_are_solutions():
    for t in range(10):
        r2, _ = rmlab.random_family2(RNG)
        r3, _ = rmlab.random_family3(RNG)
        r4, _ = rmlab.random_family4(RNG)
        for r in (r2, r3, r4):
            assert r.ybe_residual <= 1e-12


def test_family3_special_condition():
    r, params = rmlab.random_family3(RNG, special=True)
    assert abs(params["q"] ** 2 - params["p"] * params["r"]) <= 1e-12


def test_uf_solution_requires_unitary():
    u = np.diag([1.0, np.exp(0.3j)])
    r = rmlab.uf_solution(u)
    assert r.ybe_residual <= 1e-12
    with pytest.raises(VerificationError):
        rmlab.uf_solution(np.diag([1.0, 2.0]))


def _two_projections():
    return SimpleRSpec((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                       np.ones((2, 2)))


@pytest.mark.parametrize("build,stub", [
    (lambda: verify(np.eye(4), 2), "_ybe_residual_direct"),
    (lambda: make_trivial(2), "verify"),
    (lambda: flip_matrix(2), "_flip_cached"),
    (lambda: make_simple(_two_projections()), "kron"),
    (lambda: rmlab.search_unitary_solution(2, max_iterations=1),
     "haar_unitary"),
], ids=["verify", "make_trivial", "flip_matrix", "make_simple", "search"])
def test_constructors_refuse_oversized_d_before_allocating(monkeypatch,
                                                            build, stub):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    # The level-3 check of a d = 2 solution has d^6 = 64 entries.
    owner = rmlab.search if stub == "haar_unitary" else rmlab.rmatrix
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 63)
    monkeypatch.setattr(owner, stub, refuse)
    monkeypatch.setattr(SimpleRSpec, "validate", refuse)
    with pytest.raises(ResourceError, match="needs 64 entries"):
        build()
    monkeypatch.undo()
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 64)
    build()


def test_cabling_refuses_a_power_too_large_to_verify(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verified at d = 27")

    # d^12 of flip3 passes the cabling guard, but d = 27 fails verify's.
    flip3 = make_flip(3)
    monkeypatch.setattr(rmlab.rmatrix, "_ybe_residual_direct", refuse)
    with pytest.raises(ResourceError, match=f"needs {27 ** 6} entries"):
        cabling_power(flip3, 3)


def test_the_memo_dies_with_its_solution():
    r = rmlab.builtin("r2")
    relative_commutant_L(r, 1)
    tower = memo(r, rmlab.relative_commutant_M, 1)
    assert memo(r, rmlab.relative_commutant_M, 1) is tower
    kept = [weakref.ref(tower), weakref.ref(memo(r, _braid_algebra, 4))]
    del r, tower
    gc.collect()
    assert [ref() for ref in kept] == [None, None]


def test_a_relabelled_or_reverified_copy_starts_with_an_empty_memo():
    built = []

    def build(r, n):
        built.append(r.label)
        return object()

    r = rmlab.builtin("r2")
    first = memo(r, build, 1)
    assert memo(r, build, 1) is first and built == ["r2"]
    for copy in (r.relabel("copy"), verify(r.matrix, r.d, label="again")):
        assert memo(copy, build, 1) is not first
    assert built == ["r2", "copy", "again"]


def test_the_memo_keys_on_the_function_object_not_its_name():
    # A timing wrapper gives every function it wraps the same name.
    def wrapped(value):
        def traced(r):
            return value
        return traced

    def fails(r):
        calls.append(r)
        raise DomainError("no")

    r, calls = rmlab.builtin("r2"), []
    assert [memo(r, wrapped(k)) for k in (1, 2)] == [1, 2]
    for _ in range(2):
        with pytest.raises(DomainError):
            memo(r, fails)
    assert len(calls) == 2  # a build that raises keeps nothing


def test_a_pickled_solution_leaves_its_memo_behind():
    def traced(r, n):
        return n

    r = rmlab.builtin("box21")
    size = len(pickle.dumps(r))
    rmlab.analyze(r)
    assert memo(r, traced, 1) == 1
    data = pickle.dumps(r)
    assert len(data) == size
    back = pickle.loads(data)
    assert np.array_equal(back.matrix, r.matrix)
    assert (back.d, back.label) == (r.d, r.label)
    assert "_memo" not in vars(back) and vars(r)["_memo"]
