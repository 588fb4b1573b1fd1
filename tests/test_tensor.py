"""Tests for the tagged tensor-algebra kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmlab
from rmlab import (
    AlgebraElement,
    as_complex_matrix,
    eig_normal,
    embed,
    expectation_to_level,
    frobenius_norm,
    hs_inner,
    identity_element,
    kron,
    normalized_trace,
    partial_trace_left,
    partial_trace_right,
    shift,
)
from rmlab.errors import LevelError, NormalityError, ShapeError
from rmlab.tensor import CLUSTER_TOL, spectral_clusters

RNG = np.random.default_rng(20240817)


def random_element(d, level):
    dim = d ** level
    m = RNG.standard_normal((dim, dim)) + 1j * RNG.standard_normal((dim, dim))
    return AlgebraElement(d, level, m)


def test_element_validates_shape():
    with pytest.raises(ShapeError):
        AlgebraElement(2, 2, np.eye(3))
    with pytest.raises(ShapeError):
        AlgebraElement(0, 1, np.eye(1))
    with pytest.raises(LevelError):
        AlgebraElement(2, -1, np.eye(1))


def test_element_is_frozen():
    x = random_element(2, 1)
    with pytest.raises(ValueError):
        x.matrix[0, 0] = 5.0


def test_level_zero_is_scalar():
    x = AlgebraElement(3, 0, np.array([[2.5]]))
    assert x.dim == 1
    assert normalized_trace(x) == pytest.approx(2.5)


def test_as_complex_matrix_rejects_nonsquare():
    with pytest.raises(ShapeError):
        as_complex_matrix(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [[[1, 0], [0]], "abc", {"a": 1},
                                 [[1, "x"], [0, 1]]],
                         ids=["ragged", "string", "dict", "text-entry"])
def test_uncoercible_input_is_a_shape_error(bad):
    # numpy's own ValueError or TypeError does not leak past the
    # boundary, neither here nor through verify.
    with pytest.raises(ShapeError) as info:
        as_complex_matrix(bad)
    assert isinstance(info.value.__cause__, (TypeError, ValueError))
    with pytest.raises(ShapeError):
        rmlab.verify(bad, 1)


def test_kron_slot_order():
    # Slot 1 is the leftmost factor: (a (x) b)[(i,j),(k,l)] = a[i,k] b[j,l].
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.eye(2)
    m = kron(a, b)
    assert m[0 * 2 + 0, 1 * 2 + 0] == 1.0
    assert m[0 * 2 + 1, 1 * 2 + 1] == 1.0
    assert np.count_nonzero(m) == 2


@pytest.mark.parametrize("d", [2, 3])
def test_kron_is_bitwise_np_kron(d):
    rng = np.random.default_rng(d)

    def draw(*shape):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m.real[..., 0, 0] = -0.0
        m.imag[..., 0, 1] = -0.0
        return m

    eye = np.eye(d, dtype=complex)
    a, b, stack = draw(d, d), draw(d, d), draw(3, d, d)
    pairs = [(a, b), (a, eye), (eye, a), (stack, eye), (eye, stack),
             (stack, a)]
    for x, y in pairs:
        got, want = kron(x, y), np.kron(x, y)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def test_embed_right_pads():
    x = random_element(2, 1)
    y = embed(x, 3)
    assert y.level == 3
    assert np.allclose(y.matrix, kron(x.matrix, np.eye(4)))


def test_embed_rejects_lower_level():
    x = random_element(2, 2)
    with pytest.raises(LevelError):
        embed(x, 1)


def test_shift_left_pads():
    x = random_element(2, 2)
    y = shift(x, 1)
    assert y.level == 3
    assert np.allclose(y.matrix, kron(np.eye(2), x.matrix))
    z = shift(x, 2)
    assert z.level == 4
    assert np.allclose(z.matrix, kron(np.eye(4), x.matrix))


def test_shift_zero_is_identity():
    x = random_element(3, 1)
    assert np.allclose(shift(x, 0).matrix, x.matrix)


def test_partial_trace_left_kills_first_slot():
    a = random_element(2, 1)
    b = random_element(2, 1)
    prod = AlgebraElement(2, 2, kron(a.matrix, b.matrix))
    left = partial_trace_left(prod)
    # Left partial trace averages out slot 1 with the normalized trace.
    assert np.allclose(
        left.matrix, np.trace(a.matrix) / 2.0 * b.matrix
    )
    right = partial_trace_right(prod)
    assert np.allclose(
        right.matrix, np.trace(b.matrix) / 2.0 * a.matrix
    )


def test_partial_trace_levels():
    x = random_element(2, 3)
    assert partial_trace_left(x).level == 2
    assert partial_trace_right(x).level == 2
    with pytest.raises(LevelError):
        partial_trace_left(AlgebraElement(2, 0, np.eye(1)))


def test_expectation_to_level_iterates_right_trace():
    x = random_element(2, 3)
    once = partial_trace_right(x)
    twice = partial_trace_right(once)
    assert np.allclose(expectation_to_level(x, 1).matrix, twice.matrix)
    assert np.allclose(expectation_to_level(x, 3).matrix, x.matrix)


def test_normalized_trace_of_identity():
    for d, level in ((2, 1), (2, 3), (3, 2)):
        one = identity_element(d, level)
        assert normalized_trace(one) == pytest.approx(1.0)


def test_trace_compatible_with_expectation():
    # tau is preserved by compression to a lower level.
    x = random_element(2, 3)
    assert normalized_trace(x) == pytest.approx(
        normalized_trace(expectation_to_level(x, 1)), abs=1e-12
    )


def test_hs_inner_and_frobenius():
    # hs_inner is trace-normalized, the Frobenius norm is not.
    x = random_element(2, 2)
    assert hs_inner(x.matrix, x.matrix).imag == pytest.approx(0.0)
    assert frobenius_norm(x.matrix) == pytest.approx(
        np.sqrt(4.0 * hs_inner(x.matrix, x.matrix).real)
    )
    y = random_element(2, 2)
    assert hs_inner(x.matrix, y.matrix) == pytest.approx(
        np.conj(hs_inner(y.matrix, x.matrix))
    )


def test_eig_normal_clusters_degenerate_eigenvalues():
    u = np.linalg.qr(
        RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    )[0]
    diag = np.diag([1.0, 1.0, -1.0, 2.0])
    m = u @ diag @ u.conj().T
    clusters = eig_normal(m)
    mults = sorted(c.multiplicity for c in clusters)
    assert mults == [1, 1, 2]
    for c in clusters:
        p = c.projection
        assert np.allclose(p @ p, p, atol=1e-10)
        assert np.allclose(p.conj().T, p, atol=1e-10)
        assert np.allclose(m @ p, c.value * p, atol=1e-9)


def test_eig_normal_resolution_sums_to_identity():
    herm = RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))
    herm = herm + herm.conj().T
    clusters = eig_normal(herm)
    total = sum(c.projection for c in clusters)
    assert np.allclose(total, np.eye(5), atol=1e-10)


def test_eig_normal_rejects_nonnormal():
    with pytest.raises(NormalityError):
        eig_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.sampled_from([0.0, 1e-12, 0.5, 1.0, 1.5, 2.0,
                                       3.0, 1e3]), max_size=12),
       radius=st.sampled_from([0.0, 1e-9, 1.0, 1.7]))
def test_spectral_clusters_on_sorted_reals_are_the_sorted_diff_cuts(
        steps, radius):
    values = np.cumsum(np.asarray([-2.0] + steps))
    diffs = np.diff(values)
    labels = np.concatenate([[0], np.cumsum(diffs > radius)])
    runs = [np.flatnonzero(labels == c) for c in range(labels[-1] + 1)]
    got = spectral_clusters(values, radius)
    assert [g.tolist() for g in got.groups] == [r.tolist() for r in runs]
    assert got.gap == min(diffs[diffs > radius], default=np.inf)
    assert got.spread == max(values[r[-1]] - values[r[0]] for r in runs)


def test_spectral_clusters_join_complex_chains():
    # A bent chain of steps just under the radius spans far more than
    # the radius; its members are listed out of order, between two
    # isolated values, one of them just over the radius from the chain.
    chain = np.cumsum([0.9 * np.exp(0.6j * k) for k in range(8)])
    near = chain[-1] + 1.2
    values = np.concatenate([[10.0 + 10.0j], chain[::-1][::2], [near],
                             chain[::-1][1::2]])
    got = spectral_clusters(values, 1.0)
    assert [g.tolist() for g in got.groups] == [
        [0], [1, 2, 3, 4, 6, 7, 8, 9], [5]]
    assert 1.0 < got.gap == np.abs(near - chain).min()
    assert got.spread == np.abs(chain[:, None] - chain).max()
    assert len(spectral_clusters(values, 0.85).groups) == 10
    assert spectral_clusters([], 1.0) == ([], np.inf, 0.0)


def _schur_reference(a):
    """The eigen clusters from a complex Schur form and a graph search."""
    import scipy.linalg
    import scipy.sparse.csgraph

    t, q = scipy.linalg.schur(a, output="complex")
    evals = np.diag(t)
    radius = CLUSTER_TOL * max(1.0, float(np.abs(evals).max()))
    count, labels = scipy.sparse.csgraph.connected_components(
        np.abs(evals[:, None] - evals[None, :]) <= radius, directed=False)
    return [(complex(evals[labels == c].mean()), int(np.sum(labels == c)),
             q[:, labels == c] @ q[:, labels == c].conj().T)
            for c in range(count)]


def _check_decomposition(a, planted=None):
    """eig_normal(a) resolves a exactly and agrees with the reference;
    ``planted`` maps each exact eigenvalue to its multiplicity."""
    n = a.shape[0]
    clusters = eig_normal(a)
    assert sum(c.multiplicity for c in clusters) == n
    assert np.abs(sum(c.projection for c in clusters)
                  - np.eye(n)).max() <= 1e-12
    assert np.abs(sum(c.value * c.projection for c in clusters)
                  - a).max() <= 1e-12
    for c in clusters:
        p = c.projection
        assert np.abs(p @ p - p).max() <= 1e-12
        assert np.abs(p - p.conj().T).max() <= 1e-12
        assert np.trace(p).real == pytest.approx(c.multiplicity)
    reference = _schur_reference(a)
    assert len(reference) == len(clusters)
    for value, mult, proj in reference:
        c = min(clusters, key=lambda c: abs(c.value - value))
        assert abs(c.value - value) <= 1e-12
        assert c.multiplicity == mult
        assert np.abs(c.projection - proj).max() <= 1e-12
    if planted is not None:
        assert len(planted) == len(clusters)
        for value, mult in planted.items():
            c = min(clusters, key=lambda c: abs(c.value - value))
            assert abs(c.value - value) <= 1e-12
            assert c.multiplicity == mult


def _planted_values(case, count, rng):
    """``count`` distinct eigenvalues, at least 0.1 apart."""
    k = np.arange(count)
    if case == "shared real part":
        return 0.3 + 1j * (k - 1.5 + rng.uniform(0.0, 0.4, count))
    if case == "conjugate pairs":
        theta = (k // 2 + 0.2 + rng.uniform(0.0, 0.5)) * 0.6
        return np.exp(1j * theta * (-1.0) ** k)
    if case == "unitary":
        return np.exp(2j * np.pi * (k + rng.uniform(0.0, 0.5, count))
                      / count)
    if case == "hermitian":
        return 2.0 * (k - 2.0 + rng.uniform(0.0, 0.45, count))
    return (k + rng.uniform(0.0, 0.5, count)
            + 1j * rng.uniform(-1.0, 1.0, count))


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(["shared real part", "conjugate pairs",
                             "unitary", "hermitian", "generic"]),
       mults=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eig_normal_resolves_planted_clusters(case, mults, seed):
    rng = np.random.default_rng(seed)
    values = _planted_values(case, len(mults), rng)
    n = sum(mults)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(z)[0]
    a = q @ np.diag(np.repeat(values, mults)) @ q.conj().T
    if case == "hermitian":
        a = (a + a.conj().T) / 2.0
    _check_decomposition(a, dict(zip(values.tolist(), mults)))


@pytest.mark.parametrize("name", rmlab.builtin_names())
def test_eig_normal_resolves_builtins_and_their_partial_traces(name):
    r = rmlab.builtin(name)
    _check_decomposition(r.matrix)
    _check_decomposition(partial_trace_left(r.as_element()).matrix)
