"""The shared raw-array kernels against literal Kronecker computations.

Every reference here builds a represented letter as
I_(d^(g-1)) (x) R^(+-1) (x) I_(d^(level-g-1)) with ``np.kron`` and
multiplies at one fixed level, independently of the running-level
bookkeeping in the kernels.
"""

import itertools

import numpy as np
import pytest

import rmlab
from rmlab import characters_equal
from rmlab.braid import _character_gram, _difference_gram, _short_words
from rmlab.commutant import hermitian_probe, word_product
from rmlab.corpus import random_conjugate
from rmlab.rmatrix import cabling_power
from rmlab.search import ordered_map
from rmlab.tensor import (
    pad_left,
    pad_right,
    shifted_product,
    trace_out_first,
    trace_out_last,
)


def eye(d, k):
    return np.eye(d ** k, dtype=complex)


def literal_letter(r, gen, exp, level):
    m = r.matrix if exp > 0 else r.matrix.conj().T
    return np.kron(np.kron(eye(r.d, gen - 1), m), eye(r.d, level - gen - 1))


def literal_word(r, word, level):
    prod = eye(r.d, level)
    for gen, exp in word:
        prod = prod @ literal_letter(r, gen, exp, level)
    return prod


def literal_character(r, word):
    level = max(g for g, _ in word) + 1
    return complex(np.trace(literal_word(r, word, level))) / r.d ** level


def reduced_words(strands, length):
    """Freely reduced words of one length, in shortlex letter order."""
    alphabet = [(g, e) for g in range(1, strands) for e in (+1, -1)]
    for word in itertools.product(alphabet, repeat=length):
        if all(word[i + 1] != (word[i][0], -word[i][1])
               for i in range(length - 1)):
            yield word


def letters_of(indices):
    """Letter indices of 1 < -1 < 2 < -2 < ... as (generator, exponent)."""
    return tuple((i // 2 + 1, 1 - 2 * (i % 2)) for i in indices)


@pytest.mark.parametrize("strands,max_len", [(2, 1), (2, 5), (3, 4),
                                             (4, 3), (5, 2)])
def test_short_words_are_the_shortlex_reduced_words(strands, max_len):
    k = 2 * (strands - 1)
    words, starts, parent, last, first, _ = _short_words(strands, max_len)
    assert words[0] == () and starts[:2] == [0, 1]
    for n in range(1, max_len + 1):
        layer = words[starts[n]:starts[n + 1]]
        assert len(layer) == k * (k - 1) ** (n - 1)
        assert [letters_of(w) for w in layer] == list(
            reduced_words(strands, n))
    for j, w in enumerate(words[1:], 1):
        assert words[parent[j]] == w[:-1]
        assert (first[j], last[j]) == (w[0], w[-1])


@pytest.mark.parametrize("name,strands,max_len", [("r2", 4, 3),
                                                  ("simple3", 3, 3)])
def test_inverse_index_gives_the_conjugate_transpose(name, strands,
                                                     max_len):
    r = rmlab.builtin(name)
    words, *_, inverse = _short_words(strands, max_len)
    assert inverse[0] == 0
    for j, w in enumerate(words[1:], 1):
        assert words[inverse[j]] == tuple(i ^ 1 for i in reversed(w))
        assert inverse[inverse[j]] == j
        assert np.allclose(
            literal_word(r, letters_of(words[inverse[j]]), strands),
            literal_word(r, letters_of(w), strands).conj().T, atol=1e-12)


@pytest.mark.parametrize("name,strands,max_len", [
    ("r2", 4, 2), ("box21", 3, 3), ("simple3", 3, 2), ("flip3", 4, 1),
])
def test_gram_entries_are_literal_characters(name, strands, max_len):
    r = rmlab.builtin(name)
    short = _short_words(strands, max_len)
    words, *_, inverse = short
    gram = _character_gram(((r, 1.0),), strands, short,
                           np.arange(len(words)))
    cache = {}
    for p, q in itertools.product(range(len(words)), repeat=2):
        # The entry for (p, q) is the character of p q^-1.
        word = rmlab.BraidWord(
            strands, letters_of(words[p] + words[inverse[q]])).letters
        if word not in cache:
            cache[word] = literal_character(r, word) if word else 1.0
        assert abs(gram[p, q] - cache[word]) < 1e-12, (p, q)


@pytest.mark.parametrize("first,second,strands,max_len", [
    ("r3", "r4", 4, 6), ("r2", "uf", 3, 5), ("simple3", "diag3", 4, 6),
    ("simple3", "flip3", 3, 3), ("r2", "simple3", 2, 7),
])
def test_mirrored_gram_matches_the_full_kernel(first, second, strands,
                                               max_len):
    rng = np.random.default_rng([26, strands, max_len])
    r, s = (random_conjugate(rmlab.builtin(name), rng)
            for name in (first, second))
    short = _short_words(strands, -(-max_len // 2))
    starts, n = short[1], len(short[0])
    full = _character_gram(((r, 1.0), (s, -1.0)), strands, short,
                           np.arange(n))
    gram = _difference_gram(r, s, strands, short)
    # The rows of the longest words and column 0 are what
    # characters_equal reads; half of those rows and the column are
    # mirrored.
    read = np.zeros((n, n), dtype=bool)
    read[starts[-2]:] = read[:, 0] = True
    # Complex entries, so a mirrored row that misses its conjugate fails.
    assert np.abs(full[read].imag).max() > 0.1
    assert np.abs(gram - full)[read].max() < 1e-12
    assert not gram[~read].any()


@pytest.mark.parametrize("name", ["r3", "simple3"])
def test_represent_and_character_match_kronecker_products(name):
    r = rmlab.builtin(name)
    rng = np.random.default_rng([8, r.d])
    for _ in range(10):
        n = int(rng.integers(1, 6))
        ints = [int(v) for v in rng.integers(1, 4, size=n)
                * rng.choice([1, -1], size=n)]
        w = rmlab.BraidWord.from_ints(ints, 4)
        want = literal_word(r, w.letters, 4)
        assert np.allclose(rmlab.represent(r, w).matrix, want, atol=1e-12)
        if w.letters:
            assert abs(rmlab.character(r, w)
                       - literal_character(r, w.letters)) < 1e-12


def test_witness_is_the_brute_force_shortlex_minimum():
    r, s = rmlab.builtin("r3"), rmlab.builtin("r4")
    strands, max_len = 3, 4
    devs = {
        w: abs(literal_character(r, w) - literal_character(s, w))
        for n in range(1, max_len + 1) for w in reduced_words(strands, n)
    }
    # Above every one-letter deviation, so the witness is longer.
    tol = max(v for w, v in devs.items() if len(w) == 1) + 1e-3
    assert all(abs(v - tol) > 1e-9 for v in devs.values())
    want = next(w for w, v in devs.items() if v > tol)
    assert len(want) > 1 and want != next(reduced_words(strands, len(want)))
    cmp = characters_equal(r, s, strands, max_len, tol=tol)
    assert not cmp.equal
    assert cmp.witness == tuple(g * e for g, e in want)
    assert abs(cmp.deviation - devs[want]) < 1e-12
    # A witness of at most two letters rests on those words alone.
    assert cmp.words_checked == (sum(len(w) <= 2 for w in devs)
                                 if len(want) <= 2 else len(devs))


def brute_force_comparison(r, s, strands, max_len, tol):
    """(equal, witness, deviation, words) from literal Kronecker traces.

    Past length 2, a witness of at most two letters is found at budget 2,
    so its verdict counts only the words of at most two letters.
    """
    devs = {
        w: abs(literal_character(r, w) - literal_character(s, w))
        for n in range(1, max_len + 1) for w in reduced_words(strands, n)
    }
    witness = next((w for w, v in devs.items() if v > tol), None)
    if witness is None:
        return True, None, max(devs.values()), len(devs)
    staged = len(witness) <= 2 < max_len
    words = sum(len(w) <= 2 for w in devs) if staged else len(devs)
    return False, tuple(g * e for g, e in witness), devs[witness], words


def assert_matches_brute_force(cmp, want):
    equal, witness, deviation, words = want
    assert (cmp.equal, cmp.witness, cmp.words_checked) == (
        equal, witness, words)
    assert abs(cmp.deviation - deviation) < 1e-12


@pytest.mark.parametrize("first,second", [
    ("r2", "r3"), ("r3", "r4"), ("r3special", "flip2"), ("flip2", "flip3"),
    ("r2", "flip3"),
])
@pytest.mark.parametrize("strands,max_len", [(3, 4), (4, 3), (3, 5)])
def test_characters_equal_matches_brute_force(first, second, strands,
                                              max_len):
    r, s = rmlab.builtin(first), rmlab.builtin(second)
    cmp = characters_equal(r, s, strands, max_len)
    assert_matches_brute_force(
        cmp, brute_force_comparison(r, s, strands, max_len, 1e-9))


@pytest.mark.parametrize("first,second,strands,max_len", [
    ("r3", "r4", 3, 4), ("r2", "r4", 4, 3), ("simple3", "flip3", 3, 4),
])
def test_full_length_witness_comes_from_the_fold(first, second, strands,
                                                 max_len):
    r, s = rmlab.builtin(first), rmlab.builtin(second)
    shorter = max(
        abs(literal_character(r, w) - literal_character(s, w))
        for n in range(1, max_len) for w in reduced_words(strands, n))
    # Above every shorter deviation, so only a full-length word deviates.
    tol = shorter + 1e-3
    want = brute_force_comparison(r, s, strands, max_len, tol)
    assert not want[0] and len(want[1]) == max_len
    cmp = characters_equal(r, s, strands, max_len, tol=tol)
    assert_matches_brute_force(cmp, want)


@pytest.mark.parametrize("first,second,tol", [
    ("flip2", "r2", 1e-9), ("flip2", "r2", 10.0), ("r3special", "flip2", 1e-9),
])
def test_characters_equal_at_length_one(first, second, tol):
    r, s = rmlab.builtin(first), rmlab.builtin(second)
    cmp = characters_equal(r, s, 3, 1, tol=tol)
    assert_matches_brute_force(cmp, brute_force_comparison(r, s, 3, 1, tol))


def test_equal_verdict_reports_the_largest_deviation():
    r, s = rmlab.make_flip(2), rmlab.builtin("r2")
    cmp = characters_equal(r, s, 3, 3, tol=10.0)
    want = brute_force_comparison(r, s, 3, 3, 10.0)
    assert want[0] and want[2] > 0.4
    assert_matches_brute_force(cmp, want)


@pytest.mark.parametrize("name", ["r3", "box21"])
def test_word_products_match_kronecker_loops(name):
    r = rmlab.builtin(name)
    d = r.d
    for n in (1, 2, 3):
        shifted = [np.kron(np.kron(eye(d, k), r.matrix), eye(d, n - 1 - k))
                   for k in range(n)]
        ordered, product = eye(d, n + 1), eye(d, n + 1)
        for k in range(n):
            product = product @ shifted[k]
            ordered = ordered @ shifted[n - 1 - k]
        assert np.allclose(word_product(r, n), product, atol=1e-12)
        reversed_product = shifted_product(
            ((k, r.matrix) for k in range(n - 1, -1, -1)), d, 2)
        assert np.allclose(reversed_product, ordered, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_cabling_power_matches_kronecker_loops(n):
    r = rmlab.builtin("r2")
    d = r.d
    rn = eye(d, n + 1)
    for k in range(n):
        rn = rn @ np.kron(np.kron(eye(d, k), r.matrix), eye(d, n - 1 - k))
    want = eye(d, 2 * n)
    for k in range(n - 1, -1, -1):
        want = want @ np.kron(np.kron(eye(d, k), rn), eye(d, n - 1 - k))
    got = cabling_power(r, n)
    assert got.d == d ** n
    assert np.allclose(got.matrix, want, atol=1e-12)


def test_shifted_product_and_pads():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(pad_left(m, 2, 1), np.kron(eye(2, 1), m))
    assert np.array_equal(pad_right(m, 2, 2), np.kron(m, eye(2, 2)))
    assert pad_left(m, 2, 0) is m and pad_right(m, 2, 0) is m
    assert np.array_equal(shifted_product([], 2, 2), eye(2, 0))
    want = np.kron(np.eye(2), m) @ np.kron(m, np.eye(2))
    assert np.allclose(shifted_product([(1, m), (0, m)], 2, 2), want,
                       atol=1e-12)
    # The running product starts at the first factor's level and is
    # padded on the right when a later factor reaches higher.
    want = np.kron(m, np.eye(4)) @ np.kron(np.eye(4), m)
    assert np.allclose(shifted_product([(0, m), (2, m)], 2, 2), want,
                       atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_trace_out_kernels_are_unnormalized_partial_traces(d):
    rng = np.random.default_rng([4, d])
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d * d, d * d))
    m = np.kron(a, b)
    assert np.allclose(trace_out_first(m, d), np.trace(a) * b, atol=1e-12)
    m = np.kron(b, a)
    assert np.allclose(trace_out_last(m, d), np.trace(a) * b, atol=1e-12)


def test_hermitian_probe_draws_two_coefficients_per_matrix():
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(2)]
    g = hermitian_probe(mats, np.random.default_rng(9))
    c = np.random.default_rng(9).standard_normal(4)
    want = sum(c[2 * i] * (b + b.conj().T) / 2
               + c[2 * i + 1] * (b - b.conj().T) / 2j
               for i, b in enumerate(mats))
    assert np.allclose(g, g.conj().T, atol=1e-12)
    assert np.allclose(g, want, atol=1e-12)


def test_ordered_map_serial_is_lazy_and_ordered():
    calls = []

    def fn(a, b):
        calls.append(a)
        return a * b

    results = ordered_map(fn, [(1, 2), (3, 4), (5, 6)])
    assert calls == []
    assert next(results) == 2
    assert calls == [1]
    assert list(results) == [12, 30]
    assert list(ordered_map(fn, [], jobs=4)) == []


def test_ordered_map_pool_keeps_task_order():
    assert list(ordered_map(pow, [(2, 5), (3, 2), (7, 1)], jobs=2)) == [
        32, 9, 7
    ]
