"""Braid words, representations, characters, and Thoma values."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmlab
import rmlab.braid
import rmlab.rmatrix
from rmlab import (
    BraidWord,
    CycleType,
    character,
    characters_equal,
    flip_conjugate,
    fundamental_braid,
    intertwiner_Y,
    represent,
    thoma_character,
    underlying_permutation,
)
from rmlab.errors import DomainError, ResourceError

RNG = np.random.default_rng(4242)


def test_free_reduction():
    w = BraidWord.from_ints([1, 2, -2, -1, 3])
    assert w.to_ints() == [3]
    assert len(BraidWord.from_ints([1, -1])) == 0


def test_word_validation():
    with pytest.raises(DomainError):
        BraidWord.from_ints([0])
    with pytest.raises(DomainError):
        BraidWord(2, ((3, 1),))  # generator out of range
    with pytest.raises(DomainError):
        BraidWord(2, ((1, 2),))  # exponent must be +-1


def test_inverse_concat_reduces_to_identity():
    w = BraidWord.from_ints([1, 2, 1, -3, 2])
    assert len(w.concat(w.inverse())) == 0


def test_underlying_permutation():
    # b1 b2 in B3 sends strand positions cyclically
    w = BraidWord.from_ints([1, 2])
    assert underlying_permutation(w) == (1, 2, 0)
    assert underlying_permutation(
        BraidWord.from_ints([1, 1], strands=3)
    ) == (0, 1, 2)


def test_represent_is_homomorphism():
    r = rmlab.builtin("r3")
    v = BraidWord.from_ints([1, 2], strands=3)
    w = BraidWord.from_ints([2, -1], strands=3)
    lhs = represent(r, v.concat(w))
    rhs = represent(r, v).matrix @ represent(r, w).matrix
    assert np.allclose(lhs.matrix, rhs, atol=1e-12)


def test_represent_inverse_is_adjoint():
    r = rmlab.builtin("r2")
    w = BraidWord.from_ints([1, 2, 1])
    m = represent(r, w).matrix
    mi = represent(r, w.inverse()).matrix
    assert np.allclose(m @ mi, np.eye(m.shape[0]), atol=1e-12)


def test_character_is_tracial():
    r = rmlab.builtin("r3")
    v = BraidWord.from_ints([1, 2, 2], strands=3)
    w = BraidWord.from_ints([-2, 1], strands=3)
    assert character(r, v.concat(w)) == pytest.approx(
        character(r, w.concat(v)), abs=1e-12
    )


def test_character_of_empty_word():
    r = rmlab.builtin("r2")
    assert character(r, BraidWord(4)) == pytest.approx(1.0)


def test_character_flip_single_generator():
    assert character(rmlab.make_flip(2), BraidWord.from_ints([1])) == (
        pytest.approx(0.5)
    )
    assert character(rmlab.make_flip(3), BraidWord.from_ints([1])) == (
        pytest.approx(1.0 / 3.0)
    )


def test_character_trivial_powers():
    r = rmlab.make_trivial(2, -1.0)
    assert character(r, BraidWord.from_ints([1, 1])) == pytest.approx(1.0)
    assert character(r, BraidWord.from_ints([1])) == pytest.approx(-1.0)


def test_fundamental_braid_center():
    # the square of the fundamental braid generates the center of B_n;
    # its image must commute with every generator image
    r = rmlab.builtin("r3")
    n = 3
    delta = fundamental_braid(n)
    full = delta.concat(delta)
    img = represent(r, full).matrix
    for gen in range(1, n):
        g = represent(r, BraidWord.from_ints([gen], strands=n)).matrix
        assert np.allclose(img @ g, g @ img, atol=1e-10)


def test_intertwiner_relates_conjugate_representations():
    # Y_n carries the level-n image of R to the image of F R F
    r = rmlab.builtin("r2")
    s = flip_conjugate(r)
    for n in (2, 3):
        y = intertwiner_Y(r, n)
        w = BraidWord.from_ints(list(range(1, n)), strands=n)
        a = represent(r, w).matrix
        b = represent(s, w).matrix
        assert np.allclose(y.matrix @ a @ y.matrix.conj().T, b, atol=1e-10)


def test_cycle_type_validation():
    ct = CycleType(((2, 1), (1, 2)))
    assert dict(ct.items()) == {2: 1}  # fixed points are dropped
    with pytest.raises(DomainError):
        CycleType(((2, 0),))


def test_thoma_character_flip():
    # the flip on C^d has all Thoma weights 1/d with positive sign
    spec = rmlab.NormalFormSpec(((1, 1),) * 3)
    assert thoma_character(spec, CycleType(((2, 1),))) == pytest.approx(
        1.0 / 3.0
    )
    assert thoma_character(spec, CycleType(((3, 1),))) == pytest.approx(
        1.0 / 9.0
    )


def test_thoma_character_signs():
    # a negative block contributes (-1)^(n-1) on an n-cycle
    spec = rmlab.NormalFormSpec(((1, -1),))
    assert thoma_character(spec, CycleType(((2, 1),))) == pytest.approx(-1.0)
    assert thoma_character(spec, CycleType(((3, 1),))) == pytest.approx(1.0)


def test_thoma_matches_direct_traces():
    words = {
        ((2, 1),): [1],
        ((2, 2),): [1, 3],
        ((3, 1),): [1, 2],
        ((4, 1),): [1, 2, 3],
    }
    for t in range(8):
        d = int(RNG.integers(2, 6))
        spec = rmlab.random_normal_form_spec(d, RNG)
        r = rmlab.random_conjugate(rmlab.make_normal_form(spec), RNG)
        for cyc, ints in words.items():
            want = thoma_character(spec, CycleType(cyc))
            got = character(r, BraidWord.from_ints(ints, strands=4))
            assert abs(want - got) <= 1e-9, (spec.blocks, cyc)


def test_characters_equal_reflexive_and_flip_conjugation():
    r = rmlab.builtin("r2")
    cmp1 = characters_equal(r, r)
    assert cmp1.equal
    # flip conjugation preserves the character
    cmp2 = characters_equal(r, flip_conjugate(r), max_strands=3, max_len=4)
    assert cmp2.equal
    assert cmp2.deviation <= 1e-10


def test_characters_differ_with_witness():
    cmp = characters_equal(
        rmlab.make_flip(2), rmlab.builtin("r2"), max_strands=3, max_len=4
    )
    assert not cmp.equal
    assert cmp.witness is not None
    w = BraidWord.from_ints(list(cmp.witness))
    assert abs(
        character(rmlab.make_flip(2), w) - character(rmlab.builtin("r2"), w)
    ) == pytest.approx(cmp.deviation, rel=1e-6)


@pytest.mark.parametrize("strands,length,words", [
    (4, 6, 23436), (2, 5, 10), (3, 5, 484), (5, 1, 8),
])
def test_characters_equal_counts_words_before_walking(monkeypatch, strands,
                                                      length, words):
    def refuse(*args, **kwargs):
        raise AssertionError("the build started")

    r = rmlab.builtin("r2")
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", words - 1)
    monkeypatch.setattr(rmlab.braid, "_short_words", refuse)
    monkeypatch.setattr(rmlab.braid, "_character_gram", refuse)
    with pytest.raises(ResourceError, match=f"needs {words} entries"):
        characters_equal(r, r, max_strands=strands, max_len=length)
    # Far past any cap, the count stays cheap and still refuses.
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 2 ** 24)
    for strands_, length_ in ((6, 12), (3, 10 ** 12), (2, 10 ** 12)):
        with pytest.raises(ResourceError):
            characters_equal(r, r, max_strands=strands_, max_len=length_)
    # 26 words pass, but the letter table needs 26 * 4^14 entries.
    with pytest.raises(ResourceError, match=f"needs {26 * 4 ** 14} entries"):
        characters_equal(r, r, max_strands=14, max_len=1)
    # The larger d of the two inputs sizes the table: 16 * 9^9 entries.
    flip3 = rmlab.make_flip(3)
    for pair in ((r, flip3), (flip3, r)):
        with pytest.raises(ResourceError, match=f"needs {16 * 9 ** 9} "):
            characters_equal(*pair, max_strands=9, max_len=1)
    with pytest.raises(ResourceError, match="the letter table"):
        characters_equal(r, r, max_strands=2 ** 22, max_len=1)
    # Only the Gram matrix is too large: 354,292 words of at most 11
    # letters on 3 strands fit, but the 1,457 words of at most 6 letters
    # need 1,457^2 Gram entries.
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 354292)
    with pytest.raises(ResourceError,
                       match=f"Gram matrix needs {1457 ** 2} entries"):
        characters_equal(r, r, max_strands=3, max_len=11)
    # Only d rows of every product are too large: on 2 strands, the 11
    # words of at most 5 letters hold 11 * 3^3 entries at d = 3, above
    # the 20 words, 2 * 3^4 letter entries and 11^2 Gram entries.
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", 11 * 27 - 1)
    for pair in ((r, flip3), (flip3, flip3)):
        with pytest.raises(ResourceError,
                           match=f"product rows needs {11 * 27} entries"):
            characters_equal(*pair, max_strands=2, max_len=10)
    monkeypatch.undo()
    # The letter table, 2 (strands - 1) d^(2 strands) entries, d rows of
    # the products and the Gram matrix of the words of at most
    # ceil(length / 2) letters must fit too.
    k = 2 * (strands - 1)
    short = 1 + sum(k * (k - 1) ** (n - 1)
                    for n in range(1, (length + 1) // 2 + 1))
    need = max(words, k * 4 ** strands, short * 2 ** (strands + 1),
               short ** 2)
    monkeypatch.setattr(rmlab.rmatrix, "DENSE_ENTRY_CAP", need)
    cmp = characters_equal(r, r, max_strands=strands, max_len=length)
    assert cmp.equal and cmp.words_checked == words


def _peak_bytes(r, s):
    characters_equal(r, s)
    tracemalloc.start()
    try:
        characters_equal(r, s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _simple3_and_a_conjugate():
    r = rmlab.builtin("simple3")
    u = rmlab.haar_unitary(3, np.random.default_rng(30))
    return r, rmlab.quasifree_conjugate(r, u)


def test_characters_equal_peak_memory_stays_small():
    # d rows of the 187 products at d = 3 hold 187 * 243 entries; a
    # larger row block, or a full conjugate copy of it, shows here.  An
    # equal pair, so the comparison runs the whole budget.
    assert _peak_bytes(*_simple3_and_a_conjugate()) <= 2 * 2 ** 20


def test_the_two_letter_stage_stays_within_the_same_memory():
    # The stage holds 27 rows of each of its 7 products at d = 3.
    r, s = rmlab.builtin("simple3"), rmlab.make_flip(3)
    assert _peak_bytes(r, s) <= 2 * 2 ** 20


def _spy_on_the_gram(monkeypatch) -> list:
    sizes, kernel = [], rmlab.braid._character_gram

    def spy(sides, strands, short, *args):
        sizes.append(len(short[0]))
        return kernel(sides, strands, short, *args)

    monkeypatch.setattr(rmlab.braid, "_character_gram", spy)
    return sizes


def test_a_two_letter_witness_stops_before_the_full_gram(monkeypatch):
    sizes = _spy_on_the_gram(monkeypatch)
    cmp = characters_equal(rmlab.make_flip(3), rmlab.builtin("simple3"))
    # tr R differs, so the 36 words of at most two letters settle it.
    assert (cmp.equal, cmp.witness, cmp.words_checked) == (False, (1,), 36)
    assert (cmp.max_strands, cmp.max_len) == (4, 6)
    assert sizes == [7]


def test_an_equal_pair_still_checks_every_word(monkeypatch):
    sizes = _spy_on_the_gram(monkeypatch)
    cmp = characters_equal(*_simple3_and_a_conjugate())
    assert cmp.equal and cmp.words_checked == 23436
    assert sizes == [7, 187]


def test_quasifree_conjugation_preserves_characters():
    r = rmlab.builtin("r3")
    u = np.linalg.qr(
        RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    )[0]
    s = rmlab.quasifree_conjugate(r, u)
    for ints in ([1], [1, 2], [1, 1], [2, 1, 2]):
        w = BraidWord.from_ints(ints, strands=3)
        assert character(r, w) == pytest.approx(character(s, w), abs=1e-11)


SIGNED_LETTERS = st.sampled_from([1, -1, 2, -2, 3, -3])


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(["r2", "r3", "r4", "box21", "simple3", "nfmix"]),
    v=st.lists(SIGNED_LETTERS, max_size=3),
    w=st.lists(SIGNED_LETTERS, min_size=1, max_size=4),
    seed=st.integers(0, 2 ** 16),
)
def test_characters_are_class_functions(name, v, w, seed):
    r = rmlab.builtin(name)
    word = BraidWord.from_ints(w, strands=4)
    outer = BraidWord.from_ints(v, strands=4)
    conj = outer.concat(word).concat(outer.inverse())
    assert character(r, conj) == pytest.approx(character(r, word),
                                               abs=1e-10)
    u = rmlab.haar_unitary(r.d, np.random.default_rng(seed))
    cmp = characters_equal(r, rmlab.quasifree_conjugate(r, u),
                           max_strands=3, max_len=3)
    assert cmp.equal, cmp.witness


BUILTINS = st.sampled_from(["r2", "r3", "r4", "r3special", "flip2", "flip3",
                            "box21", "simple3"])


@settings(max_examples=25, deadline=None)
@given(
    first=BUILTINS,
    second=BUILTINS,
    strands=st.integers(2, 4),
    length=st.integers(1, 4),
)
def test_characters_equal_is_symmetric(first, second, strands, length):
    r, s = rmlab.builtin(first), rmlab.builtin(second)
    cmp = characters_equal(r, s, max_strands=strands, max_len=length)
    swapped = characters_equal(s, r, max_strands=strands, max_len=length)
    assert (cmp.equal, cmp.witness, cmp.words_checked) == (
        swapped.equal, swapped.witness, swapped.words_checked)
    assert abs(cmp.deviation - swapped.deviation) < 1e-12


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_characters_equal_refuses_a_bad_tolerance(tol):
    r = rmlab.builtin("r2")
    with pytest.raises(DomainError, match="tolerance"):
        characters_equal(rmlab.make_flip(2), r, max_strands=3, max_len=3,
                         tol=tol)
