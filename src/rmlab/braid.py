"""Braid group representations attached to a Yang-Baxter solution.

A solution R on C^d (x) C^d represents the braid group B_n on
(C^d)^(x) n by sending the generator b_k to R acting on slots k, k+1.
Characters are normalized traces of represented words; they are class
functions, stable under adding strands, and multiplicative over the
cycle structure of the underlying permutation for involutive
solutions (the Thoma formula).

Words are serialized as signed integer lists, e.g. [1, 2, -1] for
b_1 b_2 b_1^{-1}.  Where a single canonical witness word is needed,
words are ordered shortlex with letter order 1 < -1 < 2 < -2 < ...
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError
from .rmatrix import RMatrix, flip_conjugate, make_flip, require_dense
from .tensor import (
    AlgebraElement,
    frobenius_norm,
    pad_left,
    pad_right,
    trace_out_last,
)

__all__ = [
    "BraidWord",
    "CycleType",
    "CharacterComparison",
    "represent",
    "character",
    "fundamental_braid",
    "intertwiner_Y",
    "thoma_character",
    "characters_equal",
    "underlying_permutation",
]


def _free_reduce(letters):
    stack = []
    for gen, exp in letters:
        if stack and stack[-1][0] == gen and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append((gen, exp))
    return tuple(stack)


@dataclass(frozen=True)
class BraidWord:
    """A freely reduced word in the braid group B_strands.

    ``letters`` is a tuple of (generator index, exponent) pairs with
    1 <= index <= strands - 1 and exponent in {+1, -1}.  Construction
    applies free reduction, so adjacent inverse pairs never survive.
    """

    strands: int
    letters: tuple = ()

    def __post_init__(self):
        if self.strands < 1:
            raise DomainError(f"strand count must be >= 1, got {self.strands}")
        letters = []
        for gen, exp in self.letters:
            gen, exp = int(gen), int(exp)
            if exp not in (+1, -1):
                raise DomainError(f"exponent must be +1 or -1, got {exp}")
            if not 1 <= gen <= self.strands - 1:
                raise DomainError(
                    f"generator {gen} out of range for {self.strands} strands"
                )
            letters.append((gen, exp))
        object.__setattr__(self, "letters", _free_reduce(letters))

    @classmethod
    def from_ints(cls, ints, strands: int | None = None) -> "BraidWord":
        """Build from a signed integer list like [1, 2, -1]."""
        ints = [int(v) for v in ints]
        if any(v == 0 for v in ints):
            raise DomainError("0 is not a valid letter")
        if strands is None:
            strands = max((abs(v) for v in ints), default=0) + 1
        return cls(strands, tuple((abs(v), 1 if v > 0 else -1) for v in ints))

    def to_ints(self) -> list[int]:
        return [gen * exp for gen, exp in self.letters]

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(
            self.strands,
            tuple((g, -e) for g, e in reversed(self.letters)),
        )

    def concat(self, other: "BraidWord") -> "BraidWord":
        n = max(self.strands, other.strands)
        return BraidWord(n, self.letters + other.letters)


def _letter(r: RMatrix, gen: int, exp: int) -> np.ndarray:
    """b_gen^exp as a raw matrix at its minimal level gen + 1."""
    m = r.matrix if exp > 0 else r.matrix.conj().T
    return pad_left(m, r.d, gen - 1)


def _product(r: RMatrix, letters):
    """Product of represented letters at the minimal running level.

    At each step the lower of the running product and the letter is
    padded on the right to the larger of their levels.
    """
    prod, level = np.eye(1, dtype=complex), 0
    for gen, exp in letters:
        top = max(level, gen + 1)
        letter = pad_right(_letter(r, gen, exp), r.d, top - gen - 1)
        prod, level = pad_right(prod, r.d, top - level) @ letter, top
    return prod, level


def _letter_table(r: RMatrix, strands: int):
    """Every letter b_gen^(+-1) with gen < ``strands``, padded once per level.

    Returns the alphabet in letter order 1 < -1 < 2 < -2 < ..., a dict
    (letter, level) -> the letter padded on the right to that level,
    for gen + 1 <= level <= ``strands``, and per level l the rows of
    the one-letter fold.  For a prefix P at level l and a letter b at
    its level t = max(l, gen + 1), tr((P (x) 1) b) / d^t is
    tr(P E_l(b)) / d^l, with E_l the normalized partial trace down to
    level l; the rows stack E_l(b) over the alphabet as a (k, d^(2l))
    array, so that ``rows @ vec(P^T) / d^l`` gives every character at
    once.  At levels l >= gen + 1, E_l(b) is b itself, and the dict's
    padded letters are views of those rows.
    """
    d = r.d
    alphabet = [(gen, exp) for gen in range(1, strands) for exp in (+1, -1)]
    rows = [np.empty((len(alphabet), d ** (2 * level)), dtype=complex)
            for level in range(strands + 1)]
    padded = {}
    for i, (gen, exp) in enumerate(alphabet):
        m = _letter(r, gen, exp)
        for level in range(gen + 1, strands + 1):
            b = pad_right(m, d, level - gen - 1)
            rows[level][i] = b.reshape(-1)
            padded[(gen, exp), level] = rows[level][i].reshape(b.shape)
        for level in range(gen, -1, -1):
            m = trace_out_last(m, d) / d
            rows[level][i] = m.reshape(-1)
    return alphabet, padded, rows


def word_walk(r: RMatrix, strands: int, max_len: int, table=None):
    """Yield (letters, product) for every nonempty freely reduced word.

    Words use generators below ``strands`` and have length at most
    ``max_len``; they come depth-first in letter order
    1 < -1 < 2 < -2 < ..., each word right after its prefix.  The
    product is the represented word at its minimal level (the largest
    generator plus one), extended by one step from its prefix: the
    prefix is padded only when the level rises, and the letter comes
    already padded from ``table``, the result of
    ``_letter_table(r, strands)`` (built here when not given).
    """
    alphabet, padded, _ = table or _letter_table(r, strands)
    word: list = []
    stack = [(np.eye(1, dtype=complex), 0, iter(alphabet))] if max_len else []
    while stack:
        prod, level, todo = stack[-1]
        letter = next(todo, None)
        if letter is None:
            stack.pop()
            if word:
                word.pop()
            continue
        gen, exp = letter
        if word and word[-1] == (gen, -exp):
            continue
        top = max(level, gen + 1)
        new = pad_right(prod, r.d, top - level) @ padded[letter, top]
        word.append(letter)
        yield tuple(word), new
        if len(word) < max_len:
            stack.append((new, top, iter(alphabet)))
        else:
            word.pop()


def represent(r: RMatrix, word: BraidWord) -> AlgebraElement:
    """The represented word as a level-``strands`` algebra element."""
    prod, level = _product(r, word.letters)
    return AlgebraElement(r.d, word.strands,
                          pad_right(prod, r.d, word.strands - level))


def character(r: RMatrix, word: BraidWord) -> complex:
    """Normalized trace of the represented word.

    Stable under adding strands, so it is evaluated at the minimal
    level the word needs; the last factor is folded into the trace
    directly instead of forming one more full product.
    """
    if not word.letters:
        return 1.0 + 0.0j
    (gen, exp), d = word.letters[-1], r.d
    prod, level = _product(r, word.letters[:-1])
    top = max(level, gen + 1)
    a = pad_right(prod, d, top - level)
    b = pad_right(_letter(r, gen, exp), d, top - gen - 1)
    # tr(AB) without the product matrix.
    return complex(np.sum(a * b.T)) / d ** top


def underlying_permutation(word: BraidWord) -> tuple:
    """Image of the word in the symmetric group (0-based, perm[i] = image)."""
    perm = list(range(word.strands))
    # Right-multiplying by the transposition (k-1, k) swaps positions,
    # so scanning letters left to right matches the operator product.
    for gen, _ in word.letters:
        perm[gen - 1], perm[gen] = perm[gen], perm[gen - 1]
    return tuple(perm)


def fundamental_braid(n: int) -> BraidWord:
    """The positive half twist on n strands.

    Defined recursively: trivial on one strand, and the half twist on
    m strands is b_1 ... b_{m-1} times the half twist on m - 1 strands.
    """
    if n < 1:
        raise DomainError(f"strand count must be >= 1, got {n}")
    letters: list = []
    for m in range(n, 1, -1):
        letters.extend((k, +1) for k in range(1, m))
    # Built outermost-first already: b_1..b_{n-1} then the (n-1)-twist.
    return BraidWord(n, tuple(letters))


def intertwiner_Y(r: RMatrix, n: int, tol: float = 1e-10) -> AlgebraElement:
    """Unitary intertwining the representation of R with that of FRF.

    Y_n is the flip-conjugated half twist times the plain flip half
    twist.  The intertwining property is re-checked on every generator
    and a failure raises an internal-consistency error.
    """
    frf = flip_conjugate(r)
    flip = make_flip(r.d)
    delta = fundamental_braid(n)
    y = represent(frf, delta).matrix @ represent(flip, delta).matrix
    out = AlgebraElement(r.d, n, y)
    for k in range(1, n):
        gr = pad_right(_letter(r, k, +1), r.d, n - k - 1)
        gf = pad_right(_letter(frf, k, +1), r.d, n - k - 1)
        resid = frobenius_norm(y @ gr @ y.conj().T - gf)
        if resid > tol:
            raise InternalConsistencyError(
                f"intertwiner fails on generator {k}: residual {resid:.3e}"
            )
    return out


@dataclass(frozen=True)
class CycleType:
    """Cycle multiplicities of a permutation: length -> count, lengths >= 2.

    Fixed points are omitted; they never change a character value.
    """

    cycles: tuple = ()

    def __post_init__(self):
        cleaned = []
        for length, count in self.cycles:
            length, count = int(length), int(count)
            if length < 2:
                continue
            if count < 1:
                raise DomainError(f"count must be >= 1, got {count}")
            cleaned.append((length, count))
        cleaned.sort()
        object.__setattr__(self, "cycles", tuple(cleaned))

    @classmethod
    def from_permutation(cls, perm) -> "CycleType":
        perm = list(perm)
        seen = [False] * len(perm)
        counts: dict = {}
        for start in range(len(perm)):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length >= 2:
                counts[length] = counts.get(length, 0) + 1
        return cls(tuple(sorted(counts.items())))

    def items(self):
        return self.cycles


def thoma_character(spec, cycle_type: CycleType) -> float:
    """Character value of a normal-form solution on a permutation.

    Multiplicative over cycles: a length-n cycle contributes the
    signed power sum of the block weights, with alternating sign on
    the negative blocks.
    """
    weights = spec.signed_weights()
    alphas = [w for w in weights if w > 0]
    betas = [-w for w in weights if w < 0]
    value = 1.0
    for length, count in cycle_type.items():
        term = sum(a ** length for a in alphas)
        term += (-1) ** (length + 1) * sum(b ** length for b in betas)
        value *= term ** count
    return float(value)


@dataclass(frozen=True)
class CharacterComparison:
    equal: bool
    witness: tuple | None
    deviation: float
    words_checked: int
    max_strands: int
    max_len: int
    tol: float


def characters_equal(r: RMatrix, s: RMatrix, max_strands: int = 4,
                     max_len: int = 6, tol: float = 1e-9
                     ) -> CharacterComparison:
    """Compare characters over all freely reduced words up to a budget.

    Scans every freely reduced word with generators below
    ``max_strands`` and length at most ``max_len``.  If any word's
    character values differ by more than ``tol``, the shortlex-smallest
    such word is reported as the witness (letter order
    1 < -1 < 2 < -2 < ...) and ``deviation`` is its difference;
    otherwise ``deviation`` is the largest difference over all words
    compared.  Equality is only up to this truncation.

    Products are formed only for words shorter than ``max_len``.  The
    full-length words extend a prefix P of length ``max_len - 1`` by
    one letter b, and tr((P (x) 1) b) = tr(P Tr_last(b)), so all of
    P's extensions are read off one matrix-vector product with the
    letters' partial traces, built once per input and level by
    ``_letter_table``.

    Raises ``DomainError`` unless 0 <= tol < inf, and
    ``ResourceError`` before walking when the word count, or the
    2 (max_strands - 1) d^(2 max_strands) entries of the letter table,
    are above the dense cap.
    """
    if max_strands < 2 or max_len < 1:
        raise DomainError("need max_strands >= 2 and max_len >= 1")
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"need a tolerance 0 <= tol < inf, got {tol}")
    # k (k - 1)^(l - 1) words of each length l; with k >= 4 letters, 64
    # lengths already exceed the cap, so the power stops there.
    k = 2 * (max_strands - 1)
    words = 2 * max_len if k == 2 else (
        k * ((k - 1) ** min(max_len, 64) - 1) // (k - 2))
    require_dense(words, "the freely reduced word walk")
    # Likewise 64 levels of a d >= 2 letter table exceed the cap.
    require_dense(k * max(r.d, s.d) ** (2 * min(max_strands, 64)),
                  "the letter table")
    tables = [_letter_table(x, max_strands) for x in (r, s)]
    alphabet = tables[0][0]
    # The walk meets words of one length in shortlex order, and so do
    # the extensions of its longest words, so the first deviating word
    # of the least length is the witness.
    empty = ((), np.eye(1, dtype=complex))
    walks = itertools.chain([(empty, empty)], zip(
        word_walk(r, max_strands, max_len - 1, tables[0]),
        word_walk(s, max_strands, max_len - 1, tables[1])))
    witness, deviation, worst, checked = None, 0.0, 0.0, 0
    for (word, pr), (_, ps) in walks:
        if word:
            checked += 1
            dev = abs(complex(np.trace(pr)) / pr.shape[0]
                      - complex(np.trace(ps)) / ps.shape[0])
            worst = max(worst, dev)
            if dev > tol and (witness is None or len(word) < len(witness)):
                witness, deviation = word, dev
        if len(word) < max_len - 1:
            continue
        level = max((gen for gen, _ in word), default=-1) + 1
        rows_r, rows_s = tables[0][2][level], tables[1][2][level]
        devs = np.abs(rows_r @ pr.T.reshape(-1) / pr.shape[0]
                      - rows_s @ ps.T.reshape(-1) / ps.shape[0])
        if word:
            # The inverse of the last letter cancels: not a reduced word.
            gen, exp = word[-1]
            devs[2 * (gen - 1) + (exp > 0)] = 0.0
        checked += len(alphabet) - bool(word)
        worst = max(worst, float(devs.max()))
        # A full-length word wins only if no shorter word deviates.
        hits = np.flatnonzero(devs > tol)
        if witness is None and hits.size:
            witness = word + (alphabet[hits[0]],)
            deviation = float(devs[hits[0]])
    return CharacterComparison(
        witness is None,
        None if witness is None else tuple(g * e for g, e in witness),
        worst if witness is None else deviation,
        checked, max_strands, max_len, tol,
    )
