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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError
from .rmatrix import RMatrix, flip_conjugate, make_flip, require_dense
from .tensor import (DEFAULT_TOL, AlgebraElement, frobenius_norm, pad_left,
                     pad_right, shifted_product)

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
    """Product of represented letters at the minimal running level,
    and that level."""
    # R or R* per letter, shifted by gen - 1.
    prod = shifted_product(((gen - 1, _letter(r, 1, exp))
                            for gen, exp in letters), r.d, 2)
    return prod, max((gen + 1 for gen, _ in letters), default=0)


def represent(r: RMatrix, word: BraidWord) -> AlgebraElement:
    """The represented word as a level-``strands`` algebra element."""
    prod, level = _product(r, word.letters)
    return AlgebraElement(r.d, word.strands,
                          pad_right(prod, r.d, word.strands - level))


def character(r: RMatrix, word: BraidWord) -> complex:
    """Normalized trace of the represented word, which is stable under
    adding strands, so it is taken at the minimal level the word needs."""
    strands = max((g + 1 for g, _ in word.letters), default=0)
    require_dense(r.d ** (2 * strands), f"a {strands}-strand word")
    prod, level = _product(r, word.letters)
    return complex(np.trace(prod)) / r.d ** level


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


def intertwiner_Y(r: RMatrix, n: int) -> AlgebraElement:
    """Unitary intertwining the representation of R with that of FRF.

    Y_n is the flip-conjugated half twist times the plain flip half
    twist.  An intertwining residual above ``DEFAULT_TOL`` on any
    generator raises an internal-consistency error.
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
        if resid > DEFAULT_TOL:
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
    """A ``characters_equal`` verdict.  ``words_checked`` counts the words
    it rests on: those of at most two letters when a witness is found
    among them past length 2, else every word of the budget."""

    equal: bool
    witness: tuple | None
    deviation: float
    words_checked: int
    max_strands: int
    max_len: int
    tol: float


def _reduced_count(k: int, length: int) -> int:
    """Nonempty freely reduced words of at most ``length`` in k letters."""
    # k (k - 1)^(m - 1) words of each length m; with k >= 4 letters, 64
    # lengths already exceed the cap, so the power stops there.
    return 2 * length if k == 2 else (
        k * ((k - 1) ** min(length, 64) - 1) // (k - 2))


def _short_words(strands: int, length: int):
    """Every freely reduced word on ``strands`` of at most ``length``.

    A letter is its index in 1 < -1 < 2 < -2 < ..., so letter i has
    inverse i ^ 1.  Returns the words in shortlex order; the offsets
    ``starts``, with the words of length m at
    ``words[starts[m]:starts[m + 1]]``; and per word, as arrays, the
    index of its parent (the word without its last letter), its last
    and first letters, and the index of its inverse.  The empty word
    has -1 for parent and letters.
    """
    k = 2 * (strands - 1)
    words, starts = [()], [0, 1]
    for _ in range(length):
        words += [w + (i,) for w in words[starts[-2]:] for i in range(k)
                  if not w or i != w[-1] ^ 1]
        starts.append(len(words))
    index = {w: j for j, w in enumerate(words)}
    parent, last, first = np.array(
        [(index[w[:-1]], w[-1], w[0]) if w else (-1, -1, -1) for w in words]).T
    inverse = [index[tuple(i ^ 1 for i in reversed(w))] for w in words]
    return words, starts, parent, last, first, np.array(inverse)


def _character_gram(sides, strands: int, short, rows, entries=0) -> np.ndarray:
    """Rows ``rows`` of the weighted Gram matrix of the products in ``short``.

    ``sides`` lists (R, weight) pairs and ``short`` comes from
    ``_short_words(strands, ...)``.  Entry (p, q) sums, over the sides,
    weight * tr(W_p W_q*) / d^strands with W the represented word at
    level ``strands``; a -1 letter is R*, so that is weight times the
    character of p q^-1.  Each pass builds b rows of every product from
    its parent's, one GEMM per word length and last letter; b >= d is
    the largest power of d whose rows fit in ``entries`` entries.
    """
    words, starts, parent, last = short[:4]
    n, k = len(words), 2 * (strands - 1)
    layers = [np.arange(a, b) for a, b in zip(starts[1:-1], starts[2:])]
    steps = [(kids, parent[kids], i) for layer in layers for i in range(k)
             for kids in [layer[last[layer] == i]]]
    gram = np.zeros((len(rows), n), dtype=complex)
    for r, weight in sides:
        d, size = r.d, r.d ** strands
        block = d
        while block < size and n * block * d * size <= entries:
            block *= d
        # Letter gen acts on a row as I (x) B with B = R^(+-1) (x) I on
        # the last strands - gen + 1 slots, so only B is stored.
        letters = [pad_right(_letter(r, 1, exp), d, strands - gen - 1)
                   for gen in range(1, strands) for exp in (+1, -1)]
        # Rows a, ..., a + block - 1 of each product, side by side.
        stack = np.zeros((n, block * size), dtype=complex)
        for a in range(0, size, block):
            stack[0] = np.eye(block, size, a).ravel()
            for kids, parents, i in steps:
                b = letters[i]
                stack[kids] = (stack[parents].reshape(-1, len(b))
                               @ b).reshape(-1, block * size)
            # conj tr(W_p W_q*) sums conj(W_p[a, c]) W_q[a, c] over rows a.
            head = stack[rows]
            np.conjugate(head, out=head)
            head *= weight / size
            gram += head @ stack.T
        # Free this side's buffers before the next side allocates its own.
        del letters, stack, head
    return np.conjugate(gram, out=gram)


def _difference_gram(r: RMatrix, s: RMatrix, strands: int, short, entries=0):
    """Column 0 and the longest words' rows of chi_r - chi_s's Gram
    matrix, from row 0 and one row per inverse pair; 0 elsewhere."""
    starts, inverse = short[1], short[5]
    own = [a for a in range(starts[-2], starts[-1]) if a < inverse[a]]
    part = _character_gram(((r, 1), (s, -1)), strands, short, [0] + own,
                            entries)
    gram = np.zeros((len(inverse),) * 2, dtype=complex)
    # W_{a^-1} = W_a*, so G[a^-1, b^-1] = conj G[a, b] = G[b, a].
    gram[own], gram[inverse[own]] = part[1:], part[1:, inverse].conj()
    gram[:, 0] = part[0].conj()
    return gram


def _first_deviation(r: RMatrix, s: RMatrix, strands: int, max_len: int,
                     tol: float, entries: int):
    """(shortlex-first witness, its deviation) over the budget's words,
    or (None, the largest deviation) when no word deviates."""
    half = -(-max_len // 2)
    short = _short_words(strands, half)
    words, starts, _, last, first, inverse = short
    gram = _difference_gram(r, s, strands, short, entries)
    worst = 0.0
    # Lengths in increasing order, and P Q in row-major (P, Q) order,
    # so the first deviating word met is the shortlex-first.
    for m in range(1, max_len + 1):
        head = min(m, half)
        p = slice(starts[head], starts[head + 1])
        q = slice(starts[m - head], starts[m - head + 1])
        # P Q is reduced unless Q starts with the inverse of P's end.
        valid = first[q] != last[p, None] ^ 1
        # tr(W_P W_Q) is the entry at (P, Q^-1).
        values = np.abs(gram[p][:, inverse[q]])[valid]
        hits = np.flatnonzero(values > tol)
        if hits.size:
            a, b = np.argwhere(valid)[hits[0]]
            word = words[p.start + a] + words[q.start + b]
            return (tuple((i // 2 + 1) * (1 - 2 * (i % 2)) for i in word),
                    float(values[hits[0]]))
        worst = max(worst, float(values.max()))
    return None, worst


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

    Shortlex order puts the words of at most two letters first, so past
    length 2 they are compared first, at budget 2: a witness there is
    the budget's, and ``words_checked`` counts only them (36 at 4
    strands).  Otherwise it counts every word of the budget.

    Products are formed, rows at a time, only for the n words of at
    most h = ceil(max_len / 2) letters at level ``max_strands``.  A
    longer word is P Q with |P| = h, and its character is tr(W_P W_Q) / D,
    a Gram entry of those products (see ``_character_gram``) taken for
    both inputs at once as chi_r - chi_s.  Since W_{P^-1} = W_P*, only
    row 0 and one row per inverse pair {P, P^-1} are computed.  Each
    value agrees with the Kronecker reference to 1e-12; the deviation of
    an equal verdict is rounding noise that moves with the summation order.

    Raises ``DomainError`` unless 0 <= tol < inf, and
    ``ResourceError`` before any allocation when the word count, the
    2 (max_strands - 1) d^(2 max_strands) entries that bound the
    padded letters, the n d^(max_strands + 1) entries of d rows of
    every product, or the n^2 Gram entries are above the dense cap.
    """
    if max_strands < 2 or max_len < 1:
        raise DomainError("need max_strands >= 2 and max_len >= 1")
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"need a tolerance 0 <= tol < inf, got {tol}")
    k = 2 * (max_strands - 1)
    require_dense(_reduced_count(k, max_len), "the freely reduced words")
    # 64 levels of a d >= 2 letter table exceed the cap.
    d, levels = max(r.d, s.d), min(max_strands, 64)
    require_dense(k * d ** (2 * levels), "the letter table")
    n = 1 + _reduced_count(k, -(-max_len // 2))
    entries = n * d ** (levels + 1)
    require_dense(entries, "the product rows")
    require_dense(n * n, "the character Gram matrix")
    for length in (2, max_len) if max_len > 2 else (max_len,):
        witness, deviation = _first_deviation(r, s, max_strands, length, tol,
                                              entries)
        if witness is not None:
            break
    return CharacterComparison(witness is None, witness, deviation,
                               _reduced_count(k, length), max_strands,
                               max_len, tol)
