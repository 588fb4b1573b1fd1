"""Built-in solution catalog and reproducible random generators.

``builtin`` constructs named reference solutions that the tests and
the command line lean on; ``builtin_names`` lists them.  The
``random_*`` helpers draw structured solutions (diagonal, simple,
normal-form, d = 2 family members) from a caller-supplied generator so
sweeps stay reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .rmatrix import (
    NormalFormSpec,
    RMatrix,
    SimpleRSpec,
    box_sum,
    flip_matrix,
    make_flip,
    make_normal_form,
    make_simple,
    make_trivial,
    quasifree_conjugate,
    verify,
)
from .search import haar_unitary
from .tensor import as_complex_matrix, pad_right

__all__ = [
    "builtin",
    "builtin_names",
    "all_builtins",
    "family_r2",
    "family_r3",
    "family_r4",
    "uf_solution",
    "random_phases",
    "random_projection_partition",
    "random_simple_spec",
    "random_normal_form_spec",
    "random_diagonal",
    "random_conjugate",
    "random_unimodular",
    "random_family2",
    "random_family3",
    "random_family4",
]


def _check_unimodular(**params) -> None:
    for name, value in params.items():
        if abs(abs(complex(value)) - 1.0) > 1e-12:
            raise DomainError(
                f"parameter {name} must be unimodular, got {value}"
            )


def family_r2(p: complex, q: complex, r: complex, s: complex) -> RMatrix:
    """d = 2 diagonal family: basis vectors swap up to a phase."""
    _check_unimodular(p=p, q=q, r=r, s=s)
    m = np.array([[p, 0, 0, 0],
                  [0, 0, q, 0],
                  [0, r, 0, 0],
                  [0, 0, 0, s]], dtype=complex)
    return verify(m, 2, label=f"r2({p:.3g},{q:.3g},{r:.3g},{s:.3g})")


def family_r3(p: complex, q: complex, r: complex) -> RMatrix:
    """d = 2 antidiagonal family."""
    _check_unimodular(p=p, q=q, r=r)
    m = np.array([[0, 0, 0, p],
                  [0, q, 0, 0],
                  [0, 0, q, 0],
                  [r, 0, 0, 0]], dtype=complex)
    return verify(m, 2, label=f"r3({p:.3g},{q:.3g},{r:.3g})")


def _family4_matrix(q: complex) -> np.ndarray:
    """q / sqrt(2) times a pair of rotation blocks."""
    return q / np.sqrt(2.0) * np.array(
        [[1, 1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]],
        dtype=complex)


def family_r4(q: complex) -> RMatrix:
    """d = 2 Pauli-type family, a rotation block pair scaled by q."""
    _check_unimodular(q=q)
    return verify(_family4_matrix(q), 2, label=f"r4({q:.3g})")


def uf_solution(u) -> RMatrix:
    """(u (x) 1) F for a unitary u; always a solution."""
    u = as_complex_matrix(u)
    d = u.shape[0]
    m = pad_right(u, d, 1) @ flip_matrix(d)
    return verify(m, d, label=f"uF(d={d})")


def _diag3() -> RMatrix:
    projs = tuple(np.diag(row).astype(complex) for row in np.eye(3))
    angles = np.array([[0.3, 0.9, -1.2],
                       [2.1, -0.5, 0.8],
                       [-1.7, 1.3, 0.6]])
    return make_simple(
        SimpleRSpec(projs, np.exp(1j * angles)), label="diag3"
    )


def _simple3() -> RMatrix:
    p1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    phases = np.array([[np.exp(0.6j), 1.0],
                       [1.0, 1.0]], dtype=complex)
    return make_simple(SimpleRSpec((p1, p2), phases), label="simple3")


_BUILTINS = {
    "trivial2": lambda: make_trivial(2, 1j).relabel("trivial2"),
    "flip2": lambda: make_flip(2).relabel("flip2"),
    "flip3": lambda: make_flip(3).relabel("flip3"),
    "r2": lambda: family_r2(
        np.exp(0.3j), np.exp(1.1j), np.exp(-0.7j), np.exp(2.2j)
    ).relabel("r2"),
    "r2sym": lambda: family_r2(
        np.exp(0.5j), np.exp(-1.3j), np.exp(0.5j), np.exp(-1.3j)
    ).relabel("r2sym"),
    "r3": lambda: family_r3(
        np.exp(0.4j), np.exp(-0.9j), np.exp(1.7j)
    ).relabel("r3"),
    "r3special": lambda: family_r3(
        np.exp(0.4j), 1.0 + 0.0j, np.exp(-0.4j)
    ).relabel("r3special"),
    "r4": lambda: family_r4(np.exp(0.3j)).relabel("r4"),
    "uf": lambda: uf_solution(np.diag([1.0, np.exp(0.9j)])).relabel("uf"),
    "box21": lambda: box_sum(
        make_trivial(2, 1.0), make_trivial(1, 1.0)
    ).relabel("box21"),
    "nfmix": lambda: make_normal_form(
        NormalFormSpec(((1, 1), (1, -1)))
    ).relabel("nfmix"),
    "diag3": _diag3,
    "simple3": _simple3,
}


def builtin_names() -> tuple:
    return tuple(sorted(_BUILTINS))


def builtin(name: str) -> RMatrix:
    """Construct a built-in solution by name."""
    try:
        ctor = _BUILTINS[name]
    except KeyError:
        known = ", ".join(builtin_names())
        raise DomainError(f"unknown builtin {name!r}; known: {known}")
    return ctor()


def all_builtins() -> dict:
    return {name: builtin(name) for name in builtin_names()}


def random_phases(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random((n, n)))


def random_projection_partition(d: int, dims, rng: np.random.Generator
                                ) -> tuple:
    """Orthogonal projections of the given ranks in a random basis."""
    dims = tuple(int(v) for v in dims)
    if sum(dims) != d or any(v < 1 for v in dims):
        raise DomainError(f"ranks {dims} do not partition {d}")
    cols = np.split(haar_unitary(d, rng), np.cumsum(dims)[:-1], axis=1)
    return tuple(c @ c.conj().T for c in cols)


def _random_composition(d: int, rng: np.random.Generator) -> tuple:
    dims = []
    left = d
    while left > 0:
        part = int(rng.integers(1, left + 1))
        dims.append(part)
        left -= part
    return tuple(dims)


def random_simple_spec(d: int, rng: np.random.Generator,
                       unit_offdiag: bool = False) -> SimpleRSpec:
    """Random simple solution data in a Haar-random eigenbasis.

    With ``unit_offdiag`` the off-diagonal coefficients are pinned to 1
    and the diagonal ones are drawn from {random phase, +1}, the shape
    whose level-1 commutant has a closed-form block profile.
    """
    dims = _random_composition(d, rng)
    projs = random_projection_partition(d, dims, rng)
    n = len(dims)
    phases = random_phases(n, rng)
    if unit_offdiag:
        phases = np.where(np.eye(n, dtype=bool), phases, 1.0 + 0.0j)
        for i in range(n):
            if rng.random() < 0.5:
                phases[i, i] = 1.0
    return SimpleRSpec(projs, phases)


def random_normal_form_spec(d: int, rng: np.random.Generator
                            ) -> NormalFormSpec:
    dims = _random_composition(d, rng)
    signs = rng.integers(0, 2, size=len(dims)) * 2 - 1
    return NormalFormSpec(tuple(zip(dims, (int(s) for s in signs))))


def random_diagonal(d: int, rng: np.random.Generator) -> RMatrix:
    """Random diagonal solution: rank-one coordinate blocks, free phases."""
    projs = tuple(np.diag(row).astype(complex) for row in np.eye(d))
    return make_simple(
        SimpleRSpec(projs, random_phases(d, rng)), label=f"diagonal(d={d})"
    )


def random_conjugate(r: RMatrix, rng: np.random.Generator) -> RMatrix:
    """Quasi-free conjugate of r by a fresh Haar-random unitary."""
    return quasifree_conjugate(r, haar_unitary(r.d, rng))


def random_unimodular(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def random_family2(rng: np.random.Generator, symmetric: bool = False):
    """A diagonal-family draw with its parameters.

    ``symmetric`` pins r = p and s = q, the case whose level-1
    commutant is a full 2 x 2 block.
    """
    p, q = random_unimodular(rng), random_unimodular(rng)
    r = p if symmetric else random_unimodular(rng)
    s = q if symmetric else random_unimodular(rng)
    return family_r2(p, q, r, s), {"p": p, "q": q, "r": r, "s": s}


def random_family3(rng: np.random.Generator, special: bool = False):
    """An antidiagonal-family draw; ``special`` forces q^2 = p r."""
    p, q = random_unimodular(rng), random_unimodular(rng)
    r = q * q / p if special else random_unimodular(rng)
    return family_r3(p, q, r), {"p": p, "q": q, "r": r}


def random_family4(rng: np.random.Generator):
    q = random_unimodular(rng)
    return family_r4(q), {"q": q}
