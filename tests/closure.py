"""The closure: a reference for the algebra the package builds.

``rmlab.commutant._star_algebra`` reads each *-algebra off the probes'
frames, or takes its double commutant.  The tests compare that with
this independent route, which multiplies out the generated algebra.
"""

import math

import numpy as np

from rmlab.commutant import _subspace
from rmlab.errors import InternalConsistencyError
from rmlab.rmatrix import require_dense


def generated_algebra(mats) -> np.ndarray:
    """l2-orthonormal columns spanning the unital algebra generated by
    ``mats``, a stack of D x D matrices; columns are row-major vectors.

    Closes span{1} under right multiplication: each round multiplies the
    frontier by every matrix in one batched matmul, projects the basis
    (kept as rows, conjugated once a round) out twice, and keeps the
    residual's row space, cut against the products' scale, as the next
    frontier.  A basis wider than D^2 means rounding noise kept the
    frontier alive (near-degenerate generators): an error.
    """
    mats = np.asarray(mats, dtype=complex)
    dim = mats.shape[-1]
    basis = frontier = np.eye(dim).reshape(1, -1) / math.sqrt(dim)
    while len(frontier):
        width = len(basis) + len(frontier) * len(mats)
        require_dense(dim * dim * width, "the generated algebra")
        prods = frontier.reshape(-1, 1, dim, dim) @ mats
        prods = prods.reshape(-1, dim * dim)
        scale = float(np.linalg.norm(prods, axis=1).max())
        adjoint = basis.conj().T
        for _ in range(2):
            prods = prods - (prods @ adjoint) @ basis
        frontier = _subspace(prods, scale, rows=True)
        basis = np.concatenate([basis, frontier])
        if len(basis) > dim * dim:
            raise InternalConsistencyError(
                f"algebra closure exceeded {dim * dim} dimensions")
    return basis.T
