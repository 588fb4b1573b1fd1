"""JSON persistence for solutions.

The document shape is ``{"d": int, "entries": [[re, im], ...]}`` with
the d^2 x d^2 matrix flattened row-major.  Writers add a ``meta``
object carrying the label and measured residuals; readers take the
label from it but otherwise ignore it, and always re-verify the
matrix, so a file can never smuggle in a non-solution.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .rmatrix import DEFAULT_TOL, RMatrix, verify

__all__ = [
    "solution_to_dict",
    "solution_from_dict",
    "dump_solution",
    "load_solution",
]


def solution_to_dict(r: RMatrix) -> dict:
    flat = r.matrix.reshape(-1)
    return {
        "d": r.d,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
        "meta": {
            "label": r.label,
            "ybe_residual": float(r.ybe_residual),
            "unitarity_residual": float(r.unitarity_residual),
        },
    }


def solution_from_dict(data: dict, tol: float = DEFAULT_TOL) -> RMatrix:
    if not isinstance(data, dict) or "d" not in data or "entries" not in data:
        raise ParseError("not a solution document (need 'd' and 'entries')")
    d = data["d"]
    # bool is an int subclass, but JSON true is not a dimension.
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ParseError(f"'d' must be an integer >= 1, got {d!r}")
    try:
        pairs = data["entries"]
        flat = np.array(
            [complex(float(re), float(im)) for re, im in pairs],
            dtype=complex,
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed solution document: {exc}") from exc
    meta = data.get("meta", {})
    label = str(meta.get("label", "")) if isinstance(meta, dict) else ""
    side = d * d
    if flat.size != side * side:
        raise ParseError(
            f"entries hold {flat.size} values, expected {side * side}"
        )
    return verify(flat.reshape(side, side), d, tol=tol, label=label)


def dump_solution(path: str, r: RMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution_to_dict(r), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_solution(path: str, tol: float = DEFAULT_TOL) -> RMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return solution_from_dict(data, tol=tol)
