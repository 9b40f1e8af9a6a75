"""Hilbert-space bookkeeping: tensor products, bases, subsystem geometry."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import DimensionMismatchError


def basis_ket(dimension: int, index: int) -> np.ndarray:
    """Column of the computational basis: |index⟩ in a ``dimension``-d space."""
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if not 0 <= index < dimension:
        raise ValueError(f"index {index} outside [0, {dimension})")
    ket = np.zeros(dimension, dtype=complex)
    ket[index] = 1.0
    return ket


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of kets or operators, left to right.

    ``tensor(a)`` returns a copy of ``a``; ``tensor()`` is an error since the
    empty product has no defined dimension here.
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    result = np.array(factors[0], dtype=complex, copy=True)
    for factor in factors[1:]:
        result = _kron(result, np.asarray(factor, dtype=complex))
    return result


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)``, bit for bit.

    For two matrices this is the broadcast multiply ``np.kron`` itself
    performs, without the axis handling around it, which costs several
    times the multiply on 2x2 to 8x8 operators; other ranks go through
    ``np.kron``.
    """
    if a.ndim != 2 or b.ndim != 2:
        return np.kron(a, b)
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def total_dimension(dims: Sequence[int]) -> int:
    """Product of subsystem dimensions."""
    if not dims:
        raise ValueError("dims must be non-empty")
    total = 1
    for d in dims:
        if d < 1:
            raise ValueError(f"all dimensions must be >= 1, got {d}")
        total *= d
    return total


def check_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``matrix`` is a square 2-D complex array and return it."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(
            f"{name} must be square, got shape {matrix.shape}"
        )
    return matrix


def check_dims_match(matrix: np.ndarray, dims: Sequence[int]) -> None:
    """Validate that subsystem ``dims`` factorise the size of ``matrix``."""
    expected = total_dimension(dims)
    if matrix.shape[0] != expected:
        raise DimensionMismatchError(
            f"subsystem dims {tuple(dims)} imply total dimension {expected}, "
            f"but matrix has size {matrix.shape[0]}"
        )

