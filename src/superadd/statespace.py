"""State embeddings, tensor products, and the measurement-basis type.

Everything lives in real Euclidean coordinates: every inner product that
appears in the constructions of this package is real, so complex amplitudes
are never needed.  Coordinate conventions are fixed (first alphabet state at
(1, 0), row-major Kronecker ordering) so that serialized vectors are
bit-comparable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12
ORTHO_TOL = 1e-10


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Angle:
    """Overlap angle between the two alphabet states, stored in radians.

    The overlap is cos(angle), so the meaningful range is [0, pi/2]:
    0 means identical states, pi/2 means orthogonal ones.
    """

    radians: float

    def __post_init__(self):
        if not 0.0 <= self.radians <= math.pi / 2:
            raise ValueError(
                f"overlap angle must lie in [0, pi/2] rad, got {self.radians!r}"
            )

    @classmethod
    def from_degrees(cls, degrees: float) -> "Angle":
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.radians)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state represented as a real unit vector in a fixed frame."""

    coords: np.ndarray

    def __post_init__(self):
        coords = _frozen(self.coords)
        object.__setattr__(self, "coords", coords)
        if coords.ndim != 1 or coords.size == 0:
            raise ValueError("state vector needs a nonempty 1-d coordinate list")
        norm = float(np.linalg.norm(coords))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm} is off unit by more than {NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.coords.size

    def inner(self, other: "StateVector") -> float:
        return float(self.coords @ other.coords)


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Ordered orthonormal vectors acting as a rank-one von Neumann measurement.

    Holds at most dim vectors; when the count equals the dimension the
    completeness relation (projectors summing to the identity) is verified.
    """

    vectors: tuple[StateVector, ...]

    def __post_init__(self):
        vectors = tuple(self.vectors)
        object.__setattr__(self, "vectors", vectors)
        if not vectors:
            raise ValueError("measurement basis needs at least one vector")
        dim = vectors[0].dim
        if any(v.dim != dim for v in vectors):
            raise ValueError("measurement basis vectors must share one dimension")
        if len(vectors) > dim:
            raise ValueError(f"{len(vectors)} vectors cannot be orthonormal in dimension {dim}")
        rows = np.vstack([v.coords for v in vectors])
        gram = rows @ rows.T
        if np.abs(gram - np.eye(len(vectors))).max() > ORTHO_TOL:
            raise ValueError("measurement basis vectors are not orthonormal within 1e-10")
        if len(vectors) == dim:
            resolution = rows.T @ rows
            if np.linalg.norm(resolution - np.eye(dim)) > ORTHO_TOL:
                raise ValueError("complete basis fails the completeness relation")
        rows.setflags(write=False)
        object.__setattr__(self, "_matrix", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[float]]) -> "MeasurementBasis":
        return cls(tuple(StateVector(row) for row in np.asarray(rows, dtype=float)))

    @property
    def matrix(self) -> np.ndarray:
        """Basis vectors stacked as rows."""
        return self._matrix

    @property
    def dim(self) -> int:
        return self.vectors[0].dim

    def __len__(self) -> int:
        return len(self.vectors)


def embed_alphabet(gamma: Angle) -> tuple[StateVector, StateVector]:
    """Embed the two alphabet states in the plane with overlap cos(gamma).

    Convention: the first state is (1, 0) and the second is
    (cos gamma, sin gamma), so their inner product is cos(gamma) exactly.
    """
    g = gamma.radians
    u0 = StateVector(np.array([1.0, 0.0]))
    u1 = StateVector(np.array([math.cos(g), math.sin(g)]))
    return u0, u1


def tensor(x: StateVector, y: StateVector) -> StateVector:
    """Kronecker product state, row-major index order (i * dim(y) + j)."""
    return StateVector(np.kron(x.coords, y.coords))


def two_shot_alphabet(gamma: Angle) -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """The four product states seen by a decoder acting on pairs of transmissions.

    Returns (a, b, c, d) = (u0 x u1, u1 x u0, u0 x u0, u1 x u1) in 4-dim
    coordinates.  The mixed letters a, b overlap the repeated letters c, d by
    cos(gamma) and each other by cos^2(gamma).
    """
    return _two_shot_letters(*embed_alphabet(gamma))


def _two_shot_letters(first: StateVector, second: StateVector):
    """The letter order (a, b, c, d) of every two-shot alphabet:
    (first x second, second x first, first x first, second x second)."""
    return tensor(first, second), tensor(second, first), tensor(first, first), tensor(second, second)
