"""Columnar sweep tables over a grid of overlap angles (degrees)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Named real columns over a shared, strictly increasing angle grid.

    provenance is a one-line configuration echo (grid, tolerances, seed,
    version) that serializers emit as a leading comment.
    """

    gamma_deg: np.ndarray
    columns: dict[str, np.ndarray]
    provenance: str = ""

    def __post_init__(self):
        grid = np.asarray(self.gamma_deg, dtype=float)
        grid.setflags(write=False)
        object.__setattr__(self, "gamma_deg", grid)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("gamma grid must be a nonempty 1-d array")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("gamma grid must be strictly increasing")
        cols = {}
        for name, values in self.columns.items():
            arr = np.asarray(values, dtype=float)
            if arr.shape != grid.shape:
                raise ValueError(f"column {name!r} has length {arr.size}, grid has {grid.size}")
            arr.setflags(write=False)
            cols[name] = arr
        object.__setattr__(self, "columns", cols)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def __len__(self) -> int:
        return self.gamma_deg.size

    def row(self, i: int) -> tuple[float, ...]:
        return (float(self.gamma_deg[i]),) + tuple(float(col[i]) for col in self.columns.values())
