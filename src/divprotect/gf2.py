"""Binary matrices over GF(2) for decodability checks."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels


@dataclass(frozen=True)
class Gf2Matrix:
    """Immutable binary matrix; rows are received combinations."""

    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "Gf2Matrix":
        return cls(tuple(tuple(int(x) & 1 for x in r) for r in rows))

    @property
    def shape(self) -> tuple[int, int]:
        if not self.rows:
            return (0, 0)
        return (len(self.rows), len(self.rows[0]))

    def to_array(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, 0), dtype=np.uint8)
        return np.array(self.rows, dtype=np.uint8)

    def rank(self) -> int:
        return kernels.gf2_rank(self.rows)

    def full_column_rank(self) -> bool:
        return self.rank() == self.shape[1]
