"""Dense complex matrix value type.

CMatrix is the one carrier for every matrix operation in the package. It is
immutable after construction: the backing numpy array is set read-only, and
all operations return fresh instances.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class CMatrix:
    """An m x n complex matrix with finite entries, stored row-major."""

    __slots__ = ("_data",)

    def __init__(self, rows: int, cols: int, entries: Sequence[complex]):
        if not isinstance(rows, int) or not isinstance(cols, int):
            raise ValueError("rows and cols must be integers")
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive")
        arr = np.asarray(list(entries), dtype=np.complex128)
        if arr.ndim != 1 or arr.size != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries, got {arr.size}"
            )
        self._init_from(arr.reshape(rows, cols))

    def _init_from(self, arr: np.ndarray) -> None:
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "_data", arr)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[complex]]) -> "CMatrix":
        arr = np.asarray([list(r) for r in rows], dtype=np.complex128)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("from_rows needs a non-empty 2-D structure")
        return cls.from_array(arr)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "CMatrix":
        arr = np.array(arr, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("array must be 2-D and non-empty")
        out = cls.__new__(cls)
        out._init_from(arr)
        return out

    @property
    def data(self) -> np.ndarray:
        """Read-only (rows, cols) complex ndarray."""
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self) -> str:
        return f"CMatrix({self.rows}x{self.cols})"
