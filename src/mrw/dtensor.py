"""Dense order-d tensors with exact entries: the order >= 2 subclass of
`ratlinalg.ExactArray`, which holds the shape `dims`, the flat row-major
`entries`, the entry rule and the capacity guard that `RatMatrix` shares.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

from .errors import DimensionError
from .ratlinalg import ExactArray, RatMatrix, RationalLike


class DenseTensor(ExactArray):
    __slots__ = ()

    def __init__(self, dims: Sequence[int], entries: Iterable[RationalLike]):
        dims = tuple(dims)
        if len(dims) < 2:
            raise DimensionError(f"tensor dims {dims} must have order >= 2")
        super().__init__(dims, entries, "tensor")

    @property
    def order(self) -> int:
        return len(self.dims)

    def mode_flattening(self, mode: int) -> RatMatrix:
        """Matrix with one row per index of `mode`, columns in lex order of the
        remaining modes."""
        if not (0 <= mode < self.order):
            raise DimensionError(f"mode {mode} out of range for order {self.order}")
        # entry (..., i, ...) sits at (outer * size + i) * inner + k, where
        # outer indexes the modes before `mode` and k those after it
        size, outer, inner = self.dims[mode], prod(self.dims[:mode]), prod(self.dims[mode + 1 :])
        entries = []
        for i in range(size):
            for o in range(outer):
                start = (o * size + i) * inner
                entries.extend(self._entries[start : start + inner])
        return RatMatrix(size, outer * inner, entries)

    def __repr__(self) -> str:
        return f"DenseTensor(dims={self.dims}, {len(self._entries)} entries)"
