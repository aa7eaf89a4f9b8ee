"""Dense order-d tensors with exact or float entries.

Storage is a flat row-major tuple (last index varies fastest).  Entries may be
Fractions/ints (exact path, used by the 0/1 divisibility family) or floats
(used by the numeric fitting code).  A hard capacity guard keeps everything
comfortably in memory.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Callable, Iterable, Sequence

from .errors import DimensionError
from .ratlinalg import RatMatrix, check_capacity, is_exact


class DenseTensor:
    __slots__ = ("dims", "_values")

    def __init__(self, dims: Sequence[int], values: Iterable):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise DimensionError(f"tensor dims {dims} must be an order >= 2 shape of positives")
        size = prod(dims)
        check_capacity(size, "tensor")
        vals = tuple(values)
        if len(vals) != size:
            raise DimensionError(f"expected {size} entries for dims {dims}, got {len(vals)}")
        self.dims = dims
        self._values = vals

    @classmethod
    def from_function(cls, dims: Sequence[int], fn: Callable[[tuple[int, ...]], object]) -> "DenseTensor":
        dims = tuple(dims)
        return cls(dims, map(fn, product(*map(range, dims))))

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return len(self._values)

    @property
    def values(self) -> tuple:
        return self._values

    def flat_index(self, idx: Sequence[int]) -> int:
        if len(idx) != self.order:
            raise DimensionError(f"index {idx} has wrong order for dims {self.dims}")
        pos = 0
        for i, d in zip(idx, self.dims):
            if not (0 <= i < d):
                raise IndexError(f"index {idx} out of range for dims {self.dims}")
            pos = pos * d + i
        return pos

    def __getitem__(self, idx: Sequence[int]):
        return self._values[self.flat_index(idx)]

    def is_exact(self) -> bool:
        return is_exact(self._values)

    def iter_indices(self) -> Iterable[tuple[int, ...]]:
        return product(*map(range, self.dims))

    def mode_flattening(self, mode: int) -> RatMatrix:
        """Matrix with one row per index of `mode`, columns in lex order of the
        remaining modes (exact entries required)."""
        if not (0 <= mode < self.order):
            raise DimensionError(f"mode {mode} out of range for order {self.order}")
        if not self.is_exact():
            raise DimensionError("mode flattening requires exact (int/Fraction) entries")
        other = [range(d) for m, d in enumerate(self.dims) if m != mode]
        entries = [
            self[rest[:mode] + (i,) + rest[mode:]]
            for i in range(self.dims[mode])
            for rest in product(*other)
        ]
        return RatMatrix(self.dims[mode], prod(map(len, other)), entries)

    def to_numpy(self):
        import numpy as np

        return np.array([float(v) for v in self._values], dtype=float).reshape(self.dims)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DenseTensor)
            and self.dims == other.dims
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self.dims, self._values))

    def __repr__(self) -> str:
        return f"DenseTensor(dims={self.dims}, {len(self._values)} entries)"

