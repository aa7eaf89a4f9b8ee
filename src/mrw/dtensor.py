"""Dense order-d tensors with exact entries.

Storage is a flat row-major tuple (last index varies fastest).  Entries obey
the rule of `RatMatrix`: `ratlinalg.exact_entries` keeps ints and Fractions
and coerces or refuses the rest when the tensor is built, so every tensor is
exact and no consumer checks it again.  Both arrays give their shape as
`dims` and their flat entries as `entries`.  A hard capacity guard keeps
everything comfortably in memory.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

from .errors import DimensionError
from .ratlinalg import RatMatrix, RationalLike, as_size, check_capacity, exact_entries


class DenseTensor:
    __slots__ = ("dims", "_entries")

    def __init__(self, dims: Sequence[int], entries: Iterable[RationalLike]):
        dims = tuple(map(as_size, dims))
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise DimensionError(f"tensor dims {dims} must be an order >= 2 shape of positives")
        size = check_capacity(dims, "tensor")
        data = exact_entries(entries)
        if len(data) != size:
            raise DimensionError(f"expected {size} entries for dims {dims}, got {len(data)}")
        self.dims = dims
        self._entries = data

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def entries(self) -> tuple:
        return self._entries

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

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DenseTensor)
            and self.dims == other.dims
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.dims, self._entries))

    def __repr__(self) -> str:
        return f"DenseTensor(dims={self.dims}, {len(self._entries)} entries)"
