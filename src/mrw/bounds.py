"""Certified brackets on monotone (nonnegative) rank.

Lower bounds come from two sound sources: the exact linear rank, and the
box-cover number of the support (every nonnegative rank-1 term has
box-shaped support and terms cannot cancel, so any r-term nonnegative
decomposition yields r support-contained boxes covering the support).  The
cover number itself is solved exactly when the support is small.  One
closure enumeration finds the maximal boxes of matrices and tensors alike
(for a matrix they are the formal concepts of its support).  A box system
(those boxes as bitmasks over the cells, with per-cell covering lists and a
fixed pivot order) is built once per pattern, and one iterative-deepening
search over it runs from the best certified bound up to the greedy cover.
The system has two constructions, chosen by the number of maximal boxes: a
scalar one (each mask one AND over the modes of the ORed cell masks of its
values), and for matrix patterns with at least _WORD_MIN_BOXES boxes one in
numpy (membership arrays of the row closures, one uint64 word per box),
which is faster from about 20 boxes on; below that numpy's per-call
overhead costs more than it saves.  The certified bounds are the counting
bound ceil(|support| / max-box-size) and, for matrices, the crown bound: an
induced copy of the m x m off-diagonal pattern (the crown) needs kappa(m)
boxes, the least k with C(k, floor(k/2)) >= m (de Caen, Gregory and Pullman
1981, by Sperner's theorem).  Inside a matrix search the greedy crown also
refutes nodes: an uncovered set holding the crossing cells of
C(d, floor(d/2)) + 1 of its zeros needs more than d boxes.  Past the cap we
fall back to these bounds, never to a heuristic.

Upper bounds are witnesses: the dimension bound, the singleton-support
factorization, or a factorization from `nmf_search` (exact when r columns
or rows of the matrix generate a cone holding the rest, or when r = rank = 3
and a triangle nests between the columns and the nonnegative orthant;
numeric otherwise), each labeled with its provenance.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product
from math import comb, prod
from operator import itemgetter
from typing import Callable, Collection, Iterable

import numpy as np

from .errors import CapacityError, ValidationError
from .numkit import SearchBudget, nmf_search, verify_nonneg_factorization
from .ratlinalg import ExactArray, RatMatrix, rank_exact

DEFAULT_NODE_BUDGET = 50_000
EXACT_CELL_CAP = 64
# the batched prune holds masks over the cells in uint64 words
assert EXACT_CELL_CAP <= 64
# a node with fewer children prunes them one at a time: for so few, numpy's
# per-call overhead costs more than the scalar scans it saves
_BATCH_MIN_CHILDREN = 8
# a matrix pattern with at least this many maximal boxes builds its box
# system in numpy (`_WordBoxSystem`): measured on random matrix patterns,
# box_cover_exact took 1.5x the scalar time on the word path at <= 12 boxes,
# 1.01-1.07x at 13-16, 0.98-1.01x at 17-20 and 0.87-0.96x from 21 on
_WORD_MIN_BOXES = 20
_CLOSURE_SIDE_CAP = 16

Box = tuple[tuple[int, ...], ...]
Crown = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SupportPattern:
    """Set of nonzero cells of a matrix or tensor."""

    dims: tuple[int, ...]
    cells: frozenset[tuple[int, ...]]

    def __post_init__(self):
        for cell in self.cells:
            if len(cell) != len(self.dims) or any(
                not (0 <= i < d) for i, d in zip(cell, self.dims)
            ):
                raise ValidationError(f"cell {cell} outside dims {self.dims}")

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return len(self.cells)


def support_pattern(m: ExactArray) -> SupportPattern:
    """Exact nonzero pattern of a matrix or tensor: the row-major indices of
    its nonzero entries."""
    # the cells come from the array's own index ranges, so the range check
    # of __post_init__ is skipped: the pattern is built as the frozen
    # dataclass's own __init__ would build it, less that call
    pattern = object.__new__(SupportPattern)
    object.__setattr__(pattern, "dims", m.dims)
    object.__setattr__(pattern, "cells", frozenset(compress(product(*map(range, m.dims)), m.entries)))
    return pattern


@dataclass(frozen=True)
class BoxCoverResult:
    """Bracket on the minimum number of support-contained boxes covering the
    support.  `lower` is always certified; `exact` means lower == upper ==
    optimum with `boxes` an optimal cover.  Otherwise `boxes`, when not None,
    is a cover of `upper` boxes: the witness for the upper bound.  `nodes`
    counts the search nodes expanded over all deepening rounds (0 when no
    search ran).  `crown`, when not None, is an induced crown whose cover
    number kappa(len(crown)) beat the counting bound (or 1 where that is not
    computable): pairs (r_i, c_i) with a zero at (r_i, c_j) exactly when
    i == j."""

    lower: int
    upper: int
    exact: bool
    boxes: tuple[Box, ...] | None
    note: str
    nodes: int = 0
    crown: Crown | None = None


def _closures(lines: Iterable[int]) -> set[int]:
    """Every nonzero intersection of some of the bitmasks `lines`, built in
    one pass: each line joins the family alone and ANDed with every member."""
    found: set[int] = set()
    for line in set(lines):
        found |= {line & c for c in found}
        found.add(line)
    found.discard(0)
    return found


def _slices(
    cells: Collection[tuple[int, ...]], lead: int, rest_of: Callable
) -> tuple[dict, list[tuple[int, int]]]:
    """Split cells by their value in mode `lead`: the bit of each distinct
    rest (`rest_of` of a cell; bit k for the k-th smallest, in that order),
    and each value's slice, the bitmask of the rests it holds, as (value,
    slice) pairs by value."""
    bit = {r: 1 << k for k, r in enumerate(sorted(set(map(rest_of, cells))))}
    slices: dict[int, int] = {}
    for c in cells:
        slices[c[lead]] = slices.get(c[lead], 0) | bit[rest_of(c)]
    return bit, sorted(slices.items())


def _closure_boxes(ordered: list[tuple[int, int]], bit: dict, closures: Iterable[int]) -> list[Box]:
    """The box (values of the slices holding it, the rests in it) of each
    closure of the slices `ordered`, whose rests have the bits `bit`."""
    values = list(bit.items())
    return [
        (tuple([i for i, s in ordered if s & c == c]), tuple([v for v, b in values if c & b]))
        for c in closures
    ]


def _maximal_boxes(cells: Collection[tuple[int, ...]]) -> set[Box]:
    """All maximal boxes inside a nonempty set of cells of one order.

    Leading modes with one value are peeled off; the next mode splits the
    cells into slices, each a bitmask over the distinct rests.  A maximal box
    R x B has B maximal inside the closure of the slices in R, and R is every
    slice holding B, so recursing into each closure finds every maximal box
    (some more than once) and nothing else.  When the rests have at most one
    mode left, the closure is itself a box, so B is the closure (its rests'
    values) and no recursion runs.  Each level consumes a mode with two or
    more values, so the recursion is no deeper than there are such modes (at
    most 20 under the 2^20 entry guard).
    """
    first = next(iter(cells))
    lead = next((m for m in range(len(first)) if any(c[m] != first[m] for c in cells)), None)
    if lead is None:
        return {tuple((v,) for v in first)}
    prefix = tuple((v,) for v in first[:lead])
    if lead == len(first) - 1:
        # only the last mode varies: the cells are one box
        return {prefix + (tuple(sorted({c[lead] for c in cells})),)}
    last = lead == len(first) - 2
    # a rest is the cell past the lead: its last value when one mode is left
    rest_of = itemgetter(lead + 1 if last else slice(lead + 1, None))
    bit, ordered = _slices(cells, lead, rest_of)
    closures = _closures(s for _, s in ordered)
    if last:
        return {prefix + box for box in _closure_boxes(ordered, bit, closures)}
    boxes: set[Box] = set()
    for closure in closures:
        for rest_box in _maximal_boxes([r for r, b in bit.items() if closure & b]):
            mask = sum(bit[r] for r in product(*rest_box))
            rows = tuple([i for i, s in ordered if s & mask == mask])
            boxes.add(prefix + (rows,) + rest_box)
    return boxes


def enumerate_maximal_boxes(pattern: SupportPattern) -> list[Box]:
    """The sorted maximal support boxes of a pattern of at most
    EXACT_CELL_CAP cells."""
    if pattern.size > EXACT_CELL_CAP:
        raise CapacityError(f"support of {pattern.size} cells exceeds exact-search cap {EXACT_CELL_CAP}")
    return sorted(_maximal_boxes(pattern.cells)) if pattern.cells else []


def _max_box_size_2d(pattern: SupportPattern) -> int | None:
    """Exact maximum cell count of any support box of a matrix pattern.

    Groups the rows by their bitmask of nonzero cells (the columns when the
    rows have more than _CLOSURE_SIDE_CAP distinct masks; None when both
    sides do).  For a set S of the g distinct masks, (all lines whose mask is
    in S, intersection of S) is a support box, and the largest box arises
    from the set of its lines' masks, so max over S of lines(S) * |inter(S)|
    is exact.  Each cross line (a column when the lines are rows) gets the
    bitmask of the groups holding it; counting those masks into a 2^g table
    and summing it over supersets, one pass per group, gives |inter(S)| for
    every S at once, and lines(S) is built by doubling.
    """
    for transposed in (False, True):
        masks: dict[int, int] = {}
        for cell in pattern.cells:
            line, other = (cell[1], cell[0]) if transposed else cell
            masks[line] = masks.get(line, 0) | (1 << other)
        groups: dict[int, int] = {}
        for mask in masks.values():
            groups[mask] = groups.get(mask, 0) + 1
        if len(groups) <= _CLOSURE_SIDE_CAP:
            break
    else:
        return None
    holders = [0] * pattern.dims[0 if transposed else 1]
    lines = np.zeros(1, dtype=np.int64)
    for g, (mask, count) in enumerate(groups.items()):
        while mask:
            low = mask & -mask
            holders[low.bit_length() - 1] |= 1 << g
            mask ^= low
        lines = np.concatenate((lines, lines + count))
    inter = np.bincount(holders, minlength=len(lines))
    for g in range(len(groups)):
        # fold the sets holding group g onto the sets without it
        halves = inter.reshape(-1, 2, 1 << g)
        halves[:, 0] += halves[:, 1]
    best = int((inter * lines).max())
    return best if best > 0 else None


def _counting_bound(cells: int, maxbox: int) -> int:
    """ceil(cells / maxbox): no fewer boxes of at most maxbox cells cover them."""
    return -(-cells // maxbox)


def crown_cover_number(m: int) -> int:
    """kappa(m), the box-cover number of the m x m off-diagonal pattern: the
    least k with C(k, floor(k/2)) >= m.  Boxes A_t x B_t (t < k) cover it
    only if the sets {t : i in A_t} form an antichain, so Sperner's theorem
    bounds m; giving each row its own floor(k/2)-subset attains it."""
    k = 0
    while comb(k, k // 2) < m:
        k += 1
    return k


def crown_lower_bound(m: RatMatrix) -> int:
    """kappa(m.rows), certified by m itself: m must be square and zero
    exactly on its diagonal (n zeros, none of them off it), which is checked
    here.  Cover number cannot grow under restriction, so kappa bounds the
    cover number, and the monotone rank, of any matrix that holds m as a
    submatrix."""
    n = m.rows
    if m.cols != n or m.entries.count(0) != n or any(m.entries[:: n + 1]):
        raise ValidationError("not a crown: the matrix must be square and zero exactly on its diagonal")
    return crown_cover_number(n)


def _row_zeros(pattern: SupportPattern) -> list[int]:
    """Bitmasks of the zero cells of each row of a matrix pattern."""
    nrows, ncols = pattern.dims
    row_zeros = [(1 << ncols) - 1] * nrows
    for i, j in pattern.cells:
        row_zeros[i] ^= 1 << j
    return row_zeros


def _induced_crown(row_zeros: list[int], ncols: int) -> Crown:
    """A greedy induced crown of a matrix pattern, given its row zero masks.

    Takes the zero cells in order of (zeros in the row + zeros in the
    column, row, column) and keeps a cell when no zero lies between it and
    the cells kept so far, i.e. both cells of each crossing pair are in the
    support (which also keeps the rows and columns distinct).
    """
    col_zeros = [0] * ncols
    zeros = []  # row-major, so a stable sort by count keeps ties by (row, column)
    for i, mask in enumerate(row_zeros):
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            col_zeros[j] |= 1 << i
            zeros.append((i, j))
            mask ^= low
    row_count = [mask.bit_count() for mask in row_zeros]
    col_count = [mask.bit_count() for mask in col_zeros]
    zeros.sort(key=lambda cell: row_count[cell[0]] + col_count[cell[1]])
    kept_rows = kept_cols = 0
    crown = []
    for i, j in zeros:
        if not (row_zeros[i] & kept_cols or col_zeros[j] & kept_rows):
            kept_rows |= 1 << i
            kept_cols |= 1 << j
            crown.append((i, j))
    return tuple(sorted(crown))


def _crown_above(pattern: SupportPattern, bound: int) -> Crown | None:
    """The greedy induced crown of a matrix pattern if its cover number beats
    `bound`; None otherwise and for tensors."""
    if pattern.order != 2:
        return None
    # kappa(m) > bound exactly when m > C(bound, floor(bound / 2)) = most.  A
    # crown of m rows has m(m - 1) support cells and m zeros, and each of its
    # rows has a zero and m - 1 >= most nonzeros.
    most = comb(bound, bound // 2)
    nrows, ncols = pattern.dims
    if min(nrows, ncols) <= most or pattern.size < most * (most + 1) or nrows * ncols - pattern.size <= most:
        return None
    row_zeros = _row_zeros(pattern)
    if sum(0 < mask.bit_count() <= ncols - most for mask in row_zeros) <= most:
        return None
    crown = _induced_crown(row_zeros, ncols)
    return crown if len(crown) > most else None


class _BudgetExhausted(Exception):
    pass


def _some_box_covers(by_size: list[tuple[int, int]], uncovered: int, need: int) -> bool:
    """True iff some mask covers `need` cells of `uncovered`; `by_size` holds
    (popcount, mask) pairs, largest first, so the scan stops at the first box
    that reaches `need` or the first too small to."""
    for size, mask in by_size:
        if size < need:
            return False
        if (mask & uncovered).bit_count() >= need:
            return True
    return False


class _BoxSystem:
    """A pattern's maximal boxes as bitmasks over its sorted cells.

    Built once per pattern, it holds what the search reads at every node:
    the box masks (`masks`, and as uint64 `words`), the boxes covering each
    cell and their `counts`, the fixed pivot order (cells by number of
    covering boxes, then index: those counts never change during the search)
    and the (popcount, mask) pairs, largest first (`by_size`, and their masks
    as `size_words`).  `box(i)` is the i-th box in sorted order.

    There are two constructions of one system, and `_box_system` chooses.
    This one is scalar and serves tensors and matrix patterns with fewer than
    _WORD_MIN_BOXES maximal boxes: a box's mask is one AND over the modes of
    the OR of its values' slabs, the slab of value v in mode m being the mask
    of the cells holding v there, and the covering lists, the pivot order
    and the word arrays are read off the masks when a search first asks for
    them.  `_WordBoxSystem` builds the same system in numpy for the larger
    matrix patterns; below the cut (a measured crossover of about 20 boxes)
    numpy's per-call overhead makes it the slower one.
    """

    def __init__(self, boxes: list[Box], cells: list[tuple[int, ...]]):
        self.boxes = boxes
        self.cells = cells
        self.full = full = (1 << len(cells)) - 1
        # a mode with one value holds every cell of every box
        live = [(m, slab) for m, slab in enumerate(self.slabs) if len(slab) > 1]
        masks = self.masks = []
        for box in boxes:
            mask = full
            for m, slab in live:
                term = 0
                for v in box[m]:
                    term |= slab[v]
                mask &= term
            masks.append(mask)
        self.by_size = sorted(((mask.bit_count(), mask) for mask in masks), reverse=True)
        self.counting = _counting_bound(len(cells), self.by_size[0][0])

    def box(self, i: int) -> Box:
        return self.boxes[i]

    @cached_property
    def slabs(self) -> list[dict[int, int]]:
        """Per mode, the mask of the cells holding each value."""
        slabs = []
        for values in zip(*self.cells):
            slab: dict[int, int] = {}
            for ci, v in enumerate(values):
                slab[v] = slab.get(v, 0) | 1 << ci
            slabs.append(slab)
        return slabs

    @cached_property
    def covering(self) -> list[list[int]]:
        """The boxes covering each cell, in ascending order."""
        covering: list[list[int]] = [[] for _ in range(self.full.bit_length())]
        for bi, mask in enumerate(self.masks):
            while mask:
                low = mask & -mask
                covering[low.bit_length() - 1].append(bi)
                mask ^= low
        return covering

    @cached_property
    def counts(self) -> list[int]:
        return [len(boxes) for boxes in self.covering]

    def covering_at(self, ci: int) -> np.ndarray:
        """The boxes covering cell ci, ascending, as an index array."""
        return np.array(self.covering[ci], dtype=np.intp)

    @cached_property
    def pivot_order(self) -> list[int]:
        # sorted() is stable, so equal counts stay in index order
        return sorted(range(len(self.counts)), key=self.counts.__getitem__)

    @cached_property
    def words(self) -> np.ndarray:
        return np.array(self.masks, dtype=np.uint64)

    @cached_property
    def size_words(self) -> np.ndarray:
        return np.array([mask for _, mask in self.by_size], dtype=np.uint64)

    def greedy_cover(self) -> tuple[Box, ...]:
        """Greedy set cover: largest marginal gain, ties by box index."""
        masks, uncovered = self.masks, self.full
        picked: list[Box] = []
        while uncovered:
            gains = [(mask & uncovered).bit_count() for mask in masks]
            best = gains.index(max(gains))  # the first of the largest
            if not gains[best]:
                raise ValidationError("boxes do not cover the support")
            picked.append(self.boxes[best])
            uncovered &= ~masks[best]
        return tuple(picked)

    def _certificates(self, crown: Crown, deepest: int) -> dict[int, list[int]]:
        """Crown certificates: for each depth 2 <= d <= `deepest` with
        C(d, floor(d/2)) < len(crown), the masks of the crossing cells
        (r_i, c_j), i != j, of every C(d, floor(d/2)) + 1 zeros of `crown`.

        An uncovered set U holding one of them needs more than d boxes.  Let
        A_i (B_i) be the boxes of a d-box cover of U that hold row r_i
        (column c_i).  A box is a product inside the support, so A_i and B_i
        are disjoint ((r_i, c_i) is a zero), and A_i meets B_j for i != j (a
        box covers (r_i, c_j)).  By the set-pair inequality of Bollobás (as
        used by de Caen, Gregory and Pullman) there are at most
        C(d, floor(d/2)) such pairs.  At d = 1 the counting prune is exact, so
        it already refutes every set a certificate would.  The crossing cells
        of a set S of zeros are the cells in both the rows and the columns of
        S, so each set's masks are grown from its prefix, one zero at a time.
        """
        sizes = {comb(d, d // 2) + 1: d for d in range(2, deepest + 1) if comb(d, d // 2) < len(crown)}
        certs: dict[int, list[int]] = {}
        if not sizes:
            return certs
        rows, cols = self.slabs
        lines = [(rows[r], cols[c]) for r, c in crown]
        # the sets of one size as (index past their last zero, rows, columns)
        level = [(i + 1, r, c) for i, (r, c) in enumerate(lines)]
        for size in range(2, max(sizes) + 1):
            level = [(j + 1, r | lines[j][0], c | lines[j][1]) for nxt, r, c in level for j in range(nxt, len(lines))]
            if size in sizes:
                certs[sizes[size]] = [r & c for _, r, c in level]
        return certs

    def deepen(
        self, start: int, upper: int, node_budget: int, crown: Crown | None = None
    ) -> tuple[int, tuple[Box, ...] | None, int]:
        """Iterative deepening for a cover of fewer than `upper` boxes.

        Tries depths from `start`, a certified lower bound no smaller than the
        counting bound, upwards with a depth-first search that memoizes
        refuted uncovered sets, refutes an uncovered set U at depth d when no
        box covers ceil(|U| / d) of its cells or when U holds one of the
        certificates of `crown` (an induced crown of a matrix pattern, see
        `_certificates`) for d, and branches on the first uncovered cell in
        pivot order.  Returns (depth, cover, nodes): the first depth with a
        cover and that cover; `upper` and None when every smaller depth is
        refuted; or the depth being refuted and None when `node_budget` nodes
        were expanded first.  Both refutations are sound and the order is
        fixed, so the certificates change `nodes` but never the cover found.

        An expanded node orders its children (fewest uncovered cells first,
        ties by box index).  When its pivot has at least _BATCH_MIN_CHILDREN
        covering boxes (one child each), it computes both refutations of all
        children in one numpy pass over uint64 masks; otherwise each child
        runs the scalar `_some_box_covers` and certificate scan.  Either way
        the children are then visited one at a time, so the nodes, their
        order and the memo are the same on both paths.
        """
        if start >= upper:
            return start, None, 0
        masks, pivot_order, by_size = self.masks, self.pivot_order, self.by_size
        certs = self._certificates(crown, upper - 2) if crown is not None else {}
        wide = [count >= _BATCH_MIN_CHILDREN for count in self.counts]
        if any(wide):
            words, big_words = self.words, self.size_words
            pivot_words: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # pivot -> its boxes, their words inverted
            neg_sizes = [-size for size, _ in by_size]  # ascending, for bisect
            cert_words = {d: np.array(c, dtype=np.uint64) for d, c in certs.items()}
        memo: dict[int, int] = {}
        nodes = 0

        def expand(uncovered: int, depth: int, chosen: list[int]) -> bool:
            """Visit the children of a counted node that passed its prune."""
            nonlocal nodes
            pivot = next(ci for ci in pivot_order if uncovered >> ci & 1)
            d = depth - 1
            cert = certs.get(d, ())
            passes = None
            if wide[pivot]:
                if pivot not in pivot_words:
                    ix = self.covering_at(pivot)
                    pivot_words[pivot] = ix, ~words[ix]
                cov_ix, outside = pivot_words[pivot]
                left = np.uint64(uncovered) & outside
                sizes = np.bitwise_count(left)
                order = sizes.argsort(kind="stable")
                left, sizes = left[order], sizes[order]
                cand = cov_ix[order].tolist()
                children = left.tolist()
                if d > 0:
                    need = (sizes + (d - 1)) // d  # ceil; stays in uint8 as both are <= 64
                    k = bisect_right(neg_sizes, -int(need[0]))  # boxes that can meet some need
                    if k:
                        counts = np.bitwise_count(left[:, None] & big_words[None, :k])
                        ok = counts.max(1) >= need
                        if cert:
                            held = cert_words[d][None, :]
                            ok &= ((left[:, None] & held) != held).all(1)
                        passes = ok.tolist()
                    else:
                        passes = [False] * len(cand)
            else:
                # covering lists ascend, so the stable sort breaks ties by box index
                cand = sorted(self.covering[pivot], key=lambda bi: -(masks[bi] & uncovered).bit_count())
                children = [uncovered & ~masks[bi] for bi in cand]
            for i, (bi, child) in enumerate(zip(cand, children)):
                if child == 0:
                    chosen.append(bi)
                    return True
                if d == 0 or memo.get(child, 0) >= d:
                    continue
                if nodes >= node_budget:
                    raise _BudgetExhausted
                nodes += 1
                if passes is not None:
                    ok = passes[i]
                else:
                    ok = _some_box_covers(by_size, child, -(-child.bit_count() // d))
                    ok = ok and not any(child & c == c for c in cert)
                if ok:
                    chosen.append(bi)
                    if expand(child, d, chosen):
                        return True
                    chosen.pop()
                # any stored depth is below `d` (checked above); children store strict subsets
                memo[child] = d
            return False

        depth = start
        try:
            while depth < upper:
                # the root is never memoized and, as depth >= the counting
                # bound, always passes its prune
                if nodes >= node_budget:
                    raise _BudgetExhausted
                nodes += 1
                chosen: list[int] = []
                if expand(self.full, depth, chosen):
                    return depth, tuple(map(self.box, chosen)), nodes
                depth += 1
        except _BudgetExhausted:
            pass
        return depth, None, nodes


class _WordBoxSystem(_BoxSystem):
    """The box system of a matrix pattern, built in numpy from the closures
    of its rows' slices (bitmasks over the distinct columns, as `_slices`
    gives them).

    Closure c is the box (rows whose slice holds c, columns in c).  Row and
    column membership, the order sorted() gives the boxes and the cell
    incidence are boolean arrays; each box's cells are one uint64 word
    (EXACT_CELL_CAP <= 64), the pivot order comes from the incidence's
    column sums, and a cell's covering boxes are read off its column when a
    search first branches on it.  Box tuples are built only for the boxes a
    cover reports.
    """

    def __init__(self, cells: list[tuple[int, int]], bit: dict, ordered: list[tuple[int, int]], closures: set[int]):
        self.cells = cells
        self.full = (1 << len(cells)) - 1
        self.row_values, self.col_values = [i for i, _ in ordered], list(bit)
        slices = np.array([s for _, s in ordered], dtype=np.uint64)
        shifts = np.arange(len(bit), dtype=np.uint64)
        closure = np.array(list(closures), dtype=np.uint64)[:, None]
        rows_in = slices & closure == closure
        # a box's rows determine it, so the boxes sort as their row tuples
        # do: lexsort the rows' positions, 1-based, ascending and padded
        # with 0, so a tuple sorts before any it is a prefix of
        width = len(ordered) + 1
        keys = np.sort(np.where(rows_in, np.arange(1, width), width), axis=1) % width
        order = np.lexsort(keys.T[::-1])
        self.rows_in, self.cols_in = rows_in[order], (closure[order] >> shifts & 1).astype(bool)
        # the (row, column) positions of the cells, in row-major order
        cell_row, cell_col = np.nonzero(slices[:, None] >> shifts & 1)
        self.incidence = self.rows_in[:, cell_row] & self.cols_in[:, cell_col]
        cell_bits = np.uint64(1) << np.arange(len(cells), dtype=np.uint64)
        self.words = words = self.incidence.astype(np.uint64) @ cell_bits
        self.masks = words.tolist()
        sizes = np.bitwise_count(words)
        largest = np.lexsort((words, sizes))[::-1]  # the masks are distinct, so no tie
        self.size_words = words[largest]
        self.by_size = list(zip(sizes[largest].tolist(), self.size_words.tolist()))
        self.counting = _counting_bound(len(cells), self.by_size[0][0])

    def box(self, i: int) -> Box:
        rows, cols = self.rows_in[i].tolist(), self.cols_in[i].tolist()
        return tuple(compress(self.row_values, rows)), tuple(compress(self.col_values, cols))

    @cached_property
    def covering(self) -> list[list[int]]:
        """The boxes covering each cell, in ascending order."""
        _, box_ix = np.nonzero(self.incidence.T)
        flat, ends = box_ix.tolist(), np.cumsum(self.counts).tolist()
        return [flat[a:b] for a, b in zip([0] + ends, ends)]

    @cached_property
    def counts(self) -> list[int]:
        return self.incidence.sum(axis=0).tolist()

    def covering_at(self, ci: int) -> np.ndarray:
        return np.flatnonzero(self.incidence[:, ci])

    def greedy_cover(self) -> tuple[Box, ...]:
        """Greedy set cover: largest marginal gain, ties by box index."""
        words, uncovered = self.words, np.uint64(self.full)
        picked: list[Box] = []
        while uncovered:
            gains = np.bitwise_count(words & uncovered)
            best = int(gains.argmax())  # the first of the largest
            if not gains[best]:
                raise ValidationError("boxes do not cover the support")
            picked.append(self.box(best))
            uncovered &= ~words[best]
        return tuple(picked)


def _box_system(pattern: SupportPattern) -> _BoxSystem:
    """The box system of a nonempty pattern of at most EXACT_CELL_CAP cells.

    A matrix's maximal boxes are the boxes of the closures of its rows'
    slices (as `_maximal_boxes` finds them), computed once here: from
    _WORD_MIN_BOXES closures on, `_WordBoxSystem` builds the system from
    them, and below that the scalar `_BoxSystem` does, as it does for
    tensors.
    """
    cells = sorted(pattern.cells)
    if pattern.order != 2:
        return _BoxSystem(enumerate_maximal_boxes(pattern), cells)
    bit, ordered = _slices(cells, 0, itemgetter(1))
    closures = _closures(s for _, s in ordered)
    if len(closures) >= _WORD_MIN_BOXES:
        return _WordBoxSystem(cells, bit, ordered, closures)
    return _BoxSystem(sorted(_closure_boxes(ordered, bit, closures)), cells)


def box_cover_exact(pattern: SupportPattern, node_budget: int = DEFAULT_NODE_BUDGET) -> BoxCoverResult:
    """Bracket (and, if feasible, solve) the minimum box cover of a support.

    Builds the pattern's box system once and takes its greedy cover as the
    upper bound.  When the counting bound falls short of it, a greedy induced
    crown may raise the lower bound; the search runs from the higher of the
    two up to the greedy size, and `node_budget` caps the nodes it expands.
    Patterns beyond EXACT_CELL_CAP cells fall back to the certified counting
    or crown lower bound (or 1) and the singleton upper bound.
    """
    n = pattern.size
    if n == 0:
        return BoxCoverResult(lower=0, upper=0, exact=True, boxes=(), note="empty support")
    if n > EXACT_CELL_CAP:
        # certified bounds only; no box materialization at this size
        maxbox = _max_box_size_2d(pattern) if pattern.order == 2 else None
        lower = 1 if maxbox is None else _counting_bound(n, maxbox)
        crown = _crown_above(pattern, lower)
        if crown is not None:
            lower = crown_cover_number(len(crown))
            note = f"support of {n} cells exceeds exact-search cap {EXACT_CELL_CAP}; crown lower bound"
        elif maxbox is None:
            note = "max box size not computable; singleton cover upper bound"
        else:
            note = f"support of {n} cells exceeds exact-search cap {EXACT_CELL_CAP}; counting lower bound"
        return BoxCoverResult(lower=lower, upper=n, exact=lower == n, boxes=None, note=note, crown=crown)
    system = _box_system(pattern)
    greedy = system.greedy_cover()
    crown = found = None
    if system.counting < len(greedy):
        # the crown is only worth finding when a search would run.  The
        # finder returns one of more than C(b, floor(b/2)) rows for
        # b = min(counting, 3): at b = counting, one whose kappa beats the
        # counting bound; at b = 3, one of 4 or more rows, whose certificates
        # refute nodes of depth 2 and up.  (One of 3 rows certifies depth 2
        # only: over the 246 searches of `mrw verify --scale full`, such
        # crowns at a counting bound of 3 or more saved no node and cost more
        # to find than those searches took.)
        found = _crown_above(pattern, min(system.counting, 3))
        if found is not None and len(found) > comb(system.counting, system.counting // 2):
            crown = found
    start = system.counting if crown is None else crown_cover_number(len(crown))
    depth, cover, nodes = system.deepen(start, len(greedy), node_budget, found)
    if cover is not None:
        note = "optimal cover found"
    elif depth == len(greedy):
        cover = greedy
        if depth == system.counting:
            note = "counting matches greedy"
        elif depth == start:
            note = "crown matches greedy"
        else:
            note = "greedy proven optimal"
    else:
        cover, note = greedy, f"node budget {node_budget} exhausted while refuting size {depth}"
    return BoxCoverResult(
        lower=depth,
        upper=len(cover),
        exact=depth == len(cover),
        boxes=cover,
        note=note,
        nodes=nodes,
        crown=crown,
    )


# ---------------------------------------------------------------------------
# monotone-rank report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MrBoundReport:
    lower: int
    lower_witness: str  # "rank" | "boxcover" | "crown"
    upper: int
    upper_status: str  # "exact" | "heuristic-certified" | "trivial"
    cover: BoxCoverResult
    rank_lower: int
    factorization: object = None

    def __post_init__(self):
        if self.upper < self.lower:
            raise ValidationError("upper bound below lower bound")


def rank_lower_bound(m) -> int:
    """Exact-rank component of the mr lower bound (max mode-flattening rank
    for tensors: any rank-r nonnegative decomposition flattens to a rank-<=r
    matrix decomposition).  A mode of size 1 flattens to one row, of rank
    at most that of any other mode's flattening, so it is skipped when
    another mode exists."""
    if isinstance(m, RatMatrix):
        return rank_exact(m)
    modes = [mode for mode, size in enumerate(m.dims) if size > 1] or [0]
    return max(rank_exact(m.mode_flattening(mode)) for mode in modes)


def mr_bounds(m, budget_factor: float = 1.0) -> MrBoundReport:
    """Bracket the monotone rank of a nonnegative matrix or exact tensor.

    lower = max(exact rank, certified box-cover lower bound), whose witness
    is "crown" when the cover's lower bound is its crown's; upper is the
    best of the dimension bound, the singleton-support factorization, and
    (for matrices (and order-2 tensors) with a gap) `nmf_search` at
    r = lower.  A witness is reported only when it passed its own check:
    `exact` when `verify_nonneg_factorization` passes (the separable stage
    at r = rank, or the nested-triangle stage at r = rank = 3),
    `heuristic-certified` only for a float witness (it met the search's
    tolerance); a rational witness that fails is dropped.  A matrix with an
    entry past float range gets no float search.  `budget_factor` scales
    both the cover search's node budget and the numeric search.
    """
    if not isinstance(m, ExactArray):
        raise ValidationError("mr_bounds expects a RatMatrix or DenseTensor")
    if not isinstance(m, RatMatrix) and len(m.dims) == 2:
        m = RatMatrix(*m.dims, m.entries)
    if any(e < 0 for e in m.entries):
        raise ValidationError("entries must be nonnegative")
    pattern = support_pattern(m)
    rank_lb = rank_lower_bound(m) if pattern.cells else 0
    cover = box_cover_exact(pattern, node_budget=int(DEFAULT_NODE_BUDGET * budget_factor))
    if cover.lower >= rank_lb:
        crowned = cover.crown is not None and crown_cover_number(len(cover.crown)) == cover.lower
        lower, witness = cover.lower, "crown" if crowned else "boxcover"
    else:
        lower, witness = rank_lb, "rank"

    dims = pattern.dims
    trivial = prod(dims) // max(dims)
    upper, status = (pattern.size, "exact") if pattern.size <= trivial else (trivial, "trivial")

    factorization = None
    if isinstance(m, RatMatrix) and lower < upper and max(dims) <= 64:
        budget = SearchBudget(restarts=3, iterations=2000).scaled(budget_factor)
        found = nmf_search(m, lower, budget)
        if found is not None:
            exact = verify_nonneg_factorization(m, found).passed
            if exact or not found.is_rational:
                upper, status = lower, "exact" if exact else "heuristic-certified"
                factorization = found
    return MrBoundReport(
        lower=lower,
        lower_witness=witness,
        upper=upper,
        upper_status=status,
        cover=cover,
        rank_lower=rank_lb,
        factorization=factorization,
    )


# ---------------------------------------------------------------------------
# singleton boxes
# ---------------------------------------------------------------------------

def singleton_box_predicate(pattern: SupportPattern) -> bool:
    """True iff every support-contained box is a single cell.

    A box with two distinct cells contains two support cells differing in
    exactly one coordinate (replace coordinates one at a time inside the box),
    so it suffices to check that no two support cells are at Hamming
    distance 1: for each mode, no two cells share their row-major index with
    that mode's coordinate zeroed.
    """
    dims, n = pattern.dims, pattern.size
    strides = [prod(dims[m + 1 :]) for m in range(len(dims))]
    # indices past int64 are kept as Python ints, so no key wraps
    dtype = np.int64 if prod(dims) - 1 <= np.iinfo(np.int64).max else object
    cells = np.array(list(pattern.cells), dtype=dtype).reshape(n, len(dims))
    flat = cells @ np.array(strides, dtype=dtype)
    for m, stride in enumerate(strides):
        # a sort, not np.unique: numpy's hashed unique took 35x longer on
        # 2^19 such keys
        keys = np.sort(flat - cells[:, m] * stride)
        if (keys[1:] == keys[:-1]).any():
            return False
    return True
