"""Certified brackets on monotone (nonnegative) rank.

Lower bounds come from two sound sources: the exact linear rank, and the
box-cover number of the support (every nonnegative rank-1 term has
box-shaped support and terms cannot cancel, so any r-term nonnegative
decomposition yields r support-contained boxes covering the support).  The
cover number itself is solved exactly by branch and bound over maximal boxes
when the support is small; past the cap we fall back to the certified
counting bound ceil(|support| / max-box-size), never to a heuristic.

Upper bounds are witnesses: the dimension bound, the singleton-support
factorization, or a searched numeric factorization, each labeled with its
provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .dtensor import DenseTensor
from .errors import ValidationError
from .ratlinalg import RatMatrix, rank_exact

DEFAULT_NODE_BUDGET = 50_000
EXACT_CELL_CAP = 64
_CLOSURE_SIDE_CAP = 16
_BFS_BOX_CAP = 20_000
_BFS_WORK_CAP = 500_000

Box = tuple[tuple[int, ...], ...]


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


def support_pattern(m) -> SupportPattern:
    """Exact nonzero pattern of a RatMatrix, DenseTensor or float array."""
    if isinstance(m, RatMatrix):
        cells = frozenset(
            (i, j) for i in range(m.rows) for j in range(m.cols) if m[i, j] != 0
        )
        return SupportPattern(dims=(m.rows, m.cols), cells=cells)
    if isinstance(m, DenseTensor):
        cells = frozenset(idx for idx in m.iter_indices() if m[idx] != 0)
        return SupportPattern(dims=m.dims, cells=cells)
    import numpy as np

    arr = np.asarray(m)
    cells = frozenset(tuple(int(i) for i in idx) for idx in zip(*np.nonzero(arr)))
    return SupportPattern(dims=tuple(arr.shape), cells=cells)


@dataclass(frozen=True)
class BoxCoverResult:
    """Bracket on the minimum number of support-contained boxes covering the
    support.  `lower` is always certified; `exact` means lower == upper ==
    optimum with `boxes` an optimal cover.  `nodes` counts the search nodes
    expanded over all deepening rounds (0 when no search ran)."""

    lower: int
    upper: int
    exact: bool
    boxes: tuple[Box, ...] | None
    note: str
    nodes: int = 0


def _line_groups(pattern: SupportPattern) -> tuple[bool, dict[int, list[int]]] | None:
    """Group the lines of a matrix pattern by their bitmask of nonzero cells.

    Uses the rows, or the columns (``transposed``) when the rows have more
    than _CLOSURE_SIDE_CAP distinct masks; gives up (None) when both sides
    do.  Returns ``(transposed, {mask: lines with that mask})``.
    """
    for transposed in (False, True):
        masks: dict[int, int] = {}
        for cell in pattern.cells:
            line, other = (cell[1], cell[0]) if transposed else cell
            masks[line] = masks.get(line, 0) | (1 << other)
        groups: dict[int, list[int]] = {}
        for line, mask in masks.items():
            groups.setdefault(mask, []).append(line)
        if len(groups) <= _CLOSURE_SIDE_CAP:
            return transposed, groups
    return None


def _subset_dp(groups: dict[int, list[int]]) -> tuple[list[int], list[int]]:
    """Intersection and line count of every subset of the distinct masks.

    Subsets are bitsets over the masks in sorted order, and each extends the
    subset without its lowest bit, so both arrays fill in one pass.  Index 0
    is the empty subset: its intersection is the all-ones sentinel -1.
    """
    patterns = sorted(groups)
    mults = [len(groups[p]) for p in patterns]
    s = len(patterns)
    inter = [0] * (1 << s)
    msum = [0] * (1 << s)
    inter[0] = -1
    for subset in range(1, 1 << s):
        low = (subset & -subset).bit_length() - 1
        rest = subset & (subset - 1)
        inter[subset] = inter[rest] & patterns[low]
        msum[subset] = msum[rest] + mults[low]
    return inter, msum


def _maximal_boxes_2d(pattern: SupportPattern) -> list[Box] | None:
    """All maximal support boxes of a matrix pattern via closure enumeration.

    Enumerates subsets of the distinct line masks of one side (see
    _line_groups); the closure of a line set R is the pair
    (lines(masks(R)), masks(R)), and every maximal box arises this way.
    """
    grouped = _line_groups(pattern)
    if grouped is None:
        return None
    transposed, groups = grouped
    inter, _ = _subset_dp(groups)
    boxes: list[Box] = []
    for colmask in sorted({mask for mask in inter[1:] if mask}):
        rows = tuple(
            sorted(i for mask, lines in groups.items() if mask & colmask == colmask for i in lines)
        )
        cols = tuple(i for i in range(colmask.bit_length()) if colmask >> i & 1)
        boxes.append((cols, rows) if transposed else (rows, cols))
    # distinct closures differ in their column set, so the boxes are distinct
    return sorted(boxes)


def _maximal_boxes_bfs(pattern: SupportPattern) -> list[Box] | None:
    """Generic maximal-box enumeration by breadth-first single-value growth.

    Every support box is reachable from a singleton by adding one index value
    at a time, so visiting all grown boxes and keeping the inextensible ones
    yields exactly the maximal boxes.  Bails out (None) past the work caps.
    """
    cells = pattern.cells
    mode_values = [sorted({c[m] for c in cells}) for m in range(pattern.order)]
    seen: set[Box] = set()
    frontier: list[Box] = sorted({tuple((v,) for v in cell) for cell in cells})
    maximal: set[Box] = set()
    work = 0
    while frontier:
        box = frontier.pop()
        if box in seen:
            continue
        seen.add(box)
        if len(seen) > _BFS_BOX_CAP:
            return None
        grew = False
        for m in range(pattern.order):
            have = set(box[m])
            for v in mode_values[m]:
                if v in have:
                    continue
                new_cells = [
                    cell[:m] + (v,) + cell[m + 1 :] for cell in product(*box)
                ]
                work += len(new_cells)
                if work > _BFS_WORK_CAP:
                    return None
                if all(c in cells for c in new_cells):
                    grew = True
                    grown = box[:m] + (tuple(sorted(box[m] + (v,))),) + box[m + 1 :]
                    if grown not in seen:
                        frontier.append(grown)
        if not grew:
            maximal.add(box)
    return sorted(maximal)


def enumerate_maximal_boxes(pattern: SupportPattern) -> list[Box] | None:
    if not pattern.cells:
        return []
    if pattern.order == 2:
        boxes = _maximal_boxes_2d(pattern)
        if boxes is not None:
            return boxes
    return _maximal_boxes_bfs(pattern)


def _max_box_size_2d(pattern: SupportPattern) -> int | None:
    """Exact maximum cell count of any support box of a matrix pattern.

    Runs over subsets of distinct line masks (see _line_groups): for a subset
    S, (all lines whose mask is in S, intersection of S) is a valid support
    box, and the largest box arises from the subset of its lines' masks, so
    max over S of multiplicity(S) * |inter(S)| is exact.
    """
    grouped = _line_groups(pattern)
    if grouped is None:
        return None
    inter, msum = _subset_dp(grouped[1])
    # the empty subset has msum 0, so its sentinel intersection adds nothing
    best = max(mask.bit_count() * count for mask, count in zip(inter, msum))
    return best if best > 0 else None


def _greedy_cover(masks: list[int], full: int) -> list[int]:
    """Greedy set cover over box masks: largest marginal gain, ties by index."""
    uncovered = full
    picked: list[int] = []
    while uncovered:
        best_i = -1
        best_gain = 0
        for i, mask in enumerate(masks):
            gain = (mask & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_i = i
        if best_i < 0:
            raise ValidationError("boxes do not cover the support")
        picked.append(best_i)
        uncovered &= ~masks[best_i]
    return picked


class _BudgetExhausted(Exception):
    pass


def _some_box_covers(by_size: list[tuple[int, int]], uncovered: int, need: int) -> bool:
    """True iff some mask covers `need` cells of `uncovered`; `by_size` holds
    (popcount, mask) pairs, largest first."""
    for size, mask in by_size:
        if size < need:
            return False
        if (mask & uncovered).bit_count() >= need:
            return True
    return False


def box_cover_exact(pattern: SupportPattern, node_budget: int = DEFAULT_NODE_BUDGET) -> BoxCoverResult:
    """Bracket (and, if feasible, solve) the minimum box cover of a support.

    Exact search is iterative deepening over covers built from maximal boxes,
    with a counting prune, a memo of refuted uncovered-sets, and deterministic
    tie-breaking.  Patterns beyond EXACT_CELL_CAP cells, or whose maximal boxes
    cannot be enumerated, fall back to the certified counting lower bound and
    a greedy/singleton upper bound with `exact=False`.

    The counting prune refutes an uncovered set U at depth d when no box
    covers need = ceil(|U| / d) cells of U.  It is an early-exit test: boxes
    are sorted by size once, largest first, and the scan stops at the first
    box that reaches `need` or the first too small to.  The branching cell is
    the first uncovered cell in a fixed order by (number of covering boxes,
    index), since those counts never change during the search.  `node_budget`
    caps the nodes expanded over all rounds; `nodes` in the result reports
    them.
    """
    cells = sorted(pattern.cells)
    if not cells:
        return BoxCoverResult(lower=0, upper=0, exact=True, boxes=(), note="empty support")
    if len(cells) > EXACT_CELL_CAP:
        # certified counting bound only; no box materialization at this size
        maxbox = _max_box_size_2d(pattern) if pattern.order == 2 else None
        if maxbox is None:
            return BoxCoverResult(
                lower=1,
                upper=len(cells),
                exact=len(cells) == 1,
                boxes=None,
                note="max box size not computable; singleton cover upper bound",
            )
        counting = -(-len(cells) // maxbox)
        return BoxCoverResult(
            lower=counting,
            upper=len(cells),
            exact=counting == len(cells),
            boxes=None,
            note=f"support of {len(cells)} cells exceeds exact-search cap {EXACT_CELL_CAP}; "
            "counting lower bound",
        )
    boxes = enumerate_maximal_boxes(pattern)
    if boxes is None:
        singles: tuple[Box, ...] | None = None
        if len(cells) <= 4096:
            singles = tuple(tuple((v,) for v in cell) for cell in cells)
        return BoxCoverResult(
            lower=1,
            upper=len(cells),
            exact=len(cells) == 1,
            boxes=singles,
            note="maximal boxes not enumerable; singleton cover upper bound",
        )
    cell_ix = {c: i for i, c in enumerate(cells)}
    full = (1 << len(cells)) - 1
    masks = []
    for box in boxes:
        mask = 0
        for cell in product(*box):
            mask |= 1 << cell_ix[cell]
        masks.append(mask)
    maxbox = max(mask.bit_count() for mask in masks)
    counting = -(-len(cells) // maxbox)
    greedy_ix = _greedy_cover(masks, full)
    upper = len(greedy_ix)
    greedy_boxes = tuple(boxes[i] for i in greedy_ix)
    if counting == upper:
        return BoxCoverResult(
            lower=upper, upper=upper, exact=True, boxes=greedy_boxes, note="counting matches greedy"
        )

    covering: list[list[int]] = [[] for _ in cells]
    for bi, mask in enumerate(masks):
        for ci in range(len(cells)):
            if mask >> ci & 1:
                covering[ci].append(bi)
    pivot_order = sorted(range(len(cells)), key=lambda ci: (len(covering[ci]), ci))
    by_size = sorted(((mask.bit_count(), mask) for mask in masks), reverse=True)

    memo: dict[int, int] = {}
    nodes = 0

    def dfs(uncovered: int, depth: int, chosen: list[int]) -> bool:
        nonlocal nodes
        if uncovered == 0:
            return True
        if depth == 0:
            return False
        if memo.get(uncovered, 0) >= depth:
            return False
        if nodes >= node_budget:
            raise _BudgetExhausted
        nodes += 1
        if not _some_box_covers(by_size, uncovered, -(-uncovered.bit_count() // depth)):
            memo[uncovered] = max(memo.get(uncovered, 0), depth)
            return False
        pivot = next(ci for ci in pivot_order if uncovered >> ci & 1)
        cand = sorted(
            covering[pivot], key=lambda bi: (-(masks[bi] & uncovered).bit_count(), bi)
        )
        for bi in cand:
            chosen.append(bi)
            if dfs(uncovered & ~masks[bi], depth - 1, chosen):
                return True
            chosen.pop()
        memo[uncovered] = max(memo.get(uncovered, 0), depth)
        return False

    t = max(counting, 1)
    try:
        while t < upper:
            chosen: list[int] = []
            if dfs(full, t, chosen):
                return BoxCoverResult(
                    lower=t,
                    upper=t,
                    exact=True,
                    boxes=tuple(boxes[i] for i in chosen),
                    note="optimal cover found",
                    nodes=nodes,
                )
            t += 1
        return BoxCoverResult(
            lower=upper,
            upper=upper,
            exact=True,
            boxes=greedy_boxes,
            note="greedy proven optimal",
            nodes=nodes,
        )
    except _BudgetExhausted:
        return BoxCoverResult(
            lower=t,
            upper=upper,
            exact=False,
            boxes=greedy_boxes,
            note=f"node budget {node_budget} exhausted while refuting size {t}",
            nodes=nodes,
        )


# ---------------------------------------------------------------------------
# monotone-rank report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MrBoundReport:
    lower: int
    lower_witness: str  # "rank" | "boxcover"
    upper: int
    upper_status: str  # "exact" | "heuristic-certified" | "trivial"
    cover: BoxCoverResult
    rank_lower: int
    factorization: object = None

    def __post_init__(self):
        if self.upper < self.lower:
            raise ValidationError("upper bound below lower bound")


def _validate_nonneg_exact(m) -> None:
    if isinstance(m, RatMatrix):
        if any(e < 0 for e in m.entries):
            raise ValidationError("entries must be nonnegative")
    elif isinstance(m, DenseTensor):
        if not m.is_exact():
            raise ValidationError("mr bounds need exact (int/Fraction) entries")
        if any(v < 0 for v in m.values):
            raise ValidationError("entries must be nonnegative")
    else:
        raise ValidationError("mr_bounds expects a RatMatrix or DenseTensor")


def rank_lower_bound(m) -> int:
    """Exact-rank component of the mr lower bound (max mode-flattening rank
    for tensors: any rank-r nonnegative decomposition flattens to a rank-<=r
    matrix decomposition)."""
    if isinstance(m, RatMatrix):
        return rank_exact(m)
    return max(rank_exact(m.mode_flattening(mode)) for mode in range(m.order))


def mr_bounds(m, budget_factor: float = 1.0) -> MrBoundReport:
    """Bracket the monotone rank of a nonnegative matrix or exact tensor.

    lower = max(exact rank, certified box-cover lower bound); upper is the
    best of the dimension bound, the singleton-support factorization, and (for
    matrices with a gap) a small seeded numeric search.  `budget_factor`
    scales both the cover search's node budget and the numeric search.
    """
    _validate_nonneg_exact(m)
    pattern = support_pattern(m)
    rank_lb = rank_lower_bound(m) if pattern.cells else 0
    cover = box_cover_exact(pattern, node_budget=int(DEFAULT_NODE_BUDGET * budget_factor))
    if cover.lower >= rank_lb:
        lower, witness = cover.lower, "boxcover"
    else:
        lower, witness = rank_lb, "rank"

    dims = pattern.dims
    trivial = min(prod(dims) // d for d in dims)
    candidates: list[tuple[int, str]] = [(trivial, "trivial"), (pattern.size, "exact")]
    if pattern.size == 0:
        candidates = [(0, "exact")]
    upper, status = min(candidates, key=lambda c: (c[0], c[1] != "exact"))

    factorization = None
    if isinstance(m, RatMatrix) and lower < upper and max(dims) <= 64:
        from .numkit import SearchBudget, nmf_search

        budget = SearchBudget(restarts=2, iterations=400).scaled(budget_factor)
        found = nmf_search(m, lower, budget=budget, tol=1e-6)
        if found is not None:
            upper, status = lower, "heuristic-certified"
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
# divisibility tensors: exact monotone rank
# ---------------------------------------------------------------------------

def singleton_box_predicate(pattern: SupportPattern) -> bool:
    """True iff every support-contained box is a single cell.

    A box with two distinct cells contains two support cells differing in
    exactly one coordinate (replace coordinates one at a time inside the box),
    so it suffices to check that no two support cells are at Hamming
    distance 1 -- done exactly by wildcarding one coordinate at a time.
    """
    seen: set[tuple] = set()
    for cell in pattern.cells:
        for m in range(len(cell)):
            key = (m, cell[:m], cell[m + 1 :])
            if key in seen:
                return False
            seen.add(key)
    return True


def div_tensor_mr_exact(spec) -> int:
    """Exact monotone rank of the divisibility tensor: base^(order-1).

    Index sums of two cells differing only in coordinate m differ by less than
    the base, so both cannot be divisible: every box is a singleton, the cover
    number equals the support size, and the singleton factorization matches it.
    """
    from .constructions import divisibility_tensor

    tensor = divisibility_tensor(spec)
    pattern = support_pattern(tensor)
    expected = spec.base ** (spec.order - 1)
    if pattern.size != expected:
        raise ValidationError(
            f"support size {pattern.size} deviates from base^(order-1) = {expected}"
        )
    if not singleton_box_predicate(pattern):
        raise ValidationError("singleton-box predicate failed for divisibility tensor")
    return expected
