"""Dense two-matrix encoding of a class forest.

A forest of ``n`` classes whose longest root-to-class path touches ``L``
depth levels is stored as two matrices, built once and reused for every
batched transform:

* ``masks``, boolean ``(L, n)``: ``masks[l, c]`` is True when class ``c``
  is excluded from depth level ``l``. Each class is unmasked in exactly
  one level row, the row of its own depth.
* ``paths``, int32 ``(n, L)``: row ``c`` holds the classes on the path
  from a root down to ``c``, right-padded with ``PAD``.

A ``TreeEncoding`` holds these two matrices and nothing else. ``n`` and
``L`` are read from their shapes, and ``level_of``, each class's level, is
derived from ``masks`` on first use, cached and read-only.

Class ids are 0-based in memory. File formats and CLI output show them
1-based: ``display_ids`` shifts ids up, and the file readers shift them
back down.
"""

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CyclicTaxonomy, ParameterError

PAD = -1
NO_PARENT = -1

# Entries per block of whole rows (at least one row): a block's working set
# stays in a core's L2 cache, and a whole-array pass that goes block by
# block holds only a block's temporaries.
_BLOCK_ENTRIES = 1 << 18


def _blocks(num_rows: int, row_entries: int = 1):
    """Slices of ``range(num_rows)`` in order, each of whole rows and at most
    ``_BLOCK_ENTRIES`` entries (at least one row)."""
    step = max(1, _BLOCK_ENTRIES // max(1, row_entries))
    return [slice(lo, lo + step) for lo in range(0, num_rows, step)]


@dataclass(frozen=True, eq=False)
class Taxonomy:
    """Parent-pointer form of a class forest.

    ``parents[c]`` is the parent of class ``c``, or ``NO_PARENT`` for a
    root. Acyclicity is checked by ``encode``, not on construction.
    """

    parents: np.ndarray

    def __post_init__(self):
        # Range-check before the int32 cast, which would wrap large ids.
        parents = _check_parent_ids(self.parents)
        if parents.size == 0:
            raise ParameterError("taxonomy must declare at least one class")
        parents = np.ascontiguousarray(parents, dtype=np.int32)
        object.__setattr__(self, "parents", parents)
        parents.flags.writeable = False

    @property
    def num_classes(self) -> int:
        return self.parents.size

    def __eq__(self, other):
        if not isinstance(other, Taxonomy):
            return NotImplemented
        return np.array_equal(self.parents, other.parents)


def _check_parent_ids(parents) -> np.ndarray:
    """``parents`` as an array; refuses one that is not 1-d integers, or a
    parent that is neither ``NO_PARENT`` nor a class id."""
    parents = np.asarray(parents)
    if parents.ndim != 1 or not np.issubdtype(parents.dtype, np.integer):
        raise ParameterError("parents must be a 1-d integer array")
    bad = (parents < NO_PARENT) | (parents >= parents.size)
    if bad.any():
        c = int(np.argmax(bad))
        raise ParameterError(
            f"parent {int(parents[c])} of class {c + 1} is not a class id"
        )
    return parents


def _as_int32(name: str, a) -> np.ndarray:
    """``a`` as a contiguous int32 array; refuses what the cast would change."""
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.integer):
        raise ParameterError(f"{name} must be an integer array, got {a.dtype}")
    if not np.can_cast(a.dtype, np.int32):
        info = np.iinfo(np.int32)
        bad = (a < info.min) | (a > info.max)
        if bad.any():
            value = int(a[np.unravel_index(np.argmax(bad), a.shape)])
            raise ParameterError(f"{name} entry {value} does not fit in int32")
    return np.ascontiguousarray(a, dtype=np.int32)


class _Layout(NamedTuple):
    """The decoders' one index: the classes sorted by level, their (batch, n)
    arrays' columns. Each level is one slice; its parents lie in the one before."""

    order: np.ndarray  # column j holds class order[j]
    starts: np.ndarray  # level d is columns starts[d]:starts[d + 1]; L + 1 entries
    up: np.ndarray  # each column's parent column, -1 for roots
    rank: np.ndarray  # each column's path rank in lexicographic order
    ptr: np.ndarray  # column j's children: kids[ptr[j]:ptr[j + 1]]; roots kids[:ptr[0]]
    kids: np.ndarray  # columns by parent, so level d is kids[starts[d]:starts[d + 1]]
    col: np.ndarray  # each class's column, and col[NO_PARENT] = -1; n + 1 entries


@dataclass(frozen=True, eq=False)
class TreeEncoding:
    """Immutable encoded forest: the mask and path matrices.

    Everything else (the class and level counts, each class's level, the
    decoders' one layout) is derived from the two. Arrays are marked
    read-only so an encoding can be shared freely across threads.
    """

    masks: np.ndarray  # bool (num_levels, num_classes), True = excluded
    paths: np.ndarray  # int32 (num_classes, num_levels), PAD-terminated rows

    def __post_init__(self):
        masks = np.asarray(self.masks)
        if masks.dtype != bool:
            raise ParameterError(f"masks must be a boolean array, got {masks.dtype}")
        masks = np.ascontiguousarray(masks)
        paths = _as_int32("paths", self.paths)
        # argmin in level_of needs at least one level row.
        if paths.ndim != 2 or masks.shape != paths.shape[::-1] or 0 in paths.shape:
            raise ParameterError(
                f"an encoding needs masks (L, n) and paths (n, L) with n, L >= 1, "
                f"got masks {masks.shape} and paths {paths.shape}"
            )
        for name, arr in (("masks", masks), ("paths", paths)):
            object.__setattr__(self, name, arr)
            arr.flags.writeable = False

    @property
    def num_classes(self) -> int:
        return self.paths.shape[0]

    @property
    def num_levels(self) -> int:
        return self.paths.shape[1]

    def __eq__(self, other):
        if not isinstance(other, TreeEncoding):
            return NotImplemented
        # Block by block, so only one block's comparison is held at a time.
        return self.paths.shape == other.paths.shape and all(
            np.array_equal(self.masks[:, cols], other.masks[:, cols])
            and np.array_equal(self.paths[cols], other.paths[cols])
            for cols in _blocks(self.num_classes, self.num_levels)
        )

    @functools.cached_property
    def level_of(self) -> np.ndarray:
        """int32 (num_classes,): each class's level, the first level row in
        which it is unmasked (row 0 for a class masked everywhere, which
        ``validate`` reports). Computed on first use, then kept read-only.

        The argmin runs over blocks of columns, so its temporaries (numpy
        copies each block's columns to rows) stay one block: at c08 the
        call peaks near 0.84 MB, 0.47 MB of it the result."""
        n = self.num_classes
        level_of = np.empty(n, dtype=np.int32)
        for cols in _blocks(n, self.num_levels):
            level_of[cols] = np.argmin(self.masks[:, cols], axis=0)
        level_of.flags.writeable = False
        return level_of

    @functools.cached_property
    def _layout(self) -> _Layout:
        """The decoders' level layout, computed on first use and then kept.

        It is derived from the matrices alone, so equality, the file bytes
        and the constructor ignore it; its arrays are read-only.
        """
        n = self.num_classes
        order, starts = _level_order(self.level_of, self.num_levels)
        # One extra slot maps NO_PARENT (-1) to column -1.
        col = np.full(n + 1, -1, dtype=np.intp)
        col[order] = np.arange(n)
        up = col[recover_parents(self)[order]]
        kids = np.argsort(up, kind="stable")
        ptr = np.cumsum(np.bincount(up + 1, minlength=n + 1))
        # Lexicographic path order is preorder with children in column order:
        # a path ranks after its parent and its earlier siblings' subtrees.
        levels = list(zip(starts[1:-1], starts[2:]))  # below the roots
        size = np.ones(n, dtype=np.intp)
        for lo, hi in levels[::-1]:
            np.add.at(size, up[lo:hi], size[lo:hi])
        ahead = np.cumsum(size[kids]) - size[kids]  # kids[:i]'s subtree sizes, summed
        rank = ahead.copy()  # right for the roots, columns kids[:ptr[0]]
        for lo, hi in levels:
            j = kids[lo:hi]
            rank[j] = rank[up[j]] + 1 + ahead[lo:hi] - ahead[ptr[up[j]]]
        layout = _Layout(order, starts, up, rank, ptr, kids, col)
        for a in layout:
            a.flags.writeable = False
        return layout


@dataclass(frozen=True)
class Violation:
    """One broken invariant. Indices are 0-based; messages show 1-based ids."""

    kind: str
    where: tuple[int, ...]
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [v.message for v in self.violations]


def class_depths(parents: np.ndarray) -> np.ndarray:
    """Depth of every class (roots are depth 0), as int32.

    Pointer jumping over a root sentinel (Hillis & Steele, CACM 1986): at
    most ``n.bit_length()`` rounds of two length-n gathers, stopping once
    a round would move no pointer. A class that never reaches the sentinel
    lies on or below a cycle, and ``CyclicTaxonomy`` names the first class
    that the walk up from the smallest one repeats. Parents that are not a
    1-d integer array, or a parent that is not a class id, raise
    ``ParameterError``.
    """
    parents = _check_parent_ids(parents)
    n = parents.size
    up = np.append(np.where(parents == NO_PARENT, n, parents), n).astype(np.intp)
    depth = (up != n).astype(np.int32)
    for _ in range(n.bit_length()):
        jumped = up[up]
        if np.array_equal(jumped, up):
            break
        depth += depth[up]
        up = jumped
    stuck = np.flatnonzero(up[:n] != n)
    if stuck.size:
        seen, node = set(), int(stuck[0])
        while node not in seen:
            seen.add(node)
            node = int(parents[node])
        raise CyclicTaxonomy(f"cycle through class {node + 1}")
    return depth[:n]


def _level_order(level: np.ndarray, num_levels: int):
    """The classes in order of level, each level in class order, and where
    each level starts in that order (``num_levels + 1`` entries).

    The stable sort runs on levels cast to the smallest type that holds
    them, for which numpy sorts by radix.
    """
    order = np.argsort(level.astype(np.min_scalar_type(num_levels)), kind="stable")
    starts = np.zeros(num_levels + 1, dtype=np.intp)
    np.cumsum(np.bincount(level, minlength=num_levels), out=starts[1:])
    return order, starts


def encode(taxonomy: Taxonomy) -> TreeEncoding:
    """Build the mask and path matrices for a forest.

    Deterministic: the same taxonomy always yields a bit-identical
    encoding, and class order is preserved from the input.
    """
    parents = taxonomy.parents
    n = parents.size
    depth = class_depths(parents)
    num_levels = int(depth.max()) + 1
    order, starts = _level_order(depth, num_levels)
    col = np.empty(n, dtype=np.intp)  # each class's column in ``order``
    col[order] = np.arange(n)

    masks = np.arange(num_levels, dtype=depth.dtype)[:, None] != depth
    # Each class's path row is its parent's row plus itself. Levels go in
    # order, each taking its rows from the level before, and every row is
    # written once, as one item of a row-sized void type.
    paths = np.empty((n, num_levels), dtype=np.int32)
    row = np.dtype((np.void, paths.itemsize * num_levels))
    whole_rows = paths.view(row).reshape(n)
    for d in range(num_levels):
        group = order[starts[d] : starts[d + 1]]
        if d == 0:
            rows = np.full((group.size, num_levels), PAD, dtype=np.int32)
        else:
            rows = np.take(rows, col[parents[group]] - starts[d - 1], axis=0)
        rows[:, d] = group
        whole_rows[group] = rows.view(row).reshape(-1)

    return TreeEncoding(masks=masks, paths=paths)


def recover_parents(enc: TreeEncoding) -> np.ndarray:
    """Parent of each class as implied by the path matrix (NO_PARENT for roots)."""
    n = enc.num_classes
    parents = np.full(n, NO_PARENT, dtype=np.int32)
    deep = enc.level_of > 0
    rows = np.nonzero(deep)[0]
    parents[rows] = enc.paths[rows, enc.level_of[rows] - 1]
    return parents


def validate(enc: TreeEncoding) -> ValidationReport:
    """Check every structural invariant of an encoding.

    Returns a report listing one violation per offending index, of kinds
    ``unmask-count``, ``path-range``, ``path-pad-tail``, ``path-endpoint``
    and ``prefix``, in that order, each kind by class and then level. An
    empty report means the encoding is valid, and every invalid encoding
    gets at least one violation: with none, each class is unmasked only at
    its own depth and ``paths[c, j]`` has depth ``j``, so no two classes of
    one path share a level row. Never raises on bad content.

    The classes are checked in blocks of whole path rows, each of at most
    ``_BLOCK_ENTRIES`` bytes, so besides ``level_of`` (derived here if it
    was not yet) the call holds one block's temporaries, the largest a
    gather of the block's parent rows, at any number of classes. At c08 it
    peaks near 0.41 MB, or 0.88 MB when it derives ``level_of``.
    """
    n, L = enc.num_classes, enc.num_levels
    masks, paths, level_of = enc.masks, enc.paths, enc.level_of
    kinds = ("unmask-count", "path-range", "path-pad-tail", "path-endpoint", "prefix")
    found = {kind: [] for kind in kinds}  # each kind's violations, in order

    def add(kind, where, message):
        found[kind].append(Violation(kind, where, message))

    # Row d of each table marks, for a class at depth d, its path's real
    # entries, its PAD tail and the entries it shares with its parent.
    levels = np.arange(L)
    real, tail, shared = (
        op(levels, levels[:, None]) for op in (np.less_equal, np.greater, np.less)
    )
    count_type = np.min_scalar_type(L)
    for rows in _blocks(n, paths.itemsize * L):
        block, depth = paths[rows], level_of[rows]
        ids = np.arange(rows.start, rows.start + len(block))
        own = block.reshape(-1)[np.arange(0, block.size, L) + depth]

        # Each class unmasked in exactly one level row, the row of its depth.
        masked = masks[:, rows].view(np.uint8)
        counts = L - np.add.reduce(masked, axis=0, dtype=count_type)
        for i in np.flatnonzero(counts != 1).tolist():
            c = int(ids[i])
            add(
                "unmask-count",
                (c,),
                f"class {c + 1} is unmasked in {int(counts[i])} level "
                f"rows, expected exactly 1",
            )

        # Path rows: class ids up to the class's depth (as uint32, negative
        # ids compare above every id), then a PAD tail.
        fault = block.view(np.uint32) >= n
        fault &= np.take(real, depth, axis=0)
        for k in np.flatnonzero(fault).tolist():
            i, l = divmod(k, L)
            c = int(ids[i])
            add(
                "path-range",
                (c, l),
                f"path row {c + 1} has non-class entry {int(block[i, l])} "
                f"at level {l + 1}",
            )
        fault = block != PAD
        fault &= np.take(tail, depth, axis=0)
        for k in np.flatnonzero(fault).tolist():
            i, l = divmod(k, L)
            c = int(ids[i])
            add(
                "path-pad-tail",
                (c, l),
                f"path row {c + 1} should be padding from level "
                f"{int(depth[i]) + 2} on, found {int(block[i, l])} at level {l + 1}",
            )
        del fault

        # The class itself as the last real entry.
        for i in np.flatnonzero(own != ids).tolist():
            c = int(ids[i])
            add(
                "path-endpoint",
                (c,),
                f"path row {c + 1} ends in {int(own[i]) + 1} instead of the "
                f"class itself",
            )

        # Prefix property: a path is its parent's path plus the class
        # itself. The parent is the entry before the class's own; a row
        # without one in range (path-range) is compared with itself.
        par = block.reshape(-1)[np.arange(-1, block.size - 1, L) + depth]
        has = (depth > 0) & (par.view(np.uint32) < n)
        par = np.where(has, par, ids)
        differs = np.take(paths, par, axis=0) != block
        differs &= np.take(shared, depth, axis=0)
        wrong = level_of[par] != depth - 1
        wrong[np.flatnonzero(differs) // L] = True
        wrong &= has
        del differs
        for i in np.flatnonzero(wrong).tolist():
            c, p = int(ids[i]), int(par[i])
            add(
                "prefix",
                (c, p),
                f"path row {c + 1} does not extend the path of its parent {p + 1}",
            )

    return ValidationReport([v for kind in kinds for v in found[kind]])


def storage_bytes(enc: TreeEncoding, s_bool: int, s_int: int) -> int:
    """Closed-form byte count of the two matrices at the given element sizes."""
    if s_bool <= 0 or s_int <= 0:
        raise ParameterError("element sizes must be positive")
    return (s_bool + s_int) * enc.num_levels * enc.num_classes


def measured_bytes(enc: TreeEncoding) -> int:
    """Bytes owned by the encoding's buffers: both matrices and ``level_of``."""
    return enc.masks.nbytes + enc.paths.nbytes + enc.level_of.nbytes


def display_ids(a: np.ndarray, pad: int = PAD) -> np.ndarray:
    """Shift 0-based ids to the 1-based form used by files and the CLI."""
    a = np.asarray(a)
    return np.where(a == pad, pad, a + 1)
