"""Address arithmetic on the hierarchical cube tree.

A block of scale j is the cube m * M**j + [0, M**j)**d with m a d-tuple of
non-negative integers.  Drawing edges from each block to the M**d blocks one
scale below turns the block set into a regular M**d-ary tree on the
non-negative orthant.  It has two walkers, on index tuples grouped by
scale: `subtree_levels` steps down, and the child order and the index bound
of a step down live there alone, so every descendant index is formed there
(the least per scale by `least_indices`); `ancestor_levels` steps up, and
outside `parent` and `ancestor_at` a parent index is formed there alone.

The volume M**(d j) of a scale-j block, and its log d j log M, are formed
by `Geometry.volume`, `Geometry.volumes` and `Geometry.log_volume` alone:
the nearest float, inf past the float range and 0.0 below it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import total_ordering
from typing import Callable, Iterator, Optional

# Index components and the branching M**d are kept exact but bounded; anything
# larger is almost certainly a bug in the caller (135+ scales of refinement).
INDEX_LIMIT = 1 << 128


# for n past this exponent and M >= 2, M**n is above the largest float and
# M**-n below half the least subnormal 2**-1074, so it rounds to 0.0
FLOAT_EXPONENT_LIMIT = 1100


class IndexRangeError(ValueError):
    """An index component left the representable [0, 2**128) range."""


def _nearest_power(M: int, n: int) -> float:
    """M**n as the nearest float, from the exact integer: inf past the
    float range, 0.0 below it."""
    if n > FLOAT_EXPONENT_LIMIT:
        return math.inf
    if n < -FLOAT_EXPONENT_LIMIT:
        return 0.0
    try:
        return float(M**n) if n >= 0 else 1 / M**-n
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=32)
def _volumes(M: int, d: int, j_lo: int, j_hi: int) -> tuple[float, ...]:
    return tuple(_nearest_power(M, d * j) for j in range(j_lo, j_hi + 1))


@dataclass(frozen=True)
class Geometry:
    """Dimension d and subdivision parameter M of the cube hierarchy."""

    d: int
    M: int = 2

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.M < 2:
            raise ValueError(f"subdivision parameter must be >= 2, got {self.M}")
        if self.d > 128 or self.M > INDEX_LIMIT or self.M**self.d > INDEX_LIMIT:
            raise ValueError("branching M**d must be at most 2**128")

    @property
    def branching(self) -> int:
        """Number of children per block, M**d."""
        return self.M**self.d

    def side(self, j: int) -> float:
        """The sidelength M**j of a scale-j block, as the nearest float."""
        return _nearest_power(self.M, j)

    def volume(self, j: int) -> float:
        """The volume M**(d j) of a scale-j block, as the nearest float: inf
        past the float range, 0.0 below it."""
        return _nearest_power(self.M, self.d * j)

    def volumes(self, j_lo: int, j_hi: int) -> tuple[float, ...]:
        """`volume(j)` for j = j_lo, ..., j_hi, in order: one cached tuple
        per range."""
        return _volumes(self.M, self.d, j_lo, j_hi)

    def log_volume(self, j: int) -> float:
        """log M**(d j) = d j log M, finite at every scale."""
        return self.d * j * math.log(self.M)


@total_ordering
@dataclass(frozen=True)
class Block:
    """A cube of sidelength M**scale with corner index * M**scale."""

    scale: int
    index: tuple[int, ...]

    def __post_init__(self):
        index = self.index
        if index and min(index) < 0:
            raise ValueError(f"index components must be >= 0: {index}")
        if index and max(index) >= INDEX_LIMIT:
            raise IndexRangeError(f"index component exceeds 2**128: {index}")

    @property
    def d(self) -> int:
        return len(self.index)

    def __lt__(self, other: "Block") -> bool:
        return (self.scale, self.index) < (other.scale, other.index)

    def __str__(self) -> str:
        return format_block(self)


def block(scale: int, *index: int) -> Block:
    """Shorthand constructor."""
    return Block(scale, tuple(index))


def format_block(b: Block) -> str:
    """Canonical textual notation "j:(m1,...,md)"."""
    return f"{b.scale}:({','.join(str(m) for m in b.index)})"


def parse_block(text: str) -> Block:
    """Inverse of :func:`format_block`."""
    try:
        scale_part, index_part = text.split(":", 1)
        index_part = index_part.strip()
        if not (index_part.startswith("(") and index_part.endswith(")")):
            raise ValueError
        index = tuple(int(m) for m in index_part[1:-1].split(","))
        return Block(int(scale_part), index)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"not a block literal {text!r}; expected 'j:(m1,...,md)'") from exc


def parent(b: Block, geo: Geometry) -> Block:
    """The unique block one scale up containing b."""
    return Block(b.scale + 1, tuple(m // geo.M for m in b.index))


def ancestor_at(b: Block, scale: int, geo: Geometry) -> Block:
    """The unique block of the given scale >= b.scale containing b."""
    if scale < b.scale:
        raise ValueError(f"scale {scale} below block scale {b.scale}")
    shift = geo.M ** (scale - b.scale)
    return Block(scale, tuple(m // shift for m in b.index))


def subtree_levels(b: Block, bottom: int, geo: Geometry,
                   expand: Optional[Callable[[int, list], list]] = None) -> list[list]:
    """b's subtree down to scale `bottom` as index tuples, one list per scale
    from b.scale down.  Each list holds the children, in lexicographic order,
    of the tuples that `expand(scale, level)` returns for the list above it,
    a sublist in its order, with one call per list above the bottom; without
    `expand`, of every tuple, so the children of the i-th tuple of a list are
    the slice [i*B:(i+1)*B] of the next (B = M**d).  A level is built one
    coordinate column at a time, x * M + o for each x of the column above and
    each child offset o in that coordinate, and zipped into tuples.  Raises
    IndexRangeError before any work when an index at `bottom` would reach
    INDEX_LIMIT.
    """
    M = geo.M
    if b.scale > bottom and (max(b.index) + 1) * M ** (b.scale - bottom) > INDEX_LIMIT:
        raise IndexRangeError(f"index at scale {bottom} below {b} exceeds 2**128")
    # the per-coordinate columns of the child offsets, in lexicographic order
    offsets = list(zip(*itertools.product(range(M), repeat=geo.d)))
    levels = [[b.index]]
    columns = [[x] for x in b.index]
    for scale in range(b.scale, bottom, -1):
        if expand is not None:
            columns = list(zip(*expand(scale, levels[-1]))) or [()] * geo.d
        columns = [[x * M + o for x in column for o in offs]
                   for column, offs in zip(columns, offsets)]
        levels.append(list(zip(*columns)))
    return levels


def least_indices(b: Block, bottom: int, geo: Geometry) -> list[tuple]:
    """The least index tuple of b's subtree at each scale from b.scale down
    to `bottom`: the first tuple of each list of `subtree_levels`, which
    expands only the first tuple of each."""
    return [level[0] for level in subtree_levels(b, bottom, geo, lambda _, level: level[:1])]


def ancestor_levels(levels: dict, top: int, geo: Geometry) -> Iterator[tuple[int, set]]:
    """The strict ancestors of the blocks of `levels`, given as scale -> set
    of index tuples, bottom-up: (scale, above) for each scale from the
    lowest of `levels` up to `top`, with `above` the set of the indices, at
    that scale, of the strict ancestors of the blocks below it.  The set of
    a scale is formed from the one below and that scale's blocks a
    coordinate column at a time, m // M for each m of the column, and zipped
    into tuples.  Blocks above `top` are not read.  Raises ValueError on
    index tuples of unequal length or of length 0.
    """
    M = geo.M
    above: set = set()
    for scale in range(min(levels, default=top), top):
        yield scale, above
        here = levels.get(scale, ())
        columns = [[m // M for m in column] for column in zip(*above, *here, strict=True)]
        if not columns and (above or here):
            raise ValueError("index tuples of length 0")
        above = set(zip(*columns))
    yield top, above


def children(b: Block, geo: Geometry) -> list[Block]:
    """The M**d blocks one scale below b, in lexicographic order."""
    return [Block(b.scale - 1, m) for m in subtree_levels(b, b.scale - 1, geo)[1]]


def contains(outer: Block, inner: Block, geo: Geometry) -> bool:
    """Whether outer contains inner (every block contains itself)."""
    if outer.scale < inner.scale:
        return False
    return ancestor_at(inner, outer.scale, geo) == outer


def overlaps(b1: Block, b2: Block, geo: Geometry) -> bool:
    """Two blocks intersect iff one contains the other."""
    return contains(b1, b2, geo) or contains(b2, b1, geo)


def lcs(b1: Block, b2: Block, geo: Geometry) -> int:
    """Lowest scale at which a single block covers both b1 and b2."""
    if b1.d != b2.d:
        # chains of index tuples of different lengths never meet
        raise ValueError(f"blocks {b1} and {b2} have different dimensions")
    j = max(b1.scale, b2.scale)
    a1, a2 = ancestor_at(b1, j, geo), ancestor_at(b2, j, geo)
    while a1 != a2:
        j += 1
        a1, a2 = parent(a1, geo), parent(a2, geo)
    return j


def covering_block(b1: Block, b2: Block, geo: Geometry) -> Block:
    """The smallest block containing both b1 and b2."""
    return ancestor_at(b1, lcs(b1, b2, geo), geo)


def hierarchical_distance(b1: Block, b2: Block, geo: Geometry) -> float:
    """Ultrametric D(b1,b2) = M**(d*lcs), zero on the diagonal."""
    if b1 == b2:
        return 0.0
    return geo.volume(lcs(b1, b2, geo))


def ancestors(b: Block, up_to_scale: int, geo: Geometry) -> list[Block]:
    """The chain of blocks strictly above b, up to and including the given scale."""
    chain = []
    cur = b
    while cur.scale < up_to_scale:
        cur = parent(cur, geo)
        chain.append(cur)
    return chain


def descendants(b: Block, down_to_scale: int, geo: Geometry) -> list[Block]:
    """All blocks contained in b with scale >= down_to_scale, b included."""
    levels = subtree_levels(b, down_to_scale, geo)
    return [Block(b.scale - k, m) for k, level in enumerate(levels) for m in level]
