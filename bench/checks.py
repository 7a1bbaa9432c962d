"""Checks on sampled configurations, written against plain integer arithmetic.

The benchmark verifies draws without calling ``hiercubes.blocks``, so a defect
in the block arithmetic cannot hide itself and the traced run's block counts
contain only the program's own calls.
"""

from __future__ import annotations

from typing import NamedTuple


class Blk(NamedTuple):
    """A block read back from program output: scale and index tuple."""

    scale: int
    index: tuple


def _child_offsets(d: int, M: int) -> list[tuple]:
    offsets = [()]
    for _ in range(d):
        offsets = [o + (k,) for o in offsets for k in range(M)]
    return offsets


def _ancestor_index(index: tuple, levels: int, M: int) -> tuple:
    shift = M ** levels
    return tuple(m // shift for m in index)


def configuration_error(blocks, window, depth: int, M: int,
                        covered=None) -> str | None:
    """Why a draw is not a hard-core configuration of the truncated system.

    Ancestor-set test: a set of blocks is hard-core iff no member has a strict
    ancestor in the set.  Every block must also lie inside `window` at a scale
    >= -depth.  Returns None for a valid draw.
    """
    if covered is not None:
        if blocks:
            return "covered draw carries blocks"
        if covered <= window.scale:
            return f"covering scale {covered} not above the window"
        return None
    occupied = {(b.scale, b.index) for b in blocks}
    if len(occupied) != len(blocks):
        return "repeated block"
    for b in blocks:
        if b.scale < -depth or b.scale > window.scale:
            return f"block {b.scale}:{b.index} outside the scale range"
        if len(b.index) != len(window.index):
            return f"block {b.scale}:{b.index} has the wrong dimension"
        if _ancestor_index(b.index, window.scale - b.scale, M) != window.index:
            return f"block {b.scale}:{b.index} outside the window"
        for up in range(1, window.scale - b.scale + 1):
            if (b.scale + up, _ancestor_index(b.index, up, M)) in occupied:
                return f"block {b.scale}:{b.index} overlaps an occupied ancestor"
    return None


def blocks_visited(blocks, window, depth: int, M: int, covered=None) -> int:
    """System blocks with no occupied strict ancestor.

    This is the number of blocks the top-down sampler reaches, which equals
    the uniforms it draws for the finite part of a draw.
    """
    if covered is not None:
        return 0
    occupied = {(b.scale, b.index) for b in blocks}
    offsets = _child_offsets(len(window.index), M)
    count = 0
    stack = [(window.scale, window.index)]
    while stack:
        scale, index = stack.pop()
        count += 1
        if (scale, index) in occupied or scale <= -depth:
            continue
        base = tuple(m * M for m in index)
        stack.extend((scale - 1, tuple(b + o for b, o in zip(base, off)))
                     for off in offsets)
    return count


def block_key(b) -> str:
    return f"{b.scale}:{','.join(map(str, b.index))}"


def system_blocks(window, depth: int, M: int) -> list[tuple[int, tuple]]:
    """(scale, index) of every block inside `window` at scales >= -depth."""
    offsets = _child_offsets(len(window.index), M)
    level = [window.index]
    out = [(window.scale, window.index)]
    for scale in range(window.scale - 1, -depth - 1, -1):
        level = [tuple(m * M + o for m, o in zip(idx, off))
                 for idx in level for off in offsets]
        out += [(scale, idx) for idx in level]
    return out


def parse_block_key(text: str) -> Blk:
    """A block from the program's "j:(m1,...,md)" notation."""
    scale, index = text.split(":", 1)
    return Blk(int(scale), tuple(int(m) for m in index.strip("()").split(",")))
