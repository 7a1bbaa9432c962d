"""Exact samplers for the hierarchical measure and fractal percolation.

All randomness comes from a counter-based generator: a keyed blake2b hash of
(seed, sample index, block) mapped to a uniform in [0,1).  Draws are therefore
a pure function of their coordinates, so serial and parallel runs, and any
chunking of a batch, produce bit-identical results.

The top-down walk runs a level at a time, from the window down, on the
index tuples of `blocks.subtree_levels`: each call of its level filter draws
the uniforms of one level, reads that level's occupation ratios in one
lookup, and returns the vacant tuples, whose children form the next level.
A draw is the sorted list of its occupied (scale, index) pairs, with index a
plain int tuple.  The samplers that return a `Configuration` build a `Block`
only for those pairs; `estimate` builds none, and matches each probe, a
frozenset of pairs, against the set of a draw's pairs.  A draw costs one
uniform (a copy of the cached keyed hash state of its seed and sample index,
fed the block's tokens) per visited block, and its validation O(distinct
ancestors of the occupied blocks).
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass, field
from itertools import starmap
from typing import Callable, Iterable, Optional

from .blocks import Block, Geometry, format_block, subtree_levels
from .activities import ActivityModel
from .analytics import (TruncatedSystem, _ancestor_chain, _check_system,
                        _require_condition_ii, _require_scalewise)


class InvalidConfiguration(ValueError):
    pass


@dataclass(frozen=True)
class Configuration:
    """A sampled configuration: pairwise disjoint blocks inside a window.

    `covered_by_ancestor` is set (to the covering scale) only in
    infinite-volume mode, when an ancestor of the window is occupied; the
    block list is then empty.
    """

    blocks: tuple
    window: Block
    depth: int
    seed: int
    covered_by_ancestor: Optional[int] = None

    def validate(self, geo: Geometry) -> None:
        """Raise InvalidConfiguration unless the blocks are distinct, lie in
        the truncated system and are hard-core.

        Hard-core means no block has a strict ancestor among the blocks, so
        each block's parent chain is walked on (scale, index) tuples up to
        the window's scale, where it must end at the window, and looked up in
        the set of members.  A walk stops at the first ancestor an earlier
        walk cleared (found member-free up to the window), so the cost is
        O(distinct ancestors), not O(blocks x depth).  The blocks are checked
        in order and the first failure raises.
        """
        if self.covered_by_ancestor is not None and self.blocks:
            raise InvalidConfiguration("covered configurations carry no blocks")
        members = {(b.scale, b.index) for b in self.blocks}
        if len(members) != len(self.blocks):
            raise InvalidConfiguration("a block occurs twice")
        top = self.window.scale
        cleared: dict = {}
        for b in self.blocks:
            hit, end = _walk_up(b.scale, b.index, top, geo.M, members, cleared)
            if b.scale < -self.depth or b.scale > top or end != self.window.index:
                raise InvalidConfiguration(f"block {b} outside the truncated system")
            if hit is not None:
                raise InvalidConfiguration(f"blocks {Block(*hit)} and {b} overlap")

    def to_json_obj(self) -> dict:
        obj = {"window": format_block(self.window), "depth": self.depth,
               "seed": self.seed,
               "blocks": [format_block(b) for b in self.blocks]}
        if self.covered_by_ancestor is not None:
            obj["covered_by_ancestor"] = self.covered_by_ancestor
        return obj


def _walk_up(scale: int, index: tuple, top: int, M: int, members: set,
             cleared: dict) -> tuple[Optional[tuple], tuple]:
    """Walk the parent chain of (scale, index) up to scale `top`.

    Returns the lowest strict ancestor that is in `members`, as a
    (scale, index) pair or None, and the index reached at `top` (`index`
    itself when scale >= top).  `cleared` maps each pair already found
    member-free, with its ancestors, up to `top` to the index it reaches
    there; the walk stops at the first such pair and, when it finds no
    member, adds the pairs it passed.
    """
    hit = None
    passed = []
    while scale < top:
        scale += 1
        index = tuple([m // M for m in index])
        key = (scale, index)
        end = cleared.get(key)
        if end is not None:
            index = end
            break
        if hit is None and key in members:
            hit = key
        passed.append(key)
    if hit is None:
        cleared.update(dict.fromkeys(passed, index))
    return hit, index


_BLOCK_ORDER = operator.attrgetter("scale", "index")   # the order of Block.__lt__


def _make_config(blocks: Iterable[Block], window: Block, depth: int, seed: int,
                 geo: Geometry, covered: Optional[int] = None) -> Configuration:
    cfg = Configuration(tuple(sorted(blocks, key=_BLOCK_ORDER)), window, depth,
                        seed, covered)
    cfg.validate(geo)
    return cfg


# ---------------------------------------------------------------------------
# counter-based uniforms
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16, typed=True)
def _keyed_state(seed: int, index: int):
    """The blake2b state keyed by the low 64 bits of `seed` that has hashed
    the sample index; callers hash copies of it, never the state itself."""
    h = hashlib.blake2b(digest_size=8,
                        key=(seed & (2**64 - 1)).to_bytes(8, "little"))
    h.update(index.to_bytes(8, "little", signed=True))
    return h


# the sample indices the uniforms can hash: 8 bytes, signed
_INDEX_RANGE = range(-2**63, 2**63)


def _check_index(name: str, value: int) -> None:
    if value not in _INDEX_RANGE:
        raise ValueError(f"{name} must lie in [-2**63, 2**63), got {value}")


def _uniform(seed: int, index: int, *tokens) -> float:
    """Deterministic uniform in [0,1) keyed by (seed, sample index, tokens).

    The 53 high bits of the 8-byte keyed blake2b digest of the sample index
    (8 bytes, little-endian, signed) followed by repr(t) + "\\x1f" for each
    token.  The keyed state of (seed, sample index) is built once and copied,
    and the tokens are hashed in one update of the same bytes.
    """
    h = _keyed_state(seed, index).copy()
    h.update((("%r\x1f" * len(tokens)) % tokens).encode())
    return (int.from_bytes(h.digest(), "little") >> 11) * 2.0**-53


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

# (scale, level) -> the occupation ratio of each index tuple of the level
_Ratios = Callable[[int, list], list]


def _ratio_lookup(sys: TruncatedSystem) -> _Ratios:
    """The (scale, level) -> occupation ratios lookup of a truncated system,
    one ratio per index tuple of the level, in its order.

    Scale lane (the model is scale-wise constant in the window): one
    `sys.rho` per scale, taken on the scale's first block in the window.
    Block lane: `sys.rho` of each block, computed on its first visit and kept.
    """
    window = sys.window
    if sys.model.homogeneous_within(window):
        by_scale = {}
        for j in range(window.scale, -sys.depth - 1, -1):
            shift = sys.geo.M ** (window.scale - j)
            by_scale[j] = sys.rho(Block(j, tuple(m * shift for m in window.index)))
        return lambda scale, level: [by_scale[scale]] * len(level)
    memo: dict = {}

    def block_rho(scale: int, m: tuple) -> float:
        r = memo.get((scale, m))
        if r is None:
            r = memo[scale, m] = sys.rho(Block(scale, m))
        return r
    return lambda scale, level: [block_rho(scale, m) for m in level]


def _sample_topdown(ratios: _Ratios, geo: Geometry, window: Block, depth: int,
                    seed: int, index: int) -> list[tuple[int, tuple]]:
    """One top-down draw: the occupied (scale, index) pairs, sorted as their
    `Block`s sort.

    Walks the levels of `blocks.subtree_levels` from the window down to
    scale -depth, a whole level per call of its filter.  Each visited block
    draws one uniform and is occupied when it falls below its entry of
    `ratios(scale, level)`, which prunes its subtree; otherwise its children
    are visited on the next level.  Raises IndexRangeError before drawing
    when a bottom-scale index would reach INDEX_LIMIT.
    """
    occupied: list[tuple[int, tuple]] = []

    def vacant(scale: int, level: list) -> list:
        keep = []
        for m, r in zip(level, ratios(scale, level)):
            if _uniform(seed, index, "occ", scale, m) < r:
                occupied.append((scale, m))     # prunes the subtree
            else:
                keep.append(m)
        return keep

    bottom = -depth
    vacant(bottom, subtree_levels(window, bottom, geo, vacant)[-1])
    occupied.sort()
    return occupied


def _finite_sampler(model: ActivityModel, window: Block,
                    depth: int) -> Callable[[int, int], Configuration]:
    """`draw(seed, index)`: draws from the law of the doubly truncated system
    that share one `TruncatedSystem` and one ratio lookup, built here."""
    ratios = _ratio_lookup(TruncatedSystem(model, window, depth))
    geo = model.geometry

    def draw(seed: int, index: int) -> Configuration:
        pairs = _sample_topdown(ratios, geo, window, depth, seed, index)
        return _make_config(starmap(Block, pairs), window, depth, seed, geo)
    return draw


def sample_gibbs(model: ActivityModel, window: Block, depth: int, seed: int,
                 index: int = 0) -> Configuration:
    """One draw from the law of the doubly truncated system.

    Top-down: occupy each visited block with its occupation ratio (computed
    from the truncated activity, so the sampled law is exactly the truncated
    one); recurse into the children otherwise.
    """
    _check_index("index", index)
    return _finite_sampler(model, window, depth)(seed, index)


def sample_mandelbrot(p: float, geo: Geometry, window: Block, depth: int,
                      seed: int, index: int = 0) -> Configuration:
    """Truncated fractal percolation: constant retention probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    _check_system(geo, window, depth)
    _check_index("index", index)
    pairs = _sample_topdown(lambda scale, level: [p] * len(level), geo, window,
                            depth, seed, index)
    return _make_config(starmap(Block, pairs), window, depth, seed, geo)


def sample_bernoulli_max(ratios: dict[Block, float], geo: Geometry,
                         window: Block, depth: int, seed: int,
                         index: int = 0) -> Configuration:
    """Cross-validation sampler: independent Bernoulli draws on every block,
    keeping only the maximal occupied ones.  Distributionally identical to
    the pruned top-down sampler for the same ratios."""
    occupied = [b for b, r in ratios.items()
                if _uniform(seed, index, "occ", b.scale, b.index) < r]
    occ = {(b.scale, b.index) for b in occupied}
    cleared: dict = {}
    maximal = [b for b in occupied
               if _walk_up(b.scale, b.index, window.scale, geo.M, occ, cleared)[0] is None]
    return _make_config(maximal, window, depth, seed, geo)


def ancestor_chain_cdf(model: ActivityModel, window: Block,
                       depth: int) -> tuple[list[tuple[int, float]], float]:
    """Law of the lowest occupied strict ancestor of the window.

    Returns ([(scale, prob)], p_none) with p(k) = rho_k * prod_{l>k}(1-rho_l)
    and p_none the convergent product of (1-rho_l), over the ancestor chain
    of `analytics._ancestor_chain`, the one the infinite-volume marginals use.
    """
    _require_scalewise(model, "scale profile")
    j0 = window.scale
    prof, j_cut = _ancestor_chain(model, j0, depth)
    log_none_above = 0.0
    rows = []
    for k in range(j_cut, j0, -1):
        lzh = prof.log_zhat[k]
        if lzh == -math.inf:
            rows.append((k, 0.0))
            continue
        log_rho = lzh - prof.log1p_zhat[k]
        rows.append((k, math.exp(log_rho + log_none_above)))
        log_none_above += -prof.log1p_zhat[k]
    p_none = math.exp(log_none_above)
    rows.reverse()
    return rows, p_none


def _infinite_sampler(model: ActivityModel, window: Block,
                      depth: int) -> Callable[[int, int], Configuration]:
    """`draw(seed, index)`: draws from the infinite-volume measure, seen
    through a window, that share one certificate and one ancestor-chain law.

    Condition (ii), the system and the chain law are checked and built here,
    once; the finite sampler inside the window is built on the first draw
    that no ancestor covers.
    """
    _require_condition_ii(model, "infinite-volume sampling")
    geo = model.geometry
    _check_system(geo, window, depth)
    rows, p_none = ancestor_chain_cdf(model, window, depth)
    finite: Optional[Callable[[int, int], Configuration]] = None

    def draw(seed: int, index: int) -> Configuration:
        nonlocal finite
        u = _uniform(seed, index, "chain", window.scale, window.index)
        acc = p_none
        if u < acc:
            if finite is None:
                finite = _finite_sampler(model, window, depth)
            return finite(seed, index)
        for k, pk in rows:
            acc += pk
            if u < acc:
                return _make_config([], window, depth, seed, geo, covered=k)
        return _make_config([], window, depth, seed, geo, covered=rows[-1][0])
    return draw


def sample_gibbs_infinite(model: ActivityModel, window: Block, depth: int,
                          seed: int, index: int = 0) -> Configuration:
    """One draw from the infinite-volume measure, seen through a window.

    First inverts the CDF of the lowest occupied strict ancestor of the
    window; when an ancestor is occupied the draw reports only the covering
    scale, otherwise the finite sampler runs inside the window.
    """
    _check_index("index", index)
    return _infinite_sampler(model, window, depth)(seed, index)


# ---------------------------------------------------------------------------
# batch estimation
# ---------------------------------------------------------------------------

@dataclass
class SampleBatch:
    """Aggregated hit counts over N independent configurations."""

    count: int
    probe_hits: dict[str, int]
    empty_count: int
    probes: dict[str, tuple] = field(default_factory=dict)

    def estimate(self, probe_id: str) -> tuple[float, float]:
        """(frequency, binomial standard error) for a probe."""
        k, n = self.probe_hits[probe_id], self.count
        p = k / n
        return p, math.sqrt(p * (1 - p) / n)

    def merge(self, other: "SampleBatch") -> "SampleBatch":
        hits = {k: v + other.probe_hits[k] for k, v in self.probe_hits.items()}
        return SampleBatch(self.count + other.count, hits,
                           self.empty_count + other.empty_count, self.probes)

    def to_csv_rows(self) -> list[dict]:
        rows = []
        for pid in sorted(self.probe_hits):
            est, err = self.estimate(pid)
            rows.append({"probe": pid, "hits": self.probe_hits[pid],
                         "N": self.count, "estimate": est, "stderr": err})
        rows.append({"probe": "__empty__", "hits": self.empty_count,
                     "N": self.count, "estimate": self.empty_count / self.count,
                     "stderr": math.sqrt(max(self.empty_count / self.count
                                             * (1 - self.empty_count / self.count), 0.0)
                                         / self.count)})
        return rows


def estimate(model: ActivityModel, window: Block, depth: int, N: int,
             probes: dict[str, Iterable[Block]], seed: int,
             start_index: int = 0) -> SampleBatch:
    """N independent draws with per-probe hit counts and an emptiness counter.

    Each draw is keyed by its absolute sample index, so splitting [0, N) into
    chunks (via `start_index`) and merging reproduces the serial result
    exactly.  A draw is kept as the set of its occupied (scale, index) pairs
    and a probe hits when its pairs, as a frozenset, are a subset of it: an
    empty probe hits every draw, and a block outside the system none.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_index("start_index", start_index)
    _check_index("start_index + N - 1", start_index + N - 1)
    probes = {pid: tuple(sorted(bs)) for pid, bs in probes.items()}
    wanted = [(pid, frozenset((b.scale, b.index) for b in bs))
              for pid, bs in probes.items()]
    ratios = _ratio_lookup(TruncatedSystem(model, window, depth))
    geo = model.geometry
    hits = {pid: 0 for pid in probes}
    empty = 0
    for i in range(start_index, start_index + N):
        got = set(_sample_topdown(ratios, geo, window, depth, seed, i))
        if not got:
            empty += 1
        for pid, want in wanted:
            if want <= got:
                hits[pid] += 1
    return SampleBatch(N, hits, empty, probes)


def estimate_chunked(model: ActivityModel, window: Block, depth: int, N: int,
                     probes: dict[str, Iterable[Block]], seed: int,
                     chunks: int = 1) -> SampleBatch:
    """Chunked batch estimation; the aggregate is independent of `chunks`."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    sizes = [N // chunks + (1 if i < N % chunks else 0) for i in range(chunks)]
    out: Optional[SampleBatch] = None
    start = 0
    for size in sizes:
        if size == 0:
            continue
        b = estimate(model, window, depth, size, probes, seed, start_index=start)
        out = b if out is None else out.merge(b)
        start += size
    assert out is not None
    return out
