"""Exact samplers for the hierarchical measure and fractal percolation.

All randomness comes from a counter-based generator: a keyed blake2b hash of
(seed, sample index, block) mapped to a uniform in [0,1).  Draws are therefore
a pure function of their coordinates, so serial and parallel runs, and any
split of a batch into sample-index ranges, produce bit-identical results.

The top-down walk runs a level at a time, from the window down, on the
index tuples of `blocks.subtree_levels`: each call of its level filter draws
the uniforms of one level, reads that level's occupation ratios in one call
of `TruncatedSystem.level_rhos`, which picks the lane, and returns the
vacant tuples, whose children form the next level.  A draw is the sorted
list of its occupied (scale, index) pairs, with index a plain int tuple: the
uniforms hash repr, so the walk starts from the window with a plain int
scale and index (see `_plain`).  Every sampler but the reference
`sample_bernoulli_max` draws through `_FiniteDraws`, from a level read of
ratios to a validated `Configuration`, which holds a `Block` only for the
occupied pairs; an infinite-volume draw that no ancestor covers reads the
finite entry of the memo.  `estimate` builds no `Block`, and matches each
probe, a frozenset of pairs, against the set of a draw's pairs.

A draw costs one uniform per visited block, which copies the cached hash
state of its level's seed, sample index, tag and scale and hashes the repr
of the block's index tuple (see `_uniform`).  A `Configuration` adds one
`Block` per occupied block and one validation walk up the scales, the
upward walker `blocks.ancestor_levels`, of O(distinct ancestors of the
occupied blocks) set operations (see `Configuration.validate`); the sampler
forms no parent or descendant index of its own.  The system, its occupation
ratios and, in infinite volume, the chain law are not part of that cost:
they are fixed by (model, window, depth), so `_draw_function` builds them
on the first draw and keeps them in the model's analytics memo for every
later one, from any of `sample_gibbs`, `sample_gibbs_infinite`, `estimate`
or the command line.  An infinite-volume draw is certified by the one call
of `ancestor_chain_cdf` that builds its chain law.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, groupby, starmap
from typing import Callable, Iterable, Optional

from .blocks import (Block, Geometry, ancestor_levels, ancestors, format_block,
                     subtree_levels)
from .activities import ActivityModel
from .analytics import (CHAIN_SCALES, TruncatedSystem, _ancestor_chain,
                        _check_system, _log_one_minus_rho, _log_rho, _memoized,
                        _require_condition_ii, _system_size)


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

        Hard-core means no block has a strict ancestor among the blocks.  One
        bottom-up walk over the scales, `blocks.ancestor_levels`, checks it
        for the whole configuration: a block that meets the strict ancestors
        of the blocks below it overlaps one of them, and at the window's
        scale those ancestors may be the window alone.  It costs O(distinct
        ancestors of the blocks) set operations.  Only a configuration it
        rejects has its blocks walked in order up their `blocks.ancestors`,
        so that the first block that fails is named, with its lowest strict
        ancestor among the blocks when they overlap.
        """
        if self.covered_by_ancestor is not None and self.blocks:
            raise InvalidConfiguration("covered configurations carry no blocks")
        levels: dict = {}
        for scale, group in groupby(self.blocks, _SCALE):
            levels.setdefault(scale, set()).update(map(_INDEX, group))
        if sum(map(len, levels.values())) != len(self.blocks):
            raise InvalidConfiguration("a block occurs twice")
        top = self.window.scale
        if all(-self.depth <= scale <= top for scale in levels):
            try:
                for scale, above in ancestor_levels(levels, top, geo):
                    if not above.isdisjoint(levels.get(scale, ())):
                        break
                else:
                    if above | levels.get(top, set()) <= {self.window.index}:
                        return
            except ValueError:      # index tuples of unequal length or of length 0
                pass
        members = set(self.blocks)
        for b in self.blocks:
            chain = ancestors(b, top, geo)
            end = chain[-1] if chain else b
            if b.scale < -self.depth or b.scale > top or end.index != self.window.index:
                raise InvalidConfiguration(f"block {b} outside the truncated system")
            hit = next((a for a in chain if a in members), None)
            if hit is not None:
                raise InvalidConfiguration(f"blocks {hit} and {b} overlap")

    def to_json_obj(self) -> dict:
        obj = {"window": format_block(self.window), "depth": self.depth,
               "seed": self.seed,
               "blocks": [format_block(b) for b in self.blocks]}
        if self.covered_by_ancestor is not None:
            obj["covered_by_ancestor"] = self.covered_by_ancestor
        return obj


_SCALE = operator.attrgetter("scale")
_INDEX = operator.attrgetter("index")


def _make_config(blocks: Iterable[Block], window: Block, depth: int, seed: int,
                 geo: Geometry, covered: Optional[int] = None) -> Configuration:
    """The validated configuration of `blocks`, given in `Block` order."""
    cfg = Configuration(tuple(blocks), window, depth, seed, covered)
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


@functools.lru_cache(maxsize=64, typed=True)
def _prefix_state(seed: int, index: int, tag: str, scale: int):
    """A copy of the keyed state of (seed, index) that has also hashed the
    tokens `tag` and `scale`; callers hash copies of it, never the state
    itself.

    The cache compares tokens by value and type, so it tells apart 1, True
    and 1.0, whose repr differ.  It cannot tell apart (1,) and (True,), or
    0.0 and -0.0, so the index tuple is never a cache key (`_uniform`
    formats it on every call) and the samplers' scales are plain ints."""
    h = _keyed_state(seed, index).copy()
    h.update(("%r\x1f%r\x1f" % (tag, scale)).encode())
    return h


# the sample indices the uniforms can hash: 8 bytes, signed
_INDEX_RANGE = range(-2**63, 2**63)


def _check_index(name: str, value: int) -> None:
    if value not in _INDEX_RANGE:
        raise ValueError(f"{name} must lie in [-2**63, 2**63), got {value}")


def _uniform(seed: int, index: int, tag: str, scale: int, m: tuple) -> float:
    """Deterministic uniform in [0,1) keyed by (seed, sample index, tag,
    scale, index tuple m).

    The 53 high bits of the 8-byte keyed blake2b digest of the sample index
    (8 bytes, little-endian, signed) followed by repr(t) + "\\x1f" for each
    token t of (tag, scale, m).  The state that has hashed the tag and scale
    is read from `_prefix_state`, which hashes it once for all the calls
    that share it (a level of a walk shares its seed, sample index, tag and
    scale), so a call copies it and formats only the block's index tuple.
    """
    h = _prefix_state(seed, index, tag, scale).copy()
    h.update(("%r\x1f" % (m,)).encode())
    return (int.from_bytes(h.digest(), "little") >> 11) * 2.0**-53


def _plain(b: Block) -> Block:
    """`b` with a plain int scale and index components.  The uniforms hash
    repr, so equal blocks such as Block(1, (True,)) and Block(1, (1,)) must
    reach them alike: the walk and the chain uniform hash only plain ints.
    A component that is not an integer, such as 0.5 or 1.0, is refused."""
    try:
        return Block(operator.index(b.scale), tuple(map(operator.index, b.index)))
    except TypeError:
        raise ValueError(f"block {b} needs an integer scale and index") from None


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

# (scale, level) -> the occupation ratio of each index tuple of the level
_Ratios = Callable[[int, list], list]


def _sample_topdown(ratios: _Ratios, geo: Geometry, window: Block, depth: int,
                    seed: int, index: int) -> list[tuple[int, tuple]]:
    """One top-down draw: the occupied (scale, index) pairs, sorted as their
    `Block`s sort.

    Walks the levels of `blocks.subtree_levels` from the window down to
    scale -depth, a whole level per call of its filter.  Each visited block
    draws one uniform and is occupied when it falls below its entry of
    `ratios(scale, level)`, which prunes its subtree; otherwise its children
    are visited on the next level.  `window` has a plain int scale and
    index (see `_plain`).  Raises IndexRangeError before drawing when a
    bottom-scale index would reach INDEX_LIMIT.
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


class _FiniteDraws:
    """The draws of one doubly truncated system, all read from one level
    read of its ratios: `pairs(seed, index)` is a draw's sorted occupied
    (scale, index) pairs, and a call is the draw as a validated
    `Configuration`.  `window` has a plain int scale and index (see `_plain`)."""

    def __init__(self, ratios: _Ratios, geo: Geometry, window: Block, depth: int):
        self.geo, self.window, self.depth = geo, window, depth
        self.pairs = functools.partial(_sample_topdown, ratios, geo, window, depth)

    def __call__(self, seed: int, index: int) -> Configuration:
        return _make_config(starmap(Block, self.pairs(seed, index)), self.window,
                            self.depth, seed, self.geo)


def _draw_function(model: ActivityModel, window: Block, depth: int,
                   infinite: bool = False) -> Callable[[int, int], Configuration]:
    """`draw(seed, index)` from the law of the doubly truncated system or,
    when `infinite`, from the infinite-volume measure seen through `window`:
    built once per (model, window, depth) and kept in the model's memo (see
    the `analytics` module docstring).  Key ("finite", window, depth) holds a
    `_FiniteDraws` over one `TruncatedSystem`'s `level_rhos`, weighing the
    entries `analytics._system_size` counts, which refuses an oversized block
    lane before any build; key ("infinite", window, depth) holds the
    certified chain law, and each of its draws that no ancestor covers reads
    the finite entry from here.  A refusal is not kept.
    """
    geo = model.geometry
    if not infinite:
        def build_finite() -> _FiniteDraws:
            plain = _plain(window)
            return _FiniteDraws(TruncatedSystem(model, plain, depth).level_rhos,
                                geo, plain, depth)
        return _memoized(model, ("finite", window, depth),
                         _system_size(model, window, depth)[1], build_finite)

    def build_infinite() -> Callable[[int, int], Configuration]:
        plain = _plain(window)
        rows, p_none = ancestor_chain_cdf(model, window, depth)
        cdf = list(accumulate((pk for _, pk in rows), initial=p_none))

        def draw(seed: int, index: int) -> Configuration:
            # the first i with u < cdf[i]: no ancestor occupied at 0, else row i - 1
            i = bisect_right(cdf, _uniform(seed, index, "chain", plain.scale, plain.index))
            if i == 0:
                return _draw_function(model, window, depth)(seed, index)
            return _make_config([], plain, depth, seed, geo, covered=rows[min(i, len(rows)) - 1][0])
        return draw
    # the chain's rows lie above the window, up to CHAIN_SCALES above scale
    # max(window.scale, 0), and p_none
    chain = max(window.scale, 0) + CHAIN_SCALES - window.scale + 1
    return _memoized(model, ("infinite", window, depth), chain, build_infinite)


def sample_gibbs(model: ActivityModel, window: Block, depth: int, seed: int,
                 index: int = 0) -> Configuration:
    """One draw from the law of the doubly truncated system.

    Top-down: occupy each visited block with its occupation ratio (computed
    from the truncated activity, so the sampled law is exactly the truncated
    one); recurse into the children otherwise.  The system and its ratios
    are built on the first draw from (model, window, depth) and kept on the
    model, so repeated draws pay only the walk.
    """
    _check_index("index", index)
    return _draw_function(model, window, depth)(seed, index)


def sample_mandelbrot(p: float, geo: Geometry, window: Block, depth: int,
                      seed: int, index: int = 0) -> Configuration:
    """Truncated fractal percolation: constant retention probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    _check_system(geo, window, depth)
    _check_index("index", index)
    return _FiniteDraws(lambda scale, level: [p] * len(level), geo, _plain(window),
                        depth)(seed, index)


def sample_bernoulli_max(ratios: dict[Block, float], geo: Geometry,
                         window: Block, depth: int, seed: int,
                         index: int = 0) -> Configuration:
    """Cross-validation sampler: independent Bernoulli draws on every block,
    keeping only the maximal occupied ones.  Identical draw for draw to the
    pruned top-down sampler for the same ratios, seed and index: both occupy
    the maximal blocks whose "occ" uniform falls below their ratio."""
    _check_index("index", index)
    window = _plain(window)
    occupied = [b for b, r in zip(map(_plain, ratios), ratios.values())
                if _uniform(seed, index, "occ", b.scale, b.index) < r]
    members = set(occupied)
    maximal = [b for b in occupied if members.isdisjoint(ancestors(b, window.scale, geo))]
    return _make_config(sorted(maximal), window, depth, seed, geo)


def ancestor_chain_cdf(model: ActivityModel, window: Block,
                       depth: int) -> tuple[list[tuple[int, float]], float]:
    """Law of the lowest occupied strict ancestor of the window.

    Returns ([(scale, prob)], p_none) with p(k) = rho_k * prod_{l>k}(1-rho_l)
    and p_none the convergent product of (1-rho_l), over the ancestor chain
    of `analytics._ancestor_chain`, the one the infinite-volume marginals use.
    Refused unless condition (ii) is certified; then the system is checked.
    """
    _require_condition_ii(model, "infinite-volume sampling")
    _check_system(model.geometry, window, depth)
    j0 = window.scale
    prof, j_cut = _ancestor_chain(model, j0, depth)
    log_none_above = 0.0
    rows = []
    for k in range(j_cut, j0, -1):
        lzh = prof.log_zhat[k]
        rows.append((k, math.exp(_log_rho(lzh) + log_none_above)))
        log_none_above += _log_one_minus_rho(lzh)
    p_none = math.exp(log_none_above)
    rows.reverse()
    return rows, p_none


def sample_gibbs_infinite(model: ActivityModel, window: Block, depth: int,
                          seed: int, index: int = 0) -> Configuration:
    """One draw from the infinite-volume measure, seen through a window.

    First inverts the CDF of the lowest occupied strict ancestor of the
    window; when an ancestor is occupied the draw reports only the covering
    scale, otherwise the finite sampler runs inside the window.  The chain
    law and the finite system are built on the first draw from (model,
    window, depth) and kept on the model.
    """
    _check_index("index", index)
    return _draw_function(model, window, depth, infinite=True)(seed, index)


# ---------------------------------------------------------------------------
# batch estimation
# ---------------------------------------------------------------------------

@dataclass
class SampleBatch:
    """Aggregated hit counts over N independent configurations."""

    count: int
    probe_hits: dict[str, int]
    empty_count: int

    def estimate(self, probe_id: str) -> tuple[float, float]:
        """(frequency, binomial standard error) for a probe."""
        k, n = self.probe_hits[probe_id], self.count
        p = k / n
        return p, math.sqrt(p * (1 - p) / n)

    def merge(self, other: "SampleBatch") -> "SampleBatch":
        """The batch of both draw ranges: for batches drawn over disjoint
        `start_index` ranges, e.g. in separate processes, it equals the one
        batch drawn over their union.  Batches of other probe ids are refused."""
        if self.probe_hits.keys() != other.probe_hits.keys():
            raise ValueError(f"cannot merge batches of probe ids {sorted(self.probe_hits)} "
                             f"and {sorted(other.probe_hits)}")
        hits = {k: v + other.probe_hits[k] for k, v in self.probe_hits.items()}
        return SampleBatch(self.count + other.count, hits,
                           self.empty_count + other.empty_count)


def estimate(model: ActivityModel, window: Block, depth: int, N: int,
             probes: dict[str, Iterable[Block]], seed: int,
             start_index: int = 0) -> SampleBatch:
    """N independent draws with per-probe hit counts and an emptiness counter.

    Each draw is keyed by its absolute sample index, so splitting [0, N) into
    ranges (via `start_index`) and combining their batches with
    `SampleBatch.merge` reproduces the serial result exactly; every range
    walks the one system that the draws of (model, window, depth) share.  A
    draw is kept as the set of its occupied (scale, index) pairs and a probe
    hits when its pairs, as a frozenset, are a subset of it: an empty probe
    hits every draw, and a block outside the system none.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_index("start_index", start_index)
    _check_index("start_index + N - 1", start_index + N - 1)
    wanted = [(pid, frozenset((b.scale, b.index) for b in bs))
              for pid, bs in probes.items()]
    walk = _draw_function(model, window, depth).pairs
    hits = {pid: 0 for pid, _ in wanted}
    empty = 0
    for i in range(start_index, start_index + N):
        got = set(walk(seed, i))
        if not got:
            empty += 1
        for pid, want in wanted:
            if want <= got:
                hits[pid] += 1
    return SampleBatch(N, hits, empty)
