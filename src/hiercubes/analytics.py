"""Exact log-space analytics for the hierarchical hard-core gas.

Everything extensive lives in log domain.  Inhomogeneous models use a block
lane, capped in size: one pass per level over the (scale, index) tuples of
the system, bottom level first, reads the level's activities in one
`level_log_activities` call and tabulates log Xi and log zhat of every block.
`_system_size` alone picks a system's lane, counts its entries and caps it.
For scale-wise constant activities z_j the tree recursion is one scalar
recursion, built only by `_build_profile` into a `ScaleProfile` that the
scale lane of `TruncatedSystem` and every infinite-volume quantity read.
Its only read of the activity is the model's list `log_activities(j_lo,
j_hi)`.  Its float order, from log Xi = p = 0 below the first scale:

    below      = M**d * log Xi_{j-1}
    log Xi_j   = logaddexp(log z_j, below)
    log zhat_j = log z_j - below
    p_j        = p_{j-1} + log(1 + zhat_j) / M**(d j)

with M**(d j) read from `Geometry.volumes` (blocks), the one source of the
volume and its log; where it underflows to 0.0 the term is exp(log log(1 +
zhat_j) - `Geometry.log_volume(j)`), saturating.  So rho_j = zhat_j / (1 +
zhat_j) = z_j / Xi_j, built from log zhat only by `_log_rho` and
`_log_one_minus_rho`.  p_j equals M**(-d j) log Xi_j but is accumulated, not
divided out, so it saturates where log Xi_j overflows.  `_log_R` folds the
`_R_terms` of a profile into R_j = prod_{k >= j} (1 + zhat_k) - 1;
`decay_profile` computes the terms once per call and folds a suffix per row.

The infinite-volume ancestor chain of a block is cut by `_ancestor_chain`
alone: one profile from -depth up to CHAIN_SCALES above the block or above
scale 0, whichever is higher (the chain of scale 0 is the one condition (ii)
certifies), cut just above the highest scale whose zhat reaches
CHAIN_CUT / e.  The marginals and the sampler's law of the lowest occupied
ancestor both read it.  The strict ancestors of a block set are read by
`_strict_ancestors` alone, in `Block` order, so every sum over them runs in
that order.  Every public infinite-volume reader calls the gate
`_require_condition_ii` on entry; only `scale_profile` and
`pressure_profile` read a profile uncertified.

What the analytics derive from a model at more cost than a lookup is
computed once per model instance and kept on it, by `_memoized` alone, in a
plain dict: per start scale j_lo the longest profile `_build_profile(model,
j_lo, j_hi)` asked for (key ("profile", j_lo)), the
start scale found by walking down (key "start"), the condition (ii) verdict
(key "condition_ii") and the condition (i) verdict of a scan (key
"condition_i").  `sampler._draw_function` keeps a system's draw functions
here too (keys ("finite", window, depth) and ("infinite", window, depth)),
the infinite one reading the finite one here on each draw that needs it.
A profile up to a lower scale is read as a
prefix of the kept one, bit for bit the same, since the recursion at scale j
reads only the scales up to j; one up to a higher scale is built and
replaces it.  The bound is MEMO_SCALES memoized scales per model, the sum of
the entries' weights, each at least the number of scales or blocks it
tabulates, since that sets the memory: j_hi - j_lo + 1 for a profile, the
system's scales or blocks, as `_system_size` counts them, for a finite draw
function, a bound on the chain's rows alone for an infinite one, and one
for any other entry.  The memo keeps no recency order: an entry that would
take the sum past the bound clears the memo first, so a full memo starts
over, and an entry heavier than the bound (a profile longer than it, or a
block-lane system of more blocks) is not kept.
The clearing guards memory, not speed: a model's memo in the benchmark
workloads holds a few entries and a few hundred scales.  An exception is
never kept, so neither is a refusal, and a model without `__dict__` is not
memoized.  Threads may share a model: two that miss one key both build it
and either value is kept, and a block-lane system's `level_rhos` fills its
dict on first visit, each thread writing the same ratio.  The memo's
profiles are shared by every reader and are read only: `scale_profile`
returns a copy, so edits to its result never reach the memo.
"""

from __future__ import annotations

import math
import operator
import threading
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from itertools import chain, repeat
from typing import Callable, Optional

from .blocks import (Block, Geometry, ancestor_levels, children, contains,
                     covering_block, descendants, lcs, least_indices, overlaps,
                     subtree_levels)
from .activities import (ActivityModel, EffectiveDesign, Explicit, Formula,
                         Homogeneous, Parametric, ScaleTruncated,
                         VolumeTruncated)
from .logreal import (LogReal, log1p_exp, log_expm1, logaddexp, logsumexp_iter,
                      ordered_sum)

DEFAULT_TOL = 1e-12
LIMIT_MAX_DEPTH = 4096   # deepest truncation partition_function_limit evaluates
BLOCK_LANE_MAX_BLOCKS = 2**16   # most bottom blocks below a block-lane window
CHAIN_CUT = 1e-14   # ancestor zhat mass left beyond the infinite-volume chain
CHAIN_SCALES = 80   # scales of the chain profile above max(block scale, 0)
# work limits of the condition (i) scan of inhomogeneous activities
SCAN_NODE_BUDGET = 2_000_000
SCAN_LEVELS = 10
SCAN_MAX_DEPTH = 24
SERIES_MAX_TERMS = 2000   # most terms series_summand_bounds sums
CRITICAL_BRACKET = (-50.0, 50.0)   # the mu range critical_mu bisects
MEMO_SCALES = 1024   # most profile scales the memo keeps per model


class UncertifiedComputation(RuntimeError):
    """An infinite-volume quantity was requested without the needed certificate."""


# ---------------------------------------------------------------------------
# the per-model memo
# ---------------------------------------------------------------------------

_MEMO_ATTR = "_analytics_memo"
_MEMO_LOCK = threading.Lock()   # models are read concurrently; the memo is written


def _memoized(model: ActivityModel, key, weight: int, build: Callable, *args):
    """The value kept in the model's memo (see the module docstring) under
    `key` if it weighs at least `weight`, else `build(*args)`, which
    replaces it and weighs `weight`: under one key a heavier value serves
    every lighter request, as a longer profile holds every shorter one.

    The memo, key -> (value, weight), is cleared first if the other
    entries' weights plus this one would pass MEMO_SCALES; a value heavier
    than that, or weighing nothing, is returned but not kept.  The lock is
    held from the sum of the weights to the write.
    """
    state = getattr(model, "__dict__", None)
    if state is None:
        return build(*args)
    memo = state.get(_MEMO_ATTR)
    if memo is None:
        memo = state.setdefault(_MEMO_ATTR, {})
    else:
        hit = memo.get(key)
        if hit is not None and hit[1] >= weight:
            return hit[0]
    value = build(*args)
    if 0 < weight <= MEMO_SCALES:
        with _MEMO_LOCK:
            if sum(w for k, (_, w) in memo.items() if k != key) + weight > MEMO_SCALES:
                memo.clear()
            memo[key] = value, weight
    return value


# ---------------------------------------------------------------------------
# truncated finite systems (volume window + downward depth)
# ---------------------------------------------------------------------------

def _log_rho(lzh: float) -> float:
    """log rho = log(zhat / (1 + zhat)) from log zhat."""
    return -math.inf if lzh == -math.inf else lzh - log1p_exp(lzh)


def _log_one_minus_rho(lzh: float) -> float:
    """log(1 - rho) = -log(1 + zhat) from log zhat."""
    return 0.0 if lzh == -math.inf else -log1p_exp(lzh)


def _check_system(geo: Geometry, window: Block, depth: int) -> None:
    """Raise ValueError unless `window` down to scale -depth is a system of `geo`."""
    if window.d != geo.d:
        raise ValueError(f"window {window} has dimension {window.d}, not {geo.d}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if -depth > window.scale:
        raise ValueError(f"depth {depth} does not reach below window scale {window.scale}")


def _system_size(model: ActivityModel, window: Block, depth: int,
                 what: str = "block lane") -> tuple[bool, int]:
    """(scale-wise, entries) of the system of `window` down to scale -depth:
    whether the model is scale-wise constant in the window (the scale lane)
    and the system's scales there, else its blocks.  After the system check,
    a block lane of more than BLOCK_LANE_MAX_BLOCKS bottom blocks, counted
    from the window's scale, raises UncertifiedComputation naming `what`."""
    _check_system(model.geometry, window, depth)
    levels = window.scale + depth
    if model.homogeneous_within(window):
        return True, levels + 1
    B = model.geometry.branching
    if B ** levels > BLOCK_LANE_MAX_BLOCKS:
        raise UncertifiedComputation(
            f"{what} refused: depth {depth} below {window} needs {B}**{levels} bottom "
            f"blocks, more than {BLOCK_LANE_MAX_BLOCKS} (BLOCK_LANE_MAX_BLOCKS)")
    return False, (B ** (levels + 1) - 1) // (B - 1)


class TruncatedSystem:
    """The finite system of blocks inside `window` at scales >= -depth.

    Provides partition functions, effective activities and occupation ratios
    of the doubly truncated activity z_window^(depth).  Read from a table of
    every block filled bottom-up, one pass per level over index tuples, or,
    when the model is scale-wise constant inside the window, from one scale
    profile from -depth up to the window, as `_system_size` decides.
    """

    def __init__(self, model: ActivityModel, window: Block, depth: int):
        self._scalewise = _system_size(model, window, depth)[0]
        self.model = model
        self.window = window
        self.depth = depth
        self.geo = model.geometry

    def in_system(self, b: Block) -> bool:
        return b.scale >= -self.depth and contains(self.window, b, self.geo)

    def log_activity(self, b: Block) -> float:
        if not self.in_system(b):
            return -math.inf
        return self.model.log_activity(b)

    @cached_property
    def _profile(self) -> "ScaleProfile":
        """The scale lane, from -depth up to the window (read directly: a volume
        truncation, scale-wise constant in its window, has no `scale_profile`)."""
        return _scale_profile(self.model, self.window.scale, self.depth)

    @cached_property
    def _table(self) -> dict[tuple[int, tuple[int, ...]], tuple[float, float]]:
        """The block lane: (scale, index) -> (log Xi, log zhat) of every block
        of the system, one pass per level over index tuples.

        The levels are those of `blocks.subtree_levels`, so the children of
        the i-th block of a level are the slice [i*B:(i+1)*B] of the level
        below (B = M**d); they are filled bottom-up.  The activities of a
        level are one `level_log_activities` read of the model.  Raises
        IndexRangeError first when a bottom-scale index would reach
        INDEX_LIMIT.
        """
        bottom, B = -self.depth, self.geo.branching
        levels = subtree_levels(self.window, bottom, self.geo)
        level_log_activities = self.model.level_log_activities
        table = {}
        xi: list[float] = []
        for scale, level in enumerate(reversed(levels), bottom):
            lz = level_log_activities(scale, level)
            if scale == bottom:
                below, lzh = [0.0] * len(lz), lz
            else:
                below = xi[::B]
                for k in range(1, B):   # children summed left to right
                    below = list(map(operator.add, below, xi[k::B]))
                # -inf also when a child's log Xi is +inf
                lzh = [z - c for z, c in zip(lz, below)]
            xi = list(map(logaddexp, lz, below))
            table.update(zip(zip(repeat(scale), level), zip(xi, lzh)))
        return table

    def _values(self, b: Block) -> tuple[float, float]:
        """(log Xi, log zhat) of b.  The block lane reads its table for a
        block at a scale of the system.  Outside the system zhat is 0, and Xi
        is the window's for a block containing the window and 1 for any other."""
        if b.scale < -self.depth:
            return 0.0, -math.inf
        if not self._scalewise and b.scale <= self.window.scale:
            # the table holds every block of the window at these scales
            return self._table.get((b.scale, b.index), (0.0, -math.inf))
        if not overlaps(self.window, b, self.geo):
            return 0.0, -math.inf
        if b.scale > self.window.scale:
            return self._values(self.window)[0], -math.inf
        return self._profile.log_xi[b.scale], self._profile.log_zhat[b.scale]

    def log_xi(self, b: Block) -> float:
        """log of the partition function of the subtree below b."""
        return self._values(b)[0]

    def log_zhat(self, b: Block) -> float:
        """log effective activity: z(b) minus the children's log Xi."""
        return self._values(b)[1]

    def log_rho(self, b: Block) -> float:
        """log occupation ratio, log(zhat / (1 + zhat)) = log(z / Xi_b)."""
        return _log_rho(self.log_zhat(b))

    def rho(self, b: Block) -> float:
        return math.exp(self.log_rho(b))

    def log_one_minus_rho(self, b: Block) -> float:
        """log(1 - rho) = -log(1 + zhat)."""
        return _log_one_minus_rho(self.log_zhat(b))

    @cached_property
    def _rhos(self) -> dict:
        """The ratios `level_rhos` keeps, by scale or by (scale, index)."""
        if not self._scalewise:
            return {}
        top, bottom = self.window.scale, -self.depth
        firsts = least_indices(self.window, bottom, self.geo)
        return {j: self.rho(Block(j, m)) for j, m in zip(range(top, bottom - 1, -1), firsts)}

    def level_rhos(self, scale: int, indices: list) -> list[float]:
        """The occupation ratio of each block (scale, index) for a list of
        index tuples of one level, in order, the sampler's level read: `rho`
        once per scale, on its first block in the window, in the scale lane,
        and once per block, on its first visit, in the block lane."""
        rhos = self._rhos
        if self._scalewise:
            return [rhos[scale]] * len(indices)
        out = []
        for m in indices:
            r = rhos.get((scale, m))
            if r is None:
                r = rhos[scale, m] = self.rho(Block(scale, m))
            out.append(r)
        return out

    def blocks(self) -> list[Block]:
        """All blocks of the system, sorted top scale first."""
        return descendants(self.window, -self.depth, self.geo)


def partition_function(model: ActivityModel, window: Block, depth: int) -> LogReal:
    """Xi of `window` for the doubly truncated activity, as a LogReal."""
    return LogReal(TruncatedSystem(model, window, depth).log_xi(window))


def effective_activity(model: ActivityModel, b: Block, depth: int) -> LogReal:
    """zhat(b) = z(b) / prod of the children's partition functions."""
    return LogReal(TruncatedSystem(model, b, depth).log_zhat(b))


def occupation_ratio(model: ActivityModel, b: Block, depth: int) -> float:
    """rho(b) in [0,1]; cross-checks the two defining formulas."""
    sys = TruncatedSystem(model, b, depth)
    via_zhat = math.exp(sys.log_rho(b))
    lz = sys.log_activity(b)
    via_xi = 0.0 if lz == -math.inf else math.exp(lz - sys.log_xi(b))
    if abs(via_zhat - via_xi) > 1e-12:
        raise AssertionError(
            f"occupation-ratio formulas disagree for {b}: {via_zhat} vs {via_xi}")
    return via_zhat


# ---------------------------------------------------------------------------
# the depth-doubling partition function limit
# ---------------------------------------------------------------------------

@dataclass
class LimitResult:
    value: LogReal
    converged: bool
    depth_used: int
    certificate: str = ""


def partition_function_limit(model: ActivityModel, window: Block) -> LimitResult:
    """Xi of `window` without downward truncation.

    Infinite in closed form where condition (i) fails (see
    `_downward_mass_diverges`).  Otherwise a model with a lowest active scale
    is evaluated once, at the depth that reaches it, where the truncation is
    exact; beyond LIMIT_MAX_DEPTH, or where `_system_size` refuses the block
    lane, the result is undecided, with nothing evaluated and the value the
    trivial lower bound Xi >= 1.  A model active at every scale below doubles
    the truncation depth until the log increments fall below DEFAULT_TOL; a
    log that saturates at +inf never does, and is undecided: divergence is
    not judged from its size.
    """
    if _downward_mass_diverges(model, window):
        return LimitResult(LogReal(math.inf), True, 0,
                           "closed-form tail: sum of activities below window diverges")

    def refusal(depth: int) -> Optional[str]:     # why `depth` is not evaluated
        if depth > LIMIT_MAX_DEPTH:
            return f"depth {depth} is past LIMIT_MAX_DEPTH = {LIMIT_MAX_DEPTH}"
        try:
            _system_size(model, window, depth)
        except UncertifiedComputation as exc:
            return str(exc)
        return None

    start = max(window.scale, 0) - window.scale  # reach at least the window scale
    lo = model.min_active_scale()
    if lo is not None:
        depth = max(1, start, -lo)
        if (why := refusal(depth)) is not None:
            return LimitResult(LogReal(0.0), False, 0,
                               f"undecided: lowest active scale {lo}: {why}")
        return LimitResult(LogReal(TruncatedSystem(model, window, depth).log_xi(window)),
                           True, depth,
                           f"exact: depth {depth} reaches the lowest active scale {lo}")
    prev, used, depth = 0.0, 0, max(1, start)
    while (why := refusal(depth)) is None:
        cur = TruncatedSystem(model, window, depth).log_xi(window)
        if used and abs(cur - prev) < DEFAULT_TOL:
            return LimitResult(LogReal(cur), True, depth,
                               "depth-doubling increments below tolerance")
        prev, used, depth = cur, depth, depth * 2
    return LimitResult(LogReal(prev), False, used, f"undecided: {why}")


def _unwrap(model: ActivityModel) -> tuple[ActivityModel, list[Block], bool]:
    """The model inside its truncations, the windows of its volume
    truncations (outermost first), and whether one truncates scales: the one
    walk over truncation layers, so no answer depends on their order."""
    windows, scale_truncated = [], False
    while isinstance(model, (VolumeTruncated, ScaleTruncated)):
        if isinstance(model, VolumeTruncated):
            windows.append(model.window)
        else:
            scale_truncated = True
        model = model.inner
    return model, windows, scale_truncated


def _downward_mass_diverges(model: ActivityModel, window: Block) -> bool:
    """Whether Xi of `window` is infinite in closed form: the model inside
    its truncations (from `_unwrap`), untruncated in scale, is a Homogeneous
    or Explicit activity failing condition (i), so every block has infinite
    Xi, and some block of the window's subtree, the window itself or a
    volume-truncation window inside it, lies inside every volume-truncation
    window.  A Formula's condition (i) scan is a heuristic and is not read."""
    inner, windows, scale_truncated = _unwrap(model)
    if scale_truncated or not isinstance(inner, (Homogeneous, Explicit)):
        return False
    geo = model.geometry
    return (check_condition_i(inner).status == "fails"
            and any(contains(window, b, geo) and all(contains(w, b, geo) for w in windows)
                    for b in [window, *windows]))


# ---------------------------------------------------------------------------
# homogeneous scale profiles (untruncated volume)
# ---------------------------------------------------------------------------

@dataclass
class ScaleProfile:
    """The scale recursion of a scale-wise constant activity (see the module
    docstring), with nothing active below scale j_lo.

    Arrays are indexed by scale j in [j_lo, j_hi].  `log_xi[j]` is the log
    partition function of a block of scale j; it saturates at +inf, where
    the effective activities above vanish.  `log_zhat[j]` is -inf when the
    activity vanishes at that scale.

    The maps of a profile read from the model's memo are shared by every
    reader of that model, must not be changed, and may run past j_hi (they
    are those of the longest profile kept); `scale_profile` returns a copy
    with maps of its own, indexed by [j_lo, j_hi] only.
    """

    geometry: Geometry
    j_lo: int
    j_hi: int
    log_z: dict[int, float]
    log_xi: dict[int, float]
    log_zhat: dict[int, float]
    log1p_zhat: dict[int, float]
    pressure_partial: dict[int, float]   # p_j, accumulated through scale j


_PROFILE_MAPS = ("log_z", "log_xi", "log_zhat", "log1p_zhat", "pressure_partial")


def _build_profile(model: ActivityModel, j_lo: int, j_hi: int) -> ScaleProfile:
    """The one scale recursion, from j_lo up to j_hi, for a model that is
    scale-wise constant on those scales.  Its only read of the activity is
    one `log_activities(j_lo, j_hi)` list."""
    geo, branching = model.geometry, model.geometry.branching
    log_z = dict(zip(range(j_lo, j_hi + 1), model.log_activities(j_lo, j_hi)))
    log_xi, log_zhat, log1p_zhat, p_partial = {}, {}, {}, {}
    xi = p = 0.0
    for (j, lz), vol in zip(log_z.items(), geo.volumes(j_lo, j_hi)):
        below = branching * xi
        if lz == -math.inf:
            xi, lzh, l1p = below, -math.inf, 0.0
        else:
            lzh = lz - below
            l1p = log1p_exp(lzh)
            # logaddexp(lz, below), sharing log1p_exp's log1p where lz <= below
            xi = below + l1p if lzh <= 0 else lz + math.log1p(math.exp(-lzh))
            if vol:
                p += l1p / vol
            elif l1p:   # M**(d j) underflows: the term from its log, saturating
                log_term = math.log(l1p) - geo.log_volume(j)
                p += math.exp(log_term) if log_term < 709 else math.inf
        log_xi[j] = xi
        log_zhat[j] = lzh
        log1p_zhat[j] = l1p
        p_partial[j] = p
    return ScaleProfile(geo, j_lo, j_hi, log_z, log_xi, log_zhat, log1p_zhat,
                        p_partial)


def scale_profile(model: ActivityModel, j_hi: int,
                  depth: Optional[int] = None) -> ScaleProfile:
    """The scale recursion of a scale-wise constant model up to scale j_hi.

    `depth` bounds the scales from below at -depth (downward truncation);
    without it the profile starts at the model's lowest active scale, or deep
    enough that the neglected geometric tail is below 1e-18.  The result is
    the caller's own: a copy of the memo's profile, with maps of its own.
    """
    _require_scalewise(model, "scale profile")
    prof = _scale_profile(model, j_hi, depth)
    scales = range(prof.j_lo, prof.j_hi + 1)
    return replace(prof, **{name: {j: getattr(prof, name)[j] for j in scales}
                            for name in _PROFILE_MAPS})


def _scale_profile(model: ActivityModel, j_hi: int,
                   depth: Optional[int] = None) -> ScaleProfile:
    """`scale_profile` without the refusal, read from the model's memo:
    `_build_profile(model, j_lo, j_hi)`, j_lo = -depth or the start scale.
    Shared and read only, its maps may run past j_hi.  The one path from any
    reader to the profile memo, `TruncatedSystem`'s scale lane too."""
    j_lo = -depth if depth is not None else _profile_start_scale(model)
    prof = _memoized(model, ("profile", j_lo), j_hi - j_lo + 1,
                     _build_profile, model, j_lo, j_hi)
    return prof if prof.j_hi == j_hi else replace(prof, j_hi=j_hi)


def _profile_start_scale(model: ActivityModel) -> int:
    lo = model.min_active_scale()
    if lo is not None:
        return lo
    return _memoized(model, "start", 1, _walk_to_start_scale, model)


def _walk_to_start_scale(model: ActivityModel) -> int:
    # unbounded below: walk down, past the scales of zero activity, until the
    # per-scale pressure contribution M**(-d j) z_j drops under 1e-18;
    # diverges if the downward mass does.  It starts at scale 0, or lower at
    # the highest active scale of a Homogeneous table without an upward tail.
    # Only a geometric tail may be cut, so a Homogeneous model stops no
    # higher than its lowest table scale
    geo, j, floor = model.geometry, 0, math.inf
    inner = _unwrap(model)[0]
    if isinstance(inner, Homogeneous):
        floor = min(inner.log_table)
        if inner.tail_up.kind == "zero":
            j = min(0, max((k for k, lv in inner.log_table.items() if lv > -math.inf), default=0))
    for _ in range(2000):
        lz = model.log_activity_at_scale(j)
        contrib = lz - geo.log_volume(j)
        if lz > -math.inf:
            if contrib < math.log(1e-18) and j <= floor:
                return j
            nxt = model.log_activity_at_scale(j - 1) - geo.log_volume(j - 1)
            if nxt >= contrib - 1e-15 and contrib > math.log(1e-18):
                raise UncertifiedComputation(
                    "downward activity mass does not decay; partition functions "
                    "are infinite (condition (i) fails for this model)")
        j -= 1
    raise UncertifiedComputation("could not locate a negligible downward tail")


# ---------------------------------------------------------------------------
# existence conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionVerdict:
    status: str                    # "holds" | "fails" | "undecided"
    witness: Optional[Block] = None
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def to_json_obj(self) -> dict:
        obj = {"status": self.status, "detail": self.detail}
        if self.witness is not None:
            obj["witness"] = str(self.witness)
        return obj


_NO_DOWNWARD_TAIL = ConditionVerdict("holds", detail="no downward activity tail")


@dataclass
class ExistenceReport:
    condition_i: ConditionVerdict
    condition_ii: ConditionVerdict
    verdict: str                   # unique Gibbs measure | fragmentation | condensation | undecided

    def to_json_obj(self) -> dict:
        return {"condition_i": self.condition_i.to_json_obj(),
                "condition_ii": self.condition_ii.to_json_obj(),
                "verdict": self.verdict}


def check_condition_i(model: ActivityModel) -> ConditionVerdict:
    """Finiteness structure of partition functions.

    For scale-wise constant activities this is the summability of the
    downward mass sum M**(d j) z_{-j}; inhomogeneous models are scanned per
    the finite-partition-function subcube test.
    """
    inner, _, scale_truncated = _unwrap(model)
    if scale_truncated or isinstance(inner, (Parametric, EffectiveDesign)):
        return _NO_DOWNWARD_TAIL
    if isinstance(inner, Homogeneous):
        return _condition_i_homogeneous(inner)
    if isinstance(inner, Explicit):
        if inner.log_default == -math.inf:
            return ConditionVerdict("holds",
                                    detail="finitely many active blocks; all partition functions finite")
        return ConditionVerdict(
            "fails", witness=Block(0, (0,) * inner.geometry.d),
            detail="positive default activity: every block has infinite partition "
                   "function and no finite-Xi subcube exists")
    if isinstance(inner, Formula):
        return _memoized(model, "condition_i", 1, _condition_i_scan, inner)
    return ConditionVerdict("undecided", detail=f"no checker for {type(inner).__name__}")


def _condition_i_homogeneous(model: Homogeneous) -> ConditionVerdict:
    geo = model.geometry
    active = [j for j, lv in model.log_table.items() if lv > -math.inf]
    if not model.log_table or (not active and model.tail_down.kind == "zero"):
        return ConditionVerdict("holds", detail="zero activity")
    if model.tail_down.kind == "zero":
        return ConditionVerdict("holds", detail="downward mass sum is finite (zero tail)")
    lo = min(model.log_table)
    if model.log_table[lo] == -math.inf:
        # geometric tail continues a zero boundary value: still zero
        return ConditionVerdict("holds", detail="zero boundary value under the tail")
    step = geo.branching * model.tail_down.ratio
    if step < 1.0:
        return ConditionVerdict(
            "holds", detail=f"geometric downward mass sum converges (step {step:.6g} < 1)")
    return ConditionVerdict(
        "fails", witness=Block(max(lo, 0), (0,) * geo.d),
        detail=f"downward mass sum diverges (step {step:.6g} >= 1); every block has "
               "infinite partition function and the finite-Xi subcube set is empty")


def _condition_i_scan(model: Formula) -> ConditionVerdict:
    """Per-window test for inhomogeneous activities.

    A window with infinite partition function satisfies the condition iff its
    maximal finite-Xi subcubes carry divergent activity mass.  Subtree
    finiteness is judged from per-level mass partial sums; inherently
    best-effort, reports undecided when the work budget runs out.
    """
    geo = model.geometry
    roots = [Block(j, (0,) * geo.d) for j in range(0, 3)]
    budget = [SCAN_NODE_BUDGET]

    def subtree_masses(b: Block, nlev: int) -> Optional[list[float]]:
        masses = []
        frontier = [b]
        for _ in range(nlev):
            budget[0] -= len(frontier)
            if budget[0] < 0:
                return None
            masses.append(ordered_sum(math.exp(lv) for blk in frontier
                                      if (lv := model.log_activity(blk)) > -math.inf))
            frontier = [c for f in frontier for c in children(f, geo)]
        return masses

    def xi_status(b: Block) -> str:
        masses = subtree_masses(b, SCAN_LEVELS)
        if masses is None:
            return "undecided"
        tail = masses[-4:]
        if all(m <= 1e-12 for m in tail) or all(
                masses[k + 1] <= 0.7 * masses[k] + 1e-15
                for k in range(len(masses) - 4, len(masses) - 1)):
            return "finite"
        if ordered_sum(masses) > 1e10 or min(tail) >= 1e-6:
            return "infinite"
        return "undecided"

    def all_infinite_nearby(b: Block, nlev: int) -> bool:
        frontier = [b]
        for _ in range(nlev):
            frontier = [c for f in frontier for c in children(f, geo)]
            if any(xi_status(c) != "infinite" for c in frontier):
                return False
        return True

    def finite_mass_below(b: Block, depth: int, by_depth: list[float]) -> str:
        # per-spine-depth activity mass over maximal finite-Xi subcubes of b
        if depth >= SCAN_MAX_DEPTH or budget[0] < 0:
            return "exhausted"
        for c in children(b, geo):
            st = xi_status(c)
            if st == "finite":
                m = subtree_masses(c, SCAN_LEVELS)
                if m is None:
                    return "exhausted"
                by_depth[depth] += ordered_sum(m)
            elif st == "infinite":
                r = finite_mass_below(c, depth + 1, by_depth)
                if r == "undecided":
                    return r
            else:
                return "undecided"
        return "scanned"

    for root in roots:
        st = xi_status(root)
        if st == "finite":
            continue
        if st == "undecided":
            return ConditionVerdict("undecided", witness=root,
                                    detail="partition-function status of the window unresolved")
        if all_infinite_nearby(root, 3):
            return ConditionVerdict(
                "fails", witness=root,
                detail="every scanned subcube has infinite partition function; "
                       "the finite-Xi subcube set appears empty")
        by_depth = [0.0] * SCAN_MAX_DEPTH
        out = finite_mass_below(root, 0, by_depth)
        if out == "undecided":
            return ConditionVerdict("undecided", witness=root,
                                    detail="subtree finiteness unresolved during the scan")
        reached = max((i for i, m in enumerate(by_depth) if m > 0), default=-1) + 1
        tail = by_depth[max(reached - 8, 0):reached]
        if len(tail) >= 8 and min(tail) >= 1e-6:
            continue  # per-depth finite-Xi mass does not decay: divergent, holds
        if ordered_sum(by_depth) > 1e10:
            continue
        if len(tail) >= 6 and all(tail[k + 1] <= 0.7 * tail[k] + 1e-15
                                  for k in range(len(tail) - 1)):
            return ConditionVerdict(
                "fails", witness=root,
                detail=f"finite-Xi subcube mass decays geometrically along the "
                       f"infinite spine (sum {ordered_sum(by_depth):.6g})")
        return ConditionVerdict("undecided", witness=root,
                                detail="scan budget or depth exhausted")
    return ConditionVerdict("holds", detail="every scanned infinite-Xi window has "
                                            "divergent finite-Xi subcube mass")


def check_condition_ii(model: ActivityModel) -> ConditionVerdict:
    """Summability of effective activities along the ancestor chain of scale 0,
    read from profiles up to scale 64, doubled up to 512 until decided."""
    return _memoized(model, "condition_ii", 1, _condition_ii, model)


def _condition_ii(model: ActivityModel) -> ConditionVerdict:
    cond_i = check_condition_i(model)
    if cond_i.status == "fails":
        return ConditionVerdict(
            "holds", detail="automatic: some partition function is infinite, so "
                            "effective activities vanish along the chain")

    inner, windows, _ = _unwrap(model)
    if windows:
        # zhat vanishes above the window: finite sum
        return ConditionVerdict("holds", detail="volume-truncated activity: "
                                                "finitely many ancestors carry weight")
    if isinstance(inner, Explicit) and inner.log_default == -math.inf:
        return ConditionVerdict("holds", detail="finitely many active blocks")

    # a scale truncation that cuts an active scale changes the effective
    # activities: design models take the closed form only when none is cut
    if isinstance(inner, EffectiveDesign) \
            and model.min_active_scale() == inner.min_active_scale():
        return _condition_ii_design(inner)

    if not model.is_homogeneous:
        return ConditionVerdict("undecided",
                                detail=f"no chain summation for {type(model).__name__}")

    for j_max in (64, 128, 256, 512):
        try:
            prof = _scale_profile(model, j_max)
        except OverflowError:
            return ConditionVerdict("undecided",
                                    detail=f"activities overflow a float below scale {j_max}")
        verdict = _classify_zhat_tail(prof)
        if verdict is not None:
            return verdict
    return ConditionVerdict("undecided", detail="no decision after j_max = 512")


def _require_scalewise(model: ActivityModel, what: str) -> None:
    """The one refusal of a model that is not scale-wise constant, where
    `what` reads a scale profile: a ValueError.  Each public reader of a
    profile calls it once, first: `scale_profile` and `pressure_profile`
    directly, the rest through `_require_condition_ii`."""
    if not model.is_homogeneous:
        raise ValueError(f"{what} needs a scale-wise constant activity; "
                         f"{type(model).__name__} is not")


def _require_condition_ii(model: ActivityModel, what: str) -> None:
    """The one certification gate of the infinite-volume computations, which
    each calls once on entry, before it answers anything: refuse a model that
    is not scale-wise constant (ValueError), then raise
    UncertifiedComputation unless condition (ii) holds for it."""
    _require_scalewise(model, what)
    cii = check_condition_ii(model)
    if not cii.holds:
        raise UncertifiedComputation(
            f"{what} refused: condition (ii) is '{cii.status}' ({cii.detail})")


def _condition_ii_design(model: EffectiveDesign) -> ConditionVerdict:
    """Condition (ii) of a design, decided on its log zhat table: a zero up
    tail, or a geometric one of ratio below 1, leaves a finite sum; a ratio
    of 1 or more above a positive top value does not."""
    table = model.log_zhat_table
    rule = model.zhat_tail_up
    logs = [lv for lv in table.values() if lv > -math.inf]
    if rule.kind == "zero" or not table:
        return ConditionVerdict("holds", detail=f"finite designed sum {_designed_sum(logs)}")
    log_top = table[max(table)]
    if log_top == -math.inf or rule.ratio < 1.0:
        return ConditionVerdict("holds",
                                detail=f"geometric designed tail converges "
                                       f"(sum {_designed_sum(logs, log_top, rule.ratio)})")
    return ConditionVerdict("fails",
                            detail="designed effective activities do not decay "
                                   f"(tail ratio {rule.ratio} >= 1)")


def _designed_sum(logs: list[float], log_top: float = -math.inf,
                  ratio: float = 0.0) -> str:
    """The .6g text of the sum of exp(logs) and of the geometric tail
    exp(log_top) * ratio / (1 - ratio) above the top value: summed in floats
    where that is finite, else "exp(L)" with L the log of the sum."""
    try:
        top = math.exp(log_top)
        vals = [math.exp(lv) for lv in logs]
    except OverflowError:
        total = math.inf
    else:
        total = ordered_sum(vals) + (top * ratio / (1 - ratio) if top > 0 else 0.0)
    if total < math.inf:
        return f"{total:.6g}"
    log_tail = log_top + math.log(ratio) - math.log1p(-ratio) if ratio > 0 else -math.inf
    return f"exp({logsumexp_iter(logs + [log_tail]):.6g})"


def _classify_zhat_tail(prof: ScaleProfile) -> Optional[ConditionVerdict]:
    # the last 10 terms: the activity vanishes below the profile
    tail = [prof.log_zhat[j]
            for j in range(max(0, prof.j_lo, prof.j_hi - 9), prof.j_hi + 1)]
    if not tail:
        return None
    # divergence is about the behaviour of the terms, never their magnitude:
    # a huge leading term with a collapsing tail still sums to a finite value
    if tail[-1] > -math.inf and tail[-1] >= tail[0] and tail[-1] > math.log(1e6):
        return ConditionVerdict("fails",
                                detail="zhat terms grow without bound along the chain")
    if all(v > math.log(1e-6) for v in tail) and tail[-1] >= tail[0] - 1e-9:
        return ConditionVerdict("fails",
                                detail="zhat terms do not decay over the last 10 scales")
    # certified convergent: strongly decaying recent terms with a geometric
    # envelope bounding the remainder
    diffs = [tail[k + 1] - tail[k] for k in range(len(tail) - 1)
             if tail[k] > -math.inf and tail[k + 1] > -math.inf]
    if tail[-1] == -math.inf or (tail[-1] < -46 and all(d <= -0.5 for d in diffs)):
        bound = 0.0 if tail[-1] == -math.inf else math.exp(tail[-1]) / (1 - math.exp(-0.5))
        return ConditionVerdict("holds",
                                detail=f"zhat tail under a geometric envelope; "
                                       f"remainder <= {bound:.3g}")
    return None


def existence_report(model: ActivityModel) -> ExistenceReport:
    ci = check_condition_i(model)
    cii = check_condition_ii(model)
    if ci.status == "fails":
        verdict = "fragmentation"
    elif ci.status == "holds" and cii.status == "fails":
        verdict = "condensation"
    elif ci.status == "holds" and cii.status == "holds":
        verdict = "unique Gibbs measure"
    else:
        verdict = "undecided"
    return ExistenceReport(ci, cii, verdict)


def fragmentation_table(model: ActivityModel, window: Block,
                        depths: list[int]) -> list[dict]:
    """Scale-truncation limits: per depth n, the exact probability that the
    window is occupied, that its subtree is hit, and that it is empty
    (= 1/Xi).  Refused by `_system_size` before any work when the deepest
    system would be a block lane past its cap."""
    if depths:
        _system_size(model, window, max(depths), "fragmentation table")
    rows = []
    for n in depths:
        sys = TruncatedSystem(model, window, n)
        p_empty = math.exp(-sys.log_xi(window))
        rows.append({
            "depth": n,
            "p_block": math.exp(sys.log_rho(window)),
            "p_subtree_hit": 1.0 - p_empty,
            "p_empty": p_empty,
            "log_partition": sys.log_xi(window),
        })
    return rows


def condensation_table(model: ActivityModel, b: Block,
                       windows: list[Block]) -> list[dict]:
    """Volume limits: per growing window, the exact probability that the
    probe block is occupied and that its ancestor chain inside the window is
    hit (1 - prod 1/(1+zhat) over the chain, including the block itself)."""
    geo = model.geometry
    depth = max(0, -b.scale)
    rows = []
    for w in windows:
        if not contains(w, b, geo):
            raise ValueError(f"window {w} does not contain probe block {b}")
        sys = TruncatedSystem(model, w, depth)
        above = [sys.log_one_minus_rho(a) for a in _strict_ancestors([b], w.scale, geo)]
        rows.append({
            "window": str(w),
            "chain_length": len(above) + 1,
            "p_block": math.exp(sys.log_rho(b) + ordered_sum(above)),
            "p_chain_hit": -math.expm1(ordered_sum([sys.log_one_minus_rho(b), *above])),
        })
    return rows


# ---------------------------------------------------------------------------
# marginals and covariances of hierarchical measures
# ---------------------------------------------------------------------------

def _strict_ancestors(blocks, top: int, geo: Geometry) -> Optional[list[Block]]:
    """The strict ancestors of `blocks` at scales up to `top`, in `Block`
    order, from one `ancestor_levels` walk up to `top` or the highest block;
    None when one block is a strict ancestor of another."""
    levels: dict = {}
    for b in blocks:
        levels.setdefault(b.scale, set()).add(b.index)
    found = []
    for scale, above in ancestor_levels(levels, max([top, *levels]), geo):
        if not above.isdisjoint(levels.get(scale, ())):
            return None
        if scale <= top:
            found += [Block(scale, m) for m in sorted(above)]
    return found


def exact_marginal(model: ActivityModel, blocks, window: Optional[Block],
                   depth: int) -> float:
    """P(omega contains all of `blocks`) under the hierarchical measure.

    With a `window`, the law of the doubly truncated activity; with
    window=None, the infinite-volume measure (scale-wise constant models only,
    refused unless condition (ii) is certified, for any `blocks`).
    """
    if window is None:
        _require_condition_ii(model, "infinite-volume marginal")
    blocks = sorted(set(blocks))
    if not blocks:
        return 1.0
    geo = model.geometry
    for b in blocks:
        if b.d != geo.d:
            raise ValueError(f"block {b} has dimension {b.d}, not {geo.d}")
    # ancestors up to the window, or to the covering block in infinite volume
    cover = window if window is not None else reduce(
        lambda c, b: covering_block(c, b, geo), blocks)
    anc = _strict_ancestors(blocks, cover.scale, geo)
    if anc is None:
        return 0.0
    if window is not None:
        sys = TruncatedSystem(model, window, depth)
        if not all(sys.in_system(b) for b in blocks):
            return 0.0
        log_zhat = [sys.log_zhat(b) for b in blocks]
        above = [sys.log_zhat(a) for a in anc]
    else:
        if cover.scale < -depth:
            return 0.0      # every block lies below the depth truncation
        _check_system(geo, cover, depth)
        prof, j_cut = _ancestor_chain(model, cover.scale, depth)
        by_scale = prof.log_zhat.get          # no scale below -depth is active
        log_zhat = [by_scale(b.scale, -math.inf) for b in blocks]
        above = [by_scale(j, -math.inf) for j in
                 [a.scale for a in anc] + list(range(cover.scale + 1, j_cut + 1))]
    return math.exp(ordered_sum(chain(map(_log_rho, log_zhat), map(_log_one_minus_rho, above))))


def _ancestor_chain(model: ActivityModel, j0: int, depth: int) -> tuple[ScaleProfile, int]:
    """The scale profile from -depth up to CHAIN_SCALES above scale max(j0, 0),
    and the cut of the ancestor chain of a block of scale j0: the scale j_cut
    just above the highest one whose zhat reaches CHAIN_CUT / e.

    The infinite-volume chain over scales j0 < j <= j_cut is read by the
    marginals and by the sampler's law of the lowest occupied ancestor.  A
    zhat tail still above the cut at the profile's top is cut there.
    """
    prof = _scale_profile(model, max(j0, 0) + CHAIN_SCALES, depth=depth)
    cut, j = math.log(CHAIN_CUT) - 1, prof.j_hi
    while j > j0 + 1 and prof.log_zhat[j] < cut:
        j -= 1
    return prof, min(j + 1, prof.j_hi)


def pair_covariance(model: ActivityModel, b1: Block, b2: Block,
                    window: Optional[Block], depth: int) -> dict:
    """Covariance of the occurrence events of two blocks, two ways: the
    `config_covariance` of the singletons [b1] and [b2], so the direct value
    (from exact marginals) and the factorised value P1 * P2 * R over the
    common strict-ancestor chain, which is -P1 * P2 for a nested pair.
    Identical blocks get the variance P(1-P).
    """
    if b1 == b2:
        p1 = exact_marginal(model, [b1], window, depth)
        return {"cov": p1 * (1 - p1), "factored_cov": p1 * (1 - p1),
                "joint": p1, "p1": p1, "p2": p1, "mode": "variance"}
    cv = config_covariance(model, [b1], [b2], window, depth)
    return {**{k: cv[k] for k in ("cov", "factored_cov", "joint", "p1", "p2")},
            "mode": "pair"}


def _common_chain_R(model: ActivityModel, set1, set2,
                    window: Optional[Block], depth: int) -> float:
    """R over the common strict-ancestor chain of two disjoint sorted block
    sets; 0 if one is empty (no ancestors), -1 if the union is not hard-core."""
    if not (set1 and set2):
        return 0.0
    geo = model.geometry
    # the hard-core test alone: no strict ancestor lies at the lowest block's scale
    if _strict_ancestors(set1 + set2, min(set1[0], set2[0]).scale, geo) is None:
        return -1.0
    if window is not None:
        sys = TruncatedSystem(model, window, depth)
        anc1 = set(_strict_ancestors(set1, window.scale, geo))
        common = [a for a in _strict_ancestors(set2, window.scale, geo) if a in anc1]
        return math.expm1(ordered_sum(log1p_exp(sys.log_zhat(a)) for a in common))
    # infinite volume: common strict ancestors are the chain above (and
    # including) the covering block; R equals the homogeneous tail ratio
    return tail_ratio_R(model, min(lcs(a, b, geo) for a in set1 for b in set2))


def config_covariance(model: ActivityModel, set1, set2,
                      window: Optional[Block], depth: int) -> dict:
    """Covariance of two disjoint finite sub-configurations, two ways: the
    direct value joint - P1 * P2 from exact marginals, and the factorised
    values P1 * P2 * R (`factored_cov`) and P1 * P2 * (1 + R)
    (`factored_joint`), with R over the common strict-ancestor chain when
    the union is hard-core and R = -1 when it is not (the joint is then 0).
    """
    set1, set2 = sorted(set(set1)), sorted(set(set2))
    if set(set1) & set(set2):
        raise ValueError("configuration sets must be disjoint as sets")
    p1 = exact_marginal(model, set1, window, depth)
    p2 = exact_marginal(model, set2, window, depth)
    joint = exact_marginal(model, set1 + set2, window, depth)
    R = _common_chain_R(model, set1, set2, window, depth)
    return {"cov": joint - p1 * p2, "factored_cov": p1 * p2 * R, "joint": joint,
            "factored_joint": p1 * p2 * (1 + R),
            "p1": p1, "p2": p2, "min_size": min(len(set1), len(set2))}


# ---------------------------------------------------------------------------
# pressure, stability threshold, tail ratios, decay
# ---------------------------------------------------------------------------

@dataclass
class PressureProfile:
    partial: dict[int, float]          # p_j per scale
    pressure: float                    # extrapolated limit (may be inf)
    theta_star: float                  # stability threshold (may be -inf)
    theta_star_exact: bool             # closed form vs finite-data estimate
    j_window: tuple[int, int]

    def to_json_obj(self) -> dict:
        return {"partial": {str(j): v for j, v in self.partial.items()},
                "pressure": self.pressure,
                "theta_star": self.theta_star,
                "theta_star_exact": self.theta_star_exact,
                "j_window": list(self.j_window)}


def pressure_profile(model: ActivityModel, tol: float = DEFAULT_TOL,
                     j_max: int = 64) -> PressureProfile:
    """Pressure p = sum M**(-d j) log(1 + zhat_j) and stability threshold."""
    _require_scalewise(model, "scale profile")
    prof = _scale_profile(model, j_max)
    if prof.j_lo > j_max:
        raise ValueError(f"j_max {j_max} lies below the profile's first scale {prof.j_lo}")
    geo = model.geometry
    partial = {j: prof.pressure_partial[j] for j in range(prof.j_lo, prof.j_hi + 1)}
    p = partial[prof.j_hi]  # increments decay doubly exponentially once zhat does
    inner = _unwrap(model)[0]
    if isinstance(inner, Parametric):
        theta, exact = inner.mu, True
    else:
        active = [(j, prof.log_z[j]) for j in range(max(prof.j_lo, 0), prof.j_hi + 1)
                  if prof.log_z[j] > -math.inf]
        if not active:
            theta, exact = -math.inf, True
        else:
            top = active[-20:]
            j0 = top[0][0]
            volumes = geo.volumes(j0, top[-1][0])
            theta = max(lv / volumes[j - j0] for j, lv in top)
            exact = False
    return PressureProfile(partial, p, theta, exact, (prof.j_lo, prof.j_hi))


def _R_terms(prof: ScaleProfile, j: int) -> tuple[list[int], list[float]]:
    """The scales k >= j of the profile where zhat_k does not vanish, and
    the terms log log(1 + zhat_k) of S_j = log(1 + R_j) = sum_{k >= j} log(1 +
    zhat_k) at them, in scale order."""
    scales = [k for k in range(j, prof.j_hi + 1) if prof.log_zhat[k] != -math.inf]
    # log(log1p(zhat)) = log zhat + O(zhat) below -30
    return scales, [prof.log_zhat[k] if prof.log_zhat[k] < -30
                    else math.log(prof.log1p_zhat[k]) for k in scales]


def _log_R(terms: list[float]) -> Optional[tuple[float, float, float]]:
    """(log R_j, lead, rel) from the `_R_terms` of scale j or a suffix of
    them, with log S_j = lead + log1p(rel), stable far below double
    underflow; None when there are none (every zhat_k vanishes)."""
    if not terms:
        return None
    lead = max(terms)
    rel = ordered_sum(map(math.exp, map(operator.sub, terms, repeat(lead)))) - 1.0
    log_S = lead + math.log1p(rel)
    if log_S > -30:
        try:
            S = math.exp(log_S)
        except OverflowError:           # S_j past the largest float
            S = math.inf
        return log_expm1(S), lead, rel  # log(e^S - 1), S itself from 37 up
    return log_S, lead, rel             # R = expm1(S) = S (1 + O(S))


def log_tail_ratio(model: ActivityModel, j: int) -> float:
    """log R_j with R_j = prod_{k >= j}(1 + zhat_k) - 1, stable far below
    double underflow, from the profile up to scale max(j, 0) + CHAIN_SCALES;
    refused unless condition (ii) is certified."""
    _require_condition_ii(model, "tail ratio")
    prof = _scale_profile(model, max(j, 0) + CHAIN_SCALES)
    r = _log_R(_R_terms(prof, j)[1])
    return -math.inf if r is None else r[0]


def tail_ratio_R(model: ActivityModel, j: int) -> float:
    """R_j as a float (0.0 when it underflows; use log_tail_ratio then)."""
    lr = log_tail_ratio(model, j)
    return math.exp(lr) if lr > -700 else 0.0


def decay_profile(model: ActivityModel, j_max: int) -> list[dict]:
    """Per-scale decay table: M**(-d j) log R_j and the parametric residual.

    The residual log R_j + M**(d j)(p - theta*) + M**(alpha d j) J is
    evaluated as (log R_j - log zhat_j) + M**(d j) * tail_p(j), where
    tail_p(j) = sum_{k >= j} M**(-d k) log(1 + zhat_k) is summed directly so
    no catastrophic cancellation against the pressure limit occurs.

    The terms of S_j and of tail_p(j) are computed once per call, from the
    lowest row's scale up; each row folds its own suffix of them.
    """
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    _require_condition_ii(model, "decay profile")
    geo = model.geometry
    # 90 scales above the highest row, or above the profile's first scale
    prof = _scale_profile(model, max(j_max, _profile_start_scale(model)) + 90)
    parametric = isinstance(_unwrap(model)[0], Parametric)
    scales, terms = _R_terms(prof, max(0, prof.j_lo))
    # log(M**(-d k) log(1 + zhat_k)), the same -30 branch as the R terms;
    # only the parametric residual reads them
    tail_terms = [t - geo.log_volume(k) for k, t in zip(scales, terms)] if parametric else []
    rows = []
    for j, vol in enumerate(geo.volumes(0, j_max)):
        # zhat vanishes below the profile: R_j there is R of its first scale
        i = bisect_left(scales, j)
        r = _log_R(terms[i:])
        if r is None:
            rows.append({"j": j, "log_R": -math.inf, "scaled_log_R": -math.inf,
                         "residual": None})
            continue
        log_R, lead, rel = r
        row = {"j": j, "log_R": log_R, "scaled_log_R": log_R / vol, "residual": None}
        if parametric and prof.log_zhat.get(j, -math.inf) > -math.inf:
            # delta = log R_j - log zhat_j, computed without cancellation
            log_S = lead + math.log1p(rel)
            delta = (lead - prof.log_zhat[j]) + math.log1p(rel) + (log_R - log_S)
            log_tail_p = logsumexp_iter(tail_terms[i:])
            tail_contrib = math.exp(geo.log_volume(j) + log_tail_p) \
                if log_tail_p > -math.inf else 0.0
            row["residual"] = delta + tail_contrib
        rows.append(row)
    return rows


def series_summand_bounds(r: float, b: float, j: int) -> dict:
    """The tail sum sum_{k >= j} exp(-r b**k), of at most SERIES_MAX_TERMS
    terms, and its sandwich bounds.

    lower = exp(-r b**j), upper = lower * (1 + 1/(r log(b) b**j)); all three
    are also reported in log domain for deep-tail use.
    """
    if r <= 0 or b <= 1:
        raise ValueError(f"need r > 0 and b > 1, got r={r}, b={b}")
    log_lower = -r * b**j
    terms = []
    for k in range(j, j + SERIES_MAX_TERMS):
        t = -r * b**k
        terms.append(t)
        if t < log_lower - 60:
            break
    log_sum = logsumexp_iter(terms)
    log_upper = log_lower + math.log1p(1.0 / (r * math.log(b) * b**j))
    return {"lower": math.exp(log_lower) if log_lower > -700 else 0.0,
            "sum": math.exp(log_sum) if log_sum > -700 else 0.0,
            "upper": math.exp(log_upper) if log_upper > -700 else 0.0,
            "log_lower": log_lower, "log_sum": log_sum, "log_upper": log_upper}


# ---------------------------------------------------------------------------
# critical chemical potential
# ---------------------------------------------------------------------------

def _gibbs_predicate(geo: Geometry, mu: float, J: float, alpha: float) -> str:
    model = Parametric(geo, mu, J, alpha)
    return check_condition_ii(model).status


def critical_mu(J: float, alpha: float, tol: float,
                geometry: Optional[Geometry] = None) -> dict:
    """Bisection on mu over the summability of the effective activities,
    inside CRITICAL_BRACKET.

    Returns mu_c (math.inf when the predicate holds up to the bracket cap),
    the bisection trace, and whether a Gibbs measure appears to survive at
    mu_c (True/False/"undecided").  tol, J and alpha are checked before any
    mu is tried, so an error names the argument the caller gave.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not math.isfinite(J):
        raise ValueError(f"J must be finite, got J={J}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0,1), got alpha={alpha}")
    geo = geometry or Geometry(1)
    lo, hi = CRITICAL_BRACKET
    trace = []

    def pred(mu: float) -> str:
        status = _gibbs_predicate(geo, mu, J, alpha)
        trace.append({"mu": mu, "gibbs": status})
        return status

    if pred(hi) == "holds":
        return {"mu_c": math.inf, "gibbs_at_mu_c": True, "trace": trace,
                "note": f"predicate holds up to the bracket cap mu = {hi}"}
    if pred(lo) != "holds":
        raise RuntimeError(
            f"bisection bracket failure: predicate not satisfied at mu = {lo}; "
            f"trace: {trace}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:   # lo and hi are adjacent floats: tol is below their spacing
            break
        if pred(mid) == "holds":
            lo = mid
        else:
            hi = mid
    mu_c = 0.5 * (lo + hi)
    gibbs_at = {"holds": True, "fails": False}.get(
        _gibbs_predicate(geo, mu_c, J, alpha), "undecided")
    return {"mu_c": mu_c, "gibbs_at_mu_c": gibbs_at, "trace": trace, "note": ""}
