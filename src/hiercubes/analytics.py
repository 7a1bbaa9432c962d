"""Exact log-space analytics for the hierarchical hard-core gas.

Everything extensive lives in log domain.  Inhomogeneous models use a block
lane at small truncation depth: one pass per level over the (scale, index)
tuples of the system, bottom level first, reads the level's activities in one
`level_log_activities` call and tabulates log Xi and log zhat of every block.
For scale-wise constant activities z_j the tree recursion is one scalar
recursion, built only by `_build_profile` into a `ScaleProfile` that the
scale lane of `TruncatedSystem` and every infinite-volume quantity read.
Its only read of the activity is the model's list `log_activities(j_lo,
j_hi)`.  Its float order, from log Xi = p = 0 below the first scale:

    below      = M**d * log Xi_{j-1}
    log Xi_j   = logaddexp(log z_j, below)
    log zhat_j = log z_j - below
    p_j        = p_{j-1} + log(1 + zhat_j) / M**(d j)

so rho_j = zhat_j / (1 + zhat_j) = z_j / Xi_j.  p_j equals M**(-d j) log Xi_j
but is accumulated, not divided out, so it saturates where log Xi_j overflows.
`_log_R` folds the `_R_terms` of a profile into R_j = prod_{k >= j} (1 +
zhat_k) - 1; `decay_profile` computes the terms once per call and folds a
suffix of them per row.

The infinite-volume ancestor chain of a block is cut by `_ancestor_chain`
alone: one profile from -depth up to CHAIN_SCALES above the block or above
scale 0, whichever is higher (the chain of scale 0 is the one condition (ii)
certifies), cut just above the highest scale whose zhat reaches
CHAIN_CUT / e.  The marginals and the sampler's law of the lowest occupied
ancestor both read it.

What the analytics derive from a model at more cost than a lookup is
computed once per model instance and kept on it, by `_memoized` alone, in a
least-recently-used memo: per start scale j_lo the longest profile
`_build_profile(model, j_lo, j_hi)` asked for (key ("profile", j_lo)), the
start scale found by walking down (key "start"), the condition (ii) verdict
(key "condition_ii") and the condition (i) verdict of a scan (key
("condition_i", max_depth)).  A profile up to a lower scale is read as a
prefix of the kept one, bit for bit the same, since the recursion at scale j
reads only the scales up to j; one up to a higher scale is built and
replaces it.  The bound is MEMO_SCALES memoized scales per model, the sum of
j_hi - j_lo + 1 over the profiles kept (any other entry counts as one),
since profile length sets the memory; a profile longer than that is not
kept.  An exception is never kept, a model without `__dict__` is not
memoized, and `TruncatedSystem`s and their block-lane tables are not
memoized.  The memo's profiles are shared by every reader and are read
only: `scale_profile` returns a copy, so edits to its result never reach
the memo.
"""

from __future__ import annotations

import math
import operator
import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from typing import Callable, Optional

from .blocks import (Block, Geometry, ancestors, children, contains,
                     covering_block, descendants, lcs, overlaps,
                     subtree_levels)
from .activities import (ActivityModel, EffectiveDesign, Explicit, Formula,
                         Homogeneous, Parametric, ScaleTruncated,
                         VolumeTruncated)
from .logreal import (LogReal, log1p_exp, log_expm1, logaddexp, logsumexp_iter,
                      ordered_sum)

# log Xi above this is certified as divergent by the depth-doubling probe
DIVERGENCE_LOG_THRESHOLD = 1.0e6
DEFAULT_TOL = 1e-12
BLOCK_LANE_MAX_BLOCKS = 2**16   # most bottom blocks partition_function_limit tabulates per block
CHAIN_CUT = 1e-14   # ancestor zhat mass left beyond the infinite-volume chain
CHAIN_SCALES = 80   # scales of the chain profile above max(block scale, 0)
# work limits of the condition (i) scan of inhomogeneous activities
SCAN_NODE_BUDGET = 2_000_000
SCAN_LEVELS = 10
MEMO_SCALES = 1024   # most profile scales the memo keeps per model


class UncertifiedComputation(RuntimeError):
    """An infinite-volume quantity was requested without the needed certificate."""


# ---------------------------------------------------------------------------
# the per-model memo
# ---------------------------------------------------------------------------

_MEMO_ATTR = "_analytics_memo"
_MEMO_LOCK = threading.Lock()   # models are read concurrently; the memo is written


class _Memo(OrderedDict):
    """One model's entries, key -> (value, weight), least recently used
    first, and their summed weight."""

    weight = 0


def _memoized(model: ActivityModel, key, weight: int, build: Callable, *args):
    """The value kept in the model's memo (see the module docstring) under
    `key` if it weighs at least `weight`, else `build(*args)`, which
    replaces it and weighs `weight`: under one key a heavier value serves
    every lighter request, as a longer profile holds every shorter one.

    The entries least recently used are dropped while the weights exceed
    MEMO_SCALES; a value heavier than that, or weighing nothing, is returned
    but not kept.  Every change of the entries or their weight holds the
    lock; a hit only moves its entry to the end, and skips that if another
    thread dropped it.
    """
    state = getattr(model, "__dict__", None)
    if state is None:
        return build(*args)
    memo = state.get(_MEMO_ATTR)
    if memo is None:
        memo = state.setdefault(_MEMO_ATTR, _Memo())
    else:
        hit = memo.get(key)
        if hit is not None and hit[1] >= weight:
            try:
                memo.move_to_end(key)
            except KeyError:
                pass
            return hit[0]
    value = build(*args)
    if 0 < weight <= MEMO_SCALES:
        with _MEMO_LOCK:
            old = memo.pop(key, None)
            memo.weight += weight - (0 if old is None else old[1])
            memo[key] = value, weight
            while memo.weight > MEMO_SCALES:
                memo.weight -= memo.popitem(last=False)[1][1]
    return value


# ---------------------------------------------------------------------------
# truncated finite systems (volume window + downward depth)
# ---------------------------------------------------------------------------

def _check_system(geo: Geometry, window: Block, depth: int) -> None:
    """Raise ValueError unless `window` down to scale -depth is a system of `geo`."""
    if window.d != geo.d:
        raise ValueError(f"window {window} has dimension {window.d}, not {geo.d}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if -depth > window.scale:
        raise ValueError(f"depth {depth} does not reach below window scale {window.scale}")


class TruncatedSystem:
    """The finite system of blocks inside `window` at scales >= -depth.

    Provides partition functions, effective activities and occupation ratios
    of the doubly truncated activity z_window^(depth).  Read from a table of
    every block filled bottom-up, one pass per level over index tuples, or,
    when the model is scale-wise constant inside the window, from one scale
    profile from -depth up to the window.
    """

    def __init__(self, model: ActivityModel, window: Block, depth: int):
        _check_system(model.geometry, window, depth)
        self.model = model
        self.window = window
        self.depth = depth
        self.geo = model.geometry
        self._scalewise = model.homogeneous_within(window)

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
        return _shared_profile(self.model, -self.depth, self.window.scale)

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
        lzh = self.log_zhat(b)
        if lzh == -math.inf:
            return -math.inf
        return lzh - log1p_exp(lzh)

    def rho(self, b: Block) -> float:
        return math.exp(self.log_rho(b))

    def log_one_minus_rho(self, b: Block) -> float:
        """log(1 - rho) = -log(1 + zhat)."""
        lzh = self.log_zhat(b)
        if lzh == -math.inf:
            return 0.0
        return -log1p_exp(lzh)

    def blocks(self) -> list[Block]:
        """All blocks of the system, sorted top scale first."""
        return descendants(self.window, -self.depth, self.geo)


def partition_function(model: ActivityModel, window: Block, depth: int) -> LogReal:
    """Xi of `window` for the doubly truncated activity, as a LogReal."""
    return LogReal.from_log(TruncatedSystem(model, window, depth).log_xi(window))


def effective_activity(model: ActivityModel, b: Block, depth: int) -> LogReal:
    """zhat(b) = z(b) / prod of the children's partition functions."""
    return LogReal.from_log(TruncatedSystem(model, b, depth).log_zhat(b))


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


def partition_function_limit(model: ActivityModel, window: Block,
                             tol: float = DEFAULT_TOL,
                             max_depth: int = 4096) -> LimitResult:
    """Xi of `window` without downward truncation.

    A model with a lowest active scale is evaluated once, at the depth that
    reaches it, where the truncation is exact; beyond `max_depth` (in the
    block lane also beyond the depth with BLOCK_LANE_MAX_BLOCKS bottom
    blocks) the result is undecided, with nothing evaluated and the value
    the trivial lower bound Xi >= 1.  A
    model active at every scale below doubles the truncation depth until
    the log increments fall below `tol` (finite) or the log exceeds the
    divergence threshold (infinite), unless a closed-form tail certificate
    settles the question first.
    """
    if _downward_mass_diverges(model, window):
        return LimitResult(LogReal.infinite(), True, 0,
                           "closed-form tail: sum of activities below window diverges")
    if not model.homogeneous_within(window):
        # the block lane tabulates every block: branching**depth at the bottom
        branching, cap = model.geometry.branching, 0
        while branching ** (cap + 1) <= BLOCK_LANE_MAX_BLOCKS:
            cap += 1
        max_depth = min(max_depth, cap)

    start = max(window.scale, 0) - window.scale  # reach at least the window scale
    lo = model.min_active_scale()
    if lo is not None:
        depth = max(1, start, -lo)
        if depth > max_depth:
            return LimitResult(LogReal.from_log(0.0), False, 0,
                               f"undecided: lowest active scale {lo} lies below "
                               f"depth {max_depth}")
        return LimitResult(LogReal.from_log(TruncatedSystem(model, window, depth).log_xi(window)),
                           True, depth,
                           f"exact: depth {depth} reaches the lowest active scale {lo}")
    prev = None
    depth = max(1, start)
    while depth <= max_depth:
        cur = TruncatedSystem(model, window, depth).log_xi(window)
        if cur > DIVERGENCE_LOG_THRESHOLD:
            return LimitResult(LogReal.infinite(), True, depth,
                               "log partition function exceeded divergence threshold")
        if prev is not None and abs(cur - prev) < tol:
            return LimitResult(LogReal.from_log(cur), True, depth,
                               "depth-doubling increments below tolerance")
        prev = cur
        depth *= 2
    return LimitResult(LogReal.from_log(prev if prev is not None else 0.0),
                       False, depth // 2, "undecided: max depth exhausted")


def _unwrap(model: ActivityModel) -> tuple[ActivityModel, bool]:
    """The model inside its truncations, and whether one truncates scales."""
    scale_truncated = False
    while isinstance(model, (VolumeTruncated, ScaleTruncated)):
        scale_truncated |= isinstance(model, ScaleTruncated)
        model = model.inner
    return model, scale_truncated


def _downward_mass_diverges(model: ActivityModel, window: Block) -> bool:
    """Whether Xi of `window` is infinite in closed form: some block of the
    window's subtree, the window itself or a volume-truncation window inside
    it, has below it a Homogeneous activity, untruncated in scale, whose
    downward mass sum diverges (condition (i) fails)."""
    inner, scale_truncated = _unwrap(model)
    if scale_truncated or not isinstance(inner, Homogeneous):
        return False
    tops, m = [window], model
    while isinstance(m, VolumeTruncated):
        tops.append(m.window)
        m = m.inner
    return (_condition_i_homogeneous(inner).status == "fails"
            and any(contains(window, b, model.geometry) and model.homogeneous_within(b)
                    for b in tops))


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
    vol = float(geo.M) ** (geo.d * j_lo)  # M**(d j), updated multiplicatively
    log_z = dict(zip(range(j_lo, j_hi + 1), model.log_activities(j_lo, j_hi)))
    log_xi, log_zhat, log1p_zhat, p_partial = {}, {}, {}, {}
    xi = p = 0.0
    for j, lz in log_z.items():
        below = branching * xi
        if lz == -math.inf:
            xi, lzh, l1p = below, -math.inf, 0.0
        else:
            lzh = lz - below
            l1p = log1p_exp(lzh)
            # logaddexp(lz, below), sharing log1p_exp's log1p where lz <= below
            xi = below + l1p if lzh <= 0 else lz + math.log1p(math.exp(-lzh))
            p += l1p / vol
        log_xi[j] = xi
        log_zhat[j] = lzh
        log1p_zhat[j] = l1p
        p_partial[j] = p
        vol *= branching
    return ScaleProfile(geo, j_lo, j_hi, log_z, log_xi, log_zhat, log1p_zhat,
                        p_partial)


def _shared_profile(model: ActivityModel, j_lo: int, j_hi: int) -> ScaleProfile:
    """`_build_profile(model, j_lo, j_hi)`, read from the model's memo: shared,
    read only, and its maps may run past j_hi."""
    prof = _memoized(model, ("profile", j_lo), j_hi - j_lo + 1,
                     _build_profile, model, j_lo, j_hi)
    return prof if prof.j_hi == j_hi else replace(prof, j_hi=j_hi)


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
    """`scale_profile`, read from the memo: shared, read only."""
    j_lo = -depth if depth is not None else _profile_start_scale(model)
    return _shared_profile(model, j_lo, j_hi)


def _profile_start_scale(model: ActivityModel) -> int:
    lo = model.min_active_scale()
    if lo is not None:
        return lo
    return _memoized(model, "start", 1, _walk_to_start_scale, model)


def _walk_to_start_scale(model: ActivityModel) -> int:
    # unbounded below: walk down until the per-scale pressure contribution
    # M**(-d j) z_j drops under 1e-18; diverges if the downward mass does
    geo = model.geometry
    j = 0
    for _ in range(2000):
        contrib = model.log_activity_at_scale(j) - geo.d * j * math.log(geo.M)
        if contrib < math.log(1e-18):
            return j
        nxt = model.log_activity_at_scale(j - 1) - geo.d * (j - 1) * math.log(geo.M)
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


def check_condition_i(model: ActivityModel, max_depth: int = 24) -> ConditionVerdict:
    """Finiteness structure of partition functions.

    For scale-wise constant activities this is the summability of the
    downward mass sum M**(d j) z_{-j}; inhomogeneous models are scanned per
    the finite-partition-function subcube test.
    """
    inner, scale_truncated = _unwrap(model)
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
        return _memoized(model, ("condition_i", max_depth), 1,
                         _condition_i_scan, inner, max_depth)
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


def _condition_i_scan(model: Formula, max_depth: int) -> ConditionVerdict:
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
        if depth >= max_depth or budget[0] < 0:
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
        by_depth = [0.0] * max_depth
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


def check_condition_ii(model: ActivityModel,
                       tol: float = DEFAULT_TOL) -> ConditionVerdict:
    """Summability of effective activities along the ancestor chain of scale 0,
    read from profiles up to scale 64, doubled up to 512 until decided."""
    return _memoized(model, "condition_ii", 1, _condition_ii, model)


def _condition_ii(model: ActivityModel) -> ConditionVerdict:
    cond_i = check_condition_i(model)
    if cond_i.status == "fails":
        return ConditionVerdict(
            "holds", detail="automatic: some partition function is infinite, so "
                            "effective activities vanish along the chain")

    if isinstance(model, VolumeTruncated):
        # zhat vanishes above the window: finite sum
        return ConditionVerdict("holds", detail="volume-truncated activity: "
                                                "finitely many ancestors carry weight")
    inner = _unwrap(model)[0]
    if isinstance(inner, Explicit) and inner.log_default == -math.inf:
        return ConditionVerdict("holds", detail="finitely many active blocks")

    # a scale truncation changes effective activities: design models take
    # the closed form only untruncated
    if isinstance(model, EffectiveDesign):
        return _condition_ii_design(model)

    if not model.is_homogeneous:
        return ConditionVerdict("undecided",
                                detail=f"no chain summation for {type(model).__name__}")

    for j_max in (64, 128, 256, 512):
        verdict = _classify_zhat_tail(_scale_profile(model, j_max))
        if verdict is not None:
            return verdict
    return ConditionVerdict("undecided", detail="no decision after j_max = 512")


def _require_scalewise(model: ActivityModel, what: str) -> None:
    """The one refusal of a model that is not scale-wise constant, where
    `what` reads a scale profile: a ValueError.  Each public reader of a
    profile calls it first, a certifying one through `_require_condition_ii`;
    the private readers assume it."""
    if not model.is_homogeneous:
        raise ValueError(f"{what} needs a scale-wise constant activity; "
                         f"{type(model).__name__} is not")


def _require_condition_ii(model: ActivityModel, what: str) -> None:
    """The one certification gate of the infinite-volume computations: refuse
    a model that is not scale-wise constant, then certify it."""
    _require_scalewise(model, what)
    _require_certified(model, what)


def _require_certified(model: ActivityModel, what: str) -> None:
    """UncertifiedComputation unless condition (ii) holds for `model`, which
    the caller has found scale-wise constant."""
    cii = check_condition_ii(model)
    if not cii.holds:
        raise UncertifiedComputation(
            f"{what} refused: condition (ii) is '{cii.status}' ({cii.detail})")


def _condition_ii_design(model: EffectiveDesign) -> ConditionVerdict:
    vals = [math.exp(lv) for lv in model.log_zhat_table.values() if lv > -math.inf]
    rule = model.zhat_tail_up
    if rule.kind == "zero" or not model.log_zhat_table:
        return ConditionVerdict("holds",
                                detail=f"finite designed sum {ordered_sum(vals):.6g}")
    hi = max(model.log_zhat_table)
    top = math.exp(model.log_zhat_table[hi]) if model.log_zhat_table[hi] > -math.inf else 0.0
    if top == 0.0 or rule.ratio < 1.0:
        tail = top * rule.ratio / (1 - rule.ratio) if top > 0 else 0.0
        return ConditionVerdict("holds",
                                detail=f"geometric designed tail converges "
                                       f"(sum {ordered_sum(vals) + tail:.6g})")
    return ConditionVerdict("fails",
                            detail="designed effective activities do not decay "
                                   f"(tail ratio {rule.ratio} >= 1)")


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


# ---------------------------------------------------------------------------
# marginals and covariances of hierarchical measures
# ---------------------------------------------------------------------------

def _hard_core(blocks, geo: Geometry) -> bool:
    """Whether no block of the distinct `blocks` is a strict ancestor of another."""
    members = set(blocks)
    top = max(b.scale for b in members)
    return not any(a in members for b in members for a in ancestors(b, top, geo))


def exact_marginal(model: ActivityModel, blocks, window: Optional[Block],
                   depth: int, tol: float = DEFAULT_TOL) -> float:
    """P(omega contains all of `blocks`) under the hierarchical measure.

    With a `window`, the law of the doubly truncated activity; with
    window=None, the infinite-volume measure (scale-wise constant models only,
    refused unless condition (ii) is certified).
    """
    if window is None:
        _require_scalewise(model, "infinite-volume marginal")
    blocks = sorted(set(blocks))
    if not blocks:
        return 1.0
    geo = model.geometry
    for b in blocks:
        if b.d != geo.d:
            raise ValueError(f"block {b} has dimension {b.d}, not {geo.d}")
    if not _hard_core(blocks, geo):
        return 0.0
    if window is not None:
        sys = TruncatedSystem(model, window, depth)
        if not all(sys.in_system(b) for b in blocks):
            return 0.0
        log_p = ordered_sum(sys.log_rho(b) for b in blocks)
        for a in _strict_ancestor_set(blocks, window.scale, geo):
            log_p += sys.log_one_minus_rho(a)
        return math.exp(log_p)
    return _exact_marginal_infinite(model, blocks, depth)


def _strict_ancestor_set(blocks, up_to_scale: int, geo: Geometry) -> set:
    anc = set()
    for b in blocks:
        anc.update(ancestors(b, up_to_scale, geo))
    return anc - set(blocks)


def _exact_marginal_infinite(model: ActivityModel, blocks, depth: int) -> float:
    geo = model.geometry
    _require_certified(model, "infinite-volume marginal")
    cover = covering_block(blocks[0], blocks[0], geo)
    for b in blocks[1:]:
        cover = covering_block(cover, b, geo)
    if cover.scale < -depth:
        return 0.0      # every block lies below the depth truncation
    _check_system(geo, cover, depth)
    prof, j_cut = _ancestor_chain(model, cover.scale, depth)
    log_zhat = prof.log_zhat          # no scale below -depth is active
    log_p = 0.0
    for b in blocks:
        lzh = log_zhat.get(b.scale, -math.inf)
        log_p += lzh - log1p_exp(lzh) if lzh > -math.inf else -math.inf
    # the strict ancestors up to the covering block, then its ancestors out
    # to the chain cut, scale-wise
    above = [a.scale for a in _strict_ancestor_set(blocks, cover.scale, geo)]
    for j in above + list(range(cover.scale + 1, j_cut + 1)):
        lzh = log_zhat.get(j, -math.inf)
        if lzh > -math.inf:
            log_p += -log1p_exp(lzh)
    return math.exp(log_p)


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
    """Covariance of the occurrence events of two blocks, two ways.

    Returns both the direct value (from exact marginals) and the factorised
    value P1 * P2 * R over the common strict-ancestor chain; for overlapping
    pairs the joint probability is zero and the covariance is -P1*P2.
    Identical blocks get the variance P(1-P).
    """
    geo = model.geometry
    p1 = exact_marginal(model, [b1], window, depth)
    if b1 == b2:
        return {"cov": p1 * (1 - p1), "factored_cov": p1 * (1 - p1),
                "joint": p1, "p1": p1, "p2": p1, "mode": "variance"}
    p2 = exact_marginal(model, [b2], window, depth)
    joint = exact_marginal(model, [b1, b2], window, depth)
    cov = joint - p1 * p2
    if overlaps(b1, b2, geo):
        factored = -p1 * p2
    else:
        factored = p1 * p2 * _common_chain_R(model, [b1], [b2], window, depth)
    return {"cov": cov, "factored_cov": factored, "joint": joint,
            "p1": p1, "p2": p2, "mode": "pair"}


def _common_chain_R(model: ActivityModel, set1, set2,
                    window: Optional[Block], depth: int) -> float:
    """R over the common strict-ancestor set of two disjoint block sets."""
    geo = model.geometry
    if window is not None:
        sys = TruncatedSystem(model, window, depth)
        anc2 = {a for b in set2 for a in ancestors(b, window.scale, geo)}
        anc1 = {a for b in set1 for a in ancestors(b, window.scale, geo)}
        common = (anc1 & anc2) - set(set1) - set(set2)
        s = ordered_sum(log1p_exp(sys.log_zhat(a)) for a in common)
        return math.expm1(s)
    # infinite volume: common strict ancestors are the chain above (and
    # including) the covering block; R equals the homogeneous tail ratio
    return tail_ratio_R(model, min(lcs(a, b, geo) for a in set1 for b in set2))


def config_covariance(model: ActivityModel, set1, set2,
                      window: Optional[Block], depth: int) -> dict:
    """Covariance of two finite sub-configurations, with factorisation check."""
    set1, set2 = sorted(set(set1)), sorted(set(set2))
    if set(set1) & set(set2):
        raise ValueError("configuration sets must be disjoint as sets")
    geo = model.geometry
    p1 = exact_marginal(model, set1, window, depth)
    p2 = exact_marginal(model, set2, window, depth)
    joint = exact_marginal(model, set1 + set2, window, depth)
    cov = joint - p1 * p2
    if not _hard_core(set1 + set2, geo):
        factored_joint = 0.0
    else:
        factored_joint = p1 * p2 * (1 + _common_chain_R(model, set1, set2, window, depth))
    n_min = min(len(set1), len(set2))
    return {"cov": cov, "joint": joint, "factored_joint": factored_joint,
            "p1": p1, "p2": p2, "min_size": n_min}


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
        vols = [(j, prof.log_z[j]) for j in range(max(prof.j_lo, 0), prof.j_hi + 1)
                if prof.log_z[j] > -math.inf]
        if not vols:
            theta, exact = -math.inf, True
        else:
            theta = max(lv / float(geo.M) ** (geo.d * j) for j, lv in vols[-20:])
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
        S = math.exp(min(log_S, 700.0))
        return (log_expm1(S) if S < 700 else S), lead, rel
    return log_S, lead, rel             # R = expm1(S) = S (1 + O(S))


def log_tail_ratio(model: ActivityModel, j: int) -> float:
    """log R_j with R_j = prod_{k >= j}(1 + zhat_k) - 1, stable far below
    double underflow, from the profile up to scale max(j, 0) + 80."""
    _require_scalewise(model, "scale profile")
    return _log_tail_ratio(model, j)


def _log_tail_ratio(model: ActivityModel, j: int) -> float:
    prof = _scale_profile(model, max(j + 80, 80))
    r = _log_R(_R_terms(prof, j)[1])
    return -math.inf if r is None else r[0]


def tail_ratio_R(model: ActivityModel, j: int, tol: float = DEFAULT_TOL) -> float:
    """R_j as a float (0.0 when it underflows; use log_tail_ratio then)."""
    _require_condition_ii(model, "tail ratio")
    lr = _log_tail_ratio(model, j)
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
    _require_condition_ii(model, "decay profile")
    geo = model.geometry
    # 90 scales above the highest row, or above the profile's first scale
    prof = _scale_profile(model, max(j_max, _profile_start_scale(model)) + 90)
    parametric = isinstance(_unwrap(model)[0], Parametric)
    scales, terms = _R_terms(prof, max(0, prof.j_lo))
    # log(M**(-d k) log(1 + zhat_k)), the same -30 branch as the R terms
    log_M = math.log(geo.M)
    tail_terms = [t - geo.d * k * log_M for k, t in zip(scales, terms)]
    rows = []
    for j in range(0, j_max + 1):
        vol = float(geo.M) ** (geo.d * j)
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
            S = math.exp(min(log_S, 700.0))
            corr = log_R - log_S if log_S > -30 and S < 700 else 0.0
            delta = (lead - prof.log_zhat[j]) + math.log1p(rel) + corr
            log_tail_p = logsumexp_iter(tail_terms[i:])
            tail_contrib = math.exp(geo.d * j * math.log(geo.M) + log_tail_p) \
                if log_tail_p > -math.inf else 0.0
            row["residual"] = delta + tail_contrib
        rows.append(row)
    return rows


def series_summand_bounds(r: float, b: float, j: int,
                          k_max: int = 2000) -> dict:
    """The tail sum sum_{k >= j} exp(-r b**k) and its sandwich bounds.

    lower = exp(-r b**j), upper = lower * (1 + 1/(r log(b) b**j)); all three
    are also reported in log domain for deep-tail use.
    """
    if r <= 0 or b <= 1:
        raise ValueError(f"need r > 0 and b > 1, got r={r}, b={b}")
    log_lower = -r * b**j
    terms = []
    for k in range(j, j + k_max):
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
                geometry: Optional[Geometry] = None,
                bracket: tuple[float, float] = (-50.0, 50.0)) -> dict:
    """Bisection on mu over the summability of the effective activities.

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
    lo, hi = bracket
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
    at_mu_c = _gibbs_predicate(geo, mu_c, J, alpha)
    gibbs_at: object
    if at_mu_c == "holds":
        gibbs_at = True
    elif at_mu_c == "fails":
        gibbs_at = False
    else:
        gibbs_at = "undecided"
    return {"mu_c": mu_c, "gibbs_at_mu_c": gibbs_at, "trace": trace, "note": ""}
