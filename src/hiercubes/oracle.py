"""Exact enumeration of small truncated systems and identity verifiers.

The enumeration oracle lists every hard-core configuration of a finite block
system with its weight, independently of the recursive analytics, and the
verifiers check the defining identities (GNZ balance, top-down conditionals,
the product formula for inclusion probabilities) exhaustively on that support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .blocks import (Block, Geometry, ancestors, children, contains,
                     descendants, parent)
from .activities import ActivityModel, Homogeneous
from .logreal import logsumexp_iter
from .analytics import TruncatedSystem

SUPPORT_CAP = 10**7


class SupportCapExceeded(RuntimeError):
    def __init__(self, size: int):
        super().__init__(f"support size {size} exceeds the enumeration cap {SUPPORT_CAP}")
        self.size = size


@dataclass
class ExactDistribution:
    """The full distribution of a finite block system.

    `support` lists the hard-core configurations (frozensets of blocks) with
    positive weight; `probs` are the normalized probabilities in the same
    order; `log_partition` is the log of the unnormalized mass.
    """

    geometry: Geometry
    window: Block
    depth: int
    support: list[frozenset]
    probs: list[float]
    log_partition: float
    index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {cfg: i for i, cfg in enumerate(self.support)}

    def prob(self, cfg) -> float:
        i = self.index.get(frozenset(cfg))
        return self.probs[i] if i is not None else 0.0

    def prob_superset(self, blocks) -> float:
        want = frozenset(blocks)
        return sum(p for cfg, p in zip(self.support, self.probs) if want <= cfg)

    def blocks(self) -> list[Block]:
        """All blocks of the system, top scale first."""
        return descendants(self.window, -self.depth, self.geometry)


def support_count(geo: Geometry, window: Block, depth: int) -> int:
    """Number of hard-core configurations: c(B) = 1 + prod over children."""
    counts: dict[int, int] = {-depth: 2}
    for j in range(-depth + 1, window.scale + 1):
        counts[j] = 1 + counts[j - 1] ** geo.branching
    return counts[window.scale]


def enumerate_system(model: ActivityModel, window: Block, depth: int,
                     cap: int = SUPPORT_CAP) -> ExactDistribution:
    """All hard-core configurations of the truncated system with weights."""
    geo = model.geometry
    n = support_count(geo, window, depth)
    if n > cap:
        raise SupportCapExceeded(n)

    def configs(b: Block) -> list[tuple[frozenset, float]]:
        occupied = []
        lz = model.log_activity(b)
        if lz > -math.inf:
            occupied.append((frozenset([b]), lz))
        if b.scale == -depth:
            return occupied + [(frozenset(), 0.0)]
        combined = [(frozenset(), 0.0)]
        for c in children(b, geo):
            sub = configs(c)
            combined = [(acc | cfg, w_acc + w)
                        for acc, w_acc in combined for cfg, w in sub]
        return occupied + combined

    all_cfgs = configs(window)
    log_partition = logsumexp_iter(w for _, w in all_cfgs)
    support = [cfg for cfg, _ in all_cfgs]
    probs = [math.exp(w - log_partition) for _, w in all_cfgs]
    return ExactDistribution(geo, window, depth, support, probs, log_partition)


def hierarchical_distribution(ratios: Callable[[Block], float], geo: Geometry,
                              window: Block, depth: int,
                              cap: int = SUPPORT_CAP) -> ExactDistribution:
    """The law of maximal occupied blocks of an independent Bernoulli field.

    P(omega = config) = prod_{B in config} rho(B) * prod (1 - rho(B')) over
    the blocks neither in the configuration nor below one of its members.
    Configurations are int masks over the numbered blocks (see `_Numbering`);
    the cost is blocks x support.
    """
    n = support_count(geo, window, depth)
    if n > cap:
        raise SupportCapExceeded(n)
    num = _Numbering(geo, window, depth)
    rho = [ratios(b) for b in num.blocks]
    support = _hardcore_configs(geo, window, depth)
    probs = []
    for m in map(num.mask, support):
        covered = 0
        for i in num.bits(m):
            covered |= num.sub[i]
        p = 1.0
        for i, r in enumerate(rho):
            if m >> i & 1:
                p *= r
            elif not covered >> i & 1:
                p *= 1.0 - r
        probs.append(p)
    return ExactDistribution(geo, window, depth, support, probs, 0.0)


def mandelbrot_distribution(p: float, geo: Geometry, window: Block,
                            depth: int) -> ExactDistribution:
    """Truncated fractal percolation: every block retained independently with
    probability p; the configuration is the set of maximal retained blocks."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    return hierarchical_distribution(lambda b: p, geo, window, depth)


def _hardcore_configs(geo: Geometry, window: Block, depth: int) -> list[frozenset]:
    def configs(b: Block) -> list[frozenset]:
        own = [frozenset([b])]
        if b.scale == -depth:
            return own + [frozenset()]
        combined = [frozenset()]
        for c in children(b, geo):
            sub = configs(c)
            combined = [acc | cfg for acc in combined for cfg in sub]
        return own + combined
    return configs(window)


class _Numbering:
    """The blocks of a truncated system numbered top-down, bit i for block i.

    A configuration becomes the int mask of its members' bits.  `anc[i]` is
    the mask of the strict ancestors of block i inside the window and
    `sub[i]` the mask of its subtree, block i included, so block i overlaps
    exactly the blocks of `anc[i] | sub[i]`.
    """

    def __init__(self, geo: Geometry, window: Block, depth: int):
        self.blocks = descendants(window, -depth, geo)
        self.bit = {b: i for i, b in enumerate(self.blocks)}
        n = len(self.blocks)
        up = [self.bit[parent(b, geo)] if i else -1
              for i, b in enumerate(self.blocks)]
        self.anc = [0] * n
        for i in range(1, n):             # parents precede their children
            self.anc[i] = self.anc[up[i]] | 1 << up[i]
        self.sub = [1 << i for i in range(n)]
        for i in range(n - 1, 0, -1):     # children follow their parents
            self.sub[up[i]] |= self.sub[i]

    def mask(self, cfg) -> int:
        m = 0
        for b in cfg:
            m |= 1 << self.bit[b]
        return m

    def bits(self, m: int):
        """Indices of the set bits of m, in increasing order."""
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low


def _numbered(dist: ExactDistribution) -> tuple[_Numbering, list[int]]:
    num = _Numbering(dist.geometry, dist.window, dist.depth)
    return num, [num.mask(cfg) for cfg in dist.support]


# ---------------------------------------------------------------------------
# identity verifiers
# ---------------------------------------------------------------------------

def _report(check: str, num: _Numbering, max_residual: float, worst_block,
            worst_event: Optional[int]) -> dict:
    return {"check": check,
            "max_residual": max_residual,
            "worst_case_block": str(worst_block) if worst_block is not None else None,
            "worst_case_event": sorted(str(num.blocks[i]) for i in num.bits(worst_event))
            if worst_event is not None else None}


def verify_gnz(dist: ExactDistribution, model: ActivityModel) -> dict:
    """Exhaustive check of the Gibbs balance equation.

    For every block B and every occupancy pattern sigma of the remaining
    blocks:  P(omega = sigma + B) = z(B) * P(omega = sigma) * 1[sigma avoids
    every block intersecting B].  Also records the per-block worst residual.
    Patterns are int masks over the numbered blocks, with probabilities
    looked up by mask; the cost is blocks x support.
    """
    num, masks = _numbered(dist)
    prob = dict(zip(masks, dist.probs))
    worst = 0.0
    worst_block, worst_event = None, None
    per_block: dict[str, float] = {}
    for i, b in enumerate(num.blocks):
        z = math.exp(model.log_activity(b))
        bit, hits = 1 << i, num.anc[i] | num.sub[i]
        block_worst = 0.0
        for sigma in {m & ~bit for m in masks}:
            lhs = prob.get(sigma | bit, 0.0)
            rhs = 0.0 if sigma & hits else z * prob.get(sigma, 0.0)
            r = abs(lhs - rhs)
            if r > block_worst:
                block_worst = r
            if r > worst:
                worst, worst_block, worst_event = r, b, sigma
        per_block[str(b)] = block_worst
    rep = _report("gnz", num, worst, worst_block, worst_event)
    rep["per_block"] = per_block
    return rep


def verify_topdown(dist: ExactDistribution, ratios: Callable[[Block], float]) -> dict:
    """Exhaustive check of the top-down conditional law.

    For every block B and every pattern pi of the blocks outside B's subtree:
    P(omega contains B, outside-pattern pi) = rho(B) * P(omega avoids B's
    strict ancestors, outside-pattern pi).  Patterns are int masks over the
    numbered blocks; the cost is blocks x support.
    """
    num, masks = _numbered(dist)
    worst = 0.0
    worst_block, worst_event = None, None
    for i, b in enumerate(num.blocks):
        rho = ratios(b)
        bit, anc, outside = 1 << i, num.anc[i], ~num.sub[i]
        groups: dict[int, list[tuple[int, float]]] = {}
        for m, p in zip(masks, dist.probs):
            groups.setdefault(m & outside, []).append((m, p))
        for pi, group in groups.items():
            lhs = sum(p for m, p in group if m & bit)
            rhs = rho * sum(p for m, p in group if not m & anc)
            r = abs(lhs - rhs)
            if r > worst:
                worst, worst_block, worst_event = r, b, pi
    return _report("topdown", num, worst, worst_block, worst_event)


def verify_hierarchical_formula(dist: ExactDistribution,
                                ratios: Callable[[Block], float]) -> dict:
    """Inclusion probabilities against the closed product formula.

    For every configuration in the support: P(omega contains all of it) =
    prod rho over its blocks times prod (1 - rho) over their strict ancestors
    inside the window.  Every support configuration is hard-core, so no
    ancestor is itself a member.  Configurations are int masks over the
    numbered blocks; the superset sums make the cost support^2.
    """
    num, masks = _numbered(dist)
    rho = [ratios(b) for b in num.blocks]
    worst = 0.0
    worst_event = None
    for want in masks:
        lhs = sum(p for m, p in zip(masks, dist.probs) if m & want == want)
        anc = 0
        rhs = 1.0
        for i in num.bits(want):
            anc |= num.anc[i]
            rhs *= rho[i]
        for i in num.bits(anc):
            rhs *= 1.0 - rho[i]
        r = abs(lhs - rhs)
        if r > worst:
            worst, worst_event = r, want
    return _report("hierarchical_formula", num, worst, None, worst_event)


def gibbs_ratio_function(model: ActivityModel, window: Block,
                         depth: int) -> Callable[[Block], float]:
    """Occupation ratios of the truncated system, as a plain callable."""
    sys = TruncatedSystem(model, window, depth)
    return lambda b: sys.rho(b)


def mandelbrot_gnz_report(p: float, geo: Geometry, window: Block,
                          depth: int) -> dict:
    """GNZ residuals of truncated fractal percolation against its natural
    activity fit.

    The fit z = p/(1-p) reproduces the ratio p at the bottom scale; the
    balance equation then fails at coarser blocks, worst at the window, and
    the failure grows with depth — no single activity generates the measure.
    """
    dist = mandelbrot_distribution(p, geo, window, depth)
    if p >= 1.0:
        raise ValueError("p = 1 has no finite activity fit")
    scales = range(-depth, window.scale + 1)
    fit = Homogeneous.constant(geo, p / (1.0 - p), scales)
    rep = verify_gnz(dist, fit)
    rep["check"] = "mandelbrot_gnz"
    rep["p"] = p
    rep["depth"] = depth
    rep["top_block_residual"] = rep["per_block"][str(window)]
    return rep


# ---------------------------------------------------------------------------
# limit tables
# ---------------------------------------------------------------------------

def fragmentation_table(model: ActivityModel, window: Block,
                        depths: list[int], b: Optional[Block] = None) -> list[dict]:
    """Scale-truncation limits: per depth n, the exact probability that the
    probe block is occupied, that its subtree is hit, and that the window is
    empty (= 1/Xi)."""
    b = b or window
    rows = []
    for n in depths:
        sys = TruncatedSystem(model, window, n)
        geo = model.geometry
        anc = set(ancestors(b, window.scale, geo)) - {b}
        # subtree hit: the complement is "an ancestor covers b" or "nothing
        # anywhere in b's cone", with log(1 - rho) products per branch
        log_none_anc = sum(sys.log_one_minus_rho(a) for a in anc)
        log_none_sub = -sys.log_xi(b)   # product formula: 1/Xi_b
        p_no_hit = (1.0 - math.exp(log_none_anc)) \
            + math.exp(log_none_anc + log_none_sub)
        rows.append({
            "depth": n,
            "p_block": math.exp(sys.log_rho(b) + log_none_anc),
            "p_subtree_hit": 1.0 - p_no_hit,
            "p_empty": math.exp(-sys.log_xi(window)),
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
        chain = [b] + ancestors(b, w.scale, geo)
        log_none = sum(sys.log_one_minus_rho(a) for a in chain)
        rows.append({
            "window": str(w),
            "chain_length": len(chain),
            "p_block": math.exp(sys.log_rho(b)
                                + sum(sys.log_one_minus_rho(a)
                                      for a in chain if a != b)),
            "p_chain_hit": -math.expm1(log_none),
        })
    return rows
