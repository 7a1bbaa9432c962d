"""Activity models z: blocks -> R+ and their truncations.

All evaluation happens in log domain (see logreal); a block with zero weight
has log activity -inf, which `math.exp` turns back into 0.0.  Models are
immutable after construction and safe for concurrent reads.  A truncation is
built by its class: `VolumeTruncated(model, window)` for z_window and
`ScaleTruncated(model, depth)` for z^(depth).

A model defines one read: a scale-wise constant model (z_j) the activities
of a range of scales, `log_activities(j_lo, j_hi)`; any other model the
activity of one block, `log_activity(block)`.  `ActivityModel` derives the
one-scale read and, for scale-wise models, the per-block read from the first.
The block lane of the analytics reads one level of the tree per call,
`level_log_activities(scale, indices)`: the activity of each block
(scale, index) in order.  Its default asks `log_activity` per block;
`Explicit` answers it from index tuples, building no `Block`, with the same
values.

JSON schema (consumed by every CLI command via --model FILE):

    {"kind": "homogeneous", "d": 1, "M": 2,
     "table": {"0": 1.0, "-1": 1.0},
     "tail_down": {"kind": "geometric", "ratio": 0.25},   # optional
     "tail_up": {"kind": "zero"}}                          # optional
    {"kind": "parametric", "d": 1, "M": 2, "mu": -1.0, "J": 1.0, "alpha": 0.5}
    {"kind": "explicit", "d": 1, "M": 2,
     "entries": {"0:(0)": 1.0, "-1:(1)": 0.5}, "default": 0.0}
    {"kind": "effective", "d": 1, "M": 2,
     "zhat_table": {"0": 1.0}, "zhat_tail_up": {"kind": "geometric", "ratio": 1.0}}
    {"kind": "volume_truncated", "window": "0:(0)", "inner": {...}}
    {"kind": "scale_truncated", "depth": 2, "inner": {...}}
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .blocks import Block, Geometry, contains, format_block, parse_block
from .logreal import log1p_exp


@dataclass(frozen=True)
class TailRule:
    """Analytic continuation of a homogeneous table beyond its explicit range.

    kind "zero": activity vanishes outside the table.
    kind "geometric": each further scale step multiplies the boundary value
    by `ratio` (ratio in log domain below).
    """

    kind: str = "zero"
    ratio: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "geometric"):
            raise ValueError(f"unknown tail rule {self.kind!r}")
        if self.kind == "geometric" and self.ratio <= 0:
            raise ValueError("geometric tail needs ratio > 0")

    @property
    def log_ratio(self) -> float:
        return math.log(self.ratio) if self.kind == "geometric" else -math.inf

    def to_json_obj(self) -> dict:
        if self.kind == "zero":
            return {"kind": "zero"}
        return {"kind": "geometric", "ratio": self.ratio}

    @staticmethod
    def from_json_obj(obj: Optional[dict]) -> "TailRule":
        kind = "zero" if obj is None else obj["kind"]
        return TailRule(kind, float(obj["ratio"])) if kind == "geometric" else TailRule(kind)


class ActivityModel:
    """Base class.  A scale-wise constant subclass defines
    `log_activities(j_lo, j_hi)`, any other `log_activity(block)`.  Either
    may also override `level_log_activities`, the read of one level of
    blocks, to answer it without a `Block` per index; it must return the
    values of the default."""

    geometry: Geometry

    def log_activity(self, b: Block) -> float:
        """The activity of one block: of a scale-wise model, that of its scale."""
        return self.log_activity_at_scale(b.scale)

    def level_log_activities(self, scale: int, indices: list) -> list[float]:
        """The activity of each block (scale, index), for the index tuples
        `indices`, in order: by default `log_activity` of each block."""
        return [self.log_activity(Block(scale, index)) for index in indices]

    @property
    def is_homogeneous(self) -> bool:
        """Scale-wise constant (possibly after unwrapping a scale truncation)."""
        return False

    def log_activity_at_scale(self, j: int) -> float:
        """The activity of scale j."""
        return self.log_activities(j, j)[0]

    def log_activities(self, j_lo: int, j_hi: int) -> list[float]:
        """The activity of each scale j = j_lo, ..., j_hi, in order."""
        raise NotImplementedError(f"{type(self).__name__} is not scale-wise constant")

    def homogeneous_within(self, window: Block) -> bool:
        """Scale-wise constant on the subtree below `window`."""
        return self.is_homogeneous

    def min_active_scale(self) -> Optional[int]:
        """Lowest scale with non-zero activity, or None if unbounded below."""
        raise NotImplementedError

    def to_json_obj(self) -> dict:
        raise NotImplementedError


def _log(value: float) -> float:
    """The log of a non-negative activity, -inf for zero; `math.exp` is the
    inverse, exp(-inf) being 0.0."""
    return math.log(value) if value > 0 else -math.inf


def _check_nonneg(values, what: str):
    for v in values:
        if v < 0 or math.isnan(v) or math.isinf(v):
            raise ValueError(f"{what} must be finite and >= 0, got {v}")


def _check_dimension(b: Block, geometry: Geometry, what: str):
    if b.d != geometry.d:
        raise ValueError(f"{what} {format_block(b)} has dimension {b.d}, "
                         f"not the model's {geometry.d}")


@dataclass(frozen=True)
class Homogeneous(ActivityModel):
    """Scale-wise constant activity given by a finite table plus tail rules."""

    geometry: Geometry
    log_table: dict[int, float] = field(default_factory=dict)
    tail_down: TailRule = field(default_factory=TailRule)
    tail_up: TailRule = field(default_factory=TailRule)

    @staticmethod
    def from_values(geometry: Geometry, table: dict[int, float],
                    tail_down: TailRule = TailRule(),
                    tail_up: TailRule = TailRule()) -> "Homogeneous":
        _check_nonneg(table.values(), "activity")
        log_table = {j: _log(v) for j, v in table.items()}
        return Homogeneous(geometry, log_table, tail_down, tail_up)

    @staticmethod
    def constant(geometry: Geometry, value: float, scales) -> "Homogeneous":
        return Homogeneous.from_values(geometry, {j: value for j in scales})

    @property
    def is_homogeneous(self) -> bool:
        return True

    def log_activities(self, j_lo: int, j_hi: int) -> list[float]:
        table = self.log_table
        if not table:
            return [-math.inf] * (j_hi - j_lo + 1)
        lo, hi = min(table), max(table)
        out = []
        for j in range(j_lo, j_hi + 1):
            # a tail's log_ratio property is read only beyond the table, so a
            # per-block read inside it stays cheap
            if j < lo:
                out.append(table[lo] + (lo - j) * self.tail_down.log_ratio)
            elif j > hi:
                out.append(table[hi] + (j - hi) * self.tail_up.log_ratio)
            else:
                out.append(table.get(j, -math.inf))
        return out

    def min_active_scale(self) -> Optional[int]:
        active = [j for j, lv in self.log_table.items() if lv > -math.inf]
        # a geometric tail continues the lowest table value, so it is zero
        # when that value is
        if self.tail_down.kind == "geometric" and self.log_table \
                and self.log_table[min(self.log_table)] > -math.inf:
            return None
        return min(active) if active else 0

    def to_json_obj(self) -> dict:
        return {
            "kind": "homogeneous",
            "d": self.geometry.d,
            "M": self.geometry.M,
            "table": {str(j): math.exp(lv) for j, lv in self.log_table.items()},
            "tail_down": self.tail_down.to_json_obj(),
            "tail_up": self.tail_up.to_json_obj(),
        }


@dataclass(frozen=True)
class Parametric(ActivityModel):
    """z_j = exp(M**(d j) mu - M**(alpha d j) J) for j >= 0, zero below scale 0."""

    geometry: Geometry
    mu: float
    J: float
    alpha: float

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if not (math.isfinite(self.mu) and math.isfinite(self.J)):
            raise ValueError(f"mu and J must be finite, got mu={self.mu}, J={self.J}")

    @property
    def is_homogeneous(self) -> bool:
        return True

    def log_activities(self, j_lo: int, j_hi: int) -> list[float]:
        """The activities read from one power table, shared by every model
        with the same M, d and alpha."""
        first = min(max(j_lo, 0), j_hi + 1)
        powers = _parametric_powers(self.geometry.M, self.geometry.d, self.alpha,
                                    first, j_hi)
        mu, J = self.mu, self.J
        return [-math.inf] * (first - j_lo) + [vol * mu - cost * J for vol, cost in powers]

    def min_active_scale(self) -> Optional[int]:
        return 0

    def to_json_obj(self) -> dict:
        return {"kind": "parametric", "d": self.geometry.d, "M": self.geometry.M,
                "mu": self.mu, "J": self.J, "alpha": self.alpha}


@functools.lru_cache(maxsize=32, typed=True)
def _parametric_powers(M: int, d: int, alpha: float, j_lo: int,
                       j_hi: int) -> tuple[tuple[float, float], ...]:
    """(M**(d j), M**(alpha d j)) as floats for j = j_lo, ..., j_hi: the
    volume read from `Geometry.volumes` (blocks), the real-exponent power
    formed here; an OverflowError where M**(d j) overflows a float, which
    (alpha < 1) comes no later than M**(alpha d j) does."""
    vols = Geometry(d, M).volumes(j_lo, j_hi)
    if vols:
        _finite(vols[-1])   # the volume grows with j
    return tuple(zip(vols, (M ** (alpha * d * j) for j in range(j_lo, j_hi + 1))))


def _finite(volume: float) -> float:
    """A volume that an activity model multiplies by a parameter, where inf
    would give NaN: an OverflowError past the float range."""
    if volume == math.inf:
        raise OverflowError("int too large to convert to float")
    return volume


@dataclass(frozen=True)
class Explicit(ActivityModel):
    """Per-block activity map with a default for unlisted blocks."""

    geometry: Geometry
    log_entries: dict[Block, float] = field(default_factory=dict)
    log_default: float = -math.inf

    def __post_init__(self):
        for b in self.log_entries:
            _check_dimension(b, self.geometry, "entry")

    @staticmethod
    def from_values(geometry: Geometry, entries: dict[Block, float],
                    default: float = 0.0) -> "Explicit":
        _check_nonneg(entries.values(), "activity")
        _check_nonneg([default], "default activity")
        return Explicit(geometry, {b: _log(v) for b, v in entries.items()}, _log(default))

    def log_activity(self, b: Block) -> float:
        return self.log_entries.get(b, self.log_default)

    @functools.cached_property
    def _entries_by_scale(self) -> dict[int, dict[tuple, float]]:
        """scale -> {index -> log activity} of the entries, built on the first
        level read and kept on the instance."""
        by_scale: dict[int, dict[tuple, float]] = {}
        for b, lv in self.log_entries.items():
            by_scale.setdefault(b.scale, {})[b.index] = lv
        return by_scale

    def level_log_activities(self, scale: int, indices: list) -> list[float]:
        entries, default = self._entries_by_scale.get(scale, {}), self.log_default
        return [entries.get(index, default) for index in indices]

    def min_active_scale(self) -> Optional[int]:
        if self.log_default > -math.inf:
            return None
        active = [b.scale for b, lv in self.log_entries.items() if lv > -math.inf]
        return min(active) if active else 0

    def to_json_obj(self) -> dict:
        return {
            "kind": "explicit",
            "d": self.geometry.d,
            "M": self.geometry.M,
            "entries": {format_block(b): math.exp(lv) for b, lv in self.log_entries.items()},
            "default": math.exp(self.log_default),
        }


@dataclass(frozen=True)
class EffectiveDesign(ActivityModel):
    """Homogeneous activity reconstructed from prescribed effective activities.

    Stores the target per-scale effective activities and derives the plain
    activity on demand via z_j = zhat_j * exp(M**(d j) p_{j-1}) with
    p_j = sum_{k <= j} M**(-d k) log(1 + zhat_k) -- the inversion of the
    partition-function recurrence, carried entirely in log domain.
    """

    geometry: Geometry
    log_zhat_table: dict[int, float] = field(default_factory=dict)
    zhat_tail_up: TailRule = field(default_factory=TailRule)

    @staticmethod
    def from_values(geometry: Geometry, zhat_table: dict[int, float],
                    zhat_tail_up: TailRule = TailRule()) -> "EffectiveDesign":
        _check_nonneg(zhat_table.values(), "effective activity")
        log_table = {j: _log(v) for j, v in zhat_table.items()}
        return EffectiveDesign(geometry, log_table, zhat_tail_up)

    @property
    def is_homogeneous(self) -> bool:
        return True

    def min_active_scale(self) -> Optional[int]:
        active = [j for j, lv in self.log_zhat_table.items() if lv > -math.inf]
        return min(active) if active else 0

    def log_activities(self, j_lo: int, j_hi: int) -> list[float]:
        """One upward pass: p_{j-1} is summed from the lowest designed scale
        upwards, each scale's term added once.  log zhat is read once, up
        from the lower of j_lo and the table's lowest scale, as a
        `Homogeneous` table continues: zero below, `zhat_tail_up` above."""
        lo = min(j_lo, min(self.log_zhat_table, default=j_lo))
        lz = Homogeneous(self.geometry, self.log_zhat_table,
                         tail_up=self.zhat_tail_up).log_activities(lo, j_hi)
        # p sums the scales below k, from the lowest active one
        k = k_lo = next((lo + i for i, v in enumerate(lz) if v > -math.inf), j_hi)
        # M**(d j) for j = j_lo, ..., j_hi and M**(-d k) for k = j_hi - 1
        # down to k_lo, each read once; a volume raises only where it is used
        up = self.geometry.volumes(j_lo, j_hi)
        down = self.geometry.volumes(1 - j_hi, -k_lo)
        out = []
        p = 0.0
        for j, vol in zip(range(j_lo, j_hi + 1), up):
            lz_hat = lz[j - lo]
            if lz_hat == -math.inf:
                out.append(-math.inf)
                continue
            while k < j:
                lz_k = lz[k - lo]
                if lz_k > -math.inf:
                    p += _finite(down[j_hi - 1 - k]) * log1p_exp(lz_k)
                k += 1
            out.append(lz_hat + _finite(vol) * p)
        return out

    def to_json_obj(self) -> dict:
        return {
            "kind": "effective",
            "d": self.geometry.d,
            "M": self.geometry.M,
            "zhat_table": {str(j): math.exp(lv) for j, lv in self.log_zhat_table.items()},
            "zhat_tail_up": self.zhat_tail_up.to_json_obj(),
        }


@dataclass(frozen=True)
class Formula(ActivityModel):
    """Activity given by an arbitrary callable block -> value (Python API only).

    Used for inhomogeneous constructions that have no finite table, e.g. one
    marked block per scale.  Not JSON-serializable.
    """

    geometry: Geometry
    fn: Callable[[Block], float]
    lowest_scale: Optional[int] = None

    def log_activity(self, b: Block) -> float:
        v = self.fn(b)
        if v < 0:
            raise ValueError(f"activity formula returned {v} < 0 for {b}")
        return _log(v)

    def min_active_scale(self) -> Optional[int]:
        return self.lowest_scale

    def to_json_obj(self) -> dict:
        raise TypeError("formula activities have no JSON form")


@dataclass(frozen=True)
class VolumeTruncated(ActivityModel):
    """z_window(B) = z(B) 1{B inside window}."""

    inner: ActivityModel
    window: Block

    def __post_init__(self):
        _check_dimension(self.window, self.geometry, "window")

    @property
    def geometry(self) -> Geometry:  # type: ignore[override]
        return self.inner.geometry

    def log_activity(self, b: Block) -> float:
        if not contains(self.window, b, self.geometry):
            return -math.inf
        return self.inner.log_activity(b)

    def homogeneous_within(self, window: Block) -> bool:
        if not contains(self.window, window, self.geometry):
            return False
        return self.inner.homogeneous_within(window)

    def log_activities(self, j_lo: int, j_hi: int) -> list[float]:
        # valid only on the subtree below self.window; guarded by callers
        # via homogeneous_within
        top = max(min(j_hi, self.window.scale), j_lo - 1)
        return self.inner.log_activities(j_lo, top) + [-math.inf] * (j_hi - top)

    def min_active_scale(self) -> Optional[int]:
        return self.inner.min_active_scale()

    def to_json_obj(self) -> dict:
        return {"kind": "volume_truncated", "window": format_block(self.window),
                "inner": self.inner.to_json_obj()}


@dataclass(frozen=True)
class ScaleTruncated(ActivityModel):
    """z^(n)(B) = z(B) 1{scale(B) >= -depth}."""

    inner: ActivityModel
    depth: int

    @property
    def geometry(self) -> Geometry:  # type: ignore[override]
        return self.inner.geometry

    @property
    def is_homogeneous(self) -> bool:
        return self.inner.is_homogeneous

    def homogeneous_within(self, window: Block) -> bool:
        return self.inner.homogeneous_within(window)

    def log_activity(self, b: Block) -> float:
        if b.scale < -self.depth:
            return -math.inf
        return self.inner.log_activity(b)

    def log_activities(self, j_lo: int, j_hi: int) -> list[float]:
        bottom = min(max(j_lo, -self.depth), j_hi + 1)
        return [-math.inf] * (bottom - j_lo) + self.inner.log_activities(bottom, j_hi)

    def min_active_scale(self) -> Optional[int]:
        lo = self.inner.min_active_scale()
        return -self.depth if lo is None else max(lo, -self.depth)

    def to_json_obj(self) -> dict:
        return {"kind": "scale_truncated", "depth": self.depth,
                "inner": self.inner.to_json_obj()}


def model_from_json_obj(obj: dict) -> ActivityModel:
    """Rebuild a model from its JSON object; malformed input is a ValueError."""
    try:
        return _model_from_json_obj(obj)
    except KeyError as exc:
        raise ValueError(f"model JSON is missing the key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"model JSON has a value of the wrong type: {exc}") from None


def _expect(value, kind: type, what: str):
    """`value` if it is a `kind`, else a ValueError naming `what`."""
    if not isinstance(value, kind):
        raise ValueError(f"model JSON: {what} must be a {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


def _model_from_json_obj(obj: dict) -> ActivityModel:
    kind = _expect(obj, dict, "a model").get("kind")
    if kind in ("volume_truncated", "scale_truncated"):
        inner = _model_from_json_obj(obj["inner"])
        if kind == "volume_truncated":
            window = parse_block(_expect(obj["window"], str, "'window'"))
            return VolumeTruncated(inner, window)
        return ScaleTruncated(inner, int(obj["depth"]))
    geo = Geometry(int(obj["d"]), int(obj.get("M", 2)))
    if kind == "homogeneous":
        table = {int(j): float(v)
                 for j, v in _expect(obj.get("table", {}), dict, "'table'").items()}
        return Homogeneous.from_values(
            geo, table,
            TailRule.from_json_obj(obj.get("tail_down")),
            TailRule.from_json_obj(obj.get("tail_up")))
    if kind == "parametric":
        return Parametric(geo, float(obj["mu"]), float(obj["J"]), float(obj["alpha"]))
    if kind == "explicit":
        entries = {parse_block(k): float(v)
                   for k, v in _expect(obj.get("entries", {}), dict, "'entries'").items()}
        return Explicit.from_values(geo, entries, float(obj.get("default", 0.0)))
    if kind == "effective":
        table = {int(j): float(v)
                 for j, v in _expect(obj.get("zhat_table", {}), dict, "'zhat_table'").items()}
        return EffectiveDesign.from_values(
            geo, table, TailRule.from_json_obj(obj.get("zhat_tail_up")))
    raise ValueError(f"unknown activity model kind {kind!r}")


def load_model(path: str) -> ActivityModel:
    with open(path) as fh:
        return model_from_json_obj(json.load(fh))
