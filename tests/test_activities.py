import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hiercubes.blocks import (Block, Geometry, block, contains, descendants,
                              subtree_levels)
from hiercubes.activities import (ActivityModel, EffectiveDesign, Explicit, Formula,
                                  Homogeneous, Parametric, ScaleTruncated,
                                  TailRule, VolumeTruncated, load_model,
                                  model_from_json_obj)
from hiercubes.analytics import critical_mu, scale_profile
from hiercubes.logreal import log1p_exp

GEO = Geometry(1)
W = block(0, 0)


def rand_blocks(seed=0, n=1000, d=1):
    import random
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        scale = rng.randint(-8, 8)
        out.append(Block(scale, tuple(rng.randint(0, 500) for _ in range(d))))
    return out


# -- homogeneous tables and tails -------------------------------------------

def test_homogeneous_table_and_tails():
    m = Homogeneous.from_values(GEO, {0: 1.0, -1: 0.5},
                                tail_down=TailRule("geometric", 0.25),
                                tail_up=TailRule("geometric", 0.5))
    assert m.log_activity_at_scale(0) == 0.0
    assert m.log_activity_at_scale(-1) == pytest.approx(math.log(0.5))
    assert m.log_activity_at_scale(-3) == pytest.approx(math.log(0.5 * 0.25 ** 2))
    assert m.log_activity_at_scale(2) == pytest.approx(math.log(0.25))
    assert m.min_active_scale() is None          # geometric tail is unbounded below


def test_homogeneous_zero_tail_min_scale():
    m = Homogeneous.constant(GEO, 1.0, range(-2, 1))
    assert m.min_active_scale() == -2
    assert m.log_activity_at_scale(-3) == -math.inf
    assert m.log_activity_at_scale(1) == -math.inf


def test_negative_activity_rejected():
    with pytest.raises(ValueError):
        Homogeneous.from_values(GEO, {0: -1.0})
    with pytest.raises(ValueError):
        TailRule("geometric", -0.5)
    with pytest.raises(ValueError):
        TailRule("nonsense")


@pytest.mark.parametrize("ratio", [0.0, math.nan, math.inf, -math.inf])
def test_geometric_tail_needs_a_finite_positive_ratio(ratio):
    with pytest.raises(ValueError, match=f"finite ratio > 0, got ratio={ratio}"):
        TailRule("geometric", ratio)


# -- parametric --------------------------------------------------------------

def test_parametric_formula():
    m = Parametric(GEO, mu=-1.0, J=1.0, alpha=0.5)
    for j in range(0, 12):
        expect = 2.0 ** j * -1.0 - 2.0 ** (0.5 * j) * 1.0
        assert m.log_activity_at_scale(j) == pytest.approx(expect)
    assert m.log_activity_at_scale(-1) == -math.inf
    assert m.min_active_scale() == 0


def test_parametric_threshold_identity():
    # M**(-d j) log z_j = mu - M**((alpha-1) d j) J -> mu as j grows
    m = Parametric(GEO, mu=0.3, J=2.0, alpha=0.5)
    vals = [m.log_activity_at_scale(j) * 2.0 ** -j for j in range(40, 50)]
    assert vals[-1] == pytest.approx(0.3, abs=1e-6)
    assert all(vals[k] < vals[k + 1] for k in range(len(vals) - 1))


def test_parametric_alpha_validation():
    with pytest.raises(ValueError):
        Parametric(GEO, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Parametric(GEO, 0.0, 1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["mu", "J"])
def test_parametric_non_finite_parameters_rejected(name, bad):
    # a NaN mu used to run condition (ii) to its scale cap, and a NaN J to
    # break the bisection bracket of critical_mu
    params = {"mu": 0.0, "J": 1.0, name: bad}
    with pytest.raises(ValueError, match="mu and J must be finite"):
        Parametric(GEO, alpha=0.5, **params)
    with pytest.raises(ValueError, match="mu and J must be finite"):
        model_from_json_obj({"kind": "parametric", "d": 1, "M": 2, "alpha": 0.5, **params})
    if name == "J":
        # refused before the bisection tries a mu the caller never gave
        with pytest.raises(ValueError, match=r"^J must be finite, got J="):
            critical_mu(bad, 0.5, 1e-6)


# -- explicit and formula -----------------------------------------------------

def test_explicit_entries_and_default():
    m = Explicit.from_values(GEO, {block(0, 0): 2.0}, default=0.0)
    assert m.log_activity(block(0, 0)) == pytest.approx(math.log(2.0))
    assert m.log_activity(block(0, 1)) == -math.inf
    assert not m.is_homogeneous


def test_formula_wraps_callable():
    m = Formula(GEO, lambda b: 1.0 if b.scale == -1 else 0.0)
    assert m.log_activity(block(-1, 3)) == 0.0
    assert m.log_activity(block(0, 0)) == -math.inf
    with pytest.raises(TypeError):
        m.to_json_obj()


def test_activity_data_of_another_dimension_rejected():
    # a d=2 entry in a d=1 model would make scale -5 its lowest active scale
    with pytest.raises(ValueError, match="entry -5:\\(0,0\\) has dimension 2, not the model's 1"):
        Explicit.from_values(Geometry(1), {block(-5, 0, 0): 1.0, block(0, 1): 2.0}, 0.0)
    with pytest.raises(ValueError, match="dimension 1, not the model's 2"):
        Explicit(Geometry(2), {block(0, 0): 0.0})
    inner = Explicit.from_values(Geometry(1), {}, 0.5)
    with pytest.raises(ValueError, match="window 1:\\(0,0\\) has dimension 2, not the model's 1"):
        VolumeTruncated(inner, block(1, 0, 0))
    with pytest.raises(ValueError, match="window"):
        model_from_json_obj({"kind": "volume_truncated", "window": "1:(0,0)",
                             "inner": inner.to_json_obj()})


# -- truncations --------------------------------------------------------------

def test_truncation_composition_oracle():
    base = Homogeneous.from_values(GEO, {0: 1.0},
                                   tail_down=TailRule("geometric", 0.5),
                                   tail_up=TailRule("geometric", 0.5))
    t = ScaleTruncated(VolumeTruncated(base, W), 3)
    for b in rand_blocks(seed=7):
        lz = t.log_activity(b)
        inside = (b.scale >= -3 and b.scale <= 0
                  and 0 <= b.index[0] * 2.0 ** b.scale < 1.0)
        if inside:
            assert lz == base.log_activity(b)
        else:
            assert lz == -math.inf


def test_truncation_homogeneity_flags():
    base = Homogeneous.constant(GEO, 1.0, range(-3, 1))
    assert ScaleTruncated(base, 2).is_homogeneous
    vt = VolumeTruncated(base, W)
    assert vt.homogeneous_within(W)
    assert vt.homogeneous_within(block(-1, 0))
    assert not vt.homogeneous_within(block(1, 0))   # window boundary cuts scales


# -- effective design ----------------------------------------------------------

def test_effective_design_lowest_scale_is_plain():
    m = EffectiveDesign.from_values(GEO, {0: 1.0})
    # single designed scale: zhat = z there
    assert m.log_activity_at_scale(0) == pytest.approx(0.0)


def test_effective_design_inversion():
    # derived activity must reproduce the designed zhat through the recursion
    from hiercubes.analytics import effective_activity
    target = {-2: 0.25, -1: 0.5, 0: 1.0, 1: 0.125}
    m = EffectiveDesign.from_values(GEO, target)
    for j, want in target.items():
        got = effective_activity(m, block(j, 0), depth=2)
        assert math.exp(got.log) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("bad", [-0.5, math.nan], ids=["negative", "nan"])
def test_effective_design_rejects_a_bad_target(bad):
    with pytest.raises(ValueError, match="effective activity must be finite and >= 0"):
        EffectiveDesign.from_values(GEO, {0: 1.0, 1: bad})


# -- serialization -------------------------------------------------------------

@pytest.mark.parametrize("model", [
    Homogeneous.from_values(GEO, {0: 1.0, -2: 0.3},
                            tail_down=TailRule("geometric", 0.25)),
    Parametric(GEO, -1.0, 1.0, 0.5),
    Explicit.from_values(Geometry(2), {block(0, 0, 0): 2.0, block(-1, 1, 1): 0.5}),
    EffectiveDesign.from_values(GEO, {0: 1.0, 3: 0.25},
                                zhat_tail_up=TailRule("geometric", 0.5)),
    VolumeTruncated(ScaleTruncated(Parametric(GEO, -1.0, 1.0, 0.5), 3), block(2, 1)),
    ScaleTruncated(VolumeTruncated(
        Explicit.from_values(GEO, {block(0, 4): 2.0, block(-1, 9): 0.5, block(-3, 33): 1.5},
                             default=0.25), block(1, 2)), 2),
])
def test_json_roundtrip(model):
    clone = model_from_json_obj(model.to_json_obj())
    assert type(clone) is type(model)
    assert clone.geometry == model.geometry
    for b in rand_blocks(seed=3, n=300, d=model.geometry.d):
        a, c = model.log_activity(b), clone.log_activity(b)
        if a == -math.inf:
            assert c == -math.inf
        else:
            assert c == pytest.approx(a, abs=1e-12)


def test_load_model_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "homogeneous", "d": 1, "M": 2,
                                "table": {"0": 1.0, "-1": 0.5}}))
    m = load_model(str(path))
    assert isinstance(m, Homogeneous)
    assert m.log_activity_at_scale(-1) == pytest.approx(math.log(0.5))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        model_from_json_obj({"kind": "mystery", "d": 1, "M": 2})


# -- monotonicity property ------------------------------------------------------

@settings(max_examples=50)
@given(st.floats(0.1, 2.0), st.floats(0.1, 2.0))
def test_homogeneous_scaling_monotone(v1, v2):
    lo, hi = min(v1, v2), max(v1, v2)
    m_lo = Homogeneous.constant(GEO, lo, range(-3, 1))
    m_hi = Homogeneous.constant(GEO, hi, range(-3, 1))
    for j in range(-3, 1):
        assert m_lo.log_activity_at_scale(j) <= m_hi.log_activity_at_scale(j)


# -- the activity list of a scale range ---------------------------------------------

def tail_rules(ratios):
    return st.one_of(st.just(TailRule()), ratios.map(lambda r: TailRule("geometric", r)))


@st.composite
def scale_wise_models(draw):
    """Every scale-wise model class, some activities zero, bare or inside a
    scale truncation, a volume truncation or both."""
    geo = Geometry(draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    kind = draw(st.sampled_from(["homogeneous", "parametric", "design"]))
    table = draw(st.dictionaries(st.integers(-4, 3),
                                 st.one_of(st.just(0.0), st.floats(0.05, 3.0)), max_size=5))
    if kind == "parametric":
        model = Parametric(geo, draw(st.floats(-2.0, 1.0)), draw(st.floats(0.0, 2.0)),
                           draw(st.floats(0.05, 0.95)))
    elif kind == "homogeneous":
        model = Homogeneous.from_values(geo, table, draw(tail_rules(st.floats(0.05, 0.5))),
                                        draw(tail_rules(st.floats(0.1, 1.5))))
    else:
        model = EffectiveDesign.from_values(geo, table, draw(tail_rules(st.floats(0.1, 1.5))))
    wrap = draw(st.sampled_from(["none", "scale", "volume", "both"]))
    if wrap in ("scale", "both"):
        model = ScaleTruncated(model, draw(st.integers(0, 6)))
    if wrap in ("volume", "both"):
        model = VolumeTruncated(model, Block(draw(st.integers(-3, 5)), (0,) * geo.d))
    return model


def nearest_power(M, n):
    """M**n as the models read the volume: the nearest float of the exact
    power, an OverflowError past the float range."""
    return float(M ** n) if n >= 0 else 1 / M ** -n


def reference_scale_value(model, j):
    """The activity of scale j, each model's closed form written out per
    scale, with the float expressions and summation order of the models."""
    if isinstance(model, ScaleTruncated):
        return -math.inf if j < -model.depth else reference_scale_value(model.inner, j)
    if isinstance(model, VolumeTruncated):
        return -math.inf if j > model.window.scale else reference_scale_value(model.inner, j)
    d, M = model.geometry.d, model.geometry.M
    if isinstance(model, Parametric):
        return -math.inf if j < 0 else \
            nearest_power(M, d * j) * model.mu - M ** (model.alpha * d * j) * model.J
    if isinstance(model, Homogeneous):
        table = model.log_table
        if not table:
            return -math.inf
        lo, hi = min(table), max(table)
        if j < lo:
            return table[lo] + (lo - j) * model.tail_down.log_ratio
        if j > hi:
            return table[hi] + (j - hi) * model.tail_up.log_ratio
        return table.get(j, -math.inf)
    # EffectiveDesign: p_{j-1} summed afresh from the lowest active scale up,
    # log zhat read from the table: zero below it, zhat_tail_up above
    table = model.log_zhat_table
    hi = max(table, default=None)

    def log_zhat(k):
        if table and k > hi:
            return table[hi] + (k - hi) * model.zhat_tail_up.log_ratio
        return table.get(k, -math.inf)

    lz_hat = log_zhat(j)
    if lz_hat == -math.inf:
        return -math.inf
    lowest = min((s for s, lv in table.items() if lv > -math.inf), default=0)
    p = 0.0
    for k in range(lowest, j):
        lz_k = log_zhat(k)
        if lz_k > -math.inf:
            p += nearest_power(M, -d * k) * log1p_exp(lz_k)
    return lz_hat + nearest_power(M, d * j) * p


def scale_values(call):
    try:
        return call()
    except OverflowError as exc:
        return repr(exc)


@settings(max_examples=300, deadline=None)
@given(scale_wise_models(), st.integers(-12, 4), st.integers(-1, 40))
def test_activity_list_matches_the_per_scale_values(model, j_lo, length):
    # j_lo < 0 and ranges below the lowest active scale included; an empty
    # range when length is -1
    j_hi = j_lo + length
    got = model.log_activities(j_lo, j_hi)
    assert got == [reference_scale_value(model, j) for j in range(j_lo, j_hi + 1)]
    assert got == [model.log_activity_at_scale(j) for j in range(j_lo, j_hi + 1)]


@settings(max_examples=300, deadline=None)
@given(scale_wise_models(), st.integers(-8, 8), st.data())
def test_block_read_is_the_scale_read(model, j, data):
    # a volume truncation reads the scale inside its window, -inf outside
    geo = model.geometry
    b = Block(j, tuple(data.draw(st.integers(0, 40)) for _ in range(geo.d)))
    inside = not isinstance(model, VolumeTruncated) or contains(model.window, b, geo)
    want = scale_values(lambda: reference_scale_value(model, j)) if inside else -math.inf
    assert scale_values(lambda: model.log_activity(b)) == want
    if inside:
        assert scale_values(lambda: model.log_activities(j, j)[0]) == want


@pytest.mark.parametrize("model", [
    Homogeneous.from_values(GEO, {0: 1.0}, TailRule("geometric", 0.5)),
    Parametric(GEO, -1.0, 1.0, 0.5),
    EffectiveDesign.from_values(GEO, {0: 1.0}, TailRule("geometric", 0.5)),
], ids=["homogeneous", "parametric", "design"])
def test_scale_wise_reads_come_from_the_range_read(model):
    # the one-scale and the per-block read answer what log_activities says
    calls = []

    class Recording(type(model)):
        def log_activities(self, j_lo, j_hi):
            calls.append((j_lo, j_hi))
            return [0.25 * j for j in range(j_lo, j_hi + 1)]

    rec = Recording(**{f.name: getattr(model, f.name)
                       for f in dataclasses.fields(model) if f.init})
    calls.clear()
    assert rec.log_activity_at_scale(3) == 0.75 and rec.log_activity(block(-2, 1)) == -0.5
    assert calls == [(3, 3), (-2, -2)]


@pytest.mark.parametrize("model", [
    Parametric(Geometry(2), 0.0, 1.0, 0.5),
    Parametric(Geometry(3, 3), -0.5, 1.0, 0.9),
    ScaleTruncated(EffectiveDesign.from_values(Geometry(2), {0: 1.0},
                                               TailRule("geometric", 0.5)), 2),
], ids=["parametric-d2", "parametric-d3M3", "design-d2"])
def test_activity_list_overflows_where_the_per_scale_values_do(model):
    got = scale_values(lambda: model.log_activities(-3, 700))
    want = scale_values(lambda: [reference_scale_value(model, j) for j in range(-3, 701)])
    assert isinstance(want, str) and got == want
    assert scale_values(lambda: [model.log_activity_at_scale(j) for j in range(-3, 701)]) == want


def test_profile_overflow_is_still_a_known_defect():
    # M**(d j) does not fit a float at scale 512 in d=2 (ROADMAP item 5c)
    with pytest.raises(OverflowError):
        scale_profile(Parametric(Geometry(2), 0.0, 1.0, 0.5), 600)


# -- the read of one level of blocks -------------------------------------------

class CountingModel(ActivityModel):
    """A user model: defines only `log_activity`, read from `inner`, and
    counts its calls."""

    def __init__(self, inner):
        self.geometry, self.inner, self.calls = inner.geometry, inner, 0

    def log_activity(self, b):
        self.calls += 1
        return self.inner.log_activity(b)


@st.composite
def level_reads(draw):
    """A model over d 1-3 and a list of index tuples at one scale: a level of
    a small subtree, or of one a scale above it, plus a few tuples outside.
    Explicit models with -inf entries and a zero or positive default, bare
    or read through `CountingModel`; Homogeneous and Parametric models; each
    inside up to three volume and scale truncations, nested, of windows that
    cut the levels."""
    geo = Geometry(draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    levels = 3 if geo.branching <= 4 else 2 if geo.branching <= 9 else 1
    top = Block(1, tuple(rng.randrange(2) for _ in range(geo.d)))
    blocks = descendants(top, 1 - levels, geo)
    kind = draw(st.sampled_from(["explicit", "counting", "homogeneous", "parametric"]))
    if kind in ("explicit", "counting"):
        model = Explicit.from_values(
            geo, {b: 0.0 if rng.random() < 0.3 else rng.uniform(0.05, 3.0)
                  for b in blocks if rng.random() < 0.7},
            default=rng.choice([0.0, 0.5, 2.0]))
        if kind == "counting":
            model = CountingModel(model)
    elif kind == "homogeneous":
        model = Homogeneous.from_values(geo, {j: rng.choice([0.0, 1.5]) for j in range(-2, 2)},
                                        TailRule("geometric", 0.5))
    else:
        model = Parametric(geo, rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0),
                           rng.uniform(0.1, 0.9))
    for wrap in draw(st.lists(st.sampled_from(["volume", "scale"]), max_size=3)):
        if wrap == "volume":
            model = VolumeTruncated(model, rng.choice(blocks))
        else:
            model = ScaleTruncated(model, rng.randint(-2, levels))
    scale = draw(st.integers(1 - levels, 2))
    level = subtree_levels(Block(top.scale + (scale > 1), top.index), scale, geo)[-1]
    outside = [tuple(rng.randrange(40) for _ in range(geo.d)) for _ in range(3)]
    return model, scale, level + outside


@settings(max_examples=300, deadline=None)
@given(level_reads())
def test_level_read_is_the_block_read(read):
    model, scale, indices = read
    got = model.level_log_activities(scale, indices)
    assert got == [model.log_activity(Block(scale, index)) for index in indices]
    if isinstance(model, CountingModel):
        model.calls = 0
        assert model.level_log_activities(scale, indices) == got
        assert model.calls == len(indices)       # the default: one call per block
