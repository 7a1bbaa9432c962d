import dataclasses
import functools
import hashlib
import math
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from hiercubes.blocks import (Block, Geometry, IndexRangeError, ancestors, block,
                              children, descendants, format_block, overlaps)
from hiercubes.activities import (EffectiveDesign, Explicit, Homogeneous,
                                  Parametric, TailRule)
from hiercubes import analytics, sampler
from hiercubes.oracle import enumerate_system, gibbs_ratio_function
from hiercubes.sampler import (Configuration, InvalidConfiguration,
                               SampleBatch, ancestor_chain_cdf, estimate,
                               sample_bernoulli_max,
                               sample_gibbs, sample_gibbs_infinite,
                               sample_mandelbrot, _sample_topdown,
                               _uniform)
from hiercubes.analytics import (TruncatedSystem, UncertifiedComputation,
                                 effective_activity, exact_marginal, occupation_ratio)

GEO = Geometry(1)
W = block(0, 0)


def unit_model(depth=8):
    return Homogeneous.constant(GEO, 1.0, range(-depth, 1))


# -- the counter-based generator -------------------------------------------------

def test_uniform_deterministic_and_in_range():
    vals = [_uniform(7, i, "x", 0, (0,)) for i in range(1000)]
    assert vals == [_uniform(7, i, "x", 0, (0,)) for i in range(1000)]
    assert vals == [_blake2b_uniform(7, i, "x", 0, (0,)) for i in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(sum(vals) / len(vals) - 0.5) < 0.05


def test_uniform_decorrelated_across_keys():
    a = [_uniform(1, i, "x", 0, (0,)) for i in range(500)]
    b = [_uniform(2, i, "x", 0, (0,)) for i in range(500)]
    c = [_uniform(1, i, "y", 0, (0,)) for i in range(500)]
    e = [_uniform(1, i, "x", 1, (0,)) for i in range(500)]
    f = [_uniform(1, i, "x", 0, (1,)) for i in range(500)]
    assert len({tuple(v) for v in (a, b, c, e, f)}) == 5


def _blake2b_uniform(seed, index, *tokens):
    """Stream 1 hashed from scratch: a blake2b keyed by seed mod 2**64 over
    the signed 8-byte sample index and repr(token) + 0x1f per token."""
    h = hashlib.blake2b(digest_size=8, key=(seed % 2**64).to_bytes(8, "little"))
    h.update(index.to_bytes(8, "little", signed=True))
    for t in tokens:
        h.update(repr(t).encode())
        h.update(b"\x1f")
    return (int.from_bytes(h.digest(), "little") >> 11) / 2**53


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(st.integers(-2**70, 2**70), st.sampled_from([-1, 2**64, 2**64 + 5])),
       index=st.integers(-2**63, 2**63 - 1),
       tag=st.sampled_from(["occ", "chain"]),
       scale=st.integers(-300, 300),
       m=st.lists(st.integers(0, 2**127), min_size=1, max_size=3).map(tuple))
def test_uniform_matches_a_from_scratch_blake2b(seed, index, tag, scale, m):
    want = _blake2b_uniform(seed, index, tag, scale, m)
    assert _uniform(seed, index, tag, scale, m) == want
    # again, from the keyed state of (seed, index) built by the first call
    assert _uniform(seed, index, tag, scale, m) == want


def test_uniform_tells_apart_equal_tokens_of_other_types():
    # 1, True and 1.0 are equal but their repr differ: the cached prefix
    # state of one is never read for another
    seed, index = 17, 4
    first = _uniform(seed, index, "occ", 1, (1,))
    for scale in (True, 1.0, 1):
        assert _uniform(seed, index, "occ", scale, (1,)) == \
            _blake2b_uniform(seed, index, "occ", scale, (1,))
    assert _uniform(seed, index, "occ", True, (1,)) != first
    assert _uniform(seed, index, "occ", 1, (True,)) == \
        _blake2b_uniform(seed, index, "occ", 1, (True,)) != first


# the draws of every sampler, over d = 1, d = 2 and M = 3, by (seed, index)
STREAM_MODELS = {
    "d1": Homogeneous.constant(GEO, 0.7, range(-6, 2)),
    "d2": Homogeneous.constant(Geometry(2), 0.4, range(-3, 1)),
    "d2-M3": Homogeneous.constant(Geometry(2, 3), 0.3, range(-2, 1)),
    "infinite": Parametric(GEO, mu=0.0, J=0.2, alpha=0.5),
}
STREAM_DRAWS = {
    "gibbs-d1": lambda s, i: sample_gibbs(STREAM_MODELS["d1"], block(1, 1), 7, s, i),
    "gibbs-d2": lambda s, i: sample_gibbs(STREAM_MODELS["d2"], block(0, 0, 0), 3, s, i),
    "gibbs-d2-M3": lambda s, i: sample_gibbs(STREAM_MODELS["d2-M3"], block(0, 1, 2), 2, s, i),
    "infinite-d1": lambda s, i: sample_gibbs_infinite(STREAM_MODELS["infinite"],
                                                      (W, block(3, 1))[i % 2], 1, s, i),
    "mandelbrot-d2-M3": lambda s, i: sample_mandelbrot(0.35, Geometry(2, 3), block(0, 1, 2),
                                                       2, s, i),
    "estimate-d2": lambda s, i: estimate(STREAM_MODELS["d2"], block(0, 0, 0), 3, 1,
                                         {"w": [block(-1, 1, 0)]}, s, start_index=i),
}


def test_every_drawn_uniform_is_the_from_scratch_blake2b(monkeypatch):
    drawn = []
    uniform = sampler._uniform

    def recording(seed, index, *tokens):
        u = uniform(seed, index, *tokens)
        drawn.append((seed, index, tokens, u))
        return u
    monkeypatch.setattr(sampler, "_uniform", recording)
    # more (seed, index) pairs than the prefix cache holds, each drawn by
    # every sampler in turn, then all again in reverse order
    pairs = [(seed, i) for i in range(sampler._prefix_state.cache_info().maxsize // 2 + 1)
             for seed in (3, 2**64 + 3)]
    passes = []
    for order in (pairs, pairs[::-1]):
        passes.append({(name, s, i): draw(s, i)
                       for s, i in order for name, draw in sorted(STREAM_DRAWS.items())})
    assert passes[0] == passes[1]
    assert {tokens[0] for _, _, tokens, _ in drawn} == {"occ", "chain"}
    assert all(u == _blake2b_uniform(seed, index, *tokens) for seed, index, tokens, u in drawn)


def test_equal_windows_draw_alike_whatever_was_drawn_before():
    # Block(1, (True,)) == Block(1, (1,)), and both windows key one draw function
    def model():
        return Homogeneous.from_values(GEO, {1: 1.0, 0: 0.01, -1: 0.01})

    window, twin = block(1, 1), Block(1, (True,))
    fresh = [sample_gibbs(model(), window, 2, seed=5, index=i).to_json_obj()
             for i in range(200)]
    m = model()
    sample_gibbs(m, twin, 2, seed=5)
    assert [sample_gibbs(m, window, 2, seed=5, index=i).to_json_obj()
            for i in range(200)] == fresh
    # the chain uniform of infinite volume and fractal percolation alike
    inf = STREAM_MODELS["infinite"]
    twin = Block(False, (False,))
    assert [sample_gibbs_infinite(dataclasses.replace(inf), twin, 2, 7, i).to_json_obj()
            for i in range(40)] == \
        [sample_gibbs_infinite(dataclasses.replace(inf), W, 2, 7, i).to_json_obj()
         for i in range(40)]
    assert [sample_mandelbrot(0.4, GEO, twin, 4, 7, i).to_json_obj() for i in range(40)] == \
        [sample_mandelbrot(0.4, GEO, W, 4, 7, i).to_json_obj() for i in range(40)]


@pytest.mark.parametrize("window", [Block(0, (0.5,)), Block(0, (1.0,)), Block(0.0, (0,))],
                         ids=["half-index", "float-index", "float-scale"])
def test_windows_with_non_integer_components_are_refused(window):
    model = unit_model()
    with pytest.raises(ValueError, match="integer scale and index"):
        sample_gibbs(model, window, 2, seed=1)
    with pytest.raises(ValueError, match="integer scale and index"):
        sample_gibbs_infinite(STREAM_MODELS["infinite"], window, 2, seed=1)
    with pytest.raises(ValueError, match="integer scale and index"):
        sample_mandelbrot(0.5, GEO, window, 2, seed=1)
    with pytest.raises(ValueError, match="integer scale and index"):
        sample_bernoulli_max({block(1, 1): 0.0}, GEO, window, 2, seed=1)
    assert sampler_entries(model) == {}


def test_bernoulli_max_reports_the_plain_window():
    # Block(1, (True,)) == Block(1, (1,)): reported as 1:(1), as by sample_gibbs
    twin = Block(1, (True,))
    got = sample_bernoulli_max({block(1, 1): 0.0}, GEO, twin, 2, seed=5).to_json_obj()
    assert got["window"] == "1:(1)" == \
        sample_gibbs(Homogeneous.constant(GEO, 0.0, [1]), twin, 2, seed=5).to_json_obj()["window"]


# -- configurations ---------------------------------------------------------------

def test_configuration_validation_rejects_overlap():
    cfg = Configuration(blocks=(W, block(-1, 0)), window=W, depth=2, seed=0)
    with pytest.raises(InvalidConfiguration):
        cfg.validate(GEO)


@pytest.mark.parametrize("blocks,window,depth,covered", [
    ((block(-2, 1), block(0, 0)), block(1, 0), 3, None),    # two scales apart
    ((block(-1, 0), block(-1, 0)), W, 2, None),              # duplicated
    ((block(0, 1),), W, 2, None),                            # beside the window
    ((block(1, 0),), W, 2, None),                            # above the window
    ((block(-3, 0),), W, 2, None),                           # below -depth
    ((block(-1, 0),), W, 2, 2),                              # covered, with blocks
], ids=["overlap-two-scales", "duplicate", "beside-window", "above-window",
        "below-depth", "covered-with-blocks"])
def test_configuration_validation_rejects(blocks, window, depth, covered):
    cfg = Configuration(blocks, window, depth, seed=0, covered_by_ancestor=covered)
    with pytest.raises(InvalidConfiguration):
        cfg.validate(GEO)


def test_configuration_validation_accepts_valid():
    Configuration((block(-2, 0), block(-2, 1), block(-1, 1)), W, 2, 0).validate(GEO)
    Configuration((), W, 2, 0, covered_by_ancestor=3).validate(GEO)
    for i in range(20):
        sample_gibbs(unit_model(), W, 4, seed=3, index=i).validate(GEO)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(descendants(block(1, 0), -2, GEO)), max_size=6))
def test_configuration_validation_matches_pairwise(members):
    # the ancestor walk accepts exactly the pairwise-disjoint block sets
    bs = sorted(members)
    disjoint = all(not overlaps(a, b, GEO) for i, a in enumerate(bs) for b in bs[i + 1:])
    cfg = Configuration(tuple(bs), block(1, 0), 2, seed=0)
    if disjoint:
        cfg.validate(GEO)
    else:
        with pytest.raises(InvalidConfiguration):
            cfg.validate(GEO)


def _validate_by_whole_walks(cfg, geo):
    """Configuration.validate walking every block's whole parent chain."""
    if cfg.covered_by_ancestor is not None and cfg.blocks:
        raise InvalidConfiguration("covered configurations carry no blocks")
    members = {(b.scale, b.index) for b in cfg.blocks}
    if len(members) != len(cfg.blocks):
        raise InvalidConfiguration("a block occurs twice")
    top = cfg.window.scale
    for b in cfg.blocks:
        scale, index, hit = b.scale, b.index, None
        while scale < top:
            scale += 1
            index = tuple(m // geo.M for m in index)
            if hit is None and (scale, index) in members:
                hit = (scale, index)
        if b.scale < -cfg.depth or b.scale > top or index != cfg.window.index:
            raise InvalidConfiguration(f"block {b} outside the truncated system")
        if hit is not None:
            raise InvalidConfiguration(f"blocks {Block(*hit)} and {b} overlap")


def _rejection(check, cfg, geo):
    try:
        check(cfg, geo)
    except InvalidConfiguration as exc:
        return str(exc)
    return None


@st.composite
def configurations(draw):
    # blocks inside a window at depth 2, with a few beside, above or below
    # it and the odd repeat, in any order
    geo = draw(st.sampled_from([Geometry(1), Geometry(2), Geometry(1, 3)]))
    window = Block(1, (1,) * geo.d)
    beside = Block(1, (2,) + (1,) * (geo.d - 1))
    inside = descendants(window, -2, geo)
    outside = (descendants(window, -3, geo)[len(inside):] + descendants(beside, -1, geo)
               + ancestors(window, 3, geo) + [Block(2, (3,) * geo.d)])
    blocks = draw(st.lists(st.sampled_from(inside), max_size=10, unique=True))
    blocks += draw(st.lists(st.sampled_from(outside), max_size=1))
    blocks += draw(st.lists(st.sampled_from(blocks or inside), max_size=1))
    covered = draw(st.sampled_from([None] * 7 + [2]))
    return geo, Configuration(tuple(draw(st.permutations(blocks))), window, 2,
                              seed=0, covered_by_ancestor=covered)


@settings(max_examples=400, deadline=None)
@given(configurations())
def test_configuration_validation_matches_whole_walks(gc):
    geo, cfg = gc
    assert _rejection(Configuration.validate, cfg, geo) == \
        _rejection(_validate_by_whole_walks, cfg, geo)


@pytest.mark.parametrize("blocks", [
    (Block(-1, ()),),
    (block(-1, 1), Block(-1, (0, 5))),
    (Block(-2, (0, 1)), block(-1, 1)),
], ids=["empty-index", "unequal-lengths", "longer-index"])
def test_configuration_validation_rejects_indices_of_another_length(blocks):
    cfg = Configuration(blocks, W, 2, seed=0)
    want = _rejection(_validate_by_whole_walks, cfg, GEO)
    assert want is not None
    assert _rejection(Configuration.validate, cfg, GEO) == want


def test_configuration_json_roundtrip_fields():
    cfg = sample_gibbs(unit_model(), W, 2, seed=11)
    obj = cfg.to_json_obj()
    assert obj["seed"] == 11
    assert "blocks" in obj and "window" in obj


# -- exactness against the enumeration oracle ------------------------------------

def draw_histogram(sampler, n):
    return Counter(frozenset(sampler(i).blocks) for i in range(n))


def test_gibbs_sampler_chi_square():
    model = unit_model()
    dist = enumerate_system(model, W, 2)
    n = 20000
    hist = draw_histogram(lambda i: sample_gibbs(model, W, 2, seed=101, index=i), n)
    stat = 0.0
    for cfg, p in zip(dist.support, dist.probs):
        exp = n * p
        stat += (hist.get(cfg, 0) - exp) ** 2 / exp
    # 26-point support, 25 degrees of freedom, significance 1e-3
    assert stat < chi2.ppf(1 - 1e-3, len(dist.support) - 1)


def test_bernoulli_max_sampler_chi_square():
    model = unit_model()
    dist = enumerate_system(model, W, 2)
    rho = gibbs_ratio_function(model, W, 2)
    ratios = {b: rho(b) for b in dist.blocks()}
    n = 20000
    hist = draw_histogram(
        lambda i: sample_bernoulli_max(ratios, GEO, W, 2, seed=6, index=i), n)
    stat = sum((hist.get(cfg, 0) - n * p) ** 2 / (n * p)
               for cfg, p in zip(dist.support, dist.probs))
    assert stat < chi2.ppf(1 - 1e-3, len(dist.support) - 1)


def test_bernoulli_max_draws_equal_keys_alike():
    # Block(1, (True,)) == Block(1, (1,)): each key's uniform hashes its
    # plain form, so a dict keyed by either draws alike
    window = block(1, 1)
    ratios = {b: 0.3 for b in descendants(window, -2, GEO)}
    twin = {Block(1, (True,)) if b == window else b: r for b, r in ratios.items()}
    assert any(b.index[0] is True for b in twin)
    assert [sample_bernoulli_max(twin, GEO, window, 2, seed=5, index=i).to_json_obj()
            for i in range(200)] == \
        [sample_bernoulli_max(ratios, GEO, window, 2, seed=5, index=i).to_json_obj()
         for i in range(200)]


def test_mandelbrot_sampler_degenerate():
    assert sample_mandelbrot(0.0, GEO, W, 2, seed=1).blocks == ()
    assert sample_mandelbrot(1.0, GEO, W, 2, seed=1).blocks == (W,)
    with pytest.raises(ValueError):
        sample_mandelbrot(-0.1, GEO, W, 2, seed=1)
    # a system the walk cannot cover is refused, as by sample_gibbs
    for depth, says in [(-1, "depth"), (-2, "depth"), (2, "dimension")]:
        window = W if depth < 0 else block(0, 0, 0)
        with pytest.raises(ValueError, match=says):
            sample_mandelbrot(0.0, GEO, window, depth, seed=1)


def _depth_first_draw(ratios, geo, window, depth, seed, index):
    """The occupied blocks of a depth-first walk on `Block`s: a visited block
    is occupied when its uniform falls below its ratio, read as a level of
    one, and otherwise its `children` are visited, down to scale -depth."""
    out, stack = [], [window]
    while stack:
        b = stack.pop()
        if _uniform(seed, index, "occ", b.scale, b.index) < ratios(b.scale, [b.index])[0]:
            out.append(b)
        elif b.scale > -depth:
            stack.extend(children(b, geo))
    return out


@st.composite
def mixed_systems(draw):
    """Small systems of random Explicit and scale-wise models."""
    geo = Geometry(draw(st.integers(1, 2)), draw(st.integers(2, 3)))
    scale = draw(st.integers(-1, 1))
    levels = draw(st.integers(max(scale, 0), 4 if geo.branching == 2 else 2))
    window = Block(scale, tuple(draw(st.integers(0, 3)) for _ in range(geo.d)))
    value = st.floats(0.05, 3.0)
    kind = draw(st.sampled_from(["explicit", "homogeneous", "parametric"]))
    if kind == "explicit":
        blocks = descendants(window, scale - levels, geo)
        model = Explicit.from_values(geo, {b: draw(value) for b in blocks})
    elif kind == "homogeneous":
        model = Homogeneous.from_values(
            geo, {j: draw(value) for j in range(scale - levels, scale + 1)})
    else:
        model = Parametric(geo, draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 2.0)), 0.5)
    return model, window, levels - scale


@settings(max_examples=60, deadline=None)
@given(mixed_systems(), st.integers(0, 2**32))
def test_topdown_draws_match_a_depth_first_walk(system, seed):
    model, window, depth = system
    geo = model.geometry
    ratios = TruncatedSystem(model, window, depth).level_rhos
    for index in range(8):
        got = _sample_topdown(ratios, geo, window, depth, seed, index)
        want = _depth_first_draw(ratios, geo, window, depth, seed, index)
        assert got == sorted((b.scale, b.index) for b in want)
    for p in (0.3, 0.7):
        constant = lambda j, level: [p] * len(level)
        got = _sample_topdown(constant, geo, window, depth, seed, 0)
        want = _depth_first_draw(constant, geo, window, depth, seed, 0)
        assert got == sorted((b.scale, b.index) for b in want)


@st.composite
def probed_systems(draw):
    """A small system with probes on its blocks and on blocks outside it: the
    window's parent and next sibling, and a block below scale -depth."""
    model, window, depth = draw(mixed_systems())
    geo = model.geometry
    below = Block(-depth - 1, tuple(m * geo.M ** (window.scale + depth + 1)
                                    for m in window.index))
    outside = [Block(window.scale + 1, tuple(m // geo.M for m in window.index)),
               Block(window.scale, tuple(m + 1 for m in window.index)), below]
    inside = descendants(window, -depth, geo)
    pool = st.sampled_from(inside + outside)
    probes = {"empty": [], "outside": [draw(st.sampled_from(outside))],
              "twice": [draw(st.sampled_from(inside))] * 2}
    probes.update(draw(st.dictionaries(st.text("abc", min_size=1, max_size=3),
                                       st.lists(pool, max_size=4), max_size=6)))
    return model, window, depth, probes


@settings(max_examples=40, deadline=None)
@given(probed_systems(), st.integers(0, 2**32), st.integers(0, 2**40))
def test_estimate_counts_containment_in_the_drawn_configurations(system, seed, start):
    model, window, depth, probes = system
    n = 12
    batch = estimate(model, window, depth, n, probes, seed, start_index=start)
    drawn = [set(sample_gibbs(model, window, depth, seed, i).blocks)
             for i in range(start, start + n)]
    assert batch.probe_hits == {pid: sum(set(bs) <= got for got in drawn)
                                for pid, bs in probes.items()}
    assert batch.empty_count == sum(not got for got in drawn)
    assert batch.probe_hits["empty"] == n and batch.probe_hits["outside"] == 0


def test_sample_determinism():
    a = sample_gibbs(unit_model(), W, 3, seed=42, index=9)
    b = sample_gibbs(unit_model(), W, 3, seed=42, index=9)
    assert a.blocks == b.blocks


# -- batch estimation --------------------------------------------------------------

def test_estimate_matches_exact_marginal():
    model = unit_model()
    probes = {"quarter": [block(-2, 0)], "top": [W]}
    batch = estimate(model, W, 2, N=20000, probes=probes, seed=3)
    p, err = batch.estimate("quarter")
    assert abs(p - 5 / 13) < 4 * err
    p, err = batch.estimate("top")
    assert abs(p - 1 / 26) < 4 * err
    empty = batch.empty_count / batch.count
    assert abs(empty - 1 / 26) < 0.01


def estimate_in_splits(model, window, depth, N, probes, seed, splits):
    """`estimate` over `splits` consecutive sample-index ranges of [0, N),
    combined with `SampleBatch.merge`."""
    cuts = [N * k // splits for k in range(splits + 1)]
    return functools.reduce(SampleBatch.merge, (
        estimate(model, window, depth, hi - lo, probes, seed, start_index=lo)
        for lo, hi in zip(cuts, cuts[1:])))


def test_chunking_invariance():
    model = unit_model()
    probes = {"q": [block(-2, 1)]}
    serial = estimate(model, W, 2, N=1111, probes=probes, seed=9)
    for splits in (2, 3, 7):
        split = estimate_in_splits(model, W, 2, 1111, probes, 9, splits)
        assert split.probe_hits == serial.probe_hits
        assert split.empty_count == serial.empty_count
        assert split.count == serial.count


def test_estimate_requires_positive_N():
    with pytest.raises(ValueError):
        estimate(unit_model(), W, 1, N=0, probes={}, seed=1)


@pytest.mark.parametrize("index", [2**70, 2**63, -2**63 - 1])
def test_sample_index_outside_the_hashed_range_rejected(index):
    # the uniforms hash the sample index as 8 signed bytes
    says = r"^index must lie in \[-2\*\*63, 2\*\*63\), got "
    with pytest.raises(ValueError, match=says):
        sample_gibbs(unit_model(), W, 1, seed=1, index=index)
    with pytest.raises(ValueError, match=says):
        sample_mandelbrot(0.5, GEO, W, 1, seed=1, index=index)
    with pytest.raises(ValueError, match=says):
        sample_gibbs_infinite(Parametric(GEO, mu=0.0, J=0.2, alpha=0.5), W, 1,
                              seed=1, index=index)
    with pytest.raises(ValueError, match=says):
        sample_bernoulli_max({W: 0.5}, GEO, W, 0, seed=1, index=index)
    with pytest.raises(ValueError, match="^start_index must lie in"):
        estimate(unit_model(), W, 1, N=1, probes={}, seed=1, start_index=index)


def test_sample_index_range_ends():
    for index in (2**63 - 1, -2**63):
        sample_gibbs(unit_model(), W, 1, seed=1, index=index)
    batch = estimate(unit_model(), W, 1, N=4, probes={"t": [W]}, seed=1,
                     start_index=2**63 - 4)
    assert batch.count == 4
    # the last index of a batch is checked too, before any draw
    with pytest.raises(ValueError, match=r"^start_index \+ N - 1 must lie in .*, got "
                                         + str(2**63)):
        estimate(unit_model(), W, 1, N=5, probes={}, seed=1, start_index=2**63 - 4)


# -- infinite-volume sampling -------------------------------------------------------

def test_ancestor_chain_cdf_normalized():
    m = Parametric(GEO, mu=-0.5, J=1.0, alpha=0.5)
    rows, p_none = ancestor_chain_cdf(m, W, depth=6)
    total = p_none + sum(p for _, p in rows)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert all(p >= 0 for _, p in rows)


def test_infinite_sampler_coverage_frequency():
    m = Parametric(GEO, mu=-0.5, J=1.0, alpha=0.5)
    rows, p_none = ancestor_chain_cdf(m, W, depth=6)
    p_cover = 1.0 - p_none
    n = 8000
    covered = sum(
        1 for i in range(n)
        if sample_gibbs_infinite(m, W, 6, seed=77, index=i).covered_by_ancestor
        is not None)
    freq = covered / n
    sigma = math.sqrt(max(p_cover * (1 - p_cover), 1e-12) / n)
    assert abs(freq - p_cover) < 4 * sigma + 1e-9


def test_infinite_sampler_two_scale_chain():
    # designed zhat at scales 1 and 2 only: P(covered) = r2 + (1-r2) r1
    # with r_j = zhat_j / (1 + zhat_j)
    m = EffectiveDesign.from_values(GEO, {0: 0.0, 1: 1.0, 2: 1.0})
    rows, p_none = ancestor_chain_cdf(m, W, depth=2)
    r = 0.5
    assert 1.0 - p_none == pytest.approx(r + (1 - r) * r, abs=1e-10)


def geometric_homogeneous(geo, down, z0, top, up):
    """Scale-wise constant activity whose table continues its geometric
    down-tail, of ratio `down` / M**d, below scale 0, so per-scale pressure
    terms decay downwards."""
    down /= geo.branching
    table = {j: z0 * down ** -j for j in range(-2, 1)}
    table.update(top)
    return Homogeneous.from_values(geo, table, TailRule("geometric", down),
                                   TailRule("geometric", up))


CHAIN_MODELS = {
    "parametric-d1": Parametric(GEO, -0.5, 1.0, 0.5),
    "parametric-d1-mu0": Parametric(GEO, 0.0, 0.2, 0.5),
    "parametric-d2": Parametric(Geometry(2), -1.0, 1.2, 0.6),
    "parametric-d2-mu0": Parametric(Geometry(2), 0.0, 0.4, 0.5),
    "homogeneous-d1": geometric_homogeneous(GEO, 0.3, 1.5, {1: 2.0, 2: 0.4}, 0.5),
    "homogeneous-d2": geometric_homogeneous(Geometry(2), 0.25, 0.6, {1: 1.0}, 0.2),
}


@pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
def test_infinite_marginal_is_rho_times_the_chain_law(name):
    # P(b) = rho_b prod_{k > b}(1 + zhat_k)^-1 is rho_b times the chance that
    # no strict ancestor of b is occupied, read off the sampler's chain law
    m = CHAIN_MODELS[name]
    for scale in (-2, 0, 1, 4):
        for depth in (2, 5):
            b = block(scale, *[3] * m.geometry.d)
            p_none = ancestor_chain_cdf(m, b, depth)[1]
            assert exact_marginal(m, [b], None, depth) == pytest.approx(
                occupation_ratio(m, b, depth) * p_none, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m", [
    Parametric(GEO, -0.5, 1.0, 0.5),
    Homogeneous.from_values(GEO, {-81: 1e-30, 0: 1.0, 3: 0.3}),
], ids=["parametric", "homogeneous"])
def test_chain_reaches_the_active_scales_from_far_below(m):
    # blocks more than 80 scales below the active ones: the chain still takes
    # in every zhat_k with k > b, read here from the truncated systems
    depth = 81
    for scale in (-81, -80, -77, -5):
        b = block(scale, 0)
        want = math.prod(
            1 / (1 + math.exp(effective_activity(m, block(k, 0), depth).log))
            for k in range(scale + 1, 40))
        assert want < 0.9
        assert ancestor_chain_cdf(m, b, depth)[1] == pytest.approx(want, rel=1e-12)
        assert exact_marginal(m, [b], None, depth) == pytest.approx(
            occupation_ratio(m, b, depth) * want, rel=1e-12, abs=0.0)


def test_infinite_sampler_refuses_uncertified():
    m = EffectiveDesign.from_values(GEO, {0: 1.0},
                                    zhat_tail_up=TailRule("geometric", 1.0))
    with pytest.raises(UncertifiedComputation):
        sample_gibbs_infinite(m, W, 2, seed=1)


def test_batch_merge_counts():
    a = SampleBatch(10, {"p": 3}, 2)
    b = SampleBatch(5, {"p": 1}, 1)
    m = a.merge(b)
    assert m.count == 15 and m.probe_hits["p"] == 4 and m.empty_count == 3


def test_batch_merge_refuses_other_probe_ids():
    # either order: a probe id of one batch only is named, never dropped
    a = SampleBatch(5, {"p": 1}, 1)
    b = SampleBatch(10, {"p": 3, "q": 1}, 2)
    for x, y in [(a, b), (b, a)]:
        with pytest.raises(ValueError) as exc:
            x.merge(y)
        assert "'q'" in str(exc.value) and "'p'" in str(exc.value)


# -- the pinned stream ----------------------------------------------------------------
# sha256 of the sorted draws of fixed seeds and indices: any change to the
# blake2b stream, the blocks a draw visits or the occupation ratios changes them.

def draws_digest(configs) -> str:
    lines = sorted(" ".join(format_block(b) for b in cfg.blocks)
                   + f"|{cfg.covered_by_ancestor}" for cfg in configs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def explicit_d2(depth=3):
    g2 = Geometry(2)
    bs = descendants(block(0, 0, 0), -depth, g2)
    return Explicit.from_values(
        g2, {b: 0.05 + ((7 * b.scale + 3 * b.index[0] + 5 * b.index[1]) % 11) / 4
             for b in bs})


PINNED_DRAWS = {
    "gibbs-scale-lane-d1": (
        lambda i: sample_gibbs(Homogeneous.constant(GEO, 0.7, range(-6, 2)),
                               block(1, 1), 7, seed=5, index=i), 60,
        "df9c4b710aa98ddfac7567c9296ea81328b4ef643006c815270ba3be0919e43f"),
    "gibbs-scale-lane-d2": (
        lambda i: sample_gibbs(Homogeneous.constant(Geometry(2), 0.4, range(-3, 1)),
                               block(0, 0, 0), 3, seed=6, index=i), 30,
        "a72b565cfa4ad7dcbbb9d9a514e6d29b007de5a9797860bf8e87f861be07757f"),
    "gibbs-scale-lane-d2-M3": (
        lambda i: sample_gibbs(Homogeneous.constant(Geometry(2, 3), 0.3, range(-2, 1)),
                               block(0, 1, 2), 2, seed=7, index=i), 30,
        "a0b4855ab358daa6220995fcfbaaa2962ed2a38136cc8a26d02348e79e4278e3"),
    "gibbs-block-lane-d2": (
        lambda i: sample_gibbs(explicit_d2(), block(0, 0, 0), 3, seed=8, index=i), 30,
        "d8b299fc62c38597da29a39fbdfd7960f4bba36273af83fe128094d4e6bcd6bb"),
    "bernoulli-max": (
        lambda i: sample_bernoulli_max(
            {b: 0.3 for b in descendants(block(1, 1), -3, GEO)}, GEO, block(1, 1), 3,
            seed=11, index=i), 60,
        "6c62aa339a87d9abbf1abb7c55e3372f03ff0da1df0e75ab47eec5824ef98314"),
    "mandelbrot": (
        lambda i: sample_mandelbrot(0.35, GEO, W, 6, seed=9, index=i), 60,
        "f32929bf79616579cb671893307a4709de1fb1c0b7e92d9e0e418b369c67e8ae"),
    "gibbs-infinite": (
        # even indices can be covered; odd ones run the finite branch
        lambda i: sample_gibbs_infinite(Parametric(GEO, mu=0.0, J=0.2, alpha=0.5),
                                        (W, block(3, 1))[i % 2], 1, seed=10, index=i), 80,
        "823fa5c8bed86b54e8fc134033a296d3f32ddc2cb94835679119d96d5f0bcccb"),
}


@pytest.mark.parametrize("case", sorted(PINNED_DRAWS))
def test_draws_are_pinned(case):
    draw, n, digest = PINNED_DRAWS[case]
    assert draws_digest(draw(i) for i in range(n)) == digest


# the Bernoulli-max sampler is the walk's exact reference: given the same
# ratios, seed and index, both occupy exactly the maximal blocks whose "occ"
# uniform falls below their ratio
REFERENCE_SYSTEMS = {
    # (model, window, depth): the scale lane, then the block lane
    "scale-lane-d1": (unit_model(10), W, 10),
    "scale-lane-d2": (Homogeneous.constant(Geometry(2), 0.4, range(-4, 1)), block(0, 0, 0), 4),
    "scale-lane-d2-M3": (Homogeneous.constant(Geometry(2, 3), 0.3, range(-2, 1)),
                         block(0, 1, 2), 2),
    "block-lane-d2": (explicit_d2(), block(0, 0, 0), 3),
}


def reference_draws(draw, reference, n=100):
    scales = set()
    for i in range(n):
        got = draw(i)
        assert got == reference(i), i
        scales.update(b.scale for b in got.blocks)
    assert len(scales) > 1      # the draws stop at more than one scale


@pytest.mark.parametrize("name", sorted(REFERENCE_SYSTEMS))
def test_walk_equals_its_bernoulli_max_reference(name):
    model, window, depth = REFERENCE_SYSTEMS[name]
    geo = model.geometry
    sys = TruncatedSystem(model, window, depth)
    ratios = {b: sys.rho(b) for b in sys.blocks()}
    reference_draws(lambda i: sample_gibbs(model, window, depth, seed=21, index=i),
                    lambda i: sample_bernoulli_max(ratios, geo, window, depth, seed=21, index=i))


def test_mandelbrot_equals_its_bernoulli_max_reference():
    ratios = {b: 0.35 for b in descendants(W, -8, GEO)}
    reference_draws(lambda i: sample_mandelbrot(0.35, GEO, W, 8, seed=22, index=i),
                    lambda i: sample_bernoulli_max(ratios, GEO, W, 8, seed=22, index=i))


ESTIMATE_HITS = {"top": 0, "mid": 8, "pair": 19, "deep": 160}
ESTIMATE_EMPTY = 0


@pytest.mark.parametrize("splits", [1, 3])
def test_estimate_hits_are_pinned(splits):
    probes = {"top": [W], "mid": [block(-3, 2)], "pair": [block(-4, 0), block(-4, 15)],
              "deep": [block(-5, 7)]}
    batch = estimate_in_splits(unit_model(), W, 5, 400, probes, 12, splits)
    assert (batch.probe_hits, batch.empty_count) == (ESTIMATE_HITS, ESTIMATE_EMPTY)


def test_bottom_scale_index_overflow_raises_before_drawing():
    # 2**128 is the index limit: the bottom scale of window 0:(0) at depth 129
    # holds index 2**129 - 1, so the draw is refused even where the window
    # itself would be occupied
    with pytest.raises(IndexRangeError):
        sample_mandelbrot(1.0, GEO, W, 129, seed=1)
    with pytest.raises(IndexRangeError):
        sample_gibbs(Homogeneous.constant(GEO, 1.0, range(-129, 1)), W, 129, seed=1)
    with pytest.raises(IndexRangeError):
        sample_mandelbrot(0.5, GEO, block(0, 2**127), 1, seed=1)
    assert sample_mandelbrot(1.0, GEO, W, 128, seed=1).blocks == (W,)
    assert sample_mandelbrot(1.0, GEO, block(0, 2**127 - 1), 1, seed=1).blocks \
        == (block(0, 2**127 - 1),)


# -- one draw function per system ---------------------------------------------------
# `sample_gibbs`, `sample_gibbs_infinite` and `estimate` build the system, its
# ratios and the chain law once per (model, window, depth) and keep them in
# the model's analytics memo.

def sampler_entries(model):
    """The memo's draw-function entries, key -> weight."""
    memo = vars(model).get(analytics._MEMO_ATTR, {})
    return {key: weight for key, (_, weight) in memo.items()
            if key[0] in ("finite", "infinite")}


def count_calls(monkeypatch, name):
    """Count the calls of `sampler.<name>`, looked up when a system is built."""
    calls = []
    original = getattr(sampler, name)

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(sampler, name, counting)
    return calls


MEMO_SYSTEMS = {
    # (model, window, depth, infinite)
    "homogeneous-d1": (Homogeneous.constant(GEO, 0.7, range(-6, 2)), block(1, 1), 7, False),
    "homogeneous-d2": (Homogeneous.constant(Geometry(2), 0.4, range(-3, 1)),
                       block(0, 0, 0), 3, False),
    "explicit-d2": (explicit_d2(), block(0, 0, 0), 3, False),
    "parametric-infinite": (Parametric(GEO, mu=0.0, J=0.2, alpha=0.5), W, 2, True),
}


def draw_of(infinite):
    return sample_gibbs_infinite if infinite else sample_gibbs


@pytest.mark.parametrize("name", sorted(MEMO_SYSTEMS))
def test_memoized_draws_equal_draws_on_a_fresh_model(name):
    model, window, depth, infinite = MEMO_SYSTEMS[name]
    model = dataclasses.replace(model)
    sample = draw_of(infinite)
    for i in range(51):
        fresh = dataclasses.replace(model)          # equal, with no memo
        assert sample(model, window, depth, seed=5, index=i) == \
            sample(fresh, window, depth, seed=5, index=i)
    if not infinite:
        probes = {"window": [window], "pair": descendants(window, -depth, model.geometry)[1:3]}
        want = estimate(dataclasses.replace(model), window, depth, 40, probes, seed=5)
        assert estimate(model, window, depth, 40, probes, seed=5) == want


def test_draws_build_one_system(monkeypatch):
    systems = count_calls(monkeypatch, "TruncatedSystem")
    chains = count_calls(monkeypatch, "ancestor_chain_cdf")
    for name, (model, window, depth, infinite) in sorted(MEMO_SYSTEMS.items()):
        model = dataclasses.replace(model)
        systems.clear()
        chains.clear()
        for i in range(20):
            draw_of(infinite)(model, window, depth, seed=3, index=i)
        if not infinite:
            estimate(model, window, depth, 20, {"w": [window]}, seed=3)
        assert (len(systems), len(chains)) == ((1, 1) if infinite else (1, 0)), name


def test_finite_and_infinite_draws_share_the_system(monkeypatch):
    systems = count_calls(monkeypatch, "TruncatedSystem")
    model = Parametric(GEO, mu=0.0, J=0.2, alpha=0.5)
    window, depth = W, 2
    drawn = [sample_gibbs_infinite(model, window, depth, seed=10, index=i) for i in range(20)]
    assert any(cfg.covered_by_ancestor is None for cfg in drawn)
    assert any(cfg.covered_by_ancestor is not None for cfg in drawn)
    sample_gibbs(model, window, depth, seed=10, index=0)
    estimate(model, window, depth, 5, {}, seed=10)
    assert len(systems) == 1
    # scales 0..-2 of the system; at most the chain's rows 1..80 and p_none,
    # the infinite entry reading the finite one from the memo
    assert sampler_entries(model) == {("finite", window, depth): 3,
                                      ("infinite", window, depth): 81}


def test_refusals_leave_no_draw_function():
    uncertified = EffectiveDesign.from_values(GEO, {0: 1.0},
                                              zhat_tail_up=TailRule("geometric", 1.0))
    for _ in range(3):
        with pytest.raises(UncertifiedComputation):
            sample_gibbs_infinite(uncertified, W, 2, seed=1)
    assert sampler_entries(uncertified) == {}
    m = unit_model()
    for _ in range(3):
        with pytest.raises(ValueError, match="depth"):
            sample_gibbs(m, W, -1, seed=1)
        with pytest.raises(ValueError, match="depth"):
            sample_gibbs_infinite(Parametric(GEO, mu=0.0, J=0.2, alpha=0.5), W, -1, seed=1)
        with pytest.raises(ValueError, match="dimension"):
            estimate(m, block(0, 0, 0), 1, 1, {}, seed=1)
    assert sampler_entries(m) == {}


def test_block_lane_systems_past_the_memo_bound_are_not_kept(monkeypatch):
    systems = count_calls(monkeypatch, "TruncatedSystem")
    for depth, kept in [(9, True), (10, False)]:    # 1023 and 2047 blocks
        model = Explicit.from_values(GEO, {b: 0.3 + 0.1 * (b.index[0] % 5)
                                           for b in descendants(W, -depth, GEO)})
        systems.clear()
        draws = [sample_gibbs(model, W, depth, seed=2, index=i) for i in range(3)]
        assert len(systems) == (1 if kept else 3)
        assert sampler_entries(model) == ({("finite", W, depth): 2**(depth + 1) - 1}
                                          if kept else {})
        fresh = dataclasses.replace(model)
        assert draws == [sample_gibbs(fresh, W, depth, seed=2, index=i) for i in range(3)]


def test_threads_drawing_from_one_fresh_model_reproduce_the_serial_draws():
    serial = {name: [draw_of(inf)(dataclasses.replace(m), w, d, seed=4, index=i)
                     for i in range(40)]
              for name, (m, w, d, inf) in MEMO_SYSTEMS.items()}
    shared = {name: dataclasses.replace(m) for name, (m, _, _, _) in MEMO_SYSTEMS.items()}
    results, errors = {}, []

    def work(k):
        try:
            for name, (_, w, d, inf) in sorted(MEMO_SYSTEMS.items()):
                results[name, k] = [draw_of(inf)(shared[name], w, d, seed=4, index=i)
                                    for i in range(40)]
        except Exception as exc:     # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(results[name, k] == serial[name] for name in serial for k in range(4))
