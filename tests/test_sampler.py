import hashlib
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from hiercubes.blocks import (Block, Geometry, IndexRangeError, ancestors, block,
                              children, descendants, format_block, overlaps)
from hiercubes.activities import (EffectiveDesign, Explicit, Homogeneous,
                                  Parametric, TailRule)
from hiercubes.oracle import enumerate_system, gibbs_ratio_function
from hiercubes.sampler import (Configuration, InvalidConfiguration,
                               SampleBatch, ancestor_chain_cdf, estimate,
                               estimate_chunked, sample_bernoulli_max,
                               sample_gibbs, sample_gibbs_infinite,
                               sample_mandelbrot, _ratio_lookup, _sample_topdown,
                               _uniform)
from hiercubes.analytics import (TruncatedSystem, UncertifiedComputation,
                                 effective_activity, exact_marginal, occupation_ratio)

GEO = Geometry(1)
W = block(0, 0)


def unit_model(depth=8):
    return Homogeneous.constant(GEO, 1.0, range(-depth, 1))


# -- the counter-based generator -------------------------------------------------

def test_uniform_deterministic_and_in_range():
    vals = [_uniform(7, i, "x") for i in range(1000)]
    assert vals == [_uniform(7, i, "x") for i in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(sum(vals) / len(vals) - 0.5) < 0.05


def test_uniform_decorrelated_across_keys():
    a = [_uniform(1, i, "x") for i in range(500)]
    b = [_uniform(2, i, "x") for i in range(500)]
    c = [_uniform(1, i, "y") for i in range(500)]
    assert a != b and a != c


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
    assert _uniform(seed, index, tag) == _blake2b_uniform(seed, index, tag)


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
    ratios = _ratio_lookup(TruncatedSystem(model, window, depth))
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


def test_chunking_invariance():
    model = unit_model()
    probes = {"q": [block(-2, 1)]}
    serial = estimate(model, W, 2, N=1111, probes=probes, seed=9)
    for chunks in (2, 3, 7):
        split = estimate_chunked(model, W, 2, N=1111, probes=probes, seed=9,
                                 chunks=chunks)
        assert split.probe_hits == serial.probe_hits
        assert split.empty_count == serial.empty_count
        assert split.count == serial.count


def test_csv_rows_have_empty_marker():
    batch = estimate(unit_model(), W, 1, N=100, probes={"t": [W]}, seed=1)
    rows = batch.to_csv_rows()
    assert rows[-1]["probe"] == "__empty__"
    assert {"probe", "hits", "N", "estimate", "stderr"} <= set(rows[0])


def test_estimate_requires_positive_N():
    with pytest.raises(ValueError):
        estimate(unit_model(), W, 1, N=0, probes={}, seed=1)


@pytest.mark.parametrize("chunks", [0, -1])
def test_estimate_chunked_requires_positive_chunks(chunks):
    with pytest.raises(ValueError, match=f"^chunks must be >= 1, got {chunks}$"):
        estimate_chunked(unit_model(), W, 1, N=10, probes={}, seed=1, chunks=chunks)
    with pytest.raises(ValueError, match="^N must be >= 1$"):
        estimate_chunked(unit_model(), W, 1, N=0, probes={}, seed=1)


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


ESTIMATE_HITS = {"top": 0, "mid": 8, "pair": 19, "deep": 160}
ESTIMATE_EMPTY = 0


@pytest.mark.parametrize("chunks", [1, 3])
def test_estimate_hits_are_pinned(chunks):
    probes = {"top": [W], "mid": [block(-3, 2)], "pair": [block(-4, 0), block(-4, 15)],
              "deep": [block(-5, 7)]}
    batch = estimate_chunked(unit_model(), W, 5, N=400, probes=probes, seed=12,
                             chunks=chunks)
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
