import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hiercubes.blocks import (Geometry, ancestors, block, contains, descendants,
                              format_block, overlaps, parse_block)
from hiercubes.activities import (EffectiveDesign, Explicit, Homogeneous,
                                  TailRule)
from hiercubes.analytics import (condensation_table, config_covariance,
                                 exact_marginal, fragmentation_table,
                                 partition_function)
from hiercubes.oracle import (ExactDistribution, SupportCapExceeded,
                              _validation_matrix, enumerate_system,
                              gibbs_ratio_function, hierarchical_distribution,
                              mandelbrot_distribution, mandelbrot_gnz_report,
                              support_count, verify_gnz,
                              verify_hierarchical_formula, verify_topdown)

GEO = Geometry(1)
GEO2 = Geometry(2)
W = block(0, 0)
W2 = block(0, 0, 0)


def unit_model(geo=GEO, depth=8):
    return Homogeneous.constant(geo, 1.0, range(-depth, 1))


def graded_model(geo=GEO):
    return Homogeneous.from_values(geo, {0: 1.0},
                                   tail_down=TailRule("geometric", 0.5))


# -- enumeration ---------------------------------------------------------------

def test_support_counts():
    assert support_count(GEO, W, 0) == 2
    assert support_count(GEO, W, 1) == 5
    assert support_count(GEO, W, 2) == 26
    assert support_count(GEO, W, 3) == 677
    assert support_count(GEO2, W2, 1) == 17
    assert support_count(GEO2, W2, 2) == 83522


def test_impossible_systems_are_rejected():
    below = Homogeneous.constant(GEO, 1.0, range(-4, 1))
    with pytest.raises(ValueError, match="does not reach"):
        enumerate_system(below, block(-3, 0), 2)
    with pytest.raises(ValueError, match="dimension"):
        support_count(GEO2, W, 1)
    with pytest.raises(ValueError, match="depth"):
        support_count(GEO, W, -1)


def test_enumeration_matches_counts():
    dist = enumerate_system(unit_model(), W, 2)
    assert len(dist.support) == 26
    assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)
    assert len(set(dist.support)) == 26


def test_enumeration_partition_matches_recursion():
    for model in (unit_model(), graded_model(),
                  Explicit.from_values(GEO, {W: 2.0, block(-1, 0): 0.5,
                                             block(-2, 3): 1.5}, default=0.3)):
        dist = enumerate_system(model, W, 2)
        rec = partition_function(model, W, 2)
        assert dist.log_partition == pytest.approx(rec.log, abs=1e-10)


def test_enumeration_oracle_probabilities():
    dist = enumerate_system(unit_model(), W, 2)
    assert dist.prob(frozenset()) == pytest.approx(1 / 26, abs=1e-12)
    assert dist.prob(frozenset([W])) == pytest.approx(1 / 26, abs=1e-12)
    assert dist.prob_superset([block(-2, 0)]) == pytest.approx(5 / 13, abs=1e-12)
    assert dist.prob_superset([block(-2, 0), block(-2, 2)]) == \
        pytest.approx(2 / 13, abs=1e-12)


def test_support_cap():
    # depth 5 at d=1 has 2.1e11 configurations: refused before any work
    with pytest.raises(SupportCapExceeded):
        enumerate_system(unit_model(), W, 5)


# -- identity verifiers ---------------------------------------------------------

@pytest.mark.parametrize("model,geo,w,depth", [
    (unit_model(), GEO, W, 2),
    (graded_model(), GEO, W, 3),
    (unit_model(GEO2), GEO2, W2, 1),
    (Explicit.from_values(GEO, {W: 2.0, block(-2, 1): 0.25}, default=0.7),
     GEO, W, 2),
])
def test_gnz_balance(model, geo, w, depth):
    dist = enumerate_system(model, w, depth)
    rep = verify_gnz(dist, model)
    assert rep["max_residual"] < 1e-12


def test_topdown_conditionals():
    model = graded_model()
    dist = enumerate_system(model, W, 2)
    rep = verify_topdown(dist, gibbs_ratio_function(model, W, 2))
    assert rep["max_residual"] < 1e-12


def test_hierarchical_formula():
    model = unit_model()
    dist = enumerate_system(model, W, 2)
    rep = verify_hierarchical_formula(dist, gibbs_ratio_function(model, W, 2))
    assert rep["max_residual"] < 1e-12


def test_verifiers_detect_perturbation():
    # a wrong ratio function must be flagged, not silently absorbed
    model = unit_model()
    dist = enumerate_system(model, W, 2)
    rho = gibbs_ratio_function(model, W, 2)
    rep = verify_topdown(dist, lambda b: min(rho(b) + 0.02, 1.0))
    assert rep["max_residual"] > 0.01


def test_gnz_detects_wrong_activity():
    model = unit_model()
    dist = enumerate_system(model, W, 2)
    rep = verify_gnz(dist, Homogeneous.constant(GEO, 1.5, range(-2, 1)))
    assert rep["max_residual"] > 0.01


@st.composite
def explicit_systems(draw):
    """A random Explicit system with at most 3 levels at d=1 or 1 level at
    d=2, activities in [0.1, 3], and one of its blocks to perturb."""
    d = draw(st.sampled_from([1, 2]))
    scale = draw(st.integers(-1, 1))
    levels = draw(st.integers(max(scale, 0), 3)) if d == 1 else 1
    geo = Geometry(d)
    window = block(scale, *draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    bs = descendants(window, scale - levels, geo)
    acts = draw(st.lists(st.floats(0.1, 3.0), min_size=len(bs), max_size=len(bs)))
    return geo, window, levels - scale, dict(zip(bs, acts)), draw(st.sampled_from(bs))


def _gnz_residual(dist, model, b, sigma):
    """The balance residual of one (block, pattern) case, from Block tests."""
    z = math.exp(model.log_activity(b))
    clear = not any(overlaps(s, b, dist.geometry) for s in sigma)
    return abs(dist.prob(sigma | {b}) - (z * dist.prob(sigma) if clear else 0.0))


def _topdown_residual(dist, rho, b, pi):
    """The top-down residual of one (block, outside pattern) case."""
    geo = dist.geometry
    anc = set(ancestors(b, dist.window.scale, geo))
    group = [(cfg, p) for cfg, p in zip(dist.support, dist.probs)
             if frozenset(x for x in cfg if not contains(b, x, geo)) == pi]
    lhs = sum(p for cfg, p in group if b in cfg)
    rhs = rho(b) * sum(p for cfg, p in group if not cfg & anc)
    return abs(lhs - rhs)


def _formula_residual(dist, rho, cfg):
    """The product-formula residual of one configuration."""
    anc = {a for b in cfg for a in ancestors(b, dist.window.scale, dist.geometry)}
    rhs = math.prod(rho(b) for b in cfg) * math.prod(1.0 - rho(a) for a in anc)
    return abs(dist.prob_superset(cfg) - rhs)


@settings(max_examples=40, deadline=None)
@given(explicit_systems())
def test_verifiers_on_random_explicit_models(system):
    geo, window, depth, acts, target = system
    model = Explicit.from_values(geo, acts)
    dist = enumerate_system(model, window, depth)
    rho = gibbs_ratio_function(model, window, depth)
    for rep in (verify_gnz(dist, model), verify_topdown(dist, rho),
                verify_hierarchical_formula(dist, rho)):
        assert rep["max_residual"] < 1e-12

    # a wrong activity or ratio at one block is flagged.  Floors: the empty
    # pattern has probability 1/Xi >= 1/132499 (z = 3 on 3 levels), so z + 1
    # moves a GNZ case by more than 7e-6; each of at most 3 strict ancestors
    # stays unoccupied with probability >= 1.21/4.21, so rho + 0.05 moves one
    # of at most 677 top-down cases by more than 0.05 * 0.287**3 / 677 > 1e-6
    bumped = lambda b: rho(b) + (0.05 if b == target else 0.0)
    wrong = Explicit.from_values(geo, {**acts, target: acts[target] + 1.0})
    gnz = verify_gnz(dist, wrong)
    top = verify_topdown(dist, bumped)
    formula = verify_hierarchical_formula(dist, bumped)
    for rep in (gnz, top, formula):
        assert rep["max_residual"] > 1e-6

    # the reported worst cases attain the reported maxima
    event = lambda rep: frozenset(map(parse_block, rep["worst_case_event"]))
    b = parse_block(gnz["worst_case_block"])
    assert _gnz_residual(dist, wrong, b, event(gnz)) == gnz["max_residual"]
    assert max(gnz["per_block"].values()) == gnz["max_residual"]
    b = parse_block(top["worst_case_block"])
    assert _topdown_residual(dist, bumped, b, event(top)) == top["max_residual"]
    assert _formula_residual(dist, bumped, event(formula)) == \
        pytest.approx(formula["max_residual"], rel=1e-12, abs=1e-15)


@st.composite
def marginal_systems(draw):
    """A small system, Explicit with zero or positive default or
    Homogeneous, with at most 3 levels at d=1 or 1 level at d=2, and a list
    of block sets, each of at most 4 blocks drawn from the system and from
    blocks outside it: above, beside and below it."""
    d = draw(st.sampled_from([1, 2]))
    scale = draw(st.integers(-1, 1))
    levels = draw(st.integers(max(scale, 0), 3)) if d == 1 else 1
    geo = Geometry(d)
    window = block(scale, *draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    bs = descendants(window, scale - levels, geo)
    values = st.floats(0.1, 3.0)
    kind = draw(st.sampled_from(["explicit", "explicit-default", "homogeneous"]))
    if kind == "homogeneous":
        model = Homogeneous.from_values(
            geo, {j: draw(values) for j in range(scale - levels, scale + 1)})
    else:
        listed = draw(st.lists(st.sampled_from(bs), unique=True))
        model = Explicit.from_values(geo, {b: draw(values) for b in listed},
                                     default=draw(values) if kind == "explicit-default" else 0.0)
    outside = [block(scale + 1, *(m // 2 for m in window.index)),
               block(scale, *(m + 1 for m in window.index)),
               block(scale - levels - 1, *(2 * m for m in window.index))]
    sets = draw(st.lists(st.lists(st.sampled_from(bs + outside), max_size=4, unique=True),
                         min_size=1, max_size=6))
    return model, window, levels - scale, sets


# 200 examples take about 0.8 s on a 2-vCPU host with Python 3.11
@settings(max_examples=200, deadline=None)
@given(marginal_systems(), st.randoms(use_true_random=False))
def test_marginals_covariances_and_condensation_agree_with_enumeration(system, rng):
    # exact_marginal against the enumerated P(omega contains the set), hard-
    # core or not, in the system or not; config_covariance's joint and its
    # factorised joint P1 P2 (1 + R) against that of the union of two
    # disjoint parts; condensation_table's p_block against exact_marginal
    model, window, depth, sets = system
    geo = model.geometry
    dist = enumerate_system(model, window, depth)
    for blocks in sets:
        want = dist.prob_superset(blocks)
        assert exact_marginal(model, blocks, window, depth) == pytest.approx(want, abs=1e-12)
        cut = rng.randint(0, len(blocks))
        cv = config_covariance(model, blocks[:cut], blocks[cut:], window, depth)
        assert cv["joint"] == pytest.approx(want, abs=1e-12)
        assert cv["factored_joint"] == pytest.approx(want, abs=1e-12)
        for b in blocks:
            if contains(window, b, geo) and b.scale >= -depth:
                row, = condensation_table(model, b, [window])
                assert row["p_block"] == pytest.approx(
                    exact_marginal(model, [b], window, max(0, -b.scale)), abs=1e-12)


# -- hierarchical distributions and the percolation counterexample ---------------

def test_hierarchical_matches_gibbs():
    # feeding the Gibbs occupation ratios back reproduces the Gibbs law
    model = graded_model()
    gibbs = enumerate_system(model, W, 2)
    hier = hierarchical_distribution(gibbs_ratio_function(model, W, 2), GEO, W, 2)
    for cfg, p in zip(gibbs.support, gibbs.probs):
        assert hier.prob(cfg) == pytest.approx(p, abs=1e-12)


def test_mandelbrot_degenerate_p():
    d0 = mandelbrot_distribution(0.0, GEO, W, 2)
    assert d0.prob(frozenset()) == pytest.approx(1.0)
    d1 = mandelbrot_distribution(1.0, GEO, W, 2)
    assert d1.prob(frozenset([W])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mandelbrot_distribution(1.5, GEO, W, 1)


def test_mandelbrot_gnz_violation_exact():
    # top-block residual p (1 - (1-p)^(N-1)) over N = 2^(n+1)-1 blocks
    p = 0.5
    want = {1: 0.375, 2: 0.4921875, 3: 0.4999694824218750}
    for depth, val in want.items():
        rep = mandelbrot_gnz_report(p, GEO, W, depth)
        n_blocks = 2 ** (depth + 1) - 1
        closed = p * (1.0 - (1.0 - p) ** (n_blocks - 1))
        assert closed == pytest.approx(val, abs=1e-12)
        assert rep["top_block_residual"] == pytest.approx(val, abs=1e-10)
    # the violation grows with depth toward p: no activity fit can survive
    seq = [mandelbrot_gnz_report(p, GEO, W, n)["top_block_residual"]
           for n in (1, 2, 3)]
    assert seq[0] < seq[1] < seq[2] < p


def test_mandelbrot_p1_rejected_by_fit():
    with pytest.raises(ValueError, match="p = 1"):
        mandelbrot_gnz_report(1.0, GEO, W, 1)
    # refused before enumerating: depth 5 exceeds the support cap
    with pytest.raises(ValueError, match="p = 1"):
        mandelbrot_gnz_report(1.0, GEO, W, 5)
    with pytest.raises(ValueError, match="probability"):
        mandelbrot_gnz_report(1.5, GEO, W, 1)


# -- fragmentation and condensation tables ---------------------------------------

def test_fragmentation_table_unit():
    m = Homogeneous.constant(GEO, 1.0, range(-12, 1))
    rows = fragmentation_table(m, W, [0, 1, 2, 3])
    empt = [r["p_empty"] for r in rows]
    # Xi at depth n: 2, 5, 26, 677 under z = 1 everywhere
    assert empt == pytest.approx([1 / 2, 1 / 5, 1 / 26, 1 / 677], abs=1e-12)
    hits = [r["p_subtree_hit"] for r in rows]
    assert hits == pytest.approx([1 - e for e in empt], abs=1e-12)
    assert all(rows[k]["p_block"] > rows[k + 1]["p_block"] for k in range(3))


def test_fragmentation_block_probability_vanishes():
    m = Homogeneous.constant(GEO, 1.0, range(-12, 1))
    rows = fragmentation_table(m, W, [2, 4, 6, 8, 10])
    assert rows[-1]["p_block"] < 1e-6


def test_condensation_table_design():
    # constant zhat = 1 at every scale: each chain element flips a fair coin
    m = EffectiveDesign.from_values(GEO, {0: 1.0},
                                    zhat_tail_up=TailRule("geometric", 1.0))
    b = block(0, 0)
    windows = [block(j, 0) for j in range(0, 12)]
    rows = condensation_table(m, b, windows)
    for r in rows:
        a = r["chain_length"]
        assert r["p_chain_hit"] == pytest.approx(1.0 - 2.0 ** -a, abs=1e-12)
    assert [r["chain_length"] for r in rows] == list(range(1, 13))
    # the probe block itself is occupied with vanishing probability
    assert rows[-1]["p_block"] < rows[0]["p_block"]


def test_condensation_window_must_contain_probe():
    m = EffectiveDesign.from_values(GEO, {0: 1.0})
    with pytest.raises(ValueError):
        condensation_table(m, block(0, 5), [block(1, 0)])


# -- distribution helpers ---------------------------------------------------------

def test_blocks_listing():
    dist = enumerate_system(unit_model(), W, 2)
    bs = dist.blocks()
    assert len(bs) == 7
    assert bs[0] == W


def test_prob_of_missing_config_is_zero():
    dist = enumerate_system(unit_model(), W, 1)
    assert dist.prob(frozenset([block(-5, 0)])) == 0.0


@settings(max_examples=25, deadline=None)
@given(explicit_systems(), st.randoms(use_true_random=False))
def test_prob_superset_matches_a_scan(system, rng):
    geo, window, depth, acts, _ = system
    dist = enumerate_system(Explicit.from_values(geo, acts), window, depth)

    def scan(want):
        total = 0.0
        for cfg, p in zip(dist.support, dist.probs):
            if want <= cfg:
                total += p
        return total

    blocks = dist.blocks()
    outside = [block(window.scale + 1, *[0] * geo.d),
               block(window.scale - depth - 1, *[0] * geo.d)]
    # every support configuration, random sets of 2 to 4 blocks (many
    # overlap, so no configuration contains them) and sets leaving the system
    queries = [set(cfg) for cfg in dist.support]
    queries += [set(rng.sample(blocks, min(len(blocks), rng.randint(2, 4))))
                for _ in range(20)]
    queries += [{rng.choice(blocks), rng.choice(outside)} for _ in range(5)]
    for want in queries:
        got = dist.prob_superset(want)
        assert type(got) is float
        if not want <= set(blocks):
            assert got == 0.0
        else:
            assert got == scan(want)
    if len(blocks) > 1:
        assert dist.prob_superset([blocks[0], blocks[-1]]) == 0.0    # overlapping


def test_prob_superset_scans_without_the_table():
    dist = enumerate_system(unit_model(), W, 2)
    assert dist.prob_superset([block(-2, 0)]) == pytest.approx(5 / 13, abs=1e-12)
    assert "_superset_sums" not in dist.__dict__
    verify_hierarchical_formula(dist, lambda b: 0.5)
    assert "_superset_sums" in dist.__dict__


# -- pinned outputs -----------------------------------------------------------------

def _pin_digest(dist, reports) -> str:
    """sha256 of a distribution's support, probabilities and log partition,
    and of the verifier reports on it."""
    h = hashlib.sha256()
    for cfg, p in zip(dist.support, dist.probs):
        h.update(f"{sorted(format_block(b) for b in cfg)} {p!r}\n".encode())
    h.update(f"{dist.log_partition!r}\n".encode())
    for rep in reports:
        h.update(repr([rep["max_residual"], rep["worst_case_block"],
                       rep["worst_case_event"], rep.get("per_block")]).encode())
    return h.hexdigest()


PINNED = {
    "d1-const1-depth1":
        "d10a2b89c4094fbfcc51394088baf5f95413913519929a85c79cf5e4bfc9ce9d",
    "d1-const1-depth2":
        "2811f4f09ec9f69f98f741e7cab9392009b4e86db80d8230b9f7cf1d239b6a0a",
    "d1-const1-depth3":
        "ca921740d4be9bad163d58646f13442c5325082ed9c7030201af0a9cef88dba8",
    "d1-const05-depth2":
        "5b4662931eaa81d3d8ae69dbd0d7e764c87b28175c6e30f06916efe9fb15e7d4",
    "d1-graded-depth3":
        "d40dffae13fdb31cda51fd2c8d3898ec8ca15fcaa9e999fb5dcc7db26da3c29b",
    "d1-explicit-depth2":
        "980484ec616f8a1005476c5db156ee257bb287445c140fc38a46d8fd41e09823",
    "d1-design-depth2":
        "997f5e497a69f8ebcf0371c3631eaa8dbbb1fefeeb16ff4da324a436c134753b",
    "d1-shifted-window":
        "561c9bd4d865d1ef6b0488b476ec2dc120919b66baf3e1eaf8f3e42db2aa3c23",
    "d2-const1-depth1":
        "1532874c8bdac844609e2882e47e4e639fdd98fc6eb7684233674dc8bd203cea",
    "d2-const07-depth1":
        "bf55d78e2d3006268bd11dd8ba0ac6f78dc0529ef61e647f499e06bc0badd13a",
    "d1-graded-depth2":
        "f3acf78720ea86ef0e3103e396f6308c52d4545fc6f15669440da2416a9e46fa",
    "d2-explicit-depth1":
        "8b2cc827431f12d8c2da14fa2e000d19c7367e4d3457996613d5a1194ed69b3e",
    "mandelbrot-p05-depth2":
        "36cf5fee0e32615a3babe5e548c020a768c2ce082121abbb3466bd9c864adc02",
    "d1-random-explicit-depth3":
        "23f7356ef57257aa65c81e3ff658e3dde13ee1797424da9d17ee6d53b4803a6e",
    "d2-random-explicit-depth1":
        "921a4e994165ad1752612647bc9d95010437e131dc19cb5176f1c198825ee864",
}


def _random_explicit(seed, geo, window, depth):
    """A seeded Explicit model: every block of the system gets an activity
    drawn uniformly from [0.1, 3]."""
    rng = random.Random(seed)
    bs = descendants(window, window.scale - depth, geo)
    return Explicit.from_values(geo, {b: rng.uniform(0.1, 3.0) for b in bs})


# inhomogeneous systems beside the validation matrix, so that worst events
# and their tie-breaks among distinct activities are pinned too
RANDOM_SYSTEMS = {
    "d1-random-explicit-depth3": (_random_explicit(11, GEO, W, 3), W, 3),
    "d2-random-explicit-depth1": (_random_explicit(12, GEO2, W2, 1), W2, 1),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_oracle_outputs_pinned(name):
    if name.startswith("mandelbrot"):
        dist = mandelbrot_distribution(0.5, GEO, W, 2)
        rho = lambda b: 0.5
        reports = [mandelbrot_gnz_report(0.5, GEO, W, 2)]
    else:
        model, window, depth = RANDOM_SYSTEMS.get(name) or next(
            s[1:] for s in _validation_matrix() if s[0] == name)
        dist = enumerate_system(model, window, depth)
        rho = gibbs_ratio_function(model, window, depth)
        reports = [verify_gnz(dist, model)]
    reports += [verify_topdown(dist, rho), verify_hierarchical_formula(dist, rho)]
    assert _pin_digest(dist, reports) == PINNED[name]
