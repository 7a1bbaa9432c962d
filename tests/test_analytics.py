import dataclasses
import hashlib
import itertools
import math
import random
import sys
import threading

import pytest
from hypothesis import assume, given, settings, strategies as st

from hiercubes.blocks import (Block, Geometry, IndexRangeError, block, children,
                              descendants, overlaps)
from hiercubes.activities import (EffectiveDesign, Explicit, Formula,
                                  Homogeneous, Parametric, ScaleTruncated,
                                  TailRule, VolumeTruncated)
from hiercubes import analytics
from hiercubes.analytics import (TruncatedSystem, UncertifiedComputation,
                                 _build_profile, check_condition_i,
                                 check_condition_ii,
                                 config_covariance, critical_mu, decay_profile,
                                 effective_activity, exact_marginal,
                                 existence_report, log_tail_ratio,
                                 occupation_ratio, pair_covariance,
                                 partition_function, partition_function_limit,
                                 pressure_profile, scale_profile,
                                 series_summand_bounds, tail_ratio_R)
from hiercubes.oracle import _validation_matrix
from hiercubes.logreal import (log1p_exp, log_expm1, logaddexp, logsumexp_iter,
                              ordered_sum)
from hiercubes.sampler import ancestor_chain_cdf, sample_gibbs_infinite

from test_activities import CountingModel, scale_wise_models

GEO = Geometry(1)
GEO2 = Geometry(2)
W = block(0, 0)


def unit_model(geo=GEO, depth=8):
    return Homogeneous.constant(geo, 1.0, range(-depth, 1))


# -- partition functions against the enumeration oracle -----------------------

def test_partition_values_d1():
    m = unit_model()
    # depth 0: 1 + z = 2; depth 1: 1 + z + (1+z)^2 = 6; depth 2: 2 + 6^2 ... no:
    # Xi(depth k) = z + prod children = 1 at leaves; closed recursion x -> 1 + x^2
    # with x_0 = 2: 2, 5, 26, 677
    for depth, want in [(0, 2.0), (1, 5.0), (2, 26.0), (3, 677.0)]:
        got = partition_function(m, W, depth)
        assert math.exp(got.log) == pytest.approx(want, abs=1e-12 * want)


def test_partition_values_d2():
    m = unit_model(GEO2)
    # x -> 1 + x^4 with x_0 = 2: 2, 17
    for depth, want in [(0, 2.0), (1, 17.0)]:
        got = partition_function(m, block(0, 0, 0), depth)
        assert math.exp(got.log) == pytest.approx(want, abs=1e-12 * want)


def test_product_formula_invariant():
    # log Xi(window) = sum over blocks of log1p(zhat)
    m = Homogeneous.from_values(GEO, {0: 1.0, -1: 0.5, -2: 0.25})
    sys = TruncatedSystem(m, W, 3)
    total = sum(math.log1p(math.exp(sys.log_zhat(b))) for b in sys.blocks())
    assert sys.log_xi(W) == pytest.approx(total, abs=1e-10)


def test_xi_sandwich_bounds():
    # 1 + sum z <= Xi <= prod (1 + z)
    m = Homogeneous.from_values(GEO, {0: 0.5, -1: 0.3, -2: 0.7})
    sys = TruncatedSystem(m, W, 2)
    zs = [math.exp(sys.log_activity(b)) for b in sys.blocks()]
    xi = math.exp(sys.log_xi(W))
    assert 1 + sum(zs) <= xi + 1e-12
    assert xi <= math.prod(1 + z for z in zs) + 1e-12


def test_partition_monotone_in_depth():
    m = Homogeneous.constant(GEO, 0.5, range(-10, 1))
    vals = [partition_function(m, W, k).log for k in range(0, 8)]
    assert all(vals[k] < vals[k + 1] for k in range(len(vals) - 1))


def test_partition_limit_convergent():
    m = Homogeneous.from_values(GEO, {0: 1.0},
                                tail_down=TailRule("geometric", 0.25))
    res = partition_function_limit(m, W)
    assert res.converged and math.isfinite(res.value.log)


def test_partition_limit_divergent():
    # downward mass M^(dj) z_{-j} constant: sum diverges, Xi = +inf
    m = Homogeneous.from_values(GEO, {0: 1.0},
                                tail_down=TailRule("geometric", 0.5))
    res = partition_function_limit(m, W)
    assert res.converged and res.value.log == math.inf
    # a window below the table's lowest scale still sits on the divergent tail
    m = Homogeneous.from_values(GEO, {5: 1.0}, tail_down=TailRule("geometric", 1.0))
    res = partition_function_limit(m, W)
    assert res.value.log == math.inf and res.depth_used == 0


def test_partition_limit_of_a_volume_truncation():
    # the divergent tail lives only inside the truncation window
    h = Homogeneous.from_values(GEO, {0: 1.0}, tail_down=TailRule("geometric", 1.0))
    vt = VolumeTruncated(h, W)
    outside = partition_function_limit(vt, block(0, 1))
    assert outside.converged and outside.value.log == 0.0
    assert partition_function_limit(vt, block(-1, 1)).value.log == math.inf
    assert partition_function_limit(vt, block(1, 0)).value.log == math.inf


def test_partition_limit_is_not_judged_by_size():
    # condition (i) holds; log Xi is far above 1e6 yet finite, and the
    # depth doubling settles it
    m = Homogeneous.from_values(GEO, {0: 1.0}, tail_down=TailRule("geometric", 0.01))
    assert check_condition_i(m).holds
    res = partition_function_limit(m, block(25, 0))
    assert res.converged and res.depth_used == 32
    assert res.value.log == pytest.approx(23600546.55, abs=0.01)
    m3 = Homogeneous.from_values(Geometry(3), {0: 1.0}, tail_down=TailRule("geometric", 0.01))
    assert check_condition_i(m3).holds
    res = partition_function_limit(m3, block(8, 0, 0, 0))
    assert res.converged and res.depth_used == 32 and math.isfinite(res.value.log)
    # a log that saturates to +inf in floats is undecided, not divergent
    m2 = Homogeneous.from_values(GEO2, {0: 1.0}, tail_down=TailRule("geometric", 0.01))
    res = partition_function_limit(m2, block(600, 0, 0))
    assert not res.converged and res.certificate.startswith("undecided")


@pytest.mark.parametrize("default", [1e-20, 1.0])
def test_partition_limit_of_a_positive_default_is_infinite(default):
    # condition (i) fails: every block has infinite Xi, however small the default
    m = Explicit.from_values(GEO, {}, default=default)
    assert check_condition_i(m).status == "fails"
    res = partition_function_limit(m, W)
    assert res.converged and res.value.log == math.inf and res.depth_used == 0
    # volume-truncated to W, the activity acts only on W's subtree
    vt = VolumeTruncated(m, W)
    outside = partition_function_limit(vt, block(0, 1))
    assert outside.converged and outside.value.log == 0.0
    for window in (block(-1, 1), block(0, 0), block(1, 0)):
        assert partition_function_limit(vt, window).value.log == math.inf


def test_partition_limit_does_not_read_a_gap_as_convergence():
    # activity at scales 0 and -5 only: depths 1 and 2 give the same log 2
    m = Homogeneous.from_values(Geometry(1), {0: 1.0, -5: 1.0})
    res = partition_function_limit(m, block(0, 0))
    assert res.converged and res.depth_used == 5
    assert res.value.log == pytest.approx(math.log(1 + 2.0 ** 32), rel=1e-12)
    # Xi = 2 at block(-15, 0), 1 beside its chain: Xi of the window is 1 + 2
    sparse = Explicit.from_values(Geometry(1), {block(0, 0): 1.0, block(-15, 0): 1.0})
    res = partition_function_limit(sparse, block(0, 0))
    assert res.converged and res.value.log == pytest.approx(math.log(3), rel=1e-12)


def test_partition_limit_beyond_the_block_lane_is_undecided():
    deeper = Explicit.from_values(Geometry(1), {block(0, 0): 1.0, block(-17, 0): 1.0})
    res = partition_function_limit(deeper, block(0, 0))
    assert not res.converged and res.value.log == 0.0
    # the cap counts bottom blocks: at d=2, depth 12 would tabulate 4**12
    wide = Explicit.from_values(Geometry(2), {block(0, 0, 0): 1.0, block(-12, 0, 0): 1.0})
    res = partition_function_limit(wide, block(0, 0, 0))
    assert not res.converged and res.value.log == 0.0 and res.depth_used == 0
    # d=2 at depth 8 (4**8 = 2**16 bottom blocks) is still within the cap
    reach = Explicit.from_values(Geometry(2), {block(0, 0, 0): 1.0, block(-8, 0, 0): 1.0})
    res = partition_function_limit(reach, block(0, 0, 0))
    assert res.converged and res.value.log == pytest.approx(math.log(3), rel=1e-12)


# -- effective activities and occupation ratios --------------------------------

def test_effective_activity_unit_depths():
    m = unit_model()
    # zhat(top) = z / Xi(child)^2 = 1/4, 1/25, 1/676 at depths 1,2,3
    for depth, want in [(1, 0.25), (2, 1 / 25), (3, 1 / 676)]:
        got = effective_activity(m, W, depth)
        assert math.exp(got.log) == pytest.approx(want, abs=1e-13)


def test_occupation_ratio_consistency():
    m = Homogeneous.from_values(GEO, {0: 2.0, -1: 0.5, -2: 1.5})
    for depth in (1, 2):
        rho = occupation_ratio(m, W, depth)
        assert 0.0 < rho < 1.0


def test_effective_design_roundtrip():
    m = EffectiveDesign.from_values(GEO, {0: 1.0, 1: 0.5, 2: 0.25})
    for j, want in [(0, 1.0), (1, 0.5), (2, 0.25)]:
        got = effective_activity(m, block(j, 0), depth=j + 1)
        assert math.exp(got.log) == pytest.approx(want, abs=1e-12)


# -- existence criteria --------------------------------------------------------

def test_condition_i_homogeneous_geometric():
    # downward step of mass sum is M^d * ratio; <1 holds, >=1 fails
    holds = Homogeneous.from_values(GEO, {0: 1.0},
                                    tail_down=TailRule("geometric", 0.25))
    fails = Homogeneous.from_values(GEO, {0: 1.0},
                                    tail_down=TailRule("geometric", 0.5))
    assert check_condition_i(holds).holds
    v = check_condition_i(fails)
    assert v.status == "fails"
    # an empty table is zero activity whatever its tail rule
    empty = Homogeneous.from_values(GEO, {}, tail_down=TailRule("geometric", 0.5))
    assert check_condition_i(empty).holds
    assert partition_function_limit(empty, W).value.log == 0.0


def test_condition_i_bounded_below():
    m = Homogeneous.constant(GEO, 1.0, range(-5, 1))
    assert check_condition_i(m).holds


def test_condition_i_formula_sparse_example():
    # one active block per negative scale, walking right along the dyadic
    # tree: every subtree holds at most one particle per level, Xi converges
    def act(b):
        j = -b.scale - 1
        if j >= 0 and b.index == (2 ** (j + 1) - 2,):
            return 1.0
        return 0.0
    m = Formula(GEO, act)
    assert check_condition_i(m).holds


def test_condition_i_formula_unit_fails():
    m = Formula(GEO, lambda b: 1.0 if b.scale <= 0 else 0.0)
    assert check_condition_i(m).status == "fails"


def test_condition_i_formula_decaying_holds():
    m = Formula(GEO, lambda b: 4.0 ** b.scale if b.scale <= 0 else 0.0)
    assert check_condition_i(m).holds


def divergent_formula():
    # 4**j on scales -11..0, 1 on every block below -11, 0 above scale 0
    return Formula(GEO, lambda b: 0.0 if b.scale > 0 else
                   4.0 ** b.scale if b.scale >= -11 else 1.0)


def test_divergent_formula_has_infinite_partition_functions():
    # the activity of the strict-xfail test below: its scale-wise twin fails
    # condition (i), and log Xi of the window grows without bound with depth
    twin = Homogeneous.from_values(GEO, {**{j: 4.0 ** j for j in range(-11, 1)}, -12: 1.0},
                                   tail_down=TailRule("geometric", 1.0))
    assert check_condition_i(twin).status == "fails"
    log_xi = [partition_function(divergent_formula(), W, depth).log for depth in (8, 12)]
    assert log_xi[0] == pytest.approx(1.19, abs=0.01)
    assert log_xi[1] == pytest.approx(2839.1, abs=0.1)


@pytest.mark.xfail(strict=True, reason="the condition (i) scan of a Formula certifies a "
                                       "divergent activity (ROADMAP item 6)")
def test_condition_i_scan_does_not_certify_a_divergent_formula():
    assert check_condition_i(divergent_formula()).status != "holds"


def test_condition_ii_auto_when_i_fails():
    m = Homogeneous.from_values(GEO, {0: 1.0},
                                tail_down=TailRule("geometric", 0.5))
    assert check_condition_ii(m).holds


def test_condition_ii_design_split():
    holds = EffectiveDesign.from_values(GEO, {0: 1.0},
                                        zhat_tail_up=TailRule("geometric", 0.25))
    fails = EffectiveDesign.from_values(GEO, {0: 1.0},
                                        zhat_tail_up=TailRule("geometric", 1.0))
    assert check_condition_ii(holds).holds
    assert check_condition_ii(fails).status == "fails"


@pytest.mark.parametrize("rule,status,detail", [
    (TailRule("zero", 0.0), "holds", "finite designed sum exp(710)"),
    (TailRule("geometric", 0.5), "holds",
     "geometric designed tail converges (sum exp(710.693))"),
    (TailRule("geometric", 1.0), "fails",
     "designed effective activities do not decay (tail ratio 1.0 >= 1)"),
    (TailRule("geometric", 3.0), "fails",
     "designed effective activities do not decay (tail ratio 3.0 >= 1)"),
], ids=["zero-tail", "ratio-below-1", "ratio-1", "ratio-above-1"])
def test_design_condition_ii_is_decided_in_log_domain(rule, status, detail):
    # log zhat 710 is past the largest float's log, 709.78
    model = EffectiveDesign(GEO, {0: 710.0}, rule)
    report = existence_report(model)
    assert (report.condition_ii.status, report.condition_ii.detail) == (status, detail)
    # a positive top value below the smallest float does not decay either
    tiny = check_condition_ii(EffectiveDesign(GEO, {0: -800.0}, rule))
    assert tiny.status == status


@settings(max_examples=200, deadline=None)
@given(table=st.dictionaries(st.integers(-4, 4),
                             st.one_of(st.floats(-60, 60), st.just(-math.inf)),
                             min_size=1, max_size=6),
       ratio=st.one_of(st.none(), st.floats(0.001, 0.999)))
def test_design_condition_ii_states_finite_sums_as_floats(table, ratio):
    # the float sum of the table and of its geometric tail, as the detail
    # has always stated it
    rule = TailRule("zero") if ratio is None else TailRule("geometric", ratio)
    total = ordered_sum(math.exp(lv) for lv in table.values() if lv > -math.inf)
    if ratio is None:
        want = f"finite designed sum {total:.6g}"
    else:
        top = math.exp(table[max(table)])
        tail = top * ratio / (1 - ratio) if top > 0 else 0.0
        want = f"geometric designed tail converges (sum {total + tail:.6g})"
    assert analytics._condition_ii_design(EffectiveDesign(GEO, table, rule)).detail == want


def test_existence_verdicts():
    frag = Homogeneous.from_values(GEO, {0: 1.0},
                                   tail_down=TailRule("geometric", 0.5))
    assert existence_report(frag).verdict == "fragmentation"

    cond = EffectiveDesign.from_values(GEO, {0: 1.0},
                                       zhat_tail_up=TailRule("geometric", 1.0))
    assert existence_report(cond).verdict == "condensation"

    uniq = Parametric(GEO, mu=0.0, J=1.0, alpha=0.5)
    assert existence_report(uniq).verdict == "unique Gibbs measure"


def test_existence_when_the_lowest_active_scale_is_above_the_anchor():
    m = Homogeneous.from_values(GEO, {1: 2.0}, tail_up=TailRule("geometric", 0.5))
    rep = existence_report(m)
    assert rep.condition_ii.holds
    assert rep.verdict == "unique Gibbs measure"


def test_a_scale_truncation_that_cuts_nothing_keeps_the_design_verdict():
    design = EffectiveDesign.from_values(GEO, {0: 1.0, 1: 0.5},
                                         zhat_tail_up=TailRule("geometric", 0.5))
    # nothing is active below scale 0, so depth 3 cuts nothing
    truncated = ScaleTruncated(design, 3)
    assert truncated.log_activities(-5, 8) == design.log_activities(-5, 8)
    assert check_condition_ii(truncated) == check_condition_ii(design)
    assert existence_report(truncated).verdict == "unique Gibbs measure"
    # a truncation that cuts an active scale is read from its profile
    cut = ScaleTruncated(EffectiveDesign.from_values(GEO, {-2: 1.0, 0: 1.0}), 1)
    assert check_condition_ii(cut).detail.startswith("zhat tail under a geometric envelope")


def test_existence_does_not_depend_on_truncation_order():
    h = Homogeneous.from_values(GEO, {0: 1.0, -1: 1.0},
                                tail_down=TailRule("geometric", 0.25))
    window = block(2, 0)
    scale_outer = ScaleTruncated(VolumeTruncated(h, window), 3)
    volume_outer = VolumeTruncated(ScaleTruncated(h, 3), window)
    assert existence_report(scale_outer) == existence_report(volume_outer)
    assert existence_report(scale_outer).verdict == "unique Gibbs measure"


def test_parametric_condition_ii_sign():
    # zhat summable for mu below critical, not above
    assert check_condition_ii(Parametric(GEO, 0.0, 1.0, 0.5)).holds
    assert check_condition_ii(Parametric(GEO, 2.0, 1.0, 0.5)).status == "fails"


def test_condition_ii_is_undecided_where_the_activities_overflow():
    # the profile doubles to scale 512 undecided; 3**(2 j) overflows a float
    # at scale 324 on the way
    m = Parametric(Geometry(2, 3), 2.66, 1.0, 0.5)
    assert check_condition_ii(m) == analytics.ConditionVerdict(
        "undecided", detail="activities overflow a float below scale 512")
    assert existence_report(m).verdict == "undecided"


# -- marginals and covariances -------------------------------------------------

def test_exact_marginal_oracle_values():
    m = unit_model()
    # d=1, z = 1, window depth 2: Xi = 26
    quarter = block(-2, 0)
    assert exact_marginal(m, [quarter], W, 2) == pytest.approx(5 / 13, abs=1e-12)
    assert exact_marginal(m, [W], W, 2) == pytest.approx(1 / 26, abs=1e-12)
    two = [block(-2, 0), block(-2, 2)]       # one quarter in each half
    assert exact_marginal(m, two, W, 2) == pytest.approx(2 / 13, abs=1e-12)


def test_exact_marginal_overlap_zero():
    m = unit_model()
    assert exact_marginal(m, [W, block(-1, 0)], W, 2) == 0.0


def test_exact_marginal_outside_window():
    m = unit_model()
    assert exact_marginal(m, [block(0, 1)], W, 2) == 0.0


def test_pair_covariance_same_half():
    m = unit_model()
    # two quarters in the same half share the half as a strict ancestor
    r = pair_covariance(m, block(-2, 0), block(-2, 1), W, 2)
    assert r["cov"] == pytest.approx(r["factored_cov"], abs=1e-12)
    assert r["cov"] > 0                    # shared ancestor chain correlates


def test_pair_covariance_different_halves():
    m = unit_model()
    r = pair_covariance(m, block(-2, 0), block(-2, 2), W, 2)
    assert r["cov"] == pytest.approx(r["factored_cov"], abs=1e-12)
    assert r["cov"] == pytest.approx(2 / 13 - (5 / 13) ** 2, abs=1e-12)


def test_pair_covariance_nested_negative():
    m = unit_model()
    r = pair_covariance(m, W, block(-1, 0), W, 2)
    assert r["joint"] == 0.0
    assert r["cov"] == pytest.approx(-r["p1"] * r["p2"], abs=1e-12)
    assert r["cov"] == pytest.approx(r["factored_cov"], abs=1e-12)


def test_pair_covariance_identical_is_variance():
    m = unit_model()
    r = pair_covariance(m, W, W, W, 2)
    p = 1 / 26
    assert r["cov"] == pytest.approx(p * (1 - p), abs=1e-12)


def test_config_covariance_matches_pair():
    m = unit_model()
    r1 = pair_covariance(m, block(-2, 0), block(-2, 2), W, 2)
    r2 = config_covariance(m, [block(-2, 0)], [block(-2, 2)], W, 2)
    assert r1["cov"] == pytest.approx(r2["cov"], abs=1e-12)


COVARIANCE_KEYS = ("cov", "factored_cov", "joint", "p1", "p2")


def _outcome(call):
    # KeyError: the tail ratio of a scale below the profile's first (ROADMAP
    # item 5b, bench defect covariance-below-profile)
    try:
        return call()
    except (ValueError, UncertifiedComputation, OverflowError, KeyError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(scale_wise_models(), st.integers(0, 2**32))
def test_pair_covariance_is_the_config_covariance_of_singletons(model, seed):
    # the pair mode is config_covariance on [b1] and [b2], bit for bit,
    # refusals included, in a window and in infinite volume
    geo, rng, depth = model.geometry, random.Random(seed), 1
    top = Block(1, (0,) * geo.d)
    scales = [rng.randint(-depth, top.scale) for _ in range(2)]
    b1, b2 = [Block(s, tuple(rng.randrange(geo.M ** (top.scale - s)) for _ in range(geo.d)))
              for s in scales]
    assume(b1 != b2)
    for window in (top, None):
        pair = _outcome(lambda: pair_covariance(model, b1, b2, window, depth))
        config = _outcome(lambda: config_covariance(model, [b1], [b2], window, depth))
        if not isinstance(pair, dict):
            assert pair == config
            continue
        assert pair["mode"] == "pair"
        assert repr([pair[k] for k in COVARIANCE_KEYS]) == \
            repr([config[k] for k in COVARIANCE_KEYS])


def test_config_covariance_of_overlapping_sets_has_R_minus_one():
    # a union that is not hard-core is never occupied: R = -1
    m = unit_model()
    for window in (W, None):
        cv = config_covariance(m, [W], [block(-1, 0), block(-2, 3)], window, 2)
        assert cv["p1"] > 0.0 and cv["p2"] > 0.0
        assert cv["joint"] == cv["factored_joint"] == 0.0
        assert cv["factored_cov"] == -cv["p1"] * cv["p2"] == cv["cov"]


def test_infinite_marginal_certified():
    m = Parametric(GEO, mu=-1.0, J=1.0, alpha=0.5)
    p = exact_marginal(m, [block(0, 5)], None, 6)
    # must lie strictly inside (0,1) and agree with a deep finite window
    assert 0.0 < p < 1.0
    deep = exact_marginal(m, [block(0, 5)], block(30, 0), 36)
    assert p == pytest.approx(deep, abs=1e-9)


def test_infinite_marginal_refused_without_certificate():
    m = Parametric(GEO, mu=2.0, J=1.0, alpha=0.5)      # condition (ii) fails
    with pytest.raises(UncertifiedComputation):
        exact_marginal(m, [block(0, 0)], None, 6)


@pytest.mark.parametrize("blocks", [[], [block(0, 0), block(-1, 0)]],
                         ids=["empty", "nested"])
def test_infinite_marginal_refuses_before_it_answers(blocks):
    # the empty list and a nested pair have answers that read no chain (1
    # and 0); the gate refuses them all the same
    m = Parametric(GEO, 2.0, 1.0, 0.5)
    with pytest.raises(UncertifiedComputation):
        exact_marginal(m, blocks, None, 2)
    assert exact_marginal(m, blocks, W, 2) == (1.0 if not blocks else 0.0)


def test_infinite_marginal_below_the_depth_is_zero():
    m = Parametric(GEO, -1.0, 1.0, 0.5)
    assert exact_marginal(m, [block(-5, 0)], None, 2) == 0.0
    assert exact_marginal(m, [block(-5, 0), block(-4, 3)], None, 2) == 0.0
    # the windowed branch answers the same
    assert exact_marginal(m, [block(-5, 0)], W, 2) == 0.0


def test_infinite_volume_needs_a_scalewise_model():
    # condition (ii) holds (finitely many active blocks), but the chain to
    # infinity is read from a scale profile, which Explicit has not; a
    # Formula model is refused before its condition (i) scan reads a block
    m = Explicit.from_values(GEO, {block(0, 0): 0.5, block(-1, 0): 1.0})
    assert check_condition_ii(m).holds
    read = []
    formula = Formula(GEO, lambda b: read.append(b) or 1.0)
    for what, call in [
            ("infinite-volume marginal", lambda m: exact_marginal(m, [block(-1, 0)], None, 1)),
            ("infinite-volume marginal",
             lambda m: pair_covariance(m, block(-1, 0), block(-1, 1), None, 1)),
            ("infinite-volume marginal",
             lambda m: config_covariance(m, [block(-1, 0)], [block(-1, 1)], None, 1)),
            ("tail ratio", lambda m: tail_ratio_R(m, 0)),
            ("tail ratio", lambda m: log_tail_ratio(m, 0)),
            ("decay profile", lambda m: decay_profile(m, 4)),
            ("infinite-volume sampling",
             lambda m: sample_gibbs_infinite(m, block(0, 0), 1, seed=1)),
            ("infinite-volume sampling", lambda m: ancestor_chain_cdf(m, block(0, 0), 1))]:
        for model in (m, formula):
            with pytest.raises(ValueError) as exc:
                call(model)
            assert str(exc.value) == (f"{what} needs a scale-wise constant activity; "
                                      f"{type(model).__name__} is not")
    # the only readers that do not certify refuse in the same words
    for call in [lambda m: scale_profile(m, 4), lambda m: pressure_profile(m)]:
        for model in (m, formula):
            with pytest.raises(ValueError) as exc:
                call(model)
            assert str(exc.value) == ("scale profile needs a scale-wise constant activity; "
                                      f"{type(model).__name__} is not")
    assert read == []
    # a window makes the same queries finite-volume ones
    assert exact_marginal(m, [block(-1, 0)], W, 1) > 0.0


def test_scalewise_refusal_runs_once_per_call(monkeypatch):
    # the infinite-volume marginal refuses a model that is not scale-wise
    # once, before it certifies it
    runs = []
    original = analytics._require_scalewise

    def counted(model, what):
        runs.append(what)
        original(model, what)
    monkeypatch.setattr(analytics, "_require_scalewise", counted)
    m = Parametric(GEO, -1.0, 1.0, 0.5)
    assert exact_marginal(m, [block(0, 1)], None, 2) > 0.0
    assert runs == ["infinite-volume marginal"]
    # the sampler refuses once, in `ancestor_chain_cdf`, which certifies its
    # chain law; the tail ratio once, in `log_tail_ratio`
    for call, what in [(lambda: sample_gibbs_infinite(m, W, 2, seed=1), "infinite-volume sampling"),
                       (lambda: ancestor_chain_cdf(m, W, 2), "infinite-volume sampling"),
                       (lambda: tail_ratio_R(m, 0), "tail ratio"),
                       (lambda: log_tail_ratio(m, 0), "tail ratio")]:
        runs.clear()
        call()
        assert runs == [what]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("mu", [-1.0, -0.5, 0.0])
def test_infinite_config_covariance_factorizes(d, mu):
    # joint = P1 P2 (1 + R) over the common chain, read in infinite volume
    geo = Geometry(d)
    m = Parametric(geo, mu, 1.0, 0.5)
    blocks = [Block(j, idx) for j in (1, 0)
              for idx in itertools.product(range(2 ** (2 - j)), repeat=d)]
    for b1, b2 in itertools.combinations(blocks, 2):
        cv = config_covariance(m, [b1], [b2], None, 0)
        assert abs(cv["joint"] - cv["factored_joint"]) <= 1e-12 * abs(cv["factored_joint"])
    assert cv["joint"] > 0.0


@pytest.mark.parametrize("lo", [100, 108, 200])
def test_decay_rows_below_the_profile_read_its_first_scale(lo):
    # nothing is active below scale lo, so R_j = R_lo for every row; scales
    # 108 and 200 lie near and above the 90 scales past the highest row, 20
    m = Homogeneous.from_values(GEO, {lo: 1.0})
    rows = decay_profile(m, 20)
    assert [r["j"] for r in rows] == list(range(21))
    assert all(r["log_R"] == rows[0]["log_R"] and r["residual"] is None for r in rows)
    assert rows[0]["log_R"] == pytest.approx(0.0, abs=1e-15)   # R = (1 + 1) - 1
    # with an upward tail, R sums as far above lo as log_tail_ratio does: its
    # terms at lo + 3, lo + 4 are about exp(-8), exp(-15)
    m = Homogeneous.from_values(GEO, {lo: 1.0}, tail_up=TailRule("geometric", 0.5))
    rows = decay_profile(m, 20)
    assert all(r["log_R"] == rows[0]["log_R"] for r in rows)
    assert rows[0]["log_R"] == pytest.approx(log_tail_ratio(m, lo), rel=1e-15)
    assert rows[0]["log_R"] > 0.2          # above scale lo's own R = 1


def test_impossible_systems_are_rejected():
    m2 = Homogeneous.constant(GEO2, 1.0, range(-2, 1))
    for window, depth, says in [(W, 2, "dimension"), (block(0, 0, 0), -1, "depth"),
                                (block(-3, 0, 0), 2, "does not reach")]:
        with pytest.raises(ValueError, match=says):
            TruncatedSystem(m2, window, depth)
    with pytest.raises(ValueError, match="dimension"):
        exact_marginal(m2, [block(-1, 1)], W, 2)
    with pytest.raises(ValueError, match="dimension"):
        exact_marginal(m2, [block(-1, 1)], block(0, 0, 0), 2)
    with pytest.raises(ValueError, match="dimension"):
        sample_gibbs_infinite(Parametric(GEO2, -1.0, 1.0, 0.5), W, 2, seed=1)


@pytest.mark.parametrize("what,call", [
    ("infinite-volume marginal", lambda m: exact_marginal(m, [block(0, 0)], None, 6)),
    ("infinite-volume marginal",
     lambda m: pair_covariance(m, block(-1, 0), block(-1, 1), None, 1)),
    ("infinite-volume marginal",
     lambda m: config_covariance(m, [block(-1, 0)], [block(-1, 1)], None, 1)),
    ("tail ratio", lambda m: tail_ratio_R(m, 0)),
    ("tail ratio", lambda m: log_tail_ratio(m, 0)),
    ("decay profile", lambda m: decay_profile(m, 4)),
    ("infinite-volume sampling",
     lambda m: sample_gibbs_infinite(m, block(0, 0), 1, seed=1)),
    ("infinite-volume sampling", lambda m: ancestor_chain_cdf(m, block(0, 0), 1)),
], ids=["marginal", "pair-covariance", "config-covariance", "tail-ratio",
        "log-tail-ratio", "decay", "sampling", "chain-law"])
def test_refusals_share_one_message_format(what, call, monkeypatch):
    # both models condense: condition (ii) fails, and no profile is read
    models = [Parametric(GEO, mu=2.0, J=1.0, alpha=0.5),
              EffectiveDesign.from_values(GEO, {0: 1.0}, TailRule("geometric", 1.0))]
    verdicts = [check_condition_ii(m) for m in models]
    assert [cii.status for cii in verdicts] == ["fails", "fails"]

    def unread(*args):
        raise AssertionError("a refused reader read a profile")
    monkeypatch.setattr(analytics, "_scale_profile", unread)
    for m, cii in zip(models, verdicts):
        with pytest.raises(UncertifiedComputation) as exc:
            call(m)
        assert str(exc.value) == \
            f"{what} refused: condition (ii) is '{cii.status}' ({cii.detail})"


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(0.05, 3.0))
def test_rho_two_formulas(z_top, z_low):
    m = Homogeneous.from_values(GEO, {0: z_top, -1: z_low})
    sys = TruncatedSystem(m, W, 1)
    # rho = zhat/(1+zhat) = z/Xi at every block
    for b in sys.blocks():
        lz = sys.log_activity(b)
        lhs = math.exp(sys.log_rho(b))
        rhs = math.exp(lz - sys.log_xi(b))
        assert lhs == pytest.approx(rhs, abs=1e-12)


# -- pressure ------------------------------------------------------------------

def test_pressure_zero_activity():
    m = Homogeneous.constant(GEO, 0.0, range(0, 1))
    prof = pressure_profile(m)
    assert prof.pressure == 0.0
    assert prof.theta_star == -math.inf


def test_pressure_design_unit():
    # zhat_0 = 1 only: p = log(1 + zhat_0) = log 2
    m = EffectiveDesign.from_values(GEO, {0: 1.0})
    prof = pressure_profile(m)
    assert prof.pressure == pytest.approx(math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("table,pressure", [
    ({-5: 1.0}, 26.176289171510817),
    ({0: 1.0, -1: 0.0, -2: 1.0}, 3.3092636428739453),
], ids=["nothing-active-at-zero", "gap-below-zero"])
def test_start_scale_walk_passes_scales_of_zero_activity(table, pressure):
    # nothing is active above scale 0, so p = log Xi of a scale-0 block; the
    # depth-40 system reaches below the walk's start scale
    m = Homogeneous.from_values(GEO, table, tail_down=TailRule("geometric", 0.1))
    assert m.min_active_scale() is None
    log_xi = TruncatedSystem(m, W, 40).log_xi(W)
    assert log_xi == pytest.approx(pressure, rel=1e-12)
    assert pressure_profile(m).pressure == pytest.approx(log_xi, rel=1e-12)


def test_start_scale_walk_starts_at_the_highest_active_table_scale():
    # every active scale lies 1500 or more below 0, beyond the walk's 2000
    # steps from scale 0; nothing above the table is active, so the walk
    # starts at its highest active scale
    m = Homogeneous.from_values(GEO, {-1500: 1.0}, tail_down=TailRule("geometric", 0.1))
    assert check_condition_i(m).holds
    assert existence_report(m).verdict == "unique Gibbs measure"
    assert scale_profile(m, 0).j_lo == -2172


def test_start_scale_walk_takes_in_the_whole_table():
    # the pressure term of scale -2 is tiny, but scale -60 carries the mass:
    # only the geometric tail below the table may be cut, so the walk goes on
    # to the scale where the tail's term drops under 1e-18
    m = Homogeneous.from_values(GEO, {-2: 1e-30, -60: 1.0}, tail_down=TailRule("geometric", 0.1))
    assert scale_profile(m, 0).j_lo == -112
    log_xi = TruncatedSystem(m, W, 90).log_xi(W)
    assert log_xi == pytest.approx(9.431002092700677e17, rel=1e-12)
    assert pressure_profile(m).pressure == log_xi
    # a table that grows downwards is still refused by the one-step test
    m = Homogeneous.from_values(GEO, {-2: 1e-30, -60: 1.0, -61: 1.0},
                                tail_down=TailRule("geometric", 0.1))
    with pytest.raises(UncertifiedComputation, match="does not decay"):
        scale_profile(m, 0)


@pytest.mark.parametrize("tail", [TailRule(), TailRule("geometric", 0.1)],
                         ids=["zero-tail", "geometric-tail"])
def test_a_profile_below_the_underflow_of_the_volume_saturates(tail):
    # M**(d j) is 0.0 as a float below scale -1074: the pressure term of an
    # active scale there is read from its log, +inf where it overflows
    m = Homogeneous.from_values(GEO, {-1100: 1.0}, tail_down=tail)
    assert pressure_profile(m).pressure == math.inf
    assert existence_report(m).verdict == "unique Gibbs measure"
    # p_3 = M**(-3) log Xi_3, both of about 1e11
    prof = scale_profile(Homogeneous.from_values(GEO, {-1100: 1e-320}), 3)
    assert math.isfinite(prof.pressure_partial[3])
    assert prof.pressure_partial[3] == pytest.approx(prof.log_xi[3] / 8, rel=1e-12)


def test_a_geometric_tail_under_a_zero_lowest_value_is_zero():
    m = Homogeneous.from_values(GEO, {0: 1.0, -1: 0.0}, tail_down=TailRule("geometric", 0.1))
    assert m.log_activities(-4, -1) == [-math.inf] * 4
    assert m.min_active_scale() == 0
    assert scale_profile(m, 2).j_lo == 0
    assert pressure_profile(m).pressure == pytest.approx(math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("model,j_max,first", [
    (Parametric(GEO, mu=-1.0, J=1.0, alpha=0.5), -5, 0),
    (Homogeneous.from_values(GEO, {100: 1.0}), 64, 100),
], ids=["parametric-jmax-5", "homogeneous-from-100"])
def test_pressure_refuses_j_max_below_the_first_scale(model, j_max, first):
    with pytest.raises(ValueError, match=f"j_max {j_max} lies below the profile's "
                                         f"first scale {first}"):
        pressure_profile(model, j_max=j_max)
    assert pressure_profile(model, j_max=first).j_window == (first, first)


def test_pressure_parametric_exceeds_threshold():
    m = Parametric(GEO, mu=0.1, J=1.0, alpha=0.5)
    prof = pressure_profile(m)
    assert prof.theta_star == pytest.approx(0.1)
    assert prof.theta_star_exact
    assert prof.pressure > prof.theta_star


# -- tail ratios and decay ------------------------------------------------------

def test_tail_ratio_single_scale():
    m = EffectiveDesign.from_values(GEO, {0: 1.0})
    assert tail_ratio_R(m, 0) == pytest.approx(1.0, abs=1e-12)
    assert tail_ratio_R(m, 5) == 0.0


def test_tail_ratio_monotone_to_zero():
    m = Parametric(GEO, mu=-0.5, J=1.0, alpha=0.5)
    logs = [log_tail_ratio(m, j) for j in range(0, 12)]
    assert all(logs[k] > logs[k + 1] for k in range(len(logs) - 1))
    assert logs[-1] < -100


def test_tail_ratio_is_not_capped():
    # S_0 = log(1 + zhat_0) = 1e305 is log R_0 itself; no exp(700) cap clips it
    m = Homogeneous(GEO, {0: 1e305}, TailRule("zero", 0.0), TailRule("zero", 0.0))
    assert log_tail_ratio(m, 0) == pytest.approx(1e305, rel=1e-12)
    assert decay_profile(m, 0)[0]["log_R"] == pytest.approx(1e305, rel=1e-12)


def test_decay_profile_rejects_a_negative_j_max():
    with pytest.raises(ValueError, match="j_max must be >= 0, got -1"):
        decay_profile(Parametric(GEO, mu=-0.5, J=1.0, alpha=0.5), -1)


def test_tail_ratio_refused_without_certificate():
    m = Parametric(GEO, mu=2.0, J=1.0, alpha=0.5)
    with pytest.raises(UncertifiedComputation):
        tail_ratio_R(m, 0)


def test_decay_profile_residual_shrinks():
    m = Parametric(GEO, mu=0.0, J=1.0, alpha=0.5)
    rows = decay_profile(m, 20)
    res = [abs(r["residual"]) for r in rows if r["residual"] is not None]
    assert res[-1] < 1e-6
    tail = res[10:]
    assert all(tail[k + 1] <= tail[k] + 1e-15 for k in range(len(tail) - 1))


def test_decay_profile_scaled_log_R_limit():
    # M^(-dj) log R_j -> -(p - theta*) ... equivalently log R_j ~ log zhat_j
    m = Parametric(GEO, mu=0.0, J=1.0, alpha=0.5)
    prof = pressure_profile(m)
    rows = decay_profile(m, 18)
    gap = prof.theta_star - prof.pressure
    j, val = rows[-1]["j"], rows[-1]["scaled_log_R"]
    assert abs(val - gap) < 2.0 ** (-0.5 * j) * 1.5 + 1e-12


def _per_row_log_R(prof, j):
    # reference: R_j folded in one pass over the scales j..j_hi of its own row
    terms = []
    for k in range(j, prof.j_hi + 1):
        lzh = prof.log_zhat[k]
        if lzh == -math.inf:
            continue
        if lzh < -30:
            terms.append(lzh)
        else:
            terms.append(math.log(log1p_exp(lzh)))
    if not terms:
        return None
    lead = max(terms)
    rel = ordered_sum(math.exp(t - lead) for t in terms) - 1.0
    log_S = lead + math.log1p(rel)
    if log_S > -30:
        return log_expm1(math.exp(log_S)), lead, rel
    return log_S, lead, rel


def _per_row_decay_profile(model, j_max):
    # reference: each row builds its own R terms and pressure-tail terms
    geo = model.geometry
    prof = scale_profile(model, max(j_max, analytics._profile_start_scale(model)) + 90)
    parametric = isinstance(analytics._unwrap(model)[0], Parametric)
    rows = []
    for j in range(0, j_max + 1):
        vol = float(geo.M) ** (geo.d * j)
        r = _per_row_log_R(prof, max(j, prof.j_lo))
        if r is None:
            rows.append({"j": j, "log_R": -math.inf, "scaled_log_R": -math.inf,
                         "residual": None})
            continue
        log_R, lead, rel = r
        row = {"j": j, "log_R": log_R, "scaled_log_R": log_R / vol, "residual": None}
        if parametric and prof.log_zhat.get(j, -math.inf) > -math.inf:
            log_S = lead + math.log1p(rel)
            delta = (lead - prof.log_zhat[j]) + math.log1p(rel) + (log_R - log_S)
            log_tail_terms = [math.log(prof.log1p_zhat[k]) - geo.d * k * math.log(geo.M)
                              if prof.log1p_zhat[k] > 0 and prof.log_zhat[k] >= -30
                              else prof.log_zhat[k] - geo.d * k * math.log(geo.M)
                              for k in range(j, prof.j_hi + 1)
                              if prof.log_zhat[k] > -math.inf]
            log_tail_p = logsumexp_iter(log_tail_terms)
            tail_contrib = math.exp(geo.d * j * math.log(geo.M) + log_tail_p) \
                if log_tail_p > -math.inf else 0.0
            row["residual"] = delta + tail_contrib
        rows.append(row)
    return rows


_DECAY_MODELS = {
    "parametric-d1": Parametric(GEO, mu=-0.5, J=1.0, alpha=0.5),
    "parametric-d1-near-threshold": Parametric(GEO, mu=0.2, J=1.2, alpha=0.45),
    "parametric-d2": Parametric(GEO2, mu=-0.2, J=1.0, alpha=0.5),
    "parametric-d2-alpha": Parametric(GEO2, mu=-1.0, J=0.8, alpha=0.7),
    # geometric tails both ways, and no activity at scales 2 and 3
    "homogeneous-gap-d1": Homogeneous.from_values(
        GEO, {-2: 1.5 / 6.0 ** 2, -1: 1.5 / 6.0, 0: 1.5, 1: 0.4, 2: 0.0, 3: 0.0, 4: 2.5},
        TailRule("geometric", 1 / 6.0), TailRule("geometric", 0.3)),
    "homogeneous-gap-d2": Homogeneous.from_values(
        GEO2, {0: 0.8, 1: 0.0, 2: 1.7}, TailRule("geometric", 0.07),
        TailRule("geometric", 0.2)),
    # nothing active below scale 3: the rows below it read R of scale 3
    "first-scale-3": Homogeneous.from_values(
        GEO, {3: 0.5, 4: 0.0, 5: 1e-20, 6: 2.0}, tail_up=TailRule("geometric", 0.4)),
}


@pytest.mark.parametrize("name", list(_DECAY_MODELS))
def test_decay_table_equals_the_per_row_fold(name):
    model = _DECAY_MODELS[name]
    rows = decay_profile(model, 12)
    assert repr(rows) == repr(_per_row_decay_profile(model, 12))
    first = analytics._profile_start_scale(model)
    for j in range(max(first, 0), 14):
        want = _per_row_log_R(scale_profile(model, max(j + 80, 80)), j)
        assert repr(log_tail_ratio(model, j)) == repr(-math.inf if want is None else want[0])
    # the cases above reach both sides of the -30 branch of the R terms
    prof = scale_profile(model, 102)
    lzh = [prof.log_zhat[k] for k in range(max(first, 0), 103)]
    assert any(-math.inf < v < -30 for v in lzh) and any(v >= -30 for v in lzh)
    # and every non-parametric case has a scale with no activity among its first
    assert name.startswith("parametric") != any(v == -math.inf for v in lzh[:8])


def _direct_residual(model, p, row):
    # log R_j + M**(d j)(p - mu) + M**(alpha d j) J, as the docstring states it
    geo, j = model.geometry, row["j"]
    return (row["log_R"] + geo.M ** (geo.d * j) * (p - model.mu)
            + geo.M ** (model.alpha * geo.d * j) * model.J)


def test_decay_residual_is_the_direct_formula_where_log_R_passes_700():
    # where S_j = log(1 + R_j) >= 700, log R_j = S_j: the residual reads it
    for mu in (700.0, 650.0):
        m = Parametric(GEO, mu, 0.0, 0.5)
        p = pressure_profile(m, j_max=200).pressure
        row = decay_profile(m, 0)[0]
        assert row["log_R"] > mu
        assert row["residual"] == pytest.approx(_direct_residual(m, p, row), rel=1e-12)
    # a seeded sweep of certified Parametric models
    rng = random.Random(25)
    checked = 0
    for _ in range(200):
        geo = Geometry(rng.randint(1, 2), rng.randint(2, 3))
        m = Parametric(geo, rng.uniform(-2, 6), rng.uniform(0, 2), rng.uniform(0.3, 0.8))
        if not check_condition_ii(m).holds:
            continue
        p = pressure_profile(m, j_max=200).pressure
        for row in decay_profile(m, 4):
            if row["residual"] is not None and row["log_R"] >= 700:
                checked += 1
                assert row["residual"] == pytest.approx(_direct_residual(m, p, row),
                                                        rel=1e-12), (m, row)
    assert checked > 100


# -- series sandwich bounds ------------------------------------------------------

def test_series_bounds_reference_point():
    r = series_summand_bounds(1.0, 2.0, 0)
    assert r["lower"] == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert r["sum"] == pytest.approx(0.5218657, abs=1e-6)
    assert r["upper"] == pytest.approx(math.exp(-1.0) * (1 + 1 / math.log(2)), abs=1e-12)
    assert r["lower"] <= r["sum"] <= r["upper"]


def test_series_bounds_grid():
    for r in (0.5, 1.0, 2.0, 5.0):
        for b in (1.5, 2.0, 3.0):
            for j in range(0, 8):
                out = series_summand_bounds(r, b, j)
                assert out["log_lower"] <= out["log_sum"] <= out["log_upper"]


def test_series_bounds_validation():
    with pytest.raises(ValueError):
        series_summand_bounds(-1.0, 2.0, 0)
    with pytest.raises(ValueError):
        series_summand_bounds(1.0, 1.0, 0)


# -- critical chemical potential --------------------------------------------------

def test_critical_mu_zero_coupling():
    out = critical_mu(0.0, 0.5, tol=1e-3)
    assert out["mu_c"] == math.inf
    assert out["gibbs_at_mu_c"] is True


def test_critical_mu_frozen_values():
    out1 = critical_mu(1.0, 0.5, tol=1e-6)
    assert out1["mu_c"] == pytest.approx(0.80029555, abs=1e-5)
    out2 = critical_mu(2.0, 0.5, tol=1e-6)
    assert out2["mu_c"] == pytest.approx(0.18701889, abs=1e-5)
    assert out2["gibbs_at_mu_c"] is True


def test_critical_mu_stops_at_float_spacing():
    # below the spacing of floats the midpoint of adjacent lo and hi is one of
    # them: the bisection stops there instead of running forever
    out = critical_mu(1.0, 0.5, tol=1e-300)
    assert math.isfinite(out["mu_c"])
    assert out["mu_c"] == pytest.approx(critical_mu(1.0, 0.5, tol=1e-6)["mu_c"], abs=1e-5)
    assert len(out["trace"]) <= 2 + 64     # halving 100 down to 1e-16


def test_critical_mu_monotone_in_J():
    # stronger coupling shrinks the survival window; J small enough gives +inf
    vals = [critical_mu(J, 0.5, 1e-4)["mu_c"] for J in (0.5, 1.0, 2.0)]
    assert vals[0] == math.inf
    assert vals[0] >= vals[1] >= vals[2]


def test_critical_mu_tol_contract():
    coarse = critical_mu(1.0, 0.5, tol=1e-3)["mu_c"]
    fine = critical_mu(1.0, 0.5, tol=1e-6)["mu_c"]
    assert abs(coarse - fine) <= 1e-3


def test_critical_mu_validation():
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            critical_mu(1.0, 0.5, tol=tol)


@pytest.mark.parametrize("J,alpha,says", [
    (math.nan, 0.5, r"^J must be finite, got J=nan$"),
    (math.inf, 0.5, r"^J must be finite, got J=inf$"),
    (-math.inf, 0.5, r"^J must be finite, got J=-inf$"),
    (1.0, 0.0, r"^alpha must lie in \(0,1\), got alpha=0.0$"),
    (1.0, 1.0, r"^alpha must lie in \(0,1\), got alpha=1.0$"),
    (1.0, math.nan, r"^alpha must lie in \(0,1\), got alpha=nan$"),
], ids=["J-nan", "J-inf", "J-minus-inf", "alpha-0", "alpha-1", "alpha-nan"])
def test_critical_mu_checks_J_and_alpha_before_bisecting(monkeypatch, J, alpha, says):
    # the message names the argument, not the end of the bisection bracket
    monkeypatch.setattr(analytics, "_gibbs_predicate",
                        lambda *args: pytest.fail("bisection started"))
    with pytest.raises(ValueError, match=says):
        critical_mu(J, alpha, tol=1e-6)


# -- scale profile sanity ---------------------------------------------------------

def test_scale_profile_pressure_partials_increase():
    m = Parametric(GEO, mu=0.2, J=1.0, alpha=0.5)
    prof = scale_profile(m, 20)
    ps = [prof.pressure_partial[j] for j in range(prof.j_lo, prof.j_hi + 1)]
    assert all(ps[k] <= ps[k + 1] + 1e-15 for k in range(len(ps) - 1))


def test_volume_truncated_marginal_matches_shifted_window():
    base = Homogeneous.constant(GEO, 1.0, range(-4, 1))
    w = block(0, 3)
    m = VolumeTruncated(base, w)
    p = exact_marginal(m, [block(-2, 13)], w, 2)       # 13 * 2^-2 in [3, 4)
    assert p == pytest.approx(5 / 13, abs=1e-12)


# -- the scale recursion against the block lane -----------------------------------

LANE_GEOMETRIES = [(Geometry(1, 2), 5), (Geometry(1, 3), 4), (Geometry(2, 2), 3),
                   (Geometry(2, 3), 2)]          # (geometry, levels)
LANE_MODELS = {
    "homogeneous": lambda geo: Homogeneous.from_values(
        geo, {-1: 0.7, 0: 1.3, 1: 0.4}, TailRule("geometric", 0.5),
        TailRule("geometric", 0.8)),
    "parametric": lambda geo: Parametric(geo, -0.5, 1.0, 0.5),
    "design": lambda geo: EffectiveDesign.from_values(
        geo, {-1: 0.5, 0: 2.0, 1: 0.3}, TailRule("geometric", 0.5)),
}


def close(a, b, rel=1e-12):
    return a == b or abs(a - b) <= rel * max(1.0, abs(b))


@pytest.mark.parametrize("kind", sorted(LANE_MODELS))
@pytest.mark.parametrize("geo,levels", LANE_GEOMETRIES,
                         ids=[f"d{g.d}M{g.M}" for g, _ in LANE_GEOMETRIES])
def test_scale_lane_matches_block_lane(kind, geo, levels):
    model = LANE_MODELS[kind](geo)
    window, depth = Block(levels - 1, (0,) * geo.d), 1
    scale_sys = TruncatedSystem(model, window, depth)
    blocks = scale_sys.blocks()
    twin = Explicit(geo, {b: model.log_activity(b) for b in blocks})
    block_sys = TruncatedSystem(twin, window, depth)
    assert not twin.homogeneous_within(window)
    prof = scale_profile(model, window.scale, depth=depth)
    for b in blocks:
        log_xi = block_sys.log_xi(b)
        assert close(scale_sys.log_xi(b), log_xi)
        assert close(scale_sys.log_zhat(b), block_sys.log_zhat(b))
        assert abs(scale_sys.rho(b) - block_sys.rho(b)) <= 1e-12
        assert close(prof.pressure_partial[b.scale] * geo.M ** (geo.d * b.scale), log_xi)


def test_scale_profile_saturates_at_high_scales():
    m = Homogeneous.from_values(GEO, {0: 2.0, 1: 1.5}, TailRule("zero"),
                                TailRule("geometric", 0.9))
    prof = scale_profile(m, 1100)
    for table in (prof.log_z, prof.log_zhat, prof.log1p_zhat, prof.pressure_partial):
        assert not any(math.isnan(v) for v in table.values())
    assert prof.pressure_partial[1100] == 1.1787424566613705


def test_both_lanes_answer_outside_the_system():
    model = Homogeneous.constant(GEO, 1.0, range(-2, 2))
    window, depth = W, 2
    scale_sys = TruncatedSystem(model, window, depth)
    twin = Explicit(GEO, {b: model.log_activity(b) for b in scale_sys.blocks()})
    block_sys = TruncatedSystem(twin, window, depth)
    for sys in (scale_sys, block_sys):
        assert sys.log_xi(window) == pytest.approx(math.log(26))
        assert sys.log_xi(block(1, 0)) == sys.log_xi(window)    # contains it
        for outside in (block(0, 1), block(-1, 2), block(-3, 0)):
            assert sys.log_xi(outside) == 0.0
        for b in (block(1, 0), block(0, 1), block(-3, 0)):
            assert sys.log_zhat(b) == -math.inf and sys.rho(b) == 0.0


# -- the pinned block lane -----------------------------------------------------------
# sha256 of log Xi, log zhat and rho of every block, and of the partition
# function, of inhomogeneous systems: any change to the block lane's float
# order changes them.

def block_lane_systems():
    systems = [(model, window, depth) for _, model, window, depth in _validation_matrix()
               if isinstance(model, Explicit)]
    rng = random.Random(8)
    w8 = block(0, 0)
    systems.append((Explicit.from_values(GEO, {
        b: 0.0 if rng.random() < 0.2 else rng.uniform(0.05, 3.0)
        for b in descendants(w8, -7, GEO)}), w8, 7))
    inner = Explicit.from_values(GEO2, {block(0, 0, 0): 0.5, block(-1, 1, 0): 2.0,
                                        block(-2, 2, 1): 0.3}, default=0.8)
    systems.append((VolumeTruncated(inner, block(0, 0, 0)), block(1, 0, 0), 2))
    return systems


def test_block_lane_is_pinned():
    h = hashlib.sha256()
    for model, window, depth in block_lane_systems():
        sys = TruncatedSystem(model, window, depth)
        assert not model.homogeneous_within(window)
        for b in sys.blocks():
            h.update(repr((str(b), sys.log_xi(b), sys.log_zhat(b), sys.rho(b))).encode())
        h.update(repr(partition_function(model, window, depth).log).encode())
    assert h.hexdigest() == \
        "6e5becdd37744c9bbf279f63b341d1e113ec908e9d16123852486099cc2cba15"


def seeded_block_lane_systems():
    """Seeded Explicit systems of other shapes: M=3 at d=1 and d=2, d=3 with
    M=2, and depth 0, about a fifth of the activities zero."""
    rng = random.Random(10)
    systems = []
    for geo, window, depth in [(Geometry(1, 3), block(0, 2), 4),
                               (Geometry(2, 3), block(1, 1, 0), 1),
                               (Geometry(3, 2), block(0, 1, 0, 1), 2),
                               (Geometry(2, 2), block(2, 0, 1), 0),
                               (Geometry(1, 3), block(0, 4), 0)]:
        acts = {b: 0.0 if rng.random() < 0.2 else rng.uniform(0.05, 3.0)
                for b in descendants(window, -depth, geo)}
        systems.append((Explicit.from_values(geo, acts), window, depth))
    return systems


def test_block_lane_is_pinned_on_more_shapes():
    h = hashlib.sha256()
    for model, window, depth in seeded_block_lane_systems():
        sys = TruncatedSystem(model, window, depth)
        assert not model.homogeneous_within(window)
        for b in sys.blocks():
            h.update(repr((str(b), sys.log_xi(b), sys.log_zhat(b), sys.rho(b))).encode())
        h.update(repr(partition_function(model, window, depth).log).encode())
    assert h.hexdigest() == \
        "81160b16caa659d12679b852883f30e09912faaba8e340f07e9729897c093e18"


def _plain_lane(model, b, bottom, geo, out):
    """log Xi of b by the plain recursion over `children`, filling
    out[b] = (log Xi, log zhat) for b and every block below it."""
    lz = model.log_activity(b)
    if b.scale == bottom:
        below, lzh = 0.0, lz
    else:
        below = sum(_plain_lane(model, c, bottom, geo, out) for c in children(b, geo))
        lzh = lz - below
    out[b] = (logaddexp(lz, below), lzh)
    return out[b][0]


@st.composite
def explicit_lane_systems(draw):
    """Random Explicit systems, about a fifth of the activities zero, bare or
    inside a volume or a scale truncation that cuts into the system."""
    geo = Geometry(draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    scale = draw(st.integers(-1, 1))
    levels = draw(st.integers(max(scale, 0), 3 if geo.branching <= 9 else 2))
    window = Block(scale, tuple(draw(st.lists(st.integers(0, 5),
                                              min_size=geo.d, max_size=geo.d))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    blocks = descendants(window, scale - levels, geo)
    model = Explicit.from_values(
        geo, {b: 0.0 if rng.random() < 0.2 else rng.uniform(0.05, 3.0) for b in blocks},
        default=rng.choice([0.0, 0.5]))
    wrap = draw(st.sampled_from(["none", "volume", "scale"]))
    if wrap == "volume":
        model = VolumeTruncated(model, rng.choice(blocks))
    elif wrap == "scale":
        model = ScaleTruncated(model, rng.randint(0, levels) - scale)
    return model, window, levels - scale


@settings(max_examples=60, deadline=None)
@given(explicit_lane_systems())
def test_block_lane_matches_a_plain_recursion(system):
    model, window, depth = system
    sys = TruncatedSystem(model, window, depth)
    assert not model.homogeneous_within(window)
    want = {}
    _plain_lane(model, window, -depth, model.geometry, want)
    assert len(want) == len(sys.blocks())
    for b, (lxi, lzh) in want.items():
        assert sys.log_xi(b) == lxi and sys.log_zhat(b) == lzh


def test_block_lane_index_limit():
    model = Explicit.from_values(GEO, {block(0, 2**127 - 1): 1.5}, default=0.5)
    with pytest.raises(IndexRangeError):
        partition_function(model, block(0, 2**127), 1)
    got = partition_function(model, block(0, 2**127 - 1), 1)    # bottom index 2**128 - 1
    assert got.log == pytest.approx(math.log(1.5 + 1.5**2))


def test_block_lane_reads_one_level_per_call(monkeypatch):
    # Explicit answers each level without a per-block read; its truncations
    # and a model that defines only log_activity get the same bits through
    # the default level read, one call per block
    calls = []
    original = Explicit.log_activity

    def counted(self, b):
        calls.append(b)
        return original(self, b)
    monkeypatch.setattr(Explicit, "log_activity", counted)
    systems = block_lane_systems() + seeded_block_lane_systems()
    systems.append((ScaleTruncated(systems[-1][0], 1), *systems[-1][1:]))
    for model, window, depth in systems:
        table = TruncatedSystem(model, window, depth)._table
        if isinstance(model, Explicit):
            assert calls == []
        else:       # at most one call per block: a truncation may answer -inf itself
            assert 0 < len(calls) <= len(table)
        user = CountingModel(model)
        assert repr(TruncatedSystem(user, window, depth)._table) == repr(table)
        assert user.calls == len(table)
        calls.clear()


def test_block_lane_reads_its_table_before_the_overlap_test(monkeypatch):
    # a block at a scale of the system is answered from the table; only a
    # block above the window reaches the overlap test, and one below the
    # system builds no table
    model, window, depth = seeded_block_lane_systems()[0]
    sys = TruncatedSystem(model, window, depth)
    tested = []
    monkeypatch.setattr(analytics, "overlaps",
                        lambda b1, b2, geo: tested.append(b2) or overlaps(b1, b2, geo))
    assert sys.log_zhat(block(-depth - 1, 6)) == -math.inf
    assert "_table" not in vars(sys)
    rhos = [sys.rho(b) for b in sys.blocks()]
    assert tested == [] and any(0.0 < r < 1.0 for r in rhos)
    outside = [block(0, 0), block(-2, 0), block(1, 0)]     # the last contains the window
    assert [sys.log_zhat(b) for b in outside] == [-math.inf] * 3
    assert tested == [block(1, 0)]
    assert sys.log_xi(block(1, 0)) == sys.log_xi(window)
    assert [sys.log_xi(b) for b in outside[:2]] == [0.0, 0.0]


# -- the pinned scale recursion ------------------------------------------------------
# sha256 of the five dicts of every scale profile of seeded scale-wise models,
# and of critical_mu results: any change to the scale recursion's float order,
# or to the activities it reads, changes them.

def pinned_scale_models():
    """Seeded Parametric models over d 1-3, M 2-3, alpha 0.05-0.95;
    Homogeneous models with geometric tails both ways, their table shrinking
    downwards; EffectiveDesign models; and scale truncations of some."""
    rng = random.Random(12)
    models = []
    for d in (1, 2, 3):
        for M in (2, 3):
            for _ in range(2):
                models.append(Parametric(Geometry(d, M), rng.uniform(-1.5, 0.5),
                                         rng.uniform(0.2, 2.0), rng.uniform(0.05, 0.95)))
    for d, M in ((1, 2), (2, 2), (1, 3)):
        geo = Geometry(d, M)
        z, table = rng.uniform(0.5, 3.0), {}
        for j in range(1, -3, -1):
            table[j] = z
            z *= rng.uniform(0.1, 0.9) / geo.branching
        models.append(Homogeneous.from_values(
            geo, table, TailRule("geometric", rng.uniform(0.1, 0.9) / geo.branching),
            TailRule("geometric", rng.uniform(0.3, 1.2))))
        models.append(EffectiveDesign.from_values(
            geo, {j: rng.uniform(0.05, 3.0) for j in range(-2, 2)},
            TailRule("geometric", rng.uniform(0.2, 0.9))))
    return models + [ScaleTruncated(m, 2) for m in models[::3]]


def test_scale_profiles_are_pinned():
    h = hashlib.sha256()
    models = pinned_scale_models()
    for m in models:
        for j_hi in (64, 128):
            for depth in (None, 4):
                prof = scale_profile(m, j_hi, depth=depth)
                h.update(repr((prof.j_lo, prof.j_hi, prof.log_z, prof.log_xi,
                               prof.log_zhat, prof.log1p_zhat,
                               prof.pressure_partial)).encode())
    # volume truncations have no scale_profile; the scale lane reads them
    for m in models[::2]:
        vol = VolumeTruncated(m, Block(3, (1,) * m.geometry.d))
        for j_lo, j_hi in ((-4, 64), (0, 128)):
            prof = _build_profile(vol, j_lo, j_hi)
            h.update(repr((prof.log_z, prof.log_xi, prof.log_zhat, prof.log1p_zhat,
                           prof.pressure_partial)).encode())
    for d in (1, 2):
        for J in (0.5, 1.0, 2.0):
            for alpha in (0.3, 0.5, 0.8):
                res = critical_mu(J, alpha, 1e-9, geometry=Geometry(d))
                h.update(repr((res["mu_c"], res["gibbs_at_mu_c"], res["trace"])).encode())
    assert h.hexdigest() == \
        "ff2a67d49d91fd1e3011139395850df3cdfa97348b81628b2265f63bf3327eeb"


# -- the per-model memo --------------------------------------------------------------

def memo_weight(model):
    return sum(weight for _, weight in vars(model)[analytics._MEMO_ATTR].values())


def test_memo_serves_the_profile_of_a_fresh_build():
    for m in pinned_scale_models():
        shared = analytics._scale_profile(m, 64)
        assert analytics._scale_profile(m, 64) is shared
        longer = analytics._scale_profile(m, 128)
        # shorter profiles are read from the longest kept one, not rebuilt
        assert analytics._scale_profile(m, 64).log_xi is longer.log_xi
        for j_hi in (-1, 0, 17, 64, 127, 128):
            fresh = dataclasses.replace(m)          # equal, with no memo
            assert repr(scale_profile(m, j_hi)) == repr(scale_profile(fresh, j_hi))
            assert repr(scale_profile(m, j_hi, depth=4)) == \
                repr(_build_profile(fresh, -4, j_hi))


def test_memo_is_bounded():
    m = unit_model()
    for j_hi in range(0, 2000, 10):     # 200 distinct tops, the last ones not kept
        prof = scale_profile(m, j_hi)
        assert prof.j_hi == j_hi
        assert memo_weight(m) <= analytics.MEMO_SCALES
    memo = vars(m)[analytics._MEMO_ATTR]
    assert {key: weight for key, (_, weight) in memo.items()} == {("profile", -8): 1019}
    starts = 0
    for depth in range(9, 209):         # 200 distinct bottoms: a full memo starts over
        before, weight = memo_weight(m), 40 + depth + 1
        prof = scale_profile(m, 40, depth=depth)
        if before + weight > analytics.MEMO_SCALES:
            starts += 1
            assert list(memo) == [("profile", -depth)]
        else:
            assert memo_weight(m) == before + weight
        assert repr(prof) == repr(_build_profile(unit_model(), -depth, 40))
    assert starts > 1
    assert repr(scale_profile(m, 40, depth=8)) == repr(_build_profile(unit_model(), -8, 40))


def test_memo_keeps_no_exception():
    calls = [lambda: scale_profile(Parametric(GEO2, 0.0, 1.0, 0.5), 600),
             lambda: existence_report(Homogeneous.from_values(
                 GEO, {0: 1.0, -1: 0.8}, tail_down=TailRule("geometric", 0.3)))]
    for call, error in zip(calls, (OverflowError, UncertifiedComputation)):
        for _ in range(2):
            with pytest.raises(error):
                call()
    m = Homogeneous.from_values(GEO, {0: 1.0, -1: 0.8}, tail_down=TailRule("geometric", 0.3))
    for _ in range(2):
        with pytest.raises(UncertifiedComputation, match="does not decay"):
            scale_profile(m, 10)
    assert "start" not in vars(m)[analytics._MEMO_ATTR]


def test_memo_is_not_reached_by_edits_of_a_result():
    m = Parametric(GEO, -0.5, 1.0, 0.5)
    want = (repr(scale_profile(m, 30)), repr(pressure_profile(m, j_max=30)),
            log_tail_ratio(m, 3))
    prof = scale_profile(m, 30)
    prof.log_xi[5] = 99.0
    prof.log_zhat.clear()
    prof.pressure_partial[31] = 1.0
    prof.j_hi = 3
    assert (repr(scale_profile(m, 30)), repr(pressure_profile(m, j_max=30)),
            log_tail_ratio(m, 3)) == want


def test_models_without_dict_run_unmemoized():
    class Slotted:
        __slots__ = ()
        geometry = GEO
        is_homogeneous = True

        def log_activities(self, j_lo, j_hi):
            return [0.0 if j <= 0 else -math.inf for j in range(j_lo, j_hi + 1)]

        def min_active_scale(self):
            return -3

    m = Slotted()
    assert repr(scale_profile(m, 20)) == repr(scale_profile(m, 20)) == \
        repr(scale_profile(unit_model(depth=3), 20))
    assert check_condition_ii(m).holds


def test_existence_report_runs_condition_i_once():
    def calls_of(check):
        n = [0]

        def fn(b):
            n[0] += 1
            return 1.0 if b.scale <= 0 else 0.0
        check(Formula(GEO, fn))
        return n[0]

    once = calls_of(check_condition_i)
    assert once > 0 and calls_of(existence_report) == once
    verdict = check_condition_i(unit_model())
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.status = "fails"


def test_memo_shared_by_threads():
    # interleaved hits, builds and clears of a full memo on one model keep
    # the weights within the bound and every answer equal to a fresh build
    m = unit_model()
    want = {(j_hi, depth): repr(_build_profile(unit_model(), -depth, j_hi))
            for j_hi in range(0, 300, 30) for depth in (8, 40, 90, 200, 400)}
    errors = []

    def work(k):
        try:
            for key in list(want)[k::2] * 3:
                if repr(scale_profile(m, key[0], depth=key[1])) != want[key]:
                    errors.append(key)
        except Exception as exc:     # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k % 2,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert memo_weight(m) <= analytics.MEMO_SCALES
