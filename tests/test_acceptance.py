"""Acceptance gate: the ten end-to-end correctness criteria.

Each test pins one externally checkable guarantee of the library at its
stated tolerance, using the exact enumeration oracle, closed forms, or
calibrated statistics as the reference.
"""

import json
import math
import time
from collections import Counter
from itertools import starmap

import pytest
from scipy.stats import chi2

from hiercubes.blocks import Block, Geometry, block
from hiercubes.activities import (EffectiveDesign, Explicit, Homogeneous,
                                  Parametric, TailRule)
from hiercubes.analytics import (TruncatedSystem, condensation_table,
                                 critical_mu, decay_profile, exact_marginal,
                                 fragmentation_table, pair_covariance,
                                 partition_function, pressure_profile,
                                 scale_profile, series_summand_bounds)
from hiercubes.cli import main
from hiercubes.oracle import (enumerate_system, gibbs_ratio_function,
                              mandelbrot_gnz_report, run_validation_suite,
                              verify_gnz)
from hiercubes.sampler import (_sample_topdown, estimate,
                               sample_bernoulli_max)

from test_sampler import estimate_in_splits

GEO = Geometry(1)
GEO2 = Geometry(2)
W = block(0, 0)


def unit_model(geo=GEO, depth=8):
    return Homogeneous.constant(geo, 1.0, range(-depth, 1))


def test_criterion_1_enumeration_oracle():
    t0 = time.time()
    m = unit_model()
    xi = partition_function(m, W, 2)
    assert math.exp(xi.log) == pytest.approx(26.0, abs=1e-12 * 26)

    quarter = block(-2, 0)
    other = block(-2, 2)
    assert exact_marginal(m, [quarter], W, 2) == pytest.approx(5 / 13, abs=1e-12)
    assert exact_marginal(m, [quarter, other], W, 2) == \
        pytest.approx(2 / 13, abs=1e-12)

    cov = pair_covariance(m, quarter, other, W, 2)
    # 2/13 - (5/13)^2 = 1/169
    assert cov["cov"] == pytest.approx(1 / 169, abs=1e-12)
    assert cov["factored_cov"] == pytest.approx(1 / 169, abs=1e-12)

    # brute-force enumeration confirms every number independently
    dist = enumerate_system(m, W, 2)
    assert len(dist.support) == 26
    assert dist.log_partition == pytest.approx(math.log(26.0), abs=1e-12)
    assert dist.prob_superset([quarter]) == pytest.approx(5 / 13, abs=1e-12)
    assert dist.prob_superset([quarter, other]) == pytest.approx(2 / 13, abs=1e-12)
    assert time.time() - t0 < 1.0


def test_criterion_2_verifier_matrix():
    t0 = time.time()
    report = run_validation_suite(tol=1e-12)
    assert report["passed"]
    regular = [s for s in report["systems"]
               if "max_residual" in s and "expected" not in s]
    assert len(regular) >= 10
    assert all(s["max_residual"] < 1e-12 for s in regular)
    assert time.time() - t0 < 30.0


def test_criterion_3_sampler_chi_square():
    t0 = time.time()
    m = unit_model()
    dist = enumerate_system(m, W, 2)
    n = 100000
    crit = chi2.ppf(1 - 1e-3, len(dist.support) - 1)
    expected = {cfg: n * p for cfg, p in zip(dist.support, dist.probs)}

    ratios = TruncatedSystem(m, W, 2).level_rhos
    h_top = Counter(frozenset(starmap(Block, _sample_topdown(ratios, GEO, W, 2, 1001, i)))
                    for i in range(n))
    stat_top = sum((h_top.get(cfg, 0) - e) ** 2 / e
                   for cfg, e in expected.items())
    assert stat_top < crit

    rho = gibbs_ratio_function(m, W, 2)
    ratios = {b: rho(b) for b in dist.blocks()}
    h_bm = Counter(
        frozenset(sample_bernoulli_max(ratios, GEO, W, 2, seed=1002,
                                       index=i).blocks)
        for i in range(n))
    stat_bm = sum((h_bm.get(cfg, 0) - e) ** 2 / e
                  for cfg, e in expected.items())
    assert stat_bm < crit

    # the two samplers agree with each other under the same test
    stat_cross = sum((h_top.get(cfg, 0) - h_bm.get(cfg, 0)) ** 2
                     / (h_top.get(cfg, 0) + h_bm.get(cfg, 0))
                     for cfg in expected
                     if h_top.get(cfg, 0) + h_bm.get(cfg, 0) > 0)
    assert stat_cross < chi2.ppf(1 - 1e-3, len(dist.support) - 1)
    assert time.time() - t0 < 60.0


def test_criterion_4_mandelbrot_violation():
    residuals = [mandelbrot_gnz_report(0.5, GEO, W, n)["top_block_residual"]
                 for n in (1, 2, 3)]
    assert residuals[1] > 0.1
    assert residuals[0] < residuals[1] < residuals[2] < 0.5
    # while every Gibbs fixture satisfies the balance to machine precision
    for model, geo, w in [(unit_model(), GEO, W),
                          (Homogeneous.from_values(GEO, {0: 1.0},
                           tail_down=TailRule("geometric", 0.5)), GEO, W),
                          (unit_model(GEO2), GEO2, block(0, 0, 0))]:
        depth = 2 if geo.d == 1 else 1
        rep = verify_gnz(enumerate_system(model, w, depth), model)
        assert rep["max_residual"] < 1e-12


def test_criterion_5_fragmentation_limits():
    m = Homogeneous.constant(GEO, 1.0, range(-12, 1))
    rows = fragmentation_table(m, W, list(range(0, 6)))
    p_top = [exact_marginal(m, [W], W, n) for n in range(0, 6)]
    assert p_top[:4] == pytest.approx([1 / 2, 1 / 5, 1 / 26, 1 / 677],
                                      abs=1e-12)
    assert p_top[5] < 1e-6
    assert rows[5]["p_subtree_hit"] > 1 - 1e-6


def test_criterion_6_condensation_limits():
    m = EffectiveDesign.from_values(GEO, {0: 1.0},
                                    zhat_tail_up=TailRule("geometric", 1.0))
    rows = condensation_table(m, W, [block(j, 0) for j in range(0, 20)])
    for r in rows:
        a = r["chain_length"]
        assert 1 <= a <= 20
        assert r["p_chain_hit"] == pytest.approx(1.0 - 2.0 ** -a, abs=1e-12)
    assert [r["chain_length"] for r in rows] == list(range(1, 21))


def test_criterion_7_decay_rates():
    t0 = time.time()
    m = Parametric(GEO, mu=-1.0, J=1.0, alpha=0.5)
    prof = pressure_profile(m)
    gap = prof.theta_star - prof.pressure
    rows = decay_profile(m, 20)
    scaled = [r["scaled_log_R"] for r in rows]
    tail = scaled[5:]
    assert all(tail[k + 1] <= tail[k] + 1e-15 for k in range(len(tail) - 1)) \
        or all(tail[k + 1] >= tail[k] - 1e-15 for k in range(len(tail) - 1))
    assert abs(scaled[20] - gap) < 1e-3
    # sandwich: zhat_j <= R_j <= (1 + R_j) * sum_{k>=j} zhat_k
    sp = scale_profile(m, 60)
    for r in rows:
        j, log_R = r["j"], r["log_R"]
        assert sp.log_zhat[j] <= log_R + 1e-12
        log_sum = None
        for k in range(j, sp.j_hi + 1):
            lz = sp.log_zhat[k]
            if lz > -math.inf:
                log_sum = lz if log_sum is None else \
                    max(log_sum, lz) + math.log1p(math.exp(-abs(log_sum - lz)))
        upper = math.log1p(math.exp(log_R) if log_R < 700 else math.inf) + log_sum
        assert log_R <= upper + 1e-12
    assert time.time() - t0 < 5.0


def test_criterion_8_parametric_residual_at_mu_c():
    # J = 2, alpha = 0.5 sits in the regime where the measure survives at
    # the critical point itself.  The bisection midpoint can land a hair on
    # the supercritical side, so the profile is evaluated at mu_c - tol,
    # which the bracket certifies to be subcritical.
    tol = 1e-6
    out = critical_mu(2.0, 0.5, tol=tol)
    assert out["gibbs_at_mu_c"] is True
    assert out["trace"]
    m = Parametric(GEO, mu=out["mu_c"] - tol, J=2.0, alpha=0.5)
    rows = decay_profile(m, 20)
    res = [abs(r["residual"]) for r in rows]
    tail = res[10:]
    assert all(tail[k + 1] <= tail[k] + 1e-15 for k in range(len(tail) - 1))
    assert res[20] < 1e-2


def test_criterion_9_series_sandwich():
    # reference row: j = 0, r = 1, b = 2 against direct summation
    ref = series_summand_bounds(1.0, 2.0, 0)
    direct = sum(math.exp(-2.0 ** k) for k in range(0, 60))
    assert ref["sum"] == pytest.approx(direct, abs=1e-12)
    assert ref["lower"] <= ref["sum"] <= ref["upper"]
    # 100-point grid
    grid = [(r, b, j) for r in (0.25, 0.5, 1.0, 2.0, 4.0)
            for b in (1.25, 1.5, 2.0, 3.0) for j in range(0, 5)]
    assert len(grid) == 100
    for r, b, j in grid:
        out = series_summand_bounds(r, b, j)
        assert out["log_lower"] <= out["log_sum"] <= out["log_upper"]


def test_criterion_10_reproducibility(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(
        {"kind": "homogeneous", "d": 1, "M": 2,
         "table": {str(j): 1.0 for j in range(-8, 1)}}))
    args = ["sample", "--model", str(model_path), "--window", "0:(0)",
            "--depth", "3", "--samples", "50", "--seed", "99",
            "--format", "csv,json"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("configs.jsonl", "configs.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # Monte Carlo batches over any split of the sample indices merge to the
    # serial batch, so the aggregate is worker-count independent
    m = unit_model()
    probes = {"q": [block(-2, 3)]}
    serial = estimate(m, W, 2, 777, probes, seed=5)
    for splits in (2, 4, 8):
        split = estimate_in_splits(m, W, 2, 777, probes, 5, splits)
        assert split.probe_hits == serial.probe_hits
        assert split.empty_count == serial.empty_count
