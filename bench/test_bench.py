"""Tests of the benchmark itself: seeded inputs, output checks and tracing.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_rounds  # noqa: E402

from hiercubes import analytics, oracle, render, sampler  # noqa: E402
from hiercubes.activities import EffectiveDesign, Homogeneous, Parametric, TailRule  # noqa: E402
from hiercubes.blocks import Block, Geometry, block  # noqa: E402


class OneRound(workloads.Workload):
    """A workload whose every round is the given ops."""

    def __init__(self, ops, tmp):
        super().__init__(0, tmp)
        self.ops = ops

    def round(self, r):
        return self.ops


def inputs(wl, tmp) -> str:
    """The workload's generated inputs, with its scratch directory masked."""
    state = {k: v for k, v in vars(wl).items() if k not in ("tmp", "models_dir")}
    text = repr(sorted(state.items(), key=lambda kv: kv[0])).replace(str(tmp), "<tmp>")
    if isinstance(wl, workloads.Cli):
        text += repr(sorted((p.name, p.read_text()) for p in wl.models_dir.iterdir()))
    return text


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    a = cls(7, tmp_path / "a")
    b = cls(7, tmp_path / "b")
    c = cls(8, tmp_path / "c")
    assert inputs(a, tmp_path / "a") == inputs(b, tmp_path / "b")
    assert inputs(a, tmp_path / "a") != inputs(c, tmp_path / "c")
    for r in (0, 1):
        assert [op.kind for op in a.round(r)] == [op.kind for op in b.round(r)]


@pytest.mark.parametrize("name", ["analytics", "cli"])
def test_same_seed_gives_the_same_results(name, tmp_path):
    runs = [run_rounds(workloads.WORKLOADS[name](3, tmp_path / str(k)), None, 1)
            for k in range(2)]
    assert runs[0]["failed"] == 0
    assert runs[0]["records"] == runs[1]["records"]
    assert runs[0]["digest"] == runs[1]["digest"]


def test_every_round_has_the_same_mix(tmp_path):
    wl = workloads.Analytics(5, tmp_path)
    kinds = sorted(op.kind for op in wl.round(0))
    assert all(sorted(op.kind for op in wl.round(r)) == kinds for r in range(1, 4))


# -- wrong results are failed ops -------------------------------------------

def test_perturbed_ratio_function_fails_the_oracle_ops(tmp_path, monkeypatch):
    base = oracle.gibbs_ratio_function

    def perturbed(model, window, depth):
        ratios = base(model, window, depth)
        return lambda b: min(ratios(b) + (0.1 if b == window else 0.0), 1.0)

    wl = workloads.Oracle(1, tmp_path)
    ops = [op for op in wl.round(0) if not op.kind.startswith("mandelbrot")
           and op.kind != "d1-levels3"]
    clean = run_rounds(OneRound(ops, tmp_path), None, 1)
    assert clean["failed"] == 0
    monkeypatch.setattr(oracle, "gibbs_ratio_function", perturbed)
    out = run_rounds(OneRound(ops, tmp_path), None, 1)
    assert out["failed"] == len(ops)
    assert "topdown residual" in out["failures"][0]


def test_overlapping_configuration_fails_a_draw(tmp_path):
    wl = workloads.Sampling(1, tmp_path)
    op = wl.round(0)[0]
    good = op.run()
    child = Block(good.window.scale - 1, tuple(2 * m for m in good.window.index))
    bad = sampler.Configuration((child, good.window), good.window, good.depth, good.seed)
    out = run_rounds(OneRound([op, op._replace(run=lambda: bad)], tmp_path), None, 1)
    assert out["failed"] == 1
    assert "overlaps an occupied ancestor" in out["failures"][0]


def test_wrong_marginals_fail(tmp_path):
    wl = workloads.Analytics(2, tmp_path)
    ops = [op for op in wl.round(0) if op.kind.endswith("-marginal")]
    kinds = {op.kind for op in ops}
    assert {"parametric-d1-marginal", "explicit-d1-marginal", "effective-d2-marginal"} <= kinds
    wrong = [op._replace(run=lambda op=op: op.run() * 1.01 + 1e-9) for op in ops]
    assert run_rounds(OneRound(ops, tmp_path), None, 1)["failed"] == 0
    assert run_rounds(OneRound(wrong, tmp_path), None, 1)["failed"] == len(ops)


def test_probe_frequencies_are_checked(tmp_path):
    wl = workloads.Sampling(1, tmp_path)
    drawn = wl.classes[-1][0]
    wl.draws = [(drawn, True)] * 50      # the probe hit in every draw
    p = analytics.exact_marginal(drawn.model, [drawn.probe], None, drawn.depth)
    assert p < 0.5
    (count, message), = wl.finish()
    assert count == 50 and "probe frequency" in message


def test_nonzero_exit_and_missing_outputs_fail_cli_ops(tmp_path):
    wl = workloads.Cli(1, tmp_path)
    model = str(wl.models_dir / "missing.json")
    bad_exit = wl._op("analyze", ["--model", model], ["existence.json"])
    bad_args = wl._op("sample", ["--samples", "1"], ["configs.jsonl"])
    missing = wl._op("critical", ["--J", "1", "--alpha", "0.5"], ["nothing.json"])
    out = run_rounds(OneRound([bad_exit, bad_args, missing], tmp_path), None, 1)
    assert out["failed"] == 3
    assert "exited 2" in out["failures"][0] and "exited 2" in out["failures"][1]
    assert "missing outputs" in out["failures"][2]


# Inputs outside the workloads' families that the program gets wrong today.
# The workloads keep clear of them; these show that they would count.
KNOWN_DEFECTS = {
    # lowest common scale below the profile's first scale: KeyError
    "covariance-below-profile": lambda: (
        analytics.pair_covariance(Parametric(Geometry(1), -1.0, 1.0, 0.5),
                                  block(-4, 0), block(-4, 3), None, 4),
        workloads.Analytics._check_covariance),
    # design activities M**(d j) p cancel catastrophically at high scales
    "design-decay": lambda: (
        analytics.decay_profile(EffectiveDesign.from_values(
            Geometry(1), {-2: 0.5, -1: 2.0, 0: 1.0, 1: 0.3}, TailRule("geometric", 0.5)), 12),
        lambda rows: workloads.Analytics._check_decay(EffectiveDesign.from_values(
            Geometry(1), {-2: 0.5, -1: 2.0, 0: 1.0, 1: 0.3}, TailRule("geometric", 0.5)), rows)),
    # cov from marginals truncated at depth 4, factored_cov from the whole chain
    "covariance-shallow-depth": lambda: (
        analytics.pair_covariance(Homogeneous.from_values(
            Geometry(2), {-2: 0.075 ** 2, -1: 0.075, 0: 1.0, 1: 1.0, 2: 1.0},
            TailRule("geometric", 0.075), TailRule("geometric", 0.3)),
            block(-1, 1, 1), block(-1, 3, 1), None, 4),
        workloads.Analytics._check_covariance),
    # a table that grows downwards from scale 0 trips the start-scale search
    "homogeneous-start-scale": lambda: (
        analytics.existence_report(Homogeneous.from_values(
            Geometry(1), {0: 1.0, -1: 0.8}, tail_down=TailRule("geometric", 0.3))),
        workloads.Analytics._check_existence),
}


@pytest.mark.parametrize("name", sorted(KNOWN_DEFECTS))
def test_known_defects_count_as_failed_ops(name, tmp_path):
    def run():
        return KNOWN_DEFECTS[name]()

    op = workloads.Op(name, run, lambda res: res[1](res[0]), repr)
    out = run_rounds(OneRound([op], tmp_path), None, 1)
    assert out["failed"] == 1 and out["attempted"] == 1


# -- configuration checks ----------------------------------------------------

def test_configuration_checks():
    w = block(0, 1)
    assert checks.configuration_error([block(-1, 2), block(-2, 7)], w, 2, 2) is None
    assert "overlaps" in checks.configuration_error([block(-1, 2), block(-2, 5)], w, 2, 2)
    assert "outside the window" in checks.configuration_error([block(-1, 4)], w, 2, 2)
    assert "scale range" in checks.configuration_error([block(-3, 8)], w, 2, 2)
    assert checks.configuration_error([], w, 2, 2, covered=3) is None
    assert checks.configuration_error([block(-1, 2)], w, 2, 2, covered=3) is not None
    assert len(checks.system_blocks(block(0, 0, 0), 2, 2)) == 1 + 4 + 16


def test_blocks_visited_counts_the_uniforms_drawn(monkeypatch):
    drawn = []
    uniform = sampler._uniform

    def counting(seed, index, *tokens):
        drawn.append(tokens[0])
        return uniform(seed, index, *tokens)

    monkeypatch.setattr(sampler, "_uniform", counting)
    model = Homogeneous.constant(Geometry(2), 0.7, range(-3, 1))
    for i in range(5):
        drawn.clear()
        cfg = sampler.sample_gibbs(model, block(0, 0, 0), 3, seed=11, index=i)
        assert checks.blocks_visited(cfg.blocks, cfg.window, 3, 2) == len(drawn)
    inf = Parametric(Geometry(1), 0.2, 1.0, 0.5)
    for i in range(20):
        drawn.clear()
        cfg = sampler.sample_gibbs_infinite(inf, block(1, 0), 1, seed=11, index=i)
        visited = checks.blocks_visited(cfg.blocks, cfg.window, 1, 2, cfg.covered_by_ancestor)
        assert visited + 1 == len(drawn)      # plus the chain uniform


# -- tracing -----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_results_equal_untraced(name, tmp_path):
    plain = run_rounds(workloads.WORKLOADS[name](4, tmp_path / "plain"), None, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(workloads.WORKLOADS[name](4, tmp_path / "traced"), None, 1, tracer)
    finally:
        tracer.uninstall()
    assert plain["failed"] == traced["failed"] == 0
    assert plain["records"] == traced["records"]
    layers = tracer.layer_metrics()
    assert tracer.absent == [] and tracer.counts.get("trace.hook_errors", 0) == 0
    assert all(math.isfinite(v) and v >= 0 for v in layers.values())
    layer = {"sampling": "sampler", "oracle": "oracle", "analytics": "analytics",
             "cli": "cli"}[name]
    assert tracer.layer_self[layer] > 0
    if name == "sampling":
        assert layers["sampler.draws"] == len(traced["records"])
        assert layers["analytics.rho.scale_lane.self_s"] > 0
        assert layers["analytics.rho.block_lane.self_s"] > 0
    if name == "analytics":
        assert layers["analytics.critical_mu.bisection_steps"] > 0
        assert layers["analytics.check_condition_ii.repeat_share"] > 0
    assert tracer.spans and all(t0 <= t1 for _, _, t0, t1, _ in tracer.spans)


def test_uninstall_restores_the_package(tmp_path):
    from hiercubes import blocks, cli
    originals = (blocks.children, analytics.children, analytics.TruncatedSystem.rho,
                 cli.cmd_sample)
    tracer = Tracer()
    tracer.install()
    assert analytics.children is not originals[1]
    assert analytics.children is oracle.children
    tracer.uninstall()
    assert (blocks.children, analytics.children, analytics.TruncatedSystem.rho,
            cli.cmd_sample) == originals


def test_removed_function_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(render, "render_svg")
    tracer = Tracer()
    tracer.install()
    try:
        wl = workloads.Cli(2, tmp_path)
        out = run_rounds(OneRound([op for op in wl.round(1) if op.kind == "sample"], tmp_path),
                         None, 1, tracer)
    finally:
        tracer.uninstall()
    assert out["failed"] == 0
    assert "render.render_svg" in tracer.absent
    assert tracer.layer_metrics()["render.render_svg.self_s"] == 0


def test_refusals_and_errors_are_counted_once():
    refused = Parametric(Geometry(1), 2.0, 1.0, 0.5)     # beyond mu_c
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        with pytest.raises(analytics.UncertifiedComputation):
            sampler.sample_gibbs_infinite(refused, block(0, 0), 1, seed=1)
        with pytest.raises(KeyError):
            analytics.pair_covariance(Parametric(Geometry(1), -1.0, 1.0, 0.5),
                                      block(-4, 0), block(-4, 3), None, 4)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["analytics.refusals"] == 1
    assert tracer.layer_metrics()["analytics.errors"] == 1


def test_spans_are_written(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        analytics.critical_mu(1.0, 0.5, 1e-6)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    spans = [r for r in rows if "id" in r]
    top = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in top] == ["analytics.critical_mu"]
    checks_ii = [s for s in spans if s["name"] == "analytics.check_condition_ii"]
    assert checks_ii and all(s["parent"] == top[0]["id"] for s in checks_ii)
    assert any(r.get("aggregate") == "logreal.log1p_exp" for r in rows)
