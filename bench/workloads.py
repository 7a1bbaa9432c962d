"""The four seeded workloads of the hiercubes benchmark.

Every workload is a closed loop with one caller: the next op starts when the
previous one returns.  Constructing a workload is its set-up: it builds every
model of the run from the seed (and, for `cli`, writes the model files).  The
run then executes rounds.  A round is a fixed mix of ops whose parameters are
drawn from the seed, so every whole round has the same composition and runs of
different seeds cost about the same.  Activities are drawn by stratified
(one draw per stratum) log-uniform sampling for the same reason.

An op is four callables: `run` calls the program and is the only timed part;
`check` returns None when the result is right and a message otherwise;
`record` gives a canonical text of the result, hashed into the run's digest.
`finish` runs the checks that need the whole run, such as the sampler's probe
frequencies, and returns (ops, message) for each failure.

The families below keep every op inside the program's documented domain, so a
correct program fails no op.  In particular probe blocks lie at scales where
the model is active: ROADMAP item 4 lists the known failures outside it, and
the benchmark's own tests show that such an input counts as a failed op.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from hiercubes import analytics, cli, oracle, sampler
from hiercubes.activities import (EffectiveDesign, Explicit, Homogeneous,
                                  Parametric, TailRule)
from hiercubes.blocks import Block, Geometry, format_block

import checks

TOL = 1e-12                 # the program's verifier tolerance
Z_BOUND = 5.0               # probe frequencies: |z| above this fails
CRITICAL_TOL = 1e-12
# A draw's cost grows steeply with the activity (the occupied blocks are
# validated pairwise), so activities that set the cost of a sampling op stay
# within 5% of their stratum's centre, and runs of different seeds cost the same.
COST_JITTER = 0.05
CRITICAL_BRACKET = (-50.0, 50.0)


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    record: Callable[[object], str]


def seeded(seed: int, *tags) -> random.Random:
    """A generator that depends only on the seed and the tags."""
    return random.Random(":".join(["hiercubes-bench", str(seed), *map(str, tags)]))


def stratified_loguniform(rng: random.Random, n: int, lo: float, hi: float,
                          jitter: float | None = None) -> list[float]:
    """n values, one log-uniform draw in each of n equal log-strata, shuffled.

    With `jitter`, each value is instead its stratum's centre times
    exp(u), u uniform in [-jitter, jitter].
    """
    span = math.log(hi / lo)
    if jitter is None:
        values = [lo * math.exp(span * (k + rng.random()) / n) for k in range(n)]
    else:
        values = [lo * math.exp(span * (k + 0.5) / n + rng.uniform(-jitter, jitter))
                  for k in range(n)]
    rng.shuffle(values)
    return values


def _block(scale: int, index) -> Block:
    return Block(scale, tuple(index))


def _explicit(rng: random.Random, geo: Geometry, window: Block, depth: int) -> Explicit:
    """Per-block activities on every block of the truncated system."""
    blocks = checks.system_blocks(window, depth, geo.M)
    values = stratified_loguniform(rng, len(blocks), 0.1, 3.0)
    return Explicit.from_values(geo, {_block(s, i): v for (s, i), v in zip(blocks, values)})


def _rel_close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


class Workload:
    name = ""
    min_ops = 200           # at least 10 samples beyond p95

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.outputs = {"oracle.max_residual": 0.0, "cli.output_bytes": 0}

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> list[tuple[int, str]]:
        return []


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class _Drawn(NamedTuple):
    group: str
    model: object
    window: Block
    depth: int
    probe: Block
    infinite: bool
    draws: int              # consecutive draws per round


class Sampling(Workload):
    """Exact draws: `sample_gibbs` on finite systems and
    `sample_gibbs_infinite` on certified parametric models."""

    name = "sampling"
    # (dimension, levels below the window, models, draws per round of the
    # most active model): homogeneous finite classes, one stratum of activity
    # per model.  Expensive classes get fewer strata, so a run holds many
    # rounds and its tail percentiles many samples.  The most active 8-level
    # d=1 model is drawn 5 times, so the 95th percentile falls inside a block
    # of like draws rather than in a gap between classes of different cost.
    HOMOGENEOUS = [(1, 6, 8, 1), (1, 7, 8, 1), (1, 8, 4, 5), (1, 9, 2, 1),
                   (2, 3, 8, 1), (2, 4, 4, 1)]
    EXPLICIT = 8            # d = 2 explicit models with 3 levels, per-block activities
    INFINITE_MODELS = 4
    INFINITE_DRAWS = 5      # consecutive draws of one infinite model per round

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        rng = seeded(seed, self.name, "models")
        self.draw_seed = rng.randrange(2**63)
        self.classes = []
        for d, levels, count, top_draws in self.HOMOGENEOUS:
            zs = sorted(stratified_loguniform(rng, count, 0.1, 3.0, COST_JITTER))
            cls = []
            for k, z in enumerate(zs):
                window, depth = self._window(rng, d, levels)
                model = Homogeneous.from_values(
                    Geometry(d), {j: z for j in range(-depth, window.scale + 1)})
                draws = top_draws if k == count - 1 else 1
                cls.append(self._drawn(rng, f"homogeneous-d{d}", model, window, depth, draws))
            self.classes.append(cls)
        cls = []
        for _ in range(self.EXPLICIT):
            window, depth = self._window(rng, 2, 3)
            model = _explicit(rng, Geometry(2), window, depth)
            cls.append(self._drawn(rng, "explicit-d2", model, window, depth, 1))
        self.classes.append(cls)
        cls = []
        for k in range(self.INFINITE_MODELS):
            d = 1 + k % 2
            model = Parametric(Geometry(d), rng.uniform(-1.0, 0.25),
                               rng.uniform(0.8, 1.5), rng.uniform(0.45, 0.6))
            window = _block(rng.randint(0, 1), [rng.randrange(4) for _ in range(d)])
            depth = rng.randint(0, 1)
            probe_scale = rng.randint(0, window.scale)   # parametric: active at j >= 0
            probe = self._inside(rng, window, probe_scale)
            cls.append(_Drawn("infinite", model, window, depth, probe, True,
                              self.INFINITE_DRAWS))
        self.classes.append(cls)
        self.draws = []       # (drawn, probe hit) of every checked draw

    @staticmethod
    def _window(rng, d, levels):
        scale = rng.randint(0, min(2, levels))
        return _block(scale, [rng.randrange(4) for _ in range(d)]), levels - scale

    @staticmethod
    def _inside(rng, window, scale):
        shift = 2 ** (window.scale - scale)
        return _block(scale, [m * shift + rng.randrange(shift) for m in window.index])

    def _drawn(self, rng, group, model, window, depth, draws):
        probe = self._inside(rng, window, rng.randint(-depth, window.scale))
        return _Drawn(group, model, window, depth, probe, False, draws)

    def round(self, r):
        ops = []
        for k in range(max(map(len, self.classes))):
            for drawn in (cls[k] for cls in self.classes if k < len(cls)):
                ops += [self._op(drawn, r * drawn.draws + i) for i in range(drawn.draws)]
        return ops

    def _op(self, drawn: _Drawn, index: int) -> Op:
        kind = drawn.group if drawn.infinite else f"{drawn.group}-levels{drawn.window.scale + drawn.depth}"

        def run():
            # looked up at call time, so the traced run sees the wrapped function
            f = sampler.sample_gibbs_infinite if drawn.infinite else sampler.sample_gibbs
            return f(drawn.model, drawn.window, drawn.depth, seed=self.draw_seed, index=index)

        def check(cfg):
            if cfg.window != drawn.window or cfg.depth != drawn.depth:
                return "draw reports another window or depth"
            err = checks.configuration_error(cfg.blocks, drawn.window, drawn.depth,
                                             drawn.model.geometry.M, cfg.covered_by_ancestor)
            if err is None:
                self.draws.append((drawn, drawn.probe in cfg.blocks))
            return err

        return Op(kind, run, check, _config_record)

    def finish(self):
        expected = {}
        tally = {}            # group -> [draws, hits, sum p, sum p(1-p)]
        for drawn, hit in self.draws:
            key = id(drawn)
            if key not in expected:
                expected[key] = analytics.exact_marginal(
                    drawn.model, [drawn.probe], None if drawn.infinite else drawn.window,
                    drawn.depth)
            p = expected[key]
            t = tally.setdefault(drawn.group, [0, 0, 0.0, 0.0])
            t[0] += 1
            t[1] += hit
            t[2] += p
            t[3] += p * (1 - p)
        failures = []
        for group, (n, hits, mean, var) in sorted(tally.items()):
            if var > 0:
                z = (hits - mean) / math.sqrt(var)
                if abs(z) > Z_BOUND:
                    failures.append((n, f"{group}: probe frequency z = {z:.2f} "
                                        f"({hits} hits, {mean:.2f} expected in {n} draws)"))
            elif abs(hits - mean) > 1e-9:
                failures.append((n, f"{group}: {hits} probe hits where {mean} are certain"))
        return failures


def _config_record(cfg) -> str:
    return f"{cfg.covered_by_ancestor}|" + " ".join(checks.block_key(b) for b in cfg.blocks)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

class _System(NamedTuple):
    model: object
    window: Block
    depth: int


class Oracle(Workload):
    """Exhaustive checks of small systems, plus `mandelbrot_gnz_report`."""

    name = "oracle"
    VARIANTS = 4            # systems per slot; round r uses variant r mod 4
    # (label, dimension, levels below the window, ops per round)
    SLOTS = [("d1-levels3", 1, 3, 1), ("d1-levels2", 1, 2, 3),
             ("d1-levels1", 1, 1, 3), ("d2-levels1", 2, 1, 3)]
    MANDELBROT = [(1, 1), (1, 2), (2, 1)]   # (dimension, levels)

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        rng = seeded(seed, self.name, "models")
        self.systems = {}
        for label, d, levels, count in self.SLOTS:
            # half explicit, half homogeneous, in every seed: the explicit
            # activity is a dict lookup and costs differently
            self.systems[label] = [self._system(rng, d, levels, k % 2 == 1)
                                   for k in range(self.VARIANTS * count)]
        self.mandelbrot = [[(rng.uniform(0.3, 0.8), Geometry(d),
                             _block(0, [rng.randrange(4) for _ in range(d)]), levels)
                            for _ in range(self.VARIANTS)]
                           for d, levels in self.MANDELBROT]

    @staticmethod
    def _system(rng, d, levels, explicit):
        scale = rng.randint(-1, levels)
        depth = levels - scale
        window = _block(scale, [rng.randrange(8) for _ in range(d)])
        geo = Geometry(d)
        if explicit:
            model = _explicit(rng, geo, window, depth)
        else:
            values = stratified_loguniform(rng, levels + 1, 0.1, 3.0)
            model = Homogeneous.from_values(geo, dict(zip(range(-depth, scale + 1), values)))
        return _System(model, window, depth)

    def round(self, r):
        v = r % self.VARIANTS
        ops = []
        for label, _, _, count in self.SLOTS:
            for k in range(count):
                ops.append(self._exhaustive(label, self.systems[label][v * count + k]))
        for (d, levels), variants in zip(self.MANDELBROT, self.mandelbrot):
            ops.append(self._mandelbrot(f"mandelbrot-d{d}-levels{levels}", *variants[v]))
        return ops

    def _exhaustive(self, label, sys_: _System) -> Op:
        def run():
            dist = oracle.enumerate_system(sys_.model, sys_.window, sys_.depth)
            ratios = oracle.gibbs_ratio_function(sys_.model, sys_.window, sys_.depth)
            reports = [oracle.verify_gnz(dist, sys_.model),
                       oracle.verify_topdown(dist, ratios)]
            if len(dist.support) <= 5000:    # the rule of run_validation_suite
                reports.append(oracle.verify_hierarchical_formula(dist, ratios))
            return dist, reports

        def check(result):
            dist, reports = result
            for rep in reports:
                self.outputs["oracle.max_residual"] = max(
                    self.outputs["oracle.max_residual"], rep["max_residual"])
                if not rep["max_residual"] < TOL:
                    return f"{rep['check']} residual {rep['max_residual']:.3g}"
            want = oracle.support_count(sys_.model.geometry, sys_.window, sys_.depth)
            if len(dist.support) != want:
                return f"support has {len(dist.support)} configurations, expected {want}"
            log_xi = analytics.partition_function(sys_.model, sys_.window, sys_.depth).log
            if not _rel_close(dist.log_partition, log_xi, TOL, TOL):
                return f"log partition {dist.log_partition!r} vs analytics {log_xi!r}"
            return None

        def record(result):
            dist, reports = result
            return json.dumps([len(dist.support), repr(dist.log_partition),
                               [repr(r["max_residual"]) for r in reports]])

        return Op(label, run, check, record)

    def _mandelbrot(self, kind, p, geo, window, levels) -> Op:
        def run():
            return oracle.mandelbrot_gnz_report(p, geo, window, levels - window.scale)

        def check(rep):
            if not rep["top_block_residual"] >= 0.1:
                return f"fractal percolation violation not detected: {rep['top_block_residual']}"
            return None

        return Op(kind, run, check, lambda rep: repr(rep["top_block_residual"]))


# ---------------------------------------------------------------------------
# analytics
# ---------------------------------------------------------------------------

class _Group(NamedTuple):
    kind: str
    model: object
    lowest_probe: int       # probes lie at scales >= this, where z is active
    depth: int              # downward truncation of infinite-volume queries


class Analytics(Workload):
    """Analytics queries, grouped by model and interleaved with `critical_mu`."""

    name = "analytics"
    DECAY_JMAX = 12
    PRESSURE_JMAX = 64
    PROBE_SCALES = 5

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        rng = seeded(seed, self.name, "models")
        self.groups = []
        for d in (1, 1, 2, 2):
            model = Parametric(Geometry(d), rng.uniform(-1.0, 0.25),
                               rng.uniform(0.8, 1.5), rng.uniform(0.45, 0.6))
            self.groups.append(self._group(f"parametric-d{d}", model, 0))
        for d in (1, 2):
            geo = Geometry(d)
            # the table continues the geometric down-tail below scale 0, so the
            # per-scale pressure contributions decay downwards from scale 0
            down = rng.uniform(0.25, 0.35) / geo.branching
            z0 = rng.uniform(0.3, 3.0)
            table = {j: z0 * down ** -j for j in range(-2, 1)}
            table.update({j: rng.uniform(0.1, 3.0) for j in (1, 2)})
            model = Homogeneous.from_values(geo, table, TailRule("geometric", down),
                                            TailRule("geometric", rng.uniform(0.05, 0.5)))
            self.groups.append(self._group(f"homogeneous-d{d}", model, -2))
        self.designs = []
        for d in (1, 2):
            table = dict(zip(range(-2, 2), stratified_loguniform(rng, 4, 0.1, 3.0)))
            self.designs.append(EffectiveDesign.from_values(
                Geometry(d), table, TailRule("geometric", rng.uniform(0.2, 0.8))))
        self.explicit = []
        for d, depth in [(1, 9)] * 6 + [(2, 4)] * 2:
            window = _block(0, [rng.randrange(4) for _ in range(d)])
            model = _explicit(rng, Geometry(d), window, depth)
            self.explicit.append((f"explicit-d{d}", model, window, depth))
        self.critical = [(rng.uniform(0.7, 2.0), rng.uniform(0.4, 0.8), Geometry(1 + k % 2))
                         for k in range(4)]

    @staticmethod
    def _group(kind, model, lowest_probe):
        # infinite-volume queries truncate where the scale profile itself
        # starts, so their pair covariance and its factorised form use the
        # same scales; a shallower depth makes the two disagree
        return _Group(kind, model, lowest_probe,
                      -analytics.scale_profile(model, lowest_probe).j_lo)

    def round(self, r):
        rng = seeded(self.seed, self.name, "round", r)
        ops = []
        for i, group in enumerate(self.groups):
            ops += self._scalewise_ops(rng, group)
            if i % 3 == 2:
                ops.append(self._critical(*self.critical[(r + i // 3) % len(self.critical)]))
        for model in self.designs:
            ops += self._design_ops(rng, model)
        for kind, model, window, depth in self.explicit:
            ops += self._explicit_ops(rng, kind, model, window, depth)
        return ops

    # -- scale-wise models, infinite volume --------------------------------

    def _probe(self, rng, group, d):
        scale = group.lowest_probe + rng.randrange(self.PROBE_SCALES)
        return _block(scale, [rng.randrange(8) for _ in range(d)])

    def _scalewise_ops(self, rng, group):
        m, d, depth = group.model, group.model.geometry.d, group.depth
        b1, b2 = self._probe(rng, group, d), self._probe(rng, group, d)
        pairs = []
        for _ in range(2):
            a = self._probe(rng, group, d)
            pairs.append((a, _block(a.scale, [a.index[0] + 1 + rng.randrange(3)] + list(a.index[1:]))))
        k = group.kind
        return [
            Op(f"{k}-existence", lambda: analytics.existence_report(m),
               self._check_existence, lambda rep: json.dumps(rep.to_json_obj(), sort_keys=True)),
            Op(f"{k}-pressure", lambda: analytics.pressure_profile(m, j_max=self.PRESSURE_JMAX),
               lambda prof: self._check_pressure(m, prof),
               lambda prof: repr((prof.pressure, prof.theta_star))),
            Op(f"{k}-decay", lambda: analytics.decay_profile(m, self.DECAY_JMAX),
               lambda rows: self._check_decay(m, rows),
               lambda rows: repr([row["log_R"] for row in rows])),
            *[Op(f"{k}-marginal", lambda b=b: analytics.exact_marginal(m, [b], None, depth),
                 lambda p, b=b: self._check_marginal(m, b, depth, p), repr) for b in (b1, b2)],
            *[Op(f"{k}-covariance",
                 lambda a=a, c=c: analytics.pair_covariance(m, a, c, None, depth),
                 self._check_covariance, lambda cv: repr((cv["cov"], cv["factored_cov"])))
              for a, c in pairs],
        ]

    @staticmethod
    def _check_existence(rep):
        # every family above is built inside the unique-Gibbs regime
        if rep.verdict != "unique Gibbs measure":
            return f"verdict {rep.verdict!r}"
        return None

    @staticmethod
    def _check_pressure(model, prof):
        # M**(d j) p_j is log Xi of a scale-j block, which the truncated
        # system computes by its own recursion from the same lowest scale
        geo = model.geometry
        j = min(3, max(prof.partial))
        j_lo = min(prof.partial)
        window = _block(j, [0] * geo.d)
        log_xi = analytics.TruncatedSystem(model, window, -j_lo).log_xi(window)
        scaled = prof.partial[j] * geo.M ** (geo.d * j)
        if not _rel_close(scaled, log_xi, 1e-10, 1e-12):
            return f"M^(dj) p_{j} = {scaled!r} but log Xi = {log_xi!r}"
        return None

    @staticmethod
    def _check_decay(model, rows):
        logs = [row["log_R"] for row in rows]
        if any(b > a + 1e-12 * abs(a) for a, b in zip(logs, logs[1:]) if b > -math.inf):
            return "log R_j increases with j"
        # R_j is the covariance ratio of two sibling blocks below scale j,
        # from exact marginals at the profile's own lowest scale
        geo = model.geometry
        depth = -analytics.scale_profile(model, 1).j_lo
        for row in rows:
            j = row["j"]
            if j < 1 or row["log_R"] < math.log(1e-4):
                continue
            b1 = _block(j - 1, [0] * geo.d)
            b2 = _block(j - 1, [1] + [0] * (geo.d - 1))
            p1 = analytics.exact_marginal(model, [b1], None, depth)
            p2 = analytics.exact_marginal(model, [b2], None, depth)
            joint = analytics.exact_marginal(model, [b1, b2], None, depth)
            if p1 * p2 == 0:
                continue
            ratio = joint / (p1 * p2) - 1
            if not _rel_close(ratio, math.exp(row["log_R"]), 1e-8):
                return f"R_{j} = {math.exp(row['log_R'])!r} but covariance ratio {ratio!r}"
            break
        return None

    @staticmethod
    def _check_marginal(model, b, depth, p):
        # P(b) = P_W(b) * P(W) / P_W(W) with W the parent block: inside W the
        # infinite-volume law, given no occupied ancestor of W, is W's own law
        w = _block(b.scale + 1, [m // 2 for m in b.index])
        p_w = analytics.exact_marginal(model, [b], w, depth)
        p_ww = analytics.exact_marginal(model, [w], w, depth)
        p_inf_w = analytics.exact_marginal(model, [w], None, depth)
        if not 0.0 <= p <= 1.0:
            return f"marginal {p!r} outside [0, 1]"
        if p_ww > 1e-250 and p_inf_w > 1e-250:
            want = p_w * p_inf_w / p_ww
            if not _rel_close(p, want, 1e-9, 1e-300):
                return f"marginal {p!r} but window identity gives {want!r}"
        elif p > p_w * (1 + 1e-12):
            return f"marginal {p!r} exceeds the window marginal {p_w!r}"
        return None

    @staticmethod
    def _check_covariance(cv):
        if not abs(cv["cov"] - cv["factored_cov"]) <= TOL + 1e-9 * cv["p1"] * cv["p2"]:
            return f"cov {cv['cov']!r} vs factored {cv['factored_cov']!r}"
        return None

    # -- effective designs, finite windows ---------------------------------

    def _design_ops(self, rng, model):
        # infinite-volume queries on a design reach scale ~80, where its
        # activity M**(d j) p cancels catastrophically; they are left out
        geo = model.geometry
        kind = f"effective-d{geo.d}"
        lowest = -min(model.log_zhat_table)
        window = _block(rng.randint(2, 6), [rng.randrange(8) for _ in range(geo.d)])
        small = 3 if geo.d == 1 else 1
        ops = [Op(f"{kind}-existence", lambda: analytics.existence_report(model),
                  self._check_existence, lambda rep: json.dumps(rep.to_json_obj(), sort_keys=True)),
               Op(f"{kind}-pressure", lambda: analytics.pressure_profile(model, j_max=self.PRESSURE_JMAX),
                  lambda prof: self._check_pressure(model, prof),
                  lambda prof: repr((prof.pressure, prof.theta_star))),
               Op(f"{kind}-partition", lambda: analytics.partition_function(model, window, lowest),
                  lambda xi: self._check_scalewise_partition(model, window, lowest, xi),
                  lambda xi: repr(xi.log))]
        subs = [_block(small - lowest, [rng.randrange(16) for _ in range(geo.d)])
                for _ in range(2)]
        return ops + self._windowed_ops(rng, kind, model, subs, lowest)

    @staticmethod
    def _check_scalewise_partition(model, window, depth, xi):
        geo = model.geometry
        prof = analytics.scale_profile(model, window.scale, depth=depth)
        want = prof.pressure_partial[window.scale] * geo.M ** (geo.d * window.scale)
        if not _rel_close(xi.log, want, 1e-10, 1e-12):
            return f"log Xi {xi.log!r} but M^(dj) p_j = {want!r}"
        return None

    def _windowed_ops(self, rng, kind, model, subs, depth):
        """Marginals of two blocks on small windows, which the checks enumerate."""
        ops = []
        for sub in subs:
            blocks = checks.system_blocks(sub, depth, 2)
            pick = [_block(*blocks[rng.randrange(len(blocks))]) for _ in range(2)]
            ops.append(Op(f"{kind}-marginal",
                          lambda sub=sub, pick=pick: analytics.exact_marginal(model, pick, sub, depth),
                          lambda p, sub=sub, pick=pick: self._check_windowed(model, sub, depth, pick, p),
                          repr))
        return ops

    # -- explicit models, block lane ----------------------------------------

    def _explicit_ops(self, rng, kind, model, window, depth):
        geo = model.geometry
        small = 3 if geo.d == 1 else 1     # levels of the enumerated sub-window
        ops = [Op(f"{kind}-existence", lambda: analytics.existence_report(model),
                  self._check_existence, lambda rep: rep.verdict),
               Op(f"{kind}-partition", lambda: analytics.partition_function(model, window, depth),
                  lambda xi: self._check_partition(model, window, depth, xi),
                  lambda xi: repr(xi.log))]
        subs = [Sampling._inside(rng, window, small - depth)]
        return ops + self._windowed_ops(rng, kind, model, subs, depth)

    @staticmethod
    def _check_partition(model, window, depth, xi):
        # one step of the defining recursion, from the children's own systems
        kids = checks.system_blocks(window, depth, model.geometry.M)[1:1 + model.geometry.branching]
        below = sum(analytics.partition_function(model, _block(*c), depth).log for c in kids)
        lz = model.log_activity(window)
        want = max(lz, below) + math.log1p(math.exp(-abs(lz - below)))
        if not _rel_close(xi.log, want, 1e-12, 1e-12):
            return f"log Xi {xi.log!r} but the recursion gives {want!r}"
        return None

    @staticmethod
    def _check_windowed(model, sub, depth, pick, p):
        dist = oracle.enumerate_system(model, sub, depth)
        want = dist.prob_superset(pick)
        if not abs(p - want) <= TOL:
            return f"marginal {p!r} but enumeration gives {want!r}"
        return None

    # -- critical chemical potential ----------------------------------------

    @staticmethod
    def _critical(J, alpha, geo) -> Op:
        def check(res):
            lo, hi = CRITICAL_BRACKET
            if res["mu_c"] == math.inf:
                steps = 1
                below = analytics.check_condition_ii(Parametric(geo, hi, J, alpha)).status
                if below != "holds":
                    return f"mu_c = inf but the predicate is {below!r} at the bracket cap"
            else:
                steps = 2 + math.ceil(math.log2((hi - lo) / CRITICAL_TOL))
                mu = res["mu_c"]
                below = analytics.check_condition_ii(
                    Parametric(geo, mu - CRITICAL_TOL, J, alpha)).status
                above = analytics.check_condition_ii(
                    Parametric(geo, mu + CRITICAL_TOL, J, alpha)).status
                if below != "holds" or above == "holds":
                    return f"predicate does not flip across mu_c: {below!r} / {above!r}"
            if len(res["trace"]) != steps:
                return f"{len(res['trace'])} bisection steps, expected {steps}"
            return None

        return Op(f"critical-d{geo.d}",
                  lambda: analytics.critical_mu(J, alpha, CRITICAL_TOL, geometry=geo),
                  check, lambda res: repr((res["mu_c"], len(res["trace"]))))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class Cli(Workload):
    """In-process `hiercubes.cli.main` calls writing into a scratch directory."""

    name = "cli"
    CRITICAL = 10           # `critical` ops per round: the middle of the latencies
    SAMPLES = 4             # finite `sample`
    INFINITE_SAMPLES = 20
    CORRELATE_SAMPLES = 100

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        rng = seeded(seed, self.name, "models")
        self.models_dir = tmp / "models"
        self.models_dir.mkdir(parents=True)
        self.op_count = 0
        self.run_seed = rng.randrange(2**31)
        g1, g2 = Geometry(1), Geometry(2)
        self.analyze = [
            self._write("analyze-parametric-d1", Parametric(
                g1, rng.uniform(-1.0, 0.25), rng.uniform(0.8, 1.5), rng.uniform(0.45, 0.6))),
            self._write("analyze-parametric-d2", Parametric(
                g2, rng.uniform(-1.0, 0.25), rng.uniform(0.8, 1.5), rng.uniform(0.45, 0.6))),
            self._write("analyze-effective-d1", EffectiveDesign.from_values(
                g1, dict(zip(range(-2, 2), stratified_loguniform(rng, 4, 0.1, 3.0))),
                TailRule("geometric", rng.uniform(0.2, 0.8))))]
        self.sample = []
        for k, z in enumerate(stratified_loguniform(rng, 6, 0.1, 3.0, COST_JITTER)):
            d, levels = (1, 6) if k % 2 == 0 else (2, 3)
            window, depth = Sampling._window(rng, d, levels)
            path = self._write(f"sample-{k}", Homogeneous.from_values(
                Geometry(d), {j: z for j in range(-depth, window.scale + 1)}))
            self.sample.append((path, window, depth))
        self.infinite = []
        for k in range(3):
            d = 1 + k % 2
            path = self._write(f"infinite-{k}", Parametric(
                Geometry(d), rng.uniform(-1.0, 0.25), rng.uniform(0.8, 1.5),
                rng.uniform(0.45, 0.6)))
            self.infinite.append((path, _block(rng.randint(0, 1), [rng.randrange(4)] * d),
                                  rng.randint(0, 1)))
        self.correlate = []
        for k, z in enumerate(stratified_loguniform(rng, 3, 0.1, 3.0, COST_JITTER)):
            path = self._write(f"correlate-{k}", Homogeneous.from_values(
                g1, {j: z for j in range(-4, 1)}))
            self.correlate.append((path, _block(0, [rng.randrange(4)])))
        # the bisection's cost depends on (J, alpha) unevenly; narrow ranges
        # keep the median op, which is a `critical` op, alike across seeds
        self.critical = [(rng.uniform(0.9, 1.1), rng.uniform(0.45, 0.55))
                         for _ in range(self.CRITICAL)]
        self.fragmentation = self._write("diagnose-fragmentation", Homogeneous.from_values(
            g1, {0: rng.uniform(0.3, 3.0)},
            tail_down=TailRule("geometric", rng.uniform(0.5, 1.0))))
        self.condensation = self._write("diagnose-condensation", EffectiveDesign.from_values(
            g1, {0: rng.uniform(0.3, 3.0)},
            zhat_tail_up=TailRule("geometric", rng.uniform(1.0, 1.5))))

    def _write(self, name, model) -> str:
        path = self.models_dir / f"{name}.json"
        path.write_text(json.dumps(model.to_json_obj()))
        return str(path)

    def round(self, r):
        # the counts put the median inside the `critical` ops and the 95th
        # percentile inside the `correlate` ops, whose costs vary little
        ops = []
        for k in range(4):
            model = self.analyze[(4 * r + k) % len(self.analyze)]
            ops.append(self._op("analyze", ["--model", model, "--jmax", "24"],
                                ["existence.json", "pressure.json", "scales.csv"]))
        for path in (self.fragmentation, self.condensation):
            ops.append(self._op("diagnose", ["--model", path, "--depth", "6"],
                                ["model.existence.json"]))
        for J, alpha in self.critical:
            ops.append(self._op("critical", ["--J", repr(J), "--alpha", repr(alpha)],
                                ["critical.json"]))
        for k in range(3):
            path, window, depth = self.sample[(3 * r + k) % len(self.sample)]
            ops.append(self._op("sample", [
                "--model", path, "--window", format_block(window), "--depth", str(depth),
                "--samples", str(self.SAMPLES), "--seed", str(self.run_seed + r),
                "--format", "csv,json,svg"],
                ["configs.jsonl", "configs.csv", "sample_0.svg"], draws=(window, depth)))
            path, window, depth = self.infinite[(3 * r + k) % len(self.infinite)]
            ops.append(self._op("sample", [
                "--model", path, "--window", format_block(window), "--depth", str(depth),
                "--samples", str(self.INFINITE_SAMPLES), "--seed", str(self.run_seed + r),
                "--infinite"], ["configs.jsonl"], draws=(window, depth), kind="sample-infinite"))
        for k in range(2):
            path, window = self.correlate[(2 * r + k) % len(self.correlate)]
            ops.append(self._op("correlate", [
                "--model", path, "--window", format_block(window), "--depth", "4",
                "--samples", str(self.CORRELATE_SAMPLES), "--seed", str(self.run_seed + r),
                "--jmax", "10"], ["correlate.csv", "decay.csv"]))
        if r == 0:
            # the fixed verifier suite costs about as much as a round; once per run
            ops.insert(len(ops) // 2, self._op("validate", [], ["validate.json"]))
        return ops

    def _op(self, command, args, expected, draws=None, kind=None) -> Op:
        self.op_count += 1
        out = self.tmp / "out" / str(self.op_count)
        argv = [command, *args, "--out", str(out)]

        def run():
            try:
                return cli.main(argv)
            except SystemExit as exc:      # argparse rejects the arguments
                return exc.code

        recorded = {}

        def check(code):
            # the outputs are read here and then removed, so the record of
            # this op is taken now
            try:
                if code != cli.EXIT_OK:
                    return f"{' '.join(argv)} exited {code}"
                return _check_outputs(out, expected, draws, self.outputs)
            finally:
                recorded["text"] = _outputs_record(out, code)
                shutil.rmtree(out, ignore_errors=True)

        return Op(kind or command, run, check, lambda code: recorded["text"])


def _check_outputs(out: Path, expected, draws, outputs) -> Optional[str]:
    files = sorted(p for p in out.iterdir() if p.is_file())
    names = {p.name for p in files}
    missing = [n for n in expected if n not in names]
    if missing:
        return f"missing outputs {missing}"
    for p in files:
        text = p.read_text()
        outputs["cli.output_bytes"] += len(text.encode())
        if p.suffix == ".json":
            obj = json.loads(text)
            if p.name == "validate.json" and obj.get("passed") is not True:
                return "validation suite did not pass"
        elif p.suffix == ".jsonl":
            lines = [json.loads(line) for line in text.splitlines()]
            if draws is not None:
                window, depth = draws
                for cfg in lines:
                    blocks = [checks.parse_block_key(b) for b in cfg["blocks"]]
                    err = checks.configuration_error(
                        blocks, window, depth, 2, cfg.get("covered_by_ancestor"))
                    if err is not None:
                        return f"{p.name}: {err}"
        elif p.suffix == ".csv":
            if text and not list(csv.DictReader(io.StringIO(text))):
                return f"{p.name} has a header and no rows"
        elif p.suffix == ".svg":
            ET.fromstring(text)
    return None


def _outputs_record(out: Path, code) -> str:
    if not out.is_dir():
        return f"exit {code}, no outputs"
    return json.dumps([code] + [[p.name, hashlib.sha256(p.read_bytes()).hexdigest()]
                                for p in sorted(out.iterdir()) if p.is_file()])


WORKLOADS = {w.name: w for w in (Sampling, Oracle, Analytics, Cli)}
