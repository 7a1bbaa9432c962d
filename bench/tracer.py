"""Span tracer that wraps the public functions of hiercubes from outside.

`Tracer.install` replaces every public function of the eight package modules,
and a fixed list of methods, wherever a hiercubes module binds it.  Each call
becomes a span (name, start, end, parent) kept in memory; hot leaf functions of
`blocks`, `logreal` and `activities`, and `TruncatedSystem.rho`, are
aggregated to calls and time only.  A layer's self time is the duration of its
spans minus the part covered by child spans.  Bookkeeping done in hooks is
excluded from every span, so it only shows in the traced run's wall time.

A function that the package no longer defines is reported in `absent`; its
metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import checks

LAYERS = ("blocks", "logreal", "activities", "analytics", "oracle",
          "sampler", "render", "cli")
LEAF_LAYERS = {"blocks", "logreal", "activities"}

# methods wrapped besides the module-level public functions:
# (module, class, method); "*Model" means every ActivityModel subclass
METHODS = [
    ("analytics", "TruncatedSystem", "__init__"),
    ("analytics", "TruncatedSystem", "rho"),
    ("sampler", "Configuration", "validate"),
    ("activities", "*Model", "log_activity"),
    ("activities", "*Model", "log_activity_at_scale"),
    ("logreal", "LogReal", "__add__"),
    ("logreal", "LogReal", "__mul__"),
    ("logreal", "LogReal", "__truediv__"),
    ("logreal", "LogReal", "__lt__"),
    ("logreal", "LogReal", "__le__"),
    ("logreal", "LogReal", "pow"),
    ("logreal", "LogReal", "float_value"),
]

# functions whose own metrics the benchmark reports
NAMED = ["blocks.overlaps", "blocks.contains", "blocks.children",
         "activities.log_activity", "activities.log_activity_at_scale",
         "analytics.TruncatedSystem.__init__", "analytics.TruncatedSystem.rho",
         "analytics.check_condition_ii", "analytics.scale_profile",
         "analytics.critical_mu", "oracle.enumerate_system", "oracle.verify_gnz",
         "oracle.verify_topdown", "oracle.verify_hierarchical_formula",
         "sampler.sample_gibbs", "sampler.sample_gibbs_infinite",
         "sampler.ancestor_chain_cdf", "sampler.Configuration.validate",
         "render.render_svg", "cli.cmd_analyze", "cli.cmd_sample",
         "cli.cmd_correlate", "cli.cmd_critical", "cli.cmd_validate",
         "cli.cmd_diagnose"]

SAMPLER_DRAWS = ("sample_gibbs", "sample_gibbs_infinite", "sample_mandelbrot",
                 "sample_bernoulli_max")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack = []            # one [child seconds] frame per open call
        self.open = []             # (span id, layer) of open recorded spans
        self.spans = []            # (id, name, start, end, parent id)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.outer_s = defaultdict(float)   # time in outermost spans per layer
        self.counts = defaultdict(float)
        self.lanes = {}            # id(TruncatedSystem) -> lane name
        self.certified = set()     # model keys seen by check_condition_ii
        self.model_keys = {}       # id(model) -> (model, key)
        self.absent = []
        self.wrapped = set()
        self._patched = []         # (owner, attribute, original)
        self._counted = None       # the exception counted last

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {layer: sys.modules.get(f"hiercubes.{layer}") for layer in LAYERS}
        replace = {}                # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            if mod is None:
                self.absent.append(layer)
                continue
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replace[id(obj)] = (obj, self._wrapper(obj, f"{layer}.{attr}"))
        for layer, cls_name, meth in METHODS:
            mod = mods.get(layer)
            classes = []
            if mod is not None and cls_name == "*Model":
                base = getattr(mod, "ActivityModel", None)
                classes = [c for c in vars(mod).values()
                           if inspect.isclass(c) and base is not None
                           and issubclass(c, base)]
            elif mod is not None and inspect.isclass(getattr(mod, cls_name, None)):
                classes = [getattr(mod, cls_name)]
            name = f"{layer}.{meth}" if cls_name == "*Model" else f"{layer}.{cls_name}.{meth}"
            for cls in classes:
                fn = vars(cls).get(meth)
                if inspect.isfunction(fn):
                    self._patch(cls, meth, fn, self._wrapper(fn, name))
        for name in list(sys.modules):
            mod = sys.modules[name]
            if not name.startswith("hiercubes") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])
        self.absent += [n for n in NAMED if n not in self.wrapped]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrapper(self, fn, name: str):
        layer = name.split(".", 1)[0]
        short = name.rsplit(".", 1)[-1]
        if name == "analytics.TruncatedSystem.rho":
            wrapper = self._leaf(fn, name, lane=True)
        elif name == "analytics.TruncatedSystem.__init__":
            wrapper = self._leaf(fn, name, after=self._after_build)
        elif layer in LEAF_LAYERS:
            wrapper = self._leaf(fn, name)
        else:
            before = self._before_condition_ii if short == "check_condition_ii" else None
            after = {"scale_profile": self._after_scale_profile,
                     "critical_mu": self._after_critical_mu,
                     "enumerate_system": self._after_distribution,
                     "hierarchical_distribution": self._after_distribution,
                     "render_svg": self._after_svg}.get(short)
            if layer == "sampler" and short in SAMPLER_DRAWS:
                after = functools.partial(self._after_draw,
                                          short == "sample_gibbs_infinite")
            wrapper = self._span(fn, name, layer, before, after)
        wrapper.__wrapped__ = fn
        self.wrapped.add(name)
        return wrapper

    # -- wrappers ----------------------------------------------------------

    def _leaf(self, fn, name, lane=False, after=None):
        tr, stack, perf = self, self.stack, time.perf_counter
        calls, self_s = self.calls, self.self_s
        layer_self = self.layer_self
        layer = name.split(".", 1)[0]

        def leaf(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            label = tr._lane(args[0]) if lane else name
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                own = dur - frame[0]
                calls[label] += 1
                self_s[label] += own
                layer_self[layer] += own
                if after is not None:
                    h0 = perf()
                    tr._hook(after, args, kwargs, None)
                    dur += perf() - h0
                if stack:
                    stack[-1][0] += dur
        return leaf

    def _span(self, fn, name, layer, before, after):
        tr, stack, perf = self, self.stack, time.perf_counter

        def span(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            h0 = perf()
            if before is not None:
                tr._hook(before, args, kwargs, None)
            parent = tr.open[-1] if tr.open else None
            sid = len(tr.spans) + len(tr.open)
            tr.open.append((sid, layer))
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except Exception as exc:
                tr._count_exception(exc, layer, parent)
                raise
            finally:
                t1 = perf()
                stack.pop()
                tr.open.pop()
                dur = t1 - t0
                tr.calls[name] += 1
                tr.self_s[name] += dur - frame[0]
                tr.total_s[name] += dur
                tr.layer_self[layer] += dur - frame[0]
                if parent is None or parent[1] != layer:
                    tr.outer_s[layer] += dur
                tr.spans.append((sid, name, t0, t1, parent[0] if parent else None))
                if ok and after is not None:
                    tr._hook(after, args, kwargs, result)
                if stack:
                    stack[-1][0] += perf() - h0
        return span

    def _count_exception(self, exc, layer, parent) -> None:
        """Count a refusal (`UncertifiedComputation`, whichever layer raises
        it) or an analytics error once, where it leaves its layer."""
        if parent is not None and parent[1] == layer or exc is self._counted:
            return
        if type(exc).__name__ == "UncertifiedComputation":
            self.counts["analytics.refusals"] += 1
        elif layer == "analytics":
            self.counts["analytics.errors"] += 1
        else:
            return
        self._counted = exc

    def _hook(self, hook, args, kwargs, result) -> None:
        # a hook that no longer fits the program's signatures must not change
        # what the program does; it is counted instead
        self.enabled = False
        try:
            hook(args, kwargs, result)
        except Exception:
            self.counts["trace.hook_errors"] += 1
        finally:
            self.enabled = True

    # -- hooks -------------------------------------------------------------

    def _lane(self, system) -> str:
        lane = self.lanes.get(id(system))
        if lane is None:
            self.enabled = False
            try:
                lane = self._lane_of(system.model, system.window)
            finally:
                self.enabled = True
        return lane

    @staticmethod
    def _lane_of(model, window) -> str:
        scalewise = model.homogeneous_within(window)
        return "analytics.rho.scale_lane" if scalewise else "analytics.rho.block_lane"

    def _after_build(self, args, kwargs, result) -> None:
        params = dict(zip(("model", "window"), args[1:3]), **kwargs)
        self.lanes[id(args[0])] = self._lane_of(params["model"], params["window"])

    def _model_key(self, model) -> str:
        hit = self.model_keys.get(id(model))
        if hit is None or hit[0] is not model:
            hit = self.model_keys[id(model)] = (model, repr(model))
        return hit[1]

    def _before_condition_ii(self, args, kwargs, result) -> None:
        key = self._model_key(args[0] if args else kwargs["model"])
        if key in self.certified:
            self.counts["analytics.check_condition_ii.repeats"] += 1
        self.certified.add(key)

    def _after_scale_profile(self, args, kwargs, result) -> None:
        self.counts["analytics.scale_profile.scales"] += result.j_hi - result.j_lo + 1

    def _after_critical_mu(self, args, kwargs, result) -> None:
        self.counts["analytics.critical_mu.bisection_steps"] += len(result["trace"])

    def _after_distribution(self, args, kwargs, result) -> None:
        self.counts["oracle.configs"] += len(result.support)

    def _after_svg(self, args, kwargs, result) -> None:
        self.counts["render.svg_bytes"] += len(result.encode())

    def _after_draw(self, infinite, args, kwargs, cfg) -> None:
        first = args[0] if args else kwargs.get("model")
        geo = getattr(first, "geometry", None) or (args[1] if len(args) > 1 else kwargs["geo"])
        covered = cfg.covered_by_ancestor
        self.counts["sampler.draws"] += 1
        self.counts["sampler.blocks_occupied"] += len(cfg.blocks)
        self.counts["sampler.blocks_visited"] += checks.blocks_visited(
            cfg.blocks, cfg.window, cfg.depth, geo.M, covered)
        if infinite and covered is not None:
            self.counts["sampler.covered"] += 1

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        c, s, n = self.calls, self.self_s, self.counts

        def calls_of(layer):
            return sum(v for k, v in c.items() if k.startswith(layer + "."))

        cond_calls = c.get("analytics.check_condition_ii", 0)
        visited = n.get("sampler.blocks_visited", 0)
        inf_draws = c.get("sampler.sample_gibbs_infinite", 0)
        oracle_time = self.outer_s.get("oracle", 0.0)
        return {
            "blocks.calls": calls_of("blocks"),
            "blocks.self_s": self.layer_self.get("blocks", 0.0),
            "blocks.overlaps.calls": c.get("blocks.overlaps", 0),
            "blocks.contains.calls": c.get("blocks.contains", 0),
            "blocks.children.calls": c.get("blocks.children", 0),
            "logreal.calls": calls_of("logreal"),
            "logreal.self_s": self.layer_self.get("logreal", 0.0),
            "activities.log_activity.calls": c.get("activities.log_activity", 0),
            "activities.log_activity_at_scale.calls":
                c.get("activities.log_activity_at_scale", 0),
            "activities.self_s": self.layer_self.get("activities", 0.0),
            "analytics.self_s": self.layer_self.get("analytics", 0.0),
            "analytics.truncated_system.builds":
                c.get("analytics.TruncatedSystem.__init__", 0),
            "analytics.rho.scale_lane.self_s": s.get("analytics.rho.scale_lane", 0.0),
            "analytics.rho.block_lane.self_s": s.get("analytics.rho.block_lane", 0.0),
            "analytics.check_condition_ii.calls": cond_calls,
            "analytics.check_condition_ii.self_s": s.get("analytics.check_condition_ii", 0.0),
            "analytics.check_condition_ii.repeat_share":
                n.get("analytics.check_condition_ii.repeats", 0) / cond_calls
                if cond_calls else 0.0,
            "analytics.scale_profile.calls": c.get("analytics.scale_profile", 0),
            "analytics.scale_profile.scales": n.get("analytics.scale_profile.scales", 0),
            "analytics.critical_mu.bisection_steps":
                n.get("analytics.critical_mu.bisection_steps", 0),
            "analytics.refusals": n.get("analytics.refusals", 0),
            "analytics.errors": n.get("analytics.errors", 0),
            "oracle.self_s": self.layer_self.get("oracle", 0.0),
            "oracle.enumerate_system.self_s": s.get("oracle.enumerate_system", 0.0),
            "oracle.verify_gnz.self_s": s.get("oracle.verify_gnz", 0.0),
            "oracle.verify_topdown.self_s": s.get("oracle.verify_topdown", 0.0),
            "oracle.verify_hierarchical_formula.self_s":
                s.get("oracle.verify_hierarchical_formula", 0.0),
            "oracle.configs": n.get("oracle.configs", 0),
            "oracle.configs_per_s": n.get("oracle.configs", 0) / oracle_time
            if oracle_time else 0.0,
            "sampler.self_s": self.layer_self.get("sampler", 0.0),
            "sampler.draws": n.get("sampler.draws", 0),
            "sampler.blocks_visited": visited,
            "sampler.blocks_occupied": n.get("sampler.blocks_occupied", 0),
            "sampler.visit_yield": n.get("sampler.blocks_occupied", 0) / visited
            if visited else 0.0,
            "sampler.validate.calls": c.get("sampler.Configuration.validate", 0),
            "sampler.validate.self_s": s.get("sampler.Configuration.validate", 0.0),
            "sampler.ancestor_chain_cdf.calls": c.get("sampler.ancestor_chain_cdf", 0),
            "sampler.ancestor_chain_cdf.self_s": s.get("sampler.ancestor_chain_cdf", 0.0),
            "sampler.covered_share": n.get("sampler.covered", 0) / inf_draws
            if inf_draws else 0.0,
            "render.render_svg.self_s": s.get("render.render_svg", 0.0),
            "render.svg_bytes": n.get("render.svg_bytes", 0),
            **{f"cli.{sub}.wall_s": self.total_s.get(f"cli.cmd_{sub}", 0.0)
               for sub in ("analyze", "sample", "correlate", "critical",
                           "validate", "diagnose")},
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
            for name in sorted(self.calls):
                if name.split(".", 1)[0] in LEAF_LAYERS or name.startswith("analytics.rho") \
                        or name == "analytics.TruncatedSystem.__init__":
                    fh.write(json.dumps({"aggregate": name, "calls": self.calls[name],
                                         "self_s": self.self_s[name]}) + "\n")
