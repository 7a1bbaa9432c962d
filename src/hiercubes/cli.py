"""Command-line interface.

Subcommands: analyze, sample, correlate, critical, validate, diagnose.
Outputs are deterministic: identical flags and seed give byte-identical CSV
and JSON files.  Exit codes: 0 success, 2 validation failure, 3 undecided or
refused computation.

Each `cmd_*` computes everything and returns its exit code and its files,
{file name: text}, writing nothing; `main` alone makes `--out` and writes
them once the command has returned.  A command that raises (exit 2, or 3 for
a refusal or an overflow) so leaves no output behind; one that returns its
code, 3 for an undecided verdict or 2 for a failed verifier suite, writes
its files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

from .blocks import (Block, Geometry, children, format_block, hierarchical_distance,
                     least_indices, parse_block)
from .activities import EffectiveDesign, Homogeneous, TailRule, load_model
from .analytics import (UncertifiedComputation, _check_system, _log_rho,
                        condensation_table, critical_mu, decay_profile,
                        existence_report, fragmentation_table,
                        pair_covariance, pressure_profile, scale_profile)
from .oracle import run_validation_suite
from .render import render_svg
from .sampler import _draw_function, estimate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNDECIDED = 3
SAMPLE_FORMATS = ("csv", "json", "svg")


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _csv(rows: list[dict]) -> str:
    """The rows as CSV text, with the csv module's CRLF line ends."""
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> tuple[int, dict[str, str]]:
    model = load_model(args.model)
    report = existence_report(model)
    files = {"existence.json": _json(report.to_json_obj())}
    if model.is_homogeneous:
        try:
            prof = pressure_profile(model, tol=args.tol, j_max=args.jmax)
            files["pressure.json"] = _json(prof.to_json_obj())
            sp = scale_profile(model, args.jmax)
            rows = [{"j": j,
                     "log_z": sp.log_z[j],
                     "log_zhat": sp.log_zhat[j],
                     "rho": math.exp(_log_rho(sp.log_zhat[j])),
                     "p_partial": sp.pressure_partial[j]}
                    for j in range(sp.j_lo, sp.j_hi + 1)]
            files["scales.csv"] = _csv(rows)
        except UncertifiedComputation as exc:
            files["pressure.json"] = _json({"error": str(exc)})
    return EXIT_UNDECIDED if report.verdict == "undecided" else EXIT_OK, files


def cmd_sample(args) -> tuple[int, dict[str, str]]:
    model = load_model(args.model)
    geo = model.geometry
    window = parse_block(args.window)
    fmts = args.format.split(",")
    unknown = [f for f in fmts if f not in SAMPLE_FORMATS]
    if unknown:
        raise ValueError(f"--format: unknown {', '.join(map(repr, unknown))}; "
                         f"choose from {','.join(SAMPLE_FORMATS)}")
    draw = _draw_function(model, window, args.depth, args.infinite)
    configs = [draw(args.seed, i) for i in range(args.samples)]
    files = {}
    if "json" in fmts:
        files["configs.jsonl"] = "".join(
            json.dumps(cfg.to_json_obj(), sort_keys=True) + "\n" for cfg in configs)
    if "csv" in fmts:
        rows = [{"sample": i, "blocks": " ".join(format_block(b) for b in cfg.blocks),
                 "covered_by_ancestor": cfg.covered_by_ancestor
                 if cfg.covered_by_ancestor is not None else ""}
                for i, cfg in enumerate(configs)]
        files["configs.csv"] = _csv(rows)
    if "svg" in fmts and geo.d in (1, 2):
        files["sample_0.svg"] = render_svg(configs[0], geo) + "\n"
    return EXIT_OK, files


def _distance_pairs(geo: Geometry, window: Block, depth: int) -> list[tuple[int, Block, Block]]:
    """Pairs of bottom-scale blocks at every hierarchical distance inside
    the window: (lcs scale, b1, b2), b1 the window's first bottom block and
    b2 that of the sibling, in the first coordinate, below b1's ancestor."""
    bottom = -depth
    firsts = least_indices(window, bottom, geo)     # from the window's scale down
    b1 = Block(bottom, firsts[-1])
    pairs = []
    for l, m in zip(range(bottom + 1, window.scale + 1), reversed(firsts[:-1])):
        kids = children(Block(l, m), geo)
        sibling = next(c for c in kids if c.index[0] != kids[0].index[0])
        pairs.append((l, b1, Block(bottom, least_indices(sibling, bottom, geo)[-1])))
    return pairs


def cmd_correlate(args) -> tuple[int, dict[str, str]]:
    model = load_model(args.model)
    geo = model.geometry
    window = parse_block(args.window)
    _check_system(geo, window, args.depth)
    if args.jmax < 0:
        raise ValueError(f"--jmax must be >= 0, got {args.jmax}")
    pairs = _distance_pairs(geo, window, args.depth)
    rows = []
    if pairs:
        # one batch of draws serves every pair: b1 is the same block in each,
        # the other probes are keyed by lcs scale
        b1 = pairs[0][1]
        probes = {"b1": [b1]}
        for l, _, b2 in pairs:
            probes.update({f"{l}:pair": [b1, b2], f"{l}:b2": [b2]})
        batch = estimate(model, window, args.depth, args.samples, probes,
                         seed=args.seed)
        p1_mc = batch.estimate("b1")[0]
        for l, _, b2 in pairs:
            cv = pair_covariance(model, b1, b2, window, args.depth)
            p12, err = batch.estimate(f"{l}:pair")
            mc_cov = p12 - p1_mc * batch.estimate(f"{l}:b2")[0]
            rows.append({"lcs_scale": l,
                         "distance": hierarchical_distance(b1, b2, geo),
                         "cov_exact": cv["cov"],
                         "cov_factored": cv["factored_cov"],
                         "cov_mc": mc_cov,
                         "stderr": err})
    files = {"correlate.csv": _csv(rows)}
    if model.is_homogeneous:
        table = decay_profile(model, args.jmax)
        files["decay.csv"] = _csv([
            {"j": r["j"], "log_R": r["log_R"],
             "scaled_log_R": r["scaled_log_R"],
             "residual": r["residual"] if r["residual"] is not None else ""}
            for r in table])
    return EXIT_OK, files


def cmd_critical(args) -> tuple[int, dict[str, str]]:
    geo = Geometry(args.d, args.M)
    res = critical_mu(args.J, args.alpha, args.tol, geometry=geo)
    obj = {"J": args.J, "alpha": args.alpha, "tol": args.tol,
           "mu_c": "+inf" if res["mu_c"] == math.inf else res["mu_c"],
           "gibbs_at_mu_c": res["gibbs_at_mu_c"],
           "trace": res["trace"], "note": res["note"]}
    code = EXIT_UNDECIDED if res["gibbs_at_mu_c"] == "undecided" else EXIT_OK
    return code, {"critical.json": _json(obj)}


def cmd_validate(args) -> tuple[int, dict[str, str]]:
    report = run_validation_suite(tol=args.tol)
    code = EXIT_OK if report["passed"] else EXIT_VALIDATION
    return code, {"validate.json": _json(report)}


def cmd_diagnose(args) -> tuple[int, dict[str, str]]:
    if args.depth < 0:
        raise ValueError(f"--depth must be >= 0, got {args.depth}")
    if args.model:
        models = [("model", load_model(args.model))]
    else:
        g1 = Geometry(1)
        models = [
            ("fragmentation-unit", Homogeneous.from_values(
                g1, {0: 1.0}, tail_down=TailRule("geometric", 1.0))),
            ("condensation-design", EffectiveDesign.from_values(
                g1, {0: 1.0}, zhat_tail_up=TailRule("geometric", 1.0))),
        ]
    code, files = EXIT_OK, {}
    for name, model in models:
        geo = model.geometry
        report = existence_report(model)
        files[f"{name}.existence.json"] = _json(report.to_json_obj())
        origin = Block(0, (0,) * geo.d)
        if report.verdict == "fragmentation":
            rows = fragmentation_table(model, origin, list(range(0, args.depth + 1)))
            files[f"{name}.fragmentation.csv"] = _csv(rows)
        elif report.verdict == "condensation":
            windows = [Block(j, (0,) * geo.d) for j in range(0, 13)]
            rows = condensation_table(model, origin, windows)
            files[f"{name}.condensation.csv"] = _csv(rows)
        elif report.verdict == "undecided":
            code = EXIT_UNDECIDED
    return code, files


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hiercubes",
        description="Hierarchical-cubes hard-core gas: analytics, sampling, "
                    "enumeration, rendering.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, seed=False, tol=False):
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", required=True, help="output directory")
        if tol:
            p.add_argument("--tol", type=float, default=1e-12)
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="root seed (mandatory for sampling)")

    p = sub.add_parser("analyze", help="existence report, pressure, scale tables")
    common(p, tol=True)
    p.add_argument("--jmax", type=int, default=64)

    p = sub.add_parser("sample", help="draw configurations, optional SVG")
    common(p, seed=True)
    p.add_argument("--format", default="csv,json",
                   help=f"comma list of {','.join(SAMPLE_FORMATS)}")
    p.add_argument("--window", required=True, help="window block 'j:(m,...)'")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--infinite", action="store_true",
                   help="sample the infinite-volume measure through the window")

    p = sub.add_parser("correlate", help="covariance and decay tables")
    common(p, seed=True)
    p.add_argument("--window", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--jmax", type=int, default=20)

    p = sub.add_parser("critical", help="critical chemical potential bisection")
    common(p, model=False, tol=True)
    p.add_argument("--J", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--M", type=int, default=2)

    p = sub.add_parser("validate", help="verifier suite over built-in systems")
    common(p, model=False, tol=True)

    p = sub.add_parser("diagnose", help="fragmentation/condensation tables")
    common(p, model=False)
    p.add_argument("--model", help="model JSON file (defaults to built-ins)")
    p.add_argument("--depth", type=int, default=8)
    return parser


def main(argv=None) -> int:
    words = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(words) - 1)):
        # "--window W" as "--window=W": argparse reads a W below scale 0 as a
        # flag; it takes any prefix of --window from "--w" on for --window
        if len(words[i]) >= 3 and "--window".startswith(words[i]):
            words[i:i + 2] = [f"--window={words[i + 1]}"]
    args = build_parser().parse_args(words)
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        print("tol must be finite and > 0", file=sys.stderr)
        return EXIT_VALIDATION
    if getattr(args, "samples", 1) < 1:
        print("samples must be >= 1", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        # looked up by name per call, not held by the cached parser, so a
        # later rebinding of a cmd_* function is the one that runs
        code, files = globals()[f"cmd_{args.command}"](args)
        # the one write point: nothing is written unless the command returned
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, newline="")
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UncertifiedComputation as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except OverflowError as exc:
        # a float overflow inside the library is a defect, not a refusal
        print(f"error (overflow, known defect): {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
