import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import hiercubes
from hiercubes import analytics, cli
from hiercubes.activities import load_model, model_from_json_obj
from hiercubes.analytics import TruncatedSystem
from hiercubes.blocks import block, parse_block
from hiercubes.cli import (EXIT_OK, EXIT_UNDECIDED, EXIT_VALIDATION,
                           _distance_pairs, build_parser, main)
from hiercubes.oracle import run_validation_suite
from hiercubes.sampler import estimate, sample_gibbs, sample_gibbs_infinite


def write_model(tmp_path, obj, name="model.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


PARAMETRIC = {"kind": "parametric", "d": 1, "M": 2,
              "mu": -1.0, "J": 1.0, "alpha": 0.5}
FRAGMENTING = {"kind": "homogeneous", "d": 1, "M": 2, "table": {"0": 1.0},
               "tail_down": {"kind": "geometric", "ratio": 0.5}}
CONDENSING = {"kind": "effective", "d": 1, "M": 2, "zhat_table": {"0": 1.0},
              "zhat_tail_up": {"kind": "geometric", "ratio": 1.0}}
UNIT_DEPTH8 = {"kind": "homogeneous", "d": 1, "M": 2,
               "table": {str(j): 1.0 for j in range(-8, 1)}}


# -- analyze -------------------------------------------------------------------

def test_analyze_lowest_active_scale_above_zero(tmp_path):
    m = write_model(tmp_path, {"kind": "homogeneous", "d": 1, "M": 2,
                               "table": {"1": 2.0},
                               "tail_up": {"kind": "geometric", "ratio": 0.5}})
    out = tmp_path / "out"
    assert main(["analyze", "--model", m, "--out", str(out)]) == EXIT_OK
    rep = json.loads((out / "existence.json").read_text())
    assert rep["verdict"] == "unique Gibbs measure"


def test_analyze_unique_gibbs(tmp_path):
    m = write_model(tmp_path, PARAMETRIC)
    out = tmp_path / "out"
    assert main(["analyze", "--model", m, "--out", str(out)]) == EXIT_OK
    rep = json.loads((out / "existence.json").read_text())
    assert rep["verdict"] == "unique Gibbs measure"
    pres = json.loads((out / "pressure.json").read_text())
    assert pres["theta_star"] == pytest.approx(-1.0)
    with (out / "scales.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {"j", "log_z", "log_zhat", "rho", "p_partial"} <= set(rows[0])


def test_analyze_fragmentation_and_condensation(tmp_path):
    for obj, verdict in [(FRAGMENTING, "fragmentation"),
                         (CONDENSING, "condensation")]:
        m = write_model(tmp_path, obj, f"{verdict}.json")
        out = tmp_path / verdict
        assert main(["analyze", "--model", m, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "existence.json").read_text())
        assert rep["verdict"] == verdict


def test_analyze_verdict_does_not_depend_on_truncation_order(tmp_path):
    h = {"kind": "homogeneous", "d": 1, "M": 2, "table": {"0": 1.0, "-1": 1.0},
         "tail_down": {"kind": "geometric", "ratio": 0.25}}
    nestings = {
        "scale-outer": {"kind": "scale_truncated", "depth": 3, "inner":
                        {"kind": "volume_truncated", "window": "2:(0)", "inner": h}},
        "volume-outer": {"kind": "volume_truncated", "window": "2:(0)", "inner":
                         {"kind": "scale_truncated", "depth": 3, "inner": h}},
    }
    for name, obj in nestings.items():
        out = tmp_path / name
        assert main(["analyze", "--model", write_model(tmp_path, obj, f"{name}.json"),
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "existence.json").read_text())
        assert rep["verdict"] == "unique Gibbs measure"


@pytest.mark.parametrize("obj,argv,says", [
    (PARAMETRIC, ["--jmax", "-5"], "j_max -5 lies below the profile's first scale 0"),
    ({"kind": "homogeneous", "d": 1, "M": 2, "table": {"100": 1.0}}, [],
     "j_max 64 lies below the profile's first scale 100"),
], ids=["jmax-5", "first-scale-100"])
def test_analyze_j_max_below_the_first_scale(tmp_path, obj, argv, says):
    m = write_model(tmp_path, obj)
    res = run_cli("analyze", "--model", m, "--out", str(tmp_path / "o"), *argv)
    assert res.returncode == EXIT_VALIDATION
    assert "Traceback" not in res.stderr and f"error: {says}" in res.stderr
    assert not (tmp_path / "o").exists()


def test_undecided_verdict_still_writes(tmp_path, monkeypatch):
    # a command that returns exit 3 for an undecided verdict writes its files;
    # only a command that raises leaves none
    m = write_model(tmp_path, PARAMETRIC)
    undecided = dataclasses.replace(analytics.existence_report(load_model(m)),
                                    verdict="undecided")
    monkeypatch.setattr(cli, "existence_report", lambda model: undecided)
    out = tmp_path / "o"
    assert main(["analyze", "--model", m, "--out", str(out)]) == EXIT_UNDECIDED
    assert sorted(p.name for p in out.iterdir()) == \
        ["existence.json", "pressure.json", "scales.csv"]
    assert json.loads((out / "existence.json").read_text())["verdict"] == "undecided"


def test_analyze_undecided_where_condition_ii_overflows(tmp_path):
    # 3**(2 j) overflows a float below scale 512, where condition (ii) looks:
    # an undecided verdict, exit 3 with every file written
    m = write_model(tmp_path, {"kind": "parametric", "d": 2, "M": 3,
                               "mu": 2.66, "J": 1.0, "alpha": 0.5})
    res = run_cli("analyze", "--model", m, "--out", str(tmp_path / "o"))
    assert res.returncode == EXIT_UNDECIDED and res.stderr == ""
    out = tmp_path / "o"
    assert sorted(p.name for p in out.iterdir()) == \
        ["existence.json", "pressure.json", "scales.csv"]
    rep = json.loads((out / "existence.json").read_text())
    assert rep["verdict"] == "undecided"
    assert rep["condition_ii"] == {"status": "undecided",
                                   "detail": "activities overflow a float below scale 512"}


def test_analyze_missing_model(tmp_path):
    code = main(["analyze", "--model", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION


# -- sample --------------------------------------------------------------------

def sample_args(m, out, extra=()):
    return ["sample", "--model", m, "--out", str(out), "--window", "0:(0)",
            "--depth", "2", "--samples", "5", "--seed", "11",
            "--format", "csv,json,svg", *extra]


def test_sample_outputs_and_determinism(tmp_path):
    m = write_model(tmp_path, UNIT_DEPTH8)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(sample_args(m, out1)) == EXIT_OK
    assert main(sample_args(m, out2)) == EXIT_OK
    assert (out1 / "configs.jsonl").read_bytes() == \
        (out2 / "configs.jsonl").read_bytes()
    assert (out1 / "configs.csv").exists()
    svg = (out1 / "sample_0.svg").read_text()
    assert svg.startswith("<svg") or "<svg" in svg
    lines = (out1 / "configs.jsonl").read_text().splitlines()
    assert len(lines) == 5
    assert all("blocks" in json.loads(l) for l in lines)


def test_sample_builds_one_system(tmp_path, monkeypatch):
    # one TruncatedSystem and ratio lookup serve the command's draws, which
    # each equal a draw of their own
    builds = []
    init = TruncatedSystem.__init__

    def counting(self, *args):
        builds.append(args)
        init(self, *args)
    monkeypatch.setattr(TruncatedSystem, "__init__", counting)
    m = write_model(tmp_path, UNIT_DEPTH8)
    out = tmp_path / "o"
    assert main(["sample", "--model", m, "--out", str(out), "--window", "0:(0)",
                 "--depth", "3", "--samples", "4", "--seed", "11"]) == EXIT_OK
    assert len(builds) == 1
    draws = [sample_gibbs(load_model(m), block(0, 0), 3, seed=11, index=i) for i in range(4)]
    assert (out / "configs.jsonl").read_text() == "".join(
        json.dumps(c.to_json_obj(), sort_keys=True) + "\n" for c in draws)


def test_sample_seed_required(tmp_path):
    m = write_model(tmp_path, UNIT_DEPTH8)
    with pytest.raises(SystemExit) as e:
        main(["sample", "--model", m, "--out", str(tmp_path / "o"),
              "--window", "0:(0)", "--depth", "2"])
    assert e.value.code == 2


@pytest.mark.parametrize("fmt,files", [
    ("csv", {"configs.csv"}),
    ("json", {"configs.jsonl"}),
    ("svg", {"sample_0.svg"}),
    ("csv,json", {"configs.csv", "configs.jsonl"}),
], ids=["csv", "json", "svg", "default"])
def test_sample_writes_the_selected_formats_only(tmp_path, fmt, files):
    m = write_model(tmp_path, UNIT_DEPTH8)
    out = tmp_path / "o"
    assert main(sample_args(m, out, extra=["--format", fmt])) == EXIT_OK
    assert {p.name for p in out.iterdir()} == files


@pytest.mark.parametrize("fmt,says", [
    ("cvs,svgg", "'cvs', 'svgg'"),
    ("csv,jsn", "'jsn'"),
    ("csv,", "''"),
], ids=["both-misspelt", "one-misspelt", "empty-item"])
def test_sample_rejects_unknown_formats(tmp_path, capsys, fmt, says):
    # refused before any draw: no output directory is made
    m = write_model(tmp_path, UNIT_DEPTH8)
    out = tmp_path / "o"
    assert main(sample_args(m, out, extra=["--format", fmt])) == EXIT_VALIDATION
    assert capsys.readouterr().err == \
        f"error: --format: unknown {says}; choose from csv,json,svg\n"
    assert not out.exists()


def test_sample_infinite_refused_on_condensation(tmp_path, capsys):
    m = write_model(tmp_path, CONDENSING)
    code = main(sample_args(m, tmp_path / "o", extra=["--infinite"]))
    assert code == EXIT_UNDECIDED
    assert capsys.readouterr().err.startswith("refused:")
    assert not (tmp_path / "o").exists()


def test_sample_infinite_certified(tmp_path):
    m = write_model(tmp_path, PARAMETRIC)
    out = tmp_path / "o"
    assert main(sample_args(m, out, extra=["--infinite"])) == EXIT_OK
    lines = (out / "configs.jsonl").read_text().splitlines()
    assert len(lines) == 5


def test_sample_infinite_equals_separate_draws(tmp_path):
    # one certificate serves the command's draws: each equals a draw of its own
    obj = {**PARAMETRIC, "mu": 0.0}
    m = write_model(tmp_path, obj)
    out = tmp_path / "o"
    assert main(["sample", "--model", m, "--out", str(out), "--window", "0:(0)",
                 "--depth", "2", "--samples", "20", "--seed", "11", "--infinite"]) == EXIT_OK
    draws = [sample_gibbs_infinite(model_from_json_obj(obj), block(0, 0), 2, seed=11, index=i)
             for i in range(20)]
    # covered draws and uncovered ones, with and without blocks
    assert any(c.covered_by_ancestor is not None for c in draws)
    assert any(c.blocks for c in draws)
    assert (out / "configs.jsonl").read_text() == "".join(
        json.dumps(c.to_json_obj(), sort_keys=True) + "\n" for c in draws)


# -- correlate -----------------------------------------------------------------

def test_correlate_tables(tmp_path):
    m = write_model(tmp_path, PARAMETRIC)
    out = tmp_path / "o"
    code = main(["correlate", "--model", m, "--out", str(out),
                 "--window", "0:(0)", "--depth", "3", "--samples", "2000",
                 "--jmax", "8", "--seed", "4"])
    assert code == EXIT_OK
    with (out / "correlate.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {"lcs_scale", "distance", "cov_exact", "cov_factored",
            "cov_mc", "stderr"} <= set(rows[0])
    for r in rows:
        assert abs(float(r["cov_exact"]) - float(r["cov_factored"])) < 1e-10
        assert abs(float(r["cov_mc"]) - float(r["cov_exact"])) < \
            5 * float(r["stderr"]) + 5e-3
    with (out / "decay.csv").open() as fh:
        drows = list(csv.DictReader(fh))
    assert len(drows) == 9


def test_correlate_model_active_above_the_decay_rows(tmp_path):
    # the decay table's rows lie below the profile's first scale, 100
    m = write_model(tmp_path, {"kind": "homogeneous", "d": 1, "M": 2, "table": {"100": 1.0}})
    out = tmp_path / "o"
    assert main(["correlate", "--model", m, "--out", str(out), "--window", "0:(0)",
                 "--depth", "2", "--seed", "1", "--samples", "10"]) == EXIT_OK
    with (out / "decay.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["j"]) for r in rows] == list(range(21))
    # R = (1 + 1) - 1 from scale 100 alone
    assert all(abs(float(r["log_R"])) < 1e-15 and r["residual"] == "" for r in rows)


def test_correlate_matches_per_pair_estimates(tmp_path):
    # one shared batch gives the numbers of one estimate per distance pair
    m = write_model(tmp_path, UNIT_DEPTH8)
    out = tmp_path / "o"
    assert main(["correlate", "--model", m, "--out", str(out),
                 "--window", "0:(0)", "--depth", "4", "--samples", "300",
                 "--jmax", "4", "--seed", "4"]) == EXIT_OK
    with (out / "correlate.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    model, window = load_model(m), parse_block("0:(0)")
    pairs = _distance_pairs(model.geometry, window, 4)
    assert [int(r["lcs_scale"]) for r in rows] == [l for l, _, _ in pairs]
    for r, (l, b1, b2) in zip(rows, pairs):
        batch = estimate(model, window, 4, 300,
                         {"pair": [b1, b2], "b1": [b1], "b2": [b2]}, seed=4)
        p12, err = batch.estimate("pair")
        assert float(r["cov_mc"]) == p12 - batch.estimate("b1")[0] * batch.estimate("b2")[0]
        assert float(r["stderr"]) == err


def test_correlate_draws_one_probe_for_b1(tmp_path, monkeypatch):
    # b1 is the same block in every pair: one probe for it, one pair and one
    # b2 probe per lcs scale; the distance is the ultrametric M**(d l)
    seen = []

    def recording(model, window, depth, N, probes, seed):
        seen.append(probes)
        return estimate(model, window, depth, N, probes, seed=seed)
    monkeypatch.setattr(cli, "estimate", recording)
    m = write_model(tmp_path, {**PARAMETRIC, "d": 2, "M": 3})
    out = tmp_path / "o"
    assert main(["correlate", "--model", m, "--out", str(out), "--window", "2:(1,0)",
                 "--depth", "1", "--samples", "20", "--seed", "3"]) == EXIT_OK
    pairs = _distance_pairs(load_model(m).geometry, parse_block("2:(1,0)"), 1)
    [probes] = seen
    b1 = pairs[0][1]
    assert sorted(map(tuple, probes.values())) == sorted(
        [(b1,)] + [p for _, _, b2 in pairs for p in [(b1, b2), (b2,)]])
    with (out / "correlate.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["distance"]) for r in rows] == [float(9 ** l) for l, _, _ in pairs]


def test_correlate_builds_each_profile_once(tmp_path, monkeypatch):
    # the window's scale lane, condition (ii) and the decay table: one
    # profile each, however many marginals and chain ratios read them
    built = []
    build = analytics._build_profile

    def counting(model, j_lo, j_hi):
        built.append((j_lo, j_hi))
        return build(model, j_lo, j_hi)
    monkeypatch.setattr(analytics, "_build_profile", counting)
    m = write_model(tmp_path, UNIT_DEPTH8)
    assert main(["correlate", "--model", m, "--out", str(tmp_path / "o"),
                 "--window", "0:(0)", "--depth", "4", "--samples", "100",
                 "--seed", "1"]) == EXIT_OK
    assert built == [(-4, 0), (-8, 64), (-8, 110)]


# -- critical ------------------------------------------------------------------

def test_critical_zero_coupling(tmp_path):
    out = tmp_path / "o"
    code = main(["critical", "--J", "0.0", "--alpha", "0.5",
                 "--out", str(out), "--tol", "1e-3"])
    assert code == EXIT_OK
    obj = json.loads((out / "critical.json").read_text())
    assert obj["mu_c"] == "+inf"
    assert obj["gibbs_at_mu_c"] is True


def test_critical_finite(tmp_path):
    out = tmp_path / "o"
    code = main(["critical", "--J", "2.0", "--alpha", "0.5",
                 "--out", str(out), "--tol", "1e-5"])
    assert code == EXIT_OK
    obj = json.loads((out / "critical.json").read_text())
    assert obj["mu_c"] == pytest.approx(0.18701889, abs=1e-4)
    assert obj["trace"]


def test_critical_tol_below_float_spacing(tmp_path):
    out = tmp_path / "o"
    assert main(["critical", "--J", "1.0", "--alpha", "0.5", "--out", str(out),
                 "--tol", "1e-300"]) == EXIT_OK
    obj = json.loads((out / "critical.json").read_text())
    assert obj["mu_c"] == pytest.approx(0.80029555, abs=1e-5) and len(obj["trace"]) <= 66


def test_invalid_tol_rejected(tmp_path):
    for tol in ("-1", "nan", "inf"):
        code = main(["critical", "--J", "1.0", "--alpha", "0.5",
                     "--out", str(tmp_path / "o"), "--tol", tol])
        assert code == EXIT_VALIDATION
    assert main(["validate", "--out", str(tmp_path / "v"), "--tol", "inf"]) \
        == EXIT_VALIDATION
    assert not (tmp_path / "o").exists() and not (tmp_path / "v").exists()


# -- validate ------------------------------------------------------------------

def test_validate_passes(tmp_path):
    out = tmp_path / "o"
    assert main(["validate", "--out", str(out)]) == EXIT_OK
    rep = json.loads((out / "validate.json").read_text())
    assert rep["passed"]
    # every residual of the verifier suite, bit for bit
    assert hashlib.sha256((out / "validate.json").read_bytes()).hexdigest() == \
        "668da797ebb1931ac7d947b43e046ba8c840469f8a1b38723d5ac0237a5a214d"


def test_validation_suite_contents():
    rep = run_validation_suite()
    assert rep["passed"]
    names = {c["system"] for c in rep["systems"]}
    assert len(names) >= 12
    # the deliberate-perturbation and percolation fixtures must be present
    # and must have been detected as violations
    assert any("perturb" in n for n in names)
    assert any("mandelbrot" in n for n in names)


# -- diagnose ------------------------------------------------------------------

def test_diagnose_builtin_tables(tmp_path):
    out = tmp_path / "o"
    assert main(["diagnose", "--out", str(out)]) == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert any("fragmentation" in n for n in names)
    assert any("condensation" in n for n in names)


# -- inputs that must fail with a message, not a traceback -----------------------

NO_START_SCALE = {"kind": "homogeneous", "d": 1, "table": {"0": 1.0, "-1": 0.8},
                  "tail_down": {"kind": "geometric", "ratio": 0.3}}
CORRELATE = ["correlate", "--window", "0:(0)", "--depth", "2", "--seed", "1", "--samples", "10"]
NO_DECAY = "condition (ii) is 'fails' (designed effective activities do not decay " \
    "(tail ratio 1.0 >= 1))"
NO_DOWNWARD = "downward activity mass does not decay; partition functions are " \
    "infinite (condition (i) fails for this model)"


@pytest.mark.parametrize("obj,argv,code,err", [
    (None, ["diagnose", "--depth", "-1"], EXIT_VALIDATION,
     "error: --depth must be >= 0, got -1"),
    (PARAMETRIC, [*CORRELATE, "--jmax", "-3"], EXIT_VALIDATION,
     "error: --jmax must be >= 0, got -3"),
    (PARAMETRIC, ["sample", "--window", "0:(0)", "--depth", "-1", "--seed", "1"],
     EXIT_VALIDATION, "error: depth must be >= 0, got -1"),
    (CONDENSING, ["sample", "--window", "0:(0)", "--depth", "1", "--seed", "1", "--infinite"],
     EXIT_UNDECIDED, f"refused: infinite-volume sampling refused: {NO_DECAY}"),
    (PARAMETRIC, ["analyze", "--jmax", "-3"], EXIT_VALIDATION,
     "error: j_max -3 lies below the profile's first scale 0"),
    ({**PARAMETRIC, "d": 2}, ["analyze", "--jmax", "600"], EXIT_UNDECIDED,
     "error (overflow, known defect): int too large to convert to float"),
    (NO_START_SCALE, ["analyze"], EXIT_UNDECIDED, f"refused: {NO_DOWNWARD}"),
    (NO_START_SCALE, ["diagnose"], EXIT_UNDECIDED, f"refused: {NO_DOWNWARD}"),
    (CONDENSING, CORRELATE, EXIT_UNDECIDED, f"refused: decay profile refused: {NO_DECAY}"),
], ids=["diagnose-depth", "correlate-jmax", "sample-depth", "sample-infinite-refused",
        "analyze-jmax", "analyze-overflow", "analyze-start-scale", "diagnose-start-scale",
        "correlate-decay-refused"])
def test_failed_runs_write_nothing(tmp_path, capsys, obj, argv, code, err):
    # a command that raises writes no file: no output directory is made
    out = tmp_path / "o"
    model = [] if obj is None else ["--model", write_model(tmp_path, obj)]
    assert main([*argv, *model, "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{err}\n"
    assert not out.exists()


TWO_SCALES = {"kind": "homogeneous", "d": 1, "M": 2, "table": {"0": 0.5, "-1": 0.4}}


@pytest.mark.parametrize("obj,argv", [
    # theta* divides by M**(d j) past the float range: the volume saturates
    ({**TWO_SCALES, "tail_up": {"kind": "geometric", "ratio": 0.5}},
     ["analyze", "--jmax", "1100"]),
    # so does the decay table's M**(-d j) log R_j, for even and odd M
    (TWO_SCALES, [*CORRELATE, "--jmax", "1100"]),
    ({**TWO_SCALES, "M": 3}, [*CORRELATE, "--jmax", "700"]),
], ids=["analyze-theta-star", "correlate-M2", "correlate-M3"])
def test_runs_past_the_float_range_of_the_volume(tmp_path, capsys, obj, argv):
    out = tmp_path / "o"
    assert main([*argv, "--model", write_model(tmp_path, obj), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    texts = [p.read_text() for p in sorted(out.iterdir())]
    assert texts and not any(re.search(r"\bnan\b", t, re.IGNORECASE) for t in texts)


def cli_env():
    """The environment of a child Python that imports this `hiercubes`."""
    src = str(Path(hiercubes.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "hiercubes.cli", *argv],
                          capture_output=True, text=True, env=cli_env(), timeout=120)


def test_one_parser_serves_every_call(tmp_path, capsys):
    # a flag or an error of one call must not reach the next: each call
    # writes what a fresh process writes
    assert build_parser() is build_parser()
    m = write_model(tmp_path, {**PARAMETRIC, "mu": 0.0})
    critical = ["critical", "--J", "1.0", "--alpha", "0.5"]
    no_seed = ["sample", "--model", m, "--window", "0:(0)", "--depth", "2"]
    sample = no_seed + ["--samples", "6", "--seed", "11", "--format", "csv,json,svg"]
    calls = [critical + ["--tol", "1e-6"], critical, sample + ["--infinite"], sample,
             no_seed, critical]
    codes = []
    for k, argv in enumerate(calls):
        here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
        try:
            code = main(argv + ["--out", str(here)])
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
        err = capsys.readouterr().err
        res = run_cli(*argv, "--out", str(fresh))
        assert (code, err) == (res.returncode, res.stderr)
        files = sorted(p.name for p in fresh.iterdir()) if fresh.exists() else []
        assert files == (sorted(p.name for p in here.iterdir()) if here.exists() else [])
        for name in files:
            assert (here / name).read_bytes() == (fresh / name).read_bytes()
    assert codes == [EXIT_OK] * 4 + [2, EXIT_OK]


def test_flags_of_each_subcommand():
    # 30 settable values: --format only where sample reads it, --tol only
    # where analyze, critical and validate read it
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {name: sorted(o for a in p._actions for o in a.option_strings
                          if o not in ("-h", "--help"))
             for name, p in sub.choices.items()}
    assert flags == {
        "analyze": ["--jmax", "--model", "--out", "--tol"],
        "sample": ["--depth", "--format", "--infinite", "--model", "--out", "--samples",
                   "--seed", "--window"],
        "correlate": ["--depth", "--jmax", "--model", "--out", "--samples", "--seed",
                      "--window"],
        "critical": ["--J", "--M", "--alpha", "--d", "--out", "--tol"],
        "validate": ["--out", "--tol"],
        "diagnose": ["--depth", "--model", "--out"],
    }


@pytest.mark.parametrize("obj,says", [
    ({k: v for k, v in UNIT_DEPTH8.items() if k != "d"}, "'d'"),
    ([1, 2], "a model must be a dict"),
    ({**UNIT_DEPTH8, "table": [1, 2]}, "'table' must be a dict"),
    ({"kind": "volume_truncated", "window": 5, "inner": UNIT_DEPTH8},
     "'window' must be a str"),
    ({"kind": "scale_truncated", "depth": 2, "inner": 7}, "a model must be a dict"),
    ({**UNIT_DEPTH8, "tail_down": 3}, "wrong type"),
    ({**UNIT_DEPTH8, "d": None}, "wrong type"),
    (None, "Is a directory"),
    ({"kind": "homogeneous", "d": 1, "M": 2, "table": {"0": 1.0},
      "tail_down": {"kind": "bogus", "ratio": 0.5}}, "unknown tail rule 'bogus'"),
], ids=["no-dimension", "top-level-list", "table-list", "window-int", "inner-int",
        "tail-int", "dimension-null", "directory", "tail-kind"])
def test_malformed_model_is_rejected(tmp_path, obj, says):
    m = str(tmp_path) if obj is None else write_model(tmp_path, obj)
    res = run_cli("analyze", "--model", m, "--out", str(tmp_path / "o"))
    assert res.returncode == EXIT_VALIDATION
    assert "Traceback" not in res.stderr and says in res.stderr


@pytest.mark.parametrize("command,extra", [
    ("sample", ["--format", "svg"]),
    ("correlate", []),
], ids=["sample-svg", "correlate"])
def test_zero_samples_rejected(tmp_path, command, extra):
    m = write_model(tmp_path, UNIT_DEPTH8)
    res = run_cli(command, "--model", m, "--out", str(tmp_path / "o"),
                  "--window", "0:(0)", "--depth", "2", "--seed", "1",
                  "--samples", "0", *extra)
    assert res.returncode == EXIT_VALIDATION
    assert "Traceback" not in res.stderr and "samples" in res.stderr


@pytest.mark.parametrize("command,extra", [
    ("sample", ["--samples", "3"]),
    ("sample", ["--samples", "3", "--infinite"]),
    ("correlate", ["--samples", "10"]),
    # later flags win: at depth 0 no distance pair exists, so no system is built
    ("correlate", ["--samples", "10", "--window", "0:(0)", "--depth", "0"]),
], ids=["sample", "sample-infinite", "correlate", "correlate-depth0"])
def test_window_of_another_dimension_rejected(tmp_path, command, extra):
    m = write_model(tmp_path, {**PARAMETRIC, "d": 2})
    res = run_cli(command, "--model", m, "--out", str(tmp_path / "o"),
                  "--window", "1:(0)", "--depth", "2", "--seed", "1", *extra)
    assert res.returncode == EXIT_VALIDATION
    assert "Traceback" not in res.stderr and "dimension" in res.stderr


@pytest.mark.parametrize("obj,says", [
    ({"kind": "explicit", "d": 1, "M": 2, "entries": {"-5:(0,0)": 1.0, "0:(1)": 2.0},
      "default": 0.0}, "entry -5:(0,0) has dimension 2, not the model's 1"),
    ({"kind": "volume_truncated", "window": "1:(0,0)",
      "inner": {"kind": "explicit", "d": 1, "M": 2, "entries": {}, "default": 0.5}},
     "window 1:(0,0) has dimension 2, not the model's 1"),
], ids=["explicit-entry", "volume-window"])
def test_activity_data_of_another_dimension_rejected(tmp_path, obj, says):
    m = write_model(tmp_path, obj)
    res = run_cli("analyze", "--model", m, "--out", str(tmp_path / "o"))
    assert res.returncode == EXIT_VALIDATION
    assert "Traceback" not in res.stderr and f"error: {says}" in res.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,says", [
    # critical names J: it gives no mu, so none may appear in the message
    (["critical", "--J", "nan", "--alpha", "0.5"], "error: J must be finite, got J=nan\n"),
    (["critical", "--J=-inf", "--alpha", "0.5"], "error: J must be finite, got J=-inf\n"),
    (["analyze", "--model", {**PARAMETRIC, "mu": math.nan}], "error: mu and J must be finite"),
    (["analyze", "--model", {**PARAMETRIC, "J": math.inf}], "error: mu and J must be finite"),
], ids=["critical-J-nan", "critical-J-minus-inf", "analyze-mu-nan", "analyze-J-inf"])
def test_non_finite_parametric_rejected(tmp_path, argv, says):
    # json writes NaN and Infinity, which the model loader reads back
    argv = [write_model(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    res = run_cli(*argv, "--out", str(tmp_path / "o"))
    assert res.returncode == EXIT_VALIDATION
    assert "Traceback" not in res.stderr and says in res.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("J,alpha,says", [
    ("inf", "0.5", "J must be finite, got J=inf"),
    ("1.0", "0", "alpha must lie in (0,1), got alpha=0.0"),
    ("1.0", "1.5", "alpha must lie in (0,1), got alpha=1.5"),
    ("1.0", "nan", "alpha must lie in (0,1), got alpha=nan"),
], ids=["J-inf", "alpha-0", "alpha-above-1", "alpha-nan"])
def test_critical_names_the_bad_argument(tmp_path, capsys, J, alpha, says):
    out = tmp_path / "o"
    assert main(["critical", "--J", J, "--alpha", alpha, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {says}\n"
    assert not out.exists()


@pytest.mark.parametrize("obj,argv,says", [
    # the downward tail decays but its start scale is not found: refused
    ({"kind": "homogeneous", "d": 1, "table": {"0": 1.0, "-1": 0.8},
      "tail_down": {"kind": "geometric", "ratio": 0.3}}, ["analyze"], "refused"),
    ({"kind": "homogeneous", "d": 1, "table": {"0": 1.0, "-1": 0.8},
      "tail_down": {"kind": "geometric", "ratio": 0.3}}, ["diagnose"], "refused"),
    # M**(d j) overflows a float at scale 600 in d=2: a defect, not a refusal
    ({**PARAMETRIC, "d": 2}, ["analyze", "--jmax", "600"], "overflow, known defect"),
], ids=["analyze-start-scale", "diagnose-start-scale", "analyze-overflow"])
def test_library_refusals_exit_undecided(tmp_path, obj, argv, says):
    m = write_model(tmp_path, obj)
    res = run_cli(argv[0], "--model", m, "--out", str(tmp_path / "o"), *argv[1:])
    assert res.returncode == EXIT_UNDECIDED
    assert "Traceback" not in res.stderr and says in res.stderr
    assert not (tmp_path / "o").exists()


# -- fuzz ----------------------------------------------------------------------

# what a model JSON may hold in place of a value: every value outside the
# schema that json carries, and a missing key
BAD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, "x", "1.0", [1.0], {}, True,
                              -1, -0.5, 10**400, None, KeyError])


def json_slots(obj):
    """(dict, key) of every value of a JSON object, nested ones included."""
    for key, value in obj.items():
        yield obj, key
        if isinstance(value, dict):
            yield from json_slots(value)


def block_strings(d):
    return st.builds(lambda j, i: f"{j}:({','.join(map(str, i))})", st.integers(-1, 2),
                     st.lists(st.integers(0, 3), min_size=d, max_size=d))


def fuzz_windows(d):
    """Window strings: of dimension d, of the other one, or malformed."""
    return st.sampled_from([d, d, d, d, d, d, 3 - d, 0]).flatmap(
        lambda n: block_strings(n) if n else st.sampled_from(["x", "0:(-1)", "0:()", "1:(0"]))


def fuzz_models(d, M):
    """Model JSON of all six kinds with geometry (d, M), truncations nested
    up to three deep."""
    values = st.floats(0.0, 3.0)
    tails = st.one_of(st.none(), st.just({"kind": "zero"}),
                      st.builds(lambda r: {"kind": "geometric", "ratio": r}, st.floats(0.05, 2.0)))
    tables = st.dictionaries(st.integers(-3, 2).map(str), values, max_size=4)
    geometry = {"d": st.just(d), "M": st.just(M)}
    plain = st.one_of(
        st.fixed_dictionaries({"kind": st.just("homogeneous"), **geometry, "table": tables,
                               "tail_down": tails, "tail_up": tails}),
        st.fixed_dictionaries({"kind": st.just("parametric"), **geometry,
                               "mu": st.floats(-2.0, 1.0), "J": st.floats(0.0, 2.0),
                               "alpha": st.floats(0.05, 0.95)}),
        st.fixed_dictionaries({"kind": st.just("explicit"), **geometry,
                               "entries": st.dictionaries(block_strings(d), values, max_size=3),
                               "default": st.sampled_from([0.0, 0.5])}),
        st.fixed_dictionaries({"kind": st.just("effective"), **geometry,
                               "zhat_table": tables, "zhat_tail_up": tails}))
    return st.recursive(plain, lambda inner: st.one_of(
        st.fixed_dictionaries({"kind": st.just("volume_truncated"),
                               "window": block_strings(d), "inner": inner}),
        st.fixed_dictionaries({"kind": st.just("scale_truncated"),
                               "depth": st.integers(-2, 4), "inner": inner})),
        max_leaves=3)


@st.composite
def fuzz_runs(draw):
    """A model JSON, one in three with a value replaced from BAD_VALUES or
    missing, and the flags of analyze, sample (finite and infinite volume),
    correlate or diagnose.  Systems have at most 9**4 blocks; a flag may be
    no integer, which argparse refuses with exit 2."""
    d, M = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    obj = draw(fuzz_models(d, M))
    if draw(st.sampled_from([False, False, True])):
        parent, key = draw(st.sampled_from(list(json_slots(obj))))
        bad = draw(BAD_VALUES)
        if bad is KeyError:
            del parent[key]
        else:
            parent[key] = bad
    depth = draw(st.sampled_from(["-1", "0", "1", "1", "2", "2", "2", "x"]))
    jmax = draw(st.one_of(st.integers(-3, 70), st.sampled_from([600, 1100])).map(str))
    system = ["--window", draw(fuzz_windows(d)), "--depth", depth,
              "--seed", str(draw(st.integers(0, 9)))]
    command = draw(st.sampled_from(["analyze", "sample", "correlate", "diagnose"]))
    if command == "analyze":
        argv = ["--jmax", jmax]
    elif command == "sample":
        argv = system + ["--samples", str(draw(st.integers(1, 3))),
                         "--format", draw(st.sampled_from(["csv,json,svg", "json"]))]
        argv += draw(st.sampled_from([[], ["--infinite"]]))
    elif command == "correlate":
        argv = system + ["--samples", str(draw(st.integers(1, 20))), "--jmax", jmax]
    else:
        argv = ["--depth", depth]
    return obj, [command, *argv]


# every run of the fuzz below took under 1.1 s in 30,000 examples
RUN_SECONDS = 10

# reads one JSON argv a line, runs cli.main on it, and answers one JSON line,
# [the exit code] (argparse's SystemExit included) or [the traceback of any
# other exception]; what main prints goes to stderr
CLI_WORKER = """
import json, os, sys, traceback
from hiercubes.cli import main
answers = os.fdopen(os.dup(1), "w")
os.dup2(2, 1)
for line in sys.stdin:
    try:
        code = main(json.loads(line))
    except SystemExit as exc:
        code = exc.code
    except BaseException:
        code = traceback.format_exc()
    answers.write(json.dumps([code]) + "\\n")
    answers.flush()
"""


@pytest.fixture
def cli_worker():
    """`run(argv)`: the answer of CLI_WORKER to `argv`, from a process kept
    for the next call, or None if it gave no answer in RUN_SECONDS;
    that process is then killed, so no input can hang the suite, even one
    stuck inside a single C call, where no signal handler runs."""
    procs = []

    def run(argv):
        if not procs:
            procs.append(subprocess.Popen(
                [sys.executable, "-c", CLI_WORKER], env=cli_env(), text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL))
        proc = procs[0]
        proc.stdin.write(json.dumps(argv) + "\n")
        proc.stdin.flush()
        if select.select([proc.stdout], [], [], RUN_SECONDS)[0]:
            return json.loads(proc.stdout.readline())
        procs.pop().kill()
        with proc:   # closes its pipes and waits for it
            pass
        return None

    yield run
    for proc in procs:
        with proc:
            proc.stdin.close()   # the end of its input ends its loop


# no shrink phase: each run costs up to a second, so shrinking a failure
# could take minutes; the failing input is reported as drawn
@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_runs())
def test_no_input_reaches_a_traceback(tmp_path, cli_worker, run):
    # every run ends in an exit code, argparse's SystemExit(2) included,
    # within RUN_SECONDS; an exception's traceback, or no answer, fails
    obj, argv = run
    here = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    here.mkdir()
    m = write_model(here, obj)
    answer = cli_worker([argv[0], "--model", m, "--out", str(here / "out"), *argv[1:]])
    assert answer is not None, f"cli.main gave no answer in {RUN_SECONDS} s"
    code, = answer
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_UNDECIDED), code
