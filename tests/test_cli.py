"""Config parsing, pipeline reports, plot dumps, CLI exit codes and the
modules a pipeline loads."""
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from specthresh import cli, kernels
from specthresh.cli import (RunConfig, emit_plot_data, load_config, main,
                            run_pipeline)
from specthresh.symmetry import ReflectionGroup


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def regular_config(tmp_path):
    return _write(tmp_path, "cfg.json", {
        "model": {"factory": "regular", "extent": 3.0, "resolution": 6},
        "stages": ["classify", "threshold_expand"],
        "seed": 1,
    })


# --------------------------------------------------------------------------
# config loading

def test_load_config_roundtrip(regular_config):
    cfg = load_config(regular_config)
    assert cfg.model["factory"] == "regular"
    assert cfg.stages == ["classify", "threshold_expand"]
    assert cfg.seed == 1
    assert len(cfg.digest()) == 12


def test_digest_covers_every_run_setting(regular_config):
    base = load_config(regular_config)
    for key, value in (("scan_window", [0.5, 2.0]), ("weight_s", 2.5),
                       ("t_ladder", [10.0, 100.0])):
        cfg = load_config(regular_config)
        setattr(cfg, key, value)
        assert cfg.digest() != base.digest(), key


def test_unknown_config_key_rejected(tmp_path):
    path = _write(tmp_path, "bad.json", {
        "model": {"factory": "free"}, "stages": ["classify"], "bogus": 1})
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(path)


def test_unknown_model_key_rejected(tmp_path):
    path = _write(tmp_path, "bad.json", {
        "model": {"factory": "free", "colour": "red"},
        "stages": ["classify"]})
    with pytest.raises(ValueError, match="unknown model keys"):
        load_config(path)


@pytest.mark.parametrize("model", [
    {"factory": "first_kind", "formula": "x"},
    {"factory": "first_kind", "rho": 1.0},
    {"factory": "first_kind", "strength": [0.6, 0.25]},
    {"factory": "regular", "lam0": 1.0},
], ids=["formula", "rho", "strength_outside_regular",
        "lam0_outside_resonance"])
def test_model_key_no_factory_reads_exits_two(tmp_path, model):
    path = _write(tmp_path, "bad.json", {"model": model,
                                         "stages": ["classify"]})
    res = CliRunner().invoke(main, ["classify", "--config", path,
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert "unknown model keys" in res.output
    assert not (tmp_path / "out").exists()


def test_model_that_is_not_an_object_exits_two(tmp_path):
    path = _write(tmp_path, "bad.json", {"model": [], "stages": ["classify"]})
    res = CliRunner().invoke(main, ["classify", "--config", path])
    assert res.exit_code == 2, res.output
    assert "JSON object" in res.output


def test_factory_keys_accepted_where_read(tmp_path):
    for model in ({"factory": "regular", "strength": [0.6, 0.25]},
                  {"factory": "resonance", "lam0": 1.2}):
        path = _write(tmp_path, "cfg.json", {"model": model,
                                             "stages": ["classify"]})
        assert load_config(path).model == model


def test_unknown_stage_rejected(tmp_path):
    path = _write(tmp_path, "bad.json", {
        "model": {"factory": "free"}, "stages": ["transmogrify"]})
    with pytest.raises(ValueError, match="unknown stage"):
        load_config(path)


def test_stage_dependency_order_enforced(tmp_path):
    path = _write(tmp_path, "bad.json", {
        "model": {"factory": "free"},
        "stages": ["threshold_expand", "classify"]})
    with pytest.raises(ValueError, match="requires"):
        load_config(path)
    path = _write(tmp_path, "bad2.json", {
        "model": {"factory": "free"}, "stages": ["propagate"]})
    with pytest.raises(ValueError, match="requires"):
        load_config(path)


def test_model_spec_in_separate_file(tmp_path):
    mpath = _write(tmp_path, "model.json",
                   {"factory": "free", "resolution": 4})
    path = _write(tmp_path, "cfg.json",
                  {"model": str(mpath), "stages": ["classify"]})
    cfg = load_config(path)
    assert cfg.model["resolution"] == 4


# --------------------------------------------------------------------------
# pipeline

def test_run_pipeline_regular(regular_config):
    rep = run_pipeline(load_config(regular_config))
    assert rep.errors == []
    assert rep.stages["classify"]["kind"] == "regular"
    assert rep.all_passed
    assert set(rep.timings) == {"classify", "threshold_expand"}
    # report is JSON-serializable as produced
    json.dumps(rep.as_dict())


def test_run_pipeline_propagate_regular(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "model": {"factory": "regular", "extent": 3.0, "resolution": 4},
        "stages": ["classify", "threshold_expand", "propagate"]})
    rep = run_pipeline(load_config(path))
    assert rep.errors == []
    assert rep.stages["propagate"]["kind"] == "regular"
    assert rep.stages["propagate"]["slope_theory"] == -1.5


@pytest.fixture(scope="module")
def first4_report(tmp_path_factory):
    """The pipeline through propagate on first_kind at resolution 4."""
    path = _write(tmp_path_factory.mktemp("first4"), "cfg.json", {
        "model": {"factory": "first_kind", "extent": 3.0, "resolution": 4},
        "stages": ["classify", "threshold_expand", "propagate"]})
    return run_pipeline(load_config(path))


def test_pipeline_builds_one_discretization(monkeypatch):
    # one Discretization of the run's model; the factory's of its template
    # (`tune_coupling`) is not the run's
    builds, built = [], []
    init, build_model = cli.Discretization.__init__, cli._build_model

    def counted(self, model):
        builds.append(model)
        init(self, model)

    def recorded(spec):
        built.append(build_model(spec))
        return built[-1]

    monkeypatch.setattr(cli.Discretization, "__init__", counted)
    monkeypatch.setattr(cli, "_build_model", recorded)
    rep = run_pipeline(RunConfig(
        model={"factory": "first_kind", "extent": 3.0, "resolution": 4},
        stages=["classify", "threshold_expand", "propagate"]))
    assert rep.errors == []
    (model,) = built
    assert [m for m in builds if m is model] == [model]


_PROPAGATE = ["classify", "threshold_expand", "propagate"]


@pytest.mark.parametrize("factory, resolution, stages", [
    # resolution 5 puts nodes on the mirror planes, 6 does not
    ("first_kind", 6, _PROPAGATE), ("second_kind", 5, _PROPAGATE),
    ("regular", 6, _PROPAGATE),
    ("third_kind", 6, ["classify", "threshold_expand"]),
    ("resonance", 5, ["resonance_scan", "resonance_expand", "high_energy"]),
    ("free", 5, _PROPAGATE)])
def test_pipeline_stages_form_no_dense_operator(factory, resolution, stages,
                                                monkeypatch):
    # the factories assemble no n x n kernel but the third kind's one G_0
    # of its full-space check; the stages keep every operator as flat
    # sector blocks: with the n x n kernel assembly and both conversions
    # between n x n matrices and blocks made to raise, every stage runs and
    # passes its claims
    spec = {"factory": factory, "extent": 3.0, "resolution": resolution}
    assemblies = []
    nystrom = kernels._nystrom

    def counted(grid, rule):
        assemblies.append(grid.n)
        return nystrom(grid, rule)

    monkeypatch.setattr(kernels, "_nystrom", counted)
    model = cli._build_model(spec)
    assert assemblies == ([model.grid.n] if factory == "third_kind" else [])

    def forbidden(*args, **kwargs):
        raise AssertionError("an n x n operator in a pipeline stage")

    monkeypatch.setattr(kernels, "_nystrom", forbidden)
    monkeypatch.setattr(ReflectionGroup, "blocks", forbidden)
    monkeypatch.setattr(ReflectionGroup, "expand", forbidden)
    monkeypatch.setattr(cli, "_build_model", lambda spec: model)
    with pytest.raises(AssertionError, match="n x n operator"):
        cli.Discretization(model).K0
    rep = run_pipeline(RunConfig(model=spec, stages=stages))
    assert rep.errors == []
    assert list(rep.stages) == stages and rep.all_passed


def test_propagate_stage_records_census(first4_report):
    # first_kind at resolution 4 crosses one zero of M(k) (weight e^-13.9
    # at t = 10) and leaves one out below the weight cut
    rep = first4_report
    assert rep.errors == []
    report = json.loads(json.dumps(rep.as_dict()))
    census = report["stages"]["propagate"]["census"]
    assert census["winding"] == census["structural_order"] == 1
    assert census["t_min"] == 10.0 and census["tiles"] >= 8
    assert census["nodes"] >= 64 * (census["tiles"] + census["failed_tiles"])
    # beyond the pole ellipse's end (Re k = 6) only Im k <= 0.975 is
    # searched, and nothing beyond Re k = sqrt(40)
    assert census["unsearched"] == [
        {"re_k": [6.0, math.sqrt(40.0)], "im_k": [0.975, None]},
        {"re_k": [math.sqrt(40.0), None], "im_k": [None, None]}]
    # M(k) factored in the eight parity sectors of the 64-node grid, in
    # four classes of equivalent blocks under the five axis permutations
    perms = [[1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1]]
    assert report["symmetry"] == {
        "order": 8, "grid_order": 8, "sector_sizes": [8] * 8,
        "max_v_deviation": 0.0, "broken_by_v": [],
        "permutations": [{"axes": p, "v_deviation": 0.0} for p in perms],
        "sector_classes": [0, 1, 1, 3, 1, 3, 3, 7]}
    # the -1 cluster of K0 lies in the trivial character
    assert report["stages"]["classify"]["sector_counts"] == [1] + [0] * 7
    assert report["stages"]["threshold_expand"]["chain_sectors"] == [0]
    (crossed,) = census["crossed"]
    assert set(crossed) == {"k", "z", "weight", "residue_norm"}
    assert crossed["weight"] >= census["weight_cut"] > 0
    assert all(z["weight"] < census["weight_cut"]
               for z in census["left_out"])


def test_propagate_stage_names_embedded_resonance(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "model": {"factory": "resonance", "extent": 3.0, "resolution": 4},
        "stages": ["classify", "threshold_expand", "propagate"]})
    rep = run_pipeline(load_config(path))
    assert len(rep.errors) == 1
    assert re.match(r"propagate: ValueError at .*propagator\.py:\d+: real "
                    r"zero of M\(k\) on the path: an embedded resonance at "
                    r"lambda0 = 1$", rep.errors[0])


def test_run_pipeline_records_stage_errors():
    # the config loader rejects this window; the scan's own check is the
    # stage error recorded here
    rep = run_pipeline(RunConfig(model={"factory": "free", "resolution": 4},
                                 stages=["resonance_scan"],
                                 scan_window=[-1.0, 2.0]))
    assert len(rep.errors) == 1
    # stage, exception type and the innermost frame's file:line
    assert re.match(r"resonance_scan: ValueError at .*birman_schwinger\.py:\d+: "
                    r"scan interval", rep.errors[0])
    assert not rep.all_passed


def test_propagate_stage_needs_threshold_coefficients(tmp_path, monkeypatch):
    # with the threshold expansion failing, propagate must record an error,
    # not fit the free kernel's t^-3/2 decay to a non-zero potential
    def fail(*args, **kwargs):
        raise RuntimeError("expansion failed")

    monkeypatch.setattr(cli, "threshold_resolvent_expansion", fail)
    path = _write(tmp_path, "cfg.json", {
        "model": {"factory": "first_kind", "extent": 3.0, "resolution": 4},
        "stages": ["classify", "threshold_expand", "propagate"]})
    rep = run_pipeline(load_config(path))
    assert [e.split(":")[0] for e in rep.errors] == ["threshold_expand",
                                                     "propagate"]
    assert re.match(r"propagate: ValueError at .*propagator\.py:\d+: "
                    r"no threshold coefficients", rep.errors[1])
    assert "propagate" not in rep.stages
    assert not rep.all_passed


def test_h3_is_recorded_per_resonance_expansion(tmp_path, monkeypatch):
    # H3 is checked at each expanded resonance, on the B matrix of its
    # expansion, and is a claim of the resonance_expand stage; classify
    # records H1 and H2 only, not an unchecked H3
    path = _write(tmp_path, "cfg.json", {
        "model": {"factory": "resonance", "extent": 3.0, "resolution": 4},
        "stages": ["classify", "resonance_scan", "resonance_expand"]})
    res = CliRunner().invoke(main, ["report", "--config", path,
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    stages = json.loads((tmp_path / "out" / "report.json").read_text())[
        "stages"]
    assert stages["classify"]["hypotheses"] == {"H1": True, "H2": True}
    (rec,) = stages["resonance_expand"]["expansions"]
    det_b = complex(rec["det_B"]["re"], rec["det_B"]["im"])
    assert rec["H3"] is True and abs(det_b) > cli.HYPOTHESIS_DET_TOL
    assert stages["resonance_expand"]["claims"] == [
        {"name": "hypothesis_H3", "tolerance": cli.HYPOTHESIS_DET_TOL,
         "pass": True}]
    # a singular B fails the claim and the run
    real = cli.resonance_resolvent_expansion

    def singular_b(disc, lam0):
        rc = real(disc, lam0)
        rc.constants["B"] = np.zeros_like(rc.constants["B"])
        return rc

    monkeypatch.setattr(cli, "resonance_resolvent_expansion", singular_b)
    rep = run_pipeline(load_config(path))
    (rec,) = rep.stages["resonance_expand"]["expansions"]
    assert rec["H3"] is False and not rep.all_passed


def test_emit_plot_data_contour(tmp_path, first4_report):
    # the k-plane geometry of the run's census: the winding circle, the pole
    # ellipse, the census tiles and the line nodes at t_min = 10,
    # and the crossed and left-out zeros
    path = emit_plot_data(first4_report, "contour", tmp_path / "plots")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re,im,segment"
    rows = [line.split(",") for line in lines[1:]]
    labels = {seg for _, _, seg in rows}
    assert {"winding_circle", "pole_ellipse", "census_tile_0", "census_tile_7",
            "line_nodes", "crossed_zero", "left_out_zero"} <= labels
    census = first4_report.stages["propagate"]["census"]
    (crossed,) = census["crossed"]
    (row,) = [r for r in rows if r[2] == "crossed_zero"]
    assert complex(float(row[0]), float(row[1])) == complex(
        crossed["k"]["re"], crossed["k"]["im"])
    nodes = [complex(float(re), float(im)) for re, im, seg in rows
             if seg == "line_nodes"]
    assert len(nodes) == 32          # on the line k = s e^{-i pi/4}
    assert max(abs(k.real + k.imag) for k in nodes) <= 1e-12


def test_emit_plot_data_requires_stage(tmp_path, regular_config):
    cfg = load_config(regular_config)
    cfg.stages = ["classify"]
    rep = run_pipeline(cfg)
    for kind in ("decay", "contour"):
        with pytest.raises(ValueError, match="no propagate stage"):
            emit_plot_data(rep, kind, tmp_path)
    with pytest.raises(ValueError, match="unknown plot kind"):
        emit_plot_data(rep, "sparkline", tmp_path)
    # the free model's propagate stage uses the free kernel: no census
    free = run_pipeline(RunConfig(model={"factory": "free", "resolution": 4},
                                  stages=["propagate"]))
    assert free.errors == []
    with pytest.raises(ValueError, match="propagate stage recorded no census"):
        emit_plot_data(free, "contour", tmp_path)
    assert emit_plot_data(free, "decay", tmp_path).exists()


def test_cli_report_default_kinds_follow_the_recorded_stages(tmp_path,
                                                             regular_config):
    # no --kind: every plot whose stage ran, and no plot error for the
    # contour of a run without propagate
    res = CliRunner().invoke(
        main, ["report", "--config", regular_config,
               "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert "plot error" not in res.output
    assert sorted(p.name for p in (tmp_path / "out").glob("*.csv")) == [
        "det_scaling.csv"]


# --------------------------------------------------------------------------
# command line

def test_cli_classify_exit_zero(tmp_path, regular_config):
    runner = CliRunner()
    res = runner.invoke(main, ["classify", "--config", regular_config,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["stages"]["classify"]["kind"] == "regular"


def test_cli_config_error_exit_two(tmp_path):
    bad = _write(tmp_path, "bad.json", {
        "model": {"factory": "free"}, "stages": ["propagate"]})
    runner = CliRunner()
    res = runner.invoke(main, ["classify", "--config", bad])
    assert res.exit_code == 2
    assert "config error" in res.output


@pytest.mark.parametrize("ladder", [
    [10.0], [10.0, 10.0], [100.0, 10.0, 1000.0], [10.0, float("inf")],
    [10.0, float("nan")], [0.0, 10.0], [-10.0, 10.0], "10, 100",
    [[10.0, 100.0]]],
    ids=["one_time", "repeated", "unsorted", "infinite", "nan", "zero",
         "negative", "string", "nested"])
def test_cli_rejects_a_degenerate_t_ladder(tmp_path, ladder):
    # the decay fit needs two times, and the last one is the t_max the
    # coefficient is checked at
    path = _write(tmp_path, "cfg.json", {
        "model": {"factory": "first_kind", "resolution": 4},
        "stages": ["classify", "threshold_expand", "propagate"],
        "t_ladder": ladder})
    with pytest.raises(ValueError, match="t_ladder"):
        load_config(path)
    res = CliRunner().invoke(main, ["propagate", "--config", path,
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("weight_s", float("nan")), ("weight_s", float("inf")), ("weight_s", 0.0),
    ("weight_s", -3.0), ("weight_s", "three"),
    ("scan_window", [3.0, 0.3, 5]), ("scan_window", [3.0, 0.3]),
    ("scan_window", [0.0, 3.0]), ("scan_window", [0.3, float("inf")]),
    ("scan_window", [0.3, float("nan")]), ("scan_window", "0.3, 3")],
    ids=["weight_nan", "weight_inf", "weight_zero", "weight_negative",
         "weight_string", "window_three", "window_reversed", "window_zero",
         "window_infinite", "window_nan", "window_string"])
def test_cli_rejects_a_bad_weight_or_scan_window(tmp_path, key, value):
    path = _write(tmp_path, "cfg.json", {
        "model": {"factory": "free", "resolution": 4},
        "stages": ["resonance_scan"], key: value})
    with pytest.raises(ValueError, match=key):
        load_config(path)
    res = CliRunner().invoke(main, ["scan", "--config", path,
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output
    assert not (tmp_path / "out").exists()


def test_config_keeps_an_increasing_t_ladder(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "model": {"factory": "first_kind", "resolution": 4},
        "stages": ["classify"], "t_ladder": [10, 31.6, 100.0]})
    assert load_config(path).t_ladder == [10.0, 31.6, 100.0]


def test_cli_bad_tol_usage(tmp_path, regular_config):
    runner = CliRunner()
    res = runner.invoke(main, ["classify", "--config", regular_config,
                               "--tol", "oops"])
    assert res.exit_code != 0


def test_config_rejects_unknown_tolerance(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "model": {"factory": "first_kind", "resolution": 5},
        "stages": ["classify"], "tolerances": {"clustr_tol": 1e-3}})
    with pytest.raises(ValueError, match="clustr_tol"):
        load_config(path)
    res = CliRunner().invoke(main, ["classify", "--config", path,
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol", ["cluster_tol=-1", "cluster_tol=nan"])
def test_cli_rejects_non_positive_tolerance(tmp_path, tol):
    path = _write(tmp_path, "cfg.json", {
        "model": {"factory": "first_kind", "resolution": 5},
        "stages": ["classify"]})
    res = CliRunner().invoke(main, ["classify", "--config", path, "--tol", tol,
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert not (tmp_path / "out").exists()


def test_cli_failing_claim_exit_one(tmp_path):
    # at resolution 6 the r=0 high-energy fit is under-resolved and the
    # claim fails; the run must complete and signal failure via exit code 1
    cfg = _write(tmp_path, "cfg.json", {
        "model": {"factory": "regular", "extent": 3.0, "resolution": 6},
        "stages": ["high_energy"]})
    runner = CliRunner()
    res = runner.invoke(main, ["report", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    claims = report["stages"]["high_energy"]["claims"]
    assert any(not c["pass"] for c in claims)


def test_cli_env_var_output(tmp_path, regular_config, monkeypatch):
    monkeypatch.setenv("SPECTHRESH_OUT", str(tmp_path / "envout"))
    runner = CliRunner()
    res = runner.invoke(main, ["classify", "--config", regular_config])
    assert res.exit_code == 0
    assert (tmp_path / "envout" / "report.json").exists()


def test_resonance_expand_records_sector_counts(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "model": {"factory": "resonance", "extent": 3.0, "resolution": 4},
        "stages": ["resonance_scan", "resonance_expand"]})
    rep = run_pipeline(load_config(path))
    assert rep.errors == []
    (rec,) = rep.stages["resonance_expand"]["expansions"]
    assert rec["N0"] == 1 and rec["sector_counts"] == [1] + [0] * 7
    assert rec["chain_sectors"] == [0]


def _modules_loaded_by(model, stages):
    """sys.modules of a fresh interpreter that runs `model` through
    `stages`."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (
        "import json, sys\n"
        "from specthresh.cli import RunConfig, run_pipeline\n"
        f"report = run_pipeline(RunConfig(model={model!r}, "
        f"stages={stages!r}))\n"
        "assert not report.errors, report.errors\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_pipeline_set_up_imports_only_the_linalg_floor():
    # a fresh interpreter imports the CLI and builds a first-kind model with
    # no stages, or tunes a third-kind model and expands its threshold:
    # scipy's optimize, spatial, special and sparse stay unloaded
    for model, stages in [
            ({"factory": "first_kind", "resolution": 4}, []),
            ({"factory": "third_kind", "resolution": 5},
             ["classify", "threshold_expand"])]:
        loaded = _modules_loaded_by(model, stages)
        heavy = [m for m in loaded if ".".join(m.split(".")[:2]) in
                 ("scipy.optimize", "scipy.spatial", "scipy.special",
                  "scipy.sparse")]
        assert "scipy.linalg" in loaded and not heavy, (model, heavy)
