"""Config parsing, pipeline reports, plot dumps and CLI exit codes."""
import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from specthresh import cli
from specthresh.cli import (RunConfig, emit_plot_data, load_config, main,
                            run_pipeline)


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


def test_run_pipeline_records_stage_errors(tmp_path):
    path = _write(tmp_path, "cfg.json", {
        "model": {"factory": "free", "resolution": 4},
        "stages": ["resonance_scan"],
        "scan_window": [-1.0, 2.0]})
    rep = run_pipeline(load_config(path))
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


def test_emit_plot_data_contour(tmp_path, regular_config):
    rep = run_pipeline(load_config(regular_config))
    path = emit_plot_data(rep, "contour", tmp_path / "plots")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re,im,segment"
    assert len(lines) > 100


def test_emit_plot_data_requires_stage(tmp_path, regular_config):
    cfg = load_config(regular_config)
    cfg.stages = ["classify"]
    rep = run_pipeline(cfg)
    with pytest.raises(ValueError, match="propagate"):
        emit_plot_data(rep, "decay", tmp_path)
    with pytest.raises(ValueError, match="unknown plot kind"):
        emit_plot_data(rep, "sparkline", tmp_path)


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
