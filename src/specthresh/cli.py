"""
Batch front end: JSON run configs, the classify -> expand -> scan ->
propagate pipeline, machine-readable reports and plot-ready CSV dumps.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import click
import numpy as np

from . import models as model_factories
from .birman_schwinger import (HYPOTHESIS_DET_TOL, Discretization,
                               check_hypotheses, classify_zero,
                               scan_positive_resonances)
from .grushin import (resonance_resolvent_expansion,
                      threshold_resolvent_expansion)
from .model import Model, build_grid
from .propagator import census_geometry, check_high_energy, verify_large_time

__all__ = ["RunConfig", "RunReport", "load_config", "run_pipeline",
           "emit_plot_data", "main"]

STAGES = ["classify", "threshold_expand", "resonance_scan",
          "resonance_expand", "propagate", "high_energy"]
STAGE_DEPS = {
    "threshold_expand": ["classify"],
    "resonance_expand": ["resonance_scan"],
    "propagate": ["threshold_expand"],
}
_CONFIG_KEYS = {"model", "stages", "tolerances", "out", "seed",
                "scan_window", "weight_s", "t_ladder"}
_MODEL_KEYS = {"factory", "extent", "resolution"}
# factory -> (its function in `models`, looked up when called, and the keys
# only it reads: key -> (default, parse))
_FACTORIES = {
    "free": ("free_model", {}), "first_kind": ("first_kind_model", {}),
    "second_kind": ("second_kind_model", {}),
    "third_kind": ("third_kind_model", {}),
    "regular": ("regular_model", {"strength": (
        [0.6, 0.25], lambda st: complex(st[0], st[1]))}),
    "resonance": ("resonance_model", {"lam0": (1.0, float)})}
OUTPUT_ROOT_ENV = "SPECTHRESH_OUT"
# plot kind -> (stage, field of its record) the plot is drawn from
PLOT_SOURCES = {"decay": ("propagate", "rows"),
                "det_scaling": ("threshold_expand", "det_samples"),
                "contour": ("propagate", "census")}


@dataclass
class RunConfig:
    model: Dict
    stages: List[str]
    tolerances: Dict[str, float] = field(default_factory=dict)
    out: Optional[str] = None
    seed: int = 0
    scan_window: List[float] = field(default_factory=lambda: [0.3, 3.0])
    weight_s: float = 3.0
    t_ladder: Optional[List[float]] = None

    def digest(self) -> str:
        blob = json.dumps({"model": self.model, "stages": self.stages,
                           "tolerances": self.tolerances, "seed": self.seed,
                           "scan_window": self.scan_window,
                           "weight_s": self.weight_s,
                           "t_ladder": self.t_ladder},
                          sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class RunReport:
    config_hash: str
    seed: int
    stages: Dict[str, Dict] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    # the reflection group M(k) was factored in (Discretization.symmetry);
    # None when no stage factored M(k)
    symmetry: Optional[Dict] = None

    def as_dict(self) -> Dict:
        return {"config_hash": self.config_hash, "seed": self.seed,
                "stages": self.stages, "errors": self.errors,
                "timings": self.timings, "symmetry": self.symmetry}

    @property
    def all_passed(self) -> bool:
        if self.errors:
            return False
        for rec in self.stages.values():
            for claim in rec.get("claims", []):
                if not claim.get("pass", True):
                    return False
        return True


def _jsonable(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _positive(key: str, value) -> float:
    """value as a finite positive float."""
    try:
        val = float(value)
    except (TypeError, ValueError):
        val = np.nan
    if not (np.isfinite(val) and val > 0):
        raise ValueError(f"{key} must be finite and positive: {value!r}")
    return val


def _tolerance(key: str, value) -> float:
    """cluster_tol, the only run tolerance, as a finite positive float."""
    if key != "cluster_tol":
        raise ValueError(f"unknown tolerance {key!r} (only cluster_tol)")
    return _positive(key, value)


def _increasing(key: str, value, count: Optional[int] = None) -> List[float]:
    """value as strictly increasing, finite, positive floats: exactly
    `count` of them, or at least two."""
    try:
        ts = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        ts = np.zeros(0)
    if not (ts.ndim == 1 and (len(ts) == count if count else len(ts) >= 2)
            and np.all(np.isfinite(ts)) and ts[0] > 0
            and np.all(np.diff(ts) > 0)):
        raise ValueError(f"{key} must be {count or 'at least two'} strictly "
                         f"increasing, finite, positive numbers: {value!r}")
    return ts.tolist()


def load_config(path) -> RunConfig:
    with open(path) as fh:
        raw = json.load(fh)
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "model" not in raw or "stages" not in raw:
        raise ValueError("config needs 'model' and 'stages'")
    model = raw["model"]
    if isinstance(model, str):
        with open(model) as fh:
            model = json.load(fh)
    if not isinstance(model, dict):
        raise ValueError("model must be a JSON object or a path to one")
    factory = model.get("factory", "free")
    extra = _FACTORIES[factory][1] if factory in _FACTORIES else {}
    unknown = set(model) - _MODEL_KEYS - set(extra)
    if unknown:
        raise ValueError(f"unknown model keys for factory {factory!r}: "
                         f"{sorted(unknown)}")
    stages = list(raw["stages"])
    for st in stages:
        if st not in STAGES:
            raise ValueError(f"unknown stage {st!r}")
        for dep in STAGE_DEPS.get(st, []):
            if dep not in stages or stages.index(dep) > stages.index(st):
                raise ValueError(f"stage {st!r} requires {dep!r} first")
    tols = {key: _tolerance(key, val)
            for key, val in dict(raw.get("tolerances", {})).items()}
    return RunConfig(model=model, stages=stages, tolerances=tols,
                     out=raw.get("out"), seed=int(raw.get("seed", 0)),
                     scan_window=_increasing(
                         "scan_window", raw.get("scan_window", [0.3, 3.0]), 2),
                     weight_s=_positive("weight_s", raw.get("weight_s", 3.0)),
                     # the decay fit needs two times, and the last is the
                     # t_max the coefficient is checked at
                     t_ladder=(None if raw.get("t_ladder") is None else
                               _increasing("t_ladder", raw["t_ladder"])))


def _build_model(spec: Dict) -> Model:
    factory = spec.get("factory", "free")
    if factory not in _FACTORIES:
        raise ValueError(f"unknown model factory {factory!r}")
    name, keys = _FACTORIES[factory]
    grid = build_grid(float(spec.get("extent", 3.0)),
                      int(spec.get("resolution", 8)))
    return getattr(model_factories, name)(grid, **{
        key: parse(spec.get(key, default))
        for key, (default, parse) in keys.items()})


def run_pipeline(config: RunConfig) -> RunReport:
    report = RunReport(config_hash=config.digest(), seed=config.seed)
    disc = Discretization(_build_model(config.model))
    cluster_tol = float(config.tolerances.get("cluster_tol", 1e-6))
    ctx: Dict = {}

    for stage in config.stages:
        t0 = time.perf_counter()
        try:
            if stage == "classify":
                cls = classify_zero(disc, tol=cluster_tol)
                ctx["classification"] = cls
                hyp = check_hypotheses(disc, cls)
                report.stages[stage] = _jsonable({
                    "kind": cls.kind, "k": cls.k,
                    "sector_counts": (None if cls.detection is None else
                                      cls.detection.sector_counts),
                    "integral_marker": cls.integral_marker,
                    "marker_tol": cls.marker_tol,
                    "hypotheses": {k: hyp[k] for k in ("H1", "H2")},
                    "claims": [{"name": "hypotheses_hold",
                                "tolerance": HYPOTHESIS_DET_TOL,
                                "pass": bool(hyp["H1"] and hyp["H2"])}],
                })
            elif stage == "threshold_expand":
                coeffs = threshold_resolvent_expansion(
                    disc, ctx.get("classification"))
                ctx["threshold_coeffs"] = coeffs
                sc = coeffs.scaling
                order_ok = (sc.kind == "regular"
                            or abs(sc.order_fit - sc.order_structural) < 0.1)
                report.stages[stage] = _jsonable({
                    "kind": coeffs.kind,
                    "chain_sectors": (None if coeffs.basis is None else
                                      coeffs.basis.sectors),
                    "lidskii": {"order_structural": sc.order_structural,
                                "order_fit": sc.order_fit,
                                "constant_machinery": sc.constant_machinery,
                                "constant_fit": sc.constant_fit,
                                "constant_formula": sc.constant_formula},
                    "det_samples": sc.samples,
                    "remainder_samples": coeffs.remainder_samples,
                    "claims": [{"name": "lidskii_order", "tolerance": 0.1,
                                "pass": bool(order_ok)}],
                })
            elif stage == "resonance_scan":
                found = scan_positive_resonances(disc,
                                                 tuple(config.scan_window))
                ctx["resonances"] = found
                report.stages[stage] = _jsonable({
                    "window": config.scan_window, "found": found,
                    "claims": []})
            elif stage == "resonance_expand":
                recs = []
                for lam, _N in ctx.get("resonances", []):
                    rc = resonance_resolvent_expansion(disc, lam)
                    # H3: det(B_lam0(u_i, u_j)) != 0 over the resonance states
                    det_b = complex(np.linalg.det(rc.constants["B"]))
                    recs.append({"lam0": lam, "N0": rc.N0,
                                 "sector_counts": rc.detection.sector_counts,
                                 "chain_sectors": rc.basis.sectors,
                                 "sigma_machinery": rc.scaling.constant_machinery,
                                 "sigma_formula": rc.scaling.constant_formula,
                                 "det_B": det_b,
                                 "H3": abs(det_b) > HYPOTHESIS_DET_TOL})
                report.stages[stage] = _jsonable({
                    "expansions": recs,
                    "claims": [{"name": "hypothesis_H3",
                                "tolerance": HYPOTHESIS_DET_TOL,
                                "pass": all(r["H3"] for r in recs)}]})
            elif stage == "propagate":
                ladder = (np.asarray(config.t_ladder, dtype=float)
                          if config.t_ladder else None)
                rep = verify_large_time(disc, ctx.get("threshold_coeffs"),
                                        s=config.weight_s, t_ladder=ladder)
                slope_ok = abs(rep.slope_fit - rep.slope_theory) < 0.2
                report.stages[stage] = _jsonable({
                    "kind": rep.kind,
                    "slope_fit": rep.slope_fit,
                    "slope_theory": rep.slope_theory,
                    "r_squared": rep.r_squared,
                    "coeff_rel_err": rep.coeff_rel_err,
                    "limit_rel_err": rep.limit_rel_err,
                    "rows": rep.rows(),
                    "note": rep.note,
                    "census": rep.census,
                    "claims": [{"name": "decay_slope", "tolerance": 0.2,
                                "pass": bool(slope_ok)}],
                })
            elif stage == "high_energy":
                fits = check_high_energy(disc, s=config.weight_s,
                                         orders=(0, 1))
                report.stages[stage] = _jsonable({
                    "fits": [{key: he[key] for key in
                              ("r", "exponent", "bound", "pass")}
                             for he in fits],
                    "claims": [{"name": "high_energy_exponents",
                                "tolerance": 0.2,
                                "pass": all(he["pass"] for he in fits)}]})
        except Exception as exc:       # keep other branches alive
            where = traceback.extract_tb(exc.__traceback__)[-1]
            report.errors.append(f"{stage}: {type(exc).__name__} at "
                                 f"{where.filename}:{where.lineno}: {exc}")
        report.timings[stage] = time.perf_counter() - t0
    report.symmetry = _jsonable(disc.symmetry)
    return report


def emit_plot_data(report: RunReport, kind: str, outdir) -> Path:
    """Write `kind`.csv under outdir from the report record that
    PLOT_SOURCES names; ValueError for an unknown kind, a missing stage, or
    a stage that recorded no such field (the free model has no census)."""
    if kind not in PLOT_SOURCES:
        raise ValueError(f"unknown plot kind {kind!r}")
    stage, key = PLOT_SOURCES[kind]
    rec = report.stages.get(stage)
    if rec is None:
        raise ValueError(f"report has no {stage} stage")
    if rec.get(key) is None:
        raise ValueError(f"the {stage} stage recorded no {key}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{kind}.csv"
    with open(path, "w", newline="") as fh:
        wcsv = csv.writer(fh)
        if kind == "decay":
            wcsv.writerow(["t", "norm", "predicted", "residual"])
            wcsv.writerows(rec["rows"])
        elif kind == "det_scaling":
            wcsv.writerow(["z_abs", "det_abs", "fitted_order"])
            order = rec["lidskii"]["order_fit"]
            for z, d in rec["det_samples"]:
                wcsv.writerow([abs(complex(z["re"], z["im"])),
                               abs(complex(d["re"], d["im"])), order])
        else:       # the k-plane geometry of the run's census
            census = rec["census"]
            wcsv.writerow(["re", "im", "segment"])
            for label, ks in census_geometry(census):
                wcsv.writerows([k.real, k.imag, label] for k in ks)
            for label in ("crossed", "left_out"):
                wcsv.writerows([z["k"]["re"], z["k"]["im"], f"{label}_zero"]
                               for z in census[label])
    return path


# ---------------------------------------------------------------------------
# command line

def _out_dir(out: Optional[str], config: RunConfig) -> Path:
    root = out or config.out or os.environ.get(OUTPUT_ROOT_ENV, "runs")
    return Path(root)


def _apply_tols(config: RunConfig, tol: tuple) -> None:
    for item in tol:
        key, _, val = item.partition("=")
        try:
            config.tolerances[key] = _tolerance(key, val)
        except ValueError as exc:
            raise click.UsageError(f"--tol {item!r}: {exc}") from exc


def _finish(report: RunReport, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "report.json", "w") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
    for line in report.errors:
        click.echo(f"error: {line}", err=True)
    click.echo(f"report written to {outdir / 'report.json'}")
    sys.exit(0 if report.all_passed else 1)


def _load(config_path, seed, tol) -> RunConfig:
    """The config with --seed and --tol applied; exit 2 if it does not load."""
    try:
        config = load_config(config_path)
    except (OSError, TypeError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    if seed is not None:
        config.seed = seed
    _apply_tols(config, tol)
    return config


def _run(config_path, out, seed, tol, stages: List[str]):
    config = _load(config_path, seed, tol)
    config.stages = stages
    report = run_pipeline(config)
    _finish(report, _out_dir(out, config))


_common = [
    click.option("--config", "config_path", required=True,
                 type=click.Path(exists=True)),
    click.option("--out", default=None),
    click.option("--seed", default=None, type=int),
    click.option("--tol", multiple=True),
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Constructive spectral analysis of -Laplacian + complex V."""


@main.command()
@_with_common
def classify(config_path, out, seed, tol):
    """Threshold classification and hypothesis checks."""
    _run(config_path, out, seed, tol, ["classify"])


@main.command()
@_with_common
def expand(config_path, out, seed, tol):
    """Threshold classification plus resolvent expansion."""
    _run(config_path, out, seed, tol, ["classify", "threshold_expand"])


@main.command()
@_with_common
def scan(config_path, out, seed, tol):
    """Scan for outgoing positive resonances."""
    _run(config_path, out, seed, tol, ["resonance_scan"])


@main.command()
@_with_common
def propagate(config_path, out, seed, tol):
    """Full pipeline through the large-time decay check."""
    _run(config_path, out, seed, tol,
         ["classify", "threshold_expand", "propagate"])


@main.command()
@_with_common
@click.option("--kind", "kinds", multiple=True,
              type=click.Choice(list(PLOT_SOURCES)))
def report(config_path, out, seed, tol, kinds):
    """Run the configured stages and dump plot CSVs: by default every kind
    whose PLOT_SOURCES field the run recorded."""
    config = _load(config_path, seed, tol)
    rep = run_pipeline(config)
    outdir = _out_dir(out, config)
    outdir.mkdir(parents=True, exist_ok=True)
    for kind in kinds or [kind for kind, (stage, key) in PLOT_SOURCES.items()
                          if rep.stages.get(stage, {}).get(key) is not None]:
        try:
            emit_plot_data(rep, kind, outdir)
        except ValueError as exc:
            click.echo(f"plot error: {exc}", err=True)
    _finish(rep, outdir)


if __name__ == "__main__":
    main()
