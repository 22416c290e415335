"""Workload definitions: the pipeline config each seed generates, and the
correctness checks read back from the pipeline's report.

The model builds are deterministic, so the seed acts on the inputs only:
it draws the ball `extent` (the grid scales with it, so the node count n is
unchanged) and, for the resonance workload, the tuned resonance energy
`lam0`, each uniformly from the workload's range.  Seed 0 gives the
reference configs (extent 3.0, lam0 1.0).

The resonance workload draws from extent [2.9, 3.0] and lam0 [1.0, 1.1].
On the rest of the square [2.9, 3.1] x [0.9, 1.1] the pipeline's own
high-energy claim fails (the r = 1 exponent rises with the extent and falls
with lam0; bench/NOTES.md has the map).  `resonance-scan8-wide` keeps that
square: it is not in BENCHMARK.json, and runs of it report the failure.
"""
from __future__ import annotations

import random
from typing import Dict, List

# the workloads BENCHMARK.json lists
WORKLOADS: Dict[str, Dict] = {
    "propagate-first6": {
        "factory": "first_kind", "resolution": 6,
        "stages": ["classify", "threshold_expand", "propagate"],
        "kind": "first", "k": 1, "extent": (2.9, 3.1),
        "checks": ["kind_k", "lidskii_order_err", "constant_rel_err",
                   "decay_slope_err", "decay_coeff_rel_err"],
    },
    "threshold-third8": {
        "factory": "third_kind", "resolution": 8,
        "stages": ["classify", "threshold_expand"],
        "kind": "third", "k": 2, "extent": (2.9, 3.1),
        "checks": ["kind_k", "lidskii_order_err", "constant_rel_err"],
    },
    "resonance-scan8": {
        "factory": "resonance", "resolution": 8,
        "stages": ["resonance_scan", "resonance_expand", "high_energy"],
        "extent": (2.9, 3.0), "lam0": (1.0, 1.1),
        "checks": ["scan_lam0_err", "sigma_rel_err", "high_energy_r0",
                   "high_energy_r1"],
    },
}
# every workload run.py accepts: the listed ones plus the known failure
ALL_WORKLOADS: Dict[str, Dict] = dict(
    WORKLOADS, **{"resonance-scan8-wide": dict(
        WORKLOADS["resonance-scan8"], extent=(2.9, 3.1), lam0=(0.9, 1.1))})


def make_config(workload: str, seed: int) -> Dict:
    """Pipeline config (the JSON a `specthresh --config` run reads)."""
    spec = ALL_WORKLOADS[workload]
    rng = random.Random(seed)
    model = {"factory": spec["factory"], "resolution": spec["resolution"],
             "extent": 3.0 if seed == 0 else rng.uniform(*spec["extent"])}
    if "lam0" in spec:
        model["lam0"] = 1.0 if seed == 0 else rng.uniform(*spec["lam0"])
    return {"model": model, "stages": list(spec["stages"]), "seed": seed}


def _check(name: str, value, threshold, passed: bool, margin=None) -> Dict:
    return {"name": name, "value": value, "threshold": threshold,
            "margin": margin, "pass": bool(passed)}


def _upper(name: str, value: float, threshold: float) -> Dict:
    """Check value <= threshold; the margin is threshold - value."""
    return _check(name, value, threshold, value <= threshold,
                  threshold - value)


def _cabs(c) -> float:
    return abs(complex(c["re"], c["im"])) if isinstance(c, dict) else abs(c)


def _cdiff(a, b) -> float:
    za = complex(a["re"], a["im"]) if isinstance(a, dict) else complex(a)
    zb = complex(b["re"], b["im"]) if isinstance(b, dict) else complex(b)
    return abs(za - zb)


def check_names(workload: str) -> List[str]:
    """Names of the checks a run of `workload` records, in order."""
    return ALL_WORKLOADS[workload]["checks"] + ["all_passed"]


def run_checks(workload: str, config: Dict, report: Dict) -> List[Dict]:
    """Evaluate every check of `workload` on one pipeline report.

    A check whose input is missing from the report (stage error, crashed
    run) is recorded as failed with value None."""
    out: List[Dict] = []
    stages = report.get("stages", {})
    spec = ALL_WORKLOADS[workload]
    for name in check_names(workload):
        try:
            out.append(_one_check(name, spec, config, stages, report))
        except (KeyError, IndexError, TypeError, ZeroDivisionError):
            out.append(_check(name, None, None, False))
    return out


def _one_check(name: str, spec: Dict, config: Dict, stages: Dict,
               report: Dict) -> Dict:
    if name == "kind_k":
        cls = stages["classify"]
        got = f"{cls['kind']}/{cls['k']}"
        want = f"{spec['kind']}/{spec['k']}"
        return _check(name, got, want, got == want)
    if name == "lidskii_order_err":
        lk = stages["threshold_expand"]["lidskii"]
        return _upper(name, abs(lk["order_fit"] - lk["order_structural"]), 0.1)
    if name == "constant_rel_err":
        lk = stages["threshold_expand"]["lidskii"]
        err = _cdiff(lk["constant_fit"], lk["constant_formula"]) \
            / _cabs(lk["constant_formula"])
        return _upper(name, err, 1e-3)
    if name == "decay_slope_err":
        return _upper(name, abs(stages["propagate"]["slope_fit"] + 0.5), 0.1)
    if name == "decay_coeff_rel_err":
        return _upper(name, stages["propagate"]["coeff_rel_err"], 0.1)
    if name == "scan_lam0_err":
        found = stages["resonance_scan"]["found"]
        lam0 = config["model"]["lam0"]
        err = abs(found[0][0] - lam0)
        ok = len(found) == 1 and found[0][1] == 1 and err <= 1e-6
        return _check(name, err, 1e-6, ok, 1e-6 - err)
    if name == "sigma_rel_err":
        ex = stages["resonance_expand"]["expansions"][0]
        err = _cdiff(ex["sigma_machinery"], ex["sigma_formula"]) \
            / _cabs(ex["sigma_formula"])
        return _upper(name, err, 1e-3)
    if name in ("high_energy_r0", "high_energy_r1"):
        fit = stages["high_energy"]["fits"][int(name[-1])]
        # the exponent may exceed its bound -(r+1)/2 by at most 0.2
        return _upper(name, fit["exponent"] - fit["bound"], 0.2)
    if name == "all_passed":
        # stage errors plus claims the pipeline itself marked as failed
        bad = len(report["errors"]) + sum(
            not c.get("pass", True) for rec in stages.values()
            for c in rec.get("claims", []))
        return _check(name, bad, 0, bad == 0, -bad)
    raise KeyError(name)
