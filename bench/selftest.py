"""Self-test of the benchmark.

    python3 bench/selftest.py [WORKLOAD ...]

Run from the root of a checkout; takes a few minutes per workload.  Checks:
  1. BENCHMARK.json lists exactly the metrics run.py prints, with the same
     units, and each run prints every one of them;
  2. a traced run gives the same check values as an untraced one;
  3. each workload's traced counts are nonzero for the layers it is meant
     to stress, and the two traced samples of a run count identically.
Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import run
import tracing
from workloads import WORKLOADS

# layers each workload is meant to stress (see bench/NOTES.md)
STRESSED = {
    "propagate-first6": ["kernels.r0.calls", "linalg.solve.calls",
                         "birman_schwinger.R.calls",
                         "propagator.pole_scan.sigma_evals",
                         "propagator.jump_bytes",
                         "propagator.propagate.calls", "series.eval.calls"],
    "threshold-third8": ["linalg.eig.calls", "model.distance_matrix.calls",
                         "grushin.direct_evals", "linalg.solve.calls",
                         "series.matmul.calls", "series.laurent_inverse.calls"],
    "resonance-scan8": ["birman_schwinger.scan.sigma_evals",
                        "birman_schwinger.scan.resonances", "linalg.svd.calls",
                        "kernels.gj_plus.calls", "kernels.r0.calls",
                        "linalg.inv.calls",
                        "propagator.resolvent_taylor.calls"],
}

failures = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int) -> tuple:
    """One run.py run at seed 0; returns (stdout result, run record)."""
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rec = Path(".bench_out") / f"{workload}-seed0-trace{trace}-blas1.json"
    with open(rec) as fh:
        return result, json.load(fh)


def span_cost_s(n: int = 100_000) -> float:
    """Time one traced call adds over an untraced one, on a no-op."""
    def noop():
        return None
    traced = tracing.Tracer().wrap("noop", noop)
    times = []
    for fn in (noop, traced):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append(time.perf_counter() - t0)
    return (times[1] - times[0]) / n


def same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)
    return a == b


def main(argv) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]}
           == run.END_TO_END, "BENCHMARK.json end_to_end == run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]}
           == {n: run.per_layer_unit(n) for n in run.PER_LAYER},
           "BENCHMARK.json per_layer == run.PER_LAYER")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json workloads == workloads.WORKLOADS")

    for workload in argv[1:] or list(WORKLOADS):
        plain, plain_rec = bench(workload, 0)
        traced, traced_rec = bench(workload, 1)
        layer_units = {n: run.per_layer_unit(n) for n in run.PER_LAYER}
        for result, units, mode in ((plain, run.END_TO_END, "untraced"),
                                    (traced, layer_units, "traced")):
            expect({k: v["unit"] for k, v in result["metrics"].items()}
                   == units, f"{workload}: {mode} run prints every metric "
                             "with its unit")
        expect(plain["correct"] and traced["correct"],
               f"{workload}: all checks pass at seed 0")
        values = [[(c["name"], c["value"]) for c in s["checks"]]
                  for rec in (plain_rec, traced_rec) for s in rec["samples"]]
        expect(all(len(v) == len(values[0])
                   and all(x[0] == y[0] and same(x[1], y[1])
                           for x, y in zip(v, values[0])) for v in values),
               f"{workload}: traced and untraced check values agree")
        layers = [s["layers"] for s in traced_rec["samples"]]
        counts = [{k: v for k, v in lay.items()
                   if run.per_layer_unit(k) != "s"} for lay in layers]
        expect(all(c == counts[0] for c in counts),
               f"{workload}: traced samples count identically")
        zero = [k for k in STRESSED[workload] if not layers[0][k]]
        expect(not zero, f"{workload}: stressed layers nonzero {zero or ''}")
        solve = plain["metrics"]["solve_s"]["value"]
        measured = traced["metrics"]["traced.solve_s"]["value"] / solve - 1.0
        spans = sum(rec["calls"] for rec in
                    traced_rec["samples"][0]["trace_summary"].values())
        computed = spans * span_cost_s()
        print(f"INFO {workload}: tracing overhead on solve_s: traced minus "
              f"untraced median {100 * measured:+.1f}% (host noise "
              f"included); {spans} spans x wrapper cost = {computed:.4f} s "
              f"({100 * computed / solve:.2f}%)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
