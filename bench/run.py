"""Benchmark of the specthresh pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--blas-threads T]

Run from the root of a checkout.  Each sample is one fresh Python process
(bench/child.py) that calls `specthresh.cli.run_pipeline` on the config the
seed generates.  Samples run one at a time (closed loop): at least two, and
a further one only while a typical sample would still end within S seconds.
Each child gets T BLAS threads (default 1).  Before them, an untimed child
imports the package (warm-up).  After the first sample, untraced runs add
set-up samples (the same config with no stages) while they fit in a share
of S, so that `setup_s` is a median over more set-ups than full samples
give; a workload whose set-up alone exceeds that share gets none.

The last line of stdout is one JSON object: `correct`, `attempted` and
`failed` count the correctness checks over all samples, and `metrics` holds
the medians over the samples of the end-to-end metrics (`--trace 0`) or of
the per-layer metrics (`--trace 1`, spans recorded by bench/tracing.py).
The full record of the run (config, environment, every sample with its
checks and, when traced, every layer number) goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import ALL_WORKLOADS, make_config, run_checks

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics printed with --trace 1 (tracing.layer_metrics defines
# them).  Self times of layers that some workload never enters (G_j and
# G_j^+ kernels, tune_coupling, the resonance scan, the branch-cut
# propagator pieces) would read 0 on every run of that workload, so they are
# kept in the run record only; their call counts are printed here.
PER_LAYER = (
    "kernels.r0.calls", "kernels.r0.s", "kernels.r0.bytes",
    "kernels.gj.calls", "kernels.gj_plus.calls",
    "linalg.solve.calls", "linalg.solve.s", "linalg.gflop",
    "linalg.eig.calls", "linalg.eig.s", "linalg.svd.calls", "linalg.svd.s",
    "linalg.inv.calls", "linalg.inv.s", "linalg.det.calls",
    "linalg.lstsq.calls",
    "model.distance_matrix.calls", "model.distance_matrix.s",
    "model.weighted_norm.calls", "models.factory.s",
    "birman_schwinger.R.calls", "birman_schwinger.R.self_s",
    "birman_schwinger.M.calls", "birman_schwinger.detect_minus_one.s",
    "birman_schwinger.riesz_projection.s",
    "birman_schwinger.scan.sigma_evals", "birman_schwinger.scan.resonances",
    "birman_schwinger.scan.evals_per_resonance",
    "jordan.build_jordan_chains.s",
    "series.matmul.calls", "series.matmul.s", "series.eval.calls",
    "series.eval.s", "series.laurent_inverse.calls", "series.det_series.s",
    "grushin.direct_evals", "grushin.direct.s",
    "grushin.laurent_attempts_per_q", "grushin.lidskii_determinant.s",
    "propagator.jump_bytes", "propagator.propagate.calls",
    "propagator.pole_scan.sigma_evals", "propagator.pole_scan.poles_found",
    "propagator.resolvent_taylor.calls",
    "traced.setup_s", "traced.solve_s",
)
_UNITS = {"bytes": "B", "jump_bytes": "B", "s": "s", "self_s": "s",
          "setup_s": "s", "solve_s": "s", "gflop": "Gflop"}
# every run takes at least this many samples, so that each metric is a median
MIN_SAMPLES = 2
# no sample starts when the longest so far could not end by this time, which
# keeps a run inside the 180 s it may take
RUN_LIMIT_S = 170.0
# set-up samples (no stages) run while their total wall time stays within
# this share of --seconds
SETUP_SHARE = 0.15


def per_layer_unit(name: str) -> str:
    return _UNITS.get(name.rsplit(".", 1)[-1], "count")


def run_sample(root: Path, outdir: Path, index: int | str, config_path: Path,
               env: dict, trace: bool, deadline: float) -> dict:
    """Run one child to completion (killed at `deadline`) and time it."""
    out_path = outdir / f"sample{index}.json"
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")),
           str(config_path), str(out_path)] + (["--trace"] if trace else [])
    with open(outdir / f"sample{index}.log", "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        # os.wait4 gives this child's own peak RSS (RUSAGE_CHILDREN would be
        # a running maximum over every child so far)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            # interrupted: never leave the child running
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - t0
    sample = {"index": index, "exit": proc.returncode, "wall_s": wall,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode != 0 or not out_path.exists():
        return sample
    with open(out_path) as fh:
        data = json.load(fh)
    out_path.unlink()
    timings = data["report"]["timings"]
    sample["solve_s"] = sum(timings.values())
    # process start to the end of the pipeline, minus the stage timings
    sample["setup_s"] = (data["t_end"] - t0) - sample["solve_s"]
    if not timings:
        return sample  # a set-up sample: its report has nothing to check
    sample["report"] = data["report"]
    sample["versions"] = data["versions"]
    if trace:
        spans = data["spans"]
        sample["layers"] = tracing.layer_metrics(spans)
        sample["trace_summary"] = tracing.summarize(spans)
    return sample


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs
    (Linux /proc/stat; 0 where it is not available)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(ALL_WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is stopped on the way
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    src = root / "src"
    if not (src / "specthresh" / "cli.py").is_file():
        print(f"error: no specthresh sources under {src}", file=sys.stderr)
        return 2
    # a fresh checkout has no bytecode yet; compile it here so that the
    # first sample does not pay for it (later CLI runs would not either)
    compileall.compile_dir(src / "specthresh", quiet=1)
    t_start = time.monotonic()
    outdir = root / ".bench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        f"-blas{args.blas_threads}")
    outdir.mkdir(parents=True, exist_ok=True)
    config = make_config(args.workload, args.seed)
    config_path = outdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    threads = str(args.blas_threads)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    load_before, steal_before = os.getloadavg(), steal_s()
    deadline = t_start + RUN_LIMIT_S
    # warm-up: load the package's and libraries' files once, untimed
    subprocess.run([sys.executable, "-c", "import specthresh.cli"], cwd=root,
                   env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60, check=False)

    setup_path = outdir / "setup_config.json"
    setup_path.write_text(json.dumps(dict(config, stages=[]), indent=2))
    samples, setup_samples = [], []
    while True:
        samples.append(run_sample(root, outdir, len(samples), config_path,
                                  env, bool(args.trace), deadline))
        if len(samples) == 1 and not args.trace:
            # set-up samples, while the next one (its time estimated by the
            # slowest set-up so far) keeps their total within the share
            est = samples[0].get("setup_s", math.inf)
            while sum(s["wall_s"] for s in setup_samples) + est \
                    <= SETUP_SHARE * args.seconds:
                setup_samples.append(run_sample(
                    root, outdir, f"_setup{len(setup_samples)}", setup_path,
                    env, False, deadline))
                est = max(est, setup_samples[-1]["wall_s"])
        # start another sample only if a typical one would end within
        # --seconds (or fewer than MIN_SAMPLES ran), and the slowest one so
        # far would still end before the deadline
        now = time.monotonic()
        walls = [s["wall_s"] for s in samples]
        if now + max(walls) > deadline or (
                len(samples) >= MIN_SAMPLES
                and now - t_start + statistics.median(walls) > args.seconds):
            break

    checks = []
    for s in samples:
        s["checks"] = run_checks(args.workload, config, s.get("report", {}))
        checks += s["checks"]
    failed = sum(not c["pass"] for c in checks)
    good = [s for s in samples if "report" in s]
    layers = None
    if good and args.trace:
        for s in good:
            s["layers"].update({"traced.setup_s": s["setup_s"],
                                "traced.solve_s": s["solve_s"]})
        layers = {name: median_of([s["layers"] for s in good], name)
                  for name in good[0]["layers"]}
        metrics = {name: {"value": layers[name], "unit": per_layer_unit(name)}
                   for name in PER_LAYER}
    elif good:
        metrics = {name: {"value": median_of(good, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
        setups = [s["setup_s"] for s in good + setup_samples if "setup_s" in s]
        metrics["setup_s"]["value"] = statistics.median(setups)
    else:
        metrics = {}

    record = {
        "workload": args.workload, "seed": args.seed, "config": config,
        "seconds": args.seconds, "trace": args.trace,
        "env": {"nproc": os.cpu_count(), "blas_threads": args.blas_threads,
                "versions": good[0]["versions"] if good else None,
                "python": sys.version.split()[0],
                "loadavg_before": load_before,
                "loadavg_after": os.getloadavg(),
                "steal_s": steal_s() - steal_before},
        "wall_s": time.monotonic() - t_start,
        "check_fail_ratio": failed / len(checks),
        "metrics": metrics,
        "layers": layers,
        "samples": samples,
        "setup_samples": setup_samples,
    }
    with open(outdir.with_suffix(".json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if setup_samples:
        print("set-up samples: " + " ".join(
            f"{s.get('setup_s', float('nan')):.2f}s" for s in setup_samples))
    for s in samples:
        bad = [c["name"] for c in s["checks"] if not c["pass"]]
        print(f"sample {s['index']}: exit {s['exit']} wall {s['wall_s']:.2f}s"
              f" setup {s.get('setup_s', float('nan')):.2f}s"
              f" solve {s.get('solve_s', float('nan')):.2f}s"
              f" rss {s['peak_rss_mb']:.0f}MB"
              + (f" FAILED {','.join(bad)}" if bad else ""))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
