"""One benchmark sample: a fresh process that runs one pipeline.

    python3 bench/child.py CONFIG_JSON OUT_JSON [--trace]

Calls `specthresh.cli.run_pipeline` on the config (the code path of
`specthresh <cmd> --config`) and writes the report, the monotonic clock
reading at the end of the pipeline, the library versions and, with
`--trace`, the span list to OUT_JSON.  The parent sets PYTHONPATH to the
checkout's `src` and the BLAS thread count.
"""
from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    config_path, out_path = argv[1], argv[2]
    trace = "--trace" in argv[3:]
    with open(config_path) as fh:
        raw = json.load(fh)

    import numpy as np
    import scipy

    from specthresh.cli import RunConfig, run_pipeline

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    config = RunConfig(model=raw["model"], stages=raw["stages"],
                       seed=raw.get("seed", 0))
    report = run_pipeline(config)
    t_end = time.monotonic()

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"report": report.as_dict(), "t_end": t_end,
           "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                        "blas": f"{blas.get('name')} {blas.get('version')}"}}
    if tracer is not None:
        out["spans"] = tracer.spans
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
