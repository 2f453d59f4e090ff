"""One run of one workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --dir WORK_DIR --launched MONOTONIC_SECONDS

``run.py`` starts this once per run and reads the JSON it writes to
``WORK_DIR/child.json``. ``--launched`` is the parent's ``time.monotonic()``
just before the start, so set-up time counts interpreter start and imports.
With ``--trace 1`` every public call the tracer knows is recorded as a span;
with ``--trace 0`` only evaluator calls are counted, to report evaluations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def machine() -> dict:
    """What a result depends on besides the code."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def import_gcnas() -> None:
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import gcnas

    if Path(gcnas.__file__).resolve().parent != SRC / "gcnas":
        raise ImportError(f"gcnas imported from {gcnas.__file__}, not from {SRC}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args()

    import_gcnas()
    from tracing import TARGETS, Tracer, layer_metrics, self_times
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload]
    tracer = Tracer(run_id=f"{args.workload}/{args.seed}/{args.dir.name}")
    ctx = Context(args.seed, args.dir, tracer)
    tracer.install(TARGETS if args.trace else [t for t in TARGETS if t.name == "evaluate_matrix"])
    try:
        workload.setup(ctx)
        setup_s = time.monotonic() - args.launched
        workload.body(ctx)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        ctx.release()
        tracer.remove()
    outcome = workload.verify(ctx)

    ops = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in tracer.spans if s["name"] == "op"]
    result = {
        "setup_s": setup_s,
        "ops_s": ops,
        "peak_rss_mb": peak_rss_mb,
        "op_ok": outcome.op_ok,
        "failures": outcome.failures,
        "quality": outcome.quality,
        "output_sha256": outcome.output_sha256,
        "machine": machine(),
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer.spans)
        own_ns = self_times(tracer.spans)
        for span in tracer.spans:
            span["self_ns"] = own_ns[span["id"]]
        result["spans"] = tracer.spans
    (args.dir / "child.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
