"""The gcnas benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Runs the workload as a closed loop of runs,
one at a time, each in a fresh child process (``child.py``) with BLAS
threads capped at the number of usable cores, until ``--seconds`` have
passed. Every run's outputs are checked against exact oracles; a run whose
check fails counts as failed. Prints one line per figure, then, as the last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.

A traced run alternates untraced and traced child runs, so that
``trace.overhead`` compares the two, and then runs the propagation
micro-probes (``probes.py``). It writes every span to
``perfbench/_work/trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
CHILD_TIMEOUT_S = 150.0
# no run is started that is expected to end later than this, so a whole
# invocation, micro-probes included, ends well inside three minutes
LAST_START_S = 100.0


def child_env() -> dict[str, str]:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(workload: str, seed: int, traced: bool, workdir: Path, env: dict) -> tuple[dict | None, float]:
    """One child run; returns its result (None if it crashed) and its wall time."""
    workdir.mkdir(parents=True)
    launched = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--dir", str(workdir), "--launched", repr(launched)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        crashed = proc.returncode != 0
        stderr = proc.stderr
    except subprocess.TimeoutExpired as exc:
        crashed, stderr = True, f"timed out after {exc.timeout} s"
    elapsed = time.monotonic() - launched
    result_file = workdir / "child.json"
    if crashed or not result_file.is_file():
        print(f"run in {workdir.name} failed:\n{stderr}", file=sys.stderr)
        return None, elapsed
    result = json.loads(result_file.read_text(encoding="utf-8"))
    result["traced"] = traced
    shutil.rmtree(workdir)
    return result, elapsed


def run_probes(env: dict) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "probes.py")], env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return f"n={n}, too few for a tail percentile above the median"
    p = math.floor(100 * (n - 10) / n)
    value = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return f"p{p} {value:.6g} s (n={n})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "gcnas" / "__init__.py").is_file():
        print(f"error: no gcnas sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}"
    workdir = WORK / f"{tag}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    env = child_env()

    results: list[dict] = []
    crashed = 0
    durations: list[float] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(durations) % 2 == 1
        result, took = run_child(args.workload, args.seed, traced, workdir / f"run{len(durations)}", env)
        durations.append(took)
        if result is None:
            crashed += 1
        else:
            results.append(result)
        elapsed = time.monotonic() - start
        expected = statistics.median(durations)
        if len(durations) >= 1 + args.trace and (
            elapsed + expected / 2 > args.seconds or elapsed + expected > LAST_START_S
        ):
            break
    plain = [r for r in results if not r["traced"]]
    traced_runs = [r for r in results if r["traced"]]
    if not plain or (args.trace and not traced_runs):
        print("error: no run of each kind completed", file=sys.stderr)
        return 1

    # runs at one seed must write identical outputs, traced or not
    reference = results[0]["output_sha256"]
    attempted = crashed + sum(len(r["op_ok"]) for r in results)
    failed = crashed
    for r in results:
        if r["output_sha256"] != reference:
            r["failures"].append(f"outputs differ from the first run ({r['output_sha256']})")
            r["op_ok"] = [False] * len(r["op_ok"])
        failed += sum(not ok for ok in r["op_ok"])
        for failure in r["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)

    plain_ops = [t for r in plain for t in r["ops_s"]]
    quality = results[0]["quality"]
    print(f"workload {args.workload} seed {args.seed}: {len(results)} runs "
          f"({len(traced_runs)} traced), {crashed} crashed, {attempted} operations, {failed} failed")
    print(f"machine {json.dumps(results[0]['machine'])}")
    same = sum(r["output_sha256"] == reference for r in results)
    print(f"outputs: {same} of {len(results)} runs wrote bytes with sha256 {reference}")
    print(f"quality {json.dumps(quality | {'failed_ratio': failed / attempted})}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        traced_ops = [t for r in traced_runs for t in r["ops_s"]]
        figures = {name: statistics.median(r["layers"][name] for r in traced_runs)
                   for name in traced_runs[0]["layers"]}
        figures["search_engine.pool_precision"] = quality["pool_precision"] or 0.0
        figures["trace.overhead"] = statistics.median(traced_ops) - statistics.median(plain_ops)
        probes = run_probes(env)
        figures |= probes["probes"]
        names = [m["name"] for m in spec["per_layer"]]
        trace_file = WORK / f"trace-{tag}.json"
        trace_file.write_text(json.dumps({
            "machine": results[0]["machine"],
            "probes": probes,
            "runs": [{k: v for k, v in r.items() if k != "spans"} for r in results],
            "spans": [s for r in traced_runs for s in r["spans"]],
        }), encoding="utf-8")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        figures = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": statistics.median(plain_ops),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        names = [m["name"] for m in spec["end_to_end"]]
        print(f"wall_s per operation: median {figures['wall_s']:.6g} s, {tail(plain_ops)}; "
              f"samples {[round(t, 4) for t in plain_ops]}")
    for name in names:
        print(f"{name} {figures[name]!r} {units[name]}")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": figures[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
