"""Benchmark of the snowlink Monte Carlo pipeline.

    python3 mcbench/run.py --workload desk-homog --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports snowlink from that checkout's
``src/``.  Each workload runs in fresh single-threaded worker processes
(``worker.py``), through the public API only.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed number of
rounds untraced and then traced and reports the per-layer metrics.  Output
checks are made outside the timed region; a wrong output makes
``correct`` false and the exit status 1.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``mcbench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, experiment_config

HERE = Path(__file__).resolve().parent

#: Fresh interpreters timed from spawn to ready, in CPU time; the median is
#: ``setup_s``.
SETUP_SAMPLES = 5
#: Every process this run starts is stopped by then.
DEADLINE_S = 170.0
#: One thread per numeric library, so that a run uses one core.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class WorkerFailed(Exception):
    pass


def _worker(mode, args, config_path, out_dir, deadline):
    """Run worker.py once; returns its set-up as (wall seconds from spawn to
    ready, CPU seconds until ready), and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(config_path),
           "--mode", mode, "--workload", args.workload,
           "--seconds", str(args.seconds), "--out", str(out_dir)]
    env = {**os.environ, **THREAD_ENV}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker passed the {DEADLINE_S:g} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with status {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if not lines or "ready" not in lines[0]:
        raise WorkerFailed(f"{mode} worker printed no ready line")
    return (lines[0]["ready"] - t0, lines[0]["ready_cpu"]), lines[-1]


def _value(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, config_path, out_dir, deadline):
    """The end-to-end metrics.  Timings are CPU time; for a workload with
    ``scale_to_reference`` the study's timings are scaled to the reference
    speed (``reference.py``), and the raw figures are printed."""
    setups = [_worker("setup", args, config_path, out_dir, deadline)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup, result = _worker("study", args, config_path, out_dir, deadline)
    setups.append(setup)
    lat = result["latencies"]
    missing = [m for m in ("umle", "cmle") if not lat.get(m)]
    if missing:
        result["problems"].append(f"no successful estimate for {missing}")
        lat.update({m: [float("nan")] for m in missing})
    rates = result["round_rates"]
    k = result["reference_scale"]
    print(f"{args.workload} seed {args.seed}: {result['replicates']} replicates in "
          f"{len(rates)} rounds, {result['study_cpu_s']:.2f} s CPU, "
          f"{result['study_wall_s']:.2f} s wall; estimates timed: umle "
          f"{len(lat['umle'])}, cmle {len(lat['cmle'])}")
    print(f"reference scale {k:.3f} from {result['reference_blocks']} blocks; "
          f"raw CPU figures: replicates_per_s {statistics.median(rates):.4f}, "
          f"umle_s_p50 {statistics.median(lat['umle']):.4f}, "
          f"cmle_s_p50 {statistics.median(lat['cmle']):.4f}")
    print("round rates (1/s, raw CPU): " + ", ".join(f"{r:.3f}" for r in rates))
    print("setup samples (s, CPU / wall): "
          + ", ".join(f"{cpu:.3f} / {wall:.3f}" for wall, cpu in setups))
    metrics = {
        "setup_s": _value(statistics.median(cpu for _, cpu in setups), "s"),
        "replicates_per_s": _value(statistics.median(rates) / k, "1/s"),
        "umle_s_p50": _value(statistics.median(lat["umle"]) * k, "s"),
        "cmle_s_p50": _value(statistics.median(lat["cmle"]) * k, "s"),
        "peak_rss_mb": _value(result["peak_rss_mb"], "MB"),
    }
    return result, metrics


def per_layer(args, config_path, out_dir, deadline):
    result = _worker("trace", args, config_path, out_dir, deadline)[-1]
    traced = result["traced_s"]
    print(f"{args.workload} seed {args.seed}: traced {traced:.3f} s, untraced "
          f"{result['untraced_s']:.3f} s, {result['spans']} spans "
          f"(overhead {100.0 * (traced / result['untraced_s'] - 1.0):+.1f}%)")
    for label, seconds_by in (("self time by layer", result["layer_s"]),
                              ("time by stage, callees included", result["stage_s"])):
        print(f"{label}: " + ", ".join(
            f"{name} {seconds:.3f} s ({100.0 * seconds / traced:.1f}%)"
            for name, seconds in sorted(seconds_by.items(), key=lambda kv: -kv[1])))
    return result, result["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the snowlink "
                                     "Monte Carlo pipeline")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S

    out_dir = HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(experiment_config(args.workload, args.seed),
                                      indent=2) + "\n")
    try:
        result, metrics = (per_layer if args.trace else end_to_end)(
            args, config_path, out_dir, deadline)
    except WorkerFailed as exc:
        print(f"mcbench: {exc}", file=sys.stderr)
        return 1
    print(f"estimates attempted {result['attempted']}, failed {result['failed']}, "
          f"failures by class {json.dumps(result['failures_by_class'], sort_keys=True)}")
    problems = result["problems"]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {"correct": not problems, "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics}
    (out_dir / "result.json").write_text(json.dumps(
        {**record, "failures_by_class": result["failures_by_class"],
         "problems": problems}, indent=2) + "\n")
    print(json.dumps(record))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
