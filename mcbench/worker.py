"""One benchmark process: set snowlink up from the checkout, then run a study.

    python3 mcbench/worker.py --config CONFIG --mode setup|study|trace \
        --workload NAME --seconds S --out DIR

``setup`` stops once the package is imported, the config parsed and the
models built.  ``study`` runs whole rounds (``run_experiment`` then
``emit_reports``) until ``--seconds`` of round CPU time have passed, with a
clock around the two estimate calls and nothing else.  ``trace`` runs a fixed
number of rounds twice, untraced and then traced, so its counts depend on the
seed alone.  Each mode prints JSON lines; the last one is its result.
``run.py`` drives this file; it is not meant to be run by hand.

Times are CPU time of this process (``time.process_time``).  The study is
single-threaded and does no I/O wait worth counting, so that is its wall time
less the time the process was not running; on a virtual machine that
accounts steal time, this leaves out the time the host gave its core to
someone else.  For a workload with ``scale_to_reference``, the worker also
times the reference block of ``reference.py`` between rounds, and ``run.py``
scales the study's timings by it.
"""

import argparse
import csv
import json
import math
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

from checks import check_estimate, check_mean_z, check_same_bytes
from tracing import Tracer
from workloads import ROUND_SEED_STRIDE, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
#: A study also stops at this multiple of ``--seconds`` of wall time, so that
#: a host that takes the core away cannot stretch a run past its deadline.
WALL_CAP = 1.25


def _emit(obj):
    print(json.dumps(obj), flush=True)


class EstimateClock:
    """Times ``fit_total`` plus ``attach_variance`` in CPU time for each
    replicate and method, as ``snowlink.experiments`` calls them, and keeps the
    sample and the finished report for the output checks."""

    def __init__(self, experiments):
        self.module = experiments
        self.originals = (experiments.fit_total, experiments.attach_variance)
        self.records = []  # (method, seconds, data, report)

    def install(self):
        fit, attach = self.originals
        records, clock = self.records, time.process_time
        pending = {}

        def fit_total(data, *args, **kwargs):
            pending["start"], pending["data"] = clock(), data
            return fit(data, *args, **kwargs)

        def attach_variance(report, *args, **kwargs):
            out = attach(report, *args, **kwargs)
            records.append((report.method, clock() - pending["start"],
                            pending["data"], report))
            return out

        self.module.fit_total = fit_total
        self.module.attach_variance = attach_variance

    def uninstall(self):
        self.module.fit_total, self.module.attach_variance = self.originals


class Tally:
    """Attempted and failed estimates, failures per exception class as read
    from the CSV ``error`` column, and the standardized errors of the total."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_class = {}
        self.z_tau = {}
        self.problems = []

    def add(self, config, summary, csv_path):
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.attempted += len(rows)
        for row in rows:
            if row["error"]:
                self.failed += 1
                cls = row["error"].split(":", 1)[0]
                self.by_class[cls] = self.by_class.get(cls, 0) + 1
            else:
                self.z_tau.setdefault(row["method"], []).append(float(row["z_tau"]))
        for method, ms in summary.per_method.items():
            if ms.successes + ms.failures != config.replicates:
                self.problems.append(
                    f"seed {config.master_seed} {method}: {ms.successes} successes + "
                    f"{ms.failures} failures != {config.replicates} replicates")
        if len(rows) != config.replicates * len(config.methods):
            self.problems.append(f"seed {config.master_seed}: {len(rows)} CSV rows")
        if sum(ms.failures for ms in summary.per_method.values()) != sum(
                1 for row in rows if row["error"]):
            self.problems.append(f"seed {config.master_seed}: CSV and summary "
                                 "disagree on failures")


def _round(config, r, out_dir, run, emit, tally):
    """Run round ``r`` into ``out_dir/round<r>``; returns the CPU and wall
    seconds spent in ``run`` and ``emit``."""
    cfg = replace(config, master_seed=config.master_seed + r)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    summary = run(cfg)
    paths = emit(summary, out_dir / f"round{r}")
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    tally.add(cfg, summary, paths["csv"])
    return cpu, wall


def _check_reports(records, config, problems):
    pop = config.population
    spec1, spec2 = pop.model1.spec(), pop.model2.spec()
    for _, _, data, report in records:
        problems += check_estimate(data, report, spec1, spec2, config.level)


def study(snowlink, config, seconds, out_dir, scale_to_reference):
    # imported after set-up is reported, so that setup_s does not pay for it
    from reference import scale, time_blocks

    clock = EstimateClock(snowlink.experiments)
    clock.install()
    tally = Tally()
    study_cpu, study_wall, round_rates, blocks = 0.0, 0.0, [], []
    while study_cpu < seconds and study_wall < WALL_CAP * seconds:
        if len(round_rates) >= ROUND_SEED_STRIDE:
            raise SystemExit("too many rounds: master seeds would overlap the next seed's")
        cpu, wall = _round(config, len(round_rates), out_dir, snowlink.run_experiment,
                           snowlink.emit_reports, tally)
        study_cpu += cpu
        study_wall += wall
        round_rates.append(config.replicates / cpu)
        if scale_to_reference:
            # one reference block per started second of round time: ~2% of the run
            blocks += time_blocks(math.ceil(cpu))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    clock.uninstall()

    problems = list(tally.problems)
    _check_reports(clock.records, config, problems)
    problems += check_mean_z(tally.z_tau)
    _round(config, 0, out_dir / "repeat", snowlink.run_experiment,
           snowlink.emit_reports, Tally())
    problems += check_same_bytes(out_dir / "round0", out_dir / "repeat" / "round0")

    latencies = {}
    for method, seconds_, _, _ in clock.records:
        latencies.setdefault(method, []).append(seconds_)
    return {
        "replicates": len(round_rates) * config.replicates,
        "round_rates": round_rates,
        "study_cpu_s": study_cpu,
        "study_wall_s": study_wall,
        "reference_blocks": len(blocks),
        "reference_scale": scale(blocks) if blocks else 1.0,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures_by_class": tally.by_class,
        "problems": problems,
    }


def trace(snowlink, config, rounds, out_dir):
    clock = EstimateClock(snowlink.experiments)
    clock.install()
    plain = Tally()
    # wall time, the clock the spans use, so that stage shares add up
    plain_s = sum(_round(config, r, out_dir / "untraced", snowlink.run_experiment,
                         snowlink.emit_reports, plain)[1] for r in range(rounds))
    tally = Tally()
    tracer = Tracer()
    tracer.install()
    try:
        run = tracer.wrap("experiments.run_experiment", snowlink.run_experiment)
        emit = tracer.wrap("experiments.emit_reports", snowlink.emit_reports)
        traced_s = sum(_round(config, r, out_dir / "traced", run, emit, tally)[1]
                       for r in range(rounds))
    finally:
        tracer.uninstall()
        clock.uninstall()

    problems = plain.problems + tally.problems
    _check_reports(clock.records, config, problems)
    problems += check_mean_z(tally.z_tau)
    report_bytes = 0
    for r in range(rounds):
        first, second = out_dir / "untraced" / f"round{r}", out_dir / "traced" / f"round{r}"
        problems += check_same_bytes(first, second)
        report_bytes += sum(p.stat().st_size for p in second.iterdir())
    tracer.write(out_dir / "trace.csv")
    return {
        "metrics": tracer.metrics(report_bytes, traced_s - plain_s),
        "layer_s": tracer.layer_seconds(),
        "stage_s": tracer.stage_seconds(),
        "traced_s": traced_s,
        "untraced_s": plain_s,
        "spans": len(tracer.spans),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures_by_class": tally.by_class,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "study", "trace"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import snowlink

    if not Path(snowlink.__file__).resolve().is_relative_to(SRC):
        print(f"snowlink was imported from {snowlink.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    with open(args.config) as fh:
        config = snowlink.experiment_config_from_dict(json.load(fh))
    _emit({"ready": time.monotonic(), "ready_cpu": time.process_time()})
    if args.mode == "setup":
        return 0

    out_dir = Path(args.out)
    if args.mode == "study":
        result = study(snowlink, config, args.seconds, out_dir,
                       WORKLOADS[args.workload]["scale_to_reference"])
    else:
        result = trace(snowlink, config, WORKLOADS[args.workload]["trace_rounds"], out_dir)
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
