"""Paired A/B timing of two source trees on an ``mcbench`` workload.

Loads the ``snowlink`` package of two source trees into one process, under
two module names, and runs interleaved rounds of one workload of
``mcbench/workloads.py``: round ``r`` runs on both trees with the same
master seed (``seed * ROUND_SEED_STRIDE + r``, as the benchmark does), in
the order A, B on even rounds and B, A on odd ones.  Each round is one
``run_experiment`` plus ``emit_reports`` call, timed in CPU time like the
benchmark's rounds, with a clock around each ``fit_total`` plus
``attach_variance`` pair as the per-method estimate time.  After each
round, both trees run that round's replicates once more, one replicate at
a time: ``experiments._replicate_rows`` of A and of B back to back for each
replicate index, A first on even indices and B first on odd ones, each
timed in CPU time.

    OPENBLAS_NUM_THREADS=1 python tools/ab_time.py A_SRC B_SRC \\
        [--workload desk-homog] [--rounds 24] [--seed 1]

Each tree is given as its ``src`` directory, the one that holds the
``snowlink`` package directory.  Before the rounds it prints the cold start
of both trees: the CPU time of a fresh interpreter that imports the package
and parses the workload config, as the benchmark's ``setup_s`` counts it, in
``COLD_START_PAIRS`` alternating pairs.  It then prints, per round, the
replicate rates of both trees, and at the end the median and quartiles over
pairs of the paired ratios: A/B for the cold start, B/A for the replicate
rate, A/B for each method's median estimate time, and A/B for each
replicate's CPU time, so a ratio above 1 means B is faster; the last column
counts the pairs in which B was faster.  Separate benchmark runs of
identical code on a small shared host can differ by far more than a code
change does; a pair of rounds shares the host's state of the moment, so the
paired ratios resolve much smaller differences, and a pair of replicates,
a tenth of a round, shares it more closely still.  Reports go to a
temporary directory only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Alternating pairs of fresh interpreters timed per tree before the rounds.
COLD_START_PAIRS = 10

#: What a cold start runs: the package import and the config parse, then the
#: interpreter's CPU time so far (argv: the ``src`` directory, the config).
_COLD_START = (
    "import json, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import snowlink\n"
    "snowlink.experiment_config_from_dict(json.loads(sys.argv[2]))\n"
    "print(time.process_time())\n"
)


def _load(name: str, path: Path):
    """Import the file or package directory ``path`` as module ``name``."""
    if path.is_dir():
        spec = importlib.util.spec_from_file_location(
            name, path / "__init__.py", submodule_search_locations=[str(path)])
    else:
        spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One source tree's package, its experiment config and its timings."""

    def __init__(self, label: str, src: Path, config_dict: dict):
        self.label = label
        self.pkg = _load(f"snowlink_{label}", src / "snowlink")
        self.config = self.pkg.experiment_config_from_dict(config_dict)
        self.rates: list[float] = []
        self.estimate_s: dict[str, list[float]] = {}
        self._clock_estimates()

    def _clock_estimates(self):
        """Wrap the ``fit_total`` and ``attach_variance`` names that
        ``experiments`` calls, to time each estimate in CPU time."""
        exp = self.pkg.experiments
        fit, attach = exp.fit_total, exp.attach_variance
        pending = {}
        self._times = times = []

        def fit_total(*args, **kwargs):
            pending["start"] = time.process_time()
            return fit(*args, **kwargs)

        def attach_variance(report, *args, **kwargs):
            out = attach(report, *args, **kwargs)
            times.append((report.method, time.process_time() - pending["start"]))
            return out

        exp.fit_total, exp.attach_variance = fit_total, attach_variance

    def round_config(self, r: int):
        return replace(self.config, master_seed=self.config.master_seed + r)

    def replicate_cpu_s(self, r: int, index: int) -> float:
        """CPU seconds of replicate ``index`` of round ``r``, alone."""
        cpu0 = time.process_time()
        self.pkg.experiments._replicate_rows(self.round_config(r), index)
        return time.process_time() - cpu0

    def run_round(self, r: int, out_dir: Path, keep: bool = True):
        cfg = self.round_config(r)
        self._times.clear()
        cpu0 = time.process_time()
        summary = self.pkg.run_experiment(cfg)
        self.pkg.emit_reports(summary, out_dir / f"{self.label}{r}")
        cpu = time.process_time() - cpu0
        if not keep:
            return
        self.rates.append(cfg.replicates / cpu)
        per_method: dict[str, list[float]] = {}
        for method, seconds in self._times:
            per_method.setdefault(method, []).append(seconds)
        for method, seconds in per_method.items():
            self.estimate_s.setdefault(method, []).append(statistics.median(seconds))


def cold_start_s(src: Path, config_dict: dict) -> float:
    """CPU seconds of one fresh interpreter from start to a parsed config."""
    out = subprocess.run([sys.executable, "-c", _COLD_START, str(src), json.dumps(config_dict)],
                         check=True, capture_output=True, text=True).stdout
    return float(out)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_src", type=Path, help="source tree A (the 'src' directory)")
    parser.add_argument("b_src", type=Path, help="source tree B (the 'src' directory)")
    parser.add_argument("--workload", default="desk-homog")
    parser.add_argument("--rounds", type=int, default=24)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    workloads = _load("mcbench_workloads", ROOT / "mcbench" / "workloads.py")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    srcs = (args.a_src.resolve(), args.b_src.resolve())
    for src in srcs:
        if not (src / "snowlink" / "__init__.py").is_file():
            parser.error(f"{src} holds no snowlink/__init__.py: give the 'src' directory "
                         "of a checkout, the one that holds the snowlink package")
    config_dict = workloads.experiment_config(args.workload, args.seed)
    cold = ([], [])
    for pair in range(COLD_START_PAIRS):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            cold[side].append(cold_start_s(srcs[side], config_dict))
        print(f"cold start {pair:3d}  CPU s  A {cold[0][-1]:.3f}  B {cold[1][-1]:.3f}", flush=True)
    sides = (Side("a", srcs[0], config_dict), Side("b", srcs[1], config_dict))
    print(f"workload {args.workload}, seed {args.seed}, {args.rounds} rounds of "
          f"{config_dict['replicates']} replicates")
    replicate_ratios = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for side in sides:  # one untimed round each: imports and first-call costs
            side.run_round(0, out / "warm", keep=False)
        for r in range(args.rounds):
            for side in sides if r % 2 == 0 else sides[::-1]:
                side.run_round(r, out)
            for index in range(config_dict["replicates"]):
                cpu = {}
                for side in sides if index % 2 == 0 else sides[::-1]:
                    cpu[side.label] = side.replicate_cpu_s(r, index)
                replicate_ratios.append(cpu["a"] / cpu["b"])
            a, b = sides
            print(f"round {r:3d}  replicates/s  A {a.rates[-1]:8.3f}  B {b.rates[-1]:8.3f}"
                  f"  B/A {b.rates[-1] / a.rates[-1]:.3f}", flush=True)

    a, b = sides
    rows = [("cold start CPU s (A/B)", [x / y for x, y in zip(*cold)]),
            ("replicates_per_s (B/A)", [y / x for x, y in zip(a.rates, b.rates)])]
    for method in sorted(a.estimate_s):
        rows.append((f"{method} estimate s p50 (A/B)",
                     [x / y for x, y in zip(a.estimate_s[method], b.estimate_s[method])]))
    rows.append(("replicate CPU s (A/B)", replicate_ratios))
    print(f"{'paired ratio':<30} {'q1':>7} {'median':>7} {'q3':>7} {'B better':>9}")
    for name, ratios in rows:
        q1, q2, q3 = _quartiles(ratios)
        better = sum(ratio > 1.0 for ratio in ratios)
        print(f"{name:<30} {q1:7.3f} {q2:7.3f} {q3:7.3f} {better:5d}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
