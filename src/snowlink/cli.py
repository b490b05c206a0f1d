"""Command-line interface.

Subcommands wire the library end to end on JSON files:

* ``snowlink simulate``   - draw one sample from a population config
* ``snowlink estimate``   - fit one sample with one method, with variances
* ``snowlink matrices``   - analytic precision/covariance matrices
* ``snowlink experiment`` - seeded Monte Carlo study with report files

Exit status is 0 on a completed run (replicate-level estimation failures
inside an experiment are recorded, not fatal) and 1 on configuration or IO
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .errors import ParseError, SnowlinkError
from .estimators import fit_total
from .experiments import emit_reports, experiment_config_from_dict, run_experiment
from .link_model import model_from_spec
from .patterns import check_design, load_sample, sample_to_dict
from .simulator import draw_sample, population_config_from_dict, replicate_rng
from .variance import attach_variance, psi1_inverse, sigma1_inverse, sigma2_inverse


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(args) -> int:
    config = population_config_from_dict(_load_json(args.config))
    rng = replicate_rng(args.seed, 0)
    data, truth = draw_sample(config, rng)
    _dump_json(sample_to_dict(data), args.out)
    if args.truth:
        _dump_json(truth.to_dict(), args.truth)
    print(f"wrote {args.out} (m={data.m_total}, r1={data.r1}, r2={data.r2})")
    return 0


def _models_from_file(obj):
    if "model1" in obj or "model2" in obj:
        try:
            return model_from_spec(obj["model1"]), model_from_spec(obj["model2"])
        except KeyError as exc:
            raise ParseError("model file must give both model1 and model2") from exc
    model = model_from_spec(obj)
    return model, model


def _cmd_estimate(args) -> int:
    data = load_sample(args.data)
    model1, model2 = _models_from_file(_load_json(args.model))
    report = fit_total(data, model1, model2, args.method)
    attach_variance(report, data, model1, model2, level=args.level,
                    source=args.variance_source)
    _dump_json(report.to_dict(), args.out)
    print(f"wrote {args.out} (tau1={report.tau1}, tau2={report.tau2}, tau={report.tau})")
    return 0


def _cmd_matrices(args) -> int:
    obj = _load_json(args.model)
    model = model_from_spec(obj)
    theta_obj = _load_json(args.theta)
    try:
        theta = np.asarray(
            theta_obj["values"] if isinstance(theta_obj, dict) else theta_obj, dtype=float
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(
            f"{args.theta}: expected a list of numbers or an object with 'values'"
        ) from exc
    try:
        n_str, N_str = args.design.split(",")
        n, N = int(n_str), int(N_str)
    except ValueError as exc:
        raise ParseError(f"--design expects 'n,N', got {args.design!r}") from exc
    # sigma2 does not use the design, but a design that contradicts the
    # model is still an input error
    check_design(model, n, N)
    mats = (sigma1_inverse(theta, model, n, N) if args.which == "sigma1" else
            psi1_inverse(theta, model, n, N) if args.which == "psi1" else
            sigma2_inverse(theta, model))
    _dump_json(
        {
            "schema_version": 1,
            "which": mats.which,
            "inverse": mats.inverse_form.tolist(),
            "covariance": mats.covariance_form.tolist(),
            "condition_number": mats.condition_number,
        },
        args.out,
    )
    print(f"wrote {args.out} (condition number {mats.condition_number:.3e})")
    return 0


def _cmd_experiment(args) -> int:
    config = experiment_config_from_dict(_load_json(args.config))
    # replace() runs the config's checks on each overridden value
    if args.workers is not None:
        config = dataclasses.replace(config, parallelism=args.workers)
    if args.out_dir is not None:
        config = dataclasses.replace(config, out_dir=args.out_dir)
    summary = run_experiment(config)
    paths = emit_reports(summary, config.out_dir)
    failures = sum(ms.failures for ms in summary.per_method.values())
    print(f"wrote {paths['summary']}, {paths['csv']}, {paths['digest']} "
          f"({failures} replicate failures)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snowlink",
        description="Hidden-population size estimation from combined cluster "
                    "and link-tracing samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw one sample from a population config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="fit one sample")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True,
                   help="model spec JSON, or an object with model1/model2")
    p.add_argument("--method", required=True, choices=["umle", "cmle"])
    p.add_argument("--out", required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--variance-source", default="analytic",
                   choices=["analytic", "empirical_v"])
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("matrices", help="analytic asymptotic matrices")
    p.add_argument("--model", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--design", required=True, help="'n,N' site counts")
    p.add_argument("--which", required=True, choices=["sigma1", "psi1", "sigma2"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_matrices)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out-dir", default=None,
                   help="overrides the config's out_dir (default '.')")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SnowlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
