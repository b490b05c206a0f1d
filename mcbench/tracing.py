"""Span tracing from outside the package.

The tracer rebinds public names where the package looks them up at call
time (module globals of ``snowlink.experiments``, ``snowlink.estimators`` and
``snowlink.variance``, and the link-model classes' kernel methods), records a
span per call in memory, and puts every original back on ``uninstall``.
Nothing under ``src/`` is edited.

A span is ``[name, parent, start, end]``; its layer is the name's first dotted
part, which is the module in ``src/snowlink`` the call belongs to.  Self time
is the span's duration minus the durations of its direct children (one
thread, so children never overlap).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

LAYERS = ("experiments", "simulator", "estimators", "likelihood",
          "link_model", "variance", "patterns")

#: The calls each replicate makes from ``snowlink.experiments``, by stage.
STAGES = {
    "simulator.draw_sample": "simulate",
    "estimators.fit_total": "fit",
    "variance.attach_variance": "variance",
    "variance.theta_covariances": "variance",
}

PER_LAYER_UNITS = {
    "link_model.probs_and_grads.calls": "count",
    "link_model.probs_and_grads.rows": "count",
    "link_model.probs_and_grads.s": "s",
    "link_model.zero_prob_and_grad.calls": "count",
    "link_model.zero_prob_and_grad.s": "s",
    "likelihood.evals": "count",
    "likelihood.s": "s",
    "likelihood.kernel_calls_per_eval": "calls/eval",
    "estimators.fits": "count",
    "estimators.iterations": "count",
    "estimators.sweeps": "count",
    "estimators.evals_per_iteration": "evals/iter",
    "estimators.s": "s",
    "variance.attach_variance.s": "s",
    "variance.theta_covariances.s": "s",
    "variance.precision.calls": "count",
    "variance.s": "s",
    "patterns.enumerated": "count",
    "patterns.enumerate.s": "s",
    "simulator.draw_sample.calls": "count",
    "simulator.draw_sample.s": "s",
    "experiments.s": "s",
    "experiments.report_bytes": "B",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span named ``name`` around each call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1], clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, key: str, fn):
        """``fn`` with a call counter and no span."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def _patch(self, owner, attr: str, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        import snowlink.estimators as est
        import snowlink.experiments as exp
        import snowlink.link_model as lm
        import snowlink.variance as var

        counts = self.counts

        def kernel_rows(result):
            counts["link_model.probs_and_grads.rows"] += len(result[0])

        def solver_work(report):
            for part in ("covered", "uncovered"):
                counts["estimators.iterations"] += report.diagnostics[part]["iterations"]
                counts["estimators.sweeps"] += report.diagnostics[part]["sweeps"]

        def enumerated(patterns):
            counts["patterns.enumerated"] += len(patterns)

        for cls in (lm.HomogeneousLinkModel, lm.RaschLinkModel):
            self._patch(cls, "probs_and_grads", self.wrap(
                "link_model.probs_and_grads", cls.probs_and_grads, kernel_rows))
            self._patch(cls, "zero_prob_and_grad", self.wrap(
                "link_model.zero_prob_and_grad", cls.zero_prob_and_grad))
        for fn in ("loglik_cond_1", "loglik_full_1", "loglik_2"):
            self._patch(est, fn, self.wrap(f"likelihood.{fn}", getattr(est, fn)))
        for fn in ("fit_cmle_1", "fit_umle_1", "fit_2"):
            self._patch(est, fn, self.counted("estimators.fits", getattr(est, fn)))
        for fn in ("sigma1_inverse", "psi1_inverse", "sigma2_inverse"):
            self._patch(var, fn, self.counted("variance.precision.calls", getattr(var, fn)))
        self._patch(var, "enumerate_patterns", self.wrap(
            "patterns.enumerate", var.enumerate_patterns, enumerated))
        self._patch(exp, "draw_sample", self.wrap("simulator.draw_sample", exp.draw_sample))
        self._patch(exp, "fit_total", self.wrap(
            "estimators.fit_total", exp.fit_total, solver_work))
        self._patch(exp, "attach_variance", self.wrap(
            "variance.attach_variance", exp.attach_variance))
        self._patch(exp, "theta_covariances", self.wrap(
            "variance.theta_covariances", exp.theta_covariances))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Self seconds and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        seconds: dict = defaultdict(float)
        calls: Counter = Counter()
        for (name, _, start, end), inner in zip(self.spans, child):
            seconds[name] += end - start - inner
            calls[name] += 1
        return seconds, calls

    def layer_seconds(self) -> dict:
        seconds, _ = self.self_times()
        return {layer: sum(v for k, v in seconds.items() if k.split(".")[0] == layer)
                for layer in LAYERS}

    def stage_seconds(self) -> dict:
        """Wall time of each replicate stage, children included."""
        seconds = {stage: 0.0 for stage in STAGES.values()}
        for name, _, start, end in self.spans:
            if name in STAGES:
                seconds[STAGES[name]] += end - start
        return seconds

    def metrics(self, report_bytes: int, overhead_s: float) -> dict:
        s, calls = self.self_times()
        counts = self.counts
        layer = self.layer_seconds()
        evals = sum(v for k, v in calls.items() if k.startswith("likelihood."))
        kernel_in_likelihood = sum(
            1 for name, parent, _, _ in self.spans
            if name.startswith("link_model.") and parent >= 0
            and self.spans[parent][0].startswith("likelihood.")
        )
        iterations = counts["estimators.iterations"]
        values = {
            "link_model.probs_and_grads.calls": calls["link_model.probs_and_grads"],
            "link_model.probs_and_grads.rows": counts["link_model.probs_and_grads.rows"],
            "link_model.probs_and_grads.s": s["link_model.probs_and_grads"],
            "link_model.zero_prob_and_grad.calls": calls["link_model.zero_prob_and_grad"],
            "link_model.zero_prob_and_grad.s": s["link_model.zero_prob_and_grad"],
            "likelihood.evals": evals,
            "likelihood.s": layer["likelihood"],
            "likelihood.kernel_calls_per_eval": kernel_in_likelihood / evals if evals else 0.0,
            "estimators.fits": counts["estimators.fits"],
            "estimators.iterations": iterations,
            "estimators.sweeps": counts["estimators.sweeps"],
            "estimators.evals_per_iteration": evals / iterations if iterations else 0.0,
            "estimators.s": layer["estimators"],
            "variance.attach_variance.s": s["variance.attach_variance"],
            "variance.theta_covariances.s": s["variance.theta_covariances"],
            "variance.precision.calls": counts["variance.precision.calls"],
            "variance.s": layer["variance"],
            "patterns.enumerated": counts["patterns.enumerated"],
            "patterns.enumerate.s": s["patterns.enumerate"],
            "simulator.draw_sample.calls": calls["simulator.draw_sample"],
            "simulator.draw_sample.s": s["simulator.draw_sample"],
            "experiments.s": layer["experiments"],
            "experiments.report_bytes": report_bytes,
            "trace.overhead_s": overhead_s,
        }
        return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}

    def write(self, path):
        """Spans as CSV (name, parent index, start, end; seconds from the
        first span's start)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        lines = ["name,parent,start_s,end_s"]
        lines += [f"{n},{p},{a - t0:.9f},{b - t0:.9f}" for n, p, a, b in self.spans]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
