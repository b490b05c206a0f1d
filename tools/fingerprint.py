"""Fingerprint the numerical outputs of the package.

Runs a seeded battery through the public API and prints, per output family,
one sha256 over every output, the number of outputs and how many of them
are errors, then the same over all families.  Two source trees that print the same lines produce the same
outputs bit for bit on this battery.

    OPENBLAS_NUM_THREADS=1 python tools/fingerprint.py [SRC_DIR] [--labels]   # default: src

With ``--labels`` it first prints one line per output (family, label and the
sha256 of that output), so a ``diff`` of two trees' listings names every
output that changed.

The battery, on seeded ``draw_sample`` draws of both link-model families
(``n`` from 2 to 5, every third draw ``rasch`` with 20 quadrature nodes):

* ``fit``       - ``fit_total`` reports for ``umle`` and ``cmle``;
* ``variance``  - ``attach_variance`` with both sources, and both
  ``theta_covariances``;
* ``matrices``  - ``sigma1_inverse``, ``psi1_inverse`` and ``sigma2_inverse``
  at the true parameters, and of one ``rasch`` design with more sites than
  pattern enumeration allows (``n = 21``, 20 nodes), whose outputs show how
  far the analytic variances reach;
* ``scalar``    - ``sigma1_sq_umle``, ``sigma1_sq_cmle`` and ``sigma2_sq`` at
  the true parameters;
* ``loglik``    - ``loglik_full`` and ``loglik_cond`` of both parts at the
  truth;
* ``study``     - ``replicates.csv``, ``summary.json`` and ``digest.txt`` of a
  6-replicate study per family and variance source.

Floats are encoded by ``float.hex``, arrays by dtype, shape and bytes, and a
raised exception by its class and message.  Digests depend on the CPU and
the BLAS build, so compare two trees on one machine; the thread variables
are set to 1 here unless the caller sets them.  Reports are written to a
temporary directory only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

DRAWS = 120
STUDY_REPLICATES = 6
#: One more site than ``patterns.ENUMERATION_GUARD`` allows.
REACH_SITES = 21
FAMILIES = ("fit", "variance", "matrices", "scalar", "loglik", "study")


def encode(value) -> bytes:
    """A type-tagged byte encoding that tells every distinct value apart."""
    if value is None or isinstance(value, (bool, np.bool_)):
        return f"b:{value};".encode()
    if isinstance(value, (int, np.integer)):
        return f"i:{int(value)};".encode()
    if isinstance(value, (float, np.floating)):
        return f"f:{float(value).hex()};".encode()
    if isinstance(value, str):
        return f"s:{len(value)}:{value};".encode()
    if isinstance(value, bytes):
        return f"y:{len(value)}:".encode() + value + b";"
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return f"a:{arr.dtype.str}:{arr.shape}:".encode() + arr.tobytes() + b";"
    if isinstance(value, dict):
        return b"d{" + b"".join(encode(k) + encode(value[k]) for k in sorted(value)) + b"}"
    if isinstance(value, (list, tuple)):
        return b"l[" + b"".join(encode(v) for v in value) + b"]"
    raise TypeError(f"cannot encode {type(value).__name__}")


class Fingerprint:
    def __init__(self):
        self.hashes = {name: hashlib.sha256() for name in FAMILIES}
        self.counts = dict.fromkeys(FAMILIES, 0)
        self.errors = dict.fromkeys(FAMILIES, 0)
        self.outputs = []

    def record(self, family: str, label: str, thunk, view=lambda value: value):
        """Hash ``view(thunk())`` under ``label``, or the exception ``thunk``
        raises; returns ``thunk()``, or None on an exception."""
        try:
            out = thunk()
            value = view(out)
        except Exception as exc:  # every failure is an output too
            value = ("error", type(exc).__name__, str(exc))
            out = None
            self.errors[family] += 1
        h = self.hashes[family]
        h.update(encode(label))
        h.update(encode(value))
        self.counts[family] += 1
        self.outputs.append((family, label, hashlib.sha256(encode(value)).hexdigest()))
        return out

    def label_lines(self) -> list[str]:
        return [f"{family:<9} {label}  {digest}" for family, label, digest in self.outputs]

    def lines(self) -> list[str]:
        total = hashlib.sha256()
        out = []
        for name in FAMILIES:
            digest = self.hashes[name].hexdigest()
            total.update(digest.encode())
            out.append(f"{name:<9} {self.counts[name]:6d} outputs {self.errors[name]:4d} "
                       f"errors  {digest}")
        out.append(f"{'total':<9} {sum(self.counts.values()):6d} outputs "
                   f"{sum(self.errors.values()):4d} errors  {total.hexdigest()}")
        return out


def _population(sl, index: int):
    """The design of draw ``index``: its family, site count and parameters."""
    from scipy.special import logit

    rng = np.random.default_rng(1000 + index)
    n = 2 + index % 4
    N = n + 3 + index % 5
    rasch = index % 3 == 0

    def make():
        return sl.RaschLinkModel(n, quadrature_nodes=20) if rasch else sl.HomogeneousLinkModel(n)

    model1, model2 = make(), make()
    theta1 = logit(rng.uniform(0.2, 0.4, n))
    theta2 = logit(rng.uniform(0.2, 0.4, n))
    if rasch:
        theta1 = np.append(theta1, 1.0)
        theta2 = np.append(theta2, 0.8)
    return sl.PopulationConfig(
        N=N, n=n, cluster_mode=sl.ConditionalMultinomial(int(rng.integers(150, 600))),
        tau2=int(rng.integers(100, 400)), model1=model1, model2=model2,
        theta1=theta1, theta2=theta2,
    )


def _matrices(mats):
    return (mats.which, mats.inverse_form, mats.covariance_form, mats.condition_number)


def _terms(terms):
    return (terms.value, terms.grad_theta)


def _variance(sl, report, data, pop, source: str):
    sl.attach_variance(report, data, pop.model1, pop.model2, level=0.9, source=source)
    return report.variance.to_dict()


def run_draw(sl, fp: Fingerprint, index: int):
    from snowlink.likelihood import loglik_cond, loglik_full

    pop = _population(sl, index)
    data, truth = sl.draw_sample(pop, sl.replicate_rng(9, index))
    tag = f"draw{index}"
    n, N = data.n, data.N
    for method in ("umle", "cmle"):
        report = fp.record(
            "fit", f"{tag}/{method}",
            lambda: sl.fit_total(data, pop.model1, pop.model2, method),
            lambda r: (r.to_dict(), r.theta1, r.theta2))
        if report is None:
            continue
        for source in ("analytic", "empirical_v"):
            label = f"{tag}/{method}/{source}"
            if fp.record("variance", label,
                         lambda: _variance(sl, report, data, pop, source)) is None:
                continue
            fp.record("variance", f"{label}/theta_cov",
                      lambda: sl.theta_covariances(report))
    t1, t2 = pop.theta1, pop.theta2
    fp.record("matrices", f"{tag}/sigma1",
              lambda: _matrices(sl.sigma1_inverse(t1, pop.model1, n, N)))
    fp.record("matrices", f"{tag}/psi1",
              lambda: _matrices(sl.psi1_inverse(t1, pop.model1, n, N)))
    fp.record("matrices", f"{tag}/sigma2",
              lambda: _matrices(sl.sigma2_inverse(t2, pop.model2)))
    fp.record("scalar", f"{tag}/umle", lambda: sl.sigma1_sq_umle(t1, pop.model1, n, N))
    fp.record("scalar", f"{tag}/cmle", lambda: sl.sigma1_sq_cmle(t1, pop.model1, n, N))
    fp.record("scalar", f"{tag}/sigma2", lambda: sl.sigma2_sq(t2, pop.model2))
    for part, comp, tau, theta, model in (
            ("covered", data.covered, truth.tau1, t1, pop.model1),
            ("uncovered", data.uncovered, truth.tau2, t2, pop.model2)):
        for name, fn in (("full", lambda: loglik_full(comp, tau, theta, model)),
                         ("cond", lambda: loglik_cond(comp, theta, model))):
            fp.record("loglik", f"{tag}/{part}/{name}", lambda: _terms(fn()))


def run_reach(sl, fp: Fingerprint):
    """The three precision matrices of a ``rasch`` design past the pattern
    enumeration guard; a tree that enumerates records its refusal."""
    n = REACH_SITES
    model = sl.RaschLinkModel(n, quadrature_nodes=20)
    theta = np.append(np.full(n, -0.85), 1.0)
    for which, build in (("sigma1", lambda: sl.sigma1_inverse(theta, model, n, 3 * n)),
                         ("psi1", lambda: sl.psi1_inverse(theta, model, n, 3 * n)),
                         ("sigma2", lambda: sl.sigma2_inverse(theta, model))):
        fp.record("matrices", f"reach{n}/{which}", lambda: _matrices(build()))


def run_studies(sl, fp: Fingerprint, tmp: Path):
    for family_index in (3, 1):  # the designs of draw 3 (rasch) and 1 (homogeneous)
        pop = _population(sl, family_index)
        for source in ("analytic", "empirical_v"):
            label = f"study{family_index}/{source}"
            out_dir = tmp / label.replace("/", "-")
            config = sl.ExperimentConfig(
                population=pop, replicates=STUDY_REPLICATES, methods=("umle", "cmle"),
                master_seed=21 + family_index, variance_source=source,
                out_dir=str(out_dir))
            paths = fp.record(
                "study", label,
                lambda: sl.emit_reports(sl.run_experiment(config), config.out_dir),
                lambda paths: sorted(paths))
            for key in sorted(paths or ()):
                fp.record("study", f"{label}/{key}", Path(paths[key]).read_bytes)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Fingerprint the package's outputs.")
    parser.add_argument("src", nargs="?", default="src", help="source tree to import")
    parser.add_argument("--labels", action="store_true",
                        help="print one line per output before the summary")
    args = parser.parse_args(argv[1:])
    src = Path(args.src).resolve()
    if not (src / "snowlink" / "__init__.py").is_file():
        parser.error(f"{src} holds no snowlink/__init__.py: give the 'src' directory "
                     "of a checkout, the one that holds the snowlink package")
    sys.path.insert(0, str(src))
    import snowlink as sl

    if src not in Path(sl.__file__).resolve().parents:
        print(f"snowlink was imported from {sl.__file__}, not from {src}", file=sys.stderr)
        return 1
    fp = Fingerprint()
    for index in range(DRAWS):
        run_draw(sl, fp, index)
    run_reach(sl, fp)
    with tempfile.TemporaryDirectory() as tmp:
        run_studies(sl, fp, Path(tmp))
    if args.labels:
        print("\n".join(fp.label_lines()))
    print("\n".join(fp.lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
