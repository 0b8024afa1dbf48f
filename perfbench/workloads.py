"""The benchmark's workloads: inputs, checked operations, diagnostics.

Each workload builds its inputs and machines in ``__init__`` (set-up) and
makes one cheap ``warm_up`` call. One pass of the workload runs ``run(part)``
for every entry of ``parts``; each call is one timed operation, checks its
own outputs and returns an :class:`Outcome`. Operations are short (0.1 to
7 s), so that a run of the benchmark holds many of them and its fastest one
sheds the load of other tenants of the machine. ``diagnostics`` derives
the workload's own per-layer numbers from one pass and its spans; it is
never timed.

Why these three: ``frames-cnot2`` is the paper's headline experiment and is
dominated by the classifier; ``p9-dump`` is dominated by the dense simulator's
sampling path and never touches the classifier; ``kernel-sweep`` uses the
simulator's exact-probability path with no sampling, then kernel marginals.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import os
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

# Criterion 2 at a quarter of its rows (the full experiment trains for about
# 30 s, one sample per run), on the fixed data and machine of seed 0. The
# solver's iteration count, and so the run time, depends on the data (seeds
# 0-3 stop after 10000, 6960, 10000 and 10000 iterations: 5.2-8.8 s of
# training on a 2-core Xeon), so data drawn from the workload seed would
# make the run time a property of the seed rather than of the code.
FRAMES_SEED = 0
FRAMES_PER_CLASS = (200, 50)
FRAMES_EPISODES = 1000
MAX_TEST_ERROR = 0.01

P9_ROWS = 2 * 64  # a whole number of featurize's 64-row blocks
P9_EPISODES = 50
P9_REFERENCE_ROWS = 4

KERNEL_PAIRS = 20
KERNEL_SIGMAS = (0.25, 1.0, 4.0)
KERNEL_ANSATZE = ("cnot2", "cz2")
KERNEL_EPISODES = 100_000
# A run checks every cnot2 pair at every sigma against the closed form. At
# 4 stderr each, those 60 checks would fail about one seed in 250 by chance
# (a false-alarm rate of 6.3e-5 each), so the per-pair limit keeps the
# false-alarm rate of the whole family at KERNEL_FALSE_ALARM (Bonferroni):
# about 5.6 stderr.
KERNEL_FALSE_ALARM = 1e-6
KERNEL_MAX_STDERR = NormalDist().inv_cdf(
    1 - KERNEL_FALSE_ALARM / (2 * KERNEL_PAIRS * len(KERNEL_SIGMAS))
)
KERNEL_CZ2_STDERR = 4.0
# cz2's kernel is 1/2 in every episode, so its stderr is rounding noise.
KERNEL_ROUNDING = 1e-12


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """One checked operation of a workload."""

    attempted: int
    failures: list[str]
    digest: str
    values: dict = field(default_factory=dict)  # workload-only end results
    keep: dict = field(default_factory=dict)  # outputs for diagnostics


class FramesCnot2:
    """Criterion 2: cnot2 kitchen sink on picture frames, then the classifier."""

    parts = (None,)

    def __init__(self, qks, seed: int, out_dir, span):
        self.qks = qks
        with span("datasets.gen"):
            self.train_ds, self.test_ds = qks.gen_picture_frames(
                *FRAMES_PER_CLASS, seed=FRAMES_SEED
            )
        self.machine = qks.sample_machine(
            qks.get_ansatz("cnot2"), qks.EncodingStructure.split(2),
            1.0, FRAMES_EPISODES, FRAMES_SEED,
        )

    def warm_up(self) -> None:
        self.qks.featurize(self.machine, self.train_ds.inputs[:64])

    def run(self, part=None) -> Outcome:
        qks = self.qks
        ftr = qks.featurize(self.machine, self.train_ds.inputs, workers=1)
        fte = qks.featurize(self.machine, self.test_ds.inputs, workers=1)
        model = qks.train(ftr, self.train_ds.labels)
        error = qks.evaluate(model, fte, self.test_ds.labels)
        failures = []
        if not error <= MAX_TEST_ERROR:
            failures.append(f"test_error {error} > {MAX_TEST_ERROR}")
        return Outcome(1, failures, _digest(ftr.packed, fte.packed),
                       {"test_error": error}, {"features": ftr, "model": model})

    def diagnostics(self, outcomes: list[Outcome], spans) -> dict:
        qks = self.qks
        (outcome,) = outcomes
        model = outcome.keep["model"]
        _, gw, gb = qks.loss_and_gradient(
            model.weights, model.intercept, outcome.keep["features"],
            self.train_ds.labels, model.reg_lambda,
        )
        grad_inf = max(float(np.abs(gw).max()), abs(gb))
        tol = inspect.signature(qks.train).parameters["tol"].default
        return {
            "logistic.iterations": len(model.loss_history) - 1,
            "logistic.grad_inf": grad_inf,
            "logistic.converged": int(grad_inf <= tol),
            "test_error": outcome.values["test_error"],
        }


class P9Dump:
    """``qks features dump``/``load``: p9 featurize, save, load, inspect."""

    parts = (None,)

    def __init__(self, qks, seed: int, out_dir, span):
        self.qks = qks
        self.span = span
        self.workers = nproc()
        with span("datasets.gen"):
            self.inputs = np.random.default_rng(seed).normal(size=(P9_ROWS, 9))
        self.machine = qks.sample_machine(
            qks.get_ansatz("p9"), qks.EncodingStructure.split(9),
            1.0, P9_EPISODES, seed,
        )
        self.path = out_dir / f"p9-dump-seed{seed}.qksf"

    def warm_up(self) -> None:
        self.qks.featurize(self.machine, self.inputs[:1])

    def _reference_bits(self, rows: int) -> np.ndarray:
        """Single-state path: exact probabilities, inverse CDF, same uniforms."""
        qks, m = self.qks, self.machine
        n = m.num_qubits
        shifts = np.arange(n)
        thetas = m.encode_batch(self.inputs[:rows])
        bits = np.empty((rows, m.episodes * n), dtype=np.uint8)
        for i in range(rows):
            uniforms = qks.shot_stream(m.seed, i).random(m.episodes)
            for e in range(m.episodes):
                cdf = np.cumsum(qks.exact_probabilities(m.template, thetas[i, e]))
                z = min(int(np.searchsorted(cdf, uniforms[e], side="right")),
                        cdf.size - 1)
                bits[i, e * n:(e + 1) * n] = (z >> shifts) & 1
        return bits

    def run(self, part=None) -> Outcome:
        qks = self.qks
        fm = qks.featurize(self.machine, self.inputs, workers=self.workers)
        serial = qks.featurize(self.machine, self.inputs, workers=1)
        failures = []
        if not np.array_equal(fm.packed, serial.packed):
            failures.append(f"bits differ between workers={self.workers} and 1")

        rows = P9_REFERENCE_ROWS
        got = np.unpackbits(fm.packed[:rows].view(np.uint8), axis=1,
                            bitorder="little")[:, :fm.num_columns]
        if not np.array_equal(got, self._reference_bits(rows)):
            failures.append("first rows differ from the single-state reference")

        qks.save_features(fm, self.path)
        if not qks.load_features(self.path).equals(fm):
            failures.append("load_features does not return the saved matrix")

        text = io.StringIO()
        with self.span("cli.features_load"), contextlib.redirect_stdout(text):
            code = qks.cli.main(["features", "load", "--path", str(self.path)])
        expected = f"{fm.rows} rows x {fm.num_columns} columns"
        if code != 0 or expected not in text.getvalue():
            failures.append(f"qks features load exited {code}: {text.getvalue()!r}")
        return Outcome(4, failures, _digest(fm.packed))

    def diagnostics(self, outcomes: list[Outcome], spans) -> dict:
        calls = sorted((s for s in spans if s.name == "features.featurize"),
                       key=lambda s: s.start)
        wide, serial = (s.duration for s in calls)
        return {
            "features.parallel_efficiency": serial / (self.workers * wide),
            "features.file_bytes": self.path.stat().st_size,
        }


class KernelSweep:
    """Criterion 6: Monte Carlo kernels against the closed form and 1/2.

    One operation is one pair at one sigma on both ansatze; a pass is every
    pair at every sigma. The cost of ``mc_kernel`` depends on neither, so
    the operations are alike.
    """

    parts = tuple((sigma, i) for sigma in KERNEL_SIGMAS
                  for i in range(KERNEL_PAIRS))

    def __init__(self, qks, seed: int, out_dir, span):
        self.qks = qks
        rng = np.random.default_rng(seed)
        with span("datasets.gen"):
            self.pairs = rng.normal(size=(KERNEL_PAIRS, 2, 2))
        structure = qks.EncodingStructure.split(2)
        self.machines = {
            (name, sigma): qks.sample_machine(
                qks.get_ansatz(name), structure, sigma, KERNEL_EPISODES,
                int(rng.integers(2**63)),
            )
            for name in KERNEL_ANSATZE
            for sigma in KERNEL_SIGMAS
        }

    def warm_up(self) -> None:
        u, v = self.pairs[0]
        self.qks.mc_kernel(self.machines["cnot2", KERNEL_SIGMAS[0]], u, v)

    def run(self, part) -> Outcome:
        qks = self.qks
        sigma, index = part
        u, v = self.pairs[index]
        failures = []
        estimates = []
        worst = 0.0
        for name in KERNEL_ANSATZE:
            est = qks.mc_kernel(self.machines[name, sigma], u, v)
            estimates.append((est.value, est.stderr))
            if name == "cnot2":
                exact = qks.closed_form_cnot2(u, v, sigma)
                allowed = KERNEL_MAX_STDERR * est.stderr
                worst = abs(est.value - exact) / est.stderr
            else:
                exact = 0.5
                allowed = max(KERNEL_CZ2_STDERR * est.stderr, KERNEL_ROUNDING)
            if not abs(est.value - exact) <= allowed:
                failures.append(
                    f"{name} sigma={sigma} pair {index}: mc {est.value} vs "
                    f"{exact} (stderr {est.stderr})"
                )
        return Outcome(len(estimates), failures, _digest(np.array(estimates)),
                       {"kernel_gap_stderr": worst})

    def diagnostics(self, outcomes: list[Outcome], spans) -> dict:
        return {"kernel_gap_stderr": max(o.values["kernel_gap_stderr"]
                                         for o in outcomes)}


WORKLOADS = {
    "frames-cnot2": FramesCnot2,
    "p9-dump": P9Dump,
    "kernel-sweep": KernelSweep,
}
