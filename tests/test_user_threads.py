"""Library calls from several user threads at once give their serial results.

Engines are shared per (template, layers) across threads, each thread
samples and packs in its own workspace, and each CG solve makes its own
vectors. A buffer shared by mistake would show as a result that differs
from the same call run alone.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from qks import (
    EncodingStructure,
    featurize,
    get_ansatz,
    mc_kernel,
    sample_machine,
    train,
)
from qks.features import ROW_BLOCK
from qks.kernels import KERNEL_BLOCK
from qks.simulator import cached_engine


def _jobs():
    """(name, call, result as a tuple of arrays) for each job."""
    jobs = []
    for name in ("cnot2", "cz2", "p4", "p9"):
        template = get_ansatz(name)
        n = template.num_qubits
        split = EncodingStructure.split(n)
        machine = sample_machine(template, split, 1.0, 24, seed=n)
        # Two kernel blocks, so mc_kernel may start its own pool thread.
        wide = sample_machine(template, split, 1.0, KERNEL_BLOCK + 7, seed=n)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(ROW_BLOCK + 6, n))
        labels = np.arange(len(x)) % 2
        features = featurize(machine, x)
        thetas = machine.encode_batch(x[:5]).reshape(-1, machine.num_params)
        engine = cached_engine(template)

        def fit(features=features, labels=labels):
            model = train(features, labels)
            return model.weights, model.intercept

        def kernel(wide=wide, x=x):
            estimate = mc_kernel(wide, x[0], x[1])
            return estimate.value, estimate.stderr

        jobs += [
            (f"{name} featurize workers=1",
             lambda m=machine, x=x: featurize(m, x, workers=1).packed),
            (f"{name} featurize workers=2",
             lambda m=machine, x=x: featurize(m, x, workers=2).packed),
            (f"{name} train", fit),
            (f"{name} mc_kernel", kernel),
            (f"{name} probabilities",
             lambda e=engine, t=thetas: e.probabilities(t)),
            (f"{name} marginals", lambda e=engine, t=thetas: e.marginals(t)),
        ]
    return jobs


def _arrays(result):
    return tuple(np.atleast_1d(a) for a in (
        result if isinstance(result, tuple) else (result,)))


def test_calls_from_user_threads_equal_their_serial_runs():
    jobs = _jobs()
    expected = {name: _arrays(call()) for name, call in jobs}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for order in range(3):
            shuffled = jobs[:]
            random.Random(order).shuffle(shuffled)
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [(name, pool.submit(call)) for name, call in shuffled]
                for name, future in futures:
                    got = _arrays(future.result(timeout=60))
                    assert all(map(np.array_equal, got, expected[name])), name
    finally:
        sys.setswitchinterval(interval)
