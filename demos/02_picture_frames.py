"""Picture frames: two nested square rings that defeat any linear classifier.

The quantum kitchen sink turns each 2-D point into a long random binary
feature vector. A plain logistic regression on those bits separates the
rings almost perfectly, while the same model on raw coordinates is stuck at
chance. A control ansatz whose measurement statistics ignore the input
(cz2) shows the lift really comes from input-dependent interference, not
from sheer feature count.
"""

import time

import numpy as np

from qks import (
    EncodingStructure,
    evaluate,
    featurize,
    gen_picture_frames,
    get_ansatz,
    sample_machine,
    train,
)

TRAIN_PER_CLASS = 800
TEST_PER_CLASS = 200
EPISODES = 1000
SIGMA = 1.0

train_ds, test_ds = gen_picture_frames(TRAIN_PER_CLASS, TEST_PER_CLASS, seed=0)
print(f"dataset: {train_ds.size} train / {test_ds.size} test points in 2-D")
inner = train_ds.inputs[train_ds.labels == 0]
outer = train_ds.inputs[train_ds.labels == 1]
print(f"  class 0 ring |x|_inf in [{np.abs(inner).max(1).min():.3f}, "
      f"{np.abs(inner).max(1).max():.3f}]")
print(f"  class 1 ring |x|_inf in [{np.abs(outer).max(1).min():.3f}, "
      f"{np.abs(outer).max(1).max():.3f}]")

print("\n--- linear baseline on raw coordinates ---")
t0 = time.perf_counter()
base = train(train_ds.inputs, train_ds.labels)
base_err = evaluate(base, test_ds.inputs, test_ds.labels)
print(f"test error {base_err:.4f} in {time.perf_counter() - t0:.1f}s "
      f"(chance is 0.5; the rings are concentric, so this cannot work)")


def kitchen_sink(ansatz_name):
    template = get_ansatz(ansatz_name)
    machine = sample_machine(
        template, EncodingStructure.split(2), SIGMA, EPISODES, seed=0
    )
    t0 = time.perf_counter()
    feat_train = featurize(machine, train_ds.inputs)
    feat_test = featurize(machine, test_ds.inputs)
    feat_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    model = train(feat_train, train_ds.labels)
    fit_seconds = time.perf_counter() - t0
    err = evaluate(model, feat_test, test_ds.labels)
    print(f"featurized to {feat_train.num_columns} binary columns in "
          f"{feat_seconds:.1f}s, trained in {fit_seconds:.1f}s")
    print(f"test error {err:.4f}")
    return err


print(f"\n--- kitchen sink, cnot2 ansatz, sigma={SIGMA}, E={EPISODES} ---")
qks_err = kitchen_sink("cnot2")

print(f"\n--- control: cz2 ansatz, same budget ---")
print("(RX then CZ then H on both wires makes every marginal exactly 1/2,")
print(" so the measured bits carry no information about the input)")
ctl_err = kitchen_sink("cz2")

print("\nsummary")
print(f"  raw linear baseline : {base_err:.4f}")
print(f"  cnot2 kitchen sink  : {qks_err:.4f}")
print(f"  cz2 control         : {ctl_err:.4f}")
