"""MNIST 3 vs 5 with tiled encodings: many input pixels, few circuit knobs.

A 784-pixel image cannot feed a 2-parameter circuit through a dense random
map without washing everything out, so the input is split into spatial
tiles, one tile per circuit parameter. Each episode then sees every pixel,
but each parameter only aggregates its own patch.

Requires the standard MNIST IDX files. Place them (raw or .gz) either in
    <repo>/data/mnist/
or in a directory pointed to by the QKS_MNIST_DIR environment variable:
    train-images-idx3-ubyte  train-labels-idx1-ubyte
    t10k-images-idx3-ubyte   t10k-labels-idx1-ubyte
"""

import os
import sys
import time
from pathlib import Path

import numpy as np

from qks import (
    evaluate,
    featurize,
    get_ansatz,
    load_mnist_split,
    make_tilemap,
    sample_machine,
    standardize,
    train,
)

_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def find_data_dir():
    candidates = []
    if os.environ.get("QKS_MNIST_DIR"):
        candidates.append(Path(os.environ["QKS_MNIST_DIR"]))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    for base in candidates:
        if all((base / f).exists() or (base / (f + ".gz")).exists()
               for f in _FILES):
            return base
    return None


def show_tiling(q):
    tm = make_tilemap(28, 28, q)
    print(f"q={q}: {tm.grid[0]}x{tm.grid[1]} grid of tiles, sizes "
          f"{sorted(len(t) for t in tm.tiles)}")
    # draw which tile owns each cell of a shrunken 14x14 preview
    owner = np.empty(784, dtype=int)
    for k, tile in enumerate(tm.tiles):
        owner[list(tile)] = k
    owner = owner.reshape(28, 28, order="F")  # undo column-major flattening
    glyphs = "0123456789abcdef"
    for r in range(0, 28, 2):
        print("    " + "".join(glyphs[owner[r, c]] for c in range(0, 28, 2)))


data_dir = find_data_dir()
if data_dir is None:
    print(__doc__)
    print("MNIST files not found; showing the tilings that would be used.\n")
    for q in (2, 4, 9, 16):
        show_tiling(q)
        print()
    sys.exit(0)

EPISODES = 500
SIGMA = 0.05

print(f"loading MNIST 3 vs 5 from {data_dir}")
train_raw = load_mnist_split(data_dir, "train")
test_raw = load_mnist_split(data_dir, "test")
train_ds, test_ds, _ = standardize(train_raw, test_raw)
print(f"{train_ds.size} train / {test_ds.size} test, {train_ds.dim} pixels "
      "(standardized per pixel with training statistics)")

print("\n--- linear baseline on raw pixels ---")
t0 = time.perf_counter()
base = train(train_ds.inputs, train_ds.labels)
base_err = evaluate(base, test_ds.inputs, test_ds.labels)
print(f"test error {base_err:.4f} in {time.perf_counter() - t0:.0f}s")

print(f"\n--- cnot2 kitchen sink, 2 tiles, sigma={SIGMA}, E={EPISODES} ---")
show_tiling(2)
template = get_ansatz("cnot2")
structure = make_tilemap(28, 28, 2).to_structure()
machine = sample_machine(template, structure, SIGMA, EPISODES, seed=0)
t0 = time.perf_counter()
feat_train = featurize(machine, train_ds.inputs)
feat_test = featurize(machine, test_ds.inputs)
print(f"featurized {train_ds.size + test_ds.size} images in "
      f"{time.perf_counter() - t0:.0f}s")
t0 = time.perf_counter()
model = train(feat_train, train_ds.labels)
err = evaluate(model, feat_test, test_ds.labels)
print(f"trained in {time.perf_counter() - t0:.0f}s")
print(f"test error {err:.4f}  (baseline {base_err:.4f})")
