"""Datasets: synthetic picture frames, MNIST digit pairs, and helpers.

Picture frames are two concentric square outlines in the plane: class 0 is
the perimeter of a side-2 square jittered by Uniform[-0.05, 0.05]^2, class 1
the perimeter of a side-4 square jittered by Uniform[-0.1, 0.1]^2, both
centered at the origin. The classes are not linearly separable, so a linear
model on the raw coordinates stays near chance.

MNIST is read from the standard IDX files (optionally gzipped): big-endian
u32 magic 0x00000803, count, rows, cols, then row-major u8 pixels for
images; magic 0x00000801, count, then u8 labels. Images are vectorized
column-major (pixel (row r, col c) lands at index c*28 + r), matching the
tile maps below.
"""

from __future__ import annotations

import csv
import gzip
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoding import EncodingStructure, _substream
from .quil import _as_int, _as_labels, _as_reals

_TAG_TRAIN = 0
_TAG_TEST = 1

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class DataFormatError(ValueError):
    """Malformed dataset file (IDX or CSV)."""


@dataclass(frozen=True)
class LabeledDataset:
    """Inputs (M, p) float64 with {0, 1} labels, stored as int64.

    ``inputs`` must be 2-D finite real numbers and ``labels`` one 0 or 1
    per row; anything else raises ValueError, where a cast would parse
    strings or truncate a label of 0.7 to 0.
    """

    inputs: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        inputs = _as_reals("inputs", self.inputs, (None, None))
        labels = _as_labels(self.labels, len(inputs)).astype(np.int64)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def _frame_points(
    n: int, side: float, jitter: float, rng: np.random.Generator
) -> np.ndarray:
    """n points uniform on a square outline of the given side, then jittered."""
    half = side / 2.0
    edge = rng.integers(0, 4, size=n)
    t = rng.uniform(-half, half, size=n)
    x = np.where(edge < 2, t, np.where(edge == 2, -half, half))
    y = np.where(edge == 0, -half, np.where(edge == 1, half, t))
    pts = np.stack([x, y], axis=1)
    pts += rng.uniform(-jitter, jitter, size=(n, 2))
    return pts


def _frame_split(n_per_class: int, rng: np.random.Generator) -> LabeledDataset:
    inner = _frame_points(n_per_class, side=2.0, jitter=0.05, rng=rng)
    outer = _frame_points(n_per_class, side=4.0, jitter=0.1, rng=rng)
    inputs = np.concatenate([inner, outer])
    labels = np.concatenate(
        [np.zeros(n_per_class, np.int64), np.ones(n_per_class, np.int64)]
    )
    return LabeledDataset(inputs, labels, name="frames")


def gen_picture_frames(
    n_train_per_class: int = 800,
    n_test_per_class: int = 200,
    seed: int = 0,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Generate train and test splits from independent substreams of seed.

    Both per-class counts are integers >= 1; a float or bool raises.
    """
    n_train = _as_int("per-class counts", n_train_per_class, low=1)
    n_test = _as_int("per-class counts", n_test_per_class, low=1)
    train = _frame_split(n_train, _substream(seed, _TAG_TRAIN))
    test = _frame_split(n_test, _substream(seed, _TAG_TEST))
    return train, test


# ---------------------------------------------------------------------------
# IDX / MNIST


def _read_idx(path: str | Path, magic: int, kind: str, ndim: int) -> np.ndarray:
    """u8 payload of an IDX file: magic, then ndim u32 dimensions, then data.

    ``kind`` ("image" or "label") names the file in error messages. The size
    check multiplies Python ints, which cannot overflow as np.prod can.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError) as exc:
            raise DataFormatError(f"{path}: corrupt gzip stream: {exc}") from exc
    header = 4 * (1 + ndim)
    if len(raw) < header:
        raise DataFormatError(f"{path}: truncated IDX {kind} header")
    found, *dims = struct.unpack(f">{1 + ndim}I", raw[:header])
    if found != magic:
        raise DataFormatError(
            f"{path}: bad {kind} magic 0x{found:08x}, expected 0x{magic:08x}"
        )
    expected = header + math.prod(dims)
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} bytes for {dims[0]} {kind}s, got {len(raw)}"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)


def load_idx_images(path: str | Path) -> np.ndarray:
    """Read an IDX image file into a (count, rows, cols) uint8 array."""
    return _read_idx(path, IMAGE_MAGIC, "image", 3)


def load_idx_labels(path: str | Path) -> np.ndarray:
    """Read an IDX label file into a (count,) uint8 array."""
    return _read_idx(path, LABEL_MAGIC, "label", 1)


def load_mnist_pair(
    images_path: str | Path,
    labels_path: str | Path,
    digit_a: int = 3,
    digit_b: int = 5,
) -> LabeledDataset:
    """Load one IDX image/label pair, keeping only two digit classes.

    digit_a maps to label 0 and digit_b to label 1. Pixels are scaled to
    [0, 1] and images are vectorized column-major, so the p = rows*cols
    coordinates walk down each column in turn.
    """
    if digit_a == digit_b:
        raise ValueError("digit classes must differ")
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image/label count mismatch: {images.shape[0]} vs {labels.shape[0]}"
        )
    keep = (labels == digit_a) | (labels == digit_b)
    images = images[keep]
    labels = labels[keep]
    n, rows, cols = images.shape
    x = images.transpose(0, 2, 1).reshape(n, rows * cols) / 255.0
    y = (labels == digit_b).astype(np.int64)
    return LabeledDataset(x, y, name=f"mnist{digit_a}{digit_b}")


_SPLIT_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def mnist_split_paths(mnist_dir: str | Path, split: str) -> tuple[Path, Path]:
    """Resolve the raw or gzipped IDX pair for a split inside a directory."""
    if split not in _SPLIT_FILES:
        raise ValueError(f"split must be one of {sorted(_SPLIT_FILES)}")
    base = Path(mnist_dir)
    found = []
    for stem in _SPLIT_FILES[split]:
        for candidate in (base / stem, base / (stem + ".gz")):
            if candidate.exists():
                found.append(candidate)
                break
        else:
            raise FileNotFoundError(
                f"missing MNIST file {stem}[.gz] under {base}"
            )
    return found[0], found[1]


def load_mnist_split(
    mnist_dir: str | Path,
    split: str = "train",
    digit_a: int = 3,
    digit_b: int = 5,
) -> LabeledDataset:
    images, labels = mnist_split_paths(mnist_dir, split)
    return load_mnist_pair(images, labels, digit_a, digit_b)


# ---------------------------------------------------------------------------
# Standardization


@dataclass(frozen=True)
class Standardization:
    """Per-coordinate train-split statistics used to rescale both splits.

    ``mean`` and ``std`` are 1-D arrays of finite real numbers of one
    length, and ``std`` is >= 0; anything else raises ValueError, where
    :meth:`apply` would map a coordinate with a NaN std to 0.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = _as_reals("mean", self.mean, (None,))
        std = _as_reals("std", self.std, mean.shape)
        if (std < 0).any():
            raise ValueError("std must be >= 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def apply(self, inputs: np.ndarray) -> np.ndarray:
        """Rescaled ``inputs``: rows of finite real numbers, one per
        coordinate of ``mean``."""
        inputs = _as_reals("inputs", inputs, (None, len(self.mean)))
        safe = np.where(self.std > 0, self.std, 1.0)
        inv = np.where(self.std > 0, 1.0 / safe, 0.0)
        return (inputs - self.mean) * inv


def standardize(
    train: LabeledDataset, test: LabeledDataset
) -> tuple[LabeledDataset, LabeledDataset, Standardization]:
    """Zero-mean unit-variance rescaling with statistics from train only.

    Coordinates with zero variance on the train split map to zero in both
    splits instead of dividing by zero.
    """
    if train.dim != test.dim:
        raise ValueError("train and test must share the input dimension")
    stats = Standardization(train.inputs.mean(axis=0), train.inputs.std(axis=0))
    train2 = LabeledDataset(stats.apply(train.inputs), train.labels, train.name)
    test2 = LabeledDataset(stats.apply(test.inputs), test.labels, test.name)
    return train2, test2, stats


# ---------------------------------------------------------------------------
# Tile maps


@dataclass(frozen=True)
class TileMap:
    """Partition of an image grid into q rectangular tiles.

    ``tiles[k]`` lists the flat column-major pixel indices of tile k; tiles
    are ordered column-major over the block grid, so tile 0 is the top-left
    block.
    """

    rows: int
    cols: int
    grid: tuple[int, int]  # (row blocks, col blocks)
    tiles: tuple[tuple[int, ...], ...]

    def to_structure(self) -> EncodingStructure:
        return EncodingStructure.from_tiles(self.tiles, self.rows * self.cols)


def _near_equal_sizes(n: int, k: int) -> list[int]:
    """Split n into k near-equal parts, larger parts first."""
    base, extra = divmod(n, k)
    return [base + 1] * extra + [base] * (k - extra)


def make_tilemap(rows: int = 28, cols: int = 28, q: int = 4) -> TileMap:
    """Carve an image into q near-square rectangular tiles.

    The block grid uses the largest factor of q at most sqrt(q) for the row
    direction (q=2 gives two side-by-side 28x14 halves, q=4 a 2x2 grid of
    14x14 blocks, q=9 a 3x3 grid with 10/9/9-pixel splits). rows, cols and
    q are integers >= 1; a float or bool raises.
    """
    rows, cols = _as_int("rows", rows, low=1), _as_int("cols", cols, low=1)
    q = _as_int("q", q, low=1)
    if q > rows * cols:
        raise ValueError("more tiles than pixels")
    g_rows = 1
    for f in range(int(np.sqrt(q)), 0, -1):
        if q % f == 0:
            g_rows = f
            break
    g_cols = q // g_rows
    if g_rows > rows or g_cols > cols:
        raise ValueError(f"cannot split a {rows}x{cols} image into a "
                         f"{g_rows}x{g_cols} block grid")

    row_sizes = _near_equal_sizes(rows, g_rows)
    col_sizes = _near_equal_sizes(cols, g_cols)
    row_edges = np.concatenate(([0], np.cumsum(row_sizes)))
    col_edges = np.concatenate(([0], np.cumsum(col_sizes)))

    tiles = []
    for j in range(g_cols):  # column-major tile order
        for i in range(g_rows):
            idx = [
                c * rows + r
                for c in range(col_edges[j], col_edges[j + 1])
                for r in range(row_edges[i], row_edges[i + 1])
            ]
            tiles.append(tuple(idx))
    return TileMap(rows, cols, (g_rows, g_cols), tuple(tiles))


# ---------------------------------------------------------------------------
# CSV


def save_csv(dataset: LabeledDataset, path: str | Path) -> None:
    """Write inputs and labels as CSV; 2-D data gets an x,y,label header."""
    path = Path(path)
    if dataset.dim == 2:
        header = ["x", "y", "label"]
    else:
        header = [f"x{i}" for i in range(dataset.dim)] + ["label"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, label in zip(dataset.inputs, dataset.labels):
            writer.writerow([f"{v:.17g}" for v in row] + [int(label)])


def load_csv(path: str | Path, name: str = "") -> LabeledDataset:
    """Read a CSV of float columns with a trailing {0,1} label column.

    A non-numeric first line is a header and must name as many fields as
    each data row has.
    """
    path = Path(path)
    rows: list[list[float]] = []
    labels: list[int] = []
    header = None
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if not record:
                continue
            try:
                values = [float(v) for v in record]
            except ValueError:
                if lineno == 1:
                    header = len(record)
                    continue
                raise DataFormatError(
                    f"{path}: non-numeric value on line {lineno}"
                ) from None
            if not np.isfinite(values).all():
                raise DataFormatError(f"{path}: non-finite value on line {lineno}")
            label = values[-1]
            if label not in (0.0, 1.0):
                raise DataFormatError(
                    f"{path}: label on line {lineno} must be 0 or 1"
                )
            rows.append(values[:-1])
            labels.append(int(label))
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataFormatError(f"{path}: inconsistent column counts {sorted(widths)}")
    fields = widths.pop() + 1
    if header is not None and header != fields:
        raise DataFormatError(
            f"{path}: header has {header} fields but data rows have {fields}"
        )
    if fields == 1:
        raise DataFormatError(f"{path}: no input column before the label")
    return LabeledDataset(np.array(rows), np.array(labels), name or path.stem)
