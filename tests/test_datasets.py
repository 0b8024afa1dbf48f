"""Datasets: frames geometry, IDX parsing, standardization, tiles, CSV."""

import gzip
import struct

import numpy as np
import pytest

from qks import (
    DataFormatError,
    LabeledDataset,
    evaluate,
    gen_picture_frames,
    load_csv,
    load_idx_images,
    load_idx_labels,
    load_mnist_pair,
    load_mnist_split,
    make_tilemap,
    save_csv,
    standardize,
    train,
)
from qks.datasets import mnist_split_paths


def test_frames_shapes_and_balance():
    train_ds, test_ds = gen_picture_frames(800, 200, seed=0)
    assert train_ds.inputs.shape == (1600, 2)
    assert test_ds.inputs.shape == (400, 2)
    assert train_ds.labels.sum() == 800
    assert test_ds.labels.sum() == 200


def test_frames_ring_geometry():
    train_ds, test_ds = gen_picture_frames(500, 500, seed=3)
    for ds in (train_ds, test_ds):
        inf_norm = np.abs(ds.inputs).max(axis=1)
        inner = inf_norm[ds.labels == 0]
        outer = inf_norm[ds.labels == 1]
        assert inner.min() >= 0.95 and inner.max() <= 1.05
        assert outer.min() >= 1.9 and outer.max() <= 2.1


def test_frames_determinism_and_split_independence():
    a_train, a_test = gen_picture_frames(50, 20, seed=9)
    b_train, b_test = gen_picture_frames(50, 20, seed=9)
    assert np.array_equal(a_train.inputs, b_train.inputs)
    assert np.array_equal(a_test.inputs, b_test.inputs)
    c_train, _ = gen_picture_frames(50, 20, seed=10)
    assert not np.array_equal(a_train.inputs, c_train.inputs)
    # test split is not a prefix or copy of the train stream
    assert not np.array_equal(a_train.inputs[:20], a_test.inputs[:20])


def test_frames_not_linearly_separable():
    # a linear model on raw coordinates stays near chance on every seed
    for seed in range(5):
        train_ds, test_ds = gen_picture_frames(400, 100, seed=seed)
        model = train(train_ds.inputs, train_ds.labels, max_iter=2000)
        accuracy = 1.0 - evaluate(model, test_ds.inputs, test_ds.labels)
        assert accuracy <= 0.60, f"seed {seed}: accuracy {accuracy}"


def test_frames_validation():
    with pytest.raises(ValueError):
        gen_picture_frames(0, 10)
    # 2.5 raised a bare TypeError inside numpy, and True made one point.
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="per-class counts must be an integer"):
            gen_picture_frames(bad, 3)


def test_labeled_dataset_validation():
    with pytest.raises(ValueError, match="2-D"):
        LabeledDataset(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="one label"):
        LabeledDataset(np.zeros((3, 2)), np.zeros(4))


# ---------------------------------------------------------------------------
# IDX fixtures


def write_idx_images(path, images, compress=False):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    blob = struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes()
    data = gzip.compress(blob) if compress else blob
    path.write_bytes(data)


def write_idx_labels(path, labels, compress=False):
    labels = np.asarray(labels, dtype=np.uint8)
    blob = struct.pack(">II", 0x801, len(labels)) + labels.tobytes()
    data = gzip.compress(blob) if compress else blob
    path.write_bytes(data)


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(20, 4, 3), dtype=np.uint8)
    labels = np.array([3, 5] * 10, dtype=np.uint8)
    labels[7] = 9  # one row that belongs to neither class
    img_path = tmp_path / "imgs"
    lab_path = tmp_path / "labs"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    return img_path, lab_path, images, labels


def test_idx_image_roundtrip(idx_pair, tmp_path):
    img_path, _, images, _ = idx_pair
    loaded = load_idx_images(img_path)
    assert np.array_equal(loaded, images)
    gz = tmp_path / "imgs.gz"
    write_idx_images(gz, images, compress=True)
    assert np.array_equal(load_idx_images(gz), images)


def test_idx_label_roundtrip(idx_pair, tmp_path):
    _, lab_path, _, labels = idx_pair
    assert np.array_equal(load_idx_labels(lab_path), labels)
    gz = tmp_path / "labs.gz"
    write_idx_labels(gz, labels, compress=True)
    assert np.array_equal(load_idx_labels(gz), labels)


def test_idx_errors(tmp_path):
    bad = tmp_path / "bad"
    bad.write_bytes(struct.pack(">IIII", 0x802, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(DataFormatError, match="magic"):
        load_idx_images(bad)
    bad.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 7)
    with pytest.raises(DataFormatError, match="expected"):
        load_idx_images(bad)
    bad.write_bytes(b"\x00\x00")
    with pytest.raises(DataFormatError, match="truncated"):
        load_idx_images(bad)
    bad.write_bytes(struct.pack(">II", 0x803, 3))
    with pytest.raises(DataFormatError, match="magic"):
        load_idx_labels(bad)
    bad.write_bytes(struct.pack(">II", 0x801, 5) + b"\x00" * 3)
    with pytest.raises(DataFormatError, match="expected"):
        load_idx_labels(bad)
    corrupt_gz = tmp_path / "c.gz"
    corrupt_gz.write_bytes(b"\x1f\x8b" + b"junk")
    with pytest.raises(DataFormatError, match="gzip"):
        load_idx_images(corrupt_gz)


def test_mnist_pair_filtering_and_layout(idx_pair):
    img_path, lab_path, images, labels = idx_pair
    ds = load_mnist_pair(img_path, lab_path, digit_a=3, digit_b=5)
    keep = (labels == 3) | (labels == 5)
    assert ds.size == keep.sum()
    assert ds.dim == 12
    assert np.array_equal(ds.labels, (labels[keep] == 5).astype(int))
    # column-major vectorization: index c*rows + r
    first = images[keep][0]
    expected = np.array(
        [first[r, c] / 255.0 for c in range(3) for r in range(4)]
    )
    assert np.allclose(ds.inputs[0], expected)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0


def test_mnist_pair_count_mismatch(tmp_path):
    write_idx_images(tmp_path / "i", np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx_labels(tmp_path / "l", np.array([3, 5], dtype=np.uint8))
    with pytest.raises(DataFormatError, match="mismatch"):
        load_mnist_pair(tmp_path / "i", tmp_path / "l")
    with pytest.raises(ValueError, match="differ"):
        load_mnist_pair(tmp_path / "i", tmp_path / "l", digit_a=3, digit_b=3)


def test_mnist_split_resolution(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.array([3, 5], dtype=np.uint8)
    write_idx_images(tmp_path / "train-images-idx3-ubyte", images)
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte.gz", labels,
                     compress=True)
    imgs, labs = mnist_split_paths(tmp_path, "train")
    assert imgs.name == "train-images-idx3-ubyte"
    assert labs.name == "train-labels-idx1-ubyte.gz"
    ds = load_mnist_split(tmp_path, "train")
    assert ds.size == 2
    with pytest.raises(FileNotFoundError, match="t10k"):
        mnist_split_paths(tmp_path, "test")
    with pytest.raises(ValueError, match="split"):
        mnist_split_paths(tmp_path, "validation")


def test_standardize_uses_train_stats_only():
    rng = np.random.default_rng(1)
    train_ds = LabeledDataset(rng.normal(3.0, 2.0, (500, 4)),
                              rng.integers(0, 2, 500))
    test_ds = LabeledDataset(rng.normal(-1.0, 0.5, (200, 4)),
                             rng.integers(0, 2, 200))
    train2, test2, stats = standardize(train_ds, test_ds)
    assert np.allclose(train2.inputs.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(train2.inputs.std(axis=0), 1.0, atol=1e-12)
    # test split transformed with the train statistics, not its own
    assert not np.allclose(test2.inputs.mean(axis=0), 0.0, atol=0.1)
    manual = (test_ds.inputs - train_ds.inputs.mean(0)) / train_ds.inputs.std(0)
    assert np.allclose(test2.inputs, manual, atol=1e-12)
    assert np.array_equal(stats.mean, train_ds.inputs.mean(0))


def test_standardize_zero_variance_column():
    train_ds = LabeledDataset(
        np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 6.0]]), np.array([0, 1, 0])
    )
    test_ds = LabeledDataset(np.array([[9.0, 3.0]]), np.array([1]))
    train2, test2, _ = standardize(train_ds, test_ds)
    assert np.all(train2.inputs[:, 0] == 0.0)
    assert test2.inputs[0, 0] == 0.0  # zero-variance column maps to zero
    assert test2.inputs[0, 1] != 0.0


def test_tilemap_q2_halves():
    tm = make_tilemap(28, 28, 2)
    assert tm.grid == (1, 2)
    assert len(tm.tiles) == 2
    assert all(len(t) == 392 for t in tm.tiles)
    # left half = columns 0..13 = flat indices 0..391 under column-major order
    assert tm.tiles[0] == tuple(range(392))
    assert tm.tiles[1] == tuple(range(392, 784))
    s = tm.to_structure()
    assert s.pattern == "tiled"


def test_tilemap_q4_blocks():
    tm = make_tilemap(28, 28, 4)
    assert tm.grid == (2, 2)
    assert all(len(t) == 196 for t in tm.tiles)
    # tile 0 is the top-left 14x14 block
    expected0 = tuple(c * 28 + r for c in range(14) for r in range(14))
    assert tm.tiles[0] == expected0
    # tile order is column-major over blocks: tile 1 sits below tile 0
    expected1 = tuple(c * 28 + r for c in range(14) for r in range(14, 28))
    assert tm.tiles[1] == expected1


def test_tilemap_q9_uneven():
    tm = make_tilemap(28, 28, 9)
    assert tm.grid == (3, 3)
    sizes = sorted(len(t) for t in tm.tiles)
    assert sizes == [81, 81, 81, 81, 90, 90, 90, 90, 100]
    flat = sorted(i for t in tm.tiles for i in t)
    assert flat == list(range(784))  # disjoint cover
    assert tm.to_structure().pattern == "custom"
    # larger blocks come first in each direction
    assert len(tm.tiles[0]) == 100


def test_tilemap_q16():
    tm = make_tilemap(28, 28, 16)
    assert tm.grid == (4, 4)
    assert all(len(t) == 49 for t in tm.tiles)


def test_tilemap_validation():
    with pytest.raises(ValueError):
        make_tilemap(28, 28, 0)
    # True made one tile, and 28.0 raised a bare TypeError from range().
    with pytest.raises(ValueError, match="^q must be an integer"):
        make_tilemap(28, 28, True)
    with pytest.raises(ValueError, match="^rows must be an integer"):
        make_tilemap(28.0, 28, 2)
    with pytest.raises(ValueError, match="more tiles"):
        make_tilemap(2, 2, 5)
    with pytest.raises(ValueError, match="block grid"):
        make_tilemap(2, 28, 9)  # needs 3 row blocks from 2 rows


def test_standardize_rejects_mismatched_dimensions():
    train_ds = LabeledDataset(np.zeros((2, 3)), np.array([0, 1]))
    test_ds = LabeledDataset(np.zeros((2, 2)), np.array([0, 1]))
    with pytest.raises(ValueError, match="input dimension"):
        standardize(train_ds, test_ds)


def test_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("x,y,label\n1.0,2.0,0\n\n3.0,4.0,1\n\n")
    ds = load_csv(p)
    assert ds.inputs.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ds.labels.tolist() == [0, 1]


def test_csv_roundtrip(tmp_path):
    train_ds, _ = gen_picture_frames(10, 5, seed=2)
    path = tmp_path / "frames.csv"
    save_csv(train_ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,y,label"
    back = load_csv(path)
    assert np.array_equal(back.inputs, train_ds.inputs)  # 17 digits round-trip
    assert np.array_equal(back.labels, train_ds.labels)


def test_csv_wide_header(tmp_path):
    ds = LabeledDataset(np.arange(12.0).reshape(3, 4), np.array([0, 1, 0]))
    path = tmp_path / "wide.csv"
    save_csv(ds, path)
    assert path.read_text().splitlines()[0] == "x0,x1,x2,x3,label"
    back = load_csv(path)
    assert np.array_equal(back.inputs, ds.inputs)


def test_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,label\n1.0,2.0,oops\n")
    with pytest.raises(DataFormatError, match="non-numeric"):
        load_csv(p)
    p.write_text("x,y,label\n1.0,2.0,3\n")
    with pytest.raises(DataFormatError, match="label"):
        load_csv(p)
    p.write_text("x,y,label\n")
    with pytest.raises(DataFormatError, match="no data"):
        load_csv(p)
    p.write_text("1.0,2.0,1\n3.0,1\n")
    with pytest.raises(DataFormatError, match="inconsistent"):
        load_csv(p)


@pytest.mark.parametrize("header", ["a,b,c,label", "x,label"])
def test_csv_header_must_match_rows(tmp_path, header):
    # A long and a short header over 3-field rows; save_csv's own headers
    # round-trip in the tests above.
    p = tmp_path / "header.csv"
    p.write_text(f"{header}\n0.1,0.2,0\n0.3,0.4,1\n")
    with pytest.raises(DataFormatError, match="header has"):
        load_csv(p)


def test_csv_needs_an_input_column(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("label\n0\n1\n")
    with pytest.raises(DataFormatError, match="input column"):
        load_csv(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_csv_rejects_non_finite(tmp_path, value):
    p = tmp_path / "bad.csv"
    p.write_text(f"x,y,label\n1.0,2.0,0\n0.5,{value},1\n")
    with pytest.raises(DataFormatError, match="line 3"):
        load_csv(p)
