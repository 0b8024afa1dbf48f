"""Featurization: bit layout, determinism, packing, and the QKSF format."""

import json
import warnings

import numpy as np
import pytest

from qks import (
    DataFormatError,
    EncodingStructure,
    EpisodeEngine,
    FeatureFileError,
    FeatureMatrix,
    exact_probabilities,
    featurize,
    get_ansatz,
    load_features,
    mc_kernel,
    sample_machine,
    save_features,
    shot_stream,
)
from qks.features import ROW_BLOCK, _pack_rows
from qks.quil import CircuitTemplate
from qks.simulator import cached_engine


def small_machine(episodes=40, sigma=1.0, seed=5, layers=1):
    t = get_ansatz("cnot2")
    return sample_machine(
        t, EncodingStructure.split(2), sigma, episodes, seed, layers
    )


def frame_inputs(n=30, seed=1):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2))


def test_featurize_shape_and_dtype():
    m = small_machine()
    fm = featurize(m, frame_inputs())
    assert fm.rows == 30
    assert fm.num_columns == 80  # 40 episodes x 2 qubits
    assert fm.episodes == 40 and fm.num_qubits == 2
    assert fm.packed.dtype == np.uint64
    assert fm.packed.shape == (30, 2)
    dense = fm.to_dense()
    assert dense.shape == (30, 80)
    assert set(np.unique(dense)) <= {0, 1}


def test_bit_layout_matches_scalar_semantics():
    # column e*q + j must hold qubit j of episode e, produced by the same
    # inverse-CDF draw the scalar sampler would make
    m = small_machine(episodes=12, seed=3)
    x = frame_inputs(n=7, seed=2)
    dense = featurize(m, x).to_dense()
    for i in (0, 3, 6):
        uniforms = shot_stream(m.seed, i).random(m.episodes)
        for e in (0, 5, 11):
            theta = m.encode(x[i], e)
            cdf = np.cumsum(exact_probabilities(m.template, theta))
            z = min(int(np.searchsorted(cdf, uniforms[e], side="right")), 3)
            for j in range(2):
                assert dense[i, e * 2 + j] == (z >> j) & 1


def test_determinism_and_worker_invariance():
    m = small_machine(episodes=64)
    x = frame_inputs(n=200)
    a = featurize(m, x, workers=1)
    b = featurize(m, x, workers=8)
    c = featurize(m, x, workers=3)
    assert a.equals(b) and a.equals(c)
    assert np.array_equal(a.packed, featurize(m, x).packed)


def test_row_independence_of_batch():
    # each example's bits depend on its absolute row index and content only
    m = small_machine(episodes=16)
    x = frame_inputs(n=9)
    full = featurize(m, x).to_dense()
    head = featurize(m, x[:4]).to_dense()
    assert np.array_equal(full[:4], head)


def test_prefix_reproducibility():
    m_small = small_machine(episodes=50, seed=9)
    m_large = small_machine(episodes=200, seed=9)
    x = frame_inputs(n=25)
    small = featurize(m_small, x).to_dense()
    large = featurize(m_large, x).to_dense()
    assert np.array_equal(small, large[:, : 50 * 2])


def test_truncate():
    m = small_machine(episodes=96)
    x = frame_inputs(n=10)
    fm = featurize(m, x)
    cut = fm.truncate(33)
    assert cut.episodes == 33 and cut.num_columns == 66
    assert np.array_equal(cut.to_dense(), fm.to_dense()[:, :66])
    assert cut.meta == fm.meta and "episodes" not in cut.meta
    assert fm.truncate(96) is fm
    with pytest.raises(ValueError):
        fm.truncate(0)
    with pytest.raises(ValueError):
        fm.truncate(97)


def test_identity_template_gives_zero_features():
    ident = CircuitTemplate("ID", (), (), 1)
    structure = EncodingStructure(3, 0, "custom", ())
    m = sample_machine(ident, structure, 1.0, 25, seed=4)
    fm = featurize(m, frame_inputs(n=8, seed=3) @ np.ones((2, 3)))
    assert fm.num_columns == 25
    assert not fm.to_dense().any()


def test_sigma_zero_features_ignore_input():
    m = small_machine(episodes=60, sigma=0.0, seed=17)
    x1 = frame_inputs(n=40, seed=5)
    x2 = frame_inputs(n=40, seed=6) * 50.0
    f1 = featurize(m, x1)
    f2 = featurize(m, x2)
    assert f1.equals(f2)


def test_sigma_zero_column_distribution():
    # with sigma=0 on the 1-qubit ansatz, column e is Bernoulli(sin^2(beta_e/2))
    t = get_ansatz("rx1")
    m = sample_machine(t, EncodingStructure.dense(2), 0.0, 40, seed=23)
    n_rows = 4000
    x = np.zeros((n_rows, 2))
    dense = featurize(m, x).to_dense()
    p = np.sin(m.beta[:, 0] / 2) ** 2
    freq = dense.mean(axis=0)
    bound = 5 * np.sqrt(np.maximum(p * (1 - p), 1e-4) / n_rows)
    assert np.all(np.abs(freq - p) <= bound)


def test_layered_sigma_zero_input_independent():
    m = small_machine(episodes=30, sigma=0.0, seed=19, layers=3)
    f1 = featurize(m, frame_inputs(n=12, seed=7))
    f2 = featurize(m, frame_inputs(n=12, seed=8) * 9.0)
    assert f1.equals(f2)


def test_featurize_validation():
    m = small_machine()
    with pytest.raises(ValueError, match="shape"):
        featurize(m, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="finite"):
        featurize(m, np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError, match="workers"):
        featurize(m, frame_inputs(4), workers=0)


@pytest.mark.parametrize("workers", [1, 3])
def test_featurize_names_first_row_whose_encoding_overflows(workers):
    # Finite inputs whose affine encoding overflows to inf are a data fault:
    # reported by row, with no numpy warning, whichever worker meets it.
    m = small_machine(sigma=100.0)
    x = frame_inputs(200)
    x[150] = 1e308
    x[70] = [1e308, 1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match=r"input row 70\b"):
            featurize(m, x, workers=workers)


def test_pack_rows_layout():
    bits = np.zeros((2, 70), dtype=np.uint8)
    bits[0, 0] = 1
    bits[0, 63] = 1
    bits[0, 64] = 1
    bits[1, 69] = 1
    packed = _pack_rows(bits)
    assert packed.shape == (2, 2)
    assert packed[0, 0] == (1 | (1 << 63))
    assert packed[0, 1] == 1
    assert packed[1, 1] == 1 << 5
    restored = np.unpackbits(
        packed.view(np.uint8), axis=1, bitorder="little"
    )[:, :70]
    assert np.array_equal(restored, bits)


def test_feature_matrix_validation():
    with pytest.raises(ValueError, match="uint64"):
        FeatureMatrix(np.zeros((2, 1), dtype=np.uint32), 10, 1, 10)
    with pytest.raises(ValueError, match="episodes"):
        FeatureMatrix(np.zeros((2, 1), dtype=np.uint64), 10, 2, 10)
    with pytest.raises(ValueError, match="width"):
        FeatureMatrix(np.zeros((2, 3), dtype=np.uint64), 10, 1, 10)


def test_qksf_roundtrip(tmp_path):
    m = small_machine(episodes=77, seed=31)
    fm = featurize(m, frame_inputs(n=13))
    path = tmp_path / "feat.qksf"
    save_features(fm, path)
    assert (tmp_path / "feat.qksf.json").exists()
    back = load_features(path)
    assert back.equals(fm)
    assert back.meta["template"] == "CNOT2"
    assert back.meta["sigma"] == 1.0
    assert back.meta["seed"] == 31
    assert back.meta["structure"]["pattern"] == "split"
    machine_keys = {"template", "sigma", "seed", "layers", "structure"}
    assert set(fm.meta) == set(back.meta) == machine_keys
    sidecar = json.loads((tmp_path / "feat.qksf.json").read_text())
    assert sidecar["rows"] == 13
    assert sidecar["columns"] == 154


def test_qksf_bad_magic(tmp_path):
    path = tmp_path / "bad.qksf"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(FeatureFileError, match="magic"):
        load_features(path)


def test_qksf_truncated(tmp_path):
    m = small_machine(episodes=10)
    fm = featurize(m, frame_inputs(n=5))
    path = tmp_path / "t.qksf"
    save_features(fm, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(FeatureFileError, match="expected"):
        load_features(path)
    path.write_bytes(raw[:8])
    with pytest.raises(FeatureFileError, match="truncated"):
        load_features(path)


def test_qksf_missing_sidecar(tmp_path):
    m = small_machine(episodes=10)
    fm = featurize(m, frame_inputs(n=5))
    path = tmp_path / "s.qksf"
    save_features(fm, path)
    (tmp_path / "s.qksf.json").unlink()
    with pytest.raises(FeatureFileError, match="sidecar"):
        load_features(path)


def test_qksf_bad_version(tmp_path):
    m = small_machine(episodes=10)
    fm = featurize(m, frame_inputs(n=5))
    path = tmp_path / "v.qksf"
    save_features(fm, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FeatureFileError, match="version"):
        load_features(path)


def test_qksf_malformed_sidecar(tmp_path):
    m = small_machine(episodes=10)
    fm = featurize(m, frame_inputs(n=5))
    path = tmp_path / "m.qksf"
    save_features(fm, path)
    (tmp_path / "m.qksf.json").write_text("{not json")
    with pytest.raises(FeatureFileError, match="sidecar"):
        load_features(path)


def test_qksf_sidecar_row_count_must_match_header(tmp_path):
    m = small_machine(episodes=10)
    path = tmp_path / "r.qksf"
    save_features(featurize(m, frame_inputs(n=5)), path)
    sidecar_path = tmp_path / "r.qksf.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["rows"] = 6
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(FeatureFileError, match="rows"):
        load_features(path)


def _edit_sidecar(tmp_path, **changes):
    path = tmp_path / "e.qksf"
    save_features(featurize(small_machine(episodes=10), frame_inputs(n=5)), path)
    sidecar_path = tmp_path / "e.qksf.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar.update(changes)
    sidecar_path.write_text(json.dumps(sidecar))
    return path


@pytest.mark.parametrize("machine", ["cnot2", ["cnot2", 1.0], 3])
def test_qksf_sidecar_machine_must_be_an_object(tmp_path, machine):
    path = _edit_sidecar(tmp_path, machine=machine)
    with pytest.raises(FeatureFileError, match="machine"):
        load_features(path)


def test_qksf_sidecar_geometry_must_agree(tmp_path):
    # 4 x 4 = 16 != 20 columns; the column and byte counts stay valid
    path = _edit_sidecar(tmp_path, episodes=4, num_qubits=4)
    with pytest.raises(FeatureFileError, match="episodes"):
        load_features(path)


@pytest.mark.parametrize("episodes,num_qubits", [(-10, -2), (-1, -20)])
def test_qksf_sidecar_geometry_must_be_positive(tmp_path, episodes, num_qubits):
    # the product still equals the 20 columns, so only the sign check catches it
    path = _edit_sidecar(tmp_path, episodes=episodes, num_qubits=num_qubits)
    with pytest.raises(FeatureFileError, match=">= 1"):
        load_features(path)


def test_one_engine_per_template(monkeypatch):
    built = []
    original = EpisodeEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(EpisodeEngine, "__init__", counting_init)
    cached_engine.cache_clear()
    m = small_machine(episodes=8)
    x = frame_inputs(n=4 * ROW_BLOCK + 3)
    featurize(m, x, workers=3)
    featurize(m, x, workers=1)
    assert len(built) == 1

    built.clear()
    cached_engine.cache_clear()
    km = sample_machine(
        get_ansatz("cz2"), EncodingStructure.split(2), 1.0, 50, seed=4
    )
    mc_kernel(km, [0.1, 0.2], [0.3, -0.4])
    mc_kernel(km, [0.5, 0.2], [0.3, 0.4])
    assert len(built) == 1

