"""Encoding structures, machine sampling, and the affine parameter map."""

import dataclasses

import numpy as np
import pytest

from qks import (
    EncodingStructure,
    QksMachine,
    closed_form_cnot2,
    get_ansatz,
    sample_machine,
    shot_stream,
)
from qks.encoding import TAG_SHOTS, _shot_keys


def test_dense_structure():
    s = EncodingStructure.dense(5)
    assert (s.q, s.r, s.pattern) == (1, 5, "dense")
    assert s.rows == (tuple(range(5)),)
    assert s.mask().tolist() == [[True] * 5]
    assert s.nnz == 5


def test_split_structure():
    s = EncodingStructure.split(4)
    assert (s.q, s.r, s.pattern) == (4, 1, "split")
    assert s.mask().tolist() == np.eye(4, dtype=bool).tolist()


def test_tiled_structure():
    s = EncodingStructure.tiled(12, 3)
    assert (s.q, s.r, s.pattern) == (3, 4, "tiled")
    assert s.rows[1] == (4, 5, 6, 7)
    assert s.offsets().tolist() == [0, 4, 8, 12]
    with pytest.raises(ValueError, match=r"q \| p"):
        EncodingStructure.tiled(10, 3)


def test_from_tiles_classification():
    tiled = EncodingStructure.from_tiles([(0, 1), (2, 3)], 4)
    assert tiled.pattern == "tiled"
    ragged = EncodingStructure.from_tiles([(0, 1, 2), (3,)], 4)
    assert ragged.pattern == "custom"
    assert ragged.r is None
    interleaved = EncodingStructure.from_tiles([(0, 2), (1, 3)], 4)
    assert interleaved.pattern == "custom"
    with pytest.raises(ValueError, match="disjoint"):
        EncodingStructure.from_tiles([(0, 1), (1, 2)], 3)
    with pytest.raises(ValueError, match="cover"):
        EncodingStructure.from_tiles([(0,), (2,)], 3)
    for tile, match in (([5], "out-of-range"), ([-1], "out-of-range"),
                        ([2], "out-of-range"), ([0, 0], "duplicate-free"),
                        ([[0]], "coordinate must be an integer")):
        with pytest.raises(ValueError, match=match):
            EncodingStructure.from_tiles([tile, [1]], 2)
    assert tiled == EncodingStructure.tiled(4, 2)
    assert EncodingStructure.from_tiles([(2, 3), (0, 1)], 4).pattern == "custom"


def test_pattern_names_the_rows():
    # Equal rows are equal structures with one label, whichever builder made them.
    split2 = EncodingStructure.from_tiles([[0], [1]], 2)
    assert split2 == EncodingStructure.split(2) == EncodingStructure(2, ((0,), (1,)))
    assert split2.pattern == "split"
    assert EncodingStructure.tiled(4, 1) == EncodingStructure.dense(4)
    assert EncodingStructure.tiled(4, 1).pattern == "dense"
    assert EncodingStructure.split(1).pattern == "dense"
    assert EncodingStructure.tiled(4, 4).pattern == "split"
    eye = EncodingStructure.from_mask(np.eye(3, dtype=bool))
    assert eye == EncodingStructure.split(3) and eye.pattern == "split"
    assert EncodingStructure.from_mask(np.eye(2, 3, dtype=bool)).pattern == "custom"
    assert EncodingStructure(4, ((0, 1, 2, 3), (1,))).pattern == "custom"
    empty = EncodingStructure(3, ())
    assert (empty.q, empty.pattern) == (0, "custom")


def test_from_mask_overlapping_rows():
    mask = np.array([[True, True, False], [True, False, True]])
    s = EncodingStructure.from_mask(mask)
    assert s.rows == ((0, 1), (0, 2))
    assert np.array_equal(s.mask(), mask)


def test_from_mask_needs_a_matrix():
    with pytest.raises(ValueError, match="two-dimensional"):
        EncodingStructure.from_mask(np.ones(3, dtype=bool))


def test_structure_validation():
    with pytest.raises(ValueError, match="empty"):
        EncodingStructure(3, ((),))
    with pytest.raises(ValueError, match="out-of-range"):
        EncodingStructure(3, ((0, 3),))
    with pytest.raises(ValueError, match="sorted"):
        EncodingStructure(3, ((1, 0),))


def test_tile_coordinates_must_be_integers():
    # int() would truncate: [0.7] would silently mean coordinate 0. A float
    # passed to the constructor would fail late, indexing in encode_batch.
    for tile, rest in (([0.7], [1]), ([1.9], [0]), ([True], [0]),
                       (np.array([0.0]), [1])):
        with pytest.raises(ValueError, match="coordinate must be an integer"):
            EncodingStructure.from_tiles([tile, rest], 2)
    with pytest.raises(ValueError, match="coordinate must be an integer"):
        EncodingStructure(2, ((0.5,), (1,)))
    for bad in (2.0, True, np.float64(2)):
        with pytest.raises(ValueError, match="p must be an integer"):
            EncodingStructure(bad, ((0,),))
        # The builders would raise a bare TypeError from range() or build
        # float blocks.
        for build in (EncodingStructure.split, EncodingStructure.dense,
                      lambda p: EncodingStructure.tiled(p, 2)):
            with pytest.raises(ValueError, match="^p must be an integer"):
                build(bad)
        with pytest.raises(ValueError, match="^q must be an integer"):
            EncodingStructure.tiled(8, bad)
    assert EncodingStructure.tiled(np.int64(8), np.int32(4)) == (
        EncodingStructure.tiled(8, 4))
    with pytest.raises(ValueError, match="empty"):
        EncodingStructure.from_tiles([[], [0, 1]], 2)
    swapped = EncodingStructure.from_tiles([[1], [0]], 2)
    for tile in ((1,), np.array([1], dtype=np.uint8), np.array([1], dtype=np.int32)):
        s = EncodingStructure.from_tiles([tile, np.array([0], dtype=np.int64)], 2)
        assert s == swapped
        assert {type(i) for row in s.rows for i in row} == {int}
    s = EncodingStructure(np.int64(2), ((np.int32(0), 1),))
    assert type(s.p) is int and s.rows == ((0, 1),)
    assert {type(i) for i in s.rows[0]} == {int}


def test_sample_machine_shapes_and_fields():
    t = get_ansatz("cnot2")
    s = EncodingStructure.split(2)
    m = sample_machine(t, s, sigma=0.5, episodes=100, seed=42)
    assert m.omega.shape == (100, 1, 2)
    assert m.beta.shape == (100, 2)
    assert (m.sigma, m.episodes, m.seed, m.layers) == (0.5, 100, 42, 1)
    assert m.num_params == 2
    assert m.num_qubits == 2
    m3 = sample_machine(t, s, 0.5, 7, 42, layers=3)
    assert (m3.episodes, m3.layers, m3.num_params) == (7, 3, 6)


def test_sample_machine_distributions():
    t = get_ansatz("cnot2")
    s = EncodingStructure.dense(2)  # q mismatch on purpose below
    with pytest.raises(ValueError, match="q=1"):
        sample_machine(t, s, 1.0, 10, 0)
    s = EncodingStructure.split(2)
    sigma = 1.7
    m = sample_machine(t, s, sigma, 50_000, seed=9)
    flat = m.omega.ravel()
    assert abs(flat.mean()) < 4 * sigma / np.sqrt(flat.size)
    assert abs(flat.std() - sigma) < 0.02
    betas = m.beta.ravel()
    assert betas.min() >= 0 and betas.max() < 2 * np.pi
    assert abs(betas.mean() - np.pi) < 4 * np.pi / np.sqrt(12 * betas.size)


def test_sample_machine_validation():
    t = get_ansatz("cnot2")
    s = EncodingStructure.split(2)
    # 1e308 is finite, but sigma * N(0, 1) overflows the weights.
    for sigma in (-0.1, np.inf, np.nan, 1e308):
        with pytest.raises(ValueError, match="sigma"):
            sample_machine(t, s, sigma, 10, 0)
    with pytest.raises(ValueError, match="episodes"):
        sample_machine(t, s, 1.0, 0, 0)
    with pytest.raises(ValueError, match="layers"):
        sample_machine(t, s, 1.0, 10, 0, layers=0)
    for bad in (10.0, 2.5, True, np.float64(3)):
        with pytest.raises(ValueError, match="episodes must be an integer"):
            sample_machine(t, s, 1.0, bad, 0)
        with pytest.raises(ValueError, match="layers must be an integer"):
            sample_machine(t, s, 1.0, 10, 0, layers=bad)
    m = sample_machine(t, s, 1.0, np.int64(10), 0, layers=np.int32(2))
    assert (m.episodes, m.layers) == (10, 2)
    assert type(m.episodes) is int and type(m.layers) is int
    for sigma in (2, np.int64(2), np.float32(2.0)):
        m = sample_machine(t, s, sigma, 10, 0)
        assert m.sigma == 2.0 and type(m.sigma) is float


@pytest.mark.parametrize(
    "sigma",
    ["1", True, False, np.True_, None, 1j, [1.0], np.array(1.0),
     pytest.param(10**400, id="int-past-float-range")],
)
def test_sigma_must_be_a_real_number(sigma):
    # "1" used to escape as a TypeError from the comparison, True as 1.0.
    t, s = get_ansatz("cnot2"), EncodingStructure.split(2)
    with pytest.raises(ValueError, match="sigma"):
        sample_machine(t, s, sigma, 10, 0)
    with pytest.raises(ValueError, match="sigma"):
        closed_form_cnot2([0.1, 0.2], [0.3, 0.4], sigma)


def test_machine_checks_omega_against_beta():
    # Built by hand, a machine whose arrays disagree would fail in featurize
    # with a numpy broadcast error.
    m = sample_machine(get_ansatz("cnot2"), EncodingStructure.split(2), 1.0, 8, 0)
    args = m.template, m.structure, m.sigma, m.seed
    with pytest.raises(ValueError, match=r"beta of shape \(8, 2\)"):
        QksMachine(*args, m.omega, m.beta[:5])
    with pytest.raises(ValueError, match=r"beta of shape \(8, 4\)"):
        QksMachine(*args, np.concatenate([m.omega, m.omega], axis=1), m.beta)
    with pytest.raises(ValueError, match="omega"):
        QksMachine(*args, m.omega[:, :, :1], m.beta)
    with pytest.raises(ValueError, match="omega"):
        QksMachine(*args, m.omega[:, 0], m.beta)
    assert QksMachine(*args, m.omega, m.beta).episodes == 8


def test_seed_must_fit_64_bits():
    t = get_ansatz("cnot2")
    s = EncodingStructure.split(2)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            sample_machine(t, s, 1.0, 4, seed)
        with pytest.raises(ValueError, match="seed"):
            shot_stream(seed, 0)
    top = sample_machine(t, s, 1.0, 4, 2**64 - 1)
    assert not np.array_equal(top.omega, sample_machine(t, s, 1.0, 4, 0).omega)
    shot_stream(2**64 - 1, 0)


def test_seed_and_example_index_must_be_integers():
    # int() would truncate: seed 1.5 would build seed 1's machine, and
    # example 2.7 would read example 2's shots.
    t = get_ansatz("cnot2")
    s = EncodingStructure.split(2)
    for bad in (1.5, 2.0, np.float64(1.0), True, np.bool_(False)):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample_machine(t, s, 1.0, 4, bad)
        with pytest.raises(ValueError, match="seed must be an integer"):
            shot_stream(bad, 0)
        with pytest.raises(ValueError, match="example_index must be an integer"):
            shot_stream(0, bad)
    m = sample_machine(t, s, 1.0, 4, np.int64(3))
    assert type(m.seed) is int
    assert np.array_equal(m.omega, sample_machine(t, s, 1.0, 4, 3).omega)
    assert np.array_equal(
        shot_stream(np.uint64(3), np.int32(2)).random(4), shot_stream(3, 2).random(4)
    )


def test_machine_determinism_and_seed_sensitivity():
    t = get_ansatz("cnot2")
    s = EncodingStructure.split(2)
    a = sample_machine(t, s, 1.0, 64, seed=5)
    b = sample_machine(t, s, 1.0, 64, seed=5)
    c = sample_machine(t, s, 1.0, 64, seed=6)
    assert np.array_equal(a.omega, b.omega) and np.array_equal(a.beta, b.beta)
    assert not np.array_equal(a.omega, c.omega)


def test_episode_prefix_stability():
    t = get_ansatz("cnot2")
    s = EncodingStructure.split(2)
    small = sample_machine(t, s, 1.0, 100, seed=21)
    large = sample_machine(t, s, 1.0, 500, seed=21)
    assert np.array_equal(small.omega, large.omega[:100])
    assert np.array_equal(small.beta, large.beta[:100])


def test_encode_matches_dense_map():
    t = get_ansatz("p4")
    s = EncodingStructure.tiled(8, 4)
    m = sample_machine(t, s, 0.8, 20, seed=1)
    rng = np.random.default_rng(2)
    u = rng.normal(size=8)
    for e in (0, 7, 19):
        enc = m.encoding(e)
        expected = enc.omega @ u + enc.beta
        assert np.allclose(m.encode(u, e), expected, atol=1e-12)
    with pytest.raises(IndexError):
        m.encode(u, 20)
    with pytest.raises(IndexError):
        m.encoding(-1)
    # Unchecked, True read episode 1 and 1.5 failed inside numpy.
    for bad in (True, np.bool_(False), 1.5, 2.0, np.float64(1.0)):
        with pytest.raises(ValueError, match="episode must be an integer"):
            m.encode(u, bad)
        with pytest.raises(ValueError, match="episode must be an integer"):
            m.encoding(bad)
    assert np.array_equal(m.encode(u, np.int64(7)), m.encode(u, 7))


def test_encode_affine_identity():
    t = get_ansatz("cnot2")
    s = EncodingStructure.split(2)
    m = sample_machine(t, s, 1.3, 10, seed=3)
    rng = np.random.default_rng(4)
    u, v = rng.normal(size=(2, 2))
    for e in range(10):
        lhs = m.encode(u + v, e) - m.encode(v, e)
        rhs = m.encode(u, e) - m.beta[e]
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_masked_coordinates_are_inert():
    # changing an input coordinate outside a parameter's tile leaves that
    # parameter's angle bit-for-bit unchanged
    t = get_ansatz("cnot2")
    s = EncodingStructure.tiled(6, 2)
    m = sample_machine(t, s, 1.0, 8, seed=11)
    rng = np.random.default_rng(12)
    u = rng.normal(size=6)
    u2 = u.copy()
    u2[3:] += 100.0  # second tile only
    for e in range(8):
        assert m.encode(u, e)[0] == m.encode(u2, e)[0]
        assert m.encode(u, e)[1] != m.encode(u2, e)[1]


def test_sigma_zero_collapses_to_beta():
    t = get_ansatz("cnot2")
    s = EncodingStructure.split(2)
    m = sample_machine(t, s, 0.0, 16, seed=8)
    assert np.all(m.omega == 0.0)
    rng = np.random.default_rng(13)
    u = rng.normal(size=2)
    for e in range(16):
        assert np.array_equal(m.encode(u, e), m.beta[e])


def test_layers_extend_parameters():
    t = get_ansatz("cnot2")
    s = EncodingStructure.split(2)
    m = sample_machine(t, s, 1.0, 12, seed=2, layers=3)
    assert m.num_params == 6
    assert m.omega.shape == (12, 3, 2)
    assert m.beta.shape == (12, 6)
    # layers draw independent randomness
    assert not np.array_equal(m.omega[:, 0, :], m.omega[:, 1, :])
    u = np.array([0.4, -0.9])
    theta = m.encode(u, 0)
    enc = m.encoding(0)
    assert np.allclose(theta, enc.omega @ u + enc.beta, atol=1e-12)


def test_encode_batch_matches_scalar():
    t = get_ansatz("p4")
    s = EncodingStructure.from_tiles([(0, 1, 2), (3, 4), (5,), (6, 7)], 8)
    assert s.pattern == "custom"
    m = sample_machine(t, s, 0.6, 9, seed=14, layers=2)
    rng = np.random.default_rng(15)
    xs = rng.normal(size=(5, 8))
    batch = m.encode_batch(xs)
    assert batch.shape == (5, 9, 8)
    for i in range(5):
        for e in range(9):
            assert np.allclose(batch[i, e], m.encode(xs[i], e), atol=1e-12)


@pytest.mark.parametrize(
    "name, structure",
    [("p9", EncodingStructure.split(9)),
     ("cnot2", EncodingStructure.from_tiles([[0], [1, 2]], 3))],
)
def test_encode_batch_equals_the_per_row_matmul(name, structure):
    # One-coordinate rows are products and the 2-coordinate row a matmul;
    # every entry must be the per-row matmul plus beta, bit for bit, also
    # for inputs of +0.0 and -0.0 against negative omega and beta = 0.
    rng = np.random.default_rng(40)
    m = sample_machine(get_ansatz(name), structure, 1.7, 60, seed=41, layers=2)
    omega = -np.abs(m.omega)
    omega[::2] = m.omega[::2]
    beta = m.beta.copy()
    beta[::3] = 0.0
    m = dataclasses.replace(m, omega=omega, beta=beta)
    x = rng.normal(scale=3.0, size=(12, structure.p))
    x[0] = 0.0
    x[1] = -0.0
    x[2, ::2] = -0.0
    x[3] = rng.normal(scale=1e150, size=structure.p)

    off, q = structure.offsets(), structure.q
    want = np.empty((12, m.episodes, m.num_params))
    for layer in range(m.layers):
        for k, row in enumerate(structure.rows):
            w = omega[:, layer, off[k] : off[k + 1]]
            want[:, :, layer * q + k] = x[:, list(row)] @ w.T
    want += beta
    got = m.encode_batch(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(
        m.encode_batch(x[4:7], slice(10, 30)).view(np.uint64),
        want[4:7, 10:30].view(np.uint64),
    )


def test_encode_input_validation():
    t = get_ansatz("cnot2")
    m = sample_machine(t, EncodingStructure.split(2), 1.0, 4, seed=0)
    with pytest.raises(ValueError, match="shape"):
        m.encode(np.zeros(3), 0)
    with pytest.raises(ValueError, match="shape"):
        m.encode_batch(np.zeros((2, 5)))


def test_shot_stream_contract():
    a = shot_stream(3, 0).random(10)
    b = shot_stream(3, 0).random(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, shot_stream(3, 1).random(10))
    assert not np.array_equal(a, shot_stream(4, 0).random(10))
    # prefix property: a longer draw starts with the shorter one
    assert np.array_equal(shot_stream(3, 0).random(4), a[:4])
    with pytest.raises(ValueError):
        shot_stream(3, -1)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_shot_keys_are_seed_sequence_keys(seed):
    rng = np.random.default_rng(seed % 97)
    indices = np.concatenate([np.arange(71), rng.integers(0, 2**32, 40)])
    keys = _shot_keys(seed, indices)
    assert keys.shape == (indices.size, 2) and keys.dtype == np.uint64
    for i, key in zip(indices.tolist(), keys):
        ss = np.random.SeedSequence([seed, TAG_SHOTS, i])
        assert np.array_equal(key, ss.generate_state(2, np.uint64))
    assert shot_stream(seed, 5).bit_generator.state["state"]["key"].tolist() == (
        keys[5].tolist())
    assert _shot_keys(seed, np.arange(0)).shape == (0, 2)
    with pytest.raises(ValueError, match="below 2"):
        _shot_keys(seed, [2**32])


def test_machine_streams_are_independent_of_episode_count():
    # omega and beta use separate substreams, so beta is unchanged when only
    # the omega draw size would differ (and vice versa via prefix test above)
    t = get_ansatz("cnot2")
    s = EncodingStructure.split(2)
    m1 = sample_machine(t, s, 1.0, 50, seed=77)
    m2 = sample_machine(t, s, 1.0, 200, seed=77)
    assert np.array_equal(m1.beta, m2.beta[:50])
    assert np.array_equal(m1.omega, m2.omega[:50])
