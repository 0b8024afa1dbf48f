"""Kernel machinery: bit matrix, exact inner products, Monte Carlo vs closed form."""

import warnings

import numpy as np
import pytest

from qks import (
    EncodingStructure,
    bit_matrix,
    closed_form_cnot2,
    exact_probabilities,
    expected_inner,
    get_ansatz,
    mc_kernel,
    sample_machine,
)
from qks.quil import CircuitTemplate
from conftest import oracle_probabilities, template_to_oracle_gates


def test_bit_matrix():
    b = bit_matrix(3)
    assert b.shape == (8, 3)
    assert b[0b110].tolist() == [0.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        bit_matrix(0)
    with pytest.raises(ValueError, match="num_qubits"):
        bit_matrix(17)
    from qks import kernels, simulator

    assert kernels.bit_matrix is simulator.bit_matrix is bit_matrix


def test_expected_inner_validation():
    with pytest.raises(ValueError):
        expected_inner(np.ones(4) / 4, np.ones(8) / 8)
    with pytest.raises(ValueError):
        expected_inner(np.ones(3) / 3, np.ones(3) / 3)


def test_expected_inner_equals_marginal_product():
    rng = np.random.default_rng(0)
    t = get_ansatz("cnot2")
    pu = exact_probabilities(t, rng.uniform(0, 2 * np.pi, 2))
    pv = exact_probabilities(t, rng.uniform(0, 2 * np.pi, 2))
    b = bit_matrix(2)
    marg = float((pu @ b) @ (pv @ b))
    assert expected_inner(pu, pv) == pytest.approx(marg, abs=1e-14)


def test_expected_inner_against_shot_sampling():
    # sampling oracle: E[b_u . b_v] over independent shot pairs
    rng = np.random.default_rng(42)
    t = get_ansatz("cnot2")
    theta_u = rng.uniform(0, 2 * np.pi, 2)
    theta_v = rng.uniform(0, 2 * np.pi, 2)
    pu = exact_probabilities(t, theta_u)
    pv = exact_probabilities(t, theta_v)
    n = 100_000
    zu = rng.choice(4, size=n, p=pu)
    zv = rng.choice(4, size=n, p=pv)
    inner = np.array(
        [bin(a & b).count("1") for a, b in zip(zu, zv)], dtype=np.float64
    )
    stderr = inner.std(ddof=1) / np.sqrt(n)
    assert abs(expected_inner(pu, pv) - inner.mean()) <= 4 * stderr


def test_mc_kernel_matches_direct_average():
    t = get_ansatz("cnot2")
    s = EncodingStructure.split(2)
    m = sample_machine(t, s, 1.0, 50, seed=6)
    u = np.array([0.2, -0.4])
    v = np.array([-1.0, 0.7])
    vals = []
    for e in range(50):
        pu = exact_probabilities(t, m.encode(u, e))
        pv = exact_probabilities(t, m.encode(v, e))
        vals.append(expected_inner(pu, pv))
    vals = np.array(vals)
    est = mc_kernel(m, u, v)
    assert est.value == pytest.approx(vals.mean(), abs=1e-12)
    assert est.stderr == pytest.approx(vals.std(ddof=1) / np.sqrt(50), abs=1e-12)
    assert est.episodes_used == 50


def test_p4_mc_kernel_matches_oracle_average():
    # The kernel fingerprints cover cnot2 and cz2 only; this checks a wider
    # template's kernel against probabilities from the independent oracle.
    t = get_ansatz("p4")
    m = sample_machine(t, EncodingStructure.split(4), 0.9, 40, seed=7)
    u = np.array([0.3, -0.2, 1.1, 0.5])
    v = np.array([-0.6, 0.4, 0.9, -1.2])

    def probs(x, e):
        return oracle_probabilities(template_to_oracle_gates(t, m.encode(x, e)), 4)

    vals = np.array([expected_inner(probs(u, e), probs(v, e)) for e in range(40)])
    est = mc_kernel(m, u, v)
    assert est.value == pytest.approx(vals.mean(), abs=1e-12)
    assert est.stderr == pytest.approx(vals.std(ddof=1) / np.sqrt(40), abs=1e-12)


def test_mc_kernel_exact_symmetry():
    t = get_ansatz("cnot2")
    m = sample_machine(t, EncodingStructure.split(2), 2.0, 300, seed=7)
    rng = np.random.default_rng(8)
    for _ in range(5):
        u, v = rng.normal(size=(2, 2))
        a = mc_kernel(m, u, v)
        b = mc_kernel(m, v, u)
        assert a.value == b.value
        assert a.stderr == b.stderr


@pytest.mark.parametrize("sigma", [0.25, 1.0, 4.0])
def test_mc_kernel_matches_closed_form(sigma):
    t = get_ansatz("cnot2")
    m = sample_machine(t, EncodingStructure.split(2), sigma, 20_000, seed=11)
    rng = np.random.default_rng(12)
    for _ in range(4):
        u, v = rng.normal(size=(2, 2))
        est = mc_kernel(m, u, v)
        cf = closed_form_cnot2(u, v, sigma)
        assert abs(est.value - cf) <= 4 * est.stderr + 1e-12


def test_self_kernel_value():
    t = get_ansatz("cnot2")
    m = sample_machine(t, EncodingStructure.split(2), 1.0, 20_000, seed=13)
    u = np.array([0.3, 1.1])
    est = mc_kernel(m, u, u)
    assert abs(est.value - 11 / 16) <= 4 * est.stderr
    assert closed_form_cnot2(u, u, 1.0) == pytest.approx(11 / 16, abs=1e-15)


def test_cz2_constant_kernel():
    t = get_ansatz("cz2")
    m = sample_machine(t, EncodingStructure.split(2), 1.0, 5_000, seed=14)
    rng = np.random.default_rng(15)
    for _ in range(3):
        u, v = rng.normal(size=(2, 2))
        est = mc_kernel(m, u, v)
        assert abs(est.value - 0.5) < 1e-12
        assert est.stderr < 1e-14  # every episode contributes exactly 1/2


def test_cz2_marginals_are_unbiased():
    t = get_ansatz("cz2")
    b = bit_matrix(2)
    rng = np.random.default_rng(16)
    for _ in range(25):
        theta = rng.uniform(-3 * np.pi, 3 * np.pi, 2)
        marg = exact_probabilities(t, theta) @ b
        assert np.abs(marg - 0.5).max() < 1e-12


def test_closed_form_limits_and_tiles():
    u = np.array([0.5, -0.2])
    v = np.array([-0.1, 0.9])
    # sigma -> 0 recovers the self-kernel for any pair
    assert closed_form_cnot2(u, v, 0.0) == pytest.approx(11 / 16)
    # huge sigma decorrelates everything except the constant term
    assert closed_form_cnot2(u, v, 1e6) == pytest.approx(0.5, abs=1e-12)
    # monotone in the pair distance at fixed sigma
    k_near = closed_form_cnot2(u, u + 0.01, 1.0)
    k_far = closed_form_cnot2(u, u + 1.0, 1.0)
    assert k_near > k_far
    # explicit tile for higher-dimensional inputs
    u4 = np.array([0.1, 0.2, 0.3, 0.4])
    v4 = np.array([0.0, 0.1, -0.2, 0.6])
    k = closed_form_cnot2(u4, v4, 1.5, first_tile=[0, 1])
    d1 = u4[:2] - v4[:2]
    d = u4 - v4
    manual = (
        0.5
        + 0.125 * np.exp(-0.5 * 1.5**2 * d1 @ d1)
        + 0.0625 * np.exp(-0.5 * 1.5**2 * d @ d)
    )
    assert k == pytest.approx(manual, abs=1e-15)
    with pytest.raises(ValueError, match="first_tile"):
        closed_form_cnot2(u4, v4, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        closed_form_cnot2(u, v4, 1.0)
    with pytest.raises(ValueError, match="sigma"):
        closed_form_cnot2(u, v, -1.0)
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma"):
            closed_form_cnot2(u, u, sigma)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="u and v"):
            closed_form_cnot2(np.array([bad, 0.0]), v, 1.0)
        with pytest.raises(ValueError, match="u and v"):
            closed_form_cnot2(u, np.array([0.0, bad]), 1.0)
    u2, v2 = np.array([0.1, 0.2]), np.array([0.3, 0.2])
    for tile in ([5], [-1], [2], [0, 0], [1, 0], [[0]]):
        with pytest.raises(ValueError, match="first_tile"):
            closed_form_cnot2(u2, v2, 1.0, first_tile=tile)
    assert closed_form_cnot2(u2, v2, 1.0, first_tile=[0]) == closed_form_cnot2(
        u2, v2, 1.0
    )


def test_identity_machine_kernel_is_zero():
    ident = CircuitTemplate("ID", (), (), 1)
    structure = EncodingStructure(2, 0, "custom", ())
    m = sample_machine(ident, structure, 1.0, 50, seed=17)
    est = mc_kernel(m, np.zeros(2), np.ones(2))
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_mc_kernel_rejects_non_finite_inputs():
    machine = sample_machine(
        get_ansatz("cnot2"), EncodingStructure.split(2), 1.0, 20, 3
    )
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            mc_kernel(machine, [bad, 0.0], [0.1, 0.2])
        with pytest.raises(ValueError, match="finite"):
            mc_kernel(machine, [0.1, 0.2], [0.0, bad])


def test_mc_kernel_names_the_input_whose_encoding_overflows():
    machine = sample_machine(
        get_ansatz("cnot2"), EncodingStructure.split(2), 100.0, 20, 3
    )
    huge = [1e308, 1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^u: .*sigma 100"):
            mc_kernel(machine, huge, [0.0, 0.0])
        with pytest.raises(ValueError, match="^v: .*sigma 100"):
            mc_kernel(machine, [0.0, 0.0], huge)


def test_single_episode_stderr():
    t = get_ansatz("cnot2")
    m = sample_machine(t, EncodingStructure.split(2), 1.0, 1, seed=18)
    est = mc_kernel(m, np.zeros(2), np.ones(2))
    assert est.episodes_used == 1
    assert est.stderr == 0.0
    assert np.isfinite(est.value)
