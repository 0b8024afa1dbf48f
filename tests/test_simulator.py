"""Statevector engine tests against an independent kron-based oracle."""

import numpy as np
import pytest
from scipy import stats

from qks import (
    EpisodeEngine,
    GateKind,
    GateOp,
    Shot,
    StateVector,
    apply_gate,
    exact_probabilities,
    get_ansatz,
    instantiate,
    parse_template,
    run_circuit,
    run_episode,
    sample_shot,
)
from qks import simulator
from qks.simulator import _apply_ops, _compile, cached_engine, outcome_bits
from conftest import oracle_probabilities, template_to_oracle_gates


def test_zero_state():
    s = StateVector.zero(3)
    assert s.amplitudes.shape == (8,)
    assert s.amplitudes[0] == 1.0
    assert s.probabilities().sum() == 1.0
    with pytest.raises(ValueError):
        StateVector.zero(0)
    with pytest.raises(ValueError):
        StateVector.zero(17)


def test_rx_analytic():
    t = parse_template("DEFCIRCUIT R(%a):\n    RX(%a) 0\n")
    for theta in np.linspace(-2 * np.pi, 2 * np.pi, 17):
        p = exact_probabilities(t, [theta])
        assert p == pytest.approx(
            [np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2], abs=1e-12
        )


def test_hadamard_uniform():
    t = parse_template("DEFCIRCUIT HH:\n    H 0\n    H 1\n")
    assert exact_probabilities(t, []) == pytest.approx([0.25] * 4, abs=1e-12)


def test_bell_state():
    t = parse_template("DEFCIRCUIT BELL:\n    H 0\n    CNOT 0 1\n")
    assert exact_probabilities(t, []) == pytest.approx(
        [0.5, 0.0, 0.0, 0.5], abs=1e-12
    )


def test_cnot_direction():
    # RX(pi) flips qubit 0 (up to phase); CNOT 0->1 must then flip qubit 1.
    t = parse_template("DEFCIRCUIT F:\n    RX(pi) 0\n    CNOT 0 1\n")
    p = exact_probabilities(t, [])
    assert p == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-12)
    # and with the roles swapped nothing happens to qubit 0
    t2 = parse_template("DEFCIRCUIT F2:\n    RX(pi) 1\n    CNOT 0 1\n")
    assert exact_probabilities(t2, []) == pytest.approx(
        [0.0, 0.0, 1.0, 0.0], abs=1e-12
    )


def test_cz_phase_only():
    state = StateVector.zero(2)
    state = apply_gate(state, GateOp(GateKind.H, (0,)))
    state = apply_gate(state, GateOp(GateKind.H, (1,)))
    before = state.probabilities().copy()
    after = apply_gate(state, GateOp(GateKind.CZ, (0, 1)))
    assert after.probabilities() == pytest.approx(before, abs=1e-15)
    assert after.amplitudes[3] == pytest.approx(-state.amplitudes[3])
    assert after.amplitudes[:3] == pytest.approx(state.amplitudes[:3])


def test_apply_gate_cnot_and_cz_on_entangled_state_against_oracle():
    # An entangled, complex state, so both the move and the sign show: the
    # CZ's sign reaches the probabilities through the H after it.
    gates = [
        GateOp(GateKind.RX, (0,), 0.9),
        GateOp(GateKind.H, (1,)),
        GateOp(GateKind.RX, (2,), 2.3),
        GateOp(GateKind.CNOT, (1, 2)),
        GateOp(GateKind.RX, (1,), 1.4),
    ]
    state = run_circuit(gates, 3)
    for gate in (
        GateOp(GateKind.CNOT, (2, 0)),
        GateOp(GateKind.CZ, (0, 1)),
        GateOp(GateKind.H, (0,)),
    ):
        state = apply_gate(state, gate)
        gates.append(gate)
        oracle_gates = [(g.kind.value, g.qubits, g.angle) for g in gates]
        ref = oracle_probabilities(oracle_gates, 3)
        assert np.abs(state.probabilities() - ref).max() <= 1e-14


def test_cz_product_of_marginals():
    # A diagonal entangler cannot change computational-basis statistics of
    # a product state: RX, RX, CZ factorizes into two independent RX laws.
    rng = np.random.default_rng(7)
    src = "DEFCIRCUIT C(%a, %b):\n    RX(%a) 0\n    RX(%b) 1\n    CZ 0 1\n"
    t = parse_template(src)
    for _ in range(20):
        a, b = rng.uniform(0, 2 * np.pi, 2)
        p = exact_probabilities(t, [a, b])
        p0 = [np.cos(a / 2) ** 2, np.sin(a / 2) ** 2]
        p1 = [np.cos(b / 2) ** 2, np.sin(b / 2) ** 2]
        expected = [p0[z0] * p1[z1] for z1 in range(2) for z0 in range(2)]
        assert p == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("name", ["rx1", "cnot2", "cz2", "p4", "p9"])
def test_against_kron_oracle(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    t = get_ansatz(name)
    for _ in range(3):
        theta = rng.uniform(-np.pi, 3 * np.pi, t.num_params)
        mine = exact_probabilities(t, theta)
        ref = oracle_probabilities(template_to_oracle_gates(t, theta), t.num_qubits)
        assert np.abs(mine - ref).max() < 1e-12


def test_p16_against_oracle_once():
    t = get_ansatz("p16")
    rng = np.random.default_rng(5)
    theta = rng.uniform(0, 2 * np.pi, 16)
    mine = exact_probabilities(t, theta)
    ref = oracle_probabilities(template_to_oracle_gates(t, theta), 16)
    assert np.abs(mine - ref).max() < 1e-11


def test_norm_preserved_after_every_gate():
    rng = np.random.default_rng(3)
    for name in ("cnot2", "cz2", "p4", "p9"):
        t = get_ansatz(name)
        circuit = instantiate(t, rng.uniform(0, 2 * np.pi, t.num_params))
        state = StateVector.zero(t.num_qubits)
        for gate in circuit.gates:
            state = apply_gate(state, gate)
            assert abs(state.probabilities().sum() - 1.0) < 1e-10


def test_run_circuit_matches_apply_gate_chain():
    t = get_ansatz("p4")
    theta = np.linspace(0.1, 2.0, 4)
    circuit = instantiate(t, theta)
    chained = StateVector.zero(4)
    for g in circuit.gates:
        chained = apply_gate(chained, g)
    direct = run_circuit(circuit.gates, 4)
    assert np.allclose(direct.amplitudes, chained.amplitudes, atol=1e-14)


def test_apply_gate_validates():
    state = StateVector.zero(2)
    with pytest.raises(ValueError, match="qubit 5"):
        apply_gate(state, GateOp(GateKind.H, (5,)))
    t = get_ansatz("rx1")
    with pytest.raises(ValueError, match="unresolved parameter"):
        apply_gate(StateVector.zero(1), t.gates[0])


def test_simulator_qubit_cap():
    gates = tuple(GateOp(GateKind.H, (i,)) for i in range(17))
    from qks.quil import CircuitTemplate

    big = CircuitTemplate("BIG", (), gates, 17)
    with pytest.raises(ValueError, match="at most 16"):
        EpisodeEngine(big)


def test_shot_accessors():
    shot = Shot(bits=0b101, num_qubits=3)
    assert [shot.bit(i) for i in range(3)] == [1, 0, 1]
    assert shot.to_array().tolist() == [1, 0, 1]
    with pytest.raises(IndexError):
        shot.bit(3)


def test_outcome_bits_match_shift_rule():
    rng = np.random.default_rng(3)
    for n in range(1, 17):
        z = rng.integers(0, 1 << n, 500)
        bits = outcome_bits(z, n)
        assert bits.dtype == np.uint8 and bits.shape == (500, n)
        assert np.array_equal(bits, (z[:, None] >> np.arange(n)) & 1)
        assert bits[7].tolist() == Shot(int(z[7]), n).to_array().tolist()
    for n in (0, 17):
        with pytest.raises(ValueError, match="num_qubits"):
            outcome_bits(np.zeros(3, dtype=np.int64), n)


def test_sample_shot_consumes_one_uniform():
    t = get_ansatz("cnot2")
    theta = [0.7, 1.9]
    rng = np.random.default_rng(123)
    shots = [run_episode(t, theta, rng) for _ in range(5)]
    # replaying the same stream by hand gives the same outcomes
    rng2 = np.random.default_rng(123)
    cdf = np.cumsum(exact_probabilities(t, theta))
    for s in shots:
        u = rng2.random()
        z = min(int(np.searchsorted(cdf, u, side="right")), 3)
        assert s.bits == z


def test_sample_shot_skips_zero_probability():
    state = StateVector(np.array([0.0, 1.0 + 0j]), 1)
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert sample_shot(state, rng).bits == 1


def _sequential_outcome(probs, u):
    """The inverse-CDF rule in plain Python: count the running sums <= u,
    clamped to the last outcome."""
    total, count = 0.0, 0
    for p in probs:
        total += float(p)
        count += total <= u
    return min(count, len(probs) - 1)


def _adversarial_uniforms(probs):
    """0, and every running sum below 1 with its neighbours; the one above
    the last sum clamps when rounding leaves that sum below 1."""
    us, total = {0.0}, 0.0
    for p in probs:
        total += float(p)
        for u in (total, np.nextafter(total, 0.0), np.nextafter(total, 1.0)):
            if 0.0 <= u < 1.0:
                us.add(float(u))
    return sorted(us)


class _FixedUniform:
    """Stands in for a Generator whose next uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize(
    "amplitudes",
    [
        [0.0, 0.0, 0.5, 0.0, 0.5, np.sqrt(0.5), 0.0, 0.0],  # leading/interior zeros
        [0.0, 0.0, 0.0, 1.0],  # one-hot, last outcome
        [1.0, 0.0, 0.0, 0.0],  # one-hot, first outcome
        [0.0, 1.0j, 0.0, 0.0],  # one-hot, interior
        [0.5, 0.5, 0.5, 0.5 - 1e-9],  # last sum below 1: clamps
    ],
)
def test_sample_shot_follows_sequential_rule(amplitudes):
    n = len(amplitudes).bit_length() - 1
    state = StateVector(np.array(amplitudes, dtype=np.complex128), n)
    probs = state.probabilities()
    for u in _adversarial_uniforms(probs):
        expected = _sequential_outcome(probs, u)
        assert sample_shot(state, _FixedUniform(u)).bits == expected, u


def test_engine_sample_follows_sequential_rule(monkeypatch):
    # cnot2 at theta (x, 0) gives [c^2, 0, 0, s^2] and at (0, x) gives
    # [c^2, 0, s^2, 0]; theta 0 is one-hot. Rows span many small chunks.
    rng = np.random.default_rng(41)
    x = rng.uniform(-7, 7, 60)
    zero = np.zeros(60)
    thetas = np.concatenate(
        [np.stack([x, zero], 1), np.stack([zero, x], 1), np.zeros((3, 2))]
    )
    thetas = np.concatenate([thetas, rng.uniform(-7, 7, (60, 2))])
    monkeypatch.setattr(simulator, "CHUNK_BYTES", 1 << 9)
    engine = EpisodeEngine(get_ansatz("cnot2"))
    assert engine.chunk_size < 20
    probs = engine.probabilities(thetas)
    rows, uniforms = [], []
    for i, row in enumerate(probs):
        for u in _adversarial_uniforms(row):
            rows.append(i)
            uniforms.append(u)
    got = engine.sample(thetas[rows], np.array(uniforms))
    expected = [_sequential_outcome(probs[i], u) for i, u in zip(rows, uniforms)]
    assert got.tolist() == expected
    # Some rows sum to below 1 and are sampled above that sum.
    clamped = [u > np.cumsum(probs[i])[-1] for i, u in zip(rows, uniforms)]
    assert any(clamped)


def test_born_rule_chisquare():
    t = get_ansatz("cnot2")
    theta = [np.pi / 3, 4 * np.pi / 5]
    probs = exact_probabilities(t, theta)
    engine = EpisodeEngine(t)
    n = 40_000
    rng = np.random.default_rng(99)
    thetas = np.tile(theta, (n, 1))
    z = engine.sample(thetas, rng.random(n))
    counts = np.bincount(z, minlength=4)
    result = stats.chisquare(counts, probs * n)
    assert result.pvalue > 1e-3


def test_batched_sample_equals_scalar(tmp_path):
    t = get_ansatz("p4")
    rng = np.random.default_rng(17)
    thetas = rng.uniform(0, 2 * np.pi, (50, 4))
    uniforms = rng.random(50)
    engine = EpisodeEngine(t)
    batched = engine.sample(thetas, uniforms)
    for i in range(50):
        cdf = np.cumsum(exact_probabilities(t, thetas[i]))
        z = min(int(np.searchsorted(cdf, uniforms[i], side="right")), 15)
        assert batched[i] == z


def test_engine_chunking_consistent(monkeypatch):
    t = get_ansatz("cnot2")
    rng = np.random.default_rng(2)
    thetas = rng.uniform(0, 2 * np.pi, (257, 2))
    uniforms = rng.random(257)
    big = EpisodeEngine(t)
    monkeypatch.setattr(simulator, "CHUNK_BYTES", 1 << 10)  # forces many chunks
    small = EpisodeEngine(t)
    assert small.chunk_size < 257 <= big.chunk_size
    assert np.array_equal(small.sample(thetas, uniforms), big.sample(thetas, uniforms))
    assert np.allclose(
        small.probabilities(thetas), big.probabilities(thetas), atol=0
    )


def test_engine_layers():
    t = get_ansatz("rx1")
    engine = EpisodeEngine(t, layers=3)
    assert engine.num_params == 3
    theta = np.array([[0.3, 1.1, -0.4]])
    p = engine.probabilities(theta)[0]
    # three stacked RX rotations compose by angle addition
    total = theta.sum()
    assert p == pytest.approx(
        [np.cos(total / 2) ** 2, np.sin(total / 2) ** 2], abs=1e-12
    )


def test_engine_input_validation():
    engine = EpisodeEngine(get_ansatz("cnot2"))
    with pytest.raises(ValueError, match="shape"):
        engine.probabilities(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="uniform"):
        engine.sample(np.zeros((4, 2)), np.zeros(3))


def test_engine_rejects_non_finite_thetas_and_out_of_range_uniforms():
    engine = EpisodeEngine(get_ansatz("cnot2"))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            engine.sample([[bad, 0.0]], [0.5])
        with pytest.raises(ValueError, match="finite"):
            engine.probabilities([[0.0, bad]])
    for u in (np.nan, 1.0, 1.5, -0.25, np.inf):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            engine.sample([[0.3, 0.4]], [u])
    assert engine.sample([[0.3, 0.4]], [0.0]).tolist() == [0]


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(8)
    engine = EpisodeEngine(get_ansatz("p9"))
    thetas = rng.uniform(-np.pi, np.pi, (20, 9))
    sums = engine.probabilities(thetas).sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-10


# Templates checked against the oracle, (source, layers). The engine builds
# each from its opening RX layer as a product state; later gates run as
# RX/H kernels, and each run of CNOT/CZ gates as one signed permutation.
TEMPLATES = {
    "literal-rx": ("DEFCIRCUIT L(%a):\n    RX(0.7) 0\n    RX(%a) 1\n    CNOT 0 1\n", 1),
    "idle-qubit": (
        "DEFCIRCUIT I(%a, %b):\n    RX(%a) 0\n    RX(%b) 2\n    CNOT 0 1\n"
        "    CNOT 2 1\n",
        1,
    ),
    "target-twice": (
        "DEFCIRCUIT T(%a, %b, %c):\n    RX(%c) 2\n    RX(%a) 0\n    RX(%b) 1\n"
        "    CNOT 0 2\n    CNOT 1 2\n    CNOT 2 0\n",
        1,
    ),
    "rx1": ("rx1", 1),
    "cz2": ("cz2", 1),
    "cnot2-layers-2": ("cnot2", 2),
    "rx-after-cnot": (
        "DEFCIRCUIT A(%a, %b):\n    RX(%a) 0\n    CNOT 0 1\n    RX(%b) 1\n",
        1,
    ),
    "rx-twice": ("DEFCIRCUIT W(%a, %b):\n    RX(%a) 0\n    RX(%b) 0\n", 1),
    "hadamard": ("DEFCIRCUIT H1(%a):\n    RX(%a) 0\n    H 1\n    CNOT 0 1\n", 1),
    "cz-sign-after-move": (
        "DEFCIRCUIT S(%a, %b, %c):\n    RX(%a) 0\n    RX(%b) 1\n    RX(%c) 2\n"
        "    CNOT 0 1\n    CZ 1 2\n    CNOT 2 0\n    CZ 0 1\n    H 0\n    H 1\n"
        "    H 2\n",
        1,
    ),
    "cz-only": (
        "DEFCIRCUIT Z(%a, %b):\n    RX(%a) 0\n    H 1\n    CZ 0 1\n    CZ 1 2\n"
        "    RX(%b) 2\n    H 1\n",
        2,
    ),
    "cnot-cancels": (
        "DEFCIRCUIT C(%a, %b):\n    RX(%a) 0\n    RX(%b) 1\n    CNOT 0 1\n"
        "    CNOT 0 1\n",
        1,
    ),
    "opens-with-cnot": (
        "DEFCIRCUIT O(%a):\n    CNOT 0 1\n    RX(%a) 1\n    CNOT 1 0\n", 1
    ),
}


def _template(source):
    """A built-in ansatz by name, or a template parsed from Quil source."""
    return parse_template(source) if "DEFCIRCUIT" in source else get_ansatz(source)


@pytest.mark.parametrize("key", TEMPLATES)
def test_simulation_path_against_kron_oracle(key):
    source, layers = TEMPLATES[key]
    t = _template(source)
    engine = cached_engine(t, layers)
    rng = np.random.default_rng(31)
    thetas = rng.uniform(-np.pi, 3 * np.pi, (5, engine.num_params))
    mine = engine.probabilities(thetas)
    p = t.num_params
    for theta, row in zip(thetas, mine):
        gates = []
        for layer in range(layers):
            gates += template_to_oracle_gates(t, theta[layer * p : (layer + 1) * p])
        ref = oracle_probabilities(gates, t.num_qubits)
        assert np.abs(row - ref).max() <= 1e-14


@pytest.mark.parametrize(
    "key",
    ["rx1", "cnot2", "p4", "p9", "p16", "cz2", "cnot2-layers-2", "target-twice"],
)
def test_product_path_matches_dense_kernels_bit_for_bit(key):
    # The engine builds the opening RX layer as a product state, multiplying
    # the factors in op order as RX kernels applied gate by gate from |0...0>
    # do: equal floats, equal bits, whatever the qubit order of the layer.
    source, layers = TEMPLATES.get(key, (key, 1))
    t = _template(source)
    engine = cached_engine(t, layers)
    rows = 3 if key == "p16" else 200
    thetas = np.random.default_rng(32).uniform(-7, 7, (rows, engine.num_params))
    dense = np.zeros((rows, engine.dim), dtype=np.complex128)
    dense[:, 0] = 1.0
    ops = _compile(t.gates, t.num_qubits, t.params, layers)
    dense = _apply_ops(dense.T, engine.num_qubits, ops, thetas).T
    probs = dense.real * dense.real + dense.imag * dense.imag
    assert np.array_equal(engine.probabilities(thetas), probs)
