"""Statevector engine tests against an independent kron-based oracle."""

import gc
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from qks import (
    EncodingStructure,
    EpisodeEngine,
    GateKind,
    GateOp,
    ParamRef,
    Shot,
    StateVector,
    apply_gate,
    bit_matrix,
    exact_probabilities,
    featurize,
    get_ansatz,
    instantiate,
    mc_kernel,
    parse_template,
    run_circuit,
    run_episode,
    sample_machine,
    sample_shot,
)
from qks import simulator
from qks.simulator import _apply_ops, _compile, cached_engine, outcome_bits
from conftest import (
    MIXED3,
    NONTRI6,
    oracle_probabilities,
    random_clifford_template,
    template_to_oracle_gates,
)


def test_zero_state():
    s = StateVector.zero(3)
    assert s.amplitudes.shape == (8,)
    assert s.amplitudes[0] == 1.0
    assert s.probabilities().sum() == 1.0
    with pytest.raises(ValueError):
        StateVector.zero(0)
    with pytest.raises(ValueError):
        StateVector.zero(17)


@pytest.mark.parametrize(
    "make",
    [
        lambda: StateVector(np.ones(8) / 8**0.5, 2),  # 3 qubits' worth
        lambda: StateVector(np.ones(5) / 5**0.5, 2),
        lambda: StateVector(np.eye(2) / 2**0.5, 2),  # 4 entries, but 2-D
        lambda: StateVector.zero(2.0),
        lambda: StateVector(np.ones(2), 1.0),
        lambda: StateVector(np.ones(2), True),
        lambda: StateVector(np.ones(1), 0),
    ],
    ids=["8-of-4", "5-of-4", "2x2", "zero-float-width", "float-width",
         "bool-width", "no-qubits"],
)
def test_state_vector_checks_its_width(make):
    # Unchecked, a mis-sized state runs: apply_gate(H 0) on 8 amplitudes
    # labelled as 2 qubits returns 8, and sampling them can read bits=4.
    with pytest.raises(ValueError, match="num_qubits|amplitudes"):
        make()


def test_state_vector_keeps_a_valid_width():
    state = StateVector([0.0, 1.0], np.int64(1))
    assert state.num_qubits == 1 and type(state.num_qubits) is int
    assert state.amplitudes.shape == (2,)
    assert sample_shot(state, np.random.default_rng(0)) == Shot(1, 1)


def test_state_vector_holds_amplitudes_every_gate_applies_to():
    # Real and integer amplitudes used to fail inside the RX and H kernels
    # with numpy's UFuncTypeError, and strings only inside sample_shot.
    gates = [GateOp(GateKind.RX, (0,), 0.5), GateOp(GateKind.H, (0,))]
    expected = run_circuit(gates, 1).amplitudes
    for amplitudes in (np.array([1.0, 0.0]), np.array([1, 0]), [True, False]):
        state = StateVector(amplitudes, 1)
        assert state.amplitudes.dtype == np.complex128
        for gate in gates:
            state = apply_gate(state, gate)
        assert np.array_equal(state.amplitudes, expected)
    for bad in (np.array(["1", "0"]), np.array([1.0, None], dtype=object)):
        with pytest.raises(ValueError, match="amplitudes must be numbers"):
            StateVector(bad, 1)


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
    with pytest.raises(IndexError):
        shot.bit(-1)
    assert shot.bit(np.int64(2)) == 1
    # Unchecked, True read qubit 1 and 1.5 failed in the shift.
    for bad in (True, np.bool_(False), 1.5, np.float64(0.0)):
        with pytest.raises(ValueError, match="qubit must be an integer"):
            Shot(0b10, 2).bit(bad)


def test_shot_checks_itself():
    # Unchecked, Shot(7, 2) and Shot(-1, 2) both read [1 1].
    for bits, n, match in [
        (7, 2, "bits must be in"),
        (4, 2, "bits must be in"),
        (-1, 2, "bits must be in"),
        (1.0, 2, "bits must be an integer"),
        (True, 2, "bits must be an integer"),
        (0, 0, "num_qubits"),
        (0, 17, "num_qubits"),
        (0, 2.0, "num_qubits must be an integer"),
    ]:
        with pytest.raises(ValueError, match=match):
            Shot(bits, n)
    shot = Shot(np.int64(3), np.int64(2))
    assert shot == Shot(3, 2) and shot.to_array().tolist() == [1, 1]
    assert Shot((1 << 16) - 1, 16).to_array().tolist() == [1] * 16


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


@pytest.mark.parametrize("n", [5, 9])
def test_sample_shot_follows_the_rule_on_wide_states(n):
    # 32 and 512 amplitudes, past the 16 outcomes of the running sums, at u
    # on every cumulative sum and its neighbours.
    rng = np.random.default_rng(n)
    a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    a[rng.integers(1 << n, size=1 << (n - 2))] = 0.0
    state = StateVector(a / np.linalg.norm(a), n)
    cdf = np.cumsum(state.probabilities())
    for u in _adversarial_uniforms(state.probabilities()):
        expected = min(int(np.searchsorted(cdf, u, side="right")), (1 << n) - 1)
        assert sample_shot(state, _FixedUniform(u)).bits == expected, u


@pytest.mark.parametrize(
    "amplitudes, total",
    [
        ([np.nan, 1.0], "nan"),
        ([np.inf, 0.0], "inf"),
        ([1e200, 0.0], "inf"),  # squares past float64's range, with no warning
        ([0.0, 0.0], "0.0"),
        ([0.0] * 64, "0.0"),
        ([3.0, 4.0], "25.0"),
    ],
)
def test_sample_shot_rejects_vectors_that_are_not_states(amplitudes, total):
    # The rule reads any vector as some outcome: NaN or inf amplitudes gave
    # 0, [0, 0] gave 1, 64 zeros gave 63 and [3, 4] always 0.
    n = len(amplitudes).bit_length() - 1
    state = StateVector(np.array(amplitudes, dtype=np.complex128), n)
    with pytest.raises(ValueError, match=f"sum to {total},"):
        sample_shot(state, np.random.default_rng(0))


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


def _cumsum_outcome(probs, uniforms):
    """The inverse-CDF rule through np.cumsum down axis 0 of (dim, b) probs."""
    cdf = np.cumsum(probs, axis=0)
    return np.minimum((cdf <= uniforms).sum(axis=0), probs.shape[0] - 1)


def _adversarial_column(rng, dim, below_one):
    """Probabilities with a run of zeros and one spike, summing to 1 or,
    with ``below_one``, to just below it."""
    p = rng.random(dim) ** 4
    start = rng.integers(dim)
    p[start : start + rng.integers(1, dim + 1)] = 0.0
    p[rng.integers(dim)] += 0.1
    p /= p.sum()
    if below_one:
        p *= 1.0 - 1e-9
    return p


def _guard_band_uniforms(probs, rows=slice(None)):
    """u at 5 * dim * eps either side of the running sums at ``rows``: just
    outside the band of 4 * dim * eps in which the guard hands a blocked
    search's column to the rule."""
    band = 5 * len(probs) * np.finfo(np.float64).eps
    sums = np.cumsum(probs)[rows]
    us = np.concatenate([sums - band, sums + band])
    return us[(us >= 0.0) & (us < 1.0)].tolist()


def _blocked_search_outside_its_band(probs, uniforms, expected):
    """Check that _blocked_search gives ``expected`` wherever its gap exceeds
    4 * dim * eps, the tol with which the guard keeps its index; return how
    many columns fall inside that band."""
    z, gap = simulator._blocked_search(probs, uniforms)
    far = gap > 4 * len(probs) * np.finfo(np.float64).eps
    assert z[far].tolist() == expected[far].tolist()
    return int((~far).sum())


@pytest.mark.parametrize("dim", [*range(2, 17), 32, 64])
def test_inverse_cdf_matches_cumsum_rule_at_every_dim(dim):
    # Small outcome spaces are sampled with running sums, which on float64
    # probabilities give the rule's index and the exact smallest gap to u.
    # Wide ones go to a blocked search, which gives the rule's index outside
    # its guard band. Past 16 outcomes, only the power-of-two widths of a
    # state are sampled. Columns have runs of zero probability, and every
    # other one sums to below 1; each is sampled at u equal to every
    # cumulative sum, its neighbours and the guard band's edges, with the
    # columns mixed in one call.
    rng = np.random.default_rng(dim)
    columns, uniforms = [], []
    for k in range(12):
        p = _adversarial_column(rng, dim, k % 2)
        for u in _adversarial_uniforms(p) + _guard_band_uniforms(p):
            columns.append(p)
            uniforms.append(u)
    probs, uniforms = np.array(columns).T, np.array(uniforms)
    expected = _cumsum_outcome(probs, uniforms)
    if dim <= 16:
        got, gap = simulator._running_sums(probs, uniforms)
        assert got.tolist() == expected.tolist()
        sums = np.cumsum(probs, axis=0)[:-1]
        assert gap.tolist() == np.abs(sums - uniforms).min(axis=0).tolist()
    else:
        assert _blocked_search_outside_its_band(probs, uniforms, expected) > 0
    assert (uniforms >= np.cumsum(probs, axis=0)[-1]).any()  # clamped


@pytest.mark.parametrize("dim, below_one", [(512, False), (512, True), (4096, True), (65536, False)])
def test_inverse_cdf_matches_cumsum_rule_on_wide_columns(dim, below_one):
    # One column per call, read through a broadcast view, at many u. Up to
    # 4096 outcomes u takes every cumulative sum, its neighbours and the
    # guard band's edges. At p16's 65,536, where each u sent to the
    # sequential rule costs a full cumsum, it takes every 256th sum (the
    # ends of blocks of sqrt(dim) rows) with its neighbours, and the band's
    # edges around those and every sum of the first and last blocks.
    p = _adversarial_column(np.random.default_rng(dim), dim, below_one)
    if dim <= 4096:
        uniforms = _adversarial_uniforms(p) + _guard_band_uniforms(p)
    else:
        rows = np.arange(dim)
        ends = rows % 256 == 255
        uniforms = [
            float(u) for s in np.cumsum(p)[ends]
            for u in (s, np.nextafter(s, 0.0), np.nextafter(s, 1.0))
        ]
        uniforms += _guard_band_uniforms(p, ends | (rows < 256) | (rows >= dim - 256))
    uniforms = np.array(uniforms)
    uniforms = uniforms[uniforms < 1.0]
    # _cumsum_outcome for one column: its sums never decrease, so the count
    # of those <= u is u's right insertion point.
    expected = np.minimum(np.searchsorted(np.cumsum(p), uniforms, "right"), dim - 1)
    splits = -(-len(uniforms) * dim // (1 << 21))
    close = sum(
        _blocked_search_outside_its_band(
            np.broadcast_to(p[:, np.newaxis], (dim, len(us))), us, ex
        )
        for us, ex in zip(np.array_split(uniforms, splits), np.array_split(expected, splits))
    )
    assert 0 < close < len(uniforms)


def test_inverse_cdf_ties_on_block_ends():
    # Multiples of 1/512 add exactly, in any order, so u = k/512 sits on a
    # cumulative sum, and for k > 0 in the wide columns on a sum that the
    # blocked search compares: its gap is 0 and the guard hands it to the
    # rule. Columns of 512 and 256 nonzero outcomes alternate, so a search
    # that mixed up columns would show.
    wide = np.full(512, 1 / 512)
    half = np.where(np.arange(512) % 2 == 0, 1 / 256, 0.0)
    uniforms = np.arange(512) / 512
    probs = np.where(np.arange(512) % 2 == 0, wide[:, np.newaxis], half[:, np.newaxis])
    expected = _cumsum_outcome(probs, uniforms)
    assert expected[::2].tolist() == list(range(0, 512, 2))
    assert _blocked_search_outside_its_band(probs, uniforms, expected) == 255
    _, gap = simulator._blocked_search(probs, uniforms)
    assert (gap[2::2] == 0).all()


def test_float32_trig_is_within_the_screen_premise():
    # EpisodeEngine.sample screens small outcome spaces in float32 and
    # assumes that numpy's float32 cos and sin of x, cast to float32, lie
    # within (|x| + 4) * 2**-24 of the float64 values at x: the cast's
    # rounding plus 4 ulp. The grid is dense over [-2**12, 2**12], holds
    # multiples of pi/2 and their neighbours, and runs sparsely out to 2**20.
    rng = np.random.default_rng(7)
    k = np.arange(-2607, 2608) * (np.pi / 2)
    near = [k, np.nextafter(k, np.inf), np.nextafter(k, -np.inf),
            k.astype(np.float32).astype(np.float64),
            k + rng.uniform(-1e-3, 1e-3, k.size)]
    wide = np.geomspace(2.0**12, 2.0**20, 20_001)
    grid = np.concatenate([np.linspace(-(2.0**12), 2.0**12, 2**21 + 1),
                           rng.uniform(-(2.0**12), 2.0**12, 2**20),
                           *near, wide, -wide])
    for x in np.array_split(grid, 16):
        bound = (np.abs(x) + 4) * 2.0**-24
        x32 = x.astype(np.float32)
        for f in (np.cos, np.sin):
            excess = np.abs(f(x32).astype(np.float64) - f(x)) - bound
            assert (excess <= 0).all(), (f.__name__, x[np.argmax(excess)])


# Every built-in with at most 16 outcomes, at one and two layers: the
# engines whose sample screens in float32.
SCREENED = [("rx1", 1), ("cnot2", 1), ("cz2", 1), ("p4", 1),
            ("cnot2", 2), ("cz2", 2), ("p4", 2)]


@pytest.mark.parametrize("name, layers", SCREENED)
def test_float32_screen_error_is_far_inside_its_tolerance(name, layers, monkeypatch):
    # The tolerance is a worst-case bound; on random episodes from sigma 0.1
    # to 1000 the screen's own float32 running sums stay within a quarter
    # of it of the float64 rule's cumulative sums.
    engine = EpisodeEngine(get_ansatz(name), layers)
    rng = np.random.default_rng(layers * 100 + engine.dim)
    sigmas = np.repeat([0.1, 1.0, 10.0, 100.0, 1e3], 2000)[:, np.newaxis]
    thetas = sigmas * rng.normal(size=(sigmas.size, engine.num_params))
    recorded = _spy_on_the_float32_sums(monkeypatch)
    engine.sample(thetas, np.zeros(len(thetas)))
    screened = np.concatenate(recorded, axis=1)
    assert screened.dtype == np.float32 and screened.shape == (engine.dim - 1, len(thetas))
    with np.errstate(over="ignore"):
        tol = engine._screen_tolerance(thetas.T[engine._prefix_cols].astype(np.float32))
    exact = np.cumsum(engine.probabilities(thetas), axis=1)[:, :-1].T
    error = np.abs(screened.astype(np.float64) - exact).max(axis=0)
    assert (error < 0.25 * tol).all(), (error / tol).max()


def _spy_on_the_rule(monkeypatch):
    """Count the episodes that the guard hands to _cdf_index: the returned
    list gets one entry per call."""
    redone, cdf_index = [], simulator._cdf_index

    def spy(probs, us):
        redone.append(len(us))
        return cdf_index(probs, us)

    monkeypatch.setattr(simulator, "_cdf_index", spy)
    return redone


@pytest.mark.parametrize("name, layers", [*SCREENED[:4], ("cnot2", 2)])
def test_float32_screen_gives_the_float64_index(name, layers, monkeypatch):
    # u on each cumulative sum of the float64 probabilities and its +-1 ulp
    # neighbours, which the screen must hand to the float64 path, and at
    # half and twice the tolerance either side, which it mostly decides
    # alone; at sigma 1000 the tolerance is about 1e-3.
    engine = EpisodeEngine(get_ansatz(name), layers)
    rng = np.random.default_rng(engine.dim + layers)
    sigmas = np.repeat([0.3, 3.0, 1e3], 20)[:, np.newaxis]
    thetas = sigmas * rng.normal(size=(sigmas.size, engine.num_params))
    tol = engine._screen_tolerance(thetas.T[engine._prefix_cols].astype(np.float32))
    sums = np.cumsum(engine.probabilities(thetas), axis=1)
    rows, uniforms = [], []
    for i, row in enumerate(sums):
        for u in np.concatenate([row, np.nextafter(row, 0.0), np.nextafter(row, 1.0),
                                 *(row + f * tol[i] for f in (-2, -0.5, 0.5, 2))]):
            if 0.0 <= u < 1.0:
                rows.append(i)
                uniforms.append(u)
    thetas, uniforms = thetas[rows], np.array(uniforms)
    redone = _spy_on_the_rule(monkeypatch)
    got = engine.sample(thetas, uniforms)
    expected = _cumsum_outcome(engine.probabilities(thetas).T, uniforms)
    assert got.tolist() == expected.tolist()
    assert 0 < sum(redone) < len(uniforms)


def _spy_on_the_float32_sums(monkeypatch):
    """Record the running sums that each call to _running_sums forms, in
    its dtype and by its operations: the returned list gets one (dim - 1,
    b) array per call."""
    recorded, running_sums = [], simulator._running_sums

    def spy(probs, uniforms, order=None):
        rows = probs if order is None else probs[order]
        total = np.empty(len(uniforms), uniforms.dtype)
        total[...] = rows[0]
        sums = [total.copy()]
        for p in rows[1:-1]:
            total += p
            sums.append(total.copy())
        recorded.append(np.array(sums))
        return running_sums(probs, uniforms, order)

    monkeypatch.setattr(simulator, "_running_sums", spy)
    return recorded


def _float32_index(sums, uniforms):
    """The index that (dim - 1, b) float32 ``sums`` alone give each u."""
    return (sums <= uniforms.astype(np.float32)).sum(axis=0)


@pytest.mark.parametrize("name", ["rx1", "cnot2", "cz2", "p4"])
@pytest.mark.parametrize("layers", [1, 2])
def test_float32_screen_redoes_u_between_float32_and_float64_sums(
    name, layers, monkeypatch
):
    # u between a float32 running sum of the screen and the float64 rule's
    # sum at the same index, kept where the float32 sums alone, against u
    # cast to float32, would pick another index than the rule. The guard
    # must redo every such episode and give the rule's index.
    engine = EpisodeEngine(get_ansatz(name), layers)
    assert engine.path == "screen32"
    rng = np.random.default_rng(10 * engine.dim + layers)
    thetas = rng.normal(scale=2.0, size=(50, engine.num_params))
    recorded = _spy_on_the_float32_sums(monkeypatch)
    engine.sample(thetas, np.zeros(len(thetas)))
    (sums32,) = recorded
    probs = engine.probabilities(thetas)
    sums64 = np.cumsum(probs, axis=1)[:, :-1].T
    rows, uniforms = [], []
    for j, i in zip(*np.nonzero(sums32 != sums64)):
        lo, hi = sorted((float(sums32[j, i]), float(sums64[j, i])))
        for u in (lo, hi, (lo + hi) / 2, np.nextafter(lo, 1.0), np.nextafter(hi, 0.0)):
            if 0.0 <= u < 1.0:
                rows.append(i)
                uniforms.append(u)
    rows, uniforms = np.array(rows), np.array(uniforms)
    rule = _cumsum_outcome(probs[rows].T, uniforms)
    keep = _float32_index(sums32[:, rows], uniforms) != rule
    rows, uniforms, rule = rows[keep], uniforms[keep], rule[keep]
    assert len(rows) >= 100
    redone = _spy_on_the_rule(monkeypatch)
    got = engine.sample(thetas[rows], uniforms)
    assert got.tolist() == rule.tolist()
    # The float32 sums of this call, too, pick another index at every u.
    assert (_float32_index(recorded[-1], uniforms) != rule).all()
    assert sum(redone) == len(uniforms)


FLT_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize("name, layers", [("cnot2", 1), ("cz2", 1), ("p4", 2)])
@pytest.mark.parametrize("big", [1e300, 2 * 3.41e38, 2.0 * FLT_MAX, FLT_MAX])
def test_float32_screen_redoes_angles_past_float32_range(
        name, layers, big, monkeypatch):
    # The first three angles cast to inf in float32, and cos(inf) is NaN:
    # the screen must treat a NaN gap as a close call. The last one, float32's
    # largest value, stays finite and makes tol far above 1, so its episodes
    # are redone too. The screen must not warn.
    engine = EpisodeEngine(get_ansatz(name), layers)
    uniforms = np.arange(64) / 64
    thetas = np.random.default_rng(3).normal(size=(64, engine.num_params))
    thetas[::2, 0] = big
    redone = _spy_on_the_rule(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = engine.sample(thetas, uniforms)
    assert sum(redone) >= 32
    expected = _cumsum_outcome(engine.probabilities(thetas).T, uniforms)
    assert got.tolist() == expected.tolist()
    assert len(set(got[::2].tolist())) > 1


# Real engines past 16 outcomes: an RX layer, then at most one run of CNOT
# and CZ gates. Their sample takes the product search. idle7 leaves qubits
# 2 and 5 idle, with a CZ between them.
PRODUCT_SEARCHED = {
    "p9": "p9",
    "p16": "p16",
    "nontri6": NONTRI6,
    "idle7": (
        "DEFCIRCUIT I7(%a, %b, %c, %d, %e):\n    RX(%a) 6\n    RX(%b) 1\n"
        "    RX(%c) 3\n    RX(%d) 0\n    RX(%e) 4\n    CNOT 6 2\n    CNOT 3 5\n"
        "    CZ 2 5\n    CNOT 1 6\n    CNOT 0 4\n    CNOT 4 1\n"
    ),
}


def test_wide_engines_are_not_screened():
    # Real engines past 16 outcomes take the product search: never the
    # running sums of the float32 screen, nor the blocked search over a 2**n
    # vector.
    for source in PRODUCT_SEARCHED.values():
        engine = EpisodeEngine(_template(source))
        assert engine.path == "product"
        thetas = np.random.default_rng(4).normal(size=(10, engine.num_params))
        uniforms = np.linspace(0.0, 0.9, 10)
        expected = _cumsum_outcome(engine.probabilities(thetas).T, uniforms)
        assert engine.sample(thetas, uniforms).tolist() == expected.tolist()


@pytest.mark.parametrize(
    "source, layers", [("p9", 2), (NONTRI6 + "    H 2\n", 1)], ids=["p9-l2", "nontri6-h"]
)
def test_complex_wide_engines_use_the_blocked_search(source, layers):
    # p9 at two layers has RX gates after its entanglers, and an H after
    # the CNOTs mixes amplitudes: both are complex, so their sample searches
    # the 2**n outcome vector in blocks.
    engine = EpisodeEngine(_template(source), layers)
    assert engine.dim > 16
    assert engine.path == "blocked"
    thetas = np.random.default_rng(5).normal(size=(40, engine.num_params))
    uniforms = np.random.default_rng(6).random(40)
    expected = _cumsum_outcome(engine.probabilities(thetas).T, uniforms)
    assert engine.sample(thetas, uniforms).tolist() == expected.tolist()


def _probed_sums(dim, rng):
    """Indices of the cumulative sums to put u on: every one up to 4096
    outcomes. Of p16's 65,536, where each u redone costs a 2**16 vector,
    every 16th end of a 256-row block and 16 sums inside one block."""
    if dim <= 4096:
        return np.arange(dim)
    block = int(rng.integers(dim // 256)) * 256
    return np.concatenate([np.arange(255, dim, 16 * 256),
                           block + rng.choice(256, 16, replace=False)])


@pytest.mark.parametrize("key", PRODUCT_SEARCHED)
def test_product_search_gives_the_rule_index(key, monkeypatch):
    # u on cumulative sums of the float64 probabilities and their +-1 ulp
    # neighbours, which the guard must hand to the rule, and at half and
    # twice the product search's tol either side, which it mostly decides
    # alone, for episodes from sigma 0.3 to 1000.
    engine = EpisodeEngine(_template(PRODUCT_SEARCHED[key]))
    rng = np.random.default_rng(engine.dim)
    sigmas = np.repeat([0.3, 3.0, 1e3], 1 if key == "p16" else 3)[:, np.newaxis]
    thetas = sigmas * rng.normal(size=(sigmas.size, engine.num_params))
    tol = engine._product_tolerance()
    rows, uniforms, expected = [], [], []
    for i, probs in enumerate(engine.probabilities(thetas)):
        sums = np.cumsum(probs)
        at = sums[_probed_sums(engine.dim, rng)]
        us = np.concatenate([at, np.nextafter(at, 0.0), np.nextafter(at, 1.0),
                             *(at + f * tol for f in (-2, -0.5, 0.5, 2))])
        us = us[(us >= 0.0) & (us < 1.0)]
        rows += [i] * len(us)
        uniforms.append(us)
        expected.append(np.minimum(np.searchsorted(sums, us, "right"), engine.dim - 1))
    redone = _spy_on_the_rule(monkeypatch)
    got = engine.sample(thetas[rows], np.concatenate(uniforms))
    assert got.tolist() == np.concatenate(expected).tolist()
    assert 0 < sum(redone) < len(rows)


def _far_uniforms(sums):
    """Per row of cumulative sums, u in the middle of the widest interval
    between 0, the sums before the last, and 1: at least 1 / (2 * dim) from
    every sum that a fast path compares with u."""
    ends = np.ones((len(sums), 1))
    edges = np.sort(np.concatenate([0 * ends, sums[:, :-1], ends], axis=1), axis=1)
    widths = np.diff(edges, axis=1)
    rows, k = np.arange(len(sums)), widths.argmax(axis=1)
    return edges[rows, k] + widths[rows, k] / 2


@pytest.mark.parametrize("name", ["cnot2", "p9", "p16"])
def test_guard_redoes_only_close_calls(name, monkeypatch):
    # u on a cumulative sum or its +-1 ulp neighbours is a close call for
    # the float32 screen (cnot2) and for the product search (p9, p16)
    # alike, and is redone; u far from every sum is decided by the fast path.
    engine = EpisodeEngine(get_ansatz(name))
    rng = np.random.default_rng(engine.dim)
    episodes = 2 if name == "p16" else 6
    thetas = rng.normal(size=(episodes, engine.num_params))
    probs = engine.probabilities(thetas)
    sums = np.cumsum(probs, axis=1)
    far = _far_uniforms(sums)
    redone = _spy_on_the_rule(monkeypatch)
    assert engine.sample(thetas, far).tolist() == _cumsum_outcome(probs.T, far).tolist()
    assert sum(redone) == 0
    rows, uniforms = [], []
    for i, row in enumerate(sums):
        row = row[_probed_sums(engine.dim, rng)]
        for u in [*row, *np.nextafter(row, 0.0), *np.nextafter(row, 1.0), far[i]]:
            if 0.0 <= u < 1.0:
                rows.append(i)
                uniforms.append(u)
    uniforms = np.array(uniforms)
    got = engine.sample(thetas[rows], uniforms)
    assert got.tolist() == _cumsum_outcome(probs[rows].T, uniforms).tolist()
    assert 0 < sum(redone) < len(uniforms)


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
    expected = probs * n
    pearson = float(((counts - expected) ** 2 / expected).sum())
    # The chi-square critical value for df = 3 at p = 1e-3.
    assert pearson < 16.266


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


def test_float64_trig_is_within_the_product_premise():
    # The product search takes float64 cos of whole angles, and the rule
    # cos and sin of half angles; the product search's tol assumes both
    # within 4 ulp of the exact value, which long double trig stands for
    # here. The grid holds multiples of pi/2 and their neighbours, and runs
    # sparsely out to 1e9.
    rng = np.random.default_rng(8)
    k = np.arange(-2607, 2608) * (np.pi / 2)
    wide = np.geomspace(2.0**12, 1e9, 20_001)
    grid = np.concatenate([k, np.nextafter(k, np.inf), np.nextafter(k, -np.inf),
                           rng.uniform(-(2.0**12), 2.0**12, 2**18), wide, -wide,
                           [1e8, -1e8, 2e3 * np.pi]])
    exact_grid = grid.astype(np.longdouble)
    for f in (np.cos, np.sin):
        exact = f(exact_grid)
        error = np.abs(f(grid).astype(np.longdouble) - exact)
        excess = error - 4 * np.spacing(np.abs(exact.astype(np.float64)))
        assert (excess <= 0).all(), (f.__name__, grid[np.argmax(excess)])


# Angles whose cos is 0, +-1 or of a huge argument, for the one-cos factors
# of real engines; literal6 has literal and idle RX ops in its prefix.
SPECIAL_ANGLES = [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi,
                  2 * np.pi, -4 * np.pi, 2e3 * np.pi, 1e8]
ONE_COS = {
    "p9": "p9",
    "p16": "p16",
    "idle7": PRODUCT_SEARCHED["idle7"],
    "literal6": (
        "DEFCIRCUIT L6(%a, %b, %c):\n    RX(%a) 0\n    RX(0.3) 1\n    RX(%b) 2\n"
        "    RX(-2.5) 5\n    RX(%c) 3\n    CNOT 0 1\n    CZ 1 2\n    CNOT 2 4\n"
        "    CNOT 3 5\n"
    ),
    "rx1": "rx1",
    "cnot2": "cnot2",
    "p4": "p4",
}


@pytest.mark.parametrize("key", ONE_COS)
def test_one_cos_factors_give_the_rule_index_at_special_angles(key, monkeypatch):
    # The fast paths of real engines form the squares of each half angle's
    # cos and sin as (1 +- cos theta) / 2. At these angles they put zeros
    # and ties among the probabilities; u on the rule's cumulative sums, or
    # 1 or 2 ulp either side, must still get the rule's index.
    engine = EpisodeEngine(_template(ONE_COS[key]))
    assert engine.path == ("screen32" if engine.dim <= 16 else "product")
    rng = np.random.default_rng(engine.dim + 11)
    episodes = 2 if key == "p16" else 12
    thetas = rng.choice(SPECIAL_ANGLES, size=(episodes, engine.num_params))
    thetas[0] = 0.0
    rows, uniforms = [], []
    for i, probs in enumerate(engine.probabilities(thetas)):
        at = np.cumsum(probs)[_probed_sums(engine.dim, rng)]
        us = [at]
        for direction in (0.0, 1.0):
            us.append(np.nextafter(us[0], direction))
            us.append(np.nextafter(us[-1], direction))
        us = np.concatenate(us)
        us = us[(us >= 0.0) & (us < 1.0)]
        rows += [i] * len(us)
        uniforms.append(us)
    thetas, uniforms = thetas[rows], np.concatenate(uniforms)
    redone = _spy_on_the_rule(monkeypatch)
    got = engine.sample(thetas, uniforms)
    assert got.tolist() == _rule_indices(engine, thetas, uniforms).tolist()
    assert sum(redone) > 0


@pytest.mark.parametrize("key", PRODUCT_SEARCHED)
def test_product_search_fills_its_chunk_budget(key, monkeypatch):
    # The product search's chunk is sized from its words per episode. After
    # a sample of three chunks on a cleared workspace, the buffers hold at
    # most CHUNK_BYTES and at least 95% of it: the count is the real peak.
    engine = EpisodeEngine(_template(PRODUCT_SEARCHED[key]))
    thetas, uniforms = _episodes(engine, 2 * engine._sample_chunk + 3, 12)
    redone = _spy_on_the_rule(monkeypatch)
    simulator._workspace.buffers.clear()
    engine.sample(thetas, uniforms)
    assert sum(redone) == 0  # a redo would add the rule's buffers
    words = sum(buffer.size for buffer in simulator._workspace.buffers.values())
    assert 0.95 * simulator.CHUNK_BYTES <= 8 * words <= simulator.CHUNK_BYTES


# One template per sampling path: the float32 screen (cnot2), the product
# search (p9, p16, nontri6) and the blocked search (p9 at two layers).
CHUNKED = {
    "cnot2": ("cnot2", 1),
    "p9": ("p9", 1),
    "p16": ("p16", 1),
    "nontri6": (NONTRI6, 1),
    "p9-l2": ("p9", 2),
}


def _rule_indices(engine, thetas, uniforms):
    """:func:`_cdf_index` on the float64 probabilities, 8 episodes at a time."""
    return np.concatenate([
        simulator._cdf_index(engine.probabilities(thetas[rows]).T, uniforms[rows])
        for rows in engine._chunks(len(thetas), 8)
    ])


def _episodes(engine, count, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, engine.num_params)), rng.random(count)


@pytest.mark.parametrize("key", CHUNKED)
def test_engine_chunking_consistent(key, monkeypatch):
    # Two chunks and a ragged third at the default size, against many
    # smaller chunks with a ragged last one, and against the rule.
    source, layers = CHUNKED[key]
    big = EpisodeEngine(_template(source), layers)
    count = 2 * big._sample_chunk + 3
    monkeypatch.setattr(simulator, "CHUNK_BYTES", 1 << 16)  # forces many chunks
    small = EpisodeEngine(_template(source), layers)
    assert 1 < small._sample_chunk < big._sample_chunk
    assert count % big._sample_chunk and count % small._sample_chunk
    thetas, uniforms = _episodes(big, count, 2)
    expected = _rule_indices(big, thetas, uniforms)
    assert big.sample(thetas, uniforms).tolist() == expected.tolist()
    assert small.sample(thetas, uniforms).tolist() == expected.tolist()
    rows = slice(0, 2 * small.chunk_size + 1)
    assert np.array_equal(
        small.probabilities(thetas[rows]), big.probabilities(thetas[rows])
    )


@pytest.mark.parametrize("key", CHUNKED)
def test_engine_samples_wide_narrow_wide_on_one_thread(key):
    # A wide batch, a narrow one, then the wide one again: every call gets
    # the rule's indices whatever the calls before it left behind.
    source, layers = CHUNKED[key]
    engine = EpisodeEngine(_template(source), layers)
    wide = _episodes(engine, 2 * engine._sample_chunk + 3, 3)
    narrow = _episodes(engine, 3, 4)
    expected = {id(batch): _rule_indices(engine, *batch).tolist() for batch in (wide, narrow)}
    for batch in (wide, narrow, wide):
        assert engine.sample(*batch).tolist() == expected[id(batch)]


def _poison_workspace():
    """Fill every buffer of this thread's workspace with NaN."""
    for buffer in simulator._workspace.buffers.values():
        buffer.fill(np.nan)


@pytest.mark.parametrize("key", CHUNKED)
def test_engine_samples_the_same_from_a_poisoned_workspace(key, monkeypatch):
    # A workspace array read before it is written would hold NaN, or as an
    # index a huge integer: it would move an index, or make a gap NaN and
    # send more episodes to the guard than a clean workspace does.
    source, layers = CHUNKED[key]
    engine = EpisodeEngine(_template(source), layers)
    wide = _episodes(engine, 2 * engine._sample_chunk + 3, 3)
    narrow = _episodes(engine, 3, 4)
    redone = _spy_on_the_rule(monkeypatch)
    for batch in (wide, narrow, wide):
        expected = _rule_indices(engine, *batch).tolist()
        redone.clear()
        assert engine.sample(*batch).tolist() == expected
        clean = sum(redone)
        _poison_workspace()
        redone.clear()
        assert engine.sample(*batch).tolist() == expected
        assert sum(redone) == clean
    assert simulator._workspace.buffers


def test_warm_sample_reuses_its_workspace():
    # A second p9 sample of 3,200 episodes on one thread takes its chunk
    # arrays from the workspace. Allocated afresh, they peak at 1,146 KiB.
    engine = EpisodeEngine(get_ansatz("p9"))
    thetas, uniforms = _episodes(engine, 3200, 5)
    engine.sample(thetas, uniforms)
    tracemalloc.start()
    try:
        engine.sample(thetas, uniforms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 286 * 1024


@pytest.mark.parametrize("name, layers, count, method, bound", [
    ("p9", 1, 64, "probabilities", 400 * 1024),
    ("p4", 2, 4096, "marginals", 1600 * 1024),
    ("p4", 3, 4096, "marginals", 600 * 1024),
])
def test_warm_probabilities_and_marginals_reuse_the_workspace(
        name, layers, count, method, bound):
    # A second call on one thread takes its chunk arrays from the workspace.
    # Allocated afresh, they peak at 844 KiB (p9) and 3,972 KiB (p4 at two
    # layers, whose marginals sum outcome probabilities). At three layers
    # p4's tail gathers twice, and gathers that allocate, or that share one
    # buffer, peak at 1,155 KiB; the workspace's two keep it at 452 KiB.
    engine = EpisodeEngine(get_ansatz(name), layers)
    thetas, _ = _episodes(engine, count, 5)
    call = getattr(engine, method)
    call(thetas)
    tracemalloc.start()
    try:
        call(thetas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_probabilities_and_marginals_are_the_same_from_a_poisoned_workspace():
    # p9 at two layers is complex and has no Pauli rows, so both read
    # every chunk's outcome probabilities from the workspace.
    engine = EpisodeEngine(get_ansatz("p9"), 2)
    assert engine.pauli_rows is None
    for thetas, _ in (_episodes(engine, 2 * engine.chunk_size + 3, 7),
                      _episodes(engine, 3, 8)):
        for method in (engine.probabilities, engine.marginals):
            expected = method(thetas)
            _poison_workspace()
            assert np.array_equal(method(thetas), expected)


@pytest.mark.parametrize("key", CHUNKED)
def test_many_redone_episodes_are_the_same_from_a_poisoned_workspace(
        key, monkeypatch):
    # u on a cumulative sum is a close call, so the guard redoes more than
    # chunk_size episodes, from arrays in the workspace.
    source, layers = CHUNKED[key]
    engine = EpisodeEngine(_template(source), layers)
    count = 2 * engine.chunk_size + 3
    thetas, _ = _episodes(engine, count, 9)
    rng = np.random.default_rng(10)
    sums = np.cumsum(engine.probabilities(thetas), axis=1)
    uniforms = sums[np.arange(count), rng.integers(engine.dim - 1, size=count)]
    uniforms[uniforms >= 1.0] = 0.5
    expected = _rule_indices(engine, thetas, uniforms).tolist()
    redone = _spy_on_the_rule(monkeypatch)
    assert engine.sample(thetas, uniforms).tolist() == expected
    clean = sum(redone)
    assert clean > engine.chunk_size
    _poison_workspace()
    redone.clear()
    assert engine.sample(thetas, uniforms).tolist() == expected
    assert sum(redone) == clean


def test_workspace_buffers_belong_to_one_thread():
    # Each thread views its own buffer under a name; a request past the
    # largest kept buffer gets an array that no buffer holds.
    mine = simulator._workspace.array("test", (4,))
    mine[:] = 1.0
    theirs = []
    worker = threading.Thread(
        target=lambda: theirs.append(simulator._workspace.array("test", (4,))))
    worker.start()
    worker.join()
    assert not np.shares_memory(mine, theirs[0])
    assert np.shares_memory(mine, simulator._workspace.array("test", (2, 2)))
    words = simulator._WORKSPACE_MAX_BYTES // 8 + 1
    big = simulator._workspace.array("test", (words,))
    assert not np.shares_memory(big, simulator._workspace.array("test", (words,)))
    assert simulator._workspace.buffers["test"].size == 4


def test_an_ended_threads_workspace_passes_to_the_next_thread():
    # featurize's pool starts new threads on each call; they find the
    # buffers of the threads that ended, not empty ones.
    def run(target):
        worker = threading.Thread(target=target)
        worker.start()
        worker.join()
        del worker
        gc.collect()

    run(lambda: simulator._workspace.array("handed", (8,)).fill(7.0))
    got = []
    run(lambda: got.append(simulator._workspace.buffers.get("handed")))
    assert got[0] is not None and (got[0] == 7.0).all()
    assert "handed" not in simulator._workspace.buffers  # not this thread's


def test_featurize_and_kernel_buffers_share_no_name_with_the_engines(monkeypatch):
    # featurize holds its thetas and uniforms, and mc_kernel its marginals,
    # in workspace buffers while the engine samples or sums into its own: a
    # name used by both would overwrite the caller's array mid-call. One
    # engine per path, each sampled, with probabilities and marginals.
    names, array = {}, simulator._Workspace.array

    def spy(self, name, shape, dtype=np.float64):
        names.setdefault(sys._getframe(1).f_globals["__name__"], set()).add(name)
        return array(self, name, shape, dtype)

    monkeypatch.setattr(simulator._Workspace, "array", spy)
    paths = set()
    for name, layers in (("cnot2", 1), ("cz2", 1), ("p9", 1), ("p9", 2)):
        q = get_ansatz(name).num_params
        machine = sample_machine(get_ansatz(name), EncodingStructure.split(q), 1.0,
                                 40, seed=11, layers=layers)
        x = np.random.default_rng(12).normal(size=(6, q))
        featurize(machine, x)
        mc_kernel(machine, x[0], x[1])
        engine = cached_engine(machine.template, layers)
        paths.add(engine.path)
        thetas, uniforms = _episodes(engine, 50, 13)
        engine.sample(thetas, uniforms)
        engine.probabilities(thetas)
        engine.marginals(thetas)
    assert paths == {"screen32", "product", "blocked"}
    library = names["qks.features"] | names["qks.kernels"]
    assert {"thetas", "uniforms", "marginals_u"} <= library
    assert not library & names["qks.simulator"], library & names["qks.simulator"]


def test_run_blocks_returns_results_in_block_order_on_the_calling_thread_too():
    # Slow blocks on three workers: the calling thread takes some of them.
    seen = []

    def run(start):
        seen.append(threading.get_ident())
        time.sleep(0.01)
        return start * start

    starts = range(0, 18, 3)
    assert simulator._run_blocks(run, starts, 3) == [s * s for s in starts]
    assert threading.get_ident() in seen and 1 < len(set(seen)) <= 3
    assert simulator._run_blocks(run, [], 3) == []


def test_run_blocks_raises_the_first_failing_blocks_exception():
    # Block 4 fails at once, block 1 later: block 1's exception is raised.
    # After a failure, each other thread finishes at most the one block it
    # was taking, so of three threads none reaches block 7.
    taken = []

    def run(start):
        taken.append(start)
        if start in (0, 1):
            time.sleep(0.05)
        if start in (1, 4):
            raise ValueError(f"block {start}")
        return start

    with pytest.raises(ValueError, match="^block 1$"):
        simulator._run_blocks(run, range(8), 3)
    assert {0, 1} <= set(taken) and 7 not in taken


@pytest.mark.parametrize("count, workers", [(5, 1), (1, 4)])
def test_run_blocks_starts_no_pool_for_one_worker_or_one_block(
        monkeypatch, count, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", no_pool)
    threads = set()

    def run(start):
        threads.add(threading.get_ident())
        if start == count - 1:
            raise KeyError(start)
        return -start

    with pytest.raises(KeyError):
        simulator._run_blocks(run, range(count), workers)
    assert threads == {threading.get_ident()}
    assert simulator._run_blocks(lambda s: -s, range(count), workers) == [
        -s for s in range(count)]


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
    with pytest.raises(ValueError, match="shape"):
        engine.marginals(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="uniform"):
        engine.sample(np.zeros((4, 2)), np.zeros(3))
    for layers in (2.0, True, np.float64(2)):
        with pytest.raises(ValueError, match="layers must be an integer"):
            EpisodeEngine(get_ansatz("cnot2"), layers=layers)
    assert EpisodeEngine(get_ansatz("cnot2"), layers=np.int64(2)).num_params == 4


def test_engine_and_exact_probabilities_reject_bad_shapes():
    t = get_ansatz("cnot2")
    for layers in (0, -1):
        with pytest.raises(ValueError, match="layers must be >= 1"):
            EpisodeEngine(t, layers=layers)
    with pytest.raises(ValueError, match=r"^theta must be 1-D of shape \(2,\)"):
        exact_probabilities(t, [[0.1, 0.2]])
    rng = np.random.default_rng(0)
    for theta in ([0.1], [[0.1, 0.2]], 0.1):
        with pytest.raises(ValueError, match="shape"):
            run_episode(t, theta, rng)


def test_single_state_helpers_name_theta():
    # A 3-entry theta for p9 was reported as a (1, 3) batch of thetas.
    t = get_ansatz("p9")
    for bad in (np.zeros(3), np.zeros(10), np.zeros((1, 9)), 0.5):
        with pytest.raises(ValueError, match=r"^theta must be 1-D of shape \(9,\)"):
            exact_probabilities(t, bad)
        with pytest.raises(ValueError, match=r"^theta must be 1-D of shape \(9,\)"):
            run_episode(t, bad, np.random.default_rng(0))
    assert exact_probabilities(t, np.zeros(9))[0] == 1.0
    assert run_episode(t, np.zeros(9), np.random.default_rng(0)).bits == 0


def test_engine_rejects_non_finite_thetas_and_out_of_range_uniforms():
    engine = EpisodeEngine(get_ansatz("cnot2"))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            engine.sample([[bad, 0.0]], [0.5])
        with pytest.raises(ValueError, match="finite"):
            engine.probabilities([[0.0, bad]])
        with pytest.raises(ValueError, match="finite"):
            engine.marginals([[bad, 0.0]])
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


@pytest.mark.parametrize("key", ["cnot2", "p4", "p9", "p16", *TEMPLATES])
def test_product_path_matches_dense_kernels_bit_for_bit(key):
    # The engine builds the opening RX layer as a product state, multiplying
    # the factors in op order as RX kernels applied gate by gate from |0...0>
    # do: equal floats, equal bits, whatever the qubit order of the layer,
    # with literal angles and with qubits the layer leaves idle.
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


def _oracle(t, layers, theta):
    """The kron oracle's outcome probabilities of ``layers`` layers of t."""
    p = t.num_params
    gates = []
    for layer in range(layers):
        gates += template_to_oracle_gates(t, theta[layer * p : (layer + 1) * p])
    return oracle_probabilities(gates, t.num_qubits)


def _oracle_marginals(t, layers, theta):
    """P(bit j = 1) from the kron oracle's probabilities, one episode."""
    return _oracle(t, layers, theta) @ bit_matrix(t.num_qubits)


def _assert_marginals_match_oracle(t, layers, rows, seed):
    engine = cached_engine(t, layers)
    thetas = np.random.default_rng(seed).uniform(-7, 7, (rows, engine.num_params))
    mine = engine.marginals(thetas)
    assert mine.shape == (rows, t.num_qubits)
    for theta, row in zip(thetas, mine):
        assert np.abs(row - _oracle_marginals(t, layers, theta)).max() <= 1e-14
    return engine


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("name", ["rx1", "cnot2", "cz2", "p4", "p9", "p16", "mixed3"])
def test_marginals_against_kron_oracle(name, layers):
    # One layer of a built-in is an RX product state under H, CNOT and CZ
    # only, so its marginals come from one Pauli string per qubit; a second
    # layer, or mixed3's RX after the entanglers, sums outcome probabilities.
    t = parse_template(MIXED3) if name == "mixed3" else get_ansatz(name)
    rows = 2 if name == "p16" else 10
    engine = _assert_marginals_match_oracle(t, layers, rows, seed=41)
    assert (engine.pauli_rows is not None) == (layers == 1 and name != "mixed3")


@pytest.mark.parametrize("name", ["p4", "p9"])
def test_tails_with_two_permutations_against_kron_oracle(name):
    # The second permutation of a three-layer tail gathers from the first
    # one's workspace buffer into the other.
    engine = _assert_marginals_match_oracle(get_ansatz(name), 3, 10, seed=43)
    assert sum(op.kind is None and op.source is not None for op in engine._rest) == 2


def test_single_state_results_own_their_amplitudes():
    # A permutation gathers into the thread's workspace, which a later
    # engine call overwrites; run_circuit and apply_gate copy out of it.
    engine = EpisodeEngine(get_ansatz("p4"), layers=2)
    thetas = np.random.default_rng(44).uniform(-7, 7, (64, engine.num_params))
    engine.marginals(thetas)  # the gather buffers now hold 64 episodes
    gates = [GateOp(GateKind.RX, (q,), 0.3 + q) for q in range(4)]
    state = run_circuit(gates + [GateOp(GateKind.CNOT, (0, 1))], 4)
    step = apply_gate(state, GateOp(GateKind.CNOT, (1, 2)))
    before = state.amplitudes.copy(), step.amplitudes.copy()
    engine.marginals(thetas)
    assert np.array_equal(state.amplitudes, before[0])
    assert np.array_equal(step.amplitudes, before[1])


def test_marginals_of_random_clifford_templates_against_kron_oracle():
    # H, CNOT and CZ are real, so C^dagger Z_j C holds an even number of Y
    # factors, and any X factor zeroes it: about one template in twenty has
    # a Y on a parameterized RX.
    rng = np.random.default_rng(42)
    idle = literal = y_factor = 0
    for _ in range(400):
        t = random_clifford_template(rng)
        engine = _assert_marginals_match_oracle(t, 1, 3, int(rng.integers(2**32)))
        assert engine.pauli_rows is not None
        rx = [g for g in t.gates if g.kind is GateKind.RX]
        idle += len(rx) < t.num_qubits
        literal += any(not isinstance(g.angle, ParamRef) for g in rx)
        y_factor += any(y for _, fs in engine.pauli_rows for y, _ in fs)
    assert min(idle, literal, y_factor) >= 10, (idle, literal, y_factor)


# The shapes of the differential test below: (random_clifford_template
# keywords, layers). Tails of H, CNOT and CZ; of CNOT and CZ only, which
# past 16 outcomes the product search takes; an RX after the entanglers;
# and two layers of the first.
RANDOM_SHAPES = [
    (dict(widths=(1, 10)), 1),
    (dict(widths=(1, 10), kinds="CNOT CZ"), 1),
    (dict(widths=(1, 10), tail_rx=True), 1),
    (dict(widths=(1, 8)), 2),
]


def _predicted_path(t, layers):
    """The sampling path for ``layers`` layers of t: the float32 screen up to
    16 outcomes; past that, the product search when only CNOT and CZ follow
    the opening layer of RX gates on distinct qubits, else the blocked one."""
    if t.num_qubits <= 4:
        return "screen32"
    gates, opened = t.gates * layers, set()
    while gates and gates[0].kind is GateKind.RX and gates[0].qubits not in opened:
        opened.add(gates[0].qubits)
        gates = gates[1:]
    real = all(g.kind in (GateKind.CNOT, GateKind.CZ) for g in gates)
    return "product" if real else "blocked"


def test_random_templates_sample_the_rule_index():
    # For each template, the path is the one predicted, the probabilities
    # match the kron oracle, and sample gives the rule's index on them with
    # u on cumulative sums (at most 24 an episode), their +-1 ulp
    # neighbours, and at random.
    rng = np.random.default_rng(2718)
    paths = set()
    for i in range(96):
        kwargs, layers = RANDOM_SHAPES[i % len(RANDOM_SHAPES)]
        t = random_clifford_template(rng, **kwargs)
        engine = EpisodeEngine(t, layers)
        assert engine.path == _predicted_path(t, layers)
        paths.add((engine.path, i % len(RANDOM_SHAPES)))
        thetas = rng.uniform(-7, 7, (3, engine.num_params))
        probs = engine.probabilities(thetas)
        for theta, row in zip(thetas, probs):
            assert np.abs(row - _oracle(t, layers, theta)).max() <= 1e-14
        rows, uniforms = [], []
        for j, sums in enumerate(np.cumsum(probs, axis=1)):
            at = sums[rng.choice(engine.dim, min(engine.dim, 24), replace=False)]
            us = np.concatenate([at, np.nextafter(at, 0.0), np.nextafter(at, 1.0),
                                 rng.random(8)])
            us = us[(us >= 0.0) & (us < 1.0)]
            rows += [j] * len(us)
            uniforms.append(us)
        uniforms = np.concatenate(uniforms)
        expected = simulator._cdf_index(probs[rows].T, uniforms)
        assert engine.sample(thetas[rows], uniforms).tolist() == expected.tolist()
    # Each shape reaches the screen and a wide path: the product search
    # for permutation tails, the blocked one for RX tails and two layers.
    wide = {("product", 0), ("blocked", 0), ("product", 1), ("blocked", 2), ("blocked", 3)}
    assert paths >= wide | {("screen32", k) for k in range(4)}, sorted(paths)
