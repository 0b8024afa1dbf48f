"""Kernel machinery: bit matrix, exact inner products, Monte Carlo vs closed form."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from qks import (
    EncodingStructure,
    bit_matrix,
    closed_form_cnot2,
    closed_form_kernel,
    exact_probabilities,
    expected_inner,
    get_ansatz,
    ansatz_source,
    mc_kernel,
    parse_template,
    sample_machine,
)
from qks.quil import CircuitTemplate
from qks.simulator import EpisodeEngine, cached_engine
from conftest import (
    MIXED3,
    oracle_probabilities,
    random_clifford_template,
    template_to_oracle_gates,
)


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
    for short in ([], [1.0], np.ones(3) / 3, np.ones(6) / 6):
        with pytest.raises(ValueError, match="power-of-two length >= 2"):
            expected_inner(short, short)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            expected_inner([bad, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            expected_inner([0.5, 0.5], [0.5, bad])
    assert expected_inner([0.0, 1.0], [0.0, 1.0]) == 1.0


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


def test_p16_mc_kernel_matches_oracle_average():
    t = get_ansatz("p16")
    m = sample_machine(t, EncodingStructure.split(16), 1.0, 3, seed=9)
    u, v = np.random.default_rng(10).normal(size=(2, 16))

    def probs(x, e):
        return oracle_probabilities(template_to_oracle_gates(t, m.encode(x, e)), 16)

    vals = np.array([expected_inner(probs(u, e), probs(v, e)) for e in range(3)])
    est = mc_kernel(m, u, v)
    assert est.value == pytest.approx(vals.mean(), abs=1e-12)
    assert est.stderr == pytest.approx(vals.std(ddof=1) / np.sqrt(3), abs=1e-12)


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


@pytest.mark.parametrize("name, layers, width", [
    ("cnot2", 1, 2),  # Pauli strings
    ("cz2", 1, 2),  # constant rows
    ("p4", 2, 4),  # outcome probabilities against the bit matrix
])
def test_mc_kernel_is_the_same_for_any_thread_count(monkeypatch, name, layers, width):
    from qks import kernels

    episodes = 2_000
    m = sample_machine(get_ansatz(name), EncodingStructure.split(width), 1.3,
                       episodes, seed=31, layers=layers)
    u, v = np.random.default_rng(32).normal(size=(2, width))
    runs, threads = [], set()
    marginals, run_blocks = EpisodeEngine._marginals, kernels._run_blocks

    def runner(run, starts, workers):
        runs.append((len(starts), workers))
        return run_blocks(run, starts, workers)

    def spy(self, thetas, out):
        threads.add(threading.get_ident())
        return marginals(self, thetas, out)

    monkeypatch.setattr(kernels, "_run_blocks", runner)
    monkeypatch.setattr(EpisodeEngine, "_marginals", spy)
    for block in (7, 1000, episodes, 3 * episodes):
        monkeypatch.setattr(kernels, "KERNEL_BLOCK", block)
        blocks = -(-episodes // block)
        results = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "_allowed_cpus", lambda: workers)
            runs.clear()
            threads.clear()
            est = mc_kernel(m, u, v)
            results.add((est.value, est.stderr))
            if name == "cz2":
                # Constant rows: no blocks, and marginals are never computed.
                assert runs == [] and threads == set()
                continue
            assert runs == [(blocks, workers)]
            assert 1 <= len(threads) <= min(workers, blocks)
        assert len(results) == 1, (block, results)


def test_warm_mc_kernel_allocates_only_the_encode_and_the_values():
    # A warm cnot2 call at E = 1e5 allocates the (2, E, 2) encode (3.05 MiB)
    # and the E per-episode values (0.76 MiB); each block's trig, products
    # and marginals are in its thread's workspace. Gathered trig columns and
    # one temporary per factor, on a fresh pool each call, peaked at 6.0 MiB.
    m = sample_machine(get_ansatz("cnot2"), EncodingStructure.split(2), 1.0,
                       100_000, seed=35)
    u, v = np.random.default_rng(36).normal(size=(2, 2))
    mc_kernel(m, u, v)
    tracemalloc.start()
    try:
        mc_kernel(m, u, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2**20


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
    # sigma^2 overflows, but the self-kernel does not depend on sigma
    for sigma in (1e200, np.float64(1e200)):
        assert closed_form_cnot2(u, u, sigma) == 11 / 16
    # u - v overflows: the Gaussian terms vanish unless sigma is 0
    far, near = np.array([1e308, 0.3]), np.array([-1e308, 0.3])
    assert closed_form_cnot2(far, near, 1.0) == 0.5
    assert closed_form_cnot2(far, near, 0.0) == 11 / 16


def test_cz2_constant_kernel():
    t = get_ansatz("cz2")
    m = sample_machine(t, EncodingStructure.split(2), 1.0, 5_000, seed=14)
    rng = np.random.default_rng(15)
    for _ in range(3):
        u, v = rng.normal(size=(2, 2))
        est = mc_kernel(m, u, v)
        # Each qubit's Z, pulled back through H, H and CZ, carries an X
        # factor, so both marginals are exactly 1/2 in every episode.
        assert (est.value, est.stderr) == (0.5, 0.0)
        assert closed_form_kernel(t, m.structure, u, v, 1.0) == 0.5


LIT3 = """DEFCIRCUIT LIT3:
    RX(0.3) 0
    RX(0.7) 1
    RX(1.1) 2
    CNOT 0 1
    CNOT 1 2
"""


def _reference_kernel(machine, u, v):
    """mc_kernel's (value, stderr) from the marginals of the whole encode."""
    engine = cached_engine(machine.template, machine.layers)
    theta = machine.encode_batch(np.stack([u, v]))
    vals = np.einsum(
        "ej,ej->e", engine.marginals(theta[0]), engine.marginals(theta[1])
    )
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


@pytest.mark.parametrize("template, structure", [
    (get_ansatz("cz2"), EncodingStructure.split(2)),
    (CircuitTemplate("ID", (), (), 1), EncodingStructure(2, ())),
    # Literal angles only: constant rows that are not dyadic, so the order
    # of the einsum's and the mean's sums shows in the last bits.
    (parse_template(LIT3), EncodingStructure(2, ())),
])
def test_constant_rows_kernel_equals_the_reference(monkeypatch, template, structure):
    from qks import kernels

    rows = cached_engine(template).pauli_rows
    assert rows is not None and not any(factors for _, factors in rows)
    rng = np.random.default_rng(33)
    for episodes in (1, 2, 5_000):
        m = sample_machine(template, structure, 1.7, episodes, seed=34)
        u, v = rng.normal(size=(2, 2))
        est = mc_kernel(m, u, v)
        assert est.episodes_used == episodes
        if episodes > 1:
            assert (est.value, est.stderr) == _reference_kernel(m, u, v)
        # The same values through the per-episode pipeline.
        monkeypatch.setattr(kernels, "_encodes_finitely", lambda *args: False)
        assert mc_kernel(m, u, v) == est
        monkeypatch.undo()
    if template.name == "LIT3":
        assert est.stderr > 0.0  # the sums of a non-dyadic value round


def test_kernel_inputs_must_be_real_numbers():
    cnot2, split2 = get_ansatz("cnot2"), EncodingStructure.split(2)
    m = sample_machine(cnot2, split2, 1.0, 20, 3)
    kernels = (
        lambda u, v: mc_kernel(m, u, v),
        lambda u, v: closed_form_kernel(cnot2, split2, u, v, 1.0),
    )
    for kernel in kernels:
        for bad in (["1", "2"], [1j, 0], [None, 0.0], np.array([1, 2], dtype=object)):
            with pytest.raises(ValueError, match="^u must be real numbers"):
                kernel(bad, [0.0, 0.0])
            with pytest.raises(ValueError, match="^v must be real numbers"):
                kernel([0.0, 0.0], bad)
        # bools, ints and float32 are taken as the floats they hold
        assert kernel([True, 0], np.array([2, 1], dtype=np.uint8)) == kernel(
            [1.0, 0.0], np.array([2.0, 1.0], dtype=np.float32)
        )


def test_cz2_marginals_are_unbiased():
    t = get_ansatz("cz2")
    b = bit_matrix(2)
    rng = np.random.default_rng(16)
    for _ in range(25):
        theta = rng.uniform(-3 * np.pi, 3 * np.pi, 2)
        marg = exact_probabilities(t, theta) @ b
        assert np.abs(marg - 0.5).max() < 1e-12


def _first_tile_and_rest(tile, p: int) -> EncodingStructure:
    """cnot2's structure with ``tile`` feeding the control's rotation."""
    rest = sorted(set(range(p)).difference(np.asarray(tile).tolist()))
    return EncodingStructure.from_tiles([tile, rest], p)


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
    # a tiling of higher-dimensional inputs
    cnot2 = get_ansatz("cnot2")
    u4 = np.array([0.1, 0.2, 0.3, 0.4])
    v4 = np.array([0.0, 0.1, -0.2, 0.6])
    k = closed_form_kernel(cnot2, _first_tile_and_rest([0, 1], 4), u4, v4, 1.5)
    d1 = u4[:2] - v4[:2]
    d = u4 - v4
    manual = (
        0.5
        + 0.125 * np.exp(-0.5 * 1.5**2 * d1 @ d1)
        + 0.0625 * np.exp(-0.5 * 1.5**2 * d @ d)
    )
    assert k == pytest.approx(manual, abs=1e-15)
    # closed_form_cnot2 is the 2-D split case only
    for a, b, name in ((u4, v4, "u"), (u, v4, "v")):
        with pytest.raises(ValueError, match=rf"^{name} must be 1-D of shape \(2,\)"):
            closed_form_cnot2(a, b, 1.0)
    with pytest.raises(ValueError, match="sigma"):
        closed_form_cnot2(u, v, -1.0)
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma"):
            closed_form_cnot2(u, u, sigma)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^u must be finite"):
            closed_form_cnot2(np.array([bad, 0.0]), v, 1.0)
        with pytest.raises(ValueError, match="^v must be finite"):
            closed_form_cnot2(u, np.array([0.0, bad]), 1.0)
    u2, v2 = np.array([0.1, 0.2]), np.array([0.3, 0.2])
    assert closed_form_kernel(
        cnot2, _first_tile_and_rest([0], 2), u2, v2, 1.0
    ) == closed_form_cnot2(u2, v2, 1.0)


@pytest.mark.parametrize("name,structure,seed", [
    ("rx1", EncodingStructure.dense(3), 21),
    ("p4", EncodingStructure.tiled(8, 4), 22),
    ("p9", EncodingStructure.split(9), 23),
    ("p16", EncodingStructure.split(16), 24),
    # Rows that share coordinates still draw their own weights.
    ("p4", EncodingStructure.from_mask(
        [[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]), 29),
])
def test_closed_form_kernel_matches_mc_kernel(name, structure, seed):
    t = get_ansatz(name)
    m = sample_machine(t, structure, 0.8, 20_000, seed)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        u, v = rng.normal(size=(2, structure.p))
        est = mc_kernel(m, u, v)
        assert abs(est.value - closed_form_kernel(t, structure, u, v, 0.8)) <= (
            4 * est.stderr
        )


def test_closed_form_kernel_against_marginals_from_outcome_probabilities():
    # A trailing RX(0) leaves p4's circuit as it was but takes away its
    # Pauli strings, so mc_kernel sums outcome probabilities instead.
    source = ansatz_source("p4").rstrip("\n") + "\n    RX(0) 3\n"
    padded = parse_template(source)
    structure = EncodingStructure.split(4)
    m = sample_machine(padded, structure, 1.2, 20_000, seed=25)
    rng = np.random.default_rng(26)
    for _ in range(3):
        u, v = rng.normal(size=(2, 4))
        est = mc_kernel(m, u, v)
        cf = closed_form_kernel(get_ansatz("p4"), structure, u, v, 1.2)
        assert abs(est.value - cf) <= 4 * est.stderr


def test_closed_form_kernel_of_random_clifford_templates():
    # Literal angles fold into c_j, qubits left idle or reading only literal
    # angles have strings without parameters, and Y factors read sin. The
    # structure leaves the last input coordinate unused.
    rng = np.random.default_rng(28)
    for _ in range(60):
        t = random_clifford_template(rng)
        q = t.num_params
        structure = EncodingStructure.from_mask(np.eye(q, q + 1, dtype=bool))
        m = sample_machine(t, structure, 1.0, 4_000, int(rng.integers(2**32)))
        u, v = rng.normal(size=(2, q + 1))
        est = mc_kernel(m, u, v)
        cf = closed_form_kernel(t, structure, u, v, 1.0)
        assert abs(est.value - cf) <= 4 * est.stderr + 1e-12


def _cnot2_formula(u, v, sigma, first_tile):
    """The cnot2 closed form as written out in the kernels module docstring."""
    d = np.asarray(u, dtype=np.float64) - np.asarray(v, dtype=np.float64)
    d1 = d[first_tile]
    return (
        0.5
        + 0.125 * np.exp(-0.5 * sigma**2 * (d1 @ d1))
        + 0.0625 * np.exp(-0.5 * sigma**2 * (d @ d))
    )


def test_cnot2_closed_form_is_the_general_one():
    rng = np.random.default_rng(27)
    t = get_ansatz("cnot2")
    for trial in range(300):
        p = (2, 4, 8)[trial % 3]
        u, v = rng.normal(size=(2, p))
        sigma = float(rng.uniform(0.0, 3.0))
        tile = np.sort(rng.choice(p, size=rng.integers(1, p), replace=False))
        k = closed_form_kernel(t, _first_tile_and_rest(tile, p), u, v, sigma)
        assert abs(k - _cnot2_formula(u, v, sigma, tile)) <= 2 * np.spacing(k)
        if p == 2:
            # Swapping the coordinates moves the control's input to 0.
            order = [tile[0], 1 - tile[0]]
            assert closed_form_cnot2(u[order], v[order], sigma) == k


def test_closed_form_kernel_needs_a_product_of_pauli_strings():
    u, v = np.array([0.3]), np.array([-0.8])
    shared = parse_template(
        "DEFCIRCUIT SHARED(%a):\n    RX(%a) 0\n    RX(%a) 1\n    CNOT 0 1\n"
    )
    # Qubit 1 reads cos(a)^2, whose average is no product of averages.
    with pytest.raises(ValueError, match="'SHARED'.*one parameter twice"):
        closed_form_kernel(shared, EncodingStructure.split(1), u, v, 1.0)
    cnot2 = get_ansatz("cnot2")
    two_layers = CircuitTemplate(
        "CNOT2X2", cnot2.params, cnot2.gates * 2, cnot2.num_qubits
    )
    split2 = EncodingStructure.split(2)
    with pytest.raises(ValueError, match="'CNOT2X2'.*Pauli strings"):
        closed_form_kernel(two_layers, split2, [0.1, 0.2], [0.3, 0.4], 1.0)
    mixed = parse_template(MIXED3)
    with pytest.raises(ValueError, match="'MIXED3'.*Pauli strings"):
        closed_form_kernel(mixed, EncodingStructure.split(3), np.zeros(3),
                           np.ones(3), 1.0)
    with pytest.raises(ValueError, match="q=2 parameters"):
        closed_form_kernel(get_ansatz("p4"), split2, u, v, 1.0)
    with pytest.raises(ValueError, match=r"^v must be 1-D of shape \(2,\), got"):
        closed_form_kernel(cnot2, split2, [0.1, 0.2], v, 1.0)
    with pytest.raises(ValueError, match="^u must be finite"):
        closed_form_kernel(cnot2, split2, [np.nan, 0.2], [0.1, 0.2], 1.0)
    with pytest.raises(ValueError, match="sigma"):
        closed_form_kernel(cnot2, split2, [0.1, 0.2], [0.1, 0.2], -1.0)
    # The machine spec is checked as sample_machine checks it, before u and v.
    p4 = get_ansatz("p4")
    for structure, sigma in ((split2, 1.0), (EncodingStructure.split(4), -1.0)):
        with pytest.raises(ValueError) as machine_error:
            sample_machine(p4, structure, sigma, 4, 0)
        with pytest.raises(ValueError) as kernel_error:
            closed_form_kernel(p4, structure, u, v, sigma)
        assert str(kernel_error.value) == str(machine_error.value)


def test_identity_machine_kernel_is_zero():
    ident = CircuitTemplate("ID", (), (), 1)
    structure = EncodingStructure(2, ())
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


def test_mc_kernel_rejects_inputs_of_the_wrong_size():
    machine = sample_machine(
        get_ansatz("cnot2"), EncodingStructure.split(2), 1.0, 20, 3
    )
    # u and v are vectors, as every input row is elsewhere: p entries in
    # another shape are not reshaped.
    for u, v, name, got in (
        ([0.1, 0.2, 0.3], [0.1, 0.2], "u", r"\(3,\)"),
        ([0.1, 0.2], [0.1], "v", r"\(1,\)"),
        ([[0.1, 0.2]], [0.3, 0.4], "u", r"\(1, 2\)"),
        ([0.1, 0.2], [[0.3], [0.4]], "v", r"\(2, 1\)"),
    ):
        pattern = rf"^{name} must be 1-D of shape \(2,\), got shape {got}$"
        with pytest.raises(ValueError, match=pattern):
            mc_kernel(machine, u, v)


def test_omega_bound_is_scanned_once_per_machine(monkeypatch):
    # _encodes_finitely reads max|omega| from the machine, which scans omega
    # on first use only; the estimates are the same bits as before the
    # first scan, and an oversized input still raises.
    from qks import encoding

    split2, u, v = EncodingStructure.split(2), [0.3, -1.2], [0.7, 0.1]
    before = [mc_kernel(sample_machine(get_ansatz("cz2"), split2, s, 500, 5), u, v)
              for s in (1.0, 100.0)]
    scans, max_abs = [], encoding._max_abs

    def spy(a):
        scans.append(a.shape)
        return max_abs(a)

    monkeypatch.setattr(encoding, "_max_abs", spy)
    for k, sigma in enumerate((1.0, 100.0)):
        machine = sample_machine(get_ansatz("cz2"), split2, sigma, 500, 5)
        for _ in range(3):
            assert mc_kernel(machine, u, v) == before[k]
        assert scans == [machine.omega.shape] * (k + 1)
        assert machine.max_abs_omega == np.abs(machine.omega).max()
        with pytest.raises(ValueError, match="^u: .*not finite"):
            mc_kernel(machine, [1e308, 1e308], v)
    assert len(scans) == 2


def test_mc_kernel_names_the_input_whose_encoding_overflows():
    from qks import kernels

    split2, huge = EncodingStructure.split(2), [1e308, 1e308]
    big = np.array([1e306, 0.0])
    # cnot2 always encodes; cz2 encodes only past its bound on the inputs.
    for name in ("cnot2", "cz2"):
        t = get_ansatz(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            machine = sample_machine(t, split2, 100.0, 20, 3)
            with pytest.raises(ValueError, match="^u: .*sigma 100"):
                mc_kernel(machine, huge, [0.0, 0.0])
            with pytest.raises(ValueError, match="^v: .*sigma 100"):
                mc_kernel(machine, [0.0, 0.0], huge)
            # ||u||_1 alone is far from overflow; sigma times it is not.
            machine = sample_machine(t, split2, 1e10, 20, 3)
            with pytest.raises(ValueError, match="^u: .*sigma 1e\\+10"):
                mc_kernel(machine, [1e300, 0.0], [0.0, 0.0])
            # Past the bound on max|omega| * ||u||_1, yet the encode is finite.
            machine = sample_machine(t, split2, 1.0, 20, 3)
            assert not kernels._encodes_finitely(machine, big, np.zeros(2))
            estimates = [mc_kernel(machine, big, [0.0, 0.0])]
            # sigma 0: a norm that overflows fails the bound; theta is beta.
            machine = sample_machine(t, split2, 0.0, 20, 3)
            estimates.append(mc_kernel(machine, huge, huge))
        for est in estimates:
            assert np.isfinite(est.value)
            if name == "cz2":
                assert (est.value, est.stderr) == (0.5, 0.0)


def test_single_episode_stderr():
    t = get_ansatz("cnot2")
    m = sample_machine(t, EncodingStructure.split(2), 1.0, 1, seed=18)
    est = mc_kernel(m, np.zeros(2), np.ones(2))
    assert est.episodes_used == 1
    assert est.stderr == 0.0
    assert np.isfinite(est.value)
