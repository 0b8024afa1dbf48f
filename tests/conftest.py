"""Shared fixtures: MNIST data discovery, test templates and a kron-based oracle."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from qks.quil import CircuitTemplate, GateKind, GateOp, ParamRef

MNIST_ENV = "QKS_MNIST_DIR"
_MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def find_mnist_dir() -> Path | None:
    """Directory holding the four IDX files (raw or .gz), if any."""
    candidates = []
    if os.environ.get(MNIST_ENV):
        candidates.append(Path(os.environ[MNIST_ENV]))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    for base in candidates:
        if all(
            (base / f).exists() or (base / (f + ".gz")).exists()
            for f in _MNIST_FILES
        ):
            return base
    return None


@pytest.fixture(scope="session")
def mnist_dir() -> Path:
    base = find_mnist_dir()
    if base is None:
        pytest.skip(
            "MNIST IDX files not found; place them under data/mnist/ or set "
            f"{MNIST_ENV} (files: {', '.join(_MNIST_FILES)}, .gz accepted)"
        )
    return base


# A user template whose CZ signs land after CNOTs have moved basis states, with
# H before the entanglers and an RX after them.
MIXED3 = (
    "DEFCIRCUIT MIXED3(%a, %b, %c):\n"
    "    RX(%a) 0\n    RX(%b) 1\n    H 2\n    CNOT 0 2\n    CZ 2 1\n"
    "    CNOT 1 0\n    CZ 0 2\n    RX(%c) 1\n    H 0\n"
)

# 64 outcomes from an RX layer in scrambled qubit order, with a literal
# angle and an idle qubit (3), then one run of CNOTs whose matrix is not
# triangular (CNOT 5 2 and CNOT 4 0 point both ways), with a CZ inside.
NONTRI6 = (
    "DEFCIRCUIT NONTRI6(%a, %b, %c, %d):\n"
    "    RX(%a) 0\n    RX(%b) 5\n    RX(0.7) 2\n    RX(%c) 4\n    RX(%d) 1\n"
    "    CNOT 5 2\n    CNOT 4 0\n    CNOT 0 3\n    CZ 1 3\n    CNOT 3 5\n"
    "    CNOT 2 1\n    CNOT 1 3\n"
)


def random_clifford_template(rng, widths=(2, 5), kinds="H CNOT CZ", tail_rx=False):
    """RX on some of ``widths`` qubits in random order, then up to 12 gates.

    The gates after the RX layer are drawn from ``kinds`` (names of H, CNOT
    and CZ; on one qubit only H); with ``tail_rx``, one more RX on a random
    qubit follows them. About a third of the RX angles are literal; qubits
    without an RX idle.
    """
    n = int(rng.integers(widths[0], widths[1] + 1))
    params, gates = [], []

    def rx(q):
        if rng.random() < 0.3:
            angle = float(rng.uniform(-7, 7))
        else:
            params.append(f"t{len(params)}")
            angle = ParamRef(params[-1])
        gates.append(GateOp(GateKind.RX, (int(q),), angle))

    for q in rng.permutation(n)[: rng.integers(1, n + 1)]:
        rx(q)
    kinds = [k for k in map(GateKind, kinds.split()) if k.num_qubits <= n]
    for _ in range(rng.integers(0, 13) if kinds else 0):
        kind = kinds[rng.integers(len(kinds))]
        qubits = rng.choice(n, size=kind.num_qubits, replace=False)
        gates.append(GateOp(kind, tuple(int(q) for q in qubits)))
    if tail_rx:
        rx(rng.integers(n))
    return CircuitTemplate("R", tuple(params), tuple(gates), n)


# ---------------------------------------------------------------------------
# Independent brute-force simulator: applies 2x2 / 4x4 unitaries through
# explicit basis-index masks, sharing no code with the package's engine.


def _apply_single(u: np.ndarray, qubit: int, psi: np.ndarray) -> np.ndarray:
    z = np.arange(len(psi))
    lo = z[(z >> qubit) & 1 == 0]
    hi = lo | (1 << qubit)
    out = np.empty_like(psi)
    out[lo] = u[0, 0] * psi[lo] + u[0, 1] * psi[hi]
    out[hi] = u[1, 0] * psi[lo] + u[1, 1] * psi[hi]
    return out


def _apply_pair(u4: np.ndarray, qa: int, qb: int, psi: np.ndarray) -> np.ndarray:
    """u4 indexed by (bit of qa) << 1 | (bit of qb)."""
    z = np.arange(len(psi))
    base = z[((z >> qa) & 1 == 0) & ((z >> qb) & 1 == 0)]
    slots = [base | (a << qa) | (b << qb) for a in range(2) for b in range(2)]
    out = np.empty_like(psi)
    for row in range(4):
        acc = u4[row, 0] * psi[slots[0]]
        for col in range(1, 4):
            acc = acc + u4[row, col] * psi[slots[col]]
        out[slots[row]] = acc
    return out


def oracle_probabilities(gates, n: int) -> np.ndarray:
    """gates: iterable of (name, qubits, angle-or-None). Returns |psi|^2."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for name, qubits, angle in gates:
        if name == "RX":
            c, s = np.cos(angle / 2), np.sin(angle / 2)
            u = np.array([[c, -1j * s], [-1j * s, c]])
            psi = _apply_single(u, qubits[0], psi)
        elif name == "H":
            psi = _apply_single(h, qubits[0], psi)
        elif name == "CNOT":
            psi = _apply_pair(cnot, qubits[0], qubits[1], psi)
        elif name == "CZ":
            psi = _apply_pair(cz, qubits[0], qubits[1], psi)
        else:
            raise ValueError(name)
    return np.abs(psi) ** 2


def template_to_oracle_gates(template, theta):
    """Flatten an instantiated template into oracle gate tuples."""
    from qks import instantiate
    from qks.quil import GateKind

    circuit = instantiate(template, theta)
    out = []
    for g in circuit.gates:
        angle = g.angle if g.kind is GateKind.RX else None
        out.append((g.kind.value, g.qubits, angle))
    return out
