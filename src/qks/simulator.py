"""Statevector simulation, tuned for single-shot episode throughput.

Conventions: qubit 0 is the least-significant bit of a computational-basis
index, so for two qubits the amplitude order is |00>, |01>, |10>, |11> with
the left bit belonging to qubit 1. RX(theta) = [[cos(t/2), -i sin(t/2)],
[-i sin(t/2), cos(t/2)]].

Gates compile once into typed ops, and one dispatcher applies ops to a
(B, 2**n) complex batch with reshaped views; the single-state helpers run a
batch of one. :class:`EpisodeEngine` runs a template chunk by chunk (sized
for about 1 MiB of amplitudes, allocated per chunk), so it is immutable and
:func:`cached_engine` shares one per (template, layers).

An engine whose ops are RX gates, each on a qubit nothing touched before,
followed only by CNOTs (rx1, cnot2, p4, p9 and p16 at one layer, and any
user template of that shape) skips the dense kernels. Before the CNOTs the
state is a product, each amplitude the product of one cos or sin factor per
RX, and CNOTs only permute basis states, so the engine multiplies the
factors out over a real (B, 2**n) array, squares them and gathers the result
through the inverse of the CNOT network's basis permutation, computed once.
The dense kernels form each amplitude by the same rounded real products in
gate order (the other part of each complex amplitude stays exactly zero),
so the probabilities, and with them the sampled bits, equal the dense
engine's bit for bit whenever the RX gates run in ascending qubit order, as
in every built-in ansatz; otherwise they agree to rounding. Every other
template (cz2, H, CZ, more than one layer, an RX after a CNOT) runs the
dense kernels. Either way every shot takes one uniform through one
inverse-CDF rule over the outcome probabilities in basis-index order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .quil import CircuitTemplate, GateKind, GateOp, ParamRef

MAX_QUBITS = 16

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Shot:
    """One measured bit pattern; bit j of ``bits`` is qubit j's outcome."""

    bits: int
    num_qubits: int

    def bit(self, qubit: int) -> int:
        if not 0 <= qubit < self.num_qubits:
            raise IndexError(f"qubit {qubit} out of range")
        return (self.bits >> qubit) & 1

    def to_array(self) -> np.ndarray:
        """Outcome as a uint8 vector, index j = qubit j."""
        return ((self.bits >> np.arange(self.num_qubits)) & 1).astype(np.uint8)


@dataclass
class StateVector:
    """Dense complex amplitudes over the computational basis."""

    amplitudes: np.ndarray
    num_qubits: int

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        """The all-zeros basis state |0...0>."""
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}]")
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(amps, num_qubits)

    def probabilities(self) -> np.ndarray:
        a = self.amplitudes
        return a.real * a.real + a.imag * a.imag


# ---------------------------------------------------------------------------
# Gate kernels on (B, 2**n) batches. All operate in place via reshaped views.


def _apply_rx_batch(states: np.ndarray, n: int, qubit: int, cos_half, sin_half):
    """cos_half/sin_half are scalars or (B, 1, 1) arrays."""
    b = states.shape[0]
    lo = 1 << qubit
    hi = 1 << (n - qubit - 1)
    s3 = states.reshape(b, hi, 2, lo)
    a0 = s3[:, :, 0, :]
    a1 = s3[:, :, 1, :]
    isin = 1j * sin_half
    t1 = a1 * cos_half
    t1 -= isin * a0
    a0 *= cos_half
    a0 -= isin * a1
    a1[:] = t1


def _apply_h_batch(states: np.ndarray, n: int, qubit: int):
    b = states.shape[0]
    lo = 1 << qubit
    hi = 1 << (n - qubit - 1)
    s3 = states.reshape(b, hi, 2, lo)
    a0 = s3[:, :, 0, :]
    a1 = s3[:, :, 1, :]
    t1 = a0 - a1
    a0 += a1
    a0 *= _SQRT_HALF
    t1 *= _SQRT_HALF
    a1[:] = t1


def _two_qubit_view(states: np.ndarray, n: int, qa: int, qb: int):
    """Reshape so axis 2 indexes bit max(qa,qb) and axis 4 bit min(qa,qb)."""
    b = states.shape[0]
    h, l = max(qa, qb), min(qa, qb)
    lo = 1 << l
    mid = 1 << (h - l - 1)
    hi = 1 << (n - h - 1)
    return states.reshape(b, hi, 2, mid, 2, lo), h


def _apply_cnot_batch(states: np.ndarray, n: int, control: int, target: int):
    s6, high_bit = _two_qubit_view(states, n, control, target)
    if control == high_bit:
        sub = s6[:, :, 1]  # control=1 slab; target is now axis 3
        t0 = sub[:, :, :, 0, :]
        t1 = sub[:, :, :, 1, :]
    else:
        sub = s6[:, :, :, :, 1, :]  # control is the low bit
        t0 = sub[:, :, 0]
        t1 = sub[:, :, 1]
    tmp = t0.copy()
    t0[:] = t1
    t1[:] = tmp


def _apply_cz_batch(states: np.ndarray, n: int, qa: int, qb: int):
    s6, _ = _two_qubit_view(states, n, qa, qb)
    s6[:, :, 1, :, 1, :] *= -1.0


# ---------------------------------------------------------------------------
# Compiled ops and the one dispatcher.


class _Op(NamedTuple):
    """One compiled gate.

    A parameterized RX reads theta column ``col``; a literal RX has ``col``
    None and carries cos/sin of its half angle.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    col: int | None = None
    cos: float = 1.0
    sin: float = 0.0


def _compile(
    gates: Sequence[GateOp], num_qubits: int, params: tuple = (), layers: int = 1
) -> tuple[_Op, ...]:
    """Gates repeated ``layers`` times as ops.

    Layer l's parameters are theta columns offset by l * len(params). A
    parameter not in ``params`` is unresolved; concrete circuits pass none.
    """
    ops = []
    for layer, g in itertools.product(range(layers), gates):
        if max(g.qubits) >= num_qubits:
            raise ValueError(
                f"gate touches qubit {max(g.qubits)} but the state has "
                f"{num_qubits} qubit(s)"
            )
        if g.kind is not GateKind.RX:
            ops.append(_Op(g.kind, g.qubits))
        elif isinstance(g.angle, ParamRef):
            if g.angle.name not in params:
                raise ValueError(
                    f"cannot simulate unresolved parameter %{g.angle.name}; "
                    "instantiate the template first"
                )
            col = layer * len(params) + params.index(g.angle.name)
            ops.append(_Op(g.kind, g.qubits, col))
        else:
            half = 0.5 * g.angle
            ops.append(_Op(g.kind, g.qubits, None, math.cos(half), math.sin(half)))
    return tuple(ops)


def _apply_ops(
    states: np.ndarray, n: int, ops: Sequence[_Op], thetas: np.ndarray | None = None
) -> None:
    """Apply ops in place to a (b, 2**n) batch; ``thetas`` is (b, num_params)."""
    for op in ops:
        if op.kind is GateKind.RX:
            if op.col is None:
                cos, sin = op.cos, op.sin
            else:
                half = 0.5 * thetas[:, op.col]
                cos = np.cos(half)[:, None, None]
                sin = np.sin(half)[:, None, None]
            _apply_rx_batch(states, n, op.qubits[0], cos, sin)
        elif op.kind is GateKind.H:
            _apply_h_batch(states, n, op.qubits[0])
        elif op.kind is GateKind.CNOT:
            _apply_cnot_batch(states, n, *op.qubits)
        else:
            _apply_cz_batch(states, n, *op.qubits)


class _Product(NamedTuple):
    """An RX-then-CNOT op list as a product state read through a permutation.

    ``rx`` holds one RX op per qubit, an RX(0) for a qubit the template
    leaves idle, and ``axes[k]`` is the shape (-1, then 2 on qubit q's axis
    n - q and 1 on the others) that lays op k's (cos, sin) along its qubit's
    axis. The CNOTs that follow permute basis indices; ``source[z]`` is the
    index they send to z.
    """

    rx: tuple[_Op, ...]
    axes: tuple[tuple[int, ...], ...]
    source: np.ndarray


def _product_form(ops: Sequence[_Op], n: int) -> _Product | None:
    """Split ops into distinct-qubit RX then CNOTs only, or None if they don't."""
    rx: list[_Op] = []
    for op in ops:
        if op.kind is not GateKind.RX or any(op.qubits == r.qubits for r in rx):
            break
        rx.append(op)
    cnots = ops[len(rx):]
    if any(op.kind is not GateKind.CNOT for op in cnots):
        return None
    idle = set(range(n)) - {op.qubits[0] for op in rx}
    rx += [_Op(GateKind.RX, (q,)) for q in sorted(idle)]
    order = range(n - 1, -1, -1)  # axis 1 is qubit n - 1, axis n is qubit 0
    axes = tuple(
        (-1,) + tuple(2 if q == op.qubits[0] else 1 for q in order) for op in rx
    )
    z = np.arange(1 << n)
    for op in cnots:
        control, target = op.qubits
        z ^= ((z >> control) & 1) << target
    source = np.empty_like(z)
    source[z] = np.arange(1 << n)
    return _Product(tuple(rx), axes, source)


def _product_probabilities(form: _Product, thetas: np.ndarray) -> np.ndarray:
    """Outcome probabilities, (b, 2**n), of a product form at (b, p) thetas.

    Amplitudes are multiplied in op order and squared at the end. The dense
    kernels multiply them in gate order, so when the RX ops run in ascending
    qubit order the two paths give equal floats (see the module docstring).
    """
    b = thetas.shape[0]
    amps = np.ones((b,) + (1,) * len(form.rx))
    for op, axes in zip(form.rx, form.axes):
        if op.col is None:
            factor = np.array([op.cos, op.sin])
        else:
            half = 0.5 * thetas[:, op.col]
            factor = np.stack([np.cos(half), np.sin(half)], axis=1)
        amps = amps * factor.reshape(axes)
    probs = (amps * amps).reshape(b, -1)
    return np.take(probs, form.source, axis=1)


def _inverse_cdf(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Outcome index per row of (b, dim) ``probs``, one uniform u per row.

    The index counts the cumulative sums <= u (u's right insertion point),
    clamped to dim - 1 in case rounding leaves the last sum below u.
    """
    cdf = np.cumsum(probs, axis=1)
    z = (cdf <= uniforms[:, None]).sum(axis=1)
    return np.minimum(z, probs.shape[1] - 1, out=z)


# ---------------------------------------------------------------------------
# Single-state API.


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate, returning a new StateVector (the input is untouched)."""
    amps = state.amplitudes[np.newaxis, :].copy()
    _apply_ops(amps, state.num_qubits, _compile([gate], state.num_qubits))
    return StateVector(amps[0], state.num_qubits)


def sample_shot(state: StateVector, rng: np.random.Generator) -> Shot:
    """Measure all qubits once, consuming exactly one uniform variate."""
    u = np.array([rng.random()])
    z = _inverse_cdf(state.probabilities()[np.newaxis, :], u)
    return Shot(int(z[0]), state.num_qubits)


def run_circuit(gates: Sequence[GateOp], num_qubits: int) -> StateVector:
    """Run concrete gates from |0...0>, returning the final state."""
    state = StateVector.zero(num_qubits)
    ops = _compile(gates, num_qubits)
    _apply_ops(state.amplitudes[np.newaxis, :], num_qubits, ops)
    return state


# ---------------------------------------------------------------------------
# Batched engine.


class EpisodeEngine:
    """Executes one template, compiled once, across batches of parameter vectors.

    With ``layers`` > 1 the gate list repeats and layer l reads parameter
    columns offset by ``l * template.num_params``. A template of RX gates
    then CNOTs runs as a product state read through a basis permutation (see
    the module docstring), any other through the dense kernels. An engine
    holds no mutable state, so threads may share one; library code gets it
    from :func:`cached_engine`.
    """

    def __init__(
        self, template: CircuitTemplate, layers: int = 1, chunk_bytes: int = 1 << 20
    ):
        if layers < 1:
            raise ValueError("layers must be >= 1")
        if template.num_qubits > MAX_QUBITS:
            raise ValueError(
                f"template uses {template.num_qubits} qubits; the dense "
                f"simulator supports at most {MAX_QUBITS}"
            )
        self.template = template
        self.layers = layers
        self.num_qubits = template.num_qubits
        self.num_params = layers * template.num_params
        self.dim = 1 << self.num_qubits
        self._ops = _compile(template.gates, self.num_qubits, template.params, layers)
        self._product = _product_form(self._ops, self.num_qubits)
        self.chunk_size = max(1, min(1 << 16, chunk_bytes // (16 * self.dim)))

    def _chunks(self, thetas: np.ndarray):
        """Yield (row slice, outcome probabilities) per chunk of thetas."""
        for start in range(0, thetas.shape[0], self.chunk_size):
            rows = slice(start, start + self.chunk_size)
            if self._product is not None:
                probs = _product_probabilities(self._product, thetas[rows])
            else:
                s = np.zeros((len(thetas[rows]), self.dim), dtype=np.complex128)
                s[:, 0] = 1.0
                _apply_ops(s, self.num_qubits, self._ops, thetas[rows])
                probs = s.real * s.real + s.imag * s.imag
            yield rows, probs

    def _check_thetas(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim != 2 or thetas.shape[1] != self.num_params:
            raise ValueError(
                f"expected thetas of shape (B, {self.num_params}), "
                f"got {thetas.shape}"
            )
        return thetas

    def probabilities(self, thetas: np.ndarray) -> np.ndarray:
        """Exact outcome distributions, one row of 2**n probabilities each."""
        thetas = self._check_thetas(thetas)
        out = np.empty((thetas.shape[0], self.dim), dtype=np.float64)
        for rows, probs in self._chunks(thetas):
            out[rows] = probs
        return out

    def sample(self, thetas: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """One shot per row, by the inverse-CDF rule of :func:`sample_shot`."""
        thetas = self._check_thetas(thetas)
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.shape != (thetas.shape[0],):
            raise ValueError("need exactly one uniform variate per episode")
        out = np.empty(thetas.shape[0], dtype=np.int64)
        for rows, probs in self._chunks(thetas):
            out[rows] = _inverse_cdf(probs, uniforms[rows])
        return out


@lru_cache(maxsize=64)
def cached_engine(template: CircuitTemplate, layers: int = 1) -> EpisodeEngine:
    """The shared engine for (template, layers), built on first use."""
    return EpisodeEngine(template, layers)


def exact_probabilities(
    template: CircuitTemplate, theta: Sequence[float]
) -> np.ndarray:
    """Outcome distribution of a template at one parameter setting."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1:
        raise ValueError("theta must be one-dimensional")
    return cached_engine(template).probabilities(theta[np.newaxis, :])[0]


def run_episode(
    template: CircuitTemplate, theta: Sequence[float], rng: np.random.Generator
) -> Shot:
    """Instantiate, simulate, and measure once (one uniform variate)."""
    probs = exact_probabilities(template, theta)[np.newaxis, :]
    z = _inverse_cdf(probs, np.array([rng.random()]))
    return Shot(int(z[0]), template.num_qubits)
