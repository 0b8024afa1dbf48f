"""Statevector simulation, tuned for single-shot episode throughput.

Conventions: qubit 0 is the least-significant bit of a computational-basis
index, so for two qubits the amplitude order is |00>, |01>, |10>, |11> with
the left bit belonging to qubit 1. RX(theta) = [[cos(t/2), -i sin(t/2)],
[-i sin(t/2), cos(t/2)]].

Gates compile once into typed ops, and one dispatcher applies them to a
batch of B states held episode-minor, as (2**n, B): the basis index on
axis 0 and the episodes along the last, contiguous axis. The paper's
circuits are small (cnot2 and cz2 have 4 amplitudes) and run once per
episode, so every kernel's inner loop runs over the episodes rather than
over the few amplitudes of one state. RX and H act through in-place kernels
on (hi, 2, lo, B) views, and each run of CNOT and CZ gates is folded into
one signed basis permutation, applied as a gather along axis 0 and a sign
per row. The single-state helpers run a (2**n, 1) batch of one.

:class:`EpisodeEngine` splits a template's ops in two. Its prefix is the
opening RX layer: RX gates on distinct fresh qubits, with an RX(0) for each
qubit they leave idle. That state is a product, so each chunk multiplies one
(cos, -i sin) factor per qubit, a (2, B) array laid along that qubit's axis
of a (2, ..., 2, B) array, out over the basis in op order, and the
remaining ops act on the result. When only permutations follow, the factors
are real (cos, sin), since moving and negating amplitudes keeps their
magnitudes. RX kernels applied one by one from |0...0> form the same
rounded products in the same order (the other part of each complex
amplitude stays zero), so the probabilities equal theirs bit for bit.
Chunks are sized for about 1 MiB of amplitudes and allocated as they run, so
an engine is immutable and :func:`cached_engine` shares one per (template,
layers). Every shot takes one uniform through one inverse-CDF rule over the
outcome probabilities in basis-index order: a cumulative sum down axis 0,
which adds in the same sequence per episode as one along a row would.
:meth:`EpisodeEngine.probabilities` returns one row per episode, (B, 2**n).

The readout rule lives here too: qubit j's reading is bit j of the outcome
index, and an index fits in MAX_QUBITS = 16 bits. :func:`outcome_bits`
applies it to the sampled indices that features pack, and
:func:`bit_matrix` to every basis index, for the kernels' marginals.
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

# Bytes of complex amplitudes per engine chunk.
CHUNK_BYTES = 1 << 20

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# RX(theta)|0> = cos(theta/2)|0> - i sin(theta/2)|1>, as a (2, 1) column.
_RX_PHASES = np.array([[1.0], [-1j]])


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


def _check_width(num_qubits: int) -> None:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}]")


def outcome_bits(z: np.ndarray, num_qubits: int) -> np.ndarray:
    """Qubit readings of integer outcome indices, (len(z), num_qubits) uint8.

    Column j is bit j of z, read from z's two little-endian low bytes.
    """
    _check_width(num_qubits)
    by = np.asarray(z).astype("<u2").view(np.uint8).reshape(-1, 2)
    return np.unpackbits(by, axis=1, count=num_qubits, bitorder="little")


def bit_matrix(num_qubits: int) -> np.ndarray:
    """B[z, j] = bit j of z, shape (2**num_qubits, num_qubits), float64."""
    _check_width(num_qubits)
    return outcome_bits(np.arange(1 << num_qubits), num_qubits).astype(np.float64)


@dataclass
class StateVector:
    """Dense complex amplitudes over the computational basis."""

    amplitudes: np.ndarray
    num_qubits: int

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        """The all-zeros basis state |0...0>."""
        _check_width(num_qubits)
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(amps, num_qubits)

    def probabilities(self) -> np.ndarray:
        a = self.amplitudes
        return a.real * a.real + a.imag * a.imag


# ---------------------------------------------------------------------------
# Gate kernels on (2**n, B) batches. All operate in place via reshaped views.


def _apply_rx_batch(states: np.ndarray, n: int, qubit: int, cos_half, sin_half):
    """cos_half/sin_half are floats or (B,) arrays along the episode axis."""
    lo = 1 << qubit
    hi = 1 << (n - qubit - 1)
    s4 = states.reshape(hi, 2, lo, -1)
    a0 = s4[:, 0]
    a1 = s4[:, 1]
    isin = 1j * sin_half
    t1 = a1 * cos_half
    t1 -= isin * a0
    a0 *= cos_half
    a0 -= isin * a1
    a1[:] = t1


def _apply_h_batch(states: np.ndarray, n: int, qubit: int):
    """H on ``qubit`` of a (2**n, B) batch, in place."""
    lo = 1 << qubit
    hi = 1 << (n - qubit - 1)
    s4 = states.reshape(hi, 2, lo, -1)
    a0 = s4[:, 0]
    a1 = s4[:, 1]
    t1 = a0 - a1
    a0 += a1
    a0 *= _SQRT_HALF
    t1 *= _SQRT_HALF
    a1[:] = t1


# ---------------------------------------------------------------------------
# Compiled ops and the one dispatcher.


class _Op(NamedTuple):
    """One compiled gate, or one folded run of CNOT/CZ gates.

    A parameterized RX reads theta column ``col``; a literal RX has ``col``
    None and carries cos/sin of its half angle. A folded run has ``kind``
    None and maps amplitudes z -> sign[z] * amplitude[source[z]]; ``sign``
    is a (2**n, 1) column, and ``source`` or ``sign`` is None where the run
    leaves it unchanged.
    """

    kind: GateKind | None
    qubits: tuple[int, ...] = ()
    col: int | None = None
    cos: float = 1.0
    sin: float = 0.0
    source: np.ndarray | None = None
    sign: np.ndarray | None = None


def _fold(run: Sequence[_Op], n: int) -> _Op:
    """One signed basis permutation for a run of CNOT and CZ ops.

    Both gates map basis states to basis states, CNOT by moving them and CZ
    by a sign (Aaronson & Gottesman, PRA 70, 052328, 2004), so the run is
    traced once over every index: ``z[x]`` is where basis state x has moved
    and ``sign[x]`` the sign it has picked up.
    """
    index = np.arange(1 << n)
    z, sign = index.copy(), np.ones(1 << n)
    for op in run:
        a, b = op.qubits
        if op.kind is GateKind.CNOT:
            z ^= ((z >> a) & 1) << b
        else:
            sign[((z >> a) & (z >> b) & 1) == 1] *= -1.0
    source = np.empty_like(z)
    source[z] = index
    return _Op(
        None,
        source=None if np.array_equal(z, index) else source,
        sign=None if (sign > 0).all() else sign[source, np.newaxis],
    )


def _compile(
    gates: Sequence[GateOp], num_qubits: int, params: tuple = (), layers: int = 1
) -> tuple[_Op, ...]:
    """Gates repeated ``layers`` times as ops, each CNOT/CZ run folded.

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
    folded: list[_Op] = []
    for permutes, run in itertools.groupby(
        ops, key=lambda op: op.kind in (GateKind.CNOT, GateKind.CZ)
    ):
        folded += [_fold(list(run), num_qubits)] if permutes else run
    return tuple(folded)


def _cos_sin(op: _Op, thetas: np.ndarray | None):
    """cos and sin of an RX op's half angle: floats, or (b,) arrays."""
    if op.col is None:
        return op.cos, op.sin
    half = 0.5 * thetas[:, op.col]
    return np.cos(half), np.sin(half)


def _apply_ops(
    states: np.ndarray, n: int, ops: Sequence[_Op], thetas: np.ndarray | None = None
) -> np.ndarray:
    """Apply ops to a (2**n, b) batch; ``thetas`` is (b, num_params).

    Gate kernels work in place, but a permutation gathers into a new array,
    so callers use the returned batch.
    """
    for op in ops:
        if op.kind is GateKind.RX:
            _apply_rx_batch(states, n, op.qubits[0], *_cos_sin(op, thetas))
        elif op.kind is GateKind.H:
            _apply_h_batch(states, n, op.qubits[0])
        else:
            if op.source is not None:
                states = np.take(states, op.source, axis=0)
            if op.sign is not None:
                states *= op.sign
    return states


def _inverse_cdf(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Outcome index per column of (dim, b) ``probs``, one uniform u each.

    The index counts the cumulative sums <= u (u's right insertion point),
    clamped to dim - 1 in case rounding leaves the last sum below u.
    """
    cdf = np.cumsum(probs, axis=0)
    z = (cdf <= uniforms).sum(axis=0)
    return np.minimum(z, probs.shape[0] - 1, out=z)


# ---------------------------------------------------------------------------
# Single-state API.


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate, returning a new StateVector (the input is untouched)."""
    amps = state.amplitudes[:, np.newaxis].copy()
    amps = _apply_ops(amps, state.num_qubits, _compile([gate], state.num_qubits))
    return StateVector(amps[:, 0], state.num_qubits)


def sample_shot(state: StateVector, rng: np.random.Generator) -> Shot:
    """Measure all qubits once, consuming exactly one uniform variate."""
    u = np.array([rng.random()])
    z = _inverse_cdf(state.probabilities()[:, np.newaxis], u)
    return Shot(int(z[0]), state.num_qubits)


def run_circuit(gates: Sequence[GateOp], num_qubits: int) -> StateVector:
    """Run concrete gates from |0...0>, returning the final state."""
    amps = StateVector.zero(num_qubits).amplitudes[:, np.newaxis]
    amps = _apply_ops(amps, num_qubits, _compile(gates, num_qubits))
    return StateVector(amps[:, 0], num_qubits)


# ---------------------------------------------------------------------------
# Batched engine.


class EpisodeEngine:
    """Executes one template, compiled once, across batches of parameter vectors.

    With ``layers`` > 1 the gate list repeats and layer l reads parameter
    columns offset by ``l * template.num_params``. The opening RX layer is
    built as a product state and the remaining ops act on it (see the module
    docstring). An engine holds no mutable state, so threads may share one;
    library code gets it from :func:`cached_engine`.
    """

    def __init__(self, template: CircuitTemplate, layers: int = 1):
        if layers < 1:
            raise ValueError("layers must be >= 1")
        if template.num_qubits > MAX_QUBITS:
            raise ValueError(
                f"template uses {template.num_qubits} qubits; the dense "
                f"simulator supports at most {MAX_QUBITS}"
            )
        self.template = template
        self.layers = layers
        self.num_qubits = n = template.num_qubits
        self.num_params = layers * template.num_params
        self.dim = 1 << n
        ops = _compile(template.gates, n, template.params, layers)
        prefix: list[_Op] = []
        for op in ops:
            if op.kind is not GateKind.RX or any(op.qubits == p.qubits for p in prefix):
                break
            prefix.append(op)
        self._rest = ops[len(prefix):]
        idle = set(range(n)) - {op.qubits[0] for op in prefix}
        prefix += [_Op(GateKind.RX, (q,)) for q in sorted(idle)]
        # The shape that lays an op's (2, b) (cos, sin) along its qubit's
        # axis of a (2, ..., 2, b) array, whose axis 0 is qubit n - 1 and
        # axis n - 1 qubit 0.
        order = range(n - 1, -1, -1)
        self._prefix = tuple(
            (op, tuple(2 if q == op.qubits[0] else 1 for q in order) + (-1,))
            for op in prefix
        )
        # Permutations only move and negate amplitudes, so without a gate
        # kernel after the prefix the real factors give the same |amplitude|.
        self._complex = any(op.kind is not None for op in self._rest)
        self.chunk_size = max(1, min(1 << 16, CHUNK_BYTES // (16 * self.dim)))

    def _outcome_probabilities(self, thetas: np.ndarray) -> np.ndarray:
        """Outcome probabilities, (2**n, b), of one chunk of (b, p) thetas."""
        b = thetas.shape[0]
        amps = np.ones((1,) * self.num_qubits + (b,))
        for op, axes in self._prefix:
            # (2, b), or (2, 1) for a literal RX's floats.
            factor = np.stack(_cos_sin(op, thetas)).reshape(2, -1)
            if self._complex:
                factor = factor * _RX_PHASES
            amps = amps * factor.reshape(axes)
        amps = amps.reshape(self.dim, b)
        s = _apply_ops(amps, self.num_qubits, self._rest, thetas)
        return s.real * s.real + s.imag * s.imag if self._complex else s * s

    def _chunks(self, thetas: np.ndarray):
        """Yield (row slice, (2**n, rows) probabilities) per chunk of thetas."""
        for start in range(0, thetas.shape[0], self.chunk_size):
            rows = slice(start, start + self.chunk_size)
            yield rows, self._outcome_probabilities(thetas[rows])

    def _check_thetas(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim != 2 or thetas.shape[1] != self.num_params:
            raise ValueError(
                f"expected thetas of shape (B, {self.num_params}), "
                f"got {thetas.shape}"
            )
        if not np.isfinite(thetas).all():
            raise ValueError("thetas must be finite")
        return thetas

    def probabilities(self, thetas: np.ndarray) -> np.ndarray:
        """Exact outcome distributions, one row of 2**n probabilities each."""
        thetas = self._check_thetas(thetas)
        out = np.empty((thetas.shape[0], self.dim), dtype=np.float64)
        for rows, probs in self._chunks(thetas):
            out[rows] = probs.T
        return out

    def sample(self, thetas: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """One shot per row, by the inverse-CDF rule of :func:`sample_shot`."""
        thetas = self._check_thetas(thetas)
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.shape != (thetas.shape[0],):
            raise ValueError("need exactly one uniform variate per episode")
        if not ((uniforms >= 0.0) & (uniforms < 1.0)).all():
            raise ValueError("uniform variates must lie in [0, 1)")
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
    probs = exact_probabilities(template, theta)[:, np.newaxis]
    z = _inverse_cdf(probs, np.array([rng.random()]))
    return Shot(int(z[0]), template.num_qubits)
