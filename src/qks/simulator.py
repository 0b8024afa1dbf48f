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
qubit they leave idle. That state is a product, so each chunk takes cos and
sin of every prefix half angle in one call each and builds the products by
doubling, into one (2**n, B) array: prefix op k's qubit is bit k of a row
index, and op k multiplies rows [0, 2**k) by its sin into rows [2**k,
2**(k+1)), then by its cos in place. At build time the map from basis index
to row index is composed with the permutation of a CNOT/CZ run that follows
the prefix, so one gather puts the rows in basis order, and the remaining
ops act on the result. When only permutations follow, the products stay
real, since moving and negating amplitudes keeps their magnitudes;
otherwise each is multiplied by its phase, (-i) to the number of sin
factors, times the run's sign. RX kernels applied one by one from |0...0>
form the same rounded products in the same order (the other part of each
complex amplitude stays zero), so the probabilities equal theirs bit for
bit. Chunks are sized for about 1 MiB of amplitudes (or, for the product
search below, of its own tables). A chunk's half angles, products,
outcome probabilities and search sums are views into the calling thread's
workspace, :class:`_Workspace`, when the engine samples, redoes close calls,
or returns probabilities or marginals. Its buffers outlive the chunk and
the call, so a warm thread builds them without fresh pages from the
allocator. The engine itself holds no mutable state, and
:func:`cached_engine` shares one per (template, layers) across threads.

Every shot takes one uniform u through one inverse-CDF rule over the 2**n
outcome probabilities in basis-index order: the count of cumulative sums
down axis 0 that are <= u, clamped to the last outcome. :func:`_cdf_index`
is that rule, and :func:`sample_shot` calls it on an explicit
:class:`StateVector`. :meth:`EpisodeEngine.sample` (features and
:func:`run_episode` alike) runs one fast path on each chunk, then one guard.
The constructor picks each engine's path, and is the one place where a
new path is added; :attr:`EpisodeEngine.path` names it. Each path returns
an index, a gap (the smallest |sum - u| over the sums it compared with u)
and a tol that bounds how far those sums lie from the rule's. Wide spaces
are searched in two levels, in blocks of 2**(n//2) rows: block totals pick
each episode's block, the sums inside it the row.

- "screen32", up to 16 outcomes: float32 from start to finish. The half
  angles are stored as float32, and their cos and sin taken in float32
  (numpy's float32 trig is SIMD, its float64 trig often scalar libm); a
  real engine multiplies their squares, and :func:`_running_sums` adds the
  float32 probabilities in float32 running sums against u cast to float32,
  walking a real engine's rows in basis order without a gather. tol is
  proved at :meth:`EpisodeEngine._screen_tolerance`.
- "product", wider real engines, where at most one CNOT/CZ run follows the
  prefix (p9 and p16 at one layer): no 2**n vector. The outcome law is the
  prefix's product law pushed through a GF(2)-linear map, so the block
  totals are a Walsh-Hadamard transform of Z-string expectations, and
  those expectations and the chosen block's probabilities are products of
  two half tables: O(2**(n/2)) work per episode. tol is proved at
  :meth:`EpisodeEngine._product_tolerance`.
- "blocked", any other wide engine (an H after the entanglers, two or more
  layers): :func:`_blocked_search` on float64 products; tol = 4 * 2**n * eps.

The guard keeps the index of every episode whose gap exceeds tol, and hands
any other, a NaN gap included, to :func:`_cdf_index` on its float64
probabilities: every index is the rule's bit for bit.
:meth:`EpisodeEngine.probabilities` returns one row per episode, (B, 2**n).

:meth:`EpisodeEngine.marginals` returns P(bit j = 1), (B, n), in the
Heisenberg picture where it can. When only H, CNOT and CZ follow the RX
prefix (every built-in at one layer), those gates are Clifford, so each
qubit's C^dagger Z_j C is one signed Pauli string, found once per engine
with Aaronson & Gottesman's tableau rules and kept as
:attr:`EpisodeEngine.pauli_rows`. Against the product state its
expectation is a product of cos theta (Z) and -sin theta (Y) factors, or 0
if any factor is X, and the marginal is 1/2 - <Z_j>/2 with no 2**n vector.
The same rows give the closed-form kernel in :mod:`qks.kernels`.
Any other template (an RX after the entanglers, two or more layers) sums
each chunk's outcome probabilities against :func:`bit_matrix`.

The readout rule lives here too: qubit j's reading is bit j of the outcome
index, and an index fits in MAX_QUBITS = 16 bits. :func:`outcome_bits`
applies it to one :class:`Shot`, and :func:`bit_matrix` to every basis
index, for marginals summed from outcome probabilities. Features pack the
sampled indices themselves: a packed row is its n-bit indices laid end to
end, least significant bit first.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .quil import CircuitTemplate, GateKind, GateOp, ParamRef, _as_int, _as_reals

MAX_QUBITS = 16

# Bytes of complex amplitudes per engine chunk.
CHUNK_BYTES = 1 << 20

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# (-i)**k for k = 0..3: the phase of an RX product amplitude with k sin
# factors, since RX(theta)|0> = cos(theta/2)|0> - i sin(theta/2)|1>.
_POWERS_OF_MINUS_I = np.array([1.0, -1j, -1.0, 1j])

# The widest outcome space on the "screen32" path; wider ones are searched
# in blocks. The uint8 counts of _running_sums need this to be <= 256.
_RUNNING_SUM_MAX_DIM = 16

# The largest workspace buffer a thread keeps; a larger array is allocated
# for its one use.
_WORKSPACE_MAX_BYTES = 1 << 24


class _Workspace(threading.local):
    """One thread's reusable arrays, one buffer of float64 words per name.

    :meth:`array` views an uninitialised array of any shape and dtype in the
    buffer called ``name``, which grows to the largest request and is then
    reused, so a warm thread samples, and builds outcome probabilities,
    without fresh pages from the allocator. Each such view is valid until
    the thread's next request for its name; two arrays in use at once need
    two names. Each thread gets its own buffers on first use, and when it
    ends they pass to the next thread that samples: ``featurize`` starts
    new worker threads on each call, and the buffers outlive them.

    ``np.take`` into a workspace array passes ``mode="clip"``: with an
    ``out`` and the default "raise", numpy gathers into a new array first.
    The indices are in range by construction.
    """

    # Buffers of threads that have ended, for the next new threads.
    _spare: list[dict] = []

    def __init__(self):
        spare = self._spare
        self.buffers: dict[str, np.ndarray] = spare.pop() if spare else {}
        weakref.finalize(threading.current_thread(), spare.append, self.buffers)

    def array(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        try:
            return np.ndarray(shape, dtype, self.buffers[name])
        except (KeyError, TypeError):  # no buffer yet, or one too small
            pass
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if size > _WORKSPACE_MAX_BYTES:
            return np.empty(shape, dtype)
        self.buffers[name] = np.empty(-(-size // 8))
        return np.ndarray(shape, dtype, self.buffers[name])


_workspace = _Workspace()


def _run_blocks(run, starts, workers: int) -> list:
    """``[run(start) for start in starts]`` on up to ``workers`` threads.

    The calling thread is one of them: it and min(workers, blocks) - 1 pool
    threads pull the blocks from one iterator, in order, so a single worker
    or a single block starts no pool. Each thread's arrays come from its
    own workspace. Results come back in block order. When blocks fail, no
    thread takes a new block, and the exception of the first failing block
    in order is raised: every block before it was already taken, and runs
    to its end.
    """
    starts = list(starts)
    threads = min(workers, len(starts))
    if threads <= 1:
        return [run(start) for start in starts]
    results, failures = [None] * len(starts), {}
    tasks, lock = iter(enumerate(starts)), threading.Lock()

    def drain():
        while not failures:
            with lock:
                i, start = next(tasks, (None, None))
            if i is None:
                return
            try:
                results[i] = run(start)
            except BaseException as exc:  # raised below, after every thread
                failures[i] = exc

    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        for _ in range(threads - 1):
            pool.submit(drain)
        drain()
    if failures:
        raise failures[min(failures)]
    return results


@dataclass(frozen=True)
class Shot:
    """One measured bit pattern; bit j of ``bits`` is qubit j's outcome.

    ``num_qubits`` is an integer in [1, MAX_QUBITS] and ``bits`` an integer
    in [0, 2**num_qubits), one of the 2**n outcome indices; anything else
    raises ValueError, where the shifts below would read a wrong pattern.
    """

    bits: int
    num_qubits: int

    def __post_init__(self):
        n = _check_width(self.num_qubits)
        if not 0 <= _as_int("bits", self.bits) < 1 << n:
            raise ValueError(f"bits must be in [0, 2**{n}), got {self.bits}")

    def bit(self, qubit: int) -> int:
        """Qubit ``qubit``'s outcome, 0 or 1.

        A float or bool raises ValueError, an integer out of range IndexError.
        """
        qubit = _as_int("qubit", qubit)
        if not 0 <= qubit < self.num_qubits:
            raise IndexError(f"qubit {qubit} out of range")
        return (self.bits >> qubit) & 1

    def to_array(self) -> np.ndarray:
        """Outcome as a uint8 vector, index j = qubit j."""
        return outcome_bits([self.bits], self.num_qubits)[0]


def _check_width(num_qubits: int) -> int:
    """``num_qubits`` as an int in [1, MAX_QUBITS]; anything else raises."""
    return _as_int("num_qubits", num_qubits, low=1, high=MAX_QUBITS)


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


@dataclass(frozen=True)
class StateVector:
    """Dense complex amplitudes over the computational basis.

    ``num_qubits`` is an integer in [1, MAX_QUBITS] and ``amplitudes`` a 1-D
    array of exactly 2**num_qubits numbers, one per basis index, kept as
    complex128 so that every gate applies to them; anything else (strings
    and objects among them) raises ValueError here, so every outcome space
    a state hands to the inverse-CDF rule has 2**n rows.
    """

    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self):
        n = _check_width(self.num_qubits)
        a = np.asarray(self.amplitudes)
        if a.dtype.kind not in "biufc":
            raise ValueError(f"amplitudes must be numbers, got dtype {a.dtype}")
        a = a.astype(np.complex128, copy=False)
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "amplitudes", a)
        if a.shape != (1 << n,):
            raise ValueError(f"amplitudes need shape ({1 << n},), got {a.shape}")

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        """The all-zeros basis state |0...0>."""
        num_qubits = _check_width(num_qubits)
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
    t1 = np.multiply(a1, cos_half, out=_workspace.array("t1", a1.shape, states.dtype))
    t2 = _workspace.array("t2", a1.shape, states.dtype)
    t1 -= np.multiply(isin, a0, out=t2)
    a0 *= cos_half
    a0 -= np.multiply(isin, a1, out=t2)
    a1[:] = t1


def _apply_h_batch(states: np.ndarray, n: int, qubit: int):
    """H on ``qubit`` of a (2**n, B) batch, in place."""
    lo = 1 << qubit
    hi = 1 << (n - qubit - 1)
    s4 = states.reshape(hi, 2, lo, -1)
    a0 = s4[:, 0]
    a1 = s4[:, 1]
    t1 = np.subtract(a0, a1, out=_workspace.array("t1", a1.shape, states.dtype))
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


def _heisenberg_z(gates: Sequence[GateOp], n: int):
    """Signed Pauli strings C^dagger Z_j C for a circuit C of H, CNOT and CZ.

    Returns (r, x, z): row j is (-1)**r[j] times the product over qubits q
    of X (x only), Z (z only) or Y (both) on q. Z_j is conjugated by the
    gates from last to first with Aaronson & Gottesman's tableau rules (PRA
    70, 052328, 2004); CZ a b is H b, CNOT a b, H b.
    """
    r = np.zeros(n, dtype=bool)
    x = np.zeros((n, n), dtype=bool)
    z = np.eye(n, dtype=bool)

    def h(q):
        r[:] ^= x[:, q] & z[:, q]
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()

    def cnot(c, t):
        r[:] ^= x[:, c] & z[:, t] & ~(x[:, t] ^ z[:, c])
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]

    for g in reversed(gates):
        if g.kind is GateKind.H:
            h(g.qubits[0])
        elif g.kind is GateKind.CNOT:
            cnot(*g.qubits)
        else:
            a, b = g.qubits
            h(b)
            cnot(a, b)
            h(b)
    return r, x, z


def _pauli_rows(tableau, prefix: Sequence[_Op]):
    """Each qubit's <Z_j> as a constant times trig factors.

    ``prefix`` has one RX op per qubit, and ``tableau`` is
    :func:`_heisenberg_z` of the H, CNOT and CZ gates after it.
    A prefix RX(theta) puts its qubit's Bloch vector at (0, -sin theta,
    cos theta), so a Z factor contributes cos theta, a Y factor -sin theta
    and an X factor 0; a literal angle's factor goes into the constant, from
    its half angle's cos and sin. Returns one (constant, factors) pair per
    qubit: <Z_j> is the constant times, for each (is_y, col) in factors in
    prefix order, sin (is_y) or cos of theta column col. The minus sign of
    each Y factor is in the constant, and a zero constant has no factors.
    """
    r, x, z = tableau
    rows = []
    for j in range(len(r)):
        constant, factors = -1.0 if r[j] else 1.0, []
        for op in prefix:
            q = op.qubits[0]
            if not z[j, q]:  # identity, or X
                constant *= 0.0 if x[j, q] else 1.0
                continue
            is_y = bool(x[j, q])
            if op.col is None:
                c, s = op.cos, op.sin
                constant *= -2.0 * s * c if is_y else c * c - s * s
            else:
                constant *= -1.0 if is_y else 1.0
                factors.append((is_y, op.col))
        rows.append((constant, tuple(factors) if constant else ()))
    return tuple(rows)


def _cos_sin(op: _Op, thetas: np.ndarray | None):
    """cos and sin of an RX op's half angle: floats, or (b,) arrays."""
    if op.col is None:
        return op.cos, op.sin
    half = 0.5 * thetas[:, op.col]
    return np.cos(half), np.sin(half)


def _span(generators) -> np.ndarray:
    """The XORs of every subset of ``generators``, integers by doubling:
    entry i is the XOR of generators[k] over the bits k of i."""
    span = np.zeros(1, dtype=np.intp)
    for g in generators:
        span = np.concatenate([span, span ^ g])
    return span


def _doubling(out: np.ndarray, factors) -> np.ndarray:
    """Fill ``out``, (2**m, ...), with products of m factor pairs.

    ``factors`` yields (f0, f1) for k = 0..m-1, each broadcasting against
    ``out[0]``; row r becomes the product over k of f1 where bit k of r is
    set and f0 where it is not. Rows [0, 2**k) hold the products of the
    first k pairs, and pair k extends them by f1 into [2**k, 2**(k+1)),
    then by f0 in place, so every product is formed in k order.
    """
    out[0] = 1.0
    for k, (f0, f1) in enumerate(factors):
        size = 1 << k
        np.multiply(out[:size], f1, out=out[size : 2 * size])
        out[:size] *= f0
    return out


def _apply_ops(
    states: np.ndarray, n: int, ops: Sequence[_Op], thetas: np.ndarray | None = None
) -> np.ndarray:
    """Apply ops to a (2**n, b) batch; ``thetas`` is (b, num_params).

    Gate kernels work in place, but a permutation gathers into the thread's
    workspace, so callers use the returned batch, which stays valid until
    the thread's next such call. Gathers alternate between two buffers, so
    none reads the buffer it writes.
    """
    gathers = itertools.cycle(("permuted0", "permuted1"))
    for op in ops:
        if op.kind is GateKind.RX:
            _apply_rx_batch(states, n, op.qubits[0], *_cos_sin(op, thetas))
        elif op.kind is GateKind.H:
            _apply_h_batch(states, n, op.qubits[0])
        else:
            if op.source is not None:
                out = _workspace.array(next(gathers), states.shape, states.dtype)
                states = np.take(states, op.source, axis=0, out=out, mode="clip")
            if op.sign is not None:
                states *= op.sign
    return states


def _cdf_index(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The inverse-CDF rule, per column of (dim, b) ``probs`` and uniform u.

    The index counts the sequential cumulative sums <= u (u's right
    insertion point), clamped to dim - 1 in case rounding leaves the last
    sum below u. Every sampled shot is this index.
    """
    cdf = np.cumsum(probs, axis=0)
    return np.minimum((cdf <= uniforms).sum(axis=0), probs.shape[0] - 1)


def _running_sums(probs: np.ndarray, uniforms: np.ndarray, order=None):
    """(index, gap) per column of (dim, b) ``probs``; the index is uint8.

    One running sum per column, in the dtype of ``uniforms``, adds the rows
    in order (rows order[0], order[1], ... with ``order``), whatever the
    dtype of ``probs``, and counts the sums <= u; it stops after dim - 1
    sums, which is the clamp, since the sums never decrease. On float64
    ``probs`` and ``uniforms`` it adds the same numbers in the same order
    as np.cumsum down axis 0, so the index is :func:`_cdf_index`'s. The
    gap is each column's smallest |sum - u| over the sums it counted, in
    the same dtype; a NaN sum makes it NaN. ``dim`` must be at most 256,
    the uint8 range. Both are in the thread's workspace.
    """
    b, dtype = len(uniforms), uniforms.dtype
    if order is not None:
        probs = [probs[r] for r in order]
    total = _workspace.array("total", (b,), dtype)
    total[...] = probs[0]
    z = _workspace.array("counts", (b,), np.uint8)
    np.less_equal(total, uniforms, out=z.view(bool))
    gap = np.subtract(total, uniforms, out=_workspace.array("gap", (b,), dtype))
    np.abs(gap, out=gap)
    below = _workspace.array("below", (b,), bool)
    d = _workspace.array("distance", (b,), dtype)
    for p in probs[1:-1]:
        total += p
        z += np.less_equal(total, uniforms, out=below)
        np.abs(np.subtract(total, uniforms, out=d), out=d)
        np.minimum(gap, d, out=gap)
    return z, gap


def _blocked_search(probs: np.ndarray, uniforms: np.ndarray):
    """(index, gap) per column of (dim, b) ``probs``, for dim = 2**n >= 4.

    Columns are searched in two levels, in 2**(n - n//2) blocks of
    2**(n//2) rows (Devroye's indexed search, Non-Uniform Random Variate
    Generation, 1986, III.3). The cumulative block totals pick each
    column's block, and the cumulative sums of its rows, started from the
    block's approximate start, pick the row. Both levels leave out their
    last sum, which is the clamp. The gap is the smallest |sum - u| over
    the block totals and the chosen block's sums.

    These sums add the same numbers as :func:`_cdf_index` in another order.
    For columns that sum to about 1, each of them and each sequential sum
    carries at most about dim * eps / 2 of rounding, so a column whose gap
    exceeds tol = 4 * dim * eps gets the sequential rule's index.
    """
    dim, b = probs.shape
    size = 1 << ((dim - 1).bit_length() // 2)
    blocks = dim // size
    rows = probs.reshape(blocks, size, b)
    starts = _workspace.array("starts", (blocks, b))
    starts[0] = 0.0
    # einsum sums down the middle axis faster than .sum(axis=1) for small b.
    np.einsum("ijk->ik", rows[:-1], out=starts[1:])
    np.cumsum(starts[1:], axis=0, out=starts[1:])
    cols = np.arange(b)

    def block_probs(block, out):
        out[...] = rows[block, :-1, cols].T

    return _search_blocks(starts, uniforms, size, block_probs)


def _search_blocks(starts: np.ndarray, uniforms: np.ndarray, size: int, block_probs):
    """(index, gap) per column from its blocks' starts, (blocks, b).

    ``starts[h]`` is the sum of the probabilities before block h, so
    ``starts[0]`` is 0, and ``block_probs(block, out)`` writes the first
    size - 1 probabilities of each column's block into ``out``, (size - 1,
    b). The starts after the first pick the block, and the sums of its
    probabilities from its start pick the row; neither level compares its
    last sum, which is the clamp. The gap is the smallest |sum - u| over
    both levels. The sums and comparisons are in the thread's workspace.
    """
    b = len(uniforms)
    below = _workspace.array("below", (len(starts) - 1, b), bool)
    block = np.less_equal(starts[1:], uniforms, out=below).sum(axis=0)
    sums = _workspace.array("sums", (size, b))
    sums[0] = starts[block, np.arange(b)]
    block_probs(block, sums[1:])
    np.cumsum(sums, axis=0, out=sums)
    below = _workspace.array("below", (size - 1, b), bool)
    z = block * size + np.less_equal(sums[1:], uniforms, out=below).sum(axis=0)
    gap = np.inf
    for level in (starts[1:], sums[1:]):
        d = _workspace.array("distance", level.shape)
        np.abs(np.subtract(level, uniforms, out=d), out=d)
        gap = np.minimum(gap, d.min(axis=0))
    return z, gap


# ---------------------------------------------------------------------------
# Single-state API.


def _run(state: StateVector, gates: Sequence[GateOp]) -> StateVector:
    """``gates`` applied to a copy of ``state``, as a new StateVector that
    owns its amplitudes, never a view of the workspace."""
    n = state.num_qubits
    amps = _apply_ops(state.amplitudes[:, np.newaxis].copy(), n, _compile(gates, n))
    return StateVector(amps[:, 0].copy(), n)


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate, returning a new StateVector (the input is untouched)."""
    return _run(state, [gate])


def sample_shot(state: StateVector, rng: np.random.Generator) -> Shot:
    """Measure all qubits of an explicit state once, with one uniform variate.

    Templates are sampled by :meth:`EpisodeEngine.sample` instead; both use
    the inverse-CDF rule of :func:`_cdf_index`. The probabilities must be
    finite and sum to 1 within 1e-6, or ValueError names their total: the
    rule would read any other vector as some outcome.
    """
    with np.errstate(over="ignore"):
        probs = state.probabilities()
    total = probs.sum()  # NaN or inf if any probability is, as none is negative
    if not abs(total - 1.0) <= 1e-6:
        raise ValueError(f"not a state: probabilities sum to {total}, not 1")
    z = _cdf_index(probs[:, np.newaxis], np.array([rng.random()]))
    return Shot(int(z[0]), state.num_qubits)


def run_circuit(gates: Sequence[GateOp], num_qubits: int) -> StateVector:
    """Run concrete gates from |0...0>, returning the final state."""
    return _run(StateVector.zero(num_qubits), gates)


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
        layers = _as_int("layers", layers, low=1)
        self.template = template
        self.layers = layers
        self.num_qubits = n = _check_width(template.num_qubits)
        self.num_params = layers * template.num_params
        self.dim = 1 << n
        ops = _compile(template.gates, n, template.params, layers)
        prefix: list[_Op] = []
        for op in ops:
            if op.kind is not GateKind.RX or any(op.qubits == p.qubits for p in prefix):
                break
            prefix.append(op)
        rest_ops = list(ops[len(prefix):])
        # RX ops are never folded, so the prefix is also the first
        # len(prefix) gates.
        rest = (template.gates * layers)[len(prefix):]
        idle = set(range(n)) - {op.qubits[0] for op in prefix}
        prefix += [_Op(GateKind.RX, (q,)) for q in sorted(idle)]
        self._pauli_rows = None
        if all(g.kind is not GateKind.RX for g in rest):
            tableau = _heisenberg_z(rest, n)
            self._pauli_rows = _pauli_rows(tableau, prefix)
            # The (is_y, col) factors the rows read: cos columns, then sin.
            self._trig_cols = tuple(
                sorted({f for _, factors in self._pauli_rows for f in factors})
            )
        self._prefix = tuple(prefix)
        cols = [op.col for op in prefix if op.col is not None]
        # A run of columns is a slice, whose rows of thetas.T are a view.
        run = bool(cols) and cols == list(range(cols[0], cols[0] + len(cols)))
        self._prefix_cols = (
            slice(cols[0], cols[-1] + 1) if run else np.array(cols, dtype=np.intp)
        )
        self._prefix_params = len(cols)
        # The product is built with prefix op k's qubit as bit k of a row
        # index, so basis state z's amplitude is in row[z], the OR (here
        # the XOR) of the row bits of z's qubits. A permutation right after
        # the prefix joins the same gather: row[source].
        row_bit = {op.qubits[0]: 1 << k for k, op in enumerate(prefix)}
        row = _span([row_bit[q] for q in range(n)])
        sign = None
        if rest_ops and rest_ops[0].kind is None:
            first = rest_ops.pop(0)
            if first.source is not None:
                row = row[first.source]
            sign = first.sign
        self._rest = tuple(rest_ops)
        self._gather = None if np.array_equal(row, np.arange(self.dim)) else row
        # Permutations only move and negate amplitudes, so without a gate
        # kernel after them the real factors give the same |amplitude|.
        # Otherwise each amplitude takes the phase of its sin factors,
        # times the permutation's sign.
        self._complex = bool(self._rest)
        if self._complex:
            sin_factors = outcome_bits(row, n).sum(axis=1)
            phase = _POWERS_OF_MINUS_I[sin_factors % 4, np.newaxis]
            self._phase = phase if sign is None else phase * sign
        self.chunk_size = max(1, min(1 << 16, CHUNK_BYTES // (16 * self.dim)))
        # The sampling path: its producer of (index, gap, tol), and its chunks.
        words = 2 * self.dim
        if self.dim <= _RUNNING_SUM_MAX_DIM:
            self._path, self._producer = "screen32", self._screened_search
        elif self._complex:
            self._path, self._producer = "blocked", self._vector_search
        else:
            # Only CNOT and CZ follow the prefix, so the tableau is built.
            self._path, self._producer = "product", self._product_search
            words = self._build_product_search(row, tableau[2])
        self._sample_chunk = max(1, min(1 << 16, CHUNK_BYTES // (8 * words)))

    @property
    def path(self) -> str:
        """The sampling path, "screen32", "product" or "blocked"."""
        return self._path

    def _build_product_search(self, row: np.ndarray, z_strings: np.ndarray) -> int:
        """Build :meth:`_product_search`'s tables; return its words per episode.

        ``row`` maps basis index z to row index r = row[z], which is linear
        over GF(2): the prefix's qubit order composed with the CNOT and CZ
        gates after the prefix, whose Z strings C^dagger Z_j C are the rows
        of ``z_strings`` (:func:`_heisenberg_z`). Basis indices fall into
        blocks of 2**L, L = n // 2, and a row index splits into its low L
        bits and its high H = n - L bits, which index the low and the high
        half tables of the search.
        """
        n = self.num_qubits
        low = n // 2
        size, blocks = 1 << low, self.dim >> low

        def split(r):
            return np.stack([r & (size - 1), r >> low])

        # Block h holds z = h * size + l, whose row is row[h * size] ^ row[l].
        self._block_rows = split(row[: size - 1])
        self._block_offsets = split(row[::size])
        # Bit j of the block number is qubit low + j's reading, the parity
        # of the prefix qubits in its Z string C^dagger Z C (CNOT and CZ
        # map Z strings to Z strings), so of the row bits masks[j]. The
        # character (-1)**(c . h) of block h reads the row bits chars[c],
        # the XOR of masks[j] over the bits j of c. Each half r of chars[c]
        # is kept as 2 r + 1, the row of its factor in the search's half
        # table, viewed as (2 * 2**m, b).
        qubits = [op.qubits[0] for op in self._prefix]
        masks = z_strings[low:, qubits].astype(row.dtype) @ (1 << np.arange(n))
        self._chars = 2 * split(_span(masks)) + 1
        # starts[h, c] = 2**-H * sum over h' < h of (-1)**(c . h'), so
        # starts @ character expectations gives each block's start, exactly
        # 0 for block 0: the Sylvester-Hadamard signs (-1)**(c . h'), by
        # doubling, summed down each column before row h. Every entry is an
        # exact multiple of 2**-H.
        signs = np.ones((1, 1))
        for _ in range(n - low):
            signs = np.block([[signs, signs], [signs, -signs]])
        self._starts = np.zeros((blocks, blocks))
        np.cumsum(signs[:-1], axis=0, out=self._starts[1:])
        self._starts *= 2.0 ** (low - n)
        literal = [op.col is None for op in self._prefix]
        self._param_rows = np.flatnonzero(np.logical_not(literal))
        self._literal_rows = np.flatnonzero(literal)
        self._literal_trig = np.array(
            [[op.cos for op in self._prefix if op.col is None],
             [op.sin for op in self._prefix if op.col is None]]
        )[..., np.newaxis]
        # Words per episode that the search holds at its peak: the factors
        # and their trig, the four half tables, the characters and block
        # starts with a temporary, and the chosen block's sums, gathered
        # factors and indices. p9 gets 471 episodes a chunk, p16 49.
        return 6 * n + 2 * (size + blocks) + 2 * blocks + 4 * size

    def _half_angles(self, thetas: np.ndarray, dtype=np.float64) -> np.ndarray:
        """The prefix's half angles, (prefix parameters, b), in the thread's
        workspace: halved in float64, then stored as ``dtype``. Stored as
        float32, a half angle past float32's range becomes inf, and the
        caller's errstate decides whether the cast warns."""
        half = _workspace.array("half", (self._prefix_params, thetas.shape[0]), dtype)
        return np.multiply(thetas.T[self._prefix_cols], 0.5, out=half)

    def _prefix_products(self, half: np.ndarray, out: np.ndarray, squared: bool):
        """Fill ``out``, (2**n, b), with the prefix's products by doubling.

        Row r takes, for each prefix op k, the sin of its half angle where
        bit k of r is set and the cos where it is not; with ``squared``,
        their squares, each taken by one ufunc call on the (k, b) array of
        cos or sin. ``half`` holds the prefix half angles, (k, b), and is
        overwritten; the products take its dtype.
        """
        cos = np.cos(half, out=_workspace.array("cos", half.shape, half.dtype))
        sin = np.sin(half, out=half)
        power = 1
        if squared:
            cos *= cos
            sin *= sin
            power = 2
        trig = zip(cos, sin)
        return _doubling(out, (next(trig) if op.col is not None
                               else (op.cos**power, op.sin**power)
                               for op in self._prefix))

    def _outcome_probabilities(
        self, thetas: np.ndarray, half: np.ndarray | None = None
    ) -> np.ndarray:
        """Outcome probabilities, (2**n, b), of one chunk of (b, p) thetas.

        ``half`` holds the prefix half angles, by default the float64 ones
        of ``thetas``; they are overwritten. The products take their dtype,
        so float32 half angles give float32 products, and a complex tail
        promotes them to complex128. A real engine squares the float64
        products, which is the rule's arithmetic, and multiplies the
        squares of float32 cos and sin, which is the screen's (see
        :meth:`_screened_search`). The result and the arrays on the way
        are in the thread's workspace: the result stays valid until the
        thread's next such call.
        """
        array = _workspace.array
        if half is None:
            half = self._half_angles(thetas)
        dtype = np.float64 if self._complex else half.dtype
        shape = (self.dim, thetas.shape[0])
        out = array("probs", shape, dtype)
        direct = not self._complex and self._gather is None
        squared = not self._complex and half.dtype == np.float32
        amps = self._prefix_products(
            half, out if direct else array("amps", shape, half.dtype), squared)
        if not self._complex:
            if not squared:
                amps *= amps  # squares drop the permutation's signs
            if not direct:
                np.take(amps, self._gather, axis=0, out=out, mode="clip")
            return out
        if self._gather is not None:
            amps = np.take(amps, self._gather, axis=0, mode="clip",
                           out=array("gathered", shape, half.dtype))
        states = array("states", shape, np.complex128)
        s = _apply_ops(np.multiply(amps, self._phase, out=states),
                       self.num_qubits, self._rest, thetas)
        np.multiply(s.real, s.real, out=out)
        out += np.multiply(s.imag, s.imag, out=array("amps", shape))
        return out

    def _chunks(self, count: int, size: int | None = None):
        """Yield a slice per chunk of ``count`` rows, ``chunk_size`` by default."""
        size = size or self.chunk_size
        for start in range(0, count, size):
            yield slice(start, start + size)

    def probabilities(self, thetas: np.ndarray) -> np.ndarray:
        """Exact outcome distributions, one row of 2**n probabilities each.

        ``thetas`` holds one row of num_params finite real numbers per
        episode.
        """
        thetas = _as_reals("thetas", thetas, (None, self.num_params))
        return self._probabilities(thetas)

    def _probabilities(self, thetas: np.ndarray) -> np.ndarray:
        """:meth:`probabilities` of checked ``thetas``."""
        out = np.empty((thetas.shape[0], self.dim), dtype=np.float64)
        for rows in self._chunks(thetas.shape[0]):
            out[rows] = self._outcome_probabilities(thetas[rows]).T
        return out

    @property
    def pauli_rows(self) -> tuple | None:
        """Each qubit's <Z_j> as a signed product of trig factors, or None.

        When only H, CNOT and CZ follow the RX prefix, row j is a (constant,
        factors) pair with <Z_j> = constant * prod(sin theta[col] if is_y
        else cos theta[col] for is_y, col in factors); a Y factor's minus
        sign and every literal RX angle are folded into the constant (see
        :func:`_pauli_rows`). Any other template (an RX after the
        entanglers, two or more layers) has no rows and gets None.
        """
        return self._pauli_rows

    def marginals(self, thetas: np.ndarray) -> np.ndarray:
        """P(bit j = 1) per episode and qubit, (B, n): probabilities @ bit_matrix.

        With :attr:`pauli_rows`, each column is 1/2 - <Z_j>/2 from its row,
        and no outcome vector is built. Any other template sums each chunk's
        outcome probabilities. ``thetas`` holds one row of num_params finite
        real numbers per episode.
        """
        thetas = _as_reals("thetas", thetas, (None, self.num_params))
        out = np.empty((thetas.shape[0], self.num_qubits), dtype=np.float64)
        return self._marginals(thetas, out)

    def _marginals(self, thetas: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`marginals` of checked ``thetas``, written into ``out``, (B, n).

        With :attr:`pauli_rows`, the cos or sin of each theta column that a
        row reads, and each row's product, formed in place in factor order,
        are in the thread's workspace.
        """
        if self.pauli_rows is None:
            bits = bit_matrix(self.num_qubits)
            for rows in self._chunks(thetas.shape[0]):
                out[rows] = self._outcome_probabilities(thetas[rows]).T @ bits
            return out
        b = thetas.shape[0]
        values = _workspace.array("trig", (len(self._trig_cols), b))
        for value, (is_y, col) in zip(values, self._trig_cols):
            (np.sin if is_y else np.cos)(thetas[:, col], out=value)
        trig = dict(zip(self._trig_cols, values))
        expectation = _workspace.array("expectation", (b,))
        for j, (constant, factors) in enumerate(self.pauli_rows):
            if not factors:
                out[:, j] = 0.5 - 0.5 * constant
                continue
            np.multiply(constant, trig[factors[0]], out=expectation)
            for f in factors[1:]:
                expectation *= trig[f]
            expectation *= 0.5
            np.subtract(0.5, expectation, out=out[:, j])
        return out

    def sample(self, thetas: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """One shot per row, by the inverse-CDF rule of :func:`_cdf_index`.

        Each chunk runs the producer of :attr:`path`, then the guard redoes
        every episode whose gap is not above tol by :func:`_cdf_index` on
        its float64 probabilities, chunk_size episodes at a time.
        ``thetas`` holds one row of num_params finite real numbers per
        episode, and ``uniforms`` one real number in [0, 1) per episode.
        """
        thetas = _as_reals("thetas", thetas, (None, self.num_params))
        uniforms = _as_reals("uniforms", uniforms, thetas.shape[:1], unit=True)
        return self._sample(thetas, uniforms)

    def _sample(
        self, thetas: np.ndarray, uniforms: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """:meth:`sample` of checked ``thetas`` and ``uniforms``.

        The indices are written into ``out``, one integer per episode of any
        integer dtype that holds 2**n - 1, or into a new int64 array.
        """
        if out is None:
            out = np.empty(thetas.shape[0], dtype=np.int64)
        for rows in self._chunks(thetas.shape[0], self._sample_chunk):
            th, u = thetas[rows], uniforms[rows]
            z, gap, tol = self._producer(th, u)
            redo = np.flatnonzero(~(gap > tol))
            for part in self._chunks(redo.size):
                r = redo[part]
                z[r] = _cdf_index(self._outcome_probabilities(th[r]), u[r])
            out[rows] = z
        return out

    def _screened_search(self, thetas: np.ndarray, uniforms: np.ndarray):
        """Path "screen32": float32 half angles, products and running sums.

        The half angles are written straight into float32 and tol is taken
        from them; :func:`_running_sums` adds the probabilities in float32
        against u cast to float32 once per chunk. A real engine's products
        of squares stay in row order, and the sums walk the rows in basis
        order, so no gather copies them; a complex tail's probabilities
        come from :meth:`_outcome_probabilities`, in float64.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            half = self._half_angles(thetas, np.float32)
            tol = self._screen_tolerance(half)
            u = _workspace.array("u32", uniforms.shape, np.float32)
            u[...] = uniforms
            if self._complex:
                probs, order = self._outcome_probabilities(thetas, half), None
            else:
                probs = self._prefix_products(
                    half, _workspace.array("probs", (self.dim, len(u)), np.float32),
                    squared=True)
                order = self._gather
            return (*_running_sums(probs, u, order), tol)

    def _vector_search(self, thetas: np.ndarray, uniforms: np.ndarray):
        """Path "blocked": :func:`_blocked_search` on float64 products."""
        probs = self._outcome_probabilities(thetas)
        tol = 4 * self.dim * np.finfo(np.float64).eps
        return (*_blocked_search(probs, uniforms), tol)

    def _product_search(self, thetas: np.ndarray, uniforms: np.ndarray):
        """Path "product": (index, gap, tol) per episode of a real engine.

        The outcome law is the prefix's product law on rows, P(z) = prod_k
        f_k(bit k of row[z]) with f_k = (c_k**2, s_k**2), so the total of
        block h, the basis indices whose high H = n - n//2 bits are h, is
        2**-H sum_c (-1)**(c . h) E[chi_c], with E[chi_c] = prod_k (c_k**2
        - s_k**2 if k reads c else c_k**2 + s_k**2) (O'Donnell, Analysis of
        Boolean Functions, 2014, ch. 1). The expectations are products of a
        low and a high half table, and one matrix product with the summed
        signs gives every block's start. The chosen block's probabilities
        are products of entries of two half tables of squares, and
        :func:`_search_blocks` runs both levels of the search.
        """
        n, b = self.num_qubits, thetas.shape[0]
        low = n // 2
        # x[0, k] and x[1, k]: prefix op k's factor where its row bit is 0
        # and where it is 1, for squares (c**2, s**2) in [..., 0, :] and
        # characters (c**2 + s**2, c**2 - s**2) in [..., 1, :].
        x = _workspace.array("factors", (2, n, 2, b))
        half = self._half_angles(thetas)
        cos = np.cos(half, out=_workspace.array("cos", half.shape))
        x[0, self._param_rows, 0] = cos
        x[1, self._param_rows, 0] = np.sin(half, out=half)
        x[:, self._literal_rows, 0] = self._literal_trig
        squares = x[:, :, 0]
        squares *= squares
        np.add(squares[0], squares[1], out=x[0, :, 1])
        np.subtract(squares[0], squares[1], out=x[1, :, 1])
        pairs = list(zip(x[0], x[1]))
        # Half table row r holds the products of squares, then those of
        # characters: rows 2r and 2r + 1 of its (2**(m + 1), b) view.
        tables = [
            _doubling(_workspace.array(name, (1 << len(part), 2, b)), part)
            for name, part in (("low", pairs[:low]), ("high", pairs[low:]))
        ]
        characters, high_characters = (
            np.take(table.reshape(-1, b), chars, axis=0, mode="clip",
                    out=_workspace.array(name, (len(chars), b)))
            for name, table, chars in zip(
                ("characters", "high_picks"), tables, self._chars)
        )
        characters *= high_characters
        starts = np.matmul(self._starts, characters,
                           out=_workspace.array("starts", characters.shape))
        cols = np.arange(b)
        size = 1 << low
        index = _workspace.array("index", (size - 1, b), np.intp)
        high = _workspace.array("high_picks", (size - 1, b))

        def block_probs(block, out):
            # Row l of block h is row[h * size] ^ row[l]; each half of it
            # picks a product of squares from its half table, in that
            # episode's column: the low half's into out, the high half's
            # into high.
            for table, rows, offsets, factor in zip(
                    tables, self._block_rows, self._block_offsets, (out, high)):
                np.bitwise_xor(rows[:, np.newaxis], offsets[block], out=index)
                np.multiply(index, 2 * b, out=index)
                np.take(table.ravel(), np.add(index, cols, out=index),
                        out=factor, mode="clip")
            out *= high

        return (*_search_blocks(starts, uniforms, size, block_probs),
                self._product_tolerance())

    def _product_tolerance(self) -> float:
        """The product search's tol, with H = n - n//2 and 2**H blocks:

            tol = 4 * dim * eps + 2**H * (2**H + 3n) * eps

        Write u = eps / 2 for the unit roundoff and gamma_m = m u / (1 - m
        u) (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        ch. 3). Take c_k and s_k, prefix op k's float64 cos and sin, as
        exact, with m_k = c_k**2 + s_k**2, d_k = c_k**2 - s_k**2, P(z) the
        exact products of their squares and M = sum_z P(z) = prod_k m_k.
        M is 1 to within a few n eps, as float64 cos and sin are within a
        few ulp; the factor 2 below absorbs that, and second-order terms.

        The rule's sum R at any index: each float64 product of n factors,
        squared, rounds at most 2n - 1 times, and a sequential sum of at
        most dim terms at most dim - 1 times, so |R - exact| <= (2n + dim) u M.

        A block start S_h = sum_c starts[h, c] E[chi_c], in any summation
        order: each E[chi_c] is a product of n factors d_k or m_k, each
        within gamma_2 m_k of exact, with n - 1 roundings, so within
        gamma_{3n} M of exact and at most M (1 + gamma_{3n}) in magnitude.
        The entries of ``starts`` are exact multiples of 2**-H, at most 1
        in magnitude, and a dot product of 2**H terms in any order errs by
        at most gamma_{2**H} times the sum of their magnitudes (Higham, sec.
        3.1), so |S_h - exact| <= 2**H (2**H + 3n) u M to first order. A sum
        inside the chosen block adds to S_h at most 2**L products of 2n - 1
        roundings each, for at most (2**L + 2n) u M more.

        So each compared sum lies within (2**H (2**H + 3n) + 2**L + 4n +
        dim) u M of R, at most half of tol, since 2**L + 4n < 2 dim and u =
        eps / 2. The bound holds for any summation order of the matrix
        product, as BLAS kernels and thread counts choose their own. An
        episode whose gap exceeds tol therefore sees every compared sum on
        the side of u that R is on, and gets the rule's index.
        """
        blocks = self.dim >> self.num_qubits // 2
        eps = np.finfo(np.float64).eps
        return (4 * self.dim + blocks * (blocks + 3 * self.num_qubits)) * eps

    def _screen_tolerance(self, half: np.ndarray) -> np.ndarray:
        """The float32 screen's tol per episode from its (k, b) prefix half
        angles h_k, float32 as :meth:`_screened_search` stores them:

            tol = 2**-19 * (n + dim / 16 + sum_k |h_k|)

        (k over the prefix's parameters), computed in the dtype of ``half``.
        :meth:`_screened_search` builds the products from float32 cos and
        sin of h_k and adds them in float32 running sums, and the guard
        redoes any episode whose gap is not above tol: a filter with a
        proven error bound, in the manner of Shewchuk's adaptive predicates
        (DCG 18, 1997).

        Why tol bounds the distance between each compared float32 sum S and
        u32, u cast to float32, that decides the side of u on which the
        float64 rule's sum R lies. All errors below are in units of 2**-24
        and to first order.

        Half angles. Each h_k is rounded from the float64 half angle H_k =
        theta / 2, so |H_k| <= |h_k| (1 + 2**-23). Write c_k, s_k for the
        exact cos and sin of H_k and c'_k, s'_k for numpy's float32 cos and
        sin of h_k, taken to be within 4 ulp (the trig premise test checks
        the cast and the trig together), so e_k = max(|c'_k - c_k|, |s'_k
        - s_k|) <= |H_k| + 4. A literal angle's float64 cos and sin only
        round to float32, with H_k counted as 0.

        Products. The exact outcome probabilities are the product
        distribution of the pairs (c_k**2, s_k**2), each of mass 1, so
        replacing one factor at a time telescopes: the L1 change of the
        outcome vector is at most sum_k 2 sqrt(2) e_k. Each float32
        probability, a square of a product of n factors or a product of n
        squares, rounds at most 2n - 1 times, adding 2n - 1 in L1. With a
        complex tail the products promote to complex128 before their
        phases, and the tail is unitary, so the L2 error of the amplitudes,
        at most sqrt(2) sum_k e_k + n - 1, carries through to its output;
        Cauchy-Schwarz turns an L2 error delta of unit vectors into an L1
        error of at most 2 delta + delta**2 in their squared magnitudes.
        Either way the probabilities, and every partial sum of their exact
        values, move by at most 2.9 sum_k |H_k| + 14 n.

        Sums. The screen compares at most dim - 1 running sums, each of at
        most dim - 1 probabilities, so each is rounded at most dim - 1
        times (dim - 2 additions, and the first term's cast when a complex
        tail leaves the probabilities in float64), each time by at most half
        an ulp of a float32 sum of at most about 1: at most dim - 1 in all.
        u < 1 casts to float32 within 1/2. The float64 products, the tail
        and the sequential sums of the float64 rule each carry O(dim eps),
        below 2**-40 here.

        So |S - R| + |u32 - u| <= 2.9 sum |H_k| + 14 n + dim, and tol,
        32 (n + sum |h_k|) + 2 dim in these units, exceeds it at least
        twofold. The factor two absorbs the second-order terms and the
        float32 rounding of tol (k roundings) and of the gap |S - u32|
        (one), all relative. An episode whose gap exceeds tol therefore has
        |S - u32| > |S - R| + |u32 - u|, so S <= u32 exactly when R <= u,
        for every compared sum, and gets the rule's index. Underflow to
        float32 subnormals adds at most 2**-149 per product.

        Half angles past float32's range cast to inf, whose cos is NaN, and
        a huge sum of |h_k| makes tol above 1 (or inf, which the screen's
        errstate lets pass); both episodes are redone.
        """
        tol = _workspace.array("tol", half.shape[1:], half.dtype)
        abs_half = np.abs(half, out=_workspace.array("abs_half", half.shape, half.dtype))
        abs_half.sum(axis=0, out=tol)
        tol += self.num_qubits + self.dim / 16
        tol *= 2.0**-19
        return tol


@lru_cache(maxsize=64)
def cached_engine(template: CircuitTemplate, layers: int = 1) -> EpisodeEngine:
    """The shared engine for (template, layers), built on first use."""
    return EpisodeEngine(template, layers)


def exact_probabilities(
    template: CircuitTemplate, theta: Sequence[float]
) -> np.ndarray:
    """Outcome distribution of a template at one parameter setting.

    ``theta`` holds finite real numbers, one per template parameter; it is
    checked here, once, and not again as the engine's batch of one.
    """
    theta = _as_reals("theta", theta, (template.num_params,))
    return cached_engine(template)._probabilities(theta[np.newaxis])[0]


def run_episode(
    template: CircuitTemplate, theta: Sequence[float], rng: np.random.Generator
) -> Shot:
    """Simulate the template at ``theta`` and measure once (one uniform variate).

    The shot comes from :meth:`EpisodeEngine.sample` on a batch of one, the
    same sampler that features use, over the template's 2**n outcomes.
    ``theta`` holds finite real numbers, one per template parameter.
    """
    theta = _as_reals("theta", theta, (template.num_params,))
    z = cached_engine(template)._sample(theta[np.newaxis], np.array([rng.random()]))
    return Shot(int(z[0]), template.num_qubits)
