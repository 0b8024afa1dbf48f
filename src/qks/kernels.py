"""Implied kernels of quantum kitchen sink feature maps.

With b_u one episode's feature bits for input u, the implied kernel is
k(u, v) = E[b_u . b_v] with the expectation over encodings and shots. For a
fixed episode the shot average of b_u . b_v is u_probs^T S v_probs, where
S[z][z'] = popcount(z & z') counts shared set bits; S factorizes as B B^T
for the (2^n, n) bit matrix B, so the bilinear form equals the dot product
of the per-qubit one-marginals. Averaging the exact per-episode value over
episodes gives a Monte Carlo estimate of the kernel with no shot noise.

For the 2-qubit CNOT ansatz with a split/tiled encoding the episode average
has a closed form:

    k(u, v) = 1/2 + (1/8) exp(-sigma^2 ||d1||^2 / 2)
                  + (1/16) exp(-sigma^2 ||d||^2 / 2)

where d = u - v and d1 is its restriction to the coordinates feeding the
first parameter (the CNOT control). In particular k(u, u) = 11/16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import QksMachine
from .simulator import bit_matrix, cached_engine


def expected_inner(u_probs: np.ndarray, v_probs: np.ndarray) -> float:
    """Exact E[b_u . b_v] for one episode: (u_probs B) . (v_probs B)."""
    u_probs = np.asarray(u_probs, dtype=np.float64)
    v_probs = np.asarray(v_probs, dtype=np.float64)
    if u_probs.shape != v_probs.shape or u_probs.ndim != 1:
        raise ValueError("probability vectors must be 1-D with equal length")
    dim = u_probs.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise ValueError("probability vectors must have power-of-two length")
    b = bit_matrix(n)
    return float((u_probs @ b) @ (v_probs @ b))


@dataclass(frozen=True)
class KernelEstimate:
    """Monte Carlo kernel value with its standard error."""

    value: float
    stderr: float
    episodes_used: int


def mc_kernel(machine: QksMachine, u: np.ndarray, v: np.ndarray) -> KernelEstimate:
    """Estimate k(u, v) by averaging exact per-episode inner products.

    Per episode the expected shot inner product is computed from the two
    outcome distributions via the marginal factorization of S (see module
    docstring). The factorized form makes the estimate exactly symmetric in
    (u, v): elementwise products of marginals commute, so both argument
    orders sum the same floats.

    Raises ValueError naming ``u`` or ``v`` when its encoding is not finite,
    as when ``sigma * x`` overflows for a large finite x.
    """
    p = machine.structure.p
    u = np.asarray(u, dtype=np.float64).reshape(p)
    v = np.asarray(v, dtype=np.float64).reshape(p)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("u and v must be finite")
    n_eps = machine.episodes
    n_q = machine.num_qubits

    with np.errstate(over="ignore", invalid="ignore"):
        theta = machine.encode_batch(np.stack([u, v]))  # (2, E, k)
    for name, t in zip("uv", theta):
        if not np.isfinite(t).all():
            raise ValueError(
                f"{name}: encoding is not finite at sigma {machine.sigma:g}; "
                "the input is too large for this machine"
            )
    engine = cached_engine(machine.template, machine.layers)
    b = bit_matrix(n_q)
    vals = np.empty(n_eps)
    step = max(1, engine.chunk_size // 2)
    for start in range(0, n_eps, step):
        stop = min(start + step, n_eps)
        pu = engine.probabilities(theta[0, start:stop])
        pv = engine.probabilities(theta[1, start:stop])
        mu = pu @ b  # per-qubit P(bit = 1), shape (chunk, n_q)
        mv = pv @ b
        vals[start:stop] = np.einsum("ej,ej->e", mu, mv)

    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n_eps)) if n_eps > 1 else 0.0
    return KernelEstimate(value, stderr, n_eps)


def closed_form_cnot2(
    u: np.ndarray,
    v: np.ndarray,
    sigma: float,
    first_tile: np.ndarray | None = None,
) -> float:
    """Closed-form kernel of the 2-qubit CNOT ansatz under a split encoding.

    ``first_tile`` lists the input coordinates feeding the first parameter
    (the rotation on the CNOT's control qubit), in increasing order and
    without repeats. For 2-dimensional inputs it defaults to the first
    coordinate; higher-dimensional tilings must pass it explicitly.

    Raises ValueError naming ``sigma`` unless it is finite and >= 0, ``u``
    and ``v`` unless they are finite, and ``first_tile`` for a coordinate
    out of range, out of order or repeated.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ValueError("u and v must have the same dimension")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("u and v must be finite")
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if first_tile is None:
        if u.shape[0] != 2:
            raise ValueError(
                "first_tile is required for inputs of dimension != 2"
            )
        first_tile = np.array([0])
    idx = np.asarray(first_tile, dtype=np.intp)
    in_range = ((0 <= idx) & (idx < u.size)).all()
    if idx.ndim != 1 or not in_range or (np.diff(idx) <= 0).any():
        raise ValueError(
            f"first_tile must list coordinates of [0, {u.size}) in increasing "
            f"order without repeats, got {idx.tolist()}"
        )
    d = u - v
    d1_sq = float(np.dot(d[idx], d[idx]))
    d_sq = float(np.dot(d, d))
    s2 = sigma * sigma
    return 0.5 + 0.125 * np.exp(-0.5 * s2 * d1_sq) + 0.0625 * np.exp(-0.5 * s2 * d_sq)
