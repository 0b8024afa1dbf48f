"""Implied kernels of quantum kitchen sink feature maps.

With b_u one episode's feature bits for input u, the implied kernel is
k(u, v) = E[b_u . b_v] with the expectation over encodings and shots. For a
fixed episode the shot average of b_u . b_v is u_probs^T S v_probs, where
S[z][z'] = popcount(z & z') counts shared set bits; S factorizes as B B^T
for the (2^n, n) bit matrix B, so the bilinear form equals the dot product
of the per-qubit one-marginals. Averaging the exact per-episode value over
episodes gives a Monte Carlo estimate of the kernel with no shot noise.

The marginals come from :meth:`EpisodeEngine.marginals`. For a template
whose RX layer is followed only by H, CNOT and CZ (every built-in at one
layer) it works in the Heisenberg picture: qubit j's Z pulled back through
those Clifford gates is one signed Pauli string, so
P(b_j = 1) = 1/2 - 1/2 * (+-prod_i f_i) with f_i = cos theta_i for a Z
factor and -sin theta_i for a Y factor, and 1/2 exactly when any factor is
X (cz2). This is the random-features form of Rahimi & Recht (NIPS 2007).
Other templates (an RX after the entanglers, two or more layers) sum their
outcome probabilities against the bit matrix. :func:`mc_kernel` runs its
blocks of episodes across threads (numpy's trig releases the GIL); each
block's values land in their own slice and are averaged once, so the
estimate is bit-identical for any number of threads. When no string reads
a parameter (cz2, or a template with no parameters), every episode has the
same constant marginals, and :func:`mc_kernel` fills the per-episode values
with their one dot product instead: no encode, no trig and no threads. It
still raises for an input whose encoding would not be finite, which it
rules out in advance by a bound on max|omega| * ||x||_1.

When every qubit has a Pauli string (:attr:`EpisodeEngine.pauli_rows`),
the average over a one-layer machine's episodes has a closed form. Write
qubit j's string as <Z_j> = c_j prod_{i in S_j} f_i(theta_i), where each
f_i is cos or sin (a Y factor's sign is in c_j), theta_i = omega_i .
u_{T_i} + beta_i, and T_i lists the input coordinates feeding parameter i.
Each parameter draws its own omega_i ~ N(0, sigma^2 I) and beta_i ~
Uniform[0, 2 pi), so f_i averages to 0, and with d = u - v,
E[f_i(theta_i(u)) f_i(theta_i(v))] = (1/2) e_i with
e_i = exp(-sigma^2 ||d_{T_i}||^2 / 2). Summing the marginal products:

    k(u, v) = sum_j (1/4) (1 + c_j^2 prod_{i in S_j} (1/2) e_i)

over qubits whose S_j is not empty, plus (1/2 - c_j/2)^2 for each qubit
whose string holds no parameter (cz2's X factors make c_j = 0, so its
kernel is exactly 1/2). A string that reads one parameter twice averages
no such product, and has no closed form here. For the 2-qubit CNOT
ansatz, Z_0 stays Z_0 and Z_1 becomes Z_0 Z_1, so with d1 the part of d
feeding the control's parameter

    k(u, v) = 1/2 + (1/8) exp(-sigma^2 ||d1||^2 / 2)
                  + (1/16) exp(-sigma^2 ||d||^2 / 2)

and k(u, u) = 11/16. :func:`closed_form_cnot2` is its 2-D split case
(d1 = d_0). The kernel of any tiling, such as a first tile and the rest of
an image, is :func:`closed_form_kernel` with the tiling's
``EncodingStructure.from_tiles([tile, rest], p)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ansatze import get_ansatz
from .encoding import EncodingStructure, QksMachine, _check_spec
from .quil import CircuitTemplate, _as_reals
from .simulator import (
    EpisodeEngine,
    _run_blocks,
    _workspace,
    bit_matrix,
    cached_engine,
)

# Episodes per block of mc_kernel's marginals.
KERNEL_BLOCK = 16_384


def _allowed_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def expected_inner(u_probs: np.ndarray, v_probs: np.ndarray) -> float:
    """Exact E[b_u . b_v] for one episode: (u_probs B) . (v_probs B).

    ``u_probs`` and ``v_probs`` are 1-D finite real numbers of one
    power-of-two length >= 2.
    """
    u_probs = _as_reals("u_probs", u_probs, (None,))
    v_probs = _as_reals("v_probs", v_probs, u_probs.shape)
    dim = u_probs.shape[0]
    if dim < 2 or dim & (dim - 1):
        raise ValueError(
            f"probability vectors must have power-of-two length >= 2, got {dim}"
        )
    b = bit_matrix(dim.bit_length() - 1)
    return float((u_probs @ b) @ (v_probs @ b))


@dataclass(frozen=True)
class KernelEstimate:
    """Monte Carlo kernel value with its standard error."""

    value: float
    stderr: float
    episodes_used: int


def mc_kernel(machine: QksMachine, u: np.ndarray, v: np.ndarray) -> KernelEstimate:
    """Estimate k(u, v) by averaging exact per-episode inner products.

    Per episode the expected shot inner product is the dot product of the
    two per-qubit marginals (see module docstring), taken over blocks of
    ``KERNEL_BLOCK`` episodes. The blocks run on one thread per allowed CPU
    up to the number of blocks, the calling thread among them, so one CPU
    or one block starts no pool; each writes its own slice of the
    per-episode values, and the mean and standard error are taken once
    over all of them, so the result is bit-identical for any thread
    count. The factorized form makes the estimate exactly symmetric in
    (u, v): elementwise products of marginals commute, so both argument
    orders sum the same floats.

    When the engine's Pauli rows read no theta column (cz2's X factors, or
    a template with no parameters), every episode's marginals are the
    constants 1/2 - c_j/2, so every per-episode value is one row's dot
    product: the values are filled with it, with no encode, trig or pool,
    and the mean and standard error are taken as above, bit for bit, once
    per (rows, episodes) in a process. The
    encode is skipped only when max|omega| * ||x||_1 < 2**1000 for both
    inputs, which proves every theta finite: each |omega_i x_i| is at most
    max|omega| * |x_i|, so every partial sum of a product or a matmul, in
    any order and rounded, stays below about 2**1001, and adding beta
    < 2 pi keeps it far below the largest float (about 2**1024). Otherwise
    the encode runs and is checked as for any engine, so the same inputs
    raise.

    Raises ValueError naming ``u`` or ``v`` unless it holds
    ``structure.p`` finite real numbers, or when its encoding is not
    finite, as when ``sigma * x`` overflows for a large finite x.
    """
    p = machine.structure.p
    u, v = _as_reals("u", u, (p,)), _as_reals("v", v, (p,))
    n_eps = machine.episodes
    engine = cached_engine(machine.template, machine.layers)
    rows = engine.pauli_rows
    if (
        rows is not None
        and not any(factors for _, factors in rows)
        and _encodes_finitely(machine, u, v)
    ):
        value, stderr = _constant_estimate(rows, n_eps)
    else:
        value, stderr = _mean_and_stderr(_episode_values(machine, engine, u, v))
    return KernelEstimate(value, stderr, n_eps)


def _mean_and_stderr(vals: np.ndarray) -> tuple[float, float]:
    """The mean of the per-episode values and its standard error."""
    n_eps = len(vals)
    stderr = float(vals.std(ddof=1) / np.sqrt(n_eps)) if n_eps > 1 else 0.0
    return float(vals.mean()), stderr


@lru_cache(maxsize=256)
def _constant_estimate(rows: tuple, n_eps: int) -> tuple[float, float]:
    """:func:`_mean_and_stderr` of ``n_eps`` episodes of constant ``rows``.

    Every episode's marginals are the constants 1/2 - c_j/2, so every
    per-episode value is one row's dot product. The values are filled with
    it and reduced as the per-episode pipeline's are, bit for bit, once per
    (rows, episodes).
    """
    m = 0.5 - 0.5 * np.array([[c for c, _ in rows]])
    return _mean_and_stderr(np.full(n_eps, np.einsum("ej,ej->e", m, m)[0]))


def _encodes_finitely(machine: QksMachine, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether max|omega| * ||x||_1 < 2**1000 for x = u and x = v.

    An overflow to inf or a 0 * inf (nan) fails the test without a warning.
    """
    w = machine.max_abs_omega
    with np.errstate(over="ignore", invalid="ignore"):
        return all(w * np.abs(x).sum() < 2.0**1000 for x in (u, v))


def _episode_values(
    machine: QksMachine, engine: EpisodeEngine, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Per-episode dot products of u's and v's marginals, (E,).

    Raises ValueError naming ``u`` or ``v`` when its encoding is not finite.
    """
    n_eps = machine.episodes
    with np.errstate(over="ignore", invalid="ignore"):
        theta = machine.encode_batch(np.stack([u, v]))  # (2, E, k)
    for name, t in zip("uv", theta):
        if not np.isfinite(t).all():
            raise ValueError(
                f"{name}: encoding is not finite at sigma {machine.sigma:g}; "
                "the input is too large for this machine"
            )
    vals = np.empty(n_eps)
    n = engine.num_qubits

    def run_block(start: int) -> None:
        block = slice(start, start + KERNEL_BLOCK)
        th_u, th_v = theta[0, block], theta[1, block]
        shape = (th_u.shape[0], n)
        mu = engine._marginals(th_u, _workspace.array("marginals_u", shape))
        mv = engine._marginals(th_v, _workspace.array("marginals_v", shape))
        np.einsum("ej,ej->e", mu, mv, out=vals[block])

    _run_blocks(run_block, range(0, n_eps, KERNEL_BLOCK), _allowed_cpus())
    return vals


def closed_form_kernel(
    template: CircuitTemplate,
    structure: EncodingStructure,
    u: np.ndarray,
    v: np.ndarray,
    sigma: float,
) -> float:
    """Closed-form kernel of ``template`` under ``structure``'s encoding.

    This is the limit of :func:`mc_kernel` as the episodes grow, for a
    one-layer machine (see the module docstring). Raises ValueError when
    the structure's q is not the template's parameter count, when ``u`` or
    ``v`` does not hold ``structure.p`` finite real numbers, when ``sigma``
    is not a real number (a bool or a string) or not finite and >= 0, and
    naming the template when it has no Pauli strings (an RX after the
    entanglers) or a qubit's string reads one parameter twice.
    """
    sigma = _check_spec(template, structure, sigma)
    u, v = _as_reals("u", u, (structure.p,)), _as_reals("v", v, (structure.p,))
    rows = cached_engine(template).pauli_rows
    if rows is None:
        raise ValueError(
            f"template {template.name!r} has no closed-form kernel: an RX "
            "follows its entanglers, so its qubits have no Pauli strings"
        )
    # u - v and sigma^2 may overflow to inf, which only pushes e_i to 0. A
    # Python float product overflows without a warning, and a zero factor
    # skips the exponent, where 0 * inf would be nan.
    with np.errstate(over="ignore"):
        d = u - v
    s2 = sigma * sigma
    k = sum(0.25 if factors else (0.5 - 0.5 * c) ** 2 for c, factors in rows)
    for constant, factors in rows:
        cols = [col for _, col in factors]
        if len(set(cols)) < len(cols):
            raise ValueError(
                f"template {template.name!r} has no closed-form kernel: a "
                "qubit's Pauli string reads one parameter twice"
            )
        if cols:
            dc = d[sorted(i for col in cols for i in structure.rows[col])]
            dist = float(np.dot(dc, dc))
            coef = 0.25 * constant * constant * 0.5 ** len(cols)
            k += coef * (np.exp(-0.5 * s2 * dist) if dist and s2 else 1.0)
    return float(k)


def closed_form_cnot2(u: np.ndarray, v: np.ndarray, sigma: float) -> float:
    """Closed-form kernel of the 2-qubit CNOT ansatz on 2-D inputs, split.

    Coordinate 0 feeds the control qubit's rotation and coordinate 1 the
    target's. A tiled cnot2 kernel is ``closed_form_kernel(get_ansatz(
    "cnot2"), EncodingStructure.from_tiles([tile, rest], p), u, v, sigma)``.
    ``u`` and ``v`` hold two finite real numbers each. Raises ValueError as
    :func:`closed_form_kernel` does.
    """
    return closed_form_kernel(
        get_ansatz("cnot2"), EncodingStructure.split(2), u, v, sigma
    )
