"""Random linear encodings of classical inputs into circuit parameters.

Each episode e of a machine owns a random affine map theta = Omega_e u +
beta_e. Omega_e is a (q, p) matrix whose nonzero entries are i.i.d.
N(0, sigma^2) on a fixed sparsity pattern shared by all episodes, and beta_e
is i.i.d. Uniform[0, 2*pi). The sparsity pattern is described by an
:class:`EncodingStructure`: which input coordinates feed which parameter.
Its rows are the whole description; q and the pattern label (dense, split,
tiled or custom) are read from them, so a label cannot contradict its rows.

Randomness is drawn from named Philox substreams of the machine seed, one
stream per purpose, so enlarging the episode count extends every stream
instead of reshuffling it: a machine with E' > E episodes agrees with the
E-episode machine on the first E episodes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .quil import CircuitTemplate, _as_int, _as_real, _as_reals

TAG_OMEGA = 1
TAG_BETA = 2
TAG_SHOTS = 3

TWO_PI = 2.0 * np.pi

# numpy's SeedSequence hash (O'Neill's seed_seq on a pool of four uint32
# words), which :func:`_shot_keys` runs on many entropies at once.
_POOL_WORDS = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1


def _max_abs(a: np.ndarray) -> float:
    """max|a| without an abs copy, 0 for an empty array."""
    return max(a.max(initial=0.0), -a.min(initial=0.0))


def _substream(seed: int, *tags: int) -> np.random.Generator:
    """Philox generator for one named substream of a 64-bit seed."""
    seed = _as_int("seed", seed, low=0, high=(1 << 64) - 1)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *tags])))


@dataclass(frozen=True)
class EncodingStructure:
    """Sparsity pattern of the per-episode Omega matrices.

    ``rows[k]`` lists the input coordinates (ascending) that feed circuit
    parameter k, so q = len(rows). ``p`` must be an integer >= 1 and every
    coordinate an integer in [0, p); both are stored as Python ints, and a
    float or bool raises ValueError, where int() would truncate it or
    indexing would fail late.
    Structures with equal p and rows are equal.

    ``pattern`` names the rows: ``dense`` (q=1 row covering all p
    coordinates), ``split`` (q=p, one coordinate each) and ``tiled`` (q>1
    equal contiguous blocks in order) are the rows of :meth:`tiled`; any
    other rows, e.g. image tiles of unequal size, are ``custom``.
    """

    p: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "p", _as_int("p", self.p, low=1))
        object.__setattr__(self, "rows", tuple(
            tuple(_as_int(f"mask row {k} coordinate", i) for i in row)
            for k, row in enumerate(self.rows)
        ))
        for k, row in enumerate(self.rows):
            if len(row) == 0:
                raise ValueError(f"mask row {k} is empty")
            if any(not 0 <= i < self.p for i in row):
                raise ValueError(f"mask row {k} references an out-of-range index")
            if tuple(sorted(set(row))) != row:
                raise ValueError(f"mask row {k} must be sorted and duplicate-free")

    @property
    def q(self) -> int:
        return len(self.rows)

    @property
    def pattern(self) -> str:
        q = self.q
        if q < 1 or self.p % q != 0 or self.rows != self.tiled(self.p, q).rows:
            return "custom"
        return "dense" if q == 1 else "split" if q == self.p else "tiled"

    @classmethod
    def dense(cls, p: int) -> "EncodingStructure":
        """One parameter fed by every coordinate (q=1, r=p)."""
        return cls.tiled(p, 1)

    @classmethod
    def split(cls, p: int) -> "EncodingStructure":
        """One parameter per coordinate (q=p, r=1)."""
        return cls.tiled(p, p)

    @classmethod
    def tiled(cls, p: int, q: int) -> "EncodingStructure":
        """q equal contiguous blocks of r = p // q coordinates each."""
        p, q = _as_int("p", p), _as_int("q", q, low=1)
        if p % q != 0:
            raise ValueError(f"tiled structure requires q | p, got p={p}, q={q}")
        r = p // q
        rows = tuple(tuple(range(k * r, (k + 1) * r)) for k in range(q))
        return cls(p, rows)

    @classmethod
    def from_tiles(
        cls, tiles: Iterable[Iterable[int]], p: int
    ) -> "EncodingStructure":
        """Structure from an explicit disjoint cover of range(p)."""
        rows = tuple(tuple(sorted(tile)) for tile in tiles)
        structure = cls(p, rows)
        seen: set[int] = set()
        for row in structure.rows:
            if seen.intersection(row):
                raise ValueError("tiles must be disjoint")
            seen.update(row)
        if seen != set(range(structure.p)):
            raise ValueError("tiles must cover every input coordinate exactly once")
        return structure

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "EncodingStructure":
        """Structure from a boolean (q, p) mask; rows may overlap."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("mask must be two-dimensional")
        rows = tuple(tuple(np.flatnonzero(r).tolist()) for r in mask)
        return cls(mask.shape[1], rows)

    @property
    def r(self) -> int | None:
        """Common row support size, or None if rows differ in size."""
        sizes = {len(row) for row in self.rows}
        return sizes.pop() if len(sizes) == 1 else None

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)

    def mask(self) -> np.ndarray:
        """Boolean (q, p) mask with True where Omega may be nonzero."""
        m = np.zeros((self.q, self.p), dtype=bool)
        for k, row in enumerate(self.rows):
            m[k, list(row)] = True
        return m

    def offsets(self) -> np.ndarray:
        """Prefix offsets of each row's support in the flat nonzero layout."""
        return np.concatenate(([0], np.cumsum([len(r) for r in self.rows])))


@dataclass(frozen=True)
class EpisodeEncoding:
    """One episode's affine map, with Omega materialized densely."""

    omega: np.ndarray  # (layers*q, p)
    beta: np.ndarray  # (layers*q,)


@dataclass(frozen=True)
class QksMachine:
    """A sampled bank of E random episode encodings for one template.

    ``omega`` stores only the nonzero entries, shape (E, layers, nnz), laid
    out row by row per the structure's offsets, so it fixes ``episodes``
    and ``layers``; ``beta`` must have shape (E, layers*q). Machines are
    built by :func:`sample_machine`.
    """

    template: CircuitTemplate
    structure: EncodingStructure
    sigma: float
    seed: int
    omega: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)

    def __post_init__(self):
        nnz = self.structure.nnz
        if self.omega.ndim != 3 or self.omega.shape[2] != nnz:
            raise ValueError(
                f"omega must have shape (E, layers, {nnz}), got {self.omega.shape}"
            )
        beta_shape = (self.episodes, self.num_params)
        if self.beta.shape != beta_shape:
            raise ValueError(
                f"omega of shape {self.omega.shape} needs beta of shape "
                f"{beta_shape}, got {self.beta.shape}"
            )

    @property
    def episodes(self) -> int:
        return self.omega.shape[0]

    @cached_property
    def max_abs_omega(self) -> float:
        """max|omega| over every episode, 0 for none; scanned once per machine."""
        return _max_abs(self.omega)

    @property
    def layers(self) -> int:
        return self.omega.shape[1]

    @property
    def num_qubits(self) -> int:
        return self.template.num_qubits

    @property
    def num_params(self) -> int:
        """Circuit parameters per episode (template params times layers)."""
        return self.layers * self.structure.q

    def _check_episode(self, episode: int) -> int:
        """``episode`` as an int in [0, episodes).

        A float or bool raises ValueError, an integer out of range IndexError.
        """
        episode = _as_int("episode", episode)
        if not 0 <= episode < self.episodes:
            raise IndexError(f"episode {episode} out of range")
        return episode

    def encoding(self, episode: int) -> EpisodeEncoding:
        """Materialize episode e's (Omega_e, beta_e) as dense arrays."""
        episode = self._check_episode(episode)
        # The mask's True cells, row-major, are the flat nonzero layout.
        dense = np.zeros((self.layers, self.structure.q, self.structure.p))
        dense[:, self.structure.mask()] = self.omega[episode]
        omega = dense.reshape(self.num_params, self.structure.p)
        return EpisodeEncoding(omega, self.beta[episode].copy())

    def encode(self, u: np.ndarray, episode: int) -> np.ndarray:
        """theta = Omega_e u + beta_e for one input vector ``u`` of p finite
        real numbers."""
        episode = self._check_episode(episode)
        u = _as_reals("u", u, (self.structure.p,))
        sl, theta = slice(episode, episode + 1), np.empty((1, 1, self.num_params))
        return self._encode_into(u[np.newaxis], sl, theta)[0, 0]

    def encode_batch(
        self, inputs: np.ndarray, episode_slice: slice | None = None
    ) -> np.ndarray:
        """Parameter tensor of shape (M, E_slice, layers*q).

        ``inputs`` holds M rows of p finite real numbers. Computed tile by
        tile: for parameter k, theta[:, :, k] = inputs[:, rows[k]] @
        omega[:, layer, k-support].T + beta. Each matmul's shape depends
        only on (M, row size, episode count), never on any worker split,
        which keeps results bit-reproducible. A row that reads one
        coordinate c is the broadcast product
        ``inputs[:, c, None] * w[:, 0]`` instead: one correctly rounded
        multiply, which is the matmul's value up to the sign of a zero, and
        adding beta (>= +0) makes them equal bit for bit.
        """
        inputs = _as_reals("inputs", inputs, (None, self.structure.p))
        sl = episode_slice if episode_slice is not None else slice(0, self.episodes)
        theta = np.empty((inputs.shape[0], len(self.beta[sl]), self.num_params))
        return self._encode_into(inputs, sl, theta)

    def _encode_into(
        self, inputs: np.ndarray, episode_slice: slice, theta: np.ndarray
    ) -> np.ndarray:
        """:meth:`encode_batch` of checked ``inputs`` into ``theta``."""
        omega = self.omega[episode_slice]
        beta = self.beta[episode_slice]
        q = self.structure.q
        off = self.structure.offsets()
        for layer in range(self.layers):
            for k, row in enumerate(self.structure.rows):
                w = omega[:, layer, off[k] : off[k + 1]]  # (E, r_k)
                column = theta[:, :, layer * q + k]
                if len(row) == 1:
                    np.multiply(inputs[:, row[0], None], w[:, 0], out=column)
                else:
                    column[...] = inputs[:, list(row)] @ w.T
        theta += beta[np.newaxis, :, :]
        return theta


def _check_spec(
    template: CircuitTemplate, structure: EncodingStructure, sigma: float
) -> float:
    """``sigma`` as a float, or ValueError unless a machine can draw these.

    The structure needs one row per template parameter, and sigma must be a
    real number, not a bool or a string, that is finite and >= 0.
    """
    if structure.q != template.num_params:
        raise ValueError(
            f"structure has q={structure.q} parameters per layer but template "
            f"{template.name!r} declares {template.num_params}"
        )
    return _as_real("sigma", sigma)


def sample_machine(
    template: CircuitTemplate,
    structure: EncodingStructure,
    sigma: float,
    episodes: int,
    seed: int,
    layers: int = 1,
) -> QksMachine:
    """Draw a machine: E episodes of (Omega_e, beta_e) for the template.

    The structure's q must match the template's parameter count (per layer).
    sigma is the standard deviation of the Omega nonzeros; sigma = 0 is the
    degenerate input-independent machine; a sigma that is not a real number
    (a bool or a string), a negative or non-finite one, or one so large that
    an Omega entry overflows, is an error. The seed must be an integer (not
    a float or bool) in [0, 2**64), and ``episodes`` and ``layers``
    integers >= 1.
    """
    sigma = _check_spec(template, structure, sigma)
    episodes = _as_int("episodes", episodes, low=1)
    layers = _as_int("layers", layers, low=1)

    omega_rng = _substream(seed, TAG_OMEGA)
    beta_rng = _substream(seed, TAG_BETA)
    omega = omega_rng.normal(0.0, 1.0, size=(episodes, layers, structure.nnz))
    with np.errstate(over="ignore"):
        omega *= sigma
    if not np.isfinite(omega).all():
        raise ValueError(f"sigma {sigma:g} overflows the encoding weights")
    beta = beta_rng.uniform(0.0, TWO_PI, size=(episodes, layers * structure.q))
    return QksMachine(
        template=template,
        structure=structure,
        sigma=sigma,
        seed=int(seed),
        omega=omega,
        beta=beta,
    )


def shot_stream(seed: int, example_index: int) -> np.random.Generator:
    """Uniform-variate stream for one example's measurement shots.

    Keyed by (seed, example), with episode e consuming the e-th draw, so
    features are deterministic in (seed, example, episode) and truncating or
    extending the episode count never disturbs earlier episodes. Both keys
    are integers; a float or bool raises rather than truncating. This is the
    reference for one example; :func:`~qks.features.featurize` derives the
    same streams' keys for all its rows at once with :func:`_shot_keys`.
    """
    example_index = _as_int("example_index", example_index, low=0)
    return _substream(seed, TAG_SHOTS, example_index)


def _shot_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """The Philox keys of :func:`shot_stream` for many examples at once.

    Row k of the (len(indices), 2) uint64 result is the key that
    ``SeedSequence([seed, TAG_SHOTS, indices[k]])`` gives Philox, so a Philox
    with that key and a zero counter yields example ``indices[k]``'s shot
    stream. The hash runs in wrapping uint32 arithmetic over all indices
    together. Each index must be below 2**32: the seed's one or two words,
    the tag and the index then fill at most the pool's four words, the only
    case computed here.
    """
    seed = _as_int("seed", seed, low=0, high=(1 << 64) - 1)
    indices = np.asarray(indices, dtype=np.uint64)
    if indices.size and int(indices.max()) > _MASK32:
        raise ValueError("example indices must be below 2**32")
    n = indices.size
    words = [seed & _MASK32, seed >> 32] if seed > _MASK32 else [seed]
    entropy = [np.full(n, w, dtype=np.uint32) for w in (*words, TAG_SHOTS)]
    entropy.append(indices.astype(np.uint32))
    entropy += [np.zeros(n, dtype=np.uint32)] * (_POOL_WORDS - len(entropy))

    mult = _HASH_INIT_A

    def hashmix(value):
        nonlocal mult
        value = value ^ np.uint32(mult)
        mult = mult * _HASH_MULT_A & _MASK32
        value = value * np.uint32(mult)
        return value ^ (value >> 16)

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    # generate_state(2, np.uint64): four output words, little-endian pairs
    mult = _HASH_INIT_B
    out = []
    for word in pool:
        word = word ^ np.uint32(mult)
        mult = mult * _HASH_MULT_B & _MASK32
        word = word * np.uint32(mult)
        out.append((word ^ (word >> 16)).astype(np.uint64))
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)
