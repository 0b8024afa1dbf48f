"""Single-shot feature extraction and the bit-packed feature matrix.

Row i of a feature matrix stacks one measured bit pattern per episode:
column e * num_qubits + j holds qubit j's outcome from episode e, so a
machine with E episodes on an n-qubit template yields E * n binary columns.
Rows are stored packed, 64 columns per little-endian uint64 word; the bits
past the last column of each row's last word are zero.

On-disk format (``.qksf``): a 16-byte header (magic ``QKSF``, little-endian
u32 version, u64 row count) followed by the packed words row-major in
little-endian byte order, plus a ``<path>.json`` sidecar. The sidecar
records its format (``"QKSF"``) and version and, as JSON integers, the
matrix geometry (rows, columns, episodes, num_qubits) at its top level. Its
``machine`` object, the matrix's ``meta``, describes the machine that
produced the bits: template, sigma, seed, layers and structure.
A :class:`FeatureMatrix` holds its geometry once: rows from ``packed``,
``num_qubits`` and ``episodes`` as fields, and ``num_columns`` derived from
them, never in ``meta``. The constructor rejects set padding bits, so a
file that has them fails to load, as does one whose sidecar's columns are
not episodes x num_qubits.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import DataFormatError
from .encoding import QksMachine, _shot_keys
from .quil import _as_int, _as_reals
from .simulator import _run_blocks, _workspace, cached_engine, outcome_bits

MAGIC = b"QKSF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQ")

# Fixed row-block size for featurization. Work is split into these blocks
# regardless of the worker count, so every arithmetic call sees identical
# operand shapes whether one thread or eight consume the task list.
ROW_BLOCK = 64

if sys.byteorder != "little":  # pragma: no cover
    raise ImportError("packed feature matrices require a little-endian host")


class FeatureFileError(ValueError):
    """Corrupt or unreadable feature file."""


@dataclass(frozen=True)
class FeatureMatrix:
    """Bit-packed binary features: rows = examples, columns = episode bits.

    The geometry is ``packed``'s row count, ``num_qubits`` and ``episodes``,
    both integers >= 1 (a float or bool raises); ``num_columns`` is
    episodes * num_qubits. The bits past the last column are zero, since
    :meth:`equals` compares whole words; a set one raises ValueError.
    ``meta``, when present, describes the machine, not the geometry.
    """

    packed: np.ndarray  # (rows, words) uint64
    num_qubits: int
    episodes: int
    meta: dict | None = None

    def __post_init__(self):
        for name in ("num_qubits", "episodes"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name), low=1))
        if self.packed.dtype != np.uint64 or self.packed.ndim != 2:
            raise ValueError("packed storage must be a 2-D uint64 array")
        if self.packed.shape[1] != _words_for(self.num_columns):
            raise ValueError("packed width does not match the column count")
        tail = self.num_columns % 64
        if tail and (self.packed[:, -1] >> np.uint64(tail)).any():
            raise ValueError(
                f"padding bits past column {self.num_columns} are set")

    @property
    def rows(self) -> int:
        return self.packed.shape[0]

    @property
    def num_columns(self) -> int:
        return self.episodes * self.num_qubits

    def to_dense(self) -> np.ndarray:
        """Unpack to a (rows, num_columns) uint8 array of 0/1 values."""
        return _unpack_rows(self.packed, self.num_columns)

    def truncate(self, episodes: int) -> "FeatureMatrix":
        """Keep only the first ``episodes`` episodes' columns.

        Valid because the column layout is episode-major: episode e's bits
        occupy columns [e*num_qubits, (e+1)*num_qubits). The leading words
        are copied, and the bits past the new last column cleared.
        ``episodes`` must be an integer in [1, self.episodes], not a float
        or bool.
        """
        episodes = _as_int("episodes", episodes, low=1, high=self.episodes)
        if episodes == self.episodes:
            return self
        cols = episodes * self.num_qubits
        packed = self.packed[:, :_words_for(cols)].copy()
        if cols % 64:
            packed[:, -1] &= np.uint64((1 << (cols % 64)) - 1)
        return FeatureMatrix(packed, self.num_qubits, episodes, self.meta)

    def equals(self, other: "FeatureMatrix") -> bool:
        return (
            self.num_qubits == other.num_qubits
            and self.episodes == other.episodes
            and np.array_equal(self.packed, other.packed)
        )


def _words_for(columns: int) -> int:
    return (columns + 63) // 64


def _unpack_rows(packed: np.ndarray, columns: int) -> np.ndarray:
    """Unpack (m, words) uint64 rows to an (m, columns) uint8 array of 0/1."""
    return np.unpackbits(
        packed.view(np.uint8), axis=1, count=columns, bitorder="little"
    )


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack (m, C) 0/1 rows into (m, ceil(C/64)) uint64 words, LSB first."""
    m, c = bits.shape
    by = np.packbits(bits, axis=1, bitorder="little")
    width = _words_for(c) * 8
    if by.shape[1] < width:
        by = np.pad(by, ((0, 0), (0, width - by.shape[1])))
    return np.ascontiguousarray(by).view(np.uint64)


def _pack_indices(z: np.ndarray, num_qubits: int, out: np.ndarray) -> None:
    """Pack outcome indices into the (m, words) uint64 rows of ``out``.

    ``z`` holds m rows of E indices below 2**num_qubits, row-major, uint8
    up to 8 qubits and uint16 above (as ``featurize`` samples them). A packed
    row is its indices laid end to end, least significant bit first, with
    zeros past the last column: ``_pack_rows`` of their ``outcome_bits``.
    Widths 1, 2 and 4 OR 8 // n shifted indices into each byte, widths 8
    and 16 cast them into the row's bytes or 16-bit words, and any other
    width packs their bits.
    """
    n, m = num_qubits, out.shape[0]
    z = z.reshape(m, -1)
    e = z.shape[1]
    if n in (8, 16):
        lanes = out.view(np.uint8 if n == 8 else "<u2")
        lanes[:, :e] = z
        lanes[:, e:] = 0
    elif 8 % n == 0:
        per = 8 // n
        by = out.view(np.uint8)
        # Lane k of byte c holds index c * per + k; lane 0 sets every byte.
        used = -(-e // per)
        by[:, :used] = z[:, ::per]
        shifted = _workspace.array("shifted", (m, used), np.uint8)
        for k in range(1, per):
            lane = z[:, k::per]
            c = lane.shape[1]
            np.left_shift(lane, k * n, out=shifted[:, :c])
            by[:, :c] |= shifted[:, :c]
        by[:, used:] = 0
    else:
        out[...] = _pack_rows(outcome_bits(z.reshape(-1), n).reshape(m, e * n))


def featurize(
    machine: QksMachine, inputs: np.ndarray, workers: int = 1
) -> FeatureMatrix:
    """Measure every (example, episode) pair once and pack the bits.

    Deterministic in (machine.seed, example index, episode index): the shot
    for example i, episode e consumes the e-th variate of a stream keyed by
    (seed, i), so worker count, row order within a call, and the machine's
    total episode count never change a bit that both runs produce.
    ``inputs`` holds rows of p finite real numbers, and ``workers``, the
    number of threads, the calling thread among them, is an integer >= 1
    (not a bool); blocks of ``ROW_BLOCK`` rows go to min(workers, blocks)
    threads.

    Raises :class:`DataFormatError` naming the first input row whose encoding
    is not finite, as when ``sigma * x`` overflows for a large finite x.
    """
    x = _as_reals("inputs", inputs, (None, machine.structure.p))
    x = np.ascontiguousarray(x)
    workers = _as_int("workers", workers, low=1)

    m = x.shape[0]
    n_eps = machine.episodes
    n_q = machine.num_qubits
    columns = n_eps * n_q
    out = np.empty((m, _words_for(columns)), dtype=np.uint64)
    engine = cached_engine(machine.template, machine.layers)
    index_dtype = np.uint8 if n_q <= 8 else np.uint16
    keys = _shot_keys(machine.seed, np.arange(m))

    def process_block(start: int) -> None:
        stop = min(start + ROW_BLOCK, m)
        block = stop - start
        # The block's arrays are in the thread's workspace, as are the
        # engine's, so a warm thread takes no fresh pages.
        thetas = _workspace.array("thetas", (block, n_eps, machine.num_params))
        with np.errstate(over="ignore", invalid="ignore"):
            machine._encode_into(x[start:stop], slice(0, n_eps), thetas)
        finite = np.isfinite(
            thetas, out=_workspace.array("finite", thetas.shape, bool)
        ).all(axis=(1, 2))
        if not finite.all():
            row = start + int(np.argmin(finite))
            raise DataFormatError(
                f"input row {row}: encoding is not finite at sigma "
                f"{machine.sigma:g}; the inputs are too large for this machine"
            )
        # Row i's uniforms are shot_stream(seed, start + i)'s: its key and a
        # zero counter, set on one generator per block.
        bitgen = np.random.Philox(key=keys[start])
        rng = np.random.Generator(bitgen)
        state = bitgen.state
        uniforms = _workspace.array("uniforms", (block, n_eps))
        for i in range(block):
            state["state"]["key"] = keys[start + i]
            bitgen.state = state
            rng.random(out=uniforms[i])
        # theta is finite and the uniforms are in [0, 1), so the engine's checks
        # are skipped.
        z = engine._sample(
            thetas.reshape(block * n_eps, machine.num_params),
            uniforms.reshape(-1),
            _workspace.array("outcomes", (block * n_eps,), index_dtype),
        )
        _pack_indices(z, n_q, out[start:stop])

    _run_blocks(process_block, range(0, m, ROW_BLOCK), workers)

    meta = {
        "template": machine.template.name,
        "sigma": machine.sigma,
        "seed": machine.seed,
        "layers": machine.layers,
        "structure": {
            "pattern": machine.structure.pattern,
            "p": machine.structure.p,
            "q": machine.structure.q,
            "rows": [list(r) for r in machine.structure.rows],
        },
    }
    return FeatureMatrix(out, n_q, n_eps, meta)


def _sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".json")


def save_features(fm: FeatureMatrix, path: str | Path) -> None:
    """Write the packed matrix and its JSON sidecar."""
    path = Path(path)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, fm.rows)
    payload = np.ascontiguousarray(fm.packed).astype("<u8").tobytes()
    path.write_bytes(header + payload)
    sidecar = {
        "format": "QKSF",
        "version": FORMAT_VERSION,
        "rows": fm.rows,
        "columns": fm.num_columns,
        "num_qubits": fm.num_qubits,
        "episodes": fm.episodes,
    }
    if fm.meta:
        sidecar["machine"] = fm.meta
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2) + "\n")


# Sidecar fields that give the matrix geometry, each a JSON integer.
_GEOMETRY = ("rows", "columns", "num_qubits", "episodes")


def load_features(path: str | Path) -> FeatureMatrix:
    """Read a packed matrix written by :func:`save_features`."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FeatureFileError(f"{path}: truncated header")
    magic, version, rows = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FeatureFileError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FeatureFileError(f"{path}: unsupported version {version}")

    sidecar_file = _sidecar_path(path)
    if not sidecar_file.exists():
        raise FeatureFileError(f"{path}: missing sidecar {sidecar_file.name}")
    try:
        sidecar = json.loads(sidecar_file.read_text())
        fields = [sidecar[key] for key in _GEOMETRY]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise FeatureFileError(f"{sidecar_file}: malformed sidecar: {exc}") from exc
    # bool is a subclass of int, and json.loads reads 3.0 as a float.
    fmt, fmt_version = sidecar.get("format"), sidecar.get("version")
    if (fmt != "QKSF" or type(fmt_version) is not int
            or fmt_version != FORMAT_VERSION):
        raise FeatureFileError(
            f"{sidecar_file}: expected format 'QKSF' version {FORMAT_VERSION}, "
            f"got {fmt!r} version {fmt_version!r}"
        )
    for key, value in zip(_GEOMETRY, fields):
        if type(value) is not int:
            raise FeatureFileError(
                f"{sidecar_file}: {key} must be a JSON integer, got {value!r}"
            )
    sidecar_rows, columns, num_qubits, episodes = fields

    if sidecar_rows != rows:
        raise FeatureFileError(
            f"{path}: header has {rows} rows, sidecar {sidecar_rows}"
        )
    if episodes < 1 or num_qubits < 1:
        raise FeatureFileError(
            f"{sidecar_file}: episodes and num_qubits must be >= 1, got "
            f"{episodes} and {num_qubits}"
        )
    if columns != episodes * num_qubits:
        raise FeatureFileError(
            f"{sidecar_file}: {columns} columns != {episodes} episodes x "
            f"{num_qubits} qubits"
        )
    words = _words_for(columns)
    expected = _HEADER.size + rows * words * 8
    if len(raw) != expected:
        raise FeatureFileError(
            f"{path}: expected {expected} bytes for {rows} rows x "
            f"{columns} columns, found {len(raw)}"
        )
    packed = (
        np.frombuffer(raw, dtype="<u8", offset=_HEADER.size)
        .reshape(rows, words)
        .astype(np.uint64)
    )
    meta = sidecar.get("machine")
    if meta is not None and not isinstance(meta, dict):
        raise FeatureFileError(f"{sidecar_file}: machine must be an object")
    try:
        return FeatureMatrix(packed, num_qubits, episodes, meta)
    except ValueError as exc:  # only set padding bits are left to raise
        raise FeatureFileError(f"{path}: {exc}") from exc
