"""Parser and instantiation for a restricted Quil circuit dialect.

A circuit source holds exactly one DEFCIRCUIT definition: a header naming the
template and its percent-prefixed parameters, followed by indented gate lines.
The gate set is RX (parameterized or literal angle), H, CNOT, and CZ; there is
no DAGGER/CONTROLLED, no classical memory, and measurement is implicit (every
qubit is read out once in the computational basis after the last gate).

Angle expressions are either a declared parameter (``%theta0``), a decimal
literal (``1.5708``), or a pi multiple (``pi``, ``pi/2``, ``2*pi``, ``-pi/4``).
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence, Union

import numpy as np


def _as_int(
    name: str, value, low: int | None = None, high: int | None = None
) -> int:
    """``value`` as an int in [low, high], each bound optional.

    A float or bool raises ValueError, where int() would truncate it, and so
    does an integer outside the bounds; both messages start with ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (low is not None and value < low) or (high is not None and value > high):
        rule = [f">= {low}"] * (low is not None)
        rule += [f"at most {high}"] * (high is not None)
        raise ValueError(f"{name} must be {' and '.join(rule)}, got {value}")
    return value


def _as_real(
    name: str, value, positive: bool = False, signed: bool = False
) -> float:
    """``value`` as a finite float >= 0, > 0 if ``positive``, of either
    sign if ``signed``.

    A bool, a string, a complex number or any other value that is not a
    real number raises ValueError, where float() would take True or "0.5",
    and so does a value out of range or past float's range; both messages
    start with ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past float's range
        x = math.inf
    if signed:
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {value}")
    elif not ((x > 0 if positive else x >= 0) and x < math.inf):  # NaN fails
        rule = ">" if positive else ">="
        raise ValueError(f"{name} must be finite and {rule} 0, got {value}")
    return x


def _as_reals(name: str, value, shape: tuple, unit: bool = False) -> np.ndarray:
    """``value`` as a float64 array of ``shape``, finite, or in [0, 1) if ``unit``.

    Each entry of ``shape`` is a length, or None for any length. Only bool,
    integer and float arrays are taken: strings, complex numbers and objects
    raise ValueError, where a float64 cast would parse "0.5" or drop an
    imaginary part, and so do a wrong shape and an entry out of range (NaN
    and inf among them); every message starts with ``name``. A float64
    array comes back as it is, not copied.
    """
    a = np.asarray(value)
    kind = a.dtype.kind
    if kind not in "biuf":
        raise ValueError(f"{name} must be real numbers, got dtype {a.dtype}")
    fits = a.shape == shape or (a.ndim == len(shape) and all(
        s is None or s == t for s, t in zip(shape, a.shape)
    ))
    if not fits:
        spec = ", ".join("any" if s is None else str(s) for s in shape)
        spec += "," * (len(shape) == 1)
        raise ValueError(
            f"{name} must be {len(shape)}-D of shape ({spec}), got shape {a.shape}"
        )
    a = a.astype(np.float64, copy=False)
    if unit:  # NaN fails both comparisons
        if a.size and not (a.min() >= 0.0 and a.max() < 1.0):
            raise ValueError(f"{name} must lie in [0, 1)")
    elif kind == "f" and not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _as_labels(y, rows: int) -> np.ndarray:
    """One 0/1 label per row, as float64.

    Entries are checked by :func:`_as_zero_one`.
    """
    y = np.asarray(y)
    if y.shape != (rows,):
        raise ValueError(
            "label count must match the number of rows: "
            f"expected {rows} labels, got shape {y.shape}"
        )
    return _as_zero_one("labels", y).astype(np.float64)


def _as_zero_one(name: str, value) -> np.ndarray:
    """``value`` as an array whose entries are bools, or integers or floats
    equal to 0 or 1.

    Any other entry (2, 0.7, NaN, a string, a complex number or an object)
    raises ValueError, whose message starts with ``name``, where a bool
    cast would read 0.7 as True and an integer cast truncate it to 0.
    """
    a = np.asarray(value)
    if a.dtype.kind not in "biuf" or not np.isin(a, (0, 1)).all():
        raise ValueError(f"{name} must be 0 or 1")
    return a


class QuilParseError(ValueError):
    """Syntax or semantic error in circuit source, with a 1-based position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class GateKind(Enum):
    RX = "RX"
    H = "H"
    CNOT = "CNOT"
    CZ = "CZ"

    @property
    def num_qubits(self) -> int:
        return 2 if self in (GateKind.CNOT, GateKind.CZ) else 1

    @property
    def takes_angle(self) -> bool:
        return self is GateKind.RX


@dataclass(frozen=True)
class ParamRef:
    """Reference to a declared template parameter (``%name`` in source)."""

    name: str


Angle = Union[float, ParamRef]


@dataclass(frozen=True)
class GateOp:
    """One gate application: kind, target qubit indices, optional angle.

    Each qubit index is an integer >= 0 (a float or bool raises), stored as a
    Python int. The gate takes exactly ``kind.num_qubits`` of them, and a
    two-qubit gate two distinct ones; otherwise ValueError says the gate
    ``expects N qubit argument(s)`` or was ``applied twice to qubit Q``. RX
    needs a finite angle or a parameter reference; other gates take none.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    angle: Angle | None = None

    def __post_init__(self):
        qubits = tuple(_as_int("qubit index", q, low=0) for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        name, arity = self.kind.value, self.kind.num_qubits
        if len(qubits) != arity:
            raise ValueError(
                f"{name} expects {arity} qubit argument(s), got {len(qubits)}"
            )
        if arity == 2 and qubits[0] == qubits[1]:
            raise ValueError(f"{name} applied twice to qubit {qubits[0]}")
        if self.kind.takes_angle:
            if self.angle is None:
                raise ValueError(f"{self.kind.value} requires an angle")
            if isinstance(self.angle, float) and not math.isfinite(self.angle):
                raise ValueError(
                    f"{self.kind.value} angle must be finite, got {self.angle}"
                )
        elif self.angle is not None:
            raise ValueError(f"{self.kind.value} takes no angle")


@dataclass(frozen=True)
class CircuitTemplate:
    """A parsed DEFCIRCUIT: named, with ordered parameters and gates.

    ``num_qubits`` is one past the highest qubit index referenced by any gate
    (a gateless template still describes one idle qubit). Templates with
    equal fields are equal; the hash is computed once, at construction, since
    every :func:`~qks.simulator.cached_engine` lookup hashes the template.
    """

    name: str
    params: tuple[str, ...]
    gates: tuple[GateOp, ...]
    num_qubits: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fields = (self.name, self.params, self.gates, self.num_qubits)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: str hashes differ between processes, so
        # a pickled _hash would be stale in another one.
        return CircuitTemplate, (self.name, self.params, self.gates, self.num_qubits)

    @property
    def num_params(self) -> int:
        return len(self.params)


_HEADER_RE = re.compile(
    r"^DEFCIRCUIT\s+(?P<name>[A-Za-z_][A-Za-z0-9_-]*)\s*"
    r"(?:\((?P<params>[^)]*)\))?\s*:\s*$"
)
_PARAM_RE = re.compile(r"^%([A-Za-z_][A-Za-z0-9_]*)$")
_RX_RE = re.compile(r"^RX\s*\(\s*(?P<angle>[^)]*?)\s*\)\s+(?P<qubit>\S+)$")
_PI_RE = re.compile(
    r"^(?P<sign>-)?(?:(?P<num>\d+(?:\.\d+)?)\s*\*\s*)?pi"
    r"(?:\s*/\s*(?P<den>\d+(?:\.\d+)?))?$",
    re.IGNORECASE,
)


def _parse_angle_literal(text: str) -> float | None:
    """Parse a decimal or pi-multiple literal; None if it is neither.

    The value may be non-finite (``nan``, ``inf``, ``1e309``, ``pi/0``).
    """
    m = _PI_RE.match(text)
    if m:
        sign = -1.0 if m.group("sign") else 1.0
        num = float(m.group("num")) if m.group("num") else 1.0
        den = float(m.group("den")) if m.group("den") else 1.0
        return sign * num * math.pi / den if den else math.inf
    try:
        return float(text)
    except ValueError:
        return None


def _parse_qubit(token: str, lineno: int, line: str) -> int:
    if not token.isdigit():
        raise QuilParseError(
            f"expected a qubit index, got {token!r}",
            lineno,
            line.find(token) + 1,
        )
    return int(token)


def _parse_gate_line(
    stripped: str, lineno: int, declared: tuple[str, ...], referenced: set[str]
) -> GateOp:
    head = stripped.split(None, 1)[0]
    gate_name = head.split("(", 1)[0]
    if gate_name not in GateKind.__members__:
        raise QuilParseError(f"unknown gate {gate_name!r}", lineno, 1)
    kind = GateKind[gate_name]

    angle: Angle | None = None
    if kind is GateKind.RX:
        m = _RX_RE.match(stripped)
        if m is None:
            raise QuilParseError("malformed RX instruction", lineno, 1)
        angle_text = m.group("angle")
        if angle_text.startswith("%"):
            pm = _PARAM_RE.match(angle_text)
            if pm is None:
                raise QuilParseError(
                    f"malformed parameter reference {angle_text!r}",
                    lineno,
                    stripped.find(angle_text) + 1,
                )
            if pm.group(1) not in declared:
                raise QuilParseError(
                    f"parameter %{pm.group(1)} referenced but not declared",
                    lineno,
                    stripped.find(angle_text) + 1,
                )
            referenced.add(pm.group(1))
            angle = ParamRef(pm.group(1))
        else:
            angle = _parse_angle_literal(angle_text)
            if angle is None or not math.isfinite(angle):
                problem = "malformed" if angle is None else "non-finite"
                raise QuilParseError(
                    f"{problem} angle literal {angle_text!r}",
                    lineno,
                    stripped.find(angle_text) + 1,
                )
        tokens = [m.group("qubit")]
    else:
        tokens = stripped.split()[1:]
    qubits = tuple(_parse_qubit(t, lineno, stripped) for t in tokens)
    try:
        return GateOp(kind, qubits, angle)
    except ValueError as exc:
        raise QuilParseError(str(exc), lineno, 1) from exc


def parse_template(source: str) -> CircuitTemplate:
    """Parse one DEFCIRCUIT definition into a :class:`CircuitTemplate`.

    Raises :class:`QuilParseError` on syntax errors, unknown gates, undeclared
    parameter references, declared-but-unused parameters, a gate that
    :class:`GateOp` rejects (a wrong qubit count or a repeated qubit, with
    GateOp's message), or a second DEFCIRCUIT in the same source.
    """
    lines = source.replace("\r\n", "\n").split("\n")

    header_idx = None
    for i, raw in enumerate(lines):
        if raw.strip() == "" or raw.lstrip().startswith("#"):
            continue
        header_idx = i
        break
    if header_idx is None:
        raise QuilParseError("empty source: expected a DEFCIRCUIT header", 1)

    header = lines[header_idx]
    if header[:1].isspace():
        raise QuilParseError("DEFCIRCUIT header must not be indented", header_idx + 1)
    m = _HEADER_RE.match(header.rstrip())
    if m is None:
        raise QuilParseError("malformed DEFCIRCUIT header", header_idx + 1)
    name = m.group("name")

    params: list[str] = []
    raw_params = m.group("params")
    if raw_params is not None and raw_params.strip():
        for piece in raw_params.split(","):
            piece = piece.strip()
            pm = _PARAM_RE.match(piece)
            if pm is None:
                raise QuilParseError(
                    f"malformed parameter declaration {piece!r}",
                    header_idx + 1,
                    header.find(piece) + 1 if piece else 1,
                )
            if pm.group(1) in params:
                raise QuilParseError(
                    f"duplicate parameter %{pm.group(1)}", header_idx + 1
                )
            params.append(pm.group(1))

    declared = tuple(params)
    referenced: set[str] = set()
    gates: list[GateOp] = []
    for offset, raw in enumerate(lines[header_idx + 1 :], start=header_idx + 2):
        if raw.strip() == "" or raw.lstrip().startswith("#"):
            continue
        if not raw[:1].isspace():
            if raw.lstrip().startswith("DEFCIRCUIT"):
                raise QuilParseError(
                    "only one DEFCIRCUIT is allowed per source", offset
                )
            raise QuilParseError("gate lines must be indented", offset)
        stripped = raw.strip()
        gates.append(_parse_gate_line(stripped, offset, declared, referenced))

    unused = [p for p in declared if p not in referenced]
    if unused:
        raise QuilParseError(
            f"parameter %{unused[0]} declared but never referenced", header_idx + 1
        )

    num_qubits = 1 + max((q for g in gates for q in g.qubits), default=0)
    return CircuitTemplate(name, declared, tuple(gates), num_qubits)


def _format_angle(angle: Angle) -> str:
    if isinstance(angle, ParamRef):
        return f"%{angle.name}"
    return repr(angle)


def to_quil(template: CircuitTemplate) -> str:
    """Pretty-print a template back to canonical source text.

    The output reparses to a structurally identical template.
    """
    header = f"DEFCIRCUIT {template.name}"
    if template.params:
        header += "(" + ", ".join(f"%{p}" for p in template.params) + ")"
    header += ":"
    body = []
    for g in template.gates:
        if g.kind is GateKind.RX:
            body.append(f"    RX({_format_angle(g.angle)}) {g.qubits[0]}")
        else:
            body.append(f"    {g.kind.value} " + " ".join(str(q) for q in g.qubits))
    return "\n".join([header] + body) + "\n"


def instantiate(
    template: CircuitTemplate, theta: Sequence[float]
) -> CircuitTemplate:
    """Bind parameter values to a template, returning one with no parameters.

    ``theta`` holds finite real numbers, matched positionally against
    ``template.params``; anything else raises ValueError, as does a length
    mismatch. The template itself is never mutated. The bound circuit
    prints, parses and simulates like any other template, at an empty
    parameter vector.
    """
    values = _as_reals("theta", theta, (None,)).tolist()
    if len(values) != template.num_params:
        raise ValueError(
            f"template {template.name!r} takes {template.num_params} "
            f"parameter(s), got {len(values)}"
        )
    binding = dict(zip(template.params, values))
    bound = tuple(
        replace(g, angle=binding[g.angle.name])
        if isinstance(g.angle, ParamRef)
        else g
        for g in template.gates
    )
    return CircuitTemplate(template.name, (), bound, template.num_qubits)
