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
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence, Union


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
    """One gate application: kind, target qubit indices, optional angle."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: Angle | None = None

    def __post_init__(self):
        if len(self.qubits) != self.kind.num_qubits:
            raise ValueError(
                f"{self.kind.value} acts on {self.kind.num_qubits} qubit(s), "
                f"got {len(self.qubits)}"
            )
        if any(q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be non-negative")
        if len(self.qubits) == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError("two-qubit gate applied to a repeated qubit")
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
    (a gateless template still describes one idle qubit).
    """

    name: str
    params: tuple[str, ...]
    gates: tuple[GateOp, ...]
    num_qubits: int

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

    if kind is GateKind.RX:
        m = _RX_RE.match(stripped)
        if m is None:
            raise QuilParseError("malformed RX instruction", lineno, 1)
        angle_text = m.group("angle")
        angle: Angle
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
            value = _parse_angle_literal(angle_text)
            if value is None or not math.isfinite(value):
                problem = "malformed" if value is None else "non-finite"
                raise QuilParseError(
                    f"{problem} angle literal {angle_text!r}",
                    lineno,
                    stripped.find(angle_text) + 1,
                )
            angle = value
        qubit = _parse_qubit(m.group("qubit"), lineno, stripped)
        return GateOp(kind, (qubit,), angle)

    tokens = stripped.split()
    if len(tokens) != 1 + kind.num_qubits:
        raise QuilParseError(
            f"{kind.value} expects {kind.num_qubits} qubit argument(s)", lineno, 1
        )
    qubits = tuple(_parse_qubit(t, lineno, stripped) for t in tokens[1:])
    if len(qubits) == 2 and qubits[0] == qubits[1]:
        raise QuilParseError(
            f"{kind.value} applied twice to qubit {qubits[0]}", lineno, 1
        )
    return GateOp(kind, qubits)


def parse_template(source: str) -> CircuitTemplate:
    """Parse one DEFCIRCUIT definition into a :class:`CircuitTemplate`.

    Raises :class:`QuilParseError` on syntax errors, unknown gates, undeclared
    parameter references, declared-but-unused parameters, repeated qubits in a
    two-qubit gate, or a second DEFCIRCUIT in the same source.
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

    ``theta`` is matched positionally against ``template.params``; a length
    mismatch raises ValueError. The template itself is never mutated. The
    bound circuit prints, parses and simulates like any other template, at
    an empty parameter vector.
    """
    values = [float(t) for t in theta]
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
