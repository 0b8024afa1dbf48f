"""Parser, pretty-printer, and instantiation tests."""

import math

import numpy as np
import pytest

from qks import (
    CircuitTemplate,
    GateKind,
    GateOp,
    ParamRef,
    QuilParseError,
    ansatz_names,
    exact_probabilities,
    get_ansatz,
    instantiate,
    parse_template,
    to_quil,
)
from qks.simulator import cached_engine

CNOT2_SRC = """\
DEFCIRCUIT CNOT2(%theta0, %theta1):
    RX(%theta0) 0
    RX(%theta1) 1
    CNOT 0 1
"""


def gate_counts(template):
    counts = {}
    for g in template.gates:
        counts[g.kind] = counts.get(g.kind, 0) + 1
    return counts


def test_parse_basic_structure():
    t = parse_template(CNOT2_SRC)
    assert t.name == "CNOT2"
    assert t.params == ("theta0", "theta1")
    assert t.num_qubits == 2
    assert [g.kind for g in t.gates] == [GateKind.RX, GateKind.RX, GateKind.CNOT]
    assert t.gates[0].angle == ParamRef("theta0")
    assert t.gates[2].qubits == (0, 1)


def test_builtin_gate_counts():
    expected = {
        "rx1": ({GateKind.RX: 1}, 1),
        "cnot2": ({GateKind.RX: 2, GateKind.CNOT: 1}, 2),
        "cz2": ({GateKind.RX: 2, GateKind.CZ: 1, GateKind.H: 2}, 2),
        "p4": ({GateKind.RX: 4, GateKind.CNOT: 4}, 4),
        "p9": ({GateKind.RX: 9, GateKind.CNOT: 12}, 9),
        "p16": ({GateKind.RX: 16, GateKind.CNOT: 24}, 16),
    }
    assert set(ansatz_names()) == set(expected)
    for name, (counts, qubits) in expected.items():
        t = get_ansatz(name)
        assert gate_counts(t) == counts, name
        assert t.num_qubits == qubits, name
        assert t.num_params == counts[GateKind.RX], name


def test_one_rotation_per_qubit_in_presets():
    for name in ("p4", "p9", "p16"):
        t = get_ansatz(name)
        rx_qubits = [g.qubits[0] for g in t.gates if g.kind is GateKind.RX]
        assert rx_qubits == list(range(t.num_qubits))
        # rotation k reads parameter k
        rx_params = [g.angle.name for g in t.gates if g.kind is GateKind.RX]
        assert rx_params == list(t.params)


@pytest.mark.parametrize("name", ["rx1", "cnot2", "cz2", "p4", "p9", "p16"])
def test_roundtrip_builtin(name):
    t = get_ansatz(name)
    assert parse_template(to_quil(t)) == t


def test_roundtrip_literal_angles():
    src = "DEFCIRCUIT LIT:\n    RX(pi/2) 0\n    RX(-0.25) 1\n    CZ 0 1\n"
    t = parse_template(src)
    assert t.params == ()
    assert t.gates[0].angle == pytest.approx(math.pi / 2)
    assert t.gates[1].angle == -0.25
    assert parse_template(to_quil(t)) == t


@pytest.mark.parametrize(
    "text,value",
    [
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("2*pi", 2 * math.pi),
        ("-pi/4", -math.pi / 4),
        ("2*pi/3", 2 * math.pi / 3),
        ("1.5", 1.5),
        ("-2e-3", -2e-3),
        ("0", 0.0),
    ],
)
def test_angle_literals(text, value):
    t = parse_template(f"DEFCIRCUIT A:\n    RX({text}) 0\n")
    assert t.gates[0].angle == pytest.approx(value, abs=1e-15)


def test_identity_template():
    t = parse_template("DEFCIRCUIT ID:\n")
    assert t.name == "ID"
    assert t.params == ()
    assert t.gates == ()
    assert t.num_qubits == 1
    assert parse_template(to_quil(t)) == t


def test_comments_and_blank_lines():
    src = (
        "# leading comment\n\n"
        "DEFCIRCUIT C(%a):\n"
        "    # body comment\n"
        "    RX(%a) 0\n"
        "\n"
        "    H 1\n"
    )
    t = parse_template(src)
    assert len(t.gates) == 2
    assert t.num_qubits == 2


@pytest.mark.parametrize(
    "src,fragment,line",
    [
        ("", "empty source", 1),
        ("DEFCIRCUIT :\n", "malformed DEFCIRCUIT", 1),
        ("CIRCUIT X:\n", "malformed DEFCIRCUIT", 1),
        ("DEFCIRCUIT X(%a):\n    RY(%a) 0\n", "unknown gate", 2),
        ("DEFCIRCUIT X:\n    RX(%a) 0\n", "referenced but not declared", 2),
        ("DEFCIRCUIT X(%a):\n    H 0\n", "declared but never referenced", 1),
        ("DEFCIRCUIT X:\n    CNOT 1 1\n", "applied twice", 2),
        ("DEFCIRCUIT X:\n    CZ 2 2\n", "applied twice", 2),
        ("DEFCIRCUIT X:\n    H 0\nDEFCIRCUIT Y:\n    H 0\n", "one DEFCIRCUIT", 3),
        ("DEFCIRCUIT X:\nH 0\n", "must be indented", 2),
        ("DEFCIRCUIT X:\n    H zero\n", "qubit index", 2),
        ("DEFCIRCUIT X:\n    CNOT 0\n", "qubit argument", 2),
        ("DEFCIRCUIT X(%a, %a):\n    RX(%a) 0\n", "duplicate parameter", 1),
        ("DEFCIRCUIT X(a):\n    RX(%a) 0\n", "malformed parameter", 1),
        ("DEFCIRCUIT X:\n    RX(oops) 0\n", "malformed angle", 2),
        ("DEFCIRCUIT X:\n    RX(nan) 0\n", "non-finite angle", 2),
        ("DEFCIRCUIT X:\n    RX(inf) 0\n", "non-finite angle", 2),
        ("DEFCIRCUIT X:\n    RX(1e309) 0\n", "non-finite angle", 2),
        ("DEFCIRCUIT X:\n    RX(-pi/0) 0\n", "non-finite angle", 2),
        ("DEFCIRCUIT X:\n    RX(1.0 0\n", "malformed RX", 2),
        ("DEFCIRCUIT X:\n    H -1\n", "qubit index", 2),
    ],
)
def test_parse_errors(src, fragment, line):
    with pytest.raises(QuilParseError) as exc_info:
        parse_template(src)
    assert fragment in str(exc_info.value)
    assert exc_info.value.line == line


def test_non_finite_angles_are_rejected():
    with pytest.raises(QuilParseError) as exc_info:
        parse_template("DEFCIRCUIT A:\n    RX(nan) 0\n")
    assert (exc_info.value.line, exc_info.value.column) == (2, 4)
    with pytest.raises(ValueError, match="finite"):
        GateOp(GateKind.RX, (0,), math.inf)
    t = parse_template("DEFCIRCUIT A(%a):\n    RX(%a) 0\n")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            instantiate(t, [bad])


def test_error_carries_position():
    err = QuilParseError("boom", 3, 7)
    assert err.line == 3 and err.column == 7
    assert "line 3" in str(err) and "column 7" in str(err)


def test_instantiate_binds_in_order():
    t = parse_template(CNOT2_SRC)
    c = instantiate(t, [0.5, 1.5])
    assert c.gates[0].angle == 0.5
    assert c.gates[1].angle == 1.5
    assert c.gates[2] == t.gates[2]
    assert c.num_qubits == 2


def test_instantiate_is_pure():
    t = parse_template(CNOT2_SRC)
    before = t.gates
    instantiate(t, [0.1, 0.2])
    assert t.gates == before
    assert isinstance(t.gates[0].angle, ParamRef)


def test_instantiate_arity_mismatch():
    t = get_ansatz("p9")
    for bad in ([], [0.0] * 8, [0.0] * 10):
        with pytest.raises(ValueError, match="9 parameter"):
            instantiate(t, bad)


def test_instantiate_literal_template():
    t = parse_template("DEFCIRCUIT L:\n    RX(pi) 0\n")
    c = instantiate(t, [])
    assert c.gates[0].angle == pytest.approx(math.pi)


@pytest.mark.parametrize("name", ansatz_names())
def test_bound_circuit_is_a_template(name):
    t = get_ansatz(name)
    rng = np.random.default_rng(7)
    thetas = rng.uniform(-2 * np.pi, 2 * np.pi, (5, t.num_params))
    uniforms = rng.random(5)
    for theta in thetas:
        c = instantiate(t, theta)
        assert isinstance(c, CircuitTemplate) and c.params == ()
        assert parse_template(to_quil(c)) == c
        assert np.array_equal(
            exact_probabilities(c, []), exact_probabilities(t, theta)
        )
    bound = [cached_engine(instantiate(t, theta)) for theta in thetas]
    shots = [e.sample(np.empty((1, 0)), uniforms[i : i + 1])[0]
             for i, e in enumerate(bound)]
    assert shots == cached_engine(t).sample(thetas, uniforms).tolist()


def test_out_of_order_qubits_set_width():
    t = parse_template("DEFCIRCUIT W:\n    H 5\n    H 2\n")
    assert t.num_qubits == 6
