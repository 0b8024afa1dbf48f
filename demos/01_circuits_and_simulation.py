"""Tour of the circuit layer: parsing, instantiation, simulation, sampling.

Everything downstream (feature maps, kernels, classifiers) sits on top of
these four steps, so this script walks through them one at a time.
"""

import numpy as np

from qks import (
    ansatz_names,
    ansatz_source,
    exact_probabilities,
    get_ansatz,
    instantiate,
    parse_template,
    run_circuit,
    run_episode,
    sample_shot,
    to_quil,
)


def section(title):
    print()
    print(title)
    print("-" * len(title))


section("1. Parse a parameterized circuit")

source = """\
DEFCIRCUIT BELLISH(%a, %b):
    RX(%a) 0
    RX(%b) 1
    CNOT 0 1
    H 0
"""
template = parse_template(source)
print(f"name={template.name}  params={template.params}  "
      f"qubits={template.num_qubits}  gates={len(template.gates)}")
print("canonical form:")
print(to_quil(template))

section("2. Bind parameters and inspect the state")

theta = [np.pi / 2, np.pi / 4]
circuit = instantiate(template, theta)
state = run_circuit(circuit.gates, circuit.num_qubits)
print(f"theta = {theta}")
print("bound circuit, a template with no parameters:")
print(to_quil(circuit))
print("amplitudes (basis order |q1 q0>):")
for idx, amp in enumerate(state.amplitudes):
    print(f"  |{idx:02b}>  {amp.real:+.4f} {amp.imag:+.4f}i")

section("3. Exact outcome distribution")

probs = exact_probabilities(template, theta)
for idx, p in enumerate(probs):
    bar = "#" * int(round(40 * p))
    print(f"  |{idx:02b}>  {p:.4f}  {bar}")
print(f"  total = {probs.sum():.12f}")

section("4. Single-shot measurement (the only thing a QKS episode keeps)")

rng = np.random.default_rng(0)
shots = [run_episode(template, theta, rng) for _ in range(12)]
print("twelve shots:", " ".join(str(s.to_array()) for s in shots))

counts = np.zeros(4, dtype=int)
n = 20_000
for _ in range(n):
    counts[sample_shot(state, rng).bits] += 1
print(f"\nempirical vs exact over {n} shots:")
for idx in range(4):
    print(f"  |{idx:02b}>  {counts[idx] / n:.4f} vs {probs[idx]:.4f}")

section("5. Built-in ansatz library")

for name in ansatz_names():
    t = get_ansatz(name)
    print(f"  {name:6s}  {t.num_qubits:2d} qubits, {t.num_params:2d} params, "
          f"{len(t.gates):2d} gates")
print()
print("cnot2 source:")
print(ansatz_source("cnot2"))
