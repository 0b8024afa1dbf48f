"""The kernel a kitchen sink implies, three ways.

A random feature map defines a kernel k(u, v) = E[b_u . b_v]: the expected
inner product between the single-shot bit vectors two inputs produce in one
episode. This script computes the cnot2 kernel by

  1. brute force: dot products of actual sampled feature vectors,
  2. Monte Carlo over episodes with the exact per-episode distribution,
  3. a closed-form expression in |u - v|,

and shows all three agree. The closed form is one formula for every
template whose qubits read out as Pauli strings of its RX angles; a p9 row
checks it on nine qubits. The script finishes with the cz2 control, whose
kernel is the constant 1/2: a kernel that cannot rank any pair of inputs.
"""

import numpy as np

from qks import (
    EncodingStructure,
    closed_form_cnot2,
    closed_form_kernel,
    expected_inner,
    featurize,
    get_ansatz,
    mc_kernel,
    sample_machine,
)

SIGMA = 1.0
EPISODES = 100_000

template = get_ansatz("cnot2")
structure = EncodingStructure.split(2)
machine = sample_machine(template, structure, SIGMA, EPISODES, seed=0)

rng = np.random.default_rng(7)
pairs = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(5)]
pairs.append((pairs[0][0], pairs[0][0].copy()))  # a self pair for k(u, u)

print(f"cnot2, sigma={SIGMA}, E={EPISODES}")
print(f"{'|u-v|':>8} {'sampled':>9} {'monte carlo':>12} {'closed form':>12}")
for u, v in pairs:
    feats = featurize(machine, np.stack([u, v])).to_dense().astype(np.float64)
    sampled = float(feats[0] @ feats[1]) / EPISODES
    est = mc_kernel(machine, u, v)
    cf = closed_form_cnot2(u, v, SIGMA)
    print(f"{np.linalg.norm(u - v):8.3f} {sampled:9.4f} "
          f"{est.value:9.4f} +/- {est.stderr:.4f} {cf:12.4f}")

print("""
The closed form makes the geometry explicit: the kernel is a fixed offset
plus two Gaussian bumps in the input difference, one per qubit's share of
the encoding, so nearby inputs score high and distant ones decay to 1/2.
""")

sigmas = (0.25, 1.0, 4.0)
u, v = pairs[1]
print(f"same pair at different encoding scales (|u-v| = "
      f"{np.linalg.norm(u - v):.3f}):")
for sigma in sigmas:
    m = sample_machine(template, structure, sigma, EPISODES, seed=1)
    est = mc_kernel(m, u, v)
    cf = closed_form_cnot2(u, v, sigma)
    print(f"  sigma={sigma:<5} mc={est.value:.4f}  closed={cf:.4f}")
print("small sigma -> everything looks similar (kernel near its maximum);")
print("large sigma -> only near-identical inputs correlate.")

p9 = get_ansatz("p9")
split9 = EncodingStructure.split(9)
wide = sample_machine(p9, split9, SIGMA, EPISODES, seed=3)
u, v = rng.normal(size=(2, 9))
est = mc_kernel(wide, u, v)
cf = closed_form_kernel(p9, split9, u, v, SIGMA)
print(f"\np9, the same closed form over nine qubits' Pauli strings "
      f"(|u-v| = {np.linalg.norm(u - v):.3f}):")
print(f"  mc={est.value:.4f} +/- {est.stderr:.4f}  closed={cf:.4f}")

print("\ncz2 control (every marginal is exactly 1/2):")
control = sample_machine(get_ansatz("cz2"), structure, SIGMA, EPISODES, seed=2)
for u, v in pairs[:3]:
    est = mc_kernel(control, u, v)
    print(f"  |u-v|={np.linalg.norm(u - v):.3f}  k={est.value:.6f}")
print("a constant kernel: no pair is more similar than any other, which is")
print("why the cz2 kitchen sink cannot learn (see demo 02).")

print("\nexpected_inner on explicit outcome distributions:")
pu = np.array([0.5, 0.25, 0.125, 0.125])
pv = np.array([0.25, 0.25, 0.25, 0.25])
print(f"  k = {expected_inner(pu, pv):.6f} for hand-written p_u, p_v over "
      "two qubits")
