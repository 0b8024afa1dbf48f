"""Golden fingerprints of the feature stream and of the kernel estimates.

The other feature tests only check self-consistency (worker invariance,
episode prefixes), which a change to the stream that stays consistent would
pass. These pin the exact bits: sha256 of ``featurize(...).packed`` and of the
sampled machine's ``omega``/``beta``, of ``mc_kernel``'s (value, stderr), and
of the closed-form kernel values' reprs, and of the ``.qksf`` and sidecar
files that ``qks features dump`` writes. A refactor of the encoder, the
simulator, the sampler or the kernels must leave every digest unchanged; a
change that moves one changes the features users get and has to be reported
as such, not re-pinned silently.

Run this file as a script to print the current digests; each kernel digest
is followed by the reprs it hashes, and the dump digest by the sidecars it
hashes, for quoting when one moves.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qks import (
    EncodingStructure,
    closed_form_cnot2,
    closed_form_kernel,
    featurize,
    get_ansatz,
    make_tilemap,
    mc_kernel,
    parse_template,
    sample_machine,
)
from qks.cli import main
from conftest import MIXED3, NONTRI6

# (ansatz name or Quil source, structure, layers, workers, episodes, rows,
# sigma, seed). Row counts above 64 span several featurize blocks; episode
# counts are not multiples of 32, so the last packed word of each row is
# partly filled. cnot2-tiles784 is the MNIST machine's shape: two 392-pixel
# tiles of a 28 x 28 image at sigma 0.05, on synthetic rows. The s1e3
# configs run at sigma 1000, where half angles are in the hundreds and the
# float32 screen of the sampler sends a share of episodes to its exact
# float64 redo. p16-r20e40 and nontri6 sample outcome spaces wider than 16
# from many episodes: all 16 bits of p16, and a 64-outcome template with a
# literal angle, an idle qubit and a CZ inside a CNOT run that is not
# triangular.
FEATURE_CONFIGS = {
    "cnot2-l1-w1": ("cnot2", EncodingStructure.split(2), 1, 1, 37, 70, 1.0, 11),
    "cnot2-l2-w3": ("cnot2", EncodingStructure.split(2), 2, 3, 37, 150, 0.7, 12),
    "cz2-l1-w3": ("cz2", EncodingStructure.split(2), 1, 3, 33, 130, 1.3, 13),
    "cz2-l2-w1": ("cz2", EncodingStructure.split(2), 2, 1, 21, 20, 2.0, 14),
    "p4-l1-w3": ("p4", EncodingStructure.tiled(8, 4), 1, 3, 37, 130, 0.9, 15),
    "p4-l2-w1": ("p4", EncodingStructure.split(4), 2, 1, 19, 66, 1.1, 16),
    "p9-l1-w3": ("p9", EncodingStructure.split(9), 1, 3, 37, 130, 1.0, 17),
    "p9-l2-w1": ("p9", EncodingStructure.split(9), 2, 1, 19, 66, 0.8, 18),
    "p16-l1-w1": ("p16", EncodingStructure.split(16), 1, 1, 7, 5, 1.0, 19),
    "mixed3-l2-w3": (MIXED3, EncodingStructure.split(3), 2, 3, 37, 130, 1.0, 20),
    "cnot2-tiles784-w3": (
        "cnot2", make_tilemap(28, 28, 2).to_structure(), 1, 3, 45, 70, 0.05, 26
    ),
    "cnot2-s1e3-w1": ("cnot2", EncodingStructure.split(2), 1, 1, 201, 130, 1e3, 27),
    "cz2-s1e3-w3": ("cz2", EncodingStructure.split(2), 1, 3, 37, 130, 1e3, 28),
    "p4-l2-s1e3-w1": ("p4", EncodingStructure.split(4), 2, 1, 19, 66, 1e3, 29),
    "p16-l1-r20e40-w1": ("p16", EncodingStructure.split(16), 1, 1, 40, 20, 1.0, 30),
    "nontri6-l1-w3": (NONTRI6, EncodingStructure.split(4), 1, 3, 37, 130, 1.0, 31),
}

FEATURE_DIGESTS = {
    "cnot2-l1-w1": (
        "526b30d02e7a55272c4f719546dedc5c478ddf3481816300159ae052ce147d43",
        "eed2361a0e1d888a917021e9d456006c3b5fc800735632782381af289af3ce03",
    ),
    "cnot2-l2-w3": (
        "8a5c4841f05ed8339c2171b2befbd22387d590766302587cb04ac40880b6ae85",
        "f47d4dcd695264e4e7fb7c370f8212fdf9c601892fea7cb77159a2f4bc559f85",
    ),
    "cz2-l1-w3": (
        "24dbf6c83627685e7b9ed31dcbcbd72bc2670b96e4f4747d7c610b5f5b307511",
        "01a8dc5e0762e7e90a453a0d9cca697ce33e2668c5cf9fbe56bac3e134f91b06",
    ),
    "cz2-l2-w1": (
        "9ad1d5c116e5f4252dfeb2cfb38b60010a6ad7640fb0e9abf48067df7c83ceca",
        "b04c0586a331182868559324025dd4453797a9c65c2c68177830763747752ac2",
    ),
    "p4-l1-w3": (
        "f8eab043b5e6282b9b91308ddebc62a404b622d9559e3f28de9c29407be748c2",
        "186c711a833c349ec0180617f898c6b1e3cfbdbd4e6cb0d9d1a02b8b64805608",
    ),
    "p4-l2-w1": (
        "864aabeecbf2276ef00c177efa760ba4931e6bd3fc2bde27da3c9d14aa2a0494",
        "488b753ee1d4ab2c1344d65d96476fdafd2b65cc90bb677c4dc0b07f91a4c262",
    ),
    "p9-l1-w3": (
        "4f7f4c8a8c095e5b45588244cfb2bd46f06bb444620110008e27b0be09f839d9",
        "b67103966c67dc5339d0b9642e8d22622aaf12d8169a63a232517c93f952c6d6",
    ),
    "p9-l2-w1": (
        "a5cd8547e9fd0e57fddd0a84daa4dc9ebba7f9329cd34421fc82d6a020c67ff1",
        "be34077c06d50a0d69b6eb65ed438f12d4be0b39f3e0f6a547f181d48c3debce",
    ),
    "p16-l1-w1": (
        "abe315f5fa8f95ea09ee5b14275e62222a29ce8b15d7c8e4f8af17ebfe4170cc",
        "eafa5804ecde66107ffb6a9f598fbc9e3068dfd4bc6ca9fa1132f3146408e131",
    ),
    "mixed3-l2-w3": (
        "9ebfcbae92e19d202dbb4294dbb3080a9d926827caa77c45f1298a2c2081fe44",
        "6e7be23a0d83a2ea87eae4e1d91674f41d4340fffeefdcbfe77fc676a3656413",
    ),
    "cnot2-tiles784-w3": (
        "dfc67a2038f8be89acf77a8d063a5e32529e773ccdac79fa8d41c7600a4cdcfb",
        "341c66abdd6b4cb7d411f64ea33e88a50e182b1d7fb5c6ee6e3417dba8fb40c4",
    ),
    "cnot2-s1e3-w1": (
        "13897ae4bdf0eed1e15cdbfe332f7951ef313e97757dcb33a8c3784fb419add1",
        "24909a51b1381c0f150eb4ba22367b3ebbe36352e29fbb487c8990c85e8fda74",
    ),
    "cz2-s1e3-w3": (
        "9079182ed52c82e7cc6e992190fd1f3fc12e7b2449baf1c296226cda9a03fa80",
        "dae5584f637bbeee3d43dabdb98b28ece4e120e636fc826d03a9a463d6f6d69f",
    ),
    "p4-l2-s1e3-w1": (
        "0b9a49f8284644b637a83f1940e1fe51cc7918ee2e637d2ed5e77cae2c98e037",
        "0ddac58983a0f4fa01805d4a7dceefdd00ecaf97a70bc63ea5f3090040b12bb8",
    ),
    "p16-l1-r20e40-w1": (
        "0f45761eda81fb30c5b3061a61b3b32454c6c116fe585271044b995f7334f4ca",
        "4be5d87adb0c1f5977e37e91a8bbd72420ce6a00ffb96d41f23e8bd88c5c61a7",
    ),
    "nontri6-l1-w3": (
        "f2b1d9a3ac2fe96560c133c836ea38ee29716860d635196745a4c2e765ab0cbb",
        "7cb88b9626e06984950a498866673c00efa25b5c2d327d005f5f411d2c3130d1",
    ),
}

# (ansatz, layers, sigma, episodes, seed), split encoding of the template's
# width. At two layers p4's marginals each sum 8 outcome probabilities over
# several simulator chunks, so a change in their order would show; the
# one-layer configs read them from one Pauli string per qubit.
KERNEL_CONFIGS = {
    "cnot2": ("cnot2", 1, 1.0, 40_000, 21),
    "cz2": ("cz2", 1, 2.0, 40_000, 22),
    "p4-l2": ("p4", 2, 0.8, 20_000, 23),
    "p9": ("p9", 1, 1.0, 1_000, 24),
}

KERNEL_DIGESTS = {
    "cnot2": "7c6df484636f1b805ab0404c5cfdcdd9be6b476d93a71876d257f6ee2929c8d2",
    "cz2": "fcb1c05c13217367c002412ab22c281f7a4921fa7d419735a0e819ec76333d52",
    "p4-l2": "5bbc1cb0715d750b85265da6d47cb778337f2b287393db35035d73b747d5a56a",
    "p9": "e0d9d6ae0e764356e675719cd17377166817af11dbcefe0deba94bebd12dc11d",
}

# (u, v) pairs by input width: a distinct pair and a pair with u == v.
_WIDE = np.random.default_rng(25).normal(size=(3, 9))
KERNEL_PAIRS = {
    2: np.array([[[0.3, -0.8], [0.1, 0.4]], [[1.2, 0.5], [1.2, 0.5]]]),
    4: np.array([[_WIDE[0, :4], _WIDE[1, :4]], [_WIDE[2, :4], _WIDE[2, :4]]]),
    9: np.array([[_WIDE[0], _WIDE[1]], [_WIDE[2], _WIDE[2]]]),
}

# (ansatz, structure, sigma) for closed_form_kernel, each on a seeded
# distinct pair and a pair with u == v of the structure's width. The 4- and
# 8-wide cnot2 tilings are a first tile and the rest, as a user passes them.
CLOSED_FORM_SIGMAS = (0.0, 0.3, 1.0, 2.5)  # closed_form_cnot2 on KERNEL_PAIRS[2]
CLOSED_FORM_CONFIGS = {
    "cnot2-tiles4": (
        "cnot2", EncodingStructure.from_tiles([[0, 2], [1, 3]], 4), 0.7
    ),
    "cnot2-tiles8": (
        "cnot2", EncodingStructure.from_tiles([[1, 4, 6], [0, 2, 3, 5, 7]], 8), 0.4
    ),
    "cnot2-tiles784": ("cnot2", make_tilemap(28, 28, 2).to_structure(), 0.05),
    "p4-tiled8": ("p4", EncodingStructure.tiled(8, 4), 0.9),
    "p9": ("p9", EncodingStructure.split(9), 1.0),
    "p16": ("p16", EncodingStructure.split(16), 0.6),
    "cz2": ("cz2", EncodingStructure.split(2), 2.0),
}

CLOSED_FORM_DIGEST = "2f7d40afd5c66491e16c0d73983ba3a9fcd860e6fd09f590611dc558865effab"

# (ansatz, CSV columns, sigma, seed) for ``qks features dump --dataset csv``
# at E = 20: a split, a dense and a tiled encoding, as the CLI picks them.
DUMP_CONFIGS = {
    "cnot2": ("cnot2", 2, 1.0, 31),
    "rx1": ("rx1", 8, 0.6, 32),
    "p4": ("p4", 8, 0.9, 33),
}

DUMP_DIGEST = "164e691cb16b23ac36ba517aaac0b6a32ea4a5ae2de77b88855c0072e3d6ed19"


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())  # little-endian host
    return h.hexdigest()


def feature_digests(key: str) -> tuple[str, str]:
    config = FEATURE_CONFIGS[key]
    source, structure, layers, workers, episodes, rows, sigma, seed = config
    template = (
        parse_template(source) if "DEFCIRCUIT" in source else get_ansatz(source)
    )
    machine = sample_machine(template, structure, sigma, episodes, seed, layers)
    inputs = np.random.default_rng(seed).normal(size=(rows, structure.p))
    fm = featurize(machine, inputs, workers=workers)
    return _sha(machine.omega, machine.beta), _sha(fm.packed)


def kernel_estimates(key: str) -> list[tuple[float, float]]:
    """``mc_kernel``'s (value, stderr) for each pair of a kernel config."""
    name, layers, sigma, episodes, seed = KERNEL_CONFIGS[key]
    template = get_ansatz(name)
    width = template.num_params
    machine = sample_machine(
        template, EncodingStructure.split(width), sigma, episodes, seed, layers
    )
    pairs = [mc_kernel(machine, u, v) for u, v in KERNEL_PAIRS[width]]
    return [(k.value, k.stderr) for k in pairs]


def kernel_digest(key: str) -> str:
    return _sha(np.array(kernel_estimates(key)))


def closed_form_values() -> dict[str, list[float]]:
    """Closed-form kernel values by config, ``cnot2-split`` first."""
    values = {
        "cnot2-split": [
            closed_form_cnot2(u, v, sigma)
            for sigma in CLOSED_FORM_SIGMAS
            for u, v in KERNEL_PAIRS[2]
        ]
    }
    for key, (name, structure, sigma) in CLOSED_FORM_CONFIGS.items():
        u, v = np.random.default_rng(structure.p).normal(size=(2, structure.p))
        template = get_ansatz(name)
        values[key] = [
            closed_form_kernel(template, structure, u, w, sigma) for w in (v, u)
        ]
    return values


def closed_form_digest(values: dict[str, list[float]]) -> str:
    text = "\n".join(repr(k) for ks in values.values() for k in ks)
    return hashlib.sha256(text.encode()).hexdigest()


def _write_csv(path: Path, columns: int, rows: int = 37) -> None:
    x = np.random.default_rng(columns).normal(size=(rows, columns))
    lines = [",".join(repr(float(v)) for v in row) + f",{i % 2}"
             for i, row in enumerate(x)]
    path.write_text("\n".join(lines) + "\n")


def dump_files(directory: Path) -> dict[str, tuple[bytes, bytes]]:
    """(``.qksf`` bytes, sidecar bytes) of each dump config, run through the CLI."""
    files = {}
    for key, (ansatz, columns, sigma, seed) in DUMP_CONFIGS.items():
        csv = directory / f"x{columns}.csv"
        _write_csv(csv, columns)
        out = directory / f"{key}.qksf"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["features", "dump", "--dataset", "csv", "--train-csv",
                       str(csv), "--test-csv", str(csv), "--ansatz", ansatz,
                       "--sigma", str(sigma), "--seed", str(seed),
                       "--episodes", "20", "--out", str(out)])
        assert rc == 0, key
        files[key] = (out.read_bytes(), Path(str(out) + ".json").read_bytes())
    return files


def dump_digest(files: dict[str, tuple[bytes, bytes]]) -> str:
    h = hashlib.sha256()
    for qksf, sidecar in files.values():
        h.update(qksf)
        h.update(sidecar)
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(FEATURE_CONFIGS))
def test_feature_fingerprint(key):
    machine_digest, packed_digest = feature_digests(key)
    assert machine_digest == FEATURE_DIGESTS[key][0], "omega/beta moved"
    assert packed_digest == FEATURE_DIGESTS[key][1], "feature bits moved"


@pytest.mark.parametrize("key", sorted(KERNEL_CONFIGS))
def test_kernel_fingerprint(key):
    assert kernel_digest(key) == KERNEL_DIGESTS[key]


def test_closed_form_fingerprint():
    values = closed_form_values()
    assert values["cz2"] == [0.5, 0.5]
    assert values["cnot2-split"][:2] == [11 / 16, 11 / 16]  # sigma 0
    assert closed_form_digest(values) == CLOSED_FORM_DIGEST


def test_dump_fingerprint(tmp_path):
    assert dump_digest(dump_files(tmp_path)) == DUMP_DIGEST


if __name__ == "__main__":
    for key in FEATURE_CONFIGS:
        print(f"    {key!r}: {feature_digests(key)!r},")
    for key in KERNEL_CONFIGS:
        estimates = kernel_estimates(key)
        print(f"    {key!r}: {_sha(np.array(estimates))!r},  # {estimates!r}")
    values = closed_form_values()
    print(f"CLOSED_FORM_DIGEST = {closed_form_digest(values)!r}")
    for key, ks in values.items():
        print(f"    {key!r}: {ks!r}")
    with tempfile.TemporaryDirectory() as tmp:
        files = dump_files(Path(tmp))
    print(f"DUMP_DIGEST = {dump_digest(files)!r}")
    for key, (_, sidecar) in files.items():
        print(f"# {key} sidecar:\n{sidecar.decode()}", end="")
