"""Command-line interface.

Subcommands: ``gen-frames`` writes the synthetic frames dataset to CSV,
``baseline`` fits logistic regression on raw inputs, ``run`` trains on
quantum kitchen sink features, ``sweep`` grids over sigma and episode
counts, ``kernel`` compares Monte Carlo and closed-form kernels, and
``features dump``/``features load`` round-trip packed feature files.

Exit codes: 0 on success, 2 on usage errors, 1 on data-format or I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ansatze import ansatz_names, get_ansatz
from .datasets import (
    DataFormatError,
    LabeledDataset,
    gen_picture_frames,
    load_csv,
    load_mnist_split,
    make_tilemap,
    save_csv,
    standardize,
)
from .encoding import EncodingStructure, QksMachine, sample_machine
from .features import FeatureFileError, featurize, load_features, save_features
from .kernels import closed_form_kernel, mc_kernel
from .logistic import check_fit_options, evaluate, train
from .quil import QuilParseError


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("dataset")
    g.add_argument(
        "--dataset",
        choices=("frames", "mnist", "csv"),
        default="frames",
        help="data source (default: frames)",
    )
    g.add_argument("--frames-train", type=int, default=800, metavar="N",
                   help="frames: training points per class (default 800)")
    g.add_argument("--frames-test", type=int, default=200, metavar="N",
                   help="frames: test points per class (default 200)")
    g.add_argument("--data-seed", type=int, default=0, metavar="N",
                   help="frames: generation seed (default 0)")
    g.add_argument("--mnist-dir", metavar="DIR",
                   help="mnist: directory holding the IDX files (or .gz)")
    g.add_argument("--digits", default="3,5", metavar="A,B",
                   help="mnist: digit pair, first maps to class 0 (default 3,5)")
    g.add_argument("--train-csv", metavar="FILE", help="csv: training split")
    g.add_argument("--test-csv", metavar="FILE", help="csv: test split")


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("classifier")
    g.add_argument("--lambda", dest="reg_lambda", type=float, default=None,
                   metavar="F", help="L2 strength (default 1/M)")
    g.add_argument("--tol", type=float, default=1e-8, metavar="F",
                   help="gradient tolerance (default 1e-8)")
    g.add_argument("--max-iter", type=int, default=10_000, metavar="N",
                   help="Newton step cap (default 10000)")


def _add_qks_args(parser: argparse.ArgumentParser, grid: bool = False) -> None:
    g = parser.add_argument_group("kitchen sink")
    g.add_argument("--ansatz", choices=ansatz_names(), default="cnot2",
                   help="circuit template (default cnot2)")
    g.add_argument("--layers", type=int, default=1, metavar="L",
                   help="independent encoding layers (default 1)")
    if grid:
        g.add_argument("--sigma", default="1.0", metavar="LIST",
                       help="comma-separated sigma list (default 1.0)")
        g.add_argument("--episodes", default="1000", metavar="LIST",
                       help="comma-separated episode counts (default 1000)")
        g.add_argument("--seeds", default="0", metavar="LIST",
                       help="comma-separated machine seeds (default 0)")
    else:
        g.add_argument("--sigma", type=float, default=1.0, metavar="F",
                       help="encoding scale (default 1.0)")
        g.add_argument("--episodes", type=int, default=1000, metavar="E",
                       help="episode count (default 1000)")
        g.add_argument("--seed", type=int, default=0, metavar="N",
                       help="machine seed (default 0)")
    g.add_argument("--workers", type=int, default=1, metavar="N",
                   help="featurization threads (default 1)")


def _parse_digits(text: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--digits expects two comma-separated digits, got {text!r}")
    if not (0 <= a <= 9 and 0 <= b <= 9) or a == b:
        raise UsageError("--digits needs two distinct digits 0-9")
    return a, b


def _load_splits(args) -> tuple[LabeledDataset, LabeledDataset, dict]:
    """Load (train, test) per the dataset flags, plus a config fragment."""
    if args.dataset == "frames":
        train, test = gen_picture_frames(
            args.frames_train, args.frames_test, args.data_seed
        )
        info = {"dataset": "frames", "train_per_class": args.frames_train,
                "test_per_class": args.frames_test, "data_seed": args.data_seed}
    elif args.dataset == "mnist":
        if not args.mnist_dir:
            raise UsageError("--dataset mnist requires --mnist-dir")
        a, b = _parse_digits(args.digits)
        train = load_mnist_split(args.mnist_dir, "train", a, b)
        test = load_mnist_split(args.mnist_dir, "test", a, b)
        train, test, _ = standardize(train, test)
        info = {"dataset": "mnist", "digits": [a, b],
                "mnist_dir": str(args.mnist_dir), "standardized": True}
    else:
        if not args.train_csv or not args.test_csv:
            raise UsageError("--dataset csv requires --train-csv and --test-csv")
        train = load_csv(args.train_csv, "train")
        test = load_csv(args.test_csv, "test")
        if train.dim != test.dim:
            raise DataFormatError("train and test CSVs disagree on dimension")
        info = {"dataset": "csv", "train_csv": str(args.train_csv),
                "test_csv": str(args.test_csv)}
    return train, test, info


def _checksum(train: LabeledDataset, test: LabeledDataset) -> str:
    h = hashlib.sha256()
    for ds in (train, test):
        h.update(np.ascontiguousarray(ds.inputs).tobytes())
        h.update(np.ascontiguousarray(ds.labels).tobytes())
    return h.hexdigest()


def _machine(args, train_ds: LabeledDataset, sigma, episodes, seed) -> QksMachine:
    """Sample a machine whose encoding structure follows from p and q."""
    template = get_ansatz(args.ansatz)
    p, q = train_ds.dim, template.num_params
    if args.dataset == "mnist" and p == 784:
        structure = make_tilemap(28, 28, q).to_structure()
    elif p % q == 0:
        structure = EncodingStructure.tiled(p, q)
    else:
        raise UsageError(
            f"no tiling of p={p} inputs into q={q} parameters; "
            "choose a compatible ansatz"
        )
    return sample_machine(template, structure, sigma, episodes, seed, args.layers)


def _fit(args, x_train, x_test, train_ds: LabeledDataset,
         test_ds: LabeledDataset):
    """Train on ``x_train``; returns the model and its train and test errors."""
    model = train(x_train, train_ds.labels, reg_lambda=args.reg_lambda,
                  tol=args.tol, max_iter=args.max_iter)
    return (model, evaluate(model, x_train, train_ds.labels),
            evaluate(model, x_test, test_ds.labels))


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _write_csv(path: str | None, lines: list[str], unit: str) -> None:
    """Write header plus rows to ``path``, or to stdout without one."""
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text)
        print(f"wrote {path} ({len(lines) - 1} {unit})")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_frames(args) -> int:
    train, test = gen_picture_frames(
        args.train_per_class, args.test_per_class, args.seed
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(train, out_dir / "train.csv")
    save_csv(test, out_dir / "test.csv")
    print(f"wrote {out_dir / 'train.csv'} ({train.size} rows)")
    print(f"wrote {out_dir / 'test.csv'} ({test.size} rows)")
    return 0


def _fit_and_report(args) -> int:
    """``baseline`` on raw inputs, ``run`` on kitchen-sink features."""
    start = time.perf_counter()
    check_fit_options(args.reg_lambda, args.tol, args.max_iter)
    train_ds, test_ds, info = _load_splits(args)
    x_train, x_test = train_ds.inputs, test_ds.inputs
    headline, config = args.command, {}
    if args.command == "run":
        machine = _machine(args, train_ds, args.sigma, args.episodes, args.seed)
        x_train = featurize(machine, x_train, workers=args.workers)
        x_test = featurize(machine, x_test, workers=args.workers)
        headline += (f" ansatz={args.ansatz} sigma={args.sigma} "
                     f"episodes={args.episodes}")
        config = {"ansatz": args.ansatz, "layers": args.layers,
                  "sigma": args.sigma, "episodes": args.episodes,
                  "seed": args.seed, "workers": args.workers,
                  "structure": machine.structure.pattern}
    model, train_err, test_err = _fit(args, x_train, x_test, train_ds, test_ds)
    seconds = time.perf_counter() - start
    print(f"{headline} train_error={train_err:.4f} test_error={test_err:.4f} "
          f"({seconds:.2f}s)")
    _write_json(args.out, {
        "command": args.command,
        "config": {**config, "reg_lambda": args.reg_lambda, "tol": args.tol,
                   "max_iter": args.max_iter, **info},
        "dataset": {"train_size": train_ds.size, "test_size": test_ds.size,
                    "dim": train_ds.dim, "sha256": _checksum(train_ds, test_ds)},
        "results": {"train_error": train_err, "test_error": test_err,
                    "seconds": seconds},
        "fit": dataclasses.asdict(model.fit),
    })
    if args.save_model:
        model.save(args.save_model)
    return 0


def _parse_list(text: str, kind, flag: str) -> list:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise UsageError(f"{flag} needs a non-empty comma-separated list")
    try:
        return [kind(piece) for piece in items]
    except ValueError:
        raise UsageError(f"{flag}: could not parse {text!r}")


def cmd_sweep(args) -> int:
    sigmas = _parse_list(args.sigma, float, "--sigma")
    episode_grid = sorted(set(_parse_list(args.episodes, int, "--episodes")))
    seeds = _parse_list(args.seeds, int, "--seeds")
    if any(e < 1 for e in episode_grid):
        raise UsageError("--episodes values must be >= 1")
    check_fit_options(args.reg_lambda, args.tol, args.max_iter)

    train_ds, test_ds, _ = _load_splits(args)
    e_max = episode_grid[-1]

    lines = ["sigma,episodes,train_error,test_error,seconds"]
    fits = []
    for sigma in sigmas:
        cells = {e: [0.0, 0.0, 0.0] for e in episode_grid}
        for seed in seeds:
            t0 = time.perf_counter()
            machine = _machine(args, train_ds, sigma, e_max, seed)
            train_full = featurize(machine, train_ds.inputs, workers=args.workers)
            test_full = featurize(machine, test_ds.inputs, workers=args.workers)
            feat_seconds = time.perf_counter() - t0
            for episodes in episode_grid:
                t1 = time.perf_counter()
                model, train_err, test_err = _fit(
                    args, train_full.truncate(episodes),
                    test_full.truncate(episodes), train_ds, test_ds)
                fits.append({"sigma": sigma, "episodes": episodes, "seed": seed,
                             **dataclasses.asdict(model.fit)})
                cell = cells[episodes]
                cell[0] += train_err
                cell[1] += test_err
                cell[2] += time.perf_counter() - t1
                if episodes == e_max:
                    cell[2] += feat_seconds
        k = len(seeds)
        for episodes in episode_grid:
            tr, te, sec = cells[episodes]
            lines.append(
                f"{sigma:g},{episodes},{tr / k:.6f},{te / k:.6f},{sec:.3f}"
            )

    _write_csv(args.out, lines, "rows")
    _write_json(args.report, {
        "command": "sweep",
        "config": {"ansatz": args.ansatz, "layers": args.layers,
                   "structure": machine.structure.pattern,
                   "reg_lambda": args.reg_lambda, "tol": args.tol,
                   "max_iter": args.max_iter},
        "fit": fits,
    })
    return 0


def cmd_kernel(args) -> int:
    if args.pairs < 1:
        raise UsageError("--pairs must be >= 1")
    template = get_ansatz(args.ansatz)
    q = template.num_params
    structure = EncodingStructure.split(q)
    machine = sample_machine(template, structure, args.sigma,
                             args.episodes, args.seed)
    rng = np.random.default_rng(args.seed)
    names = [f"{x}{i}" for x in "uv" for i in range(q)]
    lines = [",".join(names + ["mc", "stderr", "closed_form"])]
    for _ in range(args.pairs):
        u = rng.normal(size=q)
        v = rng.normal(size=q)
        est = mc_kernel(machine, u, v)
        cf = closed_form_kernel(template, structure, u, v, args.sigma)
        coords = ",".join(f"{x:.6f}" for x in np.concatenate([u, v]))
        lines.append(f"{coords},{est.value:.8f},{est.stderr:.2e},{cf:.8f}")
    _write_csv(args.out, lines, "pairs")
    return 0


def cmd_features_dump(args) -> int:
    train_ds, test_ds, _ = _load_splits(args)
    ds = train_ds if args.split == "train" else test_ds
    machine = _machine(args, train_ds, args.sigma, args.episodes, args.seed)
    fm = featurize(machine, ds.inputs, workers=args.workers)
    save_features(fm, args.out)
    print(f"wrote {args.out}: {fm.rows} rows x {fm.num_columns} columns "
          f"({fm.episodes} episodes x {fm.num_qubits} qubits)")
    return 0


# Set bits of each byte value.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _bit_density(fm) -> float:
    """Mean of the matrix's bits, counted on its packed bytes 256 rows at a
    time, so no unpacked copy is made. The bits past the last column are
    zero (:func:`load_features` checks), so every set bit is a column's."""
    ones = sum(int(_POPCOUNT[fm.packed[i : i + 256].view(np.uint8)].sum())
               for i in range(0, fm.rows, 256))
    return ones / (fm.rows * fm.num_columns)


def cmd_features_load(args) -> int:
    fm = load_features(args.path)
    print(f"{args.path}: {fm.rows} rows x {fm.num_columns} columns "
          f"({fm.episodes} episodes x {fm.num_qubits} qubits)")
    if fm.meta:
        summary = {k: v for k, v in fm.meta.items() if k != "structure"}
        structure = fm.meta.get("structure")
        if isinstance(structure, dict):
            summary["structure"] = structure.get("pattern")
        print("machine: " + json.dumps(summary, sort_keys=True))
    if fm.rows:
        print(f"bit density: {_bit_density(fm):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qks",
        description="Quantum kitchen sinks on a classical simulator.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-frames", help="write the frames dataset as CSV")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-per-class", type=int, default=800, metavar="N")
    p.add_argument("--test-per-class", type=int, default=200, metavar="N")
    p.set_defaults(func=cmd_gen_frames)

    for name, text in (("baseline", "logistic regression on raw inputs"),
                       ("run", "train on kitchen sink features")):
        p = sub.add_parser(name, help=text)
        _add_dataset_args(p)
        if name == "run":
            _add_qks_args(p)
        _add_model_args(p)
        p.add_argument("--out", metavar="FILE", help="write a JSON report")
        p.add_argument("--save-model", metavar="FILE", help="write model JSON")
        p.set_defaults(func=_fit_and_report)

    p = sub.add_parser("sweep", help="grid over sigma and episode counts")
    _add_dataset_args(p)
    _add_qks_args(p, grid=True)
    _add_model_args(p)
    p.add_argument("--out", metavar="FILE", help="CSV output path (default stdout)")
    p.add_argument("--report", metavar="FILE",
                   help="write a JSON report with one fit record per cell")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("kernel", help="Monte Carlo vs closed-form kernels")
    p.add_argument("--ansatz", choices=ansatz_names(), default="cnot2",
                   help="circuit template, one input coordinate per "
                        "parameter (default cnot2)")
    p.add_argument("--sigma", type=float, default=1.0, metavar="F")
    p.add_argument("--pairs", type=int, default=20, metavar="N")
    p.add_argument("--episodes", type=int, default=100_000, metavar="E")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--out", metavar="FILE", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("features", help="dump or load packed feature files")
    fsub = p.add_subparsers(dest="features_command", required=True)

    pd = fsub.add_parser("dump", help="featurize a split and write a .qksf file")
    _add_dataset_args(pd)
    _add_qks_args(pd)
    pd.add_argument("--split", choices=("train", "test"), default="train")
    pd.add_argument("--out", required=True, metavar="FILE")
    pd.set_defaults(func=cmd_features_dump)

    pl = fsub.add_parser("load", help="inspect a .qksf file")
    pl.add_argument("--path", required=True, metavar="FILE")
    pl.set_defaults(func=cmd_features_load)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it takes longer than most calls
    of ``features load``, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataFormatError, FeatureFileError, QuilParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
