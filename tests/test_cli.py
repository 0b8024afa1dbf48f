"""Command line interface: outputs, reports, determinism, exit codes."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from qks import (
    EncodingStructure,
    FeatureMatrix,
    LinearClassifier,
    featurize,
    gen_picture_frames,
    get_ansatz,
    load_csv,
    load_features,
    make_tilemap,
    sample_machine,
)
from qks.cli import UsageError, _bit_density, _machine, main
from qks.features import _pack_rows


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_version(capsys):
    rc, out, _ = run_cli(["--version"], capsys)
    assert rc == 0
    assert out.strip() == "0.1.0"


def test_no_command_is_usage_error(capsys):
    rc, _, err = run_cli([], capsys)
    assert rc == 2
    assert "usage" in err


def test_unknown_command(capsys):
    rc, _, err = run_cli(["bogus"], capsys)
    assert rc == 2


def test_gen_frames_writes_csvs(tmp_path, capsys):
    rc, out, _ = run_cli(
        ["gen-frames", "--out", str(tmp_path), "--train-per-class", "25",
         "--test-per-class", "10", "--seed", "7"],
        capsys,
    )
    assert rc == 0
    assert "train.csv" in out and "test.csv" in out
    train = load_csv(tmp_path / "train.csv")
    test = load_csv(tmp_path / "test.csv")
    assert train.size == 50 and test.size == 20
    expected_train, expected_test = gen_picture_frames(25, 10, seed=7)
    assert np.array_equal(train.inputs, expected_train.inputs)
    assert np.array_equal(test.labels, expected_test.labels)


def test_baseline_report(tmp_path, capsys):
    report = tmp_path / "rep.json"
    model_path = tmp_path / "model.json"
    args = ["baseline", "--frames-train", "40", "--frames-test", "20",
            "--data-seed", "2", "--max-iter", "300",
            "--out", str(report), "--save-model", str(model_path)]
    rc, out, _ = run_cli(args, capsys)
    assert rc == 0
    assert out.startswith("baseline train_error=")
    data = json.loads(report.read_text())
    assert data["command"] == "baseline"
    assert set(data["results"]) == {"train_error", "test_error", "seconds"}
    assert {"sha256", "train_size", "test_size", "dim"} <= set(data["dataset"])
    assert data["dataset"]["train_size"] == 80
    for key in ("train_error", "test_error"):
        assert 0.0 <= data["results"][key] <= 1.0

    model = LinearClassifier.load(model_path)
    assert model.weights.shape == (2,)

    # identical flags give an identical report (apart from wall time)
    report2 = tmp_path / "rep2.json"
    rc, _, _ = run_cli(args[:-4] + ["--out", str(report2)], capsys)
    assert rc == 0
    data2 = json.loads(report2.read_text())
    assert data2["results"]["train_error"] == data["results"]["train_error"]
    assert data2["results"]["test_error"] == data["results"]["test_error"]
    assert data2["dataset"]["sha256"] == data["dataset"]["sha256"]


def test_run_report_and_determinism(tmp_path, capsys):
    args = ["run", "--frames-train", "30", "--frames-test", "10",
            "--episodes", "60", "--sigma", "1.0", "--seed", "3",
            "--max-iter", "400", "--out"]
    rep1, rep2 = tmp_path / "a.json", tmp_path / "b.json"
    rc, out, _ = run_cli(args + [str(rep1)], capsys)
    assert rc == 0
    assert out.startswith("run ansatz=cnot2 sigma=1.0 episodes=60")
    rc, _, _ = run_cli(args + [str(rep2)], capsys)
    assert rc == 0
    a, b = json.loads(rep1.read_text()), json.loads(rep2.read_text())
    assert a["results"]["train_error"] == b["results"]["train_error"]
    assert a["results"]["test_error"] == b["results"]["test_error"]
    cfg = a["config"]
    assert cfg["ansatz"] == "cnot2"
    assert cfg["episodes"] == 60
    assert cfg["structure"] == "split"


def test_run_from_csv(tmp_path, capsys):
    rc, _, _ = run_cli(
        ["gen-frames", "--out", str(tmp_path), "--train-per-class", "15",
         "--test-per-class", "5"],
        capsys,
    )
    assert rc == 0
    rc, out, _ = run_cli(
        ["run", "--dataset", "csv",
         "--train-csv", str(tmp_path / "train.csv"),
         "--test-csv", str(tmp_path / "test.csv"),
         "--episodes", "40", "--max-iter", "200"],
        capsys,
    )
    assert rc == 0
    assert "test_error=" in out


def test_sweep_grid(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    rc, _, _ = run_cli(
        ["sweep", "--frames-train", "20", "--frames-test", "10",
         "--sigma", "0.5,1.0", "--episodes", "40,20", "--seeds", "0,1",
         "--max-iter", "150", "--out", str(out_path)],
        capsys,
    )
    assert rc == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "sigma,episodes,train_error,test_error,seconds"
    assert len(lines) == 1 + 2 * 2  # sigma grid x episode grid, seeds averaged
    rows = [line.split(",") for line in lines[1:]]
    # episode counts appear sorted ascending within each sigma
    assert [r[1] for r in rows] == ["20", "40", "20", "40"]
    for r in rows:
        assert 0.0 <= float(r[2]) <= 1.0
        assert 0.0 <= float(r[3]) <= 1.0
        assert float(r[4]) >= 0.0


FIT_KEYS = {"iterations", "stop_reason", "grad_inf", "converged",
            "hessian_vector_products"}


def test_reports_carry_fit_record(tmp_path, capsys):
    flags = ["--frames-train", "20", "--frames-test", "10"]
    for command in ("baseline", "run"):
        report = tmp_path / f"{command}.json"
        rc, _, _ = run_cli([command, *flags, "--out", str(report)], capsys)
        assert rc == 0
        fit = json.loads(report.read_text())["fit"]
        assert set(fit) == FIT_KEYS
        assert fit["stop_reason"] in ("tol", "max_iter", "no_descent")
        assert fit["converged"] == (fit["stop_reason"] == "tol")

    report = tmp_path / "sweep.json"
    rc, _, _ = run_cli(
        ["sweep", *flags, "--sigma", "0.5,1.0", "--episodes", "16,32",
         "--seeds", "0,1", "--max-iter", "1", "--out", str(tmp_path / "s.csv"),
         "--report", str(report)],
        capsys,
    )
    assert rc == 0
    fits = json.loads(report.read_text())["fit"]
    assert len(fits) == 2 * 2 * 2  # one per sigma x episodes x seed
    assert {(f["sigma"], f["episodes"], f["seed"]) for f in fits} == {
        (s, e, k) for s in (0.5, 1.0) for e in (16, 32) for k in (0, 1)
    }
    for f in fits:
        assert FIT_KEYS <= set(f)
        assert f["iterations"] == 1 and f["stop_reason"] == "max_iter"


def test_sweep_stdout_default(capsys):
    rc, out, _ = run_cli(
        ["sweep", "--frames-train", "10", "--frames-test", "5",
         "--sigma", "1.0", "--episodes", "16", "--max-iter", "80"],
        capsys,
    )
    assert rc == 0
    assert out.splitlines()[0] == "sigma,episodes,train_error,test_error,seconds"


def test_sweep_empty_list_rejected(capsys):
    rc, _, err = run_cli(
        ["sweep", "--sigma", "", "--frames-train", "4", "--frames-test", "4"],
        capsys,
    )
    assert rc == 2
    assert "non-empty" in err


def test_kernel_csv_cnot2(tmp_path, capsys):
    out_path = tmp_path / "kern.csv"
    rc, _, _ = run_cli(
        ["kernel", "--ansatz", "cnot2", "--pairs", "4", "--episodes", "20000",
         "--sigma", "1.0", "--seed", "5", "--out", str(out_path)],
        capsys,
    )
    assert rc == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "u0,u1,v0,v1,mc,stderr,closed_form"
    assert len(lines) == 5
    for line in lines[1:]:
        u0, u1, v0, v1, mc, stderr, cf = map(float, line.split(","))
        assert abs(mc - cf) <= 4.0 * stderr + 0.01


def test_kernel_csv_cz2_constant(capsys):
    rc, out, _ = run_cli(
        ["kernel", "--ansatz", "cz2", "--pairs", "3", "--episodes", "500"],
        capsys,
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[6]) == 0.5
        assert abs(float(fields[4]) - 0.5) < 1e-9


def test_kernel_csv_p9(capsys):
    rc, out, _ = run_cli(
        ["kernel", "--ansatz", "p9", "--pairs", "3", "--episodes", "20000",
         "--seed", "3"],
        capsys,
    )
    assert rc == 0
    lines = out.strip().splitlines()
    names = [f"u{i}" for i in range(9)] + [f"v{i}" for i in range(9)]
    assert lines[0] == ",".join(names + ["mc", "stderr", "closed_form"])
    assert len(lines) == 4
    for line in lines[1:]:
        *coords, mc, stderr, cf = map(float, line.split(","))
        assert len(coords) == 18
        assert abs(mc - cf) <= 4.0 * stderr
    rc, _, _ = run_cli(["kernel", "--ansatz", "p5"], capsys)
    assert rc == 2


def test_features_dump_matches_library(tmp_path, capsys):
    path = tmp_path / "train.qksf"
    rc, out, _ = run_cli(
        ["features", "dump", "--frames-train", "12", "--frames-test", "4",
         "--data-seed", "6", "--episodes", "32", "--sigma", "1.5",
         "--seed", "9", "--out", str(path)],
        capsys,
    )
    assert rc == 0
    assert "24 rows x 64 columns" in out
    assert (tmp_path / "train.qksf.json").exists()

    fm = load_features(path)
    train_ds, _ = gen_picture_frames(12, 4, seed=6)
    template = get_ansatz("cnot2")
    machine = sample_machine(template, EncodingStructure.split(2), 1.5, 32, 9)
    expected = featurize(machine, train_ds.inputs)
    assert np.array_equal(fm.packed, expected.packed)
    assert fm.meta["sigma"] == 1.5


def test_features_dump_test_split(tmp_path, capsys):
    path = tmp_path / "test.qksf"
    rc, out, _ = run_cli(
        ["features", "dump", "--frames-train", "8", "--frames-test", "3",
         "--episodes", "16", "--split", "test", "--out", str(path)],
        capsys,
    )
    assert rc == 0
    assert load_features(path).rows == 6


def test_features_load_summary(tmp_path, capsys):
    path = tmp_path / "f.qksf"
    rc, _, _ = run_cli(
        ["features", "dump", "--frames-train", "10", "--frames-test", "4",
         "--episodes", "8", "--out", str(path)],
        capsys,
    )
    assert rc == 0
    rc, out, _ = run_cli(["features", "load", "--path", str(path)], capsys)
    assert rc == 0
    assert "20 rows x 16 columns" in out
    assert "machine:" in out and '"sigma": 1.0' in out
    density_line = [ln for ln in out.splitlines() if "bit density" in ln]
    assert density_line
    density = float(density_line[0].split()[-1])
    assert 0.0 <= density <= 1.0
    dense = load_features(path).to_dense()
    assert density_line[0] == f"bit density: {dense.mean():.4f}"


@pytest.mark.parametrize("rows, columns", [(1, 5), (300, 130), (513, 64)])
def test_bit_density_counts_the_packed_bits(rows, columns):
    # Equal to the mean of the unpacked matrix, across row blocks of 256 and
    # with padding bits in the last word.
    bits = (np.random.default_rng(rows).random((rows, columns)) < 0.3).astype(np.uint8)
    fm = FeatureMatrix(_pack_rows(bits), 1, columns)
    assert _bit_density(fm) == fm.to_dense().mean()


def test_features_load_machine_line_omits_geometry(tmp_path, capsys):
    path = tmp_path / "f.qksf"
    run_cli(["features", "dump", "--frames-train", "3", "--frames-test", "2",
             "--episodes", "5", "--out", str(path)], capsys)
    rc, out, _ = run_cli(["features", "load", "--path", str(path)], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "(5 episodes x 2 qubits)" in lines[0]
    machine = json.loads(lines[1].removeprefix("machine: "))
    assert set(machine) == {"layers", "seed", "sigma", "structure", "template"}


@pytest.mark.parametrize("changes", [
    {"machine": "cnot2"}, {"episodes": 3}, {"episodes": -8, "num_qubits": -2},
    {"num_qubits": 2.7}, {"episodes": "8"}, {"episodes": 8.9},
    {"num_qubits": True, "columns": 8}, {"format": 17}, {"format": None},
    {"format": []}, {"version": 99},
])
def test_features_load_bad_sidecar_exit_code(tmp_path, capsys, changes):
    path = tmp_path / "f.qksf"
    rc, _, _ = run_cli(
        ["features", "dump", "--frames-train", "5", "--frames-test", "2",
         "--episodes", "8", "--out", str(path)],
        capsys,
    )
    assert rc == 0
    sidecar_path = tmp_path / "f.qksf.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar.update(changes)
    sidecar_path.write_text(json.dumps(sidecar))
    rc, _, err = run_cli(["features", "load", "--path", str(path)], capsys)
    assert rc == 1
    assert "error" in err


def test_features_load_padding_bits_exit_code(tmp_path, capsys):
    path = tmp_path / "f.qksf"
    run_cli(["features", "dump", "--frames-train", "3", "--frames-test", "2",
             "--episodes", "77", "--out", str(path)], capsys)
    raw = bytearray(path.read_bytes())
    raw[-1] |= 0x80  # top bit of the last row's last word, past column 154
    path.write_bytes(raw)
    rc, _, err = run_cli(["features", "load", "--path", str(path)], capsys)
    assert rc == 1
    assert "padding" in err


def test_missing_file_exit_code(capsys):
    rc, _, err = run_cli(
        ["baseline", "--dataset", "csv", "--train-csv", "/nonexistent.csv",
         "--test-csv", "/alsonot.csv"],
        capsys,
    )
    assert rc == 1
    assert "error" in err

    rc, _, _ = run_cli(["features", "load", "--path", "/missing.qksf"], capsys)
    assert rc == 1


def test_non_finite_csv_exit_code(tmp_path, capsys):
    (tmp_path / "train.csv").write_text("x,y,label\n0.1,0.2,0\nnan,0.3,1\n")
    (tmp_path / "test.csv").write_text("x,y,label\n0.1,0.2,0\n0.4,0.3,1\n")
    rc, _, err = run_cli(
        ["run", "--dataset", "csv",
         "--train-csv", str(tmp_path / "train.csv"),
         "--test-csv", str(tmp_path / "test.csv"), "--episodes", "4"],
        capsys,
    )
    assert rc == 1
    assert "finite" in err


def test_csv_header_mismatch_exit_code(tmp_path, capsys):
    (tmp_path / "train.csv").write_text("a,b,c,label\n0.1,0.2,0\n0.4,0.3,1\n")
    (tmp_path / "test.csv").write_text("x,y,label\n0.1,0.2,0\n0.4,0.3,1\n")
    rc, out, err = run_cli(
        ["baseline", "--dataset", "csv",
         "--train-csv", str(tmp_path / "train.csv"),
         "--test-csv", str(tmp_path / "test.csv")],
        capsys,
    )
    assert (rc, out) == (1, "")
    assert "header has 4 fields but data rows have 3" in err


def test_overflowing_encoding_exit_code(tmp_path, capsys):
    # 1e308 is finite, but sigma * 1e308 overflows the encoding to inf.
    (tmp_path / "train.csv").write_text("x,y,label\n0.1,0.2,0\n1e308,1e308,0\n")
    (tmp_path / "test.csv").write_text("x,y,label\n0.1,0.2,0\n0.4,0.3,1\n")
    rc, _, err = run_cli(
        ["run", "--dataset", "csv", "--sigma", "100", "--ansatz", "cnot2",
         "--train-csv", str(tmp_path / "train.csv"),
         "--test-csv", str(tmp_path / "test.csv"), "--episodes", "8"],
        capsys,
    )
    assert rc == 1
    assert "input row 1" in err and "not finite" in err
    assert "overflow encountered" not in err


def test_inputs_that_overflow_the_fit_exit_code(tmp_path, capsys):
    # Finite inputs whose scale overflows the classifier's arithmetic.
    for name in ("train.csv", "test.csv"):
        (tmp_path / name).write_text(
            "x,y,label\n-1e150,-2e150,0\n1e150,2e150,1\n-3e150,1e150,0\n"
            "2e150,-1e150,1\n")
    rc, out, err = run_cli(
        ["baseline", "--dataset", "csv",
         "--train-csv", str(tmp_path / "train.csv"),
         "--test-csv", str(tmp_path / "test.csv")],
        capsys,
    )
    assert (rc, out) == (1, "")
    assert "rescale" in err and "3e+150" in err


@pytest.mark.parametrize(
    "command", [["baseline"], ["run", "--ansatz", "rx1", "--episodes", "4"]]
)
def test_label_only_csv_exit_code(tmp_path, capsys, command):
    for name in ("train.csv", "test.csv"):
        (tmp_path / name).write_text("label\n0\n1\n")
    rc, _, err = run_cli(
        command + ["--dataset", "csv", "--train-csv", str(tmp_path / "train.csv"),
                   "--test-csv", str(tmp_path / "test.csv")],
        capsys,
    )
    assert rc == 1
    assert "input column" in err


def test_incompatible_encoding_exit_code(capsys):
    rc, _, err = run_cli(
        ["run", "--ansatz", "p9", "--frames-train", "5", "--frames-test", "5",
         "--episodes", "4"],
        capsys,
    )
    assert rc == 2
    assert "no tiling" in err


def test_bad_numeric_flags(capsys):
    rc, _, _ = run_cli(["run", "--episodes", "0"], capsys)
    assert rc == 2
    for sigma in ("-1.0", "inf", "nan"):
        rc, _, _ = run_cli(["run", "--sigma", sigma, "--frames-train", "4",
                            "--frames-test", "4", "--episodes", "4"], capsys)
        assert rc == 2
    for flag, name in (("--lambda", "reg_lambda"), ("--tol", "tol")):
        for value in ("nan", "inf"):
            rc, _, err = run_cli(["baseline", "--frames-train", "20",
                                  "--frames-test", "10", flag, value], capsys)
            assert rc == 2
            assert name in err


@pytest.mark.parametrize("argv", [
    ["run", "--lambda", "nan"],
    ["sweep", "--tol", "inf"],
    ["run", "--max-iter", "0"],
    ["baseline", "--lambda", "-1"],
])
def test_classifier_flags_checked_before_featurize(monkeypatch, capsys, argv):
    def too_early(*args, **kwargs):
        raise AssertionError("data loaded before the flags were checked")

    monkeypatch.setattr("qks.cli.featurize", too_early)
    monkeypatch.setattr("qks.cli._load_splits", too_early)
    rc, _, err = run_cli(argv + ["--frames-train", "20", "--frames-test", "10"],
                         capsys)
    assert rc == 2
    name = {"--lambda": "reg_lambda", "--tol": "tol", "--max-iter": "max_iter"}
    assert f"error: {name[argv[1]]} must be" in err


def test_mnist_requires_dir(capsys):
    rc, _, err = run_cli(["baseline", "--dataset", "mnist"], capsys)
    assert rc == 2
    assert "--mnist-dir" in err


def test_digits_flag_validation(capsys):
    rc, _, err = run_cli(
        ["baseline", "--dataset", "mnist", "--mnist-dir", "/tmp",
         "--digits", "3"],
        capsys,
    )
    assert rc == 2
    assert "digits" in err.lower()


@pytest.mark.parametrize("argv, code, message", [
    (["baseline", "--dataset", "csv", "--train-csv", "{dir}/train.csv",
      "--test-csv", "{dir}/test.csv"], 1, "disagree on dimension"),
    (["baseline", "--dataset", "csv", "--train-csv", "{dir}/train.csv"], 2,
     "requires --train-csv and --test-csv"),
    (["baseline", "--dataset", "mnist", "--mnist-dir", "{dir}",
      "--digits", "3,3"], 2, "--digits needs two distinct digits 0-9"),
    (["baseline", "--dataset", "mnist", "--mnist-dir", "{dir}",
      "--digits", "3,12"], 2, "--digits needs two distinct digits 0-9"),
    (["sweep", "--episodes", "0"], 2, "--episodes values must be >= 1"),
    (["sweep", "--sigma", "1,x"], 2, "--sigma: could not parse"),
    (["kernel", "--pairs", "0"], 2, "--pairs must be >= 1"),
    (["baseline", "--frames-train", "0"], 2, "per-class counts must be >= 1"),
    (["features", "dump", "--frames-test", "0", "--out", "{dir}/f.qksf"], 2,
     "per-class counts must be >= 1"),
])
def test_flag_and_data_errors_exit_with_message(tmp_path, capsys, argv, code,
                                                message):
    (tmp_path / "train.csv").write_text("x,y,label\n0.1,0.2,0\n0.3,0.4,1\n")
    (tmp_path / "test.csv").write_text("x,label\n0.1,0\n0.3,1\n")
    rc, out, err = run_cli([a.format(dir=tmp_path) for a in argv], capsys)
    assert (rc, out) == (code, "")
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "f.qksf").exists()


def test_gen_frames_bad_count_creates_no_directory(tmp_path, capsys):
    out = tmp_path / "D"
    for flag in ("--train-per-class", "--test-per-class"):
        rc, _, err = run_cli(["gen-frames", flag, "0", "--out", str(out)], capsys)
        assert rc == 2
        assert "per-class counts must be >= 1" in err
        assert not out.exists()


DATASET_KEYS = {"train_size", "test_size", "dim", "sha256"}
RESULT_KEYS = {"train_error", "test_error", "seconds"}
FIT_CONFIG_KEYS = {"reg_lambda", "tol", "max_iter"}
FRAMES_KEYS = {"dataset", "train_per_class", "test_per_class", "data_seed"}
MACHINE_KEYS = {"ansatz", "layers", "sigma", "episodes", "seed", "workers",
                "structure"}


def test_report_key_sets(tmp_path, capsys):
    flags = ["--frames-train", "10", "--frames-test", "5", "--max-iter", "50"]
    expected_config = {
        "baseline": FIT_CONFIG_KEYS | FRAMES_KEYS,
        "run": MACHINE_KEYS | FIT_CONFIG_KEYS | FRAMES_KEYS,
    }
    for command, config_keys in expected_config.items():
        report = tmp_path / f"{command}.json"
        extra = ["--episodes", "8"] if command == "run" else []
        rc, _, _ = run_cli([command, *flags, *extra, "--out", str(report)],
                           capsys)
        assert rc == 0
        data = json.loads(report.read_text())
        assert set(data) == {"command", "config", "dataset", "results", "fit"}
        assert set(data["config"]) == config_keys
        assert set(data["dataset"]) == DATASET_KEYS
        assert set(data["results"]) == RESULT_KEYS
        assert set(data["fit"]) == FIT_KEYS

    report = tmp_path / "sweep.json"
    rc, _, _ = run_cli(["sweep", *flags, "--episodes", "8",
                        "--out", str(tmp_path / "s.csv"),
                        "--report", str(report)], capsys)
    assert rc == 0
    data = json.loads(report.read_text())
    assert set(data) == {"command", "config", "fit"}
    assert set(data["config"]) == (
        {"ansatz", "layers", "structure"} | FIT_CONFIG_KEYS
    )


def test_machine_structure_follows_p_and_q():
    def machine(ansatz, p, dataset="frames"):
        args = SimpleNamespace(ansatz=ansatz, dataset=dataset, layers=1)
        return _machine(args, SimpleNamespace(dim=p), 1.0, 2, 0).structure

    assert machine("rx1", 5).pattern == "dense"
    assert machine("cnot2", 2).pattern == "split"
    tiled = machine("p4", 8)
    assert tiled.pattern == "tiled"
    assert tiled.rows == EncodingStructure.tiled(8, 4).rows
    for ansatz, q, pattern in (("cnot2", 2, "tiled"), ("p4", 4, "custom"),
                               ("p9", 9, "custom"), ("p16", 16, "custom")):
        tiles = machine(ansatz, 784, dataset="mnist")
        assert tiles.rows == make_tilemap(28, 28, q).to_structure().rows
        assert tiles.pattern == pattern
    with pytest.raises(UsageError, match="no tiling"):
        machine("p9", 2)
