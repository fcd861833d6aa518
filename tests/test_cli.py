"""Command-line surface: artifacts, determinism, exit codes."""

import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest

from inertialab import experiments
from inertialab.cli import main
from inertialab.dynamics import PmuRecordSet, ProbingSignal, SimConfig
from inertialab.nn.model import LrcnConfig, make_model
from inertialab.signals import Dataset, FeatureSet, NormalizationStats

OMEGA = 2.0 * math.pi * 60.0
J1 = 2 * 4.0 * 100 / OMEGA**2  # moment of inertia of the tiny case's G1


def tiny_case_text():
    j2 = 2 * 3.5 * 100 / OMEGA**2
    return f"""INERTIA-CASE v1
[BUS]
1 generator 20.0
2 generator 0.0
3 load 30.0
[BRANCH]
1 3 2.0
2 3 3.0
1 2 1.0
[GEN]
G1 1 {J1!r} {OMEGA!r} 100.0 1.0
G2 2 {j2!r} {OMEGA!r} 100.0 1.0
[MONITOR]
1 2
"""


TINY_MODEL = [
    "--set", "model.conv1_channels=2",
    "--set", "model.conv2_channels=3",
    "--set", "model.lstm_units=4",
    "--set", "model.head_sizes=[6,3]",
    "--set", "model.batch_size=4",
    "--set", "model.sequence_stride=16",
]


def checkpoint_blob(header):
    """Checkpoint magic and length-prefixed JSON header, nothing after it."""
    text = json.dumps(header).encode()
    return b"LRCNMDL1" + struct.pack("<Q", len(text)) + text


# headers that must be rejected: not an object, unknown arch, unknown config
# key, config values of the wrong JSON kind
BAD_CHECKPOINT_HEADERS = (
    [],
    {"arch": "rnn", "config": {}},
    {"arch": "lrcn", "config": {"lstm_unitz": 4}},
    {"arch": "lrcn", "config": {"head_sizes": 5}},
    {"arch": "lrcn", "config": {"learning_rate": "x"}},
)


def bad_checkpoint_blobs(tmp_path):
    """A valid checkpoint cut inside its (epoch, lr, best) trailer or with 2
    trailing bytes, and a header length beyond the end of the file."""
    path = tmp_path / "good-model.bin"
    config = LrcnConfig(input_len=8, conv1_channels=2, conv2_channels=2,
                        lstm_units=2, head_sizes=(2,))
    make_model("lrcn", config).save(path)
    good = path.read_bytes()
    return [good[:-5], good + b"\0\0", b"LRCNMDL1" + struct.pack("<Q", 1 << 40)]


def record_blob(tmp_path):
    """A valid one-bus, four-sample PMUREC1 container."""
    path = tmp_path / "good-record.bin"
    zeros = np.zeros((1, 4))
    PmuRecordSet(rate=2880.0, bus_ids=(1,), speed=zeros, rocof=zeros, angle=zeros).save(path)
    return path.read_bytes()


def dataset_blob():
    """A valid two-sample INRDSET1 container."""
    return Dataset(
        tensors=np.zeros((2, 4)),
        labels=np.array([3.0, 4.0]),
        features=FeatureSet(["speed"]),
        window=(0.0, 1.0),
        snr_db=60.0,
        n_buses=1,
        stats=NormalizationStats(minima=np.zeros(1), maxima=np.ones(1)),
    ).to_bytes()


@pytest.fixture
def tiny_case(tmp_path):
    path = tmp_path / "tiny.case"
    path.write_text(tiny_case_text())
    return str(path)


def gen_args(tiny_case, out):
    return [
        "gen-data",
        "--out", str(out),
        "--set", f'case="{tiny_case}"',
        "--set", "dataset.h_values=[3.0,4.0]",
        "--set", "dataset.amplitudes=[0.001,0.002]",
    ]


class TestGenData:
    def test_writes_dataset_and_manifest(self, tiny_case, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(gen_args(tiny_case, out)) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["command"] == "gen-data"
        assert summary["samples"] == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["samples"] == 4
        assert manifest["config"]["dataset"]["h_values"] == [3.0, 4.0]
        ds = Dataset.load(out / "dataset.bin")
        assert len(ds) == 4

    def test_rerun_is_byte_identical(self, tiny_case, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(gen_args(tiny_case, out_a)) == 0
        assert main(gen_args(tiny_case, out_b)) == 0
        assert (out_a / "dataset.bin").read_bytes() == (out_b / "dataset.bin").read_bytes()

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.case"
        bad.write_text("not a case file\n")
        out = tmp_path / "run"
        rc = main(["gen-data", "--out", str(out), "--set", f'case="{bad}"'])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment, key", [
        ("dataset.amplitudes=[-0.001]", "amplitudes"),
        ("dataset.amplitudes=[]", "amplitudes"),
        ("dataset.h_values=[]", "h_values"),
    ])
    def test_bad_grid_exit_code(self, tiny_case, tmp_path, capsys, assignment, key):
        out = tmp_path / "run"
        assert main(gen_args(tiny_case, out) + ["--set", assignment]) == 3
        assert key in capsys.readouterr().err
        assert not (out / "dataset.bin").exists()

    def test_nan_trajectory_exit_code(self, tmp_path, capsys):
        # a NaN rating would give NaN swing coefficients; the case parser
        # rejects it before anything is simulated
        case = tmp_path / "nan.case"
        case.write_text(tiny_case_text().replace("100.0 1.0\nG2", "nan 1.0\nG2"))
        out = tmp_path / "run"
        args = gen_args(str(case), out) + ["--set", "dataset.h_values=[3.0]"]
        assert main(args) == 3
        assert "rated power must be finite" in capsys.readouterr().err
        assert not (out / "dataset.bin").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("3 load 30.0", "3 load inf", "bus 3: load must be finite"),
        ("3 load 30.0", "3 load nan", "bus 3: load must be finite"),
        ("1 2 1.0", "1 1 1.0", "branch 1-1 is a self-loop"),
        ("2 3 3.0", "2 3 nan", "susceptance must be finite"),
        ("2 3 3.0", "2 3 inf", "susceptance must be finite"),
        (f"G1 1 {J1!r}", "G1 1 nan", "generator G1: J must be finite"),
        (f"{OMEGA!r} 100.0 1.0\nG2", "inf 100.0 1.0\nG2", "nominal speed must be finite"),
        ("100.0 1.0\nG2", "inf 1.0\nG2", "rated power must be finite"),
        ("100.0 1.0\nG2", "100.0 nan\nG2", "generator G1: damping must be finite"),
    ], ids=["inf-load", "nan-load", "self-loop", "nan-susceptance", "inf-susceptance",
            "nan-inertia", "inf-speed", "inf-rating", "nan-damping"])
    def test_case_file_fails_closed(self, tmp_path, capsys, old, new, message):
        # gen_args sets two H values, where a NaN that got through would first
        # fail the cross-H network check under a message that does not name it
        case = tmp_path / "bad.case"
        text = tiny_case_text()
        assert text.count(old) == 1
        case.write_text(text.replace(old, new))
        out = tmp_path / "run"
        assert main(gen_args(str(case), out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert not (out / "dataset.bin").exists()

    def test_lockfile_blocks_concurrent_use(self, tiny_case, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".inertialab.lock").write_text("")
        rc = main(gen_args(tiny_case, out))
        assert rc == 2
        assert "locked" in capsys.readouterr().err

    def test_lock_released_after_run(self, tiny_case, tmp_path):
        out = tmp_path / "run"
        assert main(gen_args(tiny_case, out)) == 0
        assert not (out / ".inertialab.lock").exists()


class TestTrainEval:
    def run_train(self, tiny_case, out):
        args = [
            "train",
            "--out", str(out),
            "--set", f'case="{tiny_case}"',
            "--set", "dataset.h_values=[3.0,5.0,7.0]",
            "--set", "dataset.amplitudes=[0.001,0.002]",
            "--set", "train.epochs=2",
            *TINY_MODEL,
        ]
        return main(args)

    def test_train_artifacts(self, tiny_case, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.run_train(tiny_case, out) == 0
        for name in (
            "model.bin",
            "report.txt",
            "metrics.csv",
            "learning_curve.csv",
            "learning_curve.svg",
            "scatter.csv",
            "scatter.svg",
            "manifest.json",
            "dataset.bin",
        ):
            assert (out / name).exists(), name
        curve = [
            ln for ln in (out / "learning_curve.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert len(curve) == 1 + 2  # header + one row per epoch
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["command"] == "train"

    def test_eval_scatter_covers_validation(self, tiny_case, tmp_path, capsys):
        run = tmp_path / "run"
        assert self.run_train(tiny_case, run) == 0
        out = tmp_path / "eval"
        rc = main([
            "eval",
            "--out", str(out),
            "--model", str(run / "model.bin"),
            "--data", str(run / "dataset.bin"),
            "--set", f'case="{tiny_case}"',
        ])
        assert rc == 0
        scatter = [
            ln for ln in (out / "scatter.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert len(scatter) == 1 + 1  # header + round(0.2 * 6) samples
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["samples"] == 1

    def test_checkpoint_mismatch_exit_code(self, tiny_case, tmp_path, capsys):
        run = tmp_path / "run"
        assert self.run_train(tiny_case, run) == 0
        other = tmp_path / "other"
        args = gen_args(tiny_case, other)
        args += ["--set", 'dataset.features=["speed"]']  # halves tensor length
        assert main(args) == 0
        rc = main([
            "eval",
            "--out", str(tmp_path / "eval2"),
            "--model", str(run / "model.bin"),
            "--data", str(other / "dataset.bin"),
            "--set", f'case="{tiny_case}"',
        ])
        assert rc == 4

    def test_missing_model_is_validation_error(self, tiny_case, tmp_path):
        rc = main(["eval", "--out", str(tmp_path / "x"), "--set", f'case="{tiny_case}"'])
        assert rc == 3

    def test_malformed_checkpoint_header(self, tiny_case, tmp_path, capsys):
        model = tmp_path / "model.bin"
        blobs = [checkpoint_blob(h) for h in BAD_CHECKPOINT_HEADERS]
        for blob in blobs + bad_checkpoint_blobs(tmp_path):
            model.write_bytes(blob)
            rc = main(["eval", "--out", str(tmp_path / "x"), "--model", str(model),
                       "--set", f'case="{tiny_case}"'])
            assert rc == 3, blob
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tiny_case, tmp_path, capsys):
        out = tmp_path / "boom"
        rc = main([
            "train",
            "--out", str(out),
            "--set", f'case="{tiny_case}"',
            "--set", "dataset.h_values=[3.0,5.0,7.0]",
            "--set", "dataset.amplitudes=[0.001,0.002]",
            "--set", "train.epochs=10",
            "--set", "model.learning_rate=1e9",
            *TINY_MODEL,
        ])
        assert rc == 5
        assert "non-finite loss" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_layer_overflow_is_divergence(self, tiny_case, tmp_path, capsys):
        # the overflow reaches a layer's finiteness check before the loss
        rc = main([
            "train",
            "--out", str(tmp_path / "boom"),
            "--set", f'case="{tiny_case}"',
            "--set", "dataset.h_values=[3.0,5.0,7.0]",
            "--set", "dataset.amplitudes=[0.001,0.002]",
            "--set", "model.learning_rate=1e300",
            *TINY_MODEL,
        ])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "non-finite values entering relu at epoch 1, batch 2" in err


class TestInspect:
    def test_dataset_header(self, tiny_case, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(gen_args(tiny_case, out)) == 0
        capsys.readouterr()
        assert main(["inspect", str(out / "dataset.bin")]) == 0
        info = json.loads(capsys.readouterr().out.strip())
        assert info["kind"] == "dataset"
        assert info["n_samples"] == 4

    def test_unknown_file(self, tmp_path, capsys):
        path = tmp_path / "mystery.bin"
        # unknown magic, each container cut inside its fixed header, a
        # dataset or PMU record 7 bytes short of its declared size or with 2
        # trailing bytes, checkpoint headers that are well formed JSON but
        # not a checkpoint's, and checkpoints of the wrong size
        blobs = [b"???", b"INRDSET1\0\0", b"LRCNMDL1\0\0", b"PMUREC1\0\0",
                 dataset_blob()[:-7], dataset_blob() + b"\0\0",
                 record_blob(tmp_path)[:-7], record_blob(tmp_path) + b"\0\0",
                 *bad_checkpoint_blobs(tmp_path)]
        for blob in blobs + [checkpoint_blob(h) for h in BAD_CHECKPOINT_HEADERS]:
            path.write_bytes(blob)
            assert main(["inspect", str(path)]) == 3, blob
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err


class TestComparisons:
    def common(self, tiny_case, out):
        return [
            "--out", str(out),
            "--set", f'case="{tiny_case}"',
            "--set", "dataset.h_values=[3.0,5.0,7.0]",
            "--set", "dataset.amplitudes=[0.001,0.002]",
            "--set", "train.epochs=1",
            *TINY_MODEL,
        ]

    def test_compare_windows(self, tiny_case, tmp_path, capsys):
        out = tmp_path / "win"
        assert main(["compare-windows", *self.common(tiny_case, out)]) == 0
        rows = [
            ln for ln in (out / "window_comparison.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert rows[0] == "window,accuracy,r2,mse"
        assert len(rows) == 3
        assert rows[1].startswith("0.0-1.0,")
        assert rows[2].startswith("0.5-1.5,")
        assert (out / "window_comparison.svg").exists()

    def test_compare_models(self, tiny_case, tmp_path, capsys):
        out = tmp_path / "mod"
        assert main(["compare-models", *self.common(tiny_case, out)]) == 0
        rows = [
            ln for ln in (out / "model_comparison.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert rows[0] == "model,accuracy,r2,mse"
        assert {r.split(",")[0] for r in rows[1:]} == {"lrcn", "cnn"}

    def test_compare_models_honours_train_fraction(self, tiny_case, tmp_path):
        def rows(out, *extra):
            args = [*self.common(tiny_case, out), "--set", "model.batch_size=3", *extra]
            assert main(["compare-models", *args]) == 0
            text = (out / "model_comparison.csv").read_text().splitlines()
            return [ln for ln in text if not ln.startswith("#")]

        assert rows(tmp_path / "a") != rows(tmp_path / "b", "--set", "train.train_fraction=0.5")

    def test_compare_windows_cnn_uses_cnn_rate(self, tiny_case, tmp_path):
        out = tmp_path / "win"
        assert main([
            "compare-windows", *self.common(tiny_case, out),
            "--set", "train.arch=cnn", "--set", "train.cnn_learning_rate=0.0003",
        ]) == 0
        lines = (out / "report_window_0.0-1.0.txt").read_text().splitlines()
        assert "arch cnn" in lines
        assert lines[lines.index("[END]") - 1].split(",")[-1] == "0.0003"  # epoch 1 lr

    def test_select_features_trains_train_arch(self, tiny_case, tmp_path, monkeypatch):
        calls = []
        real_train = experiments.train

        def spy(config, train_set, val_set, epochs, seed=0, arch="lrcn"):
            calls.append((arch, config.learning_rate))
            return real_train(config, train_set, val_set, epochs, seed, arch)

        monkeypatch.setattr(experiments, "train", spy)
        out = tmp_path / "sel"
        assert main([
            "select-features", *self.common(tiny_case, out),
            "--set", "train.arch=cnn", "--set", "train.cnn_learning_rate=0.0003",
        ]) == 0
        rows = [
            ln for ln in (out / "selection.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert len(calls) == len(rows) - 1  # one training run per scored subset
        assert set(calls) == {("cnn", 0.0003)}

    def test_compare_snr(self, tiny_case, tmp_path, capsys):
        out = tmp_path / "snr"
        assert main(["compare-snr", *self.common(tiny_case, out)]) == 0
        rows = [
            ln for ln in (out / "snr_comparison.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert rows[0] == "snr_db,model,accuracy,r2,mse"
        assert len(rows) == 1 + 4  # two SNR levels x two architectures
        manifest = json.loads((out / "manifest.json").read_text())
        assert "clean_fingerprint" in manifest

    def test_select_features(self, tiny_case, tmp_path, capsys):
        out = tmp_path / "sel"
        assert main(["select-features", *self.common(tiny_case, out)]) == 0
        rows = [
            ln for ln in (out / "selection.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert rows[0] == "round,candidate,acc10"
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["command"] == "select-features"
        assert summary["selected"]


class TestConfigLayering:
    def test_profile_defaults(self, tiny_case, tmp_path):
        out = tmp_path / "run"
        args = gen_args(tiny_case, out) + ["--profile", "desk"]
        assert main(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"]["sequence_stride"] == 8
        assert manifest["config"]["train"]["epochs"] == 60
        # the dataclass defaults, bar the desk stride and the derived input length
        model = {**asdict(LrcnConfig()), "head_sizes": [64, 16], "sequence_stride": 8}
        del model["input_len"]
        assert manifest["config"]["model"] == model
        assert manifest["config"]["dataset"]["probe"] == asdict(ProbingSignal())
        assert manifest["config"]["dataset"]["sim"] == asdict(SimConfig())

    def test_config_file_plus_overrides(self, tiny_case, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "profile": "desk",
            "case": tiny_case,
            "dataset": {"h_values": [3.0], "amplitudes": [0.001], "snr_db": 45.0},
        }))
        out = tmp_path / "run"
        rc = main([
            "gen-data", "--config", str(cfg_file), "--out", str(out),
            "--set", "dataset.snr_db=50.0",
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["dataset"]["snr_db"] == 50.0
        assert manifest["samples"] == 1

    def test_seed_flag_propagates(self, tiny_case, tmp_path):
        out = tmp_path / "run"
        assert main(gen_args(tiny_case, out) + ["--seed", "42"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["dataset"]["base_seed"] == 42
        assert manifest["config"]["model"]["seed"] == 42

    def test_unknown_key_rejected(self, tiny_case, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cases = [  # (config file content or None, --set assignments)
            (None, ["dataset.bogus=1"]),
            ({"bogus": 1, "dataset": {"h_valuez": [1]}}, []),
            ({"dataset": 5}, []),
            ([1, 2], []),
            (None, ["dataset=5"]),
            (None, ["dataset.window=[0.0]"]),
            (None, ['dataset.features=["speeed"]']),
            (None, ["case=5"]),
        ]
        for config, assignments in cases:
            args = gen_args(tiny_case, tmp_path / "x")
            if config is not None:
                cfg_file.write_text(json.dumps(config))
                args += ["--config", str(cfg_file)]
            for assignment in assignments:
                args += ["--set", assignment]
            assert main(args) == 3, (config, assignments)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "x" / "manifest.json").exists()

    def test_svg_outputs_deterministic(self, tiny_case, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = lambda out: [
            "train", "--out", str(out), "--set", f'case="{tiny_case}"',
            "--set", "dataset.h_values=[3.0,5.0,7.0]",
            "--set", "dataset.amplitudes=[0.001,0.002]",
            "--set", "train.epochs=2", *TINY_MODEL,
        ]
        assert main(args(out_a)) == 0
        assert main(args(out_b)) == 0
        for name in ("learning_curve.svg", "scatter.svg", "learning_curve.csv",
                     "metrics.csv", "scatter.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
