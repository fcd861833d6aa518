"""Command-line surface: artifacts, determinism, exit codes."""

import builtins
import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertialab import cli, experiments
from inertialab.cli import _profile_defaults, build_parser, main, resolve_config, run_fingerprint
from inertialab.dynamics import ProbingSignal, SimConfig
from inertialab.nn.model import LrcnConfig, make_model
from inertialab.signals import Dataset, FeatureSet, NormalizationStats

OMEGA = 2.0 * math.pi * 60.0
J1 = 2 * 4.0 * 100 / OMEGA**2  # moment of inertia of the tiny case's G1

# Dataset values each rejected when its dataclass is built, before anything
# is simulated or written, with a message that names the key
BAD_DATASET_VALUES = [
    ("dataset.sim.integrator_step=0", "integrator_step"),
    ("dataset.sim.pmu_rate=0", "pmu_rate"),
    ("dataset.sim.t_end=Infinity", "t_end"),
    ("dataset.target_rate=0", "target_rate"),
    ("dataset.target_rate=NaN", "target_rate"),
    ("dataset.target_rate=5000", "target_rate"),
    ("dataset.target_rate=-200", "target_rate"),
    ("dataset.probe.duration=NaN", "duration"),
    ("dataset.probe.duration=Infinity", "duration"),
    ("dataset.probe.prbs_chip=NaN", "prbs_chip"),
    ("dataset.probe.start=Infinity", "start"),
    ("dataset.probe.start=2.0", "start"),
    ("dataset.window=[0.5,0.2]", "window"),
    ("dataset.window=[0.0,9.0]", "window"),
    ("dataset.window=[NaN,1.0]", "window"),
    ("dataset.amplitudes=[0.0,0.001]", "amplitudes"),
]


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
    {"arch": "lrcn", "config": {"sequence_stride": 8.0}},
)


def tiny_checkpoint_blob(tmp_path):
    """A valid checkpoint of a tiny LRCN."""
    path = tmp_path / "good-model.bin"
    config = LrcnConfig(input_len=8, conv1_channels=2, conv2_channels=2,
                        lstm_units=2, head_sizes=(2,))
    make_model("lrcn", config).save(path)
    return path.read_bytes()


def bad_checkpoint_blobs(tmp_path):
    """A valid checkpoint cut inside its (epoch, lr, best) trailer or with 2
    trailing bytes, and a header length beyond the end of the file."""
    good = tiny_checkpoint_blob(tmp_path)
    return [good[:-5], good + b"\0\0", b"LRCNMDL1" + struct.pack("<Q", 1 << 40)]


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
        ("dataset.snr_db=NaN", "snr_db"),
        ("dataset.snr_db=-Infinity", "snr_db"),
        ("train.snr_levels=[NaN]", "snr_levels"),
        ("train.snr_levels=[60.0,-Infinity]", "snr_levels"),
        ("train.epochs=-1", "epochs"),
        ("train.split_seed=-1", "split_seed"),
        ("train.train_seed=-1", "train_seed"),
        ("train.cnn_learning_rate=0", "cnn_learning_rate"),
        ("train.train_fraction=1.5", "train_fraction"),
        ("train.train_fraction=0", "train_fraction"),
        ("dataset.base_seed=-1", "base_seed"),
        ("dataset.probe.seed=-1", "probe seed"),
        ("model.kernel_size=2", "kernel_size"),
        ("model.learning_rate=0", "learning_rate"),
        ("model.lr_factor=3.0", "lr_factor"),
        ("model.lr_patience=-3", "lr_patience"),
        ("model.lr_min=-1.0", "lr_min"),
        ("model.lr_threshold=-1.0", "lr_threshold"),
        ("model.seed=-1", "seed"),
        ("model.sequence_stride=8.0", "sequence_stride"),
        ("model.head_sizes=[64.0,16]", "head_sizes"),
        *BAD_DATASET_VALUES,
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
        ("3 load 30.0", "3 generator 30.0", "bus 3 is marked generator but hosts no generator"),
        ("2 generator 0.0", "2 load 0.0", "bus 2 is marked load but hosts a generator"),
    ], ids=["inf-load", "nan-load", "self-loop", "nan-susceptance", "inf-susceptance",
            "nan-inertia", "inf-speed", "inf-rating", "nan-damping", "generator-kind-load-bus",
            "load-kind-generator-bus"])
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

    def test_report_stamp_is_the_manifest_fingerprint(self, tiny_case, tmp_path):
        out = tmp_path / "run"
        assert self.run_train(tiny_case, out) == 0
        want = json.loads((out / "manifest.json").read_text())["config_fingerprint"]
        report = (out / "report.txt").read_text().splitlines()
        assert f"config_fingerprint {want}" in report
        assert want in (out / "learning_curve.csv").read_text().splitlines()[0]

    def test_rerun_writes_identical_files(self, tiny_case, tmp_path, monkeypatch):
        # the manifest echoes --out, so both runs take the same relative path
        # from their own working directory
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            run.mkdir()
            monkeypatch.chdir(run)
            assert self.run_train(tiny_case, "out") == 0
        names = [sorted(p.name for p in (run / "out").iterdir()) for run in runs]
        assert names[0] == names[1] and "report.txt" in names[0]
        for name in names[0]:
            first, second = ((run / "out" / name).read_bytes() for run in runs)
            assert first == second, name

    def test_train_runs_each_validation_pass_once(self, tiny_case, tmp_path, monkeypatch):
        # one pass per epoch and one with the best parameters; the scatter
        # reuses the last one's predictions
        calls = []
        for module in (experiments, cli):
            def counted(model, dataset, real=module.predict):
                calls.append(len(dataset))
                return real(model, dataset)

            monkeypatch.setattr(module, "predict", counted)
        out = tmp_path / "run"
        assert self.run_train(tiny_case, out) == 0
        assert calls == [1] * (2 + 1)  # train.epochs=2, one validation sample
        scatter = (out / "scatter.csv").read_text().splitlines()
        assert len(scatter) == 1 + 1 + 1  # comment, header, one sample

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
        assert not (tmp_path / "eval2").exists()  # found before eval writes

    @pytest.mark.parametrize("command, assignment, key", [
        ("train", "model.kernel_size=0", "kernel_size"),
        ("compare-models", "model.learning_rate=0", "learning_rate"),
        # sizes that only the data can rule out: the tensor length is 800
        # (400 for one feature) and the split keeps 5 of the 6 samples
        ("train", "model.kernel_size=801", "model.kernel_size"),
        ("select-features", "model.kernel_size=401", "model.kernel_size"),
        ("train", "model.batch_size=6", "model.batch_size"),
        # fractions that leave the training (0 of 6) or validation side empty
        ("train", "train.train_fraction=0.05", "train.train_fraction"),
        ("train", "train.train_fraction=0.95", "train.train_fraction"),
        ("eval", "train.train_fraction=0.95", "train.train_fraction"),
        *(("gen-data", assignment, key) for assignment, key in BAD_DATASET_VALUES),
        ("eval", "dataset.target_rate=0", "target_rate"),  # eval without --data simulates
        # values that used to fail only inside the command, after the output
        # directory was made: a sample count beyond numpy's intp, a finite
        # study SNR level over a zero amplitude and no SNR level at all
        ("gen-data", "dataset.sim.t_end=1e300", "t_end"),
        ("compare-snr", 'dataset={"snr_db":Infinity,"amplitudes":[0.0,0.001]}',
         "train.snr_levels"),
        ("compare-snr", "train.snr_levels=[]", "train.snr_levels"),
        # a probe injection bus that hosts no generator of the case
        ("gen-data", "dataset.probe.injection_bus=99", "probe injection_bus"),
    ])
    def test_bad_model_value_fails_before_it_writes(self, tiny_case, tmp_path, capsys,
                                                    command, assignment, key):
        out = tmp_path / "run"
        rc = main([command, "--out", str(out), "--set", f'case="{tiny_case}"',
                   "--set", "dataset.h_values=[3.0,5.0,7.0]",
                   "--set", "dataset.amplitudes=[0.001,0.002]",
                   *TINY_MODEL, "--set", assignment])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert key in err
        assert not out.exists()  # no dataset.bin, not even the output directory

    def test_model_sizes_checked_against_loaded_data(self, tiny_case, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(gen_args(tiny_case, data)) == 0  # 4 samples of length 800
        capsys.readouterr()
        for assignment in ("model.kernel_size=801", "model.batch_size=4"):
            out = tmp_path / "run"
            rc = main(["train", "--out", str(out), "--data", str(data / "dataset.bin"),
                       "--set", f'case="{tiny_case}"', *TINY_MODEL, "--set", assignment])
            assert rc == 3
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert assignment.split("=")[0] in err
            assert not out.exists()

    def test_train_reads_its_data_once(self, tiny_case, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        assert main(gen_args(tiny_case, data)) == 0
        path = data / "dataset.bin"
        reads = []
        real_open = io.open

        def counting_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if isinstance(file, (str, os.PathLike)) and "r" in mode and Path(file) == path:
                reads.append(handle.read(8) if "b" in mode else None)
                handle.seek(0)
            return handle

        # builtins.open serves open(); pathlib reads through io.open
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        rc = main(["train", "--out", str(tmp_path / "run"), "--data", str(path),
                   "--set", f'case="{tiny_case}"', "--set", "train.epochs=1", *TINY_MODEL,
                   "--set", "model.batch_size=2"])
        assert rc == 0
        assert reads == [b"INRDSET1"]

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
            assert not (tmp_path / "x").exists()

    # numpy's overflow warning would be a second stderr line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("damage, named", [
        (lambda p: p.pop("out_b"), "lacks parameter 'out_b'"),
        (lambda p: p.update(extra_w=np.zeros(1)), "'extra_w' is not a parameter"),
        (lambda p: p.update(conv1_b=np.zeros(3)), "'conv1_b' has shape (3,)"),
        (lambda p: p.update(out_w=p["out_w"].T.copy()), "'out_w' has shape"),
        (lambda p: p["conv1_w"].flat.__setitem__(0, np.nan), "'conv1_w' holds non-finite"),
        # finite weights whose forward pass overflows inside conv1, or in the
        # out layer, whose output no later layer checks
        (lambda p: p["conv1_w"].fill(1e308), "non-finite values entering relu"),
        (lambda p: (p["head1_b"].fill(1e300), p["out_w"].fill(1e300)), "leaving the out layer"),
    ], ids=["missing", "unknown", "misshapen", "transposed", "nan", "overflowing",
            "overflowing-out"])
    def test_bad_parameter_table_fails_before_it_writes(self, tiny_case, tmp_path, capsys,
                                                        damage, named):
        data = tmp_path / "data"
        assert main(gen_args(tiny_case, data)) == 0  # 4 samples of length 800
        capsys.readouterr()
        model = make_model("cnn", LrcnConfig(input_len=800, conv1_channels=2, conv2_channels=2,
                                             head_sizes=(2,)))
        damage(model.params)
        model.save(tmp_path / "model.bin")
        out = tmp_path / "eval"
        rc = main(["eval", "--out", str(out), "--model", str(tmp_path / "model.bin"),
                   "--data", str(data / "dataset.bin"), "--set", f'case="{tiny_case}"'])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["tensors", "labels"])
    def test_non_finite_dataset_exit_code(self, tiny_case, tmp_path, capsys, where):
        data = tmp_path / "data"
        assert main(gen_args(tiny_case, data)) == 0
        path = data / "dataset.bin"
        dataset = Dataset.load(path)
        getattr(dataset, where)[0] = np.nan
        dataset.save(path)
        capsys.readouterr()
        for epochs in ("1", "0"):  # with no epoch, nothing downstream would notice
            rc = main(["train", "--out", str(tmp_path / "run"), "--data", str(path),
                       "--set", f'case="{tiny_case}"', "--set", f"train.epochs={epochs}",
                       "--set", "model.batch_size=2"])
            assert rc == 3
            err = capsys.readouterr().err
            assert err == "error: dataset holds non-finite tensor values or labels\n", err
        assert not (tmp_path / "run" / "model.bin").exists()
        # eval reads --data before it takes the output directory, too
        rc = main(["eval", "--out", str(tmp_path / "eval"), "--data", str(path),
                   "--set", f'case="{tiny_case}"'])
        assert rc == 3
        assert capsys.readouterr().err == "error: dataset holds non-finite tensor values or labels\n"
        assert not (tmp_path / "eval").exists()

    def test_overflow_is_one_error_line_as_a_command(self, tiny_case, tmp_path):
        # pytest captures warnings in-process; a child interpreter shows what
        # a user sees on stderr
        src = str(Path(experiments.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([
            sys.executable, "-m", "inertialab.cli", "train",
            "--out", str(tmp_path / "boom"),
            "--set", f'case="{tiny_case}"',
            "--set", "dataset.h_values=[3.0,5.0,7.0]",
            "--set", "dataset.amplitudes=[0.001,0.002]",
            "--set", "model.learning_rate=1e300",
            *TINY_MODEL,
        ], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 5
        assert proc.stderr == (
            "error: non-finite values entering relu at epoch 1, batch 2\n"), proc.stderr

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


# Patches that make a tiny-case INRDSET1 header inconsistent: (offset,
# struct format, value, field the error names).  The header follows the
# 8-byte magic: n_samples, tensor_len, mask, n_buses, window, snr_db, n_channels.
BAD_DATASET_HEADERS = (
    (24, "<I", 11, "feature mask"),  # unknown bit
    (24, "<I", 0, "feature mask"),
    (24, "<I", 1, "n_channels"),  # one feature, still 4 channels
    (28, "<I", 7, "n_channels"),  # 7 buses
    (28, "<I", 0, "n_buses"),
    (16, "<Q", 801, "tensor_length"),
    (32, "<d", 9.0, "window"),  # (9, 1)
    (40, "<d", math.inf, "window"),
    (40, "<d", math.nan, "window"),
    (48, "<d", math.nan, "snr_db"),
    (48, "<d", -math.inf, "snr_db"),
)


class TestInspect:
    def test_dataset_header(self, tiny_case, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(gen_args(tiny_case, out)) == 0
        capsys.readouterr()
        assert main(["inspect", str(out / "dataset.bin")]) == 0
        info = json.loads(capsys.readouterr().out.strip())
        assert info["kind"] == "dataset"
        assert info["n_samples"] == 4

    @pytest.mark.parametrize("offset, fmt, value, field", BAD_DATASET_HEADERS)
    def test_inconsistent_dataset_header(self, tiny_case, tmp_path, capsys,
                                         offset, fmt, value, field):
        data = tmp_path / "data"
        assert main(gen_args(tiny_case, data)) == 0
        blob = bytearray((data / "dataset.bin").read_bytes())
        struct.pack_into(fmt, blob, offset, value)
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        capsys.readouterr()
        out = tmp_path / "run"
        for args in (["inspect", str(path)],
                     ["train", "--out", str(out), "--data", str(path),
                      "--set", f'case="{tiny_case}"', *TINY_MODEL]):
            assert main(args) == 3, args
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert field in err, err
        assert not out.exists()

    def test_unknown_file(self, tmp_path, capsys):
        path = tmp_path / "mystery.bin"
        # unknown magic (PMUREC1 included), each container cut inside its
        # fixed header, a dataset 7 bytes short of its declared size or with
        # 2 trailing bytes, checkpoint headers that are well formed JSON but
        # not a checkpoint's, and checkpoints of the wrong size
        blobs = [b"???", b"PMUREC1\0\0", b"INRDSET1\0\0", b"LRCNMDL1\0\0",
                 dataset_blob()[:-7], dataset_blob() + b"\0\0",
                 *bad_checkpoint_blobs(tmp_path)]
        for blob in blobs + [checkpoint_blob(h) for h in BAD_CHECKPOINT_HEADERS]:
            path.write_bytes(blob)
            assert main(["inspect", str(path)]) == 3, blob
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err


    def test_checkpoint_parameters_held_once(self, tmp_path, capsys):
        # the checkpoint is read from the file, not from a copy of its bytes
        model = make_model("cnn", LrcnConfig(head_sizes=(20,)))
        param_bytes = sum(p.nbytes for p in model.params.values())
        assert param_bytes >= 10 << 20
        path = tmp_path / "model.bin"
        model.save(path)
        del model
        assert main(["inspect", str(path)]) == 0  # imports happen untraced
        tracemalloc.start()
        try:
            assert main(["inspect", str(path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * param_bytes
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["arch"] == "cnn"

    @pytest.fixture(scope="class")
    def tiny_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("inspect")
        return tmp / "damaged.bin", [tiny_checkpoint_blob(tmp), dataset_blob()]

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_file_fails_cleanly(self, tiny_files, data):
        # a tiny checkpoint or dataset cut short or with 1-4 bytes overwritten
        # is read or rejected with one error line, never a traceback
        path, blobs = tiny_files
        blob = bytearray(data.draw(st.sampled_from(blobs), label="file"))
        if data.draw(st.booleans(), label="cut"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            new = data.draw(st.binary(min_size=1, max_size=4), label="bytes")[: len(blob) - at]
            blob[at : at + len(new)] = new
        path.write_bytes(blob)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["inspect", str(path)])
        if code == 0:
            assert json.loads(out.getvalue())["kind"] in ("model", "dataset")
        else:
            assert code == 3, err.getvalue()
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


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
        want = json.loads((out / "manifest.json").read_text())["config_fingerprint"]
        for arch in ("lrcn", "cnn"):
            assert f"config_fingerprint {want}" in (out / f"report_{arch}.txt").read_text()

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
        # a corpus probes at each of dataset.amplitudes, so the probe's own
        # amplitude is no key
        probe = asdict(ProbingSignal())
        del probe["amplitude"]
        assert manifest["config"]["dataset"]["probe"] == probe
        assert manifest["config"]["dataset"]["sim"] == asdict(SimConfig())
        # the TrainPlan defaults, bar the desk epochs; null seeds take the run seed
        plan = {**asdict(experiments.TrainPlan()), "snr_levels": [60.0, 45.0], "epochs": 60}
        assert manifest["config"]["train"] == plan
        assert _profile_defaults("desk")["train"] == {
            **plan, "split_seed": None, "train_seed": None}
        # any drift in a default of any group moves these
        fingerprints = {
            "desk": "ab5a7e2078827c6f907ae3b566b5cde76661e46d0e56abdbf516e873c54e355a",
            "paper": "a8e534b94936add2dec8108a3240c60fe4029f22ba1cdeee8873b78e744baf69",
        }
        for profile, fingerprint in fingerprints.items():
            args = build_parser().parse_args(["gen-data", "--profile", profile])
            assert run_fingerprint(resolve_config(args)) == fingerprint, profile

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
            (None, ["dataset.probe.amplitude=0.5"]),
            ({"dataset": {"probe": {"amplitude": 0.5}}}, []),
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
