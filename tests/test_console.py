"""The ``inertialab`` console script across a real process boundary.

A chain of successful commands on the tiny case, and one run per non-zero
exit code.  The installed script runs when it is on PATH, as after ``pip
install -e .``; otherwise ``python -m inertialab.cli`` does.  Either way the
child imports this tree's package first.  Every other CLI check runs
in-process in ``test_cli.py``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from inertialab.nn.model import LrcnConfig, make_model
from test_cli import EARLY_FAILURES, TINY_GRID, TINY_MODEL, tiny_case_text

SRC = Path(__file__).resolve().parents[1] / "src"
SCRIPT = shutil.which("inertialab")


def inertialab(*args, cwd=None):
    """Run the console script; returns the finished process."""
    command = [SCRIPT] if SCRIPT else [sys.executable, "-m", "inertialab.cli"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([*command, *args], capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=300)


def assert_one_error_line(proc, code, text):
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert text in proc.stderr, proc.stderr


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A directory holding the tiny case and its gen-data corpus, and the
    arguments of a two-epoch tiny run."""
    tmp = tmp_path_factory.mktemp("console")
    (tmp / "tiny.case").write_text(tiny_case_text())
    args = ["--set", f'case="{tmp / "tiny.case"}"', *TINY_GRID, *TINY_MODEL,
            "--set", "train.epochs=2"]
    proc = inertialab("gen-data", "--out", str(tmp / "data"), *args)
    assert proc.returncode == 0, proc.stderr
    return tmp, args


def test_train_rerun_eval_inspect(tiny):
    tmp, args = tiny
    data = str(tmp / "data" / "dataset.bin")
    # a relative --out, which the manifest echoes, from two working
    # directories; a successful run writes nothing to stderr, not even a warning
    runs = [tmp / "a" / "train", tmp / "b" / "train"]
    for run in runs:
        run.parent.mkdir()
        proc = inertialab("train", "--out", "train", "--data", data, *args, cwd=run.parent)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    # the rerun writes byte-identical files
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir()) and "model.bin" in names
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    model = str(runs[0] / "model.bin")
    proc = inertialab("eval", "--out", str(tmp / "eval"), "--model", model, "--data", data, *args)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "eval"
    for path, kind in ((data, "dataset"), (model, "model")):
        proc = inertialab("inspect", path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["kind"] == kind


def test_locked_output_directory_exits_2(tiny, tmp_path):
    _, args = tiny
    (tmp_path / ".inertialab.lock").touch()
    assert_one_error_line(inertialab("gen-data", "--out", str(tmp_path), *args), 2, "locked")


def test_early_failure_exits_3(tiny, tmp_path):
    # the study's noise level over a zero amplitude, found before the
    # output directory is made
    _, args = tiny
    _, command, extra, code, key = next(
        row for row in EARLY_FAILURES if row[0] == "snr-level-over-zero-amplitude")
    out = tmp_path / "run"
    sets = [token for item in extra for token in ("--set", item)]
    assert_one_error_line(inertialab(command, "--out", str(out), *args, *sets), code, key)
    assert not out.exists()


def test_input_length_mismatch_exits_4(tiny, tmp_path):
    tmp, args = tiny
    model = tmp_path / "model.bin"  # 400 inputs against the corpus's 800
    make_model("cnn", LrcnConfig(input_len=400, conv1_channels=2, conv2_channels=2,
                                 head_sizes=(2,))).save(model)
    proc = inertialab("eval", "--out", str(tmp_path / "eval"), "--model", str(model),
                      "--data", str(tmp / "data" / "dataset.bin"), *args)
    assert_one_error_line(proc, 4, "model expects length 400, dataset provides 800")
    assert not (tmp_path / "eval").exists()


def test_layer_overflow_exits_5(tiny, tmp_path):
    # a child interpreter shows what a user sees on stderr: the one error
    # line, with no numpy overflow warning before it
    tmp, args = tiny
    proc = inertialab("train", "--out", str(tmp_path / "boom"),
                      "--data", str(tmp / "data" / "dataset.bin"), *args,
                      "--set", "model.learning_rate=1e300")
    assert proc.returncode == 5
    assert proc.stderr == "error: non-finite values entering relu at epoch 1, batch 2\n", (
        proc.stderr)
