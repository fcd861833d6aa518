"""Command-line entry point for the inertia-estimation workbench.

Subcommands: ``gen-data``, ``train``, ``eval``, ``select-features``,
``compare-windows``, ``compare-models``, ``compare-snr``, ``inspect``.
Configuration is layered: profile defaults, then an optional JSON config
file, then repeatable ``--set key=value`` overrides.  The profile itself is
resolved first by the same precedence, with ``--profile`` last, and both the
defaults and the echoed ``profile`` take that one value.  The ``dataset``,
``model`` and ``train`` defaults are the field defaults of ``DatasetSpec``,
``LrcnConfig`` and ``TrainPlan``; a profile changes only a few of them.
The config file and ``--set`` pass one check: every key must exist, a
group takes a JSON object and any other key a value of its default's JSON
kind.  Every value is then checked by the dataclass it builds, the probe's
injection bus against the case's generator buses, and the model sizes
against the data of a command that trains and ``compare-snr``'s noise
levels against the dataset spec, before any command simulates or writes
anything.  The run's one corpus is then loaded or built, and ``eval``
predicts on it, before the output directory is taken, so a simulation or
conditioning failure writes nothing either.
The fully resolved configuration is echoed into the run manifest.
``main`` pins the OpenBLAS bundled with numpy to one thread, so a product
that BLAS would split over threads gives the same bits on any core count;
the manifest's ``blas_pinned`` says whether the pin took.  Exit
codes: 0 success, 2 I/O failure, 3 validation failure, 4 dataset length
not the checkpoint's input length, 5 training divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import ctypes
import functools
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import plots
from .dynamics import ProbingSignal, SimConfig
from .experiments import (
    DatasetBuilder,
    DatasetSpec,
    GenerationError,
    InputMismatchError,
    SubsetScorer,
    TrainingDivergedError,
    TrainPlan,
    desk_amplitude_grid,
    metrics_from_predictions,
    predict,
    sha256_hex,
    split,
    train_arms,
    wrapper_feature_selection,
)
from .grid import DEFAULT_CASE, parse_case
from .nn.model import (
    _ARCHS,
    MODEL_MAGIC,
    LrcnConfig,
    fits_json_kind,
    load_model,
    read_checkpoint,
)
from .signals import DATASET_MAGIC, Dataset, Feature, window_samples

EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_MISMATCH = 4
EXIT_DIVERGED = 5

# The model input length follows from the dataset and a corpus probes at each
# of dataset.amplitudes, so neither input_len nor the probe amplitude is a key.
_UNEXPOSED = ("input_len", "amplitude")

# Keys naming a file: null or a string.
_PATH_KEYS = ("case", "paths.dataset", "paths.model")

# Where each profile departs from the library defaults.
_PROFILE_DELTAS = {
    "desk": {
        "dataset": {"amplitudes": list(desk_amplitude_grid())},
        "model": {"sequence_stride": 8},
        "train": {"epochs": 60},
    },
    "paper": {},
}

_METRIC_COLUMNS = ("accuracy", "r2", "mse")

# The two feature windows the window study compares, in seconds.
_WINDOWS = ((0.0, 1.0), (0.5, 1.5))

# Values a model's parameters, or one array of its training pass, may hold:
# 16 times the paper profile's largest, the LRCN's 16.4 M-value gate cache
MAX_MODEL_VALUES = 1 << 28


def _group(obj):
    """Config group of a library dataclass: its field values, tuples as lists."""
    group = {}
    for f in fields(obj):
        if f.name not in _UNEXPOSED:
            value = getattr(obj, f.name)
            group[f.name] = list(value) if isinstance(value, tuple) else value
    return group


def _profile_defaults(profile):
    if profile not in tuple(_PROFILE_DELTAS):  # a tuple: no hashing of odd values
        raise ValueError(f"profile must be one of {', '.join(_PROFILE_DELTAS)}, got {profile!r}")
    spec = DatasetSpec()
    cfg = {
        "profile": profile,
        "case": None,
        "out": "out",
        "seed": 0,
        "dataset": {
            **_group(spec),
            "features": list(spec.features.names()),
            "base_seed": None,
            "probe": _group(spec.probe),
            "sim": _group(spec.sim),
        },
        "model": {**_group(LrcnConfig()), "seed": None},
        "train": {**_group(TrainPlan()), "split_seed": None, "train_seed": None},
        "paths": {"dataset": None, "model": None},
    }
    for group, values in _PROFILE_DELTAS[profile].items():
        cfg[group].update(values)
    return cfg


def _fits(default, value, path=False):
    """Whether ``value`` has the JSON kind of ``default``.

    A path key takes null or a string, any other null default null or an
    integer; every other default is checked by ``fits_json_kind``.
    """
    if path:
        return value is None or isinstance(value, str)
    if default is None:
        return value is None or (isinstance(value, int) and not isinstance(value, bool))
    return fits_json_kind(default, value)


def _override(cfg, defaults, values, prefix=""):
    """Merge a config-file tree or one nested ``--set`` value into ``cfg``."""
    for key, value in values.items():
        name = prefix + key
        if key not in defaults:
            raise ValueError(f"unknown config key {name!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config group {name!r} needs a JSON object, got {value!r}")
            _override(cfg[key], defaults[key], value, name + ".")
        elif _fits(defaults[key], value, path=name in _PATH_KEYS):
            cfg[key] = value
        else:
            raise ValueError(f"config key {name!r} has the wrong type: {value!r}")


def resolve_config(args):
    """Layer profile defaults, config file and --set overrides."""
    layers = []
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            layers.append(json.load(fh))
        if not isinstance(layers[0], dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    for assignment in args.set or []:
        key, sep, raw = assignment.partition("=")
        if not sep:
            raise ValueError(f"--set needs key=value, got {assignment!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):
            value = {part: value}
        layers.append(value)
    # the profile takes the precedence of any key: the file, then --set, then the flag
    given = [layer["profile"] for layer in layers if "profile" in layer]
    profile = args.profile or (given[-1] if given else "desk")
    defaults = _profile_defaults(profile)
    cfg = copy.deepcopy(defaults)
    for layer in layers:
        _override(cfg, defaults, layer)
    cfg["profile"] = profile
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    if getattr(args, "data", None):
        cfg["paths"]["dataset"] = args.data
    if getattr(args, "model", None):
        cfg["paths"]["model"] = args.model
    # null seeds inherit the run seed
    for group, key in (("dataset", "base_seed"), ("model", "seed"),
                       ("train", "split_seed"), ("train", "train_seed")):
        if cfg[group][key] is None:
            cfg[group][key] = cfg["seed"]
    return cfg


def run_fingerprint(cfg):
    """Digest of the semantic configuration (artifact location excluded)."""
    semantic = {k: v for k, v in cfg.items() if k != "out"}
    return sha256_hex(json.dumps(semantic, sort_keys=True).encode())


def _stamp(cfg):
    return f"config_fingerprint {run_fingerprint(cfg)}"


@contextlib.contextmanager
def _output_dir(cfg):
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".inertialab.lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise OSError(
            f"output directory {out} is locked by another run "
            f"(remove {lock} if stale)"
        ) from None
    try:
        os.close(fd)
        yield out
    finally:
        with contextlib.suppress(OSError):
            os.unlink(lock)


def _cells(metrics):
    return metrics.acc10, metrics.r2, metrics.mse


def _curve(values):
    """Per-epoch series as (epochs, values) for the line plots."""
    return list(range(1, len(values) + 1)), list(values)


def _gen_data(out, cfg, dataset, builder, config, plan, case):
    blob = (out / "dataset.bin").read_bytes()  # as run_command saved it
    summary = {"samples": len(dataset), "dataset_sha256": sha256_hex(blob)}
    extra = {"tensor_length": dataset.tensor_length, "grid_sha256": sha256_hex(case)}
    return {**summary, **extra}, summary


def _write_evaluation(out, stamp, arch, labels, predictions, metrics):
    """Estimate-versus-label scatter (CSV and SVG) and the metrics CSV."""
    plots.write_csv(out / "scatter.csv", ("actual", "predicted"), zip(labels, predictions),
                    comment=stamp)
    plots.write_scatter_svg(out / "scatter.svg", labels, predictions,
                            title="inertia estimate vs label", comment=stamp)
    plots.write_csv(out / "metrics.csv", ("model", *_METRIC_COLUMNS), [(arch, *_cells(metrics))],
                    comment=stamp)


def _train(out, cfg, dataset, builder, config, plan):
    model, report, val_set = plan.fit(config, dataset)
    model.save(out / "model.bin")
    stamp = _stamp(cfg)
    report.save(out / "report.txt", stamp)
    plots.write_csv(out / "learning_curve.csv", report.CURVE_COLUMNS, report.curve_rows(),
                    comment=stamp)
    plots.write_line_svg(
        out / "learning_curve.svg",
        {"train": _curve(report.train_curve), "validation": _curve(report.val_curve)},
        title="MSE loss vs epoch", xlabel="epoch", ylabel="mse", comment=stamp,
    )
    _write_evaluation(out, stamp, plan.arch, val_set.labels, report.val_predictions,
                      report.metrics)
    metrics = vars(report.metrics)
    return ({"epochs": report.epochs, "best_epoch": report.best_epoch, "metrics": metrics},
            {"best_epoch": report.best_epoch, **metrics})


def _load_checkpoint(cfg):
    if not cfg["paths"]["model"]:
        raise ValueError("eval requires a model checkpoint (--model or paths.model)")
    return load_model(cfg["paths"]["model"])


# Overflow is caught where it matters: check_finite turns a non-finite value
# entering a layer into FloatingPointError, so numpy's warnings are noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _evaluate(cfg, model, dataset, plan):
    """What ``eval`` writes, computed before it takes the output directory: a
    checkpoint whose forward pass turns non-finite leaves nothing behind.
    Returns the architecture, the validation labels and the predictions."""
    _, val_set = split(dataset, plan.train_fraction, plan.split_seed)
    try:
        predictions = predict(model, val_set)
    except FloatingPointError as exc:  # check_finite names the layer
        raise ValueError(f"checkpoint {cfg['paths']['model']}: {exc} in eval") from None
    if not np.isfinite(predictions).all():
        raise ValueError(f"checkpoint {cfg['paths']['model']}: non-finite values leaving "
                         "the out layer in eval")
    return model.arch, val_set.labels, predictions


def _eval(out, cfg, dataset, builder, config, plan, evaluation):
    arch, labels, predictions = evaluation
    metrics = metrics_from_predictions(labels, predictions)
    _write_evaluation(out, _stamp(cfg), arch, labels, predictions, metrics)
    return {"metrics": vars(metrics)}, {"samples": len(labels), **vars(metrics)}


def _write_arms(out, stamp, name, column, arms, report_prefix, title):
    """Metrics CSV, validation-curve SVG and one report per study arm."""
    plots.write_csv(out / f"{name}.csv", (column, *_METRIC_COLUMNS),
                    [(label, *_cells(r.metrics)) for label, r in arms.items()], comment=stamp)
    series = {}
    for label, report in arms.items():
        series[f"val {label}"] = _curve(report.val_curve)
        report.save(out / f"{report_prefix}{label}.txt", stamp)
    plots.write_line_svg(out / f"{name}.svg", series, title=title, xlabel="epoch", ylabel="mse",
                         comment=stamp)


def _select_features(out, cfg, dataset, builder, config, plan):
    scorer = SubsetScorer(builder, config, plan)
    result = wrapper_feature_selection(scorer)
    stamp = _stamp(cfg)
    rows = [(round_no, name, value) for round_no, scores in enumerate(result.rounds, start=1)
            for name, value in scores.items()]
    plots.write_csv(out / "selection.csv", ("round", "candidate", "acc10"), rows, comment=stamp)
    series = {}
    for round_no, name, value in rows:
        rounds, values = series.setdefault(name, ([], []))
        rounds.append(round_no)
        values.append(value)
    plots.write_line_svg(
        out / "selection.svg", series, title="candidate-set accuracy by selection round",
        xlabel="round", ylabel="acc10", comment=stamp,
    )
    names = result.selected.names()
    return {"selected": list(names)}, {"selected": "+".join(names)}


def _compare_windows(out, cfg, dataset, builder, config, plan):
    datasets = ((f"{w[0]}-{w[1]}", builder.build(window=w)) for w in _WINDOWS)
    arms = {label: r for label, _, r in train_arms(plan, config, datasets, (plan.arch,))}
    _write_arms(out, _stamp(cfg), "window_comparison", "window", arms, "report_window_",
                "validation MSE by feature window")
    acc10 = {label: r.metrics.acc10 for label, r in arms.items()}
    return {"clean_fingerprint": builder.clean_fingerprint()}, {"acc10": acc10}


def _compare_models(out, cfg, dataset, builder, config, plan):
    fingerprint = sha256_hex(dataset.to_bytes())
    arms = {arch: r for _, arch, r in train_arms(plan, config, [("", dataset)], ("lrcn", "cnn"))}
    _write_arms(out, _stamp(cfg), "model_comparison", "model", arms, "report_",
                "validation MSE by architecture")
    r2 = {arch: r.metrics.r2 for arch, r in arms.items()}
    return {"dataset_fingerprint": fingerprint}, {"r2": r2}


def _compare_snr(out, cfg, dataset, builder, config, plan):
    datasets = ((snr, builder.build(snr_db=snr)) for snr in plan.snr_levels)
    rows = [(snr, arch, *_cells(r.metrics)) for snr, arch, r in
            train_arms(plan, config, datasets, ("lrcn", "cnn"))]
    plots.write_csv(out / "snr_comparison.csv", ("snr_db", "model", *_METRIC_COLUMNS),
                    rows, comment=_stamp(cfg))
    acc10 = [[snr, arch, acc10] for snr, arch, acc10, _, _ in rows]
    return {"clean_fingerprint": builder.clean_fingerprint()}, {"rows": acc10}


# Artifact-writing commands: each writes its files into the output directory
# and returns (manifest fields, summary fields).
_COMMANDS = {
    "gen-data": _gen_data,
    "train": _train,
    "eval": _eval,
    "select-features": _select_features,
    "compare-windows": _compare_windows,
    "compare-models": _compare_models,
    "compare-snr": _compare_snr,
}


def _check_model_fits(command, data, builder, config, plan):
    """Check the split (alone for ``eval``) and the model sizes against the
    datasets ``command`` splits: ``data`` when ``--data`` loaded it, else
    features x monitored buses x window samples, at one to every feature for
    ``select-features`` and at each window for ``compare-windows``.  The
    kernel must fit the shortest tensors, and every architecture the command
    trains must stay within ``MAX_MODEL_VALUES`` at the longest."""
    if data is not None:
        lengths, n_samples = (data.tensor_length,), len(data)
    else:
        spec = builder.spec
        n_features = (1, len(Feature)) if command == "select-features" else (len(spec.features),)
        windows = _WINDOWS if command == "compare-windows" else (spec.window,)
        lengths = [n * len(builder.grid.monitored_buses) * window_samples(spec.target_rate, *w)
                   for n in n_features for w in windows]
        n_samples = spec.n_samples
    n_train = round(plan.train_fraction * n_samples)
    if not 0 < n_train < n_samples:
        raise ValueError(f"train.train_fraction {plan.train_fraction} leaves an empty training "
                         f"or validation split of the {n_samples} samples of the {command} data")
    if command == "eval":
        return
    if config.kernel_size > min(lengths):
        raise ValueError(f"model.kernel_size {config.kernel_size} exceeds the "
                         f"tensor length {min(lengths)} of the {command} data")
    if n_train < config.batch_size:
        raise ValueError(f"model.batch_size {config.batch_size} exceeds the "
                         f"{n_train} training samples of the {command} data")
    archs = ("lrcn", "cnn") if command in ("compare-models", "compare-snr") else (plan.arch,)
    for arch in archs:
        for what, n in _ARCHS[arch].pass_sizes(replace(config, input_len=max(lengths))).items():
            if n > MAX_MODEL_VALUES:
                raise ValueError(
                    f"the {arch} {what} would hold {n} values at tensor length {max(lengths)}, "
                    f"over {MAX_MODEL_VALUES}; see model.conv1_channels, conv2_channels, "
                    "kernel_size, lstm_units, head_sizes, batch_size and sequence_stride")


def _check_snr_levels(spec, plan):
    """Check each of ``compare-snr``'s noise levels by the rule a dataset
    spec applies to its own ``snr_db``."""
    if not plan.snr_levels:
        raise ValueError("train.snr_levels needs at least one SNR level")
    for level in plan.snr_levels:
        try:
            replace(spec, snr_db=level)
        except ValueError as exc:
            raise ValueError(f"train.snr_levels level {level}: {exc}") from None


@functools.cache
def pin_blas_threads():
    """Pin the OpenBLAS bundled with numpy to one thread; True if it took.

    Some products, such as conv1's kernel gradient and the CNN's widest
    dense layer, split their reductions over BLAS threads, so their bits
    depend on the thread count.  One thread keeps one answer.  With no
    bundled OpenBLAS (numpy built against another BLAS) nothing is pinned.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
        return True
    return False


def run_command(cfg, command):
    """Build (and so check) every run value and the run's one corpus, then run
    one command under the output lock; write its manifest and summary.

    The grid is parsed from the one read of the case file, whose bytes
    ``gen-data`` hashes.  The checks that need no simulation come first, then
    the corpus (``--data``, else the default build, whose clean records the
    studies reuse) and ``eval``'s predictions, all before the output
    directory is taken: a run that fails on its inputs writes nothing."""
    case = Path(cfg["case"]).read_bytes() if cfg["case"] else DEFAULT_CASE.read_bytes()
    grid = parse_case(case)
    d = cfg["dataset"]
    spec = DatasetSpec(**{**d, "probe": ProbingSignal(**d["probe"]), "sim": SimConfig(**d["sim"])})
    builder = DatasetBuilder(grid, spec)
    path = cfg["paths"]["dataset"] if command in ("train", "eval") else None
    data = Dataset.load(path) if path else None  # the one read of a --data file
    plan = TrainPlan(**cfg["train"])
    values = (builder, LrcnConfig(**cfg["model"]), plan)
    if command != "gen-data":
        _check_model_fits(command, data, *values)
    if command == "compare-snr":
        _check_snr_levels(spec, plan)
    model = _load_checkpoint(cfg) if command == "eval" else None
    dataset = builder.build() if data is None else data
    early = {"case": case} if command == "gen-data" else {}
    if command == "eval":
        early = {"evaluation": _evaluate(cfg, model, dataset, plan)}
    with _output_dir(cfg) as out:
        if data is None and command in ("gen-data", "train", "eval"):  # a corpus it built
            dataset.save(out / "dataset.bin")
        extra, summary = _COMMANDS[command](out, cfg, dataset, *values, **early)
        manifest = {"config": cfg, "config_fingerprint": run_fingerprint(cfg),
                    "command": command, "blas_pinned": pin_blas_threads(), **extra}
        text = json.dumps(manifest, indent=2, sort_keys=True)
        (out / "manifest.json").write_text(text + "\n", encoding="utf-8")
        print(json.dumps({"command": command, "out": str(out), **summary}, sort_keys=True))
    return 0


def cmd_inspect(path):
    # a checkpoint is read from the file itself, so its parameters are held
    # once; a dataset's header is checked against the size of the whole blob
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        fh.seek(0)
        if magic == DATASET_MAGIC:
            info = {"kind": "dataset", **Dataset.header_from_bytes(fh.read())}
        elif magic == MODEL_MAGIC:
            info = {"kind": "model", **read_checkpoint(fh)[0]}
        else:
            raise ValueError(f"unrecognized file magic in {path}")
    print(json.dumps(info, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="inertialab",
        description="Synthetic PMU workbench for inertia estimation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen-data": "simulate the corpus and write the dataset file",
        "train": "train a model on a dataset (generated if absent)",
        "eval": "evaluate a checkpoint on the validation split",
        "select-features": "greedy forward wrapper feature selection",
        "compare-windows": "train on both standard feature windows",
        "compare-models": "train recurrent and flatten baselines",
        "compare-snr": "noise robustness study",
        "inspect": "dump the header of a dataset or model file",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--profile", choices=("desk", "paper"))
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        if name in ("train", "eval"):
            p.add_argument("--data", help="dataset file (INRDSET1)")
        if name == "eval":
            p.add_argument("--model", help="model checkpoint (LRCNMDL1)")
        if name == "inspect":
            p.add_argument("path", help="file to inspect")
    return parser


# Exit code per failure class, most specific first.
_EXIT_CODES = (
    (InputMismatchError, EXIT_MISMATCH),
    (TrainingDivergedError, EXIT_DIVERGED),
    (GenerationError, EXIT_VALIDATION),
    (ValueError, EXIT_VALIDATION),
    (OSError, EXIT_IO),
)


def main(argv=None):
    args = build_parser().parse_args(argv)
    pin_blas_threads()
    try:
        cfg = resolve_config(args)
        if args.command == "inspect":
            return cmd_inspect(args.path)
        return run_command(cfg, args.command)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
