"""Run a profile's full study set into an output directory.

Equivalent to that profile's CLI subcommands run back to back with one
seed, one subdirectory per study.  ``desk`` is the desk-scale set, which
also runs feature selection on a reduced amplitude grid; ``paper`` is the
full-size corpus (1,100 samples, stride 1, 200 epochs), which takes hours
on CPU because the LSTM backward pass over 3998 steps dominates.

Usage: python scripts/run_suite.py {desk,paper} [OUT_DIR] [SEED]
"""

import sys
import time
from pathlib import Path

from inertialab.cli import main as cli

_STUDIES = [(name, []) for name in
            ("gen-data", "train", "compare-windows", "compare-models", "compare-snr")]

# (subcommand, extra arguments) per profile, in run order
JOBS = {
    "desk": _STUDIES + [
        ("select-features", ["--set", "dataset.amplitudes=[0.001,0.002,0.003,0.004,0.005,0.006,0.007,0.008,0.009,0.01]",
                             "--set", "train.epochs=25"]),
    ],
    "paper": _STUDIES,
}


def run(profile, out_root, seed):
    t0 = time.perf_counter()
    common = ["--profile", profile, "--seed", str(seed)]
    for name, extra in JOBS[profile]:
        out = Path(out_root) / name.replace("-", "_")
        print(f"== {name} -> {out}", flush=True)
        rc = cli([name, "--out", str(out), *common, *extra])
        if rc != 0:
            print(f"{name} failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"done in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in JOBS:
        sys.exit("usage: python scripts/run_suite.py {desk,paper} [OUT_DIR] [SEED]")
    profile = sys.argv[1]
    out_root = sys.argv[2] if len(sys.argv) > 2 else f"out/{profile}"
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    sys.exit(run(profile, out_root, seed))
