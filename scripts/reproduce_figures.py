#!/usr/bin/env python3
"""Run every figure-data reproduction preset into one output directory.

Usage:
    python scripts/reproduce_figures.py [OUT_DIR] [--seed S] [--reps R]

Writes one subdirectory per preset.  By default the population-accuracy
preset averages 100 trajectory replications per population size; --reps 10000
(slow) matches the published ensemble size.  --reps, --parallelism 2 and
--gnuplot-script go to each preset whose PRESETS entry lists the flag.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aoi_csma.cli import PRESETS, main as cli_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=100,
                        help="trajectory replications for the accuracy preset")
    args = parser.parse_args()

    # passed to each preset that reads the flag
    extra = {"reps": [str(args.reps)], "parallelism": ["2"], "gnuplot-script": []}
    for name in sorted(PRESETS):
        out_dir = Path(args.out) / name
        argv = ["reproduce", name, "--out", str(out_dir), "--seed", str(args.seed)]
        for flag in PRESETS[name].flags:
            if flag in extra:
                argv += ["--" + flag, *extra[flag]]
        print(f"==> {name} -> {out_dir}")
        code = cli_main(argv)
        if code != 0:
            print(f"preset {name} exited with status {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
