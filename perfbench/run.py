#!/usr/bin/env python3
"""Benchmark for mcvqg's training step and Monte-Carlo dropout inference.

    python3 perfbench/run.py --workload mumc-train --seed 1 --seconds 25 --trace 0

Runs one workload (mumc-train, b1-train or mc-infer) in this process with
BLAS held to one thread, against the sources in ../src. Prints one line per
metric, then, as the last line, a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Results and spans are written under
perfbench/results/. See perfbench/README.md.
"""

import argparse
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is first imported

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("mumc-train", "b1-train", "mc-infer")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    package = os.path.join(SRC, "mcvqg")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"perfbench: no mcvqg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mcvqg
    if os.path.dirname(os.path.abspath(mcvqg.__file__)) != package:
        print(f"perfbench: imported mcvqg from {mcvqg.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import workloads

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           out_dir)
    result = report["result"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump({**result, "problems": report["problems"],
                   "setup_times": report["setup_times"],
                   "setup_reference_times": report["setup_reference_times"],
                   "seconds_per_unit": report["seconds_per_unit"],
                   "reference_seconds_per_unit": report["reference_seconds_per_unit"]},
                  fh)
    print(f"# {args.workload} seed {args.seed}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for line in report["lines"]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
