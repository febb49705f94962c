"""Run the benchmark in alternating pairs: a parent revision against this
checkout.

    python tools/bench_pairs.py PARENT_REV LABEL --workload mc-infer \
        --seeds 1401 1402 ... 1410

The parent revision is extracted with `git archive` into a temporary
directory (local git only). For every seed, `perfbench/run.py --trace 0`
runs once in each tree, one after the other, for `BENCHMARK.json`'s
`run_seconds`; the side that runs first alternates from pair to pair, so a
drift in host speed hits both sides alike. At least 10 seeds are needed.
The result goes to `BENCH_<LABEL>.json` at the root of this checkout: which
code each side ran (the parent revision, this checkout's HEAD and whether
its tree differed from HEAD, and a SHA-256 of each side's `src/`), each
pair's end-to-end metrics, and per metric the parent's and the change's
median and quartiles, the median change in percent, and the number of
pairs in which the change was better.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def src_sha256(tree: str) -> str:
    """SHA-256 over the relative paths and bytes of every file under `src/`
    (bytecode caches skipped), in sorted order."""
    digest = hashlib.sha256()
    src = os.path.join(tree, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def value(run: dict, name: str) -> float:
    return run["metrics"][name]["value"]


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, directions) -> dict:
    out = {}
    for name, better in directions.items():
        parent = [value(p["parent"], name) for p in pairs]
        change = [value(p["change"], name) for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        p_mid = statistics.median(parent)
        out[name] = {"better": better, "parent": spread(parent), "change": spread(change),
                     "median_change_pct": 100.0 * (statistics.median(change) - p_mid) / p_mid,
                     "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                     "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_rev")
    ap.add_argument("label")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) < 10:
        ap.error("a claim needs at least 10 pairs")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    code = {"parent_rev": git("rev-parse", args.parent_rev),
            "change_head": git("rev-parse", "HEAD"),
            "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "change_src_sha256": src_sha256(ROOT)}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        extract(args.parent_rev, parent_tree)
        code["parent_src_sha256"] = src_sha256(parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed}: " + ", ".join(
                f"{name} {value(pair['parent'], name):.4g} -> "
                f"{value(pair['change'], name):.4g}" for name in directions),
                flush=True)

    summary = summarize(pairs, directions)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump({**code, "workload": args.workload, "seconds": seconds,
                   "seeds": args.seeds, "pairs": pairs, "summary": summary}, fh, indent=1)
        fh.write("\n")
    for name, s in summary.items():
        print(f"{name}: {s['parent']['median']:.4g} -> {s['change']['median']:.4g} "
              f"({s['median_change_pct']:+.1f}%), change better in "
              f"{s['wins']}/{s['pairs']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
