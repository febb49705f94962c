"""Print SHA-256 hashes of mcvqg's training and inference outputs.

    PYTHONPATH=src python tools/output_hashes.py SEED [SEED ...]
        [--epochs N] [--configs NAME ...] [--against REV]

For every seed and config it prints one line per output:

- step:     `run_step`'s loss parts and every parameter-gradient byte, on a
            freshly built model and the dataset's first batch;
- train:    `train_model`'s curve, best epoch and parameter bytes;
- det_eval: deterministic `evaluate_model` records and report;
- det_tokens: the same records' ids, tokens and words with the report,
            without the uncertainty floats, so a change that moves only
            those floats can show that the rest stayed bitwise;
- mc_eval:  MC `evaluate_model` records and report;
- variance: `variance_records` (MC mean, reference and normalized variance);
- variance_probe: the same at a forced Bernoulli rate of 0.45, which differs
            from every config's own rate (and, on `ragged-gaussian`, kind),
            so a component the dropout override misses moves this line.

A refactor that claims bitwise-unchanged outputs runs this at the parent
revision and at the change and compares the lines, in one command:

    PYTHONPATH=src python tools/output_hashes.py SEED [SEED ...] --against REV

extracts REV with `git archive` into a temporary directory, runs this tool
with the same arguments in that tree and in this checkout (each in a
subprocess with its own tree's `src/` first on PYTHONPATH), prints the
lines that differ and exits 1 if any do. The first three configs
copy the model shapes of `perfbench/workloads.py` (copied, so a change to
the benchmark does not move these hashes). The `ragged-*` configs cut every
caption to a random length in 1..7, so padded caption rows are exercised,
under Bernoulli and Gaussian dropout. `mixture` swaps the moderator for the
concatenation combiner, and `single-caption` decodes straight from one
ragged caption cue, so neither fusion nor a combiner runs. `mumc-off` trains
the `mc-infer` shape on the plain cross-entropy alone, the baseline MUMC is
compared against.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

from mcvqg import train as mtrain
from mcvqg.config import config_from_dict
from mcvqg.data import synth_generate
from mcvqg.model import make_batch
from mcvqg.rng import RngStream

COMMON = {"combiner": "moderator", "val_fraction": 0.2, "max_len": 16,
          "eval_mc_samples": 20}
MUMC_TRAIN = {"cues": ["image", "place", "caption", "tag"], "enc_dim": 32,
              "embed_dim": 24, "hidden_dim": 32, "image_dim": 32, "place_dim": 32,
              "dropout": {"rate": 0.3, "kind": "bernoulli"},
              "mumc": {"mc_samples": 20},
              "optimizer": {"algorithm": "adam", "learning_rate": 0.03,
                            "batch_size": 16}}
B1_TRAIN = {"cues": ["image", "caption", "tag"], "enc_dim": 12, "embed_dim": 8,
            "hidden_dim": 16, "image_dim": 24, "place_dim": 8,
            "dropout": {"rate": 0.3, "kind": "bernoulli"},
            "mumc": {"mc_samples": 2},
            "optimizer": {"algorithm": "adam", "learning_rate": 0.03,
                          "batch_size": 1}}
MC_INFER = {"cues": ["image", "place", "caption", "tag"], "enc_dim": 16,
            "embed_dim": 12, "hidden_dim": 24, "image_dim": 32, "place_dim": 16,
            "dropout": {"rate": 0.3, "kind": "bernoulli"},
            "mumc": {"mc_samples": 20},
            "optimizer": {"algorithm": "adam", "learning_rate": 0.03,
                          "batch_size": 16}}

# name -> (config fields, examples, captions cut to random lengths)
CONFIGS = {
    "mumc-train": (MUMC_TRAIN, 40, False),
    "b1-train": (B1_TRAIN, 8, False),
    "mc-infer": (MC_INFER, 40, False),
    "ragged-bernoulli": (MC_INFER, 40, True),
    "ragged-gaussian": ({**MC_INFER, "dropout": {"rate": 0.3, "kind": "gaussian"}},
                        40, True),
    "mixture": ({**MC_INFER, "combiner": "mixture"}, 40, False),
    "single-caption": ({**MC_INFER, "cues": ["caption"]}, 40, True),
    "mumc-off": ({**MC_INFER, "mumc_enabled": False}, 40, False),
}
EVAL_INDICES = list(range(4))
MC_INDICES = [0, 1]


def _plain(obj):
    """JSON-ready form; arrays become the hex of their bytes, so a hash
    sees every bit, the sign of a zero included."""
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "shape": list(obj.shape),
                "bytes": np.ascontiguousarray(obj).tobytes().hex()}
    if isinstance(obj, np.generic):
        return _plain(np.asarray(obj))
    if isinstance(obj, float):
        return np.float64(obj).tobytes().hex()
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _plain(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(_plain(obj), sort_keys=True).encode()).hexdigest()


def _dataset(spec, seed, cfg):
    _, examples, ragged = spec
    ds = synth_generate(examples, seed, image_dim=cfg.image_dim, place_dim=cfg.place_dim)
    if ragged:
        cut = RngStream(seed).child("ragged").integers(1, 8, len(ds.bundles))
        for bundle, n in zip(ds.bundles, cut):
            bundle.caption = bundle.caption[:int(n)]
    return ds


def hashes(name: str, seed: int, epochs: int):
    """(output, sha256) pairs of one config at one seed."""
    spec = CONFIGS[name]
    fields = spec[0]
    cfg = config_from_dict({**COMMON, **fields, "seed": seed,
                            "optimizer": {**fields["optimizer"], "epochs": epochs}})
    ds = _dataset(spec, seed, cfg)
    out = []

    model = mtrain.build_model(cfg, ds, RngStream(seed).child("model"))
    params = model.named_params()
    for p in params.values():
        p.zero_grad()
    batch = make_batch(ds, range(cfg.optimizer.batch_size))
    parts = mtrain.run_step(model, batch, cfg, RngStream(seed).child("step"))
    grads = {k: p.grad for k, p in params.items()}
    out.append(("step", digest([parts, grads])))

    result = mtrain.train_model(cfg, ds)
    trained = {k: p.data for k, p in result.model.named_params().items()}
    out.append(("train", digest([result.curve, result.best_epoch, trained])))

    det = mtrain.evaluate_model(result.model, ds, EVAL_INDICES, cfg=cfg,
                                decision_mode="deterministic")
    out.append(("det_eval", digest(det)))
    report, records = det
    out.append(("det_tokens", digest([report, [[r["id"], r["tokens"], r["words"]]
                                               for r in records]])))
    mc = mtrain.evaluate_model(result.model, ds, MC_INDICES, cfg=cfg, decision_mode="mc")
    out.append(("mc_eval", digest(mc)))
    var = mtrain.variance_records(result.model, ds, MC_INDICES, T=cfg.eval_mc_samples,
                                  rng=RngStream(seed).child("variance"))
    out.append(("variance", digest(var)))
    probe = mtrain.variance_records(result.model, ds, MC_INDICES, T=cfg.eval_mc_samples,
                                    rng=RngStream(seed).child("variance"), sample_rate=0.45)
    out.append(("variance_probe", digest(probe)))
    return out


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def hashes_at(rev, argv):
    """The lines this tool prints for `argv` at git revision `rev`, or in
    this checkout when `rev` is None."""
    if rev is None:
        return _run_tree(ROOT, argv)
    with tempfile.TemporaryDirectory(prefix="output-hashes-") as tree:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        return _run_tree(tree, argv)


def _run_tree(tree, argv):
    path = [os.path.join(tree, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, os.path.join(tree, "tools", "output_hashes.py"),
                           *argv], cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
                          check=True)
    return proc.stdout.splitlines()


def against(rev, argv) -> int:
    """Print the lines that differ between `rev` (-) and this checkout (+);
    1 if any do."""
    parent, change = hashes_at(rev, argv), hashes_at(None, argv)
    common = set(parent) & set(change)
    differ = ([f"- {line}" for line in parent if line not in common]
              + [f"+ {line}" for line in change if line not in common])
    for line in differ:
        print(line)
    print(f"{len(common)} lines identical, {len(differ)} differ ({rev} -> this checkout)")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--configs", nargs="+", choices=sorted(CONFIGS))
    parser.add_argument("--against", metavar="REV")
    args = parser.parse_args(argv)
    if args.against:
        forward = [*map(str, args.seeds), "--epochs", str(args.epochs)]
        return against(args.against, forward + (["--configs", *args.configs]
                                                 if args.configs else []))
    for seed in args.seeds:
        for name in args.configs or CONFIGS:
            for output, sha in hashes(name, seed, args.epochs):
                print(f"seed={seed} config={name} {output} {sha}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
