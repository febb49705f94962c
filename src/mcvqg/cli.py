"""Command-line interface.

Subcommands: gen-data (synthesize a dataset), train, eval, sample (Monte-
Carlo question generation), variance (encoding variance analysis), sweep
(cartesian ablation grid from a manifest). Every failure exits nonzero with
a single stderr line of the form `ERROR <CLASS>: <message>`.
"""

import argparse
import itertools
import json
import os
import sys

import numpy as np

from .config import (RunConfig, apply_overrides, config_from_dict, load_config,
                     save_config)
from .data import DEFAULT_FEATURE_DIM, DEFAULT_NOISE, EOS, atomic_write, \
    load_dataset, save_dataset, synth_generate
from .nn import load_checkpoint, restore_params
from .rng import RngStream
from .train import (TrainingDiverged, build_model, check_dims, evaluate_model,
                    split_indices, train_and_save, variance_csv, variance_records)


class CliError(Exception):
    """Carries a machine-parsable error class alongside the message."""

    def __init__(self, error_class: str, message: str):
        self.error_class = error_class
        super().__init__(message)


def _check_counts(**counts):
    """Reject a count flag below 1 before any work is done."""
    for name, value in counts.items():
        if value is not None and value < 1:
            raise CliError("USAGE_INVALID",
                           f"--{name.replace('_', '-')} must be positive, got {value}")


def _read_config(args) -> RunConfig:
    path = args.config
    if not os.path.exists(path):
        raise CliError("CONFIG_NOT_FOUND", f"config file {path} does not exist")
    try:
        cfg = load_config(path)
    except ValueError as e:
        raise CliError("CONFIG_INVALID", str(e)) from e
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "dataset", None):
        cfg.dataset = args.dataset
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    try:
        cfg.validate()
    except ValueError as e:
        raise CliError("CONFIG_INVALID", str(e)) from e
    return cfg


def _read_dataset(path):
    if not path:
        raise CliError("CONFIG_INVALID", "no dataset path configured "
                                         "(set `dataset` or pass --dataset)")
    if not os.path.exists(path):
        raise CliError("DATASET_NOT_FOUND", f"dataset file {path} does not exist")
    try:
        return load_dataset(path)
    except ValueError as e:
        raise CliError("DATASET_INVALID", str(e)) from e


def _check_dims(cfg, dataset):
    try:
        check_dims(cfg, dataset)
    except ValueError as e:
        raise CliError("CONFIG_INVALID", str(e)) from e


def _restore_model(cfg, dataset, checkpoint_path):
    if not os.path.exists(checkpoint_path):
        raise CliError("CHECKPOINT_NOT_FOUND",
                       f"checkpoint file {checkpoint_path} does not exist")
    _check_dims(cfg, dataset)
    model = build_model(cfg, dataset)
    try:
        arrays, meta = load_checkpoint(checkpoint_path)
        restore_params(model.named_params(), arrays)
    except ValueError as e:
        raise CliError("CHECKPOINT_INVALID", str(e)) from e
    # a checkpoint written before the fingerprint existed restores unchecked
    fingerprint = meta.get("vocab_fingerprint")
    if fingerprint is not None and fingerprint != dataset.vocab.fingerprint():
        raise CliError("CHECKPOINT_INVALID",
                       f"checkpoint {checkpoint_path} was trained on another "
                       f"vocabulary than dataset {cfg.dataset}: the token ids "
                       f"would decode to the wrong words")
    return model, meta


def _split_for(cfg, dataset, which: str):
    train_idx, val_idx = split_indices(len(dataset.bundles), cfg.val_fraction,
                                       RngStream(cfg.seed).child("split"))
    if which == "train":
        return train_idx
    if which == "val":
        return val_idx if val_idx else train_idx
    return list(range(len(dataset.bundles)))


def _train(cfg, dataset, out_dir, log=None):
    # numpy's overflow warnings would print before the one ERROR line; a
    # diverging run is still caught by train_model's finite check
    with np.errstate(all="ignore"):
        return train_and_save(cfg, dataset, out_dir, log=log)


def cmd_gen_data(args) -> int:
    _check_counts(n=args.n)
    try:
        ds = synth_generate(args.n, args.seed, image_dim=args.image_dim,
                            place_dim=args.place_dim, noise=args.noise,
                            questions_per=args.questions_per)
    except ValueError as e:
        raise CliError("USAGE_INVALID", str(e)) from e
    save_dataset(args.out, ds)
    print(f"wrote {args.n} examples to {args.out} "
          f"(vocab {len(ds.vocab.tokens)} tokens)")
    return 0


def cmd_train(args) -> int:
    cfg = _read_config(args)
    if not cfg.out_dir:
        raise CliError("CONFIG_INVALID", "no output directory configured "
                                         "(set `out_dir` or pass --out)")
    dataset = _read_dataset(cfg.dataset)
    _check_dims(cfg, dataset)
    log = print if args.verbose else None
    result = _train(cfg, dataset, cfg.out_dir, log=log)
    save_config(os.path.join(cfg.out_dir, "config.json"), cfg)
    print(f"trained {len(result.curve)} epochs; best val loss "
          f"{result.best_val_loss:.6f} at epoch {result.best_epoch}; "
          f"wrote {os.path.join(cfg.out_dir, 'checkpoint.json')}")
    return 0


def cmd_eval(args) -> int:
    cfg = _read_config(args)
    dataset = _read_dataset(cfg.dataset)
    model, _ = _restore_model(cfg, dataset, args.checkpoint)
    indices = _split_for(cfg, dataset, args.split)
    report, records = evaluate_model(model, dataset, indices, cfg=cfg,
                                     decision_mode=args.decision)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with atomic_write(os.path.join(args.out, "report.csv")) as fh:
            fh.write(report.to_csv())
        with atomic_write(os.path.join(args.out, "generations.jsonl")) as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    for name, value in report.score_rows():
        print(f"{name} {value:.4f}")
    return 0


def cmd_sample(args) -> int:
    _check_counts(n=args.n, mc_samples=args.mc_samples)
    cfg = _read_config(args)
    dataset = _read_dataset(cfg.dataset)
    model, _ = _restore_model(cfg, dataset, args.checkpoint)
    count = min(args.n, len(dataset.bundles))
    rng = RngStream(cfg.seed).child("sample")
    report_cfg = cfg
    if args.mc_samples is not None:
        report_cfg = apply_overrides(cfg, {"eval_mc_samples": args.mc_samples})
    _, records = evaluate_model(model, dataset, range(count), cfg=report_cfg,
                                decision_mode="mc", rng=rng)
    vocab = dataset.vocab
    with atomic_write(args.out) as fh:
        for rec in records:
            fh.write(json.dumps({
                "id": rec["id"],
                "samples": [[vocab.token(t) for t in s if t != EOS]
                            for s in rec["samples"]],
                "token_ids": rec["samples"],
                "epistemic": rec["epistemic"],
                "aleatoric": rec["aleatoric"],
                "predictive": rec["predictive"],
            }, sort_keys=True) + "\n")
    print(f"wrote {count} sampled records to {args.out}")
    return 0


def cmd_variance(args) -> int:
    _check_counts(n=args.n)
    cfg = _read_config(args)
    dataset = _read_dataset(cfg.dataset)
    model, _ = _restore_model(cfg, dataset, args.checkpoint)
    count = min(args.n, len(dataset.bundles))
    try:
        records = variance_records(model, dataset, range(count), T=args.mc_samples,
                                   rng=RngStream(cfg.seed).child("variance"),
                                   sample_rate=args.rate)
    except ValueError as e:
        raise CliError("USAGE_INVALID", str(e)) from e
    with atomic_write(args.out) as fh:
        fh.write(variance_csv(records))
    mean_nv = sum(r.normalized_variance for r in records) / len(records)
    print(f"wrote {len(records)} variance rows to {args.out} "
          f"(mean normalized variance {mean_nv:.6f})")
    return 0


def _format_axis_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "+".join(str(v) for v in value)
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)


def cmd_sweep(args) -> int:
    if not os.path.exists(args.manifest):
        raise CliError("MANIFEST_NOT_FOUND",
                       f"manifest file {args.manifest} does not exist")
    try:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as e:
        raise CliError("MANIFEST_INVALID", f"manifest is not valid JSON: {e}") from e
    try:
        if not isinstance(manifest, dict):
            raise ValueError("manifest must be a JSON object")
        if "base_config" in manifest:
            if not isinstance(manifest["base_config"], str):
                raise ValueError("manifest `base_config` must be a path string, "
                                 f"got {manifest['base_config']!r}")
            base = load_config(manifest["base_config"])
        else:
            base = config_from_dict(manifest.get("base", {}))
        if args.dataset:
            base.dataset = args.dataset
        axes = manifest.get("axes", {})
        if not isinstance(axes, dict) or not axes:
            raise ValueError("manifest needs a nonempty `axes` mapping")
        for key, values in axes.items():
            if not isinstance(values, list) or not values:
                raise ValueError(f"axis {key!r} must be a nonempty list")
    except ValueError as e:
        raise CliError("MANIFEST_INVALID", str(e)) from e
    keys = sorted(axes)
    combos = list(itertools.product(*(axes[k] for k in keys)))
    names = []
    for combo in combos:
        names.append("_".join(f"{k.split('.')[-1]}={_format_axis_value(v)}"
                              for k, v in zip(keys, combo)))
    if len(set(names)) != len(names):
        raise CliError("MANIFEST_INVALID", "sweep axes produce duplicate runs")
    cfgs = []
    for name, combo in zip(names, combos):
        try:
            cfgs.append(apply_overrides(base, dict(zip(keys, combo))).validate())
        except ValueError as e:
            raise CliError("MANIFEST_INVALID",
                           f"run {name!r} is not a valid config: {e}") from e
    dataset = _read_dataset(base.dataset)
    for cfg in cfgs:
        _check_dims(cfg, dataset)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for name, combo, cfg in zip(names, combos, cfgs):
        run_dir = os.path.join(args.out, name.replace("/", "_"))
        result = _train(cfg, dataset, run_dir)
        save_config(os.path.join(run_dir, "config.json"), cfg)
        eval_idx = result.val_indices if result.val_indices else result.train_indices
        report, _ = evaluate_model(result.model, dataset, eval_idx, cfg=cfg)
        with atomic_write(os.path.join(run_dir, "report.csv")) as fh:
            fh.write(report.to_csv())
        scores = report.score_rows()
        rows.append(",".join([name, *map(_format_axis_value, combo),
                              *(f"{value:.6f}" for _, value in scores)]))
        print(f"{name}: bleu1 {report.bleu[1]:.2f} rouge {report.rouge_l:.2f} "
              f"cider {report.cider:.2f}")
    header = ",".join(["name", *keys, *(score for score, _ in scores)])
    with atomic_write(os.path.join(args.out, "sweep.csv")) as fh:
        fh.write("\n".join([header, *rows]) + "\n")
    print(f"wrote {len(combos)} runs to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcvqg",
        description="Multi-cue Bayesian visual question generation at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a dataset file")
    p.add_argument("--n", type=int, required=True, help="number of examples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--image-dim", type=int, default=DEFAULT_FEATURE_DIM)
    p.add_argument("--place-dim", type=int, default=DEFAULT_FEATURE_DIM)
    p.add_argument("--noise", type=float, default=DEFAULT_NOISE)
    p.add_argument("--questions-per", type=int, default=5)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--dataset", default=None, help="override config dataset path")
    p.add_argument("--out", default=None, help="override config output directory")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--split", choices=("train", "val", "all"), default="val")
    p.add_argument("--decision", choices=("deterministic", "mc"), default=None)
    p.add_argument("--out", default=None, help="directory for report files")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="Monte-Carlo question sampling")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=5, help="number of examples")
    p.add_argument("--mc-samples", type=int, default=None)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("variance", help="encoding variance analysis CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--mc-samples", type=int, default=5)
    p.add_argument("--rate", type=float, default=None,
                   help="force this dropout rate during sampling")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("sweep", help="train/eval a cartesian config grid")
    p.add_argument("--manifest", required=True)
    p.add_argument("--dataset", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"ERROR {e.error_class}: {e}", file=sys.stderr)
        return 1
    except TrainingDiverged as e:
        print(f"ERROR TRAINING_DIVERGED: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"ERROR IO_ERROR: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
