"""End-to-end tests of the command-line surface (invoked in-process, and
as a subprocess where stderr itself is checked)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mcvqg
from mcvqg.autodiff import Tensor
from mcvqg.cli import main
from mcvqg.data import Dataset, Vocabulary, load_dataset, save_dataset
from mcvqg.nn import load_checkpoint, save_checkpoint


def write_config(path, dataset, out_dir, **overrides):
    data = {"cues": ["image", "caption"], "enc_dim": 6, "embed_dim": 5,
            "hidden_dim": 7, "image_dim": 24, "place_dim": 8, "seed": 3,
            "val_fraction": 0.25, "eval_mc_samples": 3, "max_len": 12,
            "optimizer": {"epochs": 2, "batch_size": 4},
            "mumc": {"mc_samples": 3},
            "dataset": str(dataset), "out_dir": str(out_dir)}
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset, a config, and one trained run."""
    ws = tmp_path_factory.mktemp("cli")
    data = ws / "data.jsonl"
    assert main(["gen-data", "--n", "8", "--seed", "1", "--out", str(data),
                 "--image-dim", "24", "--place-dim", "8"]) == 0
    cfg = write_config(ws / "cfg.json", data, ws / "run")
    assert main(["train", "--config", str(cfg)]) == 0
    return ws


class TestGenData:
    def test_writes_file_and_reports(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert main(["gen-data", "--n", "5", "--seed", "2",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "5 examples" in capsys.readouterr().out

    def test_same_seed_is_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["gen-data", "--n", "6", "--seed", "9",
                         "--out", str(out), "--image-dim", "24",
                         "--place-dim", "8"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_the_data(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen-data", "--n", "6", "--seed", "1", "--out", str(a)])
        main(["gen-data", "--n", "6", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "3", "--image-dim", "5"],
                                       ["--n", "3", "--questions-per", "9"]])
    def test_bad_count_is_one_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "d.jsonl"
        assert main(["gen-data", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR USAGE_INVALID: "), err
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["inf", "nan", "-1", "1e308"])
    def test_bad_noise_is_one_usage_error(self, tmp_path, capsys, noise):
        out = tmp_path / "d.jsonl"
        assert main(["gen-data", "--n", "2", "--noise", noise, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR USAGE_INVALID: noise "), err
        assert not out.exists()


class TestTrain:
    def test_writes_run_artifacts(self, workspace):
        run = workspace / "run"
        assert (run / "checkpoint.json").exists()
        assert (run / "curve.csv").exists()
        assert (run / "config.json").exists()
        header = (run / "curve.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,l_gen,l_u"

    def test_rerun_is_bitwise_identical(self, workspace, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", workspace / "data.jsonl",
                           tmp_path / "run2")
        assert main(["train", "--config", str(cfg)]) == 0
        first = {name: (tmp_path / "run2" / name).read_bytes()
                 for name in ("checkpoint.json", "curve.csv")}
        assert main(["train", "--config", str(cfg)]) == 0
        for name, blob in first.items():
            assert (tmp_path / "run2" / name).read_bytes() == blob

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.startswith("ERROR CONFIG_NOT_FOUND:")

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cuez": ["image"]}))
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR CONFIG_INVALID:")
        assert "cuez" in err

    def test_removed_config_key_is_an_error(self, workspace, tmp_path, capsys):
        # a key that names no field is named back, never silently ignored
        cfg = write_config(tmp_path / "cfg.json", workspace / "data.jsonl",
                           tmp_path / "run", temperature=1.0)
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR CONFIG_INVALID:")
        assert "'temperature'" in err[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("setting", [{"mc_inference": False},
                                         {"bleu_mode": "max"},
                                         {"dropout": {"rate": 0.0, "kind": "none"}}])
    def test_removed_setting_is_one_config_error(self, workspace, tmp_path, capsys,
                                                 setting):
        cfg = write_config(tmp_path / "cfg.json", workspace / "data.jsonl",
                           tmp_path / "run", **setting)
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR CONFIG_INVALID:")
        assert not (tmp_path / "run").exists()

    def test_invalid_config_value_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", "d.jsonl", "run",
                           dropout={"rate": 1.5})
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("ERROR CONFIG_INVALID:")

    def test_missing_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "ghost.jsonl",
                           tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("ERROR DATASET_NOT_FOUND:")

    def test_corrupt_dataset(self, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text("this is not json\n")
        cfg = write_config(tmp_path / "cfg.json", data, tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("ERROR DATASET_INVALID:")

    @pytest.mark.parametrize("field,value", [("caption", []),
                                             ("image_feat", float("nan")),
                                             ("image_feat", "x"),
                                             ("scene", {"foo": 1}),
                                             ("scene", [1]),
                                             ("questions", [[5, 0, 1, 2, 2]])])
    def test_bad_example_is_one_dataset_error(self, workspace, tmp_path, capsys,
                                              field, value):
        lines = (workspace / "data.jsonl").read_text().splitlines()
        rec = json.loads(lines[3])
        if field == "image_feat":
            rec[field][0] = value
        else:
            rec[field] = value
        lines[3] = json.dumps(rec)
        data = tmp_path / "bad.jsonl"
        data.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--dataset", str(data)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR DATASET_INVALID: line 4")

    def test_bad_header_is_one_dataset_error(self, workspace, tmp_path, capsys):
        lines = (workspace / "data.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        for vocab in (5, header["vocab"] + ["<unk>"]):
            lines[0] = json.dumps({**header, "vocab": vocab})
            data = tmp_path / "bad.jsonl"
            data.write_text("\n".join(lines) + "\n")
            cfg = write_config(tmp_path / "cfg.json", data, tmp_path / "run")
            assert main(["train", "--config", str(cfg)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("ERROR DATASET_INVALID: line 1: ")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_feature_width_mismatch_is_config_error(self, workspace, tmp_path, capsys,
                                                    command):
        cfg = write_config(tmp_path / "cfg.json", workspace / "data.jsonl",
                           tmp_path / "run", image_dim=32)
        argv = [command, "--config", str(cfg)]
        if command == "eval":
            argv += ["--checkpoint", str(workspace / "run" / "checkpoint.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["ERROR CONFIG_INVALID: config image_dim is 32 but the "
                       "dataset header says 24"]
        assert not (tmp_path / "run").exists()

    def test_divergence_is_one_error(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", workspace / "data.jsonl",
                           tmp_path / "run", optimizer={"epochs": 3, "batch_size": 4,
                                                        "learning_rate": 1e155})
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR TRAINING_DIVERGED: ")
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    def test_divergence_prints_one_stderr_line(self, workspace, tmp_path):
        # in-process, pytest records numpy's RuntimeWarnings; a real process
        # writes them to stderr unless the command runs without them
        cfg = write_config(tmp_path / "cfg.json", workspace / "data.jsonl",
                           tmp_path / "run", optimizer={"epochs": 3, "batch_size": 4,
                                                        "learning_rate": 1e155})
        src = os.path.dirname(os.path.dirname(os.path.abspath(mcvqg.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "mcvqg.cli", "train", "--config",
                               str(cfg)], capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR TRAINING_DIVERGED: "), err

    def test_missing_out_dir_is_config_error(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", workspace / "data.jsonl", "")
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("ERROR CONFIG_INVALID:")

    @pytest.mark.parametrize("setting", [{"enc_dim": "8"},
                                         {"optimizer": {"epochs": True, "batch_size": 4}},
                                         {"mumc_enabled": 1},
                                         {"dropout": {"rate": "0.3"}},
                                         {"mumc": {"mc_samples": 3, "gamma": float("nan")}},
                                         {"optimizer": {"learning_rate": float("inf")}}])
    def test_mistyped_or_nonfinite_value_is_one_config_error(self, workspace, tmp_path,
                                                             capsys, setting):
        cfg = write_config(tmp_path / "cfg.json", workspace / "data.jsonl",
                           tmp_path / "run", **setting)
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR CONFIG_INVALID:"), err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "sample", "variance"])
    def test_dataset_without_examples_is_one_dataset_error(self, workspace, tmp_path,
                                                           capsys, command):
        data = tmp_path / "empty.jsonl"
        data.write_text((workspace / "data.jsonl").read_text().splitlines()[0] + "\n")
        cfg = write_config(tmp_path / "cfg.json", data, tmp_path / "run")
        argv = [command, "--config", str(cfg)]
        if command != "train":
            argv += ["--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR DATASET_INVALID:"), err
        assert not (tmp_path / "run").exists() and not (tmp_path / "out").exists()


class TestEval:
    def test_writes_report_and_scores(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--split", "val", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        for name in ("bleu1", "bleu4", "rouge_l", "cider"):
            assert name in stdout
        report = (out / "report.csv").read_text()
        assert report.startswith("metric,score")
        lines = (out / "generations.jsonl").read_text().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert {"id", "tokens", "words", "epistemic", "aleatoric",
                "predictive"} <= set(rec)

    def test_missing_checkpoint(self, workspace, capsys):
        assert main(["eval", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(workspace / "ghost.json")]) == 1
        assert capsys.readouterr().err.startswith("ERROR CHECKPOINT_NOT_FOUND:")

    def test_corrupt_checkpoint(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"arrays": {"nope": [1.0]}, "meta": {}}))
        assert main(["eval", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("ERROR CHECKPOINT_INVALID:")

    def test_checkpoint_meta_must_be_an_object(self, workspace, tmp_path, capsys):
        payload = json.loads((workspace / "run" / "checkpoint.json").read_text())
        payload["meta"] = [1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["eval", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("ERROR CHECKPOINT_INVALID:")

    @pytest.mark.parametrize("case", ["not-an-object", "nan-parameter"])
    def test_malformed_checkpoint_is_one_error(self, workspace, tmp_path, capsys, case):
        payload = json.loads((workspace / "run" / "checkpoint.json").read_text())
        if case == "not-an-object":
            payload = [1, 2]
        else:
            next(iter(payload["params"].values()))["data"][0] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["eval", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR CHECKPOINT_INVALID:")

    @pytest.fixture
    def swapped(self, workspace, tmp_path):
        """The workspace dataset with two words' ids swapped: same size,
        other words."""
        ds = load_dataset(workspace / "data.jsonl")
        tokens = list(ds.vocab.tokens[4:])
        i, j = tokens.index("dog"), tokens.index("cat")
        tokens[i], tokens[j] = tokens[j], tokens[i]
        path = tmp_path / "swapped.jsonl"
        save_dataset(path, Dataset(vocab=Vocabulary(tokens), bundles=ds.bundles,
                                   image_dim=ds.image_dim, place_dim=ds.place_dim))
        return path

    def test_checkpoint_of_another_vocabulary(self, workspace, swapped, tmp_path, capsys):
        assert main(["eval", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--dataset", str(swapped), "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR CHECKPOINT_INVALID:")
        assert "vocabulary" in err

    def test_checkpoint_without_fingerprint_restores_unchecked(self, workspace, swapped,
                                                               tmp_path):
        arrays, meta = load_checkpoint(workspace / "run" / "checkpoint.json")
        assert meta.pop("vocab_fingerprint") == load_dataset(
            workspace / "data.jsonl").vocab.fingerprint()
        old = tmp_path / "old.json"
        save_checkpoint(old, {k: Tensor(a) for k, a in arrays.items()}, meta=meta)
        assert main(["eval", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(old), "--dataset", str(swapped),
                     "--out", str(tmp_path / "eval")]) == 0


class TestSample:
    def test_writes_uncertainty_jsonl(self, workspace, tmp_path):
        out = tmp_path / "samples.jsonl"
        assert main(["sample", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--n", "2", "--mc-samples", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            assert {"id", "samples", "epistemic", "aleatoric",
                    "predictive"} <= set(rec)
            assert len(rec["samples"]) == 3
            assert rec["epistemic"] >= 0.0
            assert rec["predictive"] >= rec["aleatoric"]

    @pytest.mark.parametrize("flags", [["--mc-samples", "0"], ["--mc-samples", "-2"],
                                       ["--n", "0"]])
    def test_bad_count_is_one_usage_error(self, workspace, tmp_path, capsys, flags):
        out = tmp_path / "samples.jsonl"
        assert main(["sample", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR USAGE_INVALID: "), err
        assert not out.exists()


class TestVariance:
    def test_writes_csv(self, workspace, tmp_path):
        out = tmp_path / "var.csv"
        assert main(["variance", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--n", "3", "--mc-samples", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,normalized_variance"
        assert len(lines) == 4

    def test_no_examples_is_a_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert main(["variance", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--n", "0", "--mc-samples", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR USAGE_INVALID: "), err
        assert not out.exists()

    def test_single_sample_is_a_usage_error(self, workspace, tmp_path, capsys):
        assert main(["variance", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--n", "2", "--mc-samples", "1",
                     "--out", str(tmp_path / "v.csv")]) == 1
        assert capsys.readouterr().err.startswith("ERROR USAGE_INVALID:")

    @pytest.mark.parametrize("rate", ["-0.1", "nan", "1.5"])
    def test_rate_outside_the_dropout_domain_is_a_usage_error(self, workspace, tmp_path,
                                                              capsys, rate):
        out = tmp_path / "v.csv"
        assert main(["variance", "--config", str(workspace / "cfg.json"),
                     "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--n", "2", "--mc-samples", "3", "--rate", rate,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("ERROR USAGE_INVALID: dropout rate")
        assert not out.exists()


class TestSweep:
    def manifest(self, workspace, tmp_path, axes):
        base = json.loads((workspace / "cfg.json").read_text())
        base["optimizer"]["epochs"] = 1
        base["out_dir"] = ""
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"base": base, "axes": axes}))
        return path

    def test_grid_runs_and_summarizes(self, workspace, tmp_path, capsys):
        manifest = self.manifest(workspace, tmp_path,
                                 {"combiner": ["moderator", "mixture"]})
        out = tmp_path / "sweep"
        assert main(["sweep", "--manifest", str(manifest),
                     "--out", str(out)]) == 0
        summary = (out / "sweep.csv").read_text().splitlines()
        assert summary[0] == "name,combiner,bleu1,bleu2,bleu3,bleu4,rouge_l,cider"
        assert len(summary) == 3
        for combo in ("combiner=moderator", "combiner=mixture"):
            assert (out / combo / "checkpoint.json").exists()
            assert (out / combo / "report.csv").exists()
            assert (out / combo / "config.json").exists()

    def test_dotted_axis_and_run_naming(self, workspace, tmp_path):
        manifest = self.manifest(
            workspace, tmp_path,
            {"dropout.rate": [0.0, 0.1], "seed": [1]})
        out = tmp_path / "sweep"
        assert main(["sweep", "--manifest", str(manifest),
                     "--out", str(out)]) == 0
        assert (out / "rate=0.0_seed=1").is_dir()
        assert (out / "rate=0.1_seed=1").is_dir()

    def test_duplicate_axis_values_rejected(self, workspace, tmp_path, capsys):
        manifest = self.manifest(workspace, tmp_path, {"seed": [1, 1]})
        assert main(["sweep", "--manifest", str(manifest),
                     "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith("ERROR MANIFEST_INVALID:")

    @pytest.mark.parametrize("axes", [{"mc_inference": [False]},
                                      {"dropout.kind": ["bernoulli", "none"]},
                                      {"optimizer.algorithm": ["sgd"]}])
    def test_removed_setting_rejected(self, workspace, tmp_path, capsys, axes):
        manifest = self.manifest(workspace, tmp_path, axes)
        assert main(["sweep", "--manifest", str(manifest),
                     "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith("ERROR MANIFEST_INVALID:")

    def test_mistyped_axis_value_rejected(self, workspace, tmp_path, capsys):
        manifest = self.manifest(workspace, tmp_path, {"enc_dim": ["8"]})
        assert main(["sweep", "--manifest", str(manifest),
                     "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR MANIFEST_INVALID:"), err

    def test_unknown_axis_key_rejected(self, workspace, tmp_path, capsys):
        manifest = self.manifest(workspace, tmp_path, {"sparkle": [1, 2]})
        assert main(["sweep", "--manifest", str(manifest),
                     "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith("ERROR MANIFEST_INVALID:")

    @pytest.mark.parametrize("key", ["seed.x", "dropout.rate.x"])
    def test_axis_through_a_scalar_rejected(self, workspace, tmp_path, capsys, key):
        manifest = self.manifest(workspace, tmp_path, {key: [1]})
        assert main(["sweep", "--manifest", str(manifest),
                     "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"ERROR MANIFEST_INVALID: run 'x=1' is not a valid config: "
                       f"unknown config key '{key}'"]
        assert not (tmp_path / "s").exists()

    # every run trains on the one base dataset and writes under --out, so a
    # run's config.json would record a path the run did not use
    @pytest.mark.parametrize("key", ["dataset", "out_dir"])
    def test_dataset_and_out_dir_axes_rejected(self, workspace, tmp_path, capsys, key):
        manifest = self.manifest(workspace, tmp_path,
                                 {key: [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]})
        assert main(["sweep", "--manifest", str(manifest),
                     "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"ERROR MANIFEST_INVALID: axis '{key}' cannot vary: every run of "
                       "a sweep trains on one dataset and writes under --out"]
        assert not (tmp_path / "s").exists()

    # a number would reach open() as a file descriptor; one this large is
    # never open, so a regression here cannot read or close a live one
    @pytest.mark.parametrize("base_config", [[1], {"seed": 1}, 10**6])
    def test_base_config_that_is_not_a_path_rejected(self, tmp_path, capsys, base_config):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"base_config": base_config, "axes": {"seed": [1]}}))
        assert main(["sweep", "--manifest", str(manifest),
                     "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["ERROR MANIFEST_INVALID: manifest `base_config` must be a path "
                       f"string, got {base_config!r}"]

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"axes"'])
    def test_non_object_manifest_rejected(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        assert main(["sweep", "--manifest", str(manifest),
                     "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith("ERROR MANIFEST_INVALID:")

    def test_dataset_flag_overrides_the_base_and_is_recorded(self, workspace, tmp_path):
        manifest = self.manifest(workspace, tmp_path, {"seed": [1]})
        data = json.loads(manifest.read_text())
        data["base"]["dataset"] = str(tmp_path / "ghost.jsonl")
        manifest.write_text(json.dumps(data))
        dataset = str(workspace / "data.jsonl")
        out = tmp_path / "sweep"
        assert main(["sweep", "--manifest", str(manifest), "--dataset", dataset,
                     "--out", str(out)]) == 0
        run = out / "seed=1"
        assert json.loads((run / "config.json").read_text())["dataset"] == dataset
        # the saved config evaluates its checkpoint without a --dataset flag
        assert main(["eval", "--config", str(run / "config.json"),
                     "--checkpoint", str(run / "checkpoint.json")]) == 0

    def test_missing_manifest(self, tmp_path, capsys):
        assert main(["sweep", "--manifest", str(tmp_path / "ghost.json"),
                     "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith("ERROR MANIFEST_NOT_FOUND:")

    def test_empty_axes_rejected(self, workspace, tmp_path, capsys):
        manifest = self.manifest(workspace, tmp_path, {})
        assert main(["sweep", "--manifest", str(manifest),
                     "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith("ERROR MANIFEST_INVALID:")
