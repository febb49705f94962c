"""Tests for run configuration parsing, validation, overrides, and the
README's table of named variants."""

import json
import os
import re

import pytest

from mcvqg.config import (RunConfig, apply_overrides, config_from_dict, config_to_dict,
                          load_config, save_config)


class TestValidation:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_empty_cues_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            RunConfig(cues=()).validate()

    def test_unknown_cue_rejected(self):
        with pytest.raises(ValueError, match="unknown cues"):
            RunConfig(cues=("image", "sound")).validate()

    def test_multi_cue_without_image_rejected(self):
        with pytest.raises(ValueError, match="image"):
            RunConfig(cues=("caption", "tag")).validate()

    def test_single_nonimage_cue_allowed(self):
        RunConfig(cues=("caption",)).validate()

    def test_bad_combiner_rejected(self):
        with pytest.raises(ValueError, match="combiner"):
            RunConfig(combiner="sum").validate()

    @pytest.mark.parametrize("field", ["enc_dim", "embed_dim", "hidden_dim",
                                       "image_dim", "place_dim", "max_len",
                                       "eval_mc_samples"])
    def test_nonpositive_dims_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: 0}).validate()

    def test_dropout_rate_bounds(self):
        cfg = RunConfig()
        cfg.dropout.rate = 1.0
        with pytest.raises(ValueError, match="dropout rate"):
            cfg.validate()
        cfg.dropout.rate = -0.1
        with pytest.raises(ValueError, match="dropout rate"):
            cfg.validate()
        cfg.dropout.rate = 0.0
        cfg.validate()

    def test_bad_dropout_kind_rejected(self):
        cfg = RunConfig()
        cfg.dropout.kind = "dropconnect"
        with pytest.raises(ValueError, match="dropout kind"):
            cfg.validate()

    def test_none_is_not_a_dropout_kind(self):
        # a rate of 0 is the one way to turn dropout off
        cfg = config_from_dict({"dropout": {"rate": 0.0, "kind": "none"}})
        with pytest.raises(ValueError, match="dropout kind"):
            cfg.validate()

    def test_bad_optimizer_rejected(self):
        for name in ("rmsprop", "sgd"):
            cfg = RunConfig()
            cfg.optimizer.algorithm = name
            with pytest.raises(ValueError, match="optimizer"):
                cfg.validate()

    def test_nonpositive_training_knobs_rejected(self):
        for field, value in (("learning_rate", 0.0), ("epochs", 0),
                             ("batch_size", 0)):
            cfg = RunConfig()
            setattr(cfg.optimizer, field, value)
            with pytest.raises(ValueError):
                cfg.validate()

    def test_mumc_knobs_validated(self):
        cfg = RunConfig()
        cfg.mumc.mc_samples = 0
        with pytest.raises(ValueError):
            cfg.validate()
        cfg = RunConfig()
        cfg.mumc.alpha = 0.0
        with pytest.raises(ValueError, match="alpha"):
            cfg.validate()
        cfg = RunConfig()
        cfg.mumc.uncertainty_weight = -0.5
        with pytest.raises(ValueError, match="uncertainty weight"):
            cfg.validate()

    @pytest.mark.parametrize("section,field", [("optimizer", "learning_rate"),
                                               ("mumc", "alpha"), ("mumc", "gamma"),
                                               ("mumc", "uncertainty_weight")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_knobs_rejected(self, section, field, value):
        cfg = RunConfig()
        setattr(getattr(cfg, section), field, value)
        with pytest.raises(ValueError, match=f"{section}.{field} must be finite"):
            cfg.validate()

    def test_val_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            RunConfig(val_fraction=1.0).validate()
        RunConfig(val_fraction=0.0).validate()

    def test_mode_enums_checked(self):
        with pytest.raises(ValueError, match="decision mode"):
            RunConfig(decision_mode="vote").validate()


class TestParsing:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"cuez": ["image"]})

    @pytest.mark.parametrize("key", ["mc_inference", "bleu_mode"])
    def test_removed_fields_are_unknown_keys(self, key):
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            config_from_dict({key: "max"})

    def test_unknown_nested_key_names_its_section(self):
        with pytest.raises(ValueError, match="optimizer"):
            config_from_dict({"optimizer": {"momentum": 0.9}})
        with pytest.raises(ValueError, match="mumc"):
            config_from_dict({"mumc": {"samples": 4}})

    def test_nested_section_must_be_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            config_from_dict({"dropout": 0.3})

    def test_cues_must_be_a_list(self):
        with pytest.raises(ValueError, match="cues"):
            config_from_dict({"cues": "image"})
        with pytest.raises(ValueError, match="cues must be a list of strings"):
            config_from_dict({"cues": ["image", 3]})

    @pytest.mark.parametrize("data,where", [
        ({"enc_dim": "8"}, "enc_dim"), ({"enc_dim": 8.0}, "enc_dim"),
        ({"seed": True}, "seed"), ({"optimizer": {"epochs": True}}, "optimizer.epochs"),
        ({"mumc": {"mc_samples": 2.5}}, "mumc.mc_samples"),
        ({"val_fraction": "0.1"}, "val_fraction"), ({"val_fraction": False}, "val_fraction"),
        ({"dropout": {"rate": "0.3"}}, "dropout.rate"), ({"mumc_enabled": 1}, "mumc_enabled"),
        ({"mumc_enabled": "true"}, "mumc_enabled"), ({"combiner": 3}, "combiner"),
        ({"dropout": {"kind": True}}, "dropout.kind"), ({"dataset": None}, "dataset")])
    def test_value_of_the_wrong_type_is_rejected(self, data, where):
        with pytest.raises(ValueError, match=f"^{where} must be of type"):
            config_from_dict(data)

    def test_int_in_a_float_field_is_kept_as_given(self):
        cfg = config_from_dict({"val_fraction": 0, "optimizer": {"learning_rate": 1},
                                "mumc": {"gamma": 2}, "mumc_enabled": False})
        assert cfg.val_fraction == 0 and cfg.optimizer.learning_rate == 1
        assert cfg.mumc.gamma == 2 and cfg.mumc_enabled is False
        cfg.validate()

    def test_round_trip_identity(self):
        cfg = RunConfig(cues=("image", "tag"), combiner="mixture", seed=17,
                        dataset="d.jsonl", out_dir="runs/x")
        cfg.optimizer.learning_rate = 0.01
        cfg.mumc.gamma = 0.5
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert isinstance(again.cues, tuple)

    def test_partial_dict_fills_defaults(self):
        cfg = config_from_dict({"seed": 4, "dropout": {"rate": 0.1}})
        assert cfg.seed == 4
        assert cfg.dropout.rate == 0.1
        assert cfg.dropout.kind == RunConfig().dropout.kind
        assert cfg.optimizer == RunConfig().optimizer

    def test_save_load_round_trip(self, tmp_path):
        cfg = RunConfig(seed=23, cues=("image", "place", "caption"))
        path = tmp_path / "cfg.json"
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_config(path)


class TestOverrides:
    def test_dotted_path_changes_one_leaf(self):
        base = RunConfig()
        out = apply_overrides(base, {"optimizer.learning_rate": 0.125})
        assert out.optimizer.learning_rate == 0.125
        assert out.optimizer.epochs == base.optimizer.epochs
        assert base.optimizer.learning_rate == RunConfig().optimizer.learning_rate

    def test_dict_value_merges_into_section(self):
        out = apply_overrides(RunConfig(), {"dropout": {"kind": "gaussian"}})
        assert out.dropout.kind == "gaussian"
        assert out.dropout.rate == RunConfig().dropout.rate

    def test_override_of_the_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="eval_mc_samples must be of type int"):
            apply_overrides(RunConfig(), {"eval_mc_samples": "3"})

    def test_unknown_paths_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            apply_overrides(RunConfig(), {"optimizer.momentum": 0.9})
        with pytest.raises(ValueError, match="unknown config key"):
            apply_overrides(RunConfig(), {"nope": 1})

    @pytest.mark.parametrize("key", ["seed.x", "dropout.rate.x", "optimizer.epochs.x.y"])
    def test_path_through_a_scalar_rejected(self, key):
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            apply_overrides(RunConfig(), {key: 1})

    def test_returns_new_config(self):
        base = RunConfig()
        out = apply_overrides(base, {"seed": 99})
        assert out is not base
        assert base.seed == 0 and out.seed == 99


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def readme_variants() -> dict:
    """The README's named-variant table: name -> dotted-key overrides."""
    rows = {}
    with open(README) as fh:
        for line in fh:
            row = re.match(r"\| `(MC-[\w-]+)` \| (.*?) \|", line)
            if row:
                rows[row.group(1)] = {key: json.loads(value) for key, value in
                                      re.findall(r"`([\w.]+): ([^`]+)`", row.group(2))}
    return rows


def variant_config(base: RunConfig, name: str) -> RunConfig:
    return apply_overrides(base, readme_variants()[name])


class TestVariants:
    """Each named variant of the ablation grid is a set of plain overrides."""

    def test_every_variant_validates(self):
        base = RunConfig()
        variants = readme_variants()
        assert sorted(variants) == ["MC-BMN", "MC-BMN-G", "MC-BMix", "MC-SMN", "MC-SMix"]
        for name in variants:
            variant_config(base, name).validate()

    def test_mixture_rows_drop_the_moderator(self):
        base = RunConfig()
        assert variant_config(base, "MC-SMix").combiner == "mixture"
        assert variant_config(base, "MC-BMix").combiner == "mixture"
        assert variant_config(base, "MC-BMN").combiner == "moderator"

    def test_simple_mixture_disables_dropout(self):
        cfg = variant_config(RunConfig(), "MC-SMix")
        assert cfg.dropout.rate == 0.0

    def test_bayesian_rows_sample_bernoulli(self):
        for name in ("MC-BMix", "MC-BMN", "MC-SMN"):
            assert variant_config(RunConfig(), name).dropout.kind == "bernoulli"

    def test_smn_disables_inference_sampling_only(self):
        cfg = variant_config(RunConfig(), "MC-SMN")
        assert cfg.decision_mode == "deterministic"
        assert cfg.dropout.rate > 0
        assert variant_config(RunConfig(), "MC-BMN").decision_mode == "mc"

    def test_gaussian_variant(self):
        assert variant_config(RunConfig(), "MC-BMN-G").dropout.kind == "gaussian"

    def test_variants_leave_base_untouched(self):
        base = RunConfig()
        snapshot = config_to_dict(base)
        for name in readme_variants():
            variant_config(base, name)
        assert config_to_dict(base) == snapshot
