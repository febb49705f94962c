"""Run configuration: one strict dataclass tree mirroring the config file.

Parsing rejects unknown keys outright (a typo never becomes a silent
default) and any value not of its field's type, and `validate` enforces the
structural invariants. A rate of 0 turns dropout off; the named variants of
the ablation grid are plain field overrides (see the README).
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .data import atomic_write
from .decoder import MumcConfig
from .model import check_cue_set
from .nn import Dropout

OPTIMIZERS = ("adam",)
DECISION_MODES = ("deterministic", "mc")


@dataclass
class OptimizerConfig:
    algorithm: str = "adam"      # the one optimizer; configs may still name it
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 16


@dataclass
class RunConfig:
    cues: tuple = ("image", "place", "caption", "tag")
    combiner: str = "moderator"
    enc_dim: int = 32            # shared cue/fusion width d
    embed_dim: int = 24
    hidden_dim: int = 32         # decoder LSTM width
    image_dim: int = 32
    place_dim: int = 32
    dropout: Dropout = field(default_factory=Dropout)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    mumc_enabled: bool = True
    mumc: MumcConfig = field(default_factory=MumcConfig)
    seed: int = 0
    val_fraction: float = 0.1
    max_len: int = 16
    eval_mc_samples: int = 50
    decision_mode: str = "deterministic"
    dataset: str = ""
    out_dir: str = ""

    def validate(self):
        check_cue_set(self.cues, self.combiner)
        for name in ("enc_dim", "embed_dim", "hidden_dim", "image_dim",
                     "place_dim", "max_len", "eval_mc_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        self.dropout.validate()
        if self.optimizer.algorithm not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        for name, value in (("optimizer.learning_rate", self.optimizer.learning_rate),
                            ("mumc.alpha", self.mumc.alpha), ("mumc.gamma", self.mumc.gamma),
                            ("mumc.uncertainty_weight", self.mumc.uncertainty_weight)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.optimizer.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.optimizer.epochs < 1 or self.optimizer.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        self.mumc.validate()
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValueError("validation fraction must be in [0, 1)")
        if self.decision_mode not in DECISION_MODES:
            raise ValueError(f"decision mode must be one of {DECISION_MODES}")
        return self


def _check_type(where: str, ftype, value):
    """A JSON scalar against its field's type: a float field takes an int
    too, and a bool is neither an int nor a float."""
    allowed = (int, float) if ftype is float else (ftype,)
    if isinstance(value, bool) != (ftype is bool) or not isinstance(value, allowed):
        raise ValueError(f"{where} must be of type {ftype.__name__}, got {value!r}")


def _from_dict(cls, data, path):
    if not isinstance(data, dict):
        raise ValueError(f"config section {path or 'top level'} must be a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        where = f" in {path}" if path else ""
        raise ValueError(f"unknown config keys{where}: {sorted(unknown)} "
                         f"(valid: {sorted(fields)})")
    kwargs = {}
    for name, value in data.items():
        ftype = fields[name].type
        where = f"{path}.{name}" if path else name
        if dataclasses.is_dataclass(ftype):
            kwargs[name] = _from_dict(ftype, value, where)
        elif ftype is tuple:
            if not isinstance(value, (list, tuple)) or not all(isinstance(c, str)
                                                               for c in value):
                raise ValueError(f"{where} must be a list of strings, got {value!r}")
            kwargs[name] = tuple(value)
        else:
            _check_type(where, ftype, value)
            kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    """Strict parse: every key must name a RunConfig field."""
    return _from_dict(RunConfig, data, "")


def config_to_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["cues"] = list(cfg.cues)
    return out


def load_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"config file {path} is not valid JSON: {e}") from e
    return config_from_dict(data)


def save_config(path, cfg: RunConfig):
    with atomic_write(path) as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """New config with dotted-or-nested field overrides applied."""
    data = config_to_dict(cfg)
    for key, value in overrides.items():
        *path, leaf = key.split(".")
        node = data
        for part in path:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict) or leaf not in node:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(value, dict) and isinstance(node[leaf], dict):
            node[leaf] = {**node[leaf], **value}
        else:
            node[leaf] = value
    return config_from_dict(data)
