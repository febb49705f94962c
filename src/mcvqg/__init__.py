"""Multi-cue Bayesian question generation.

MC-dropout cue encoders, per-cue fusion with a mixture-of-experts moderator,
and an uncertainty-aware LSTM decoder trained with an MC aleatoric loss and
a gradient-reversal refinement of the mixed cue encoding.
"""

from .autodiff import Tape, Tensor, grad_check
from .config import RunConfig, config_from_dict, load_config
from .data import Dataset, load_dataset, save_dataset, synth_generate
from .decoder import MumcConfig, generate_greedy, generate_mc
from .metrics import EvalReport, bleu_n, cider, evaluate_corpus, rouge_l
from .model import MultiCueModel, make_batch
from .rng import RngStream
from .train import (TrainResult, evaluate_model, train_model,
                    variance_records)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "EvalReport", "MultiCueModel", "MumcConfig", "RngStream",
    "RunConfig", "Tape", "Tensor", "TrainResult", "bleu_n",
    "cider", "config_from_dict", "evaluate_corpus", "evaluate_model",
    "generate_greedy", "generate_mc", "grad_check", "load_config",
    "load_dataset", "make_batch", "rouge_l", "save_dataset",
    "synth_generate", "train_model", "variance_records",
]
