"""Spans and counters recorded around calls into mcvqg's public functions.

`Tracer.install` replaces each traced function with a wrapper under the
name its caller looks up: `mcvqg.train` imports the decoder, metrics, nn and
data functions by name, so those are wrapped in `mcvqg.train`'s namespace;
methods are wrapped on their class. `uninstall` puts the originals back.
Every wrapped call records a span (name, start, end, parent). `Tensor`
constructions and `RngStream` draws are counted on the innermost open span.
Spans stay in memory until `write` dumps them.
"""

import json
import statistics
import time

from mcvqg import autodiff, cues, fusion, model, rng, train

PHASES = ("train", "mc_eval", "variance", "det_eval")


class Span:
    __slots__ = ("name", "start", "end", "parent", "tensors", "draws", "note",
                 "units")

    def __init__(self, name, parent, units=0):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.tensors = 0
        self.draws = 0
        self.note = 0        # tape length at backward, tokens from generate_mc
        self.units = units   # examples (or epochs) a phase span processed


def _tape_length(span, args, out):
    span.note = len(args[0])


def _mc_tokens(span, args, out):
    samples, _, unc = out
    span.note = sum(len(s.tokens) for s in samples) + len(unc["committee_tokens"])


# (owner, attribute, span name, hook run with (span, args, result))
BOUNDARIES = (
    (train, "run_step", "run_step", None),
    (train, "teacher_loss", "teacher_loss", None),
    (train, "make_batch", "make_batch", None),
    (train, "decode_teacher_forced", "decode_tf", None),
    (train, "gen_loss", "gen_loss", None),
    (train, "aleatoric_mc_loss", "aleatoric", None),
    (train, "mumc_refine", "mumc_refine", None),
    (train, "generate_mc", "generate_mc", _mc_tokens),
    (train, "generate_greedy", "greedy", None),
    (train, "mc_predict", "mc_predict", None),
    (train, "evaluate_corpus", "evaluate_corpus", None),
    (train.AdamOptimizer, "step", "optimizer", None),
    (train.AdamOptimizer, "zero", "optimizer", None),
    (autodiff.Tape, "backward", "backward", _tape_length),
    (model.MultiCueModel, "encode", "encode", None),
    (cues.CueEncoders, "encode", "cue_encode", None),
    (fusion.CueFusion, "fuse_all", "fusion", None),
    (fusion.Moderator, "gate", "fusion", None),
)
RNG_DRAWS = ("uniform", "normal", "integers", "shuffled")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self._saved = []

    def open(self, name, units=0) -> Span:
        span = Span(name, self.stack[-1] if self.stack else -1, units)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self.stack.pop()

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                hook(span, args, out)
            return out
        return wrapper

    def _tensor_counter(self, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if stack:
                spans[stack[-1]].tensors += 1
            return fn(*args, **kwargs)
        return wrapper

    def _draw_counter(self, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if stack:
                spans[stack[-1]].draws += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in BOUNDARIES:
            self._replace(owner, attr,
                          self._span_wrapper(getattr(owner, attr), name, hook))
        self._replace(autodiff.Tensor, "__init__",
                      self._tensor_counter(autodiff.Tensor.__init__))
        for attr in RNG_DRAWS:
            self._replace(rng.RngStream, attr,
                          self._draw_counter(getattr(rng.RngStream, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        fields = Span.__slots__
        with open(path, "w") as fh:
            json.dump({"fields": fields,
                       "spans": [[getattr(s, f) for f in fields] for s in self.spans]}, fh)


def _root_totals(spans):
    """Per phase span: totals over the spans beneath it, keyed by
    'ms:<name>', 'n:<name>', 'self:<name>' (duration less direct children),
    the same with '@step' for spans inside `run_step`, plus tensor, draw and
    note counts."""
    roots, in_step, child_ms = [], [], [0.0] * len(spans)
    totals = {}
    for i, s in enumerate(spans):
        ms = (s.end - s.start) * 1e3
        if s.parent < 0:
            roots.append(i)
            in_step.append(False)
            totals[i] = {}
        else:
            roots.append(roots[s.parent])
            in_step.append(in_step[s.parent] or s.name == "run_step")
            child_ms[s.parent] += ms
    for i, s in enumerate(spans):
        acc = totals[roots[i]]
        ms = (s.end - s.start) * 1e3
        keys = [""] + (["@step"] if in_step[i] else [])
        for suffix in keys:
            for key, value in ((f"ms:{s.name}", ms), (f"n:{s.name}", 1),
                               (f"self:{s.name}", ms - child_ms[i]),
                               (f"note:{s.name}", s.note), ("tensors", s.tensors),
                               ("draws", s.draws)):
                acc[key + suffix] = acc.get(key + suffix, 0) + value
    return [(spans[r], totals[r]) for r in totals]


# name -> (unit, phase, numerator key, denominator: "units" or "steps")
PER_STEP = "steps"
PER_UNIT = "units"
LAYER_METRICS = {
    "tape_nodes_per_step": ("count", "train", "note:backward", PER_STEP),
    "tensors_per_step": ("count", "train", "tensors@step", PER_STEP),
    "tensors_per_mc_example": ("count", "mc_eval", "tensors", PER_UNIT),
    "tensors_per_variance_example": ("count", "variance", "tensors", PER_UNIT),
    "backward_ms_per_step": ("ms", "train", "ms:backward", PER_STEP),
    "encode_calls_per_step": ("count", "train", "n:encode@step", PER_STEP),
    "encode_ms_per_step": ("ms", "train", "ms:encode@step", PER_STEP),
    "cue_encode_ms_per_step": ("ms", "train", "ms:cue_encode@step", PER_STEP),
    "fusion_ms_per_step": ("ms", "train", "ms:fusion@step", PER_STEP),
    "encode_calls_per_mc_example": ("count", "mc_eval", "n:encode", PER_UNIT),
    "encode_ms_per_mc_example": ("ms", "mc_eval", "ms:encode", PER_UNIT),
    "encode_ms_per_variance_example": ("ms", "variance", "ms:encode", PER_UNIT),
    "decode_tf_ms_per_step": ("ms", "train", "ms:decode_tf@step", PER_STEP),
    "gen_loss_ms_per_step": ("ms", "train", "ms:gen_loss@step", PER_STEP),
    "aleatoric_ms_per_step": ("ms", "train", "ms:aleatoric@step", PER_STEP),
    "mumc_refine_ms_per_step": ("ms", "train", "ms:mumc_refine@step", PER_STEP),
    "mc_decode_self_ms_per_example": ("ms", "mc_eval", "self:generate_mc", PER_UNIT),
    "decoder_tokens_per_mc_example": ("count", "mc_eval", "note:generate_mc", PER_UNIT),
    "greedy_ms_per_example": ("ms", "det_eval", "ms:greedy", PER_UNIT),
    "mc_predict_self_ms_per_example": ("ms", "variance", "self:mc_predict", PER_UNIT),
    "optimizer_ms_per_step": ("ms", "train", "ms:optimizer", PER_STEP),
    "val_ms_per_epoch": ("ms", "train", "ms:teacher_loss", PER_UNIT),
    "step_self_ms": ("ms", "train", "self:run_step", PER_STEP),
    "corpus_score_ms_per_example": ("ms", "det_eval", "ms:evaluate_corpus", PER_UNIT),
    "make_batch_ms_per_step": ("ms", "train", "ms:make_batch", PER_STEP),
    "rng_draws_per_step": ("count", "train", "draws@step", PER_STEP),
    "rng_draws_per_mc_example": ("count", "mc_eval", "draws", PER_UNIT),
}
# spans the benchmark opens itself, outside any phase
CHECKPOINT_METRICS = {"checkpoint_save_ms": "checkpoint_save",
                      "checkpoint_load_ms": "checkpoint_load"}


def layer_metrics(spans) -> dict:
    """Each per-layer metric as the layer's total over all spans of its
    phase divided by their steps or units: every round makes the same
    calls, so a count reads exactly its value per round. Checkpoint times
    are the median of their spans."""
    sums = {name: [0.0, 0] for name in LAYER_METRICS}
    for root, acc in _root_totals(spans):
        for name, (_, phase, key, denom) in LAYER_METRICS.items():
            if root.name != phase:
                continue
            sums[name][0] += acc.get(key, 0)
            sums[name][1] += acc.get("n:run_step", 0) if denom == PER_STEP else root.units
    out = {}
    for name, (unit, _, _, _) in LAYER_METRICS.items():
        total, base = sums[name]
        if base:
            out[name] = (total / base, unit)
    for name, span_name in CHECKPOINT_METRICS.items():
        times = [(s.end - s.start) * 1e3 for s in spans if s.name == span_name]
        if times:
            out[name] = (statistics.median(times), "ms")
    return out
