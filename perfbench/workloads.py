"""The three workloads and the loop that times them.

Every workload runs the paper's two costly paths on its own model shape,
as four phases taken in turn within each round, so a slow spell on the host
hits every phase alike:

- train:    one `train_model` call (two epochs, with its validation passes);
- mc_eval:  `evaluate_model(decision_mode="mc")` at T=20, one example a call;
- variance: `variance_records` at T=20 under a Bernoulli(0.3) probe, one
            example a call;
- det_eval: `evaluate_model(decision_mode="deterministic")`.

Every call is timed on a GaugedClock, which also times the host's own
speed (gauge()) and reports the call's seconds at a reference speed.

Inference runs on a model of the workload's shape that set-up trains from
a fixed seed until its greedy questions end in EOS, and restores through a
checkpoint; the inference work then hardly depends on --seed. Each round
repeats the same calls on the same inputs, so the counts the trace reports
repeat exactly.
"""

import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from mcvqg import train as mtrain
from mcvqg.config import config_from_dict
from mcvqg.data import synth_generate
from mcvqg.nn import load_checkpoint, restore_params, save_checkpoint
from mcvqg.rng import RngStream

import checks
from tracing import PHASES, Tracer, layer_metrics

TRAIN_EPOCHS = 2          # the fewest that show a falling train loss
MC_SAMPLES = 20           # T for MC eval and variance analysis
PROBE_RATE = 0.3          # dropout rate forced during variance analysis
SETUP_REPEATS = 5         # set-up runs per process; setup_s is their median
EVAL_POOL = 16            # held-out examples per workload; det_eval scores all
MC_EXAMPLES = 4           # mc_eval calls per round: their decode lengths vary
VARIANCE_EXAMPLES = 2     # variance calls per round
SETUP_TRAIN_SEED = 2020   # the inference model does not depend on --seed
REFERENCE_GAUGE_S = 0.0025  # a host between its fast and slow spells (see README)
HOST_SENSITIVITY = 0.8    # mcvqg's time grows as the gauge's to this power (README)

COMMON = {"combiner": "moderator", "val_fraction": 0.2, "max_len": 16,
          "eval_mc_samples": MC_SAMPLES}
MC_INDICES = list(range(MC_EXAMPLES))
VARIANCE_INDICES = list(range(VARIANCE_EXAMPLES))
POOL_INDICES = list(range(EVAL_POOL))


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict              # RunConfig fields; seed and epochs are set per run
    train_examples: int       # dataset size of the timed training phase
    setup_train: dict         # examples and epochs that train the inference model


WORKLOADS = {
    "mumc-train": Workload(
        why="default widths, four cues, B=16 MUMC with T=20 draws: the paper's "
            "batched training path",
        config={"cues": ["image", "place", "caption", "tag"], "enc_dim": 32,
                "embed_dim": 24, "hidden_dim": 32, "image_dim": 32, "place_dim": 32,
                "dropout": {"rate": 0.3, "kind": "bernoulli"},
                "mumc": {"mc_samples": 20},
                "optimizer": {"algorithm": "adam", "learning_rate": 0.03,
                              "batch_size": 16}},
        train_examples=40,
        setup_train={"examples": 64, "epochs": 5}),
    "b1-train": Workload(
        why="the acceptance criterion-5 shape at batch 1, where per-op Python "
            "overhead is nearly all of a step",
        config={"cues": ["image", "caption", "tag"], "enc_dim": 12, "embed_dim": 8,
                "hidden_dim": 16, "image_dim": 24, "place_dim": 8,
                "dropout": {"rate": 0.3, "kind": "bernoulli"},
                "mumc": {"mc_samples": 2},
                "optimizer": {"algorithm": "adam", "learning_rate": 0.03,
                              "batch_size": 1}},
        train_examples=8,
        setup_train={"examples": 8, "epochs": 6}),
    "mc-infer": Workload(
        why="the eval-scale shape (d=16, h=24) of MC eval and variance analysis, "
            "with the longest-trained inference model",
        config={"cues": ["image", "place", "caption", "tag"], "enc_dim": 16,
                "embed_dim": 12, "hidden_dim": 24, "image_dim": 32, "place_dim": 16,
                "dropout": {"rate": 0.3, "kind": "bernoulli"},
                "mumc": {"mc_samples": 20},
                "optimizer": {"algorithm": "adam", "learning_rate": 0.03,
                              "batch_size": 16}},
        train_examples=40,
        setup_train={"examples": 64, "epochs": 8}),
}

END_TO_END = {   # metric -> (unit, phase whose spans it is taken from)
    "setup_s": ("s", None),
    "train_examples_per_s": ("examples/s", "train"),
    "mc_eval_examples_per_s": ("examples/s", "mc_eval"),
    "variance_examples_per_s": ("examples/s", "variance"),
    "det_eval_examples_per_s": ("examples/s", "det_eval"),
    "peak_rss_mb": ("MB", None),
}


_GAUGE_ROWS = np.random.default_rng(0).random((32, 32))


def gauge() -> float:
    """Seconds for a fixed loop of small numpy calls and Python float
    arithmetic, the mix mcvqg's layers are made of, with no mcvqg code in
    it. Timed right before and right after a span, it says how fast the
    host ran at the time: the same loop takes twice as long in the host's
    slow spells."""
    rows = _GAUGE_ROWS
    t0 = time.perf_counter()
    total = 0.0
    for i in range(1000):
        total += float((rows[i % 32] * rows[(i + 1) % 32]).sum())
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, gauge_before: float, gauge_after: float) -> float:
    """`seconds` scaled to a host that runs gauge() in REFERENCE_GAUGE_S."""
    speed = 2.0 * REFERENCE_GAUGE_S / (gauge_before + gauge_after)
    return seconds * speed ** HOST_SENSITIVITY


class GaugedClock:
    """Sums the seconds of the calls it makes, as measured and at the
    reference speed. A call is timed in segments with gauge() between them:
    each call of `mcvqg.train.run_step` starts a new segment, so that no
    segment of a training run lasts long enough for the host's speed to
    change much within it. Gauge time is not counted."""

    def __init__(self):
        self.measured = self.reference = 0.0

    def call(self, fn, *args, **kwargs):
        inner = mtrain.run_step   # the tracer's wrapper in a traced round

        def split(*a, **k):
            self._cut()
            return inner(*a, **k)

        mtrain.run_step = split
        self._gauge = gauge()
        self._start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._cut()
            mtrain.run_step = inner

    def _cut(self):
        elapsed = time.perf_counter() - self._start
        after = gauge()
        self.measured += elapsed
        self.reference += at_reference_speed(elapsed, self._gauge, after)
        self._gauge = after
        self._start = time.perf_counter()


class Bench:
    """One workload at one seed: set-up, warm-up, then timed rounds."""

    def __init__(self, name: str, seed: int, out_dir: str, tracer: Tracer = None):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.problems = []
        self.cfg = config_from_dict({**COMMON, **self.wl.config, "seed": seed,
                                     "optimizer": {**self.wl.config["optimizer"],
                                                   "epochs": TRAIN_EPOCHS}})
        self.var_rng = RngStream(seed).child("variance")
        self.reference = {}

    # -- set-up --------------------------------------------------------

    def _span(self, name):
        return self.tracer.open(name) if self.tracer is not None else None

    def _end(self, span):
        if span is not None:
            self.tracer.close(span)

    def _checkpoint_round_trip(self, params):
        path = os.path.join(self.out_dir, f"checkpoint-{self.name}-{os.getpid()}.json")
        span = self._span("checkpoint_save")
        save_checkpoint(path, params)
        self._end(span)
        span = self._span("checkpoint_load")
        arrays, _ = load_checkpoint(path)
        restore_params(self.model.named_params(), arrays)
        self._end(span)
        os.remove(path)

    def setup(self) -> tuple:
        """Synthesize the inputs, build the inference model, train it from
        the fixed seed and restore it through a checkpoint. Returns the
        set-up's seconds as measured and at the reference speed."""
        clock = GaugedClock()
        stage = clock.call
        c = self.cfg
        self.data = stage(synth_generate, self.wl.train_examples, self.seed,
                          image_dim=c.image_dim, place_dim=c.place_dim)
        eval_seed = int(RngStream(self.seed).child("eval").integers(0, 1 << 31))
        self.pool = stage(synth_generate, EVAL_POOL, eval_seed, image_dim=c.image_dim,
                          place_dim=c.place_dim)
        self.model = stage(mtrain.build_model, c, self.pool)
        spec = self.wl.setup_train
        setup_cfg = config_from_dict({**COMMON, **self.wl.config,
                                      "seed": SETUP_TRAIN_SEED,
                                      "optimizer": {**self.wl.config["optimizer"],
                                                    "epochs": spec["epochs"]}})
        data = stage(synth_generate, spec["examples"], SETUP_TRAIN_SEED,
                     image_dim=c.image_dim, place_dim=c.place_dim)
        trained = stage(mtrain.train_model, setup_cfg, data)
        stage(self._checkpoint_round_trip, trained.model.named_params())
        return clock.measured, clock.reference

    # -- phases: each call returns (units of work, output) ---------------
    # MC eval and variance take one example per call, so that no call runs
    # long enough for the host's speed to change much within it (training
    # runs are split at their steps by GaugedClock)

    def _train(self, _):
        result = mtrain.train_model(self.cfg, self.data)
        return TRAIN_EPOCHS * len(result.train_indices), result

    def _mc_eval(self, idx):
        return 1, mtrain.evaluate_model(self.model, self.pool, [idx], cfg=self.cfg,
                                        decision_mode="mc")

    def _variance(self, idx):
        return 1, mtrain.variance_records(self.model, self.pool, [idx], T=MC_SAMPLES,
                                          rng=self.var_rng, sample_rate=PROBE_RATE)

    def _det_eval(self, _):
        return EVAL_POOL, mtrain.evaluate_model(self.model, self.pool, POOL_INDICES,
                                                cfg=self.cfg,
                                                decision_mode="deterministic")

    def calls(self):
        """The (phase, example index or None) calls of one round, in order."""
        return ([("train", None)] + [("mc_eval", i) for i in MC_INDICES]
                + [("variance", i) for i in VARIANCE_INDICES] + [("det_eval", None)])

    def _check(self, phase, idx, out):
        ref = self.reference.get((phase, idx))
        if phase == "train":
            return checks.check_training(out, ref)
        if phase == "mc_eval":
            return checks.check_eval(*out, self.pool, [idx],
                                     max_len=self.cfg.max_len, mc_samples=MC_SAMPLES)
        if phase == "det_eval":
            return checks.check_eval(*out, self.pool, POOL_INDICES,
                                     max_len=self.cfg.max_len, require_eos=True)
        if ref is None:
            return checks.check_variance(self.model, self.pool, [idx], out,
                                         T=MC_SAMPLES, rate=PROBE_RATE, rng=self.var_rng)
        same = all(a.mc_mean.tobytes() == b.mc_mean.tobytes()
                   and a.normalized_variance == b.normalized_variance
                   for a, b in zip(out, ref))
        return [] if same else ["variance records differ from the checked first call"]

    def warm_up(self):
        """One untimed round. Its outputs pass the full checks and become
        the references later rounds must repeat."""
        for phase, idx in self.calls():
            _, out = getattr(self, "_" + phase)(idx)
            self._record_problems(phase, self._check(phase, idx, out))
            self.reference[(phase, idx)] = out

    def _record_problems(self, phase, problems):
        for p in problems:
            if f"{phase}: {p}" not in self.problems:
                self.problems.append(f"{phase}: {p}")
                print(f"perfbench: CHECK FAILED {self.name} {phase}: {p}",
                      file=sys.stderr)

    def round(self, stats, traced: bool):
        """Make each call of the round on a GaugedClock; append seconds per
        unit of work, as measured and at the reference speed, to stats."""
        for phase, idx in self.calls():
            stats.attempted[phase] += 1
            clock = GaugedClock()
            span = self.tracer.open(phase) if traced else None
            try:
                units, out = clock.call(getattr(self, "_" + phase), idx)
            except Exception:
                stats.failed[phase] += 1
                traceback.print_exc()
                continue
            finally:
                if span is not None:
                    self.tracer.close(span)
            if span is not None:
                span.units = TRAIN_EPOCHS if phase == "train" else units
            stats.seconds_per_unit[phase].append(clock.measured / units)
            stats.reference_seconds_per_unit[phase].append(clock.reference / units)
            self._record_problems(phase, self._check(phase, idx, out))


class Stats:
    def __init__(self):
        self.attempted = {p: 0 for p in PHASES}
        self.failed = {p: 0 for p in PHASES}
        self.seconds_per_unit = {p: [] for p in PHASES}
        self.reference_seconds_per_unit = {p: [] for p in PHASES}


def summary(values):
    """(median, first quartile, third quartile, count)."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """Measure one workload; returns the result object the CLI prints."""
    tracer = Tracer() if trace else None
    setup_times, setup_reference_times = [], []
    for _ in range(SETUP_REPEATS):
        bench = Bench(name, seed, out_dir, tracer)
        measured, reference = bench.setup()
        setup_times.append(measured)
        setup_reference_times.append(reference)
    bench.warm_up()

    stats, round_seconds = Stats(), {True: [], False: []}
    deadline = time.perf_counter() + seconds
    while True:
        # the traced run alternates traced and untraced rounds, so their
        # difference is the tracing overhead under the same host conditions
        for traced in ((True, False) if trace else (False,)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                bench.round(stats, traced)
            finally:
                round_seconds[traced].append(time.perf_counter() - t0)
                if traced:
                    tracer.uninstall()
        if time.perf_counter() >= deadline:
            break

    lines, metrics = [], {}
    if trace:
        for metric, (value, unit) in layer_metrics(tracer.spans).items():
            metrics[metric] = {"value": value, "unit": unit}
            lines.append(f"{metric:32s} {value:14.4f} {unit}")
        traced, plain = round_seconds[True], round_seconds[False]
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        metrics["trace_overhead_pct"] = {"value": overhead, "unit": "%"}
        lines.append(f"{'trace_overhead_pct':32s} {overhead:14.4f} % "
                     f"({len(traced)} traced vs {len(plain)} plain rounds)")
        tracer.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.json"))
    else:
        for metric, (unit, phase) in END_TO_END.items():
            if metric == "setup_s":
                value, q1, q3, n = summary(setup_reference_times)
                tail = (f"median of {n} set-ups; as measured "
                        f"{statistics.median(setup_times):.4f}")
            elif metric == "peak_rss_mb":
                value = q1 = q3 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                tail = "whole process"
            else:
                # units over all of the phase's seconds in the run, at the
                # reference speed: steadier from run to run than the median
                # span or the seconds as measured (see README); the quartiles
                # are of single calls, and inverting swaps them
                per_unit = stats.reference_seconds_per_unit[phase]
                measured = stats.seconds_per_unit[phase]
                _, q3, q1, n = summary(per_unit)
                value, q1, q3 = len(per_unit) / sum(per_unit), 1.0 / q1, 1.0 / q3
                tail = (f"{n} calls, attempted {stats.attempted[phase]}, "
                        f"failed {stats.failed[phase]}; as measured "
                        f"{len(measured) / sum(measured):.4f}")
            metrics[metric] = {"value": value, "unit": unit}
            lines.append(f"{metric:26s} {value:12.4f} {unit:11s} "
                         f"q1 {q1:.4f} q3 {q3:.4f}  {tail}")
    return {
        "lines": lines,
        "setup_times": setup_times,
        "setup_reference_times": setup_reference_times,
        "seconds_per_unit": stats.seconds_per_unit,
        "reference_seconds_per_unit": stats.reference_seconds_per_unit,
        "problems": bench.problems,
        "result": {"correct": not bench.problems,
                   "attempted": sum(stats.attempted.values()),
                   "failed": sum(stats.failed.values()),
                   "metrics": metrics},
    }
