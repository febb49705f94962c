"""Short-mode tests of the benchmark: every workload runs for a fraction of
a second with all of its correctness checks, traced and untraced.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from mcvqg import train as mtrain  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT, seconds="0.2"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_short_run(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 4
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("b1-train", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_bleu1_max_by_hand():
    # 3 of 4 unigrams match the first reference; the second is shorter with
    # 2 matches; brevity penalty is 1 for both
    cand = ["what", "is", "the", "dog"]
    refs = [["what", "is", "the", "cat", "?"], ["is", "dog"]]
    assert checks.bleu1_max([cand], [refs]) == pytest.approx(
        100 * 3 / 4 * math.exp(1 - 5 / 4))
    assert checks.bleu1_max([[]], [[["a"]]]) == 0.0
    # clipping: a repeated word counts once per reference occurrence
    assert checks.bleu1_max([["a", "a"]], [[["a", "b"]]]) == 50.0


def _curve(*losses):
    return [{"epoch": i, "train_loss": v, "val_loss": v, "l_gen": v, "l_u": 0.0}
            for i, v in enumerate(losses)]


def test_training_check_flags_bad_curves():
    model = SimpleNamespace(named_params=dict)
    good = SimpleNamespace(curve=_curve(3.0, 2.5), model=model)
    assert checks.check_training(good, good) == []
    assert checks.check_training(SimpleNamespace(curve=_curve(3.0, 3.0), model=model),
                                 None)
    assert checks.check_training(SimpleNamespace(curve=_curve(3.0, math.nan),
                                                 model=model), None)
    other = SimpleNamespace(curve=_curve(3.0, 2.4), model=model)
    assert checks.check_training(other, good)


def test_gauged_clock_splits_at_run_step(monkeypatch):
    gauges, steps = [], []
    # a host that runs the gauge at half the reference speed
    monkeypatch.setattr(workloads, "gauge",
                        lambda: gauges.append(1) or 2 * workloads.REFERENCE_GAUGE_S)
    monkeypatch.setattr(mtrain, "run_step", steps.append)
    stub = mtrain.run_step

    def training():
        for i in range(3):
            mtrain.run_step(i)
        time.sleep(0.01)

    clock = workloads.GaugedClock()
    clock.call(training)
    assert steps == [0, 1, 2] and mtrain.run_step is stub
    assert len(gauges) == 5          # before, at each of 3 steps, after
    assert clock.measured >= 0.01
    assert clock.reference == pytest.approx(
        clock.measured * 0.5 ** workloads.HOST_SENSITIVITY)
    with pytest.raises(ZeroDivisionError):
        clock.call(lambda: 1 / 0)
    assert mtrain.run_step is stub
