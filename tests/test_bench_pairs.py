"""`tools/bench_pairs.py` backs every performance claim: the change side has
to run the code it was started on, and the summary has to count wins and
medians in each metric's own direction."""

import importlib.util
import json
import os
import subprocess

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


def _run(value, **metrics):
    return {"metrics": {name: {"value": v} for name, v in metrics.items()}}


def test_an_edit_during_the_run_does_not_reach_later_pairs(tmp_path, monkeypatch):
    tool = _tool()
    repo = tmp_path / "repo"
    for path, text in (("src/mcvqg/marker.py", "VALUE = 1\n"),
                       ("perfbench/run.py", "# stub\n"),
                       ("BENCHMARK.json", json.dumps({
                           "run_seconds": 1,
                           "end_to_end": [{"name": "speed", "better": "higher"}]}))):
        (repo / path).parent.mkdir(parents=True, exist_ok=True)
        (repo / path).write_text(text)
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "perfbench" / "results").mkdir()
    (repo / "perfbench" / "results" / "old.json").write_text("{}\n")
    monkeypatch.setattr(tool, "ROOT", str(repo))
    seen = []

    def run_once(tree, workload, seed, seconds):
        assert not os.path.exists(os.path.join(tree, "perfbench", "results"))
        text = open(os.path.join(tree, "src", "mcvqg", "marker.py")).read()
        seen.append(text)
        # every run edits the checkout, as work going on beside the pairs might
        (repo / "src" / "mcvqg" / "marker.py").write_text("VALUE = 2\n")
        return _run(0, speed=float(seed))

    monkeypatch.setattr(tool, "run_once", run_once)
    assert tool.main(["HEAD", "t", "--workload", "w", "--seeds", *map(str, range(10))]) == 0
    assert seen == ["VALUE = 1\n"] * 20
    result = json.loads((repo / "BENCH_t.json").read_text())
    assert result["change_src_sha256"] == result["parent_src_sha256"]
    assert result["summary"]["speed"]["wins"] == 0


@pytest.mark.parametrize("better, wins, pct", [("higher", 3, 50.0), ("lower", 1, 50.0)])
def test_summary_counts_in_the_metric_direction(better, wins, pct):
    tool = _tool()
    parent = [10.0, 20.0, 30.0, 40.0]
    change = [30.0, 5.0, 45.0, 50.0]
    pairs = [{"parent": _run(0, m=p), "change": _run(0, m=c)} for p, c in zip(parent, change)]
    s = tool.summarize(pairs, {"m": better})["m"]
    assert s["better"] == better and s["pairs"] == 4 and s["wins"] == wins
    assert s["parent"]["median"] == 25.0 and s["change"]["median"] == 37.5
    assert s["parent"]["q1"] == 17.5 and s["parent"]["q3"] == 32.5
    assert s["median_change_pct"] == pct
