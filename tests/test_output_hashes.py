"""`tools/output_hashes.py` is the check behind every bitwise-unchanged
claim, so it has to print the same lines for the same code and seed, and
`--against` has to report every line that differs."""

import importlib.util
import os
import re

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "output_hashes.py")


def _tool():
    spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_print_the_same_hashes(capsys):
    tool = _tool()
    argv = ["5", "--epochs", "1", "--configs", "b1-train"]
    assert tool.main(argv) == 0
    first = capsys.readouterr().out.splitlines()
    assert tool.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == first
    outputs = ["step", "train", "det_eval", "det_tokens", "mc_eval", "variance",
               "variance_probe"]
    assert [line.split()[2] for line in first] == outputs
    assert all(re.fullmatch(r"seed=5 config=b1-train \w+ [0-9a-f]{64}", line)
               for line in first)


def test_digest_sees_the_sign_of_zero():
    tool = _tool()
    assert tool.digest([0.0]) != tool.digest([-0.0])
    assert tool.digest({"a": [1, 2.5]}) == tool.digest({"a": [1, 2.5]})


def _stub(tool, monkeypatch, lines):
    """Replace the per-tree runs with canned lines; record what was asked."""
    calls = []

    def fake(rev, argv):
        calls.append((rev, argv))
        return lines[rev]

    monkeypatch.setattr(tool, "hashes_at", fake)
    return calls


def test_against_identical_lines_exit_0(capsys, monkeypatch):
    tool = _tool()
    same = ["seed=5 config=b1-train step " + "a" * 64, "seed=5 config=b1-train train " + "b" * 64]
    calls = _stub(tool, monkeypatch, {"HEAD~1": same, None: list(same)})
    assert tool.main(["5", "6", "--configs", "b1-train", "--against", "HEAD~1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2 lines identical, 0 differ (HEAD~1 -> this checkout)"]
    argv = ["5", "6", "--epochs", "2", "--configs", "b1-train"]
    assert calls == [("HEAD~1", argv), (None, argv)]


def test_against_prints_each_differing_line_and_exits_1(capsys, monkeypatch):
    tool = _tool()
    parent = ["seed=5 config=mc-infer step " + "a" * 64,
              "seed=5 config=mc-infer train " + "b" * 64,
              "seed=5 config=mc-infer variance " + "c" * 64]
    change = [parent[0], "seed=5 config=mc-infer train " + "d" * 64]
    calls = _stub(tool, monkeypatch, {"abc123": parent, None: change})
    assert tool.main(["5", "--epochs", "1", "--against", "abc123"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "- " + parent[1], "- " + parent[2], "+ " + change[1],
        "1 lines identical, 3 differ (abc123 -> this checkout)"]
    assert calls[0] == ("abc123", ["5", "--epochs", "1"])
