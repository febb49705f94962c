"""`tools/output_hashes.py` is the check behind every bitwise-unchanged
claim, so it has to print the same lines for the same code and seed."""

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
    outputs = ["step", "train", "det_eval", "det_tokens", "mc_eval", "variance"]
    assert [line.split()[2] for line in first] == outputs
    assert all(re.fullmatch(r"seed=5 config=b1-train \w+ [0-9a-f]{64}", line)
               for line in first)


def test_digest_sees_the_sign_of_zero():
    tool = _tool()
    assert tool.digest([0.0]) != tool.digest([-0.0])
    assert tool.digest({"a": [1, 2.5]}) == tool.digest({"a": [1, 2.5]})
