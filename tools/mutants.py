"""Run each committed mutant of `src/` against the fast tests.

    python tools/mutants.py [NAME ...]

A mutant is a small edit, nearly always of one line, that breaks one
sentence of the paper or one invariant of the program; MUTANTS names it by
that sentence. For each mutant (or each one named on the command line),
HEAD is extracted with `git archive` into a temporary directory, the edit is
applied there (an edit whose text does not occur exactly once is an error),
and `pytest -x -m "not slow"` runs in that tree, without
`tests/test_mutants.py`: it checks these texts against the unmutated
sources, so it would fail on every mutant. The mutant is "killed" when
a test fails, and the first failing test is printed; it "survived" when every
test passes. Exits 1 if any mutant survived. Each run takes as long as the
fast tests, about ten seconds to a minute.
"""

import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (file under src/mcvqg, ((old text, new text), ...))
MUTANTS = {
    "refinement pushes along the gradient, not against it": (
        "decoder.py", (("Tensor(-gamma * grad_wrt_enc)", "Tensor(gamma * grad_wrt_enc)"),)),
    "refinement added to the encoding, not multiplied into it": (
        "decoder.py", (("return ad.add(g_enc, ad.mul(direction, g_enc))",
                        "return ad.add(g_enc, direction)"),)),
    "distorted loss takes the exponential branch for a positive gap": (
        "decoder.py", (("if delta.item() < 0:", "if delta.item() > 0:"),)),
    "committee argmax from its first row, not the mean logits": (
        "decoder.py", (("np.argmax(y.data.reshape(count, size, -1).sum(axis=1) / size, axis=1)",
                        "np.argmax(y.data.reshape(count, size, -1)[:, 0], axis=1)"),)),
    "aleatoric loss draws the same noise at every step": (
        "decoder.py", (('eps[:, t] = rng.child(("eps", t))', 'eps[:, t] = rng.child(("eps", 0))'),)),
    "uncertainty loss weight ignored": (
        "train.py", (("lam = mumc.uncertainty_weight", "lam = 1.0"),)),
    "last epoch kept instead of the best": (
        "train.py", (('if row["val_loss"] < best_val:', "if True:"),)),
    "predictive uncertainty is the larger part, not the sum": (
        "decoder.py", (('"predictive": epistemic + aleatoric,',
                        '"predictive": max(epistemic, aleatoric),'),)),
    "aleatoric uncertainty read from one committee row": (
        "decoder.py", (("aleatoric = float(np.mean([np.mean(v) for v in variances.T]))",
                        "aleatoric = float(np.mean(variances[0]))"),)),
    "gate softmax at temperature 0.5, forward and backward": (
        "autodiff.py", (("z = x.data - x.data.max(axis=1)[:, None]",
                         "z = 2.0 * (x.data - x.data.max(axis=1)[:, None])"),
                        ("_accum(x, p * (g - (g * p).sum(axis=1)[:, None]))",
                         "_accum(x, 2.0 * p * (g - (g * p).sum(axis=1)[:, None]))"))),
    "cue fusion additive instead of multiplicative": (
        "fusion.py", (("joint = ad.mul(ad.matmul(g_img, self.w_img)",
                       "joint = ad.add(ad.matmul(g_img, self.w_img)"),)),
    "gate temperature 0.5 as an extra scale node": (
        "fusion.py", (("ad.row_softmax(ad.row_dots([mus[c] for c in order], g_gat))",
                       "ad.row_softmax(ad.scale(ad.row_dots([mus[c] for c in order], g_gat), 2.0))"),)),
    "Adam's second-moment correction one step ahead": (
        "train.py", (("np.divide(v, 1 - b2 ** t, out=s)", "np.divide(v, 1 - b2 ** (t + 1), out=s)"),)),
    "a parameter the step does not reach is updated anyway": (
        "train.py", (("for lo, hi in runs:", "for lo, hi in [(0, self.values.size)]:"),)),
    "best-epoch snapshot not restored": (
        "train.py", (("    model.param_vector[...] = snapshot\n", "    pass\n"),)),
    "restore_params rebinds .data instead of writing into the vector": (
        "nn.py", (("t.data[...] = arrays[name]", "t.data = arrays[name].copy()"),)),
    "sequence node sums a decoder state's gradients as ((next + logit) + variance)": (
        "autodiff.py", ((
            "                if g_v is not None:\n"
            "                    g_h = head(g_h, g_v[r] * _sigmoid(zv[r]), hs[t + 1], *heads[2:])\n"
            "                if g_y is not None:\n"
            "                    g_h = head(g_h, g_y[r], hs[t + 1], *heads[:2])\n",
            "                if g_y is not None:\n"
            "                    g_h = head(g_h, g_y[r], hs[t + 1], *heads[:2])\n"
            "                if g_v is not None:\n"
            "                    g_h = head(g_h, g_v[r] * _sigmoid(zv[r]), hs[t + 1], *heads[2:])\n"),)),
    "LSTM backward skips the output dropout mask": (
        "autodiff.py", (("        if out_mask is not None:\n            g_h = g_h * out_mask\n",
                         "        if False:\n            g_h = g_h * out_mask\n"),)),
    "caption gradient enters at the last step, not at each row's length": (
        "autodiff.py", (("np.add.at(picked, (pick, np.arange(rows)), grads)",
                         "np.add.at(picked, (np.full(rows, steps - 1), np.arange(rows)), grads)"),)),
    "BLEU without its brevity penalty": (
        "metrics.py", (("bp = 1.0 if c_sum >= r_sum else math.exp(1.0 - r_sum / c_sum)",
                        "bp = 1.0"),)),
    "every example trains on its first question": (
        "model.py", (("b.questions[int(k) % len(b.questions)]", "b.questions[0]"),)),
    "Monte-Carlo sample t draws from another stream than child(t)": (
        "rng.py", (("_splitmix64(_splitmix64(range(count)), self.stream)",
                    "_splitmix64(_splitmix64(range(1, count + 1)), self.stream)"),)),
}


def apply(tree: str, path: str, edits) -> None:
    path = os.path.join(tree, "src", "mcvqg", path)
    with open(path) as fh:
        text = fh.read()
    for old, new in edits:
        if text.count(old) != 1:
            raise ValueError(f"{path}: {old!r} occurs {text.count(old)} times, not once")
        text = text.replace(old, new)
    with open(path, "w") as fh:
        fh.write(text)


def run(name: str) -> tuple:
    """(killed, first failing test or None) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "HEAD"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        apply(tree, *MUTANTS[name])
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-m", "not slow",
                               "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py",
                               "tests"], cwd=tree,
                              env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")},
                              capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return proc.returncode != 0, failed.group(1) if failed else None


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    survived = 0
    for name in names:
        killed, test = run(name)
        survived += not killed
        print(f"{'killed' if killed else 'survived':8} {name}"
              + (f"  [{test}]" if test else ""), flush=True)
    print(f"{len(names) - survived} of {len(names)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
