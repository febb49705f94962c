"""Metric tests: brute-force definitional oracles on random small corpora,
hand-computed fixtures, aggregation conventions, and the word-position
frequency tables."""

import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from mcvqg.metrics import (EvalReport, bleu_n, cider, corpus_bleu,
                           evaluate_corpus, lcs_length, ngrams, rouge_l)


# --- brute-force oracles, written straight from the definitions ------------

def orc_ngrams(seq, n):
    out = {}
    for i in range(len(seq) - n + 1):
        g = tuple(seq[i:i + n])
        out[g] = out.get(g, 0) + 1
    return out


def orc_bleu(cand, refs, n):
    if len(cand) == 0:
        return 0.0
    prod = 1.0
    for k in range(1, n + 1):
        cg = orc_ngrams(cand, k)
        total = sum(cg.values())
        if total == 0:
            return 0.0
        clipped = 0
        for g, v in cg.items():
            best = max((orc_ngrams(r, k).get(g, 0) for r in refs), default=0)
            clipped += min(v, best)
        if clipped == 0:
            return 0.0
        prod *= clipped / total
    c = len(cand)
    r = sorted((abs(len(x) - c), len(x)) for x in refs)[0][1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * prod ** (1.0 / n)


@lru_cache(maxsize=None)
def _lcs_rec(a, b):
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return _lcs_rec(a[:-1], b[:-1]) + 1
    return max(_lcs_rec(a[:-1], b), _lcs_rec(a, b[:-1]))


def orc_rouge(cand, refs, beta=1.2):
    best = 0.0
    for ref in refs:
        l = _lcs_rec(tuple(cand), tuple(ref))
        if l == 0:
            continue
        p, r = l / len(cand), l / len(ref)
        best = max(best, (1 + beta ** 2) * p * r / (r + beta ** 2 * p))
    return best


def orc_cider(cands, refs_list, n_max=4):
    n_docs = len(refs_list)

    def df(g, k):
        return sum(1 for rr in refs_list
                   if any(g in orc_ngrams(r2, k) for r2 in rr))

    def vec(toks, k):
        cg = orc_ngrams(toks, k)
        tot = sum(cg.values())
        if not tot:
            return {}
        out = {}
        for g, v in cg.items():
            d = df(g, k)
            if d > 0:
                out[g] = (v / tot) * math.log(n_docs / d)
        return out

    scores = []
    for cand, refs in zip(cands, refs_list):
        terms = []
        for k in range(1, n_max + 1):
            cv = vec(cand, k)
            cn = math.sqrt(sum(v * v for v in cv.values()))
            cells = []
            for ref in refs:
                rv = vec(ref, k)
                rn = math.sqrt(sum(v * v for v in rv.values()))
                if cn > 0 and rn > 0:
                    dot = sum(v * rv.get(g, 0.0) for g, v in cv.items())
                    cells.append(dot / (cn * rn))
            if cells:
                terms.append(sum(cells) / len(cells))
        scores.append(10.0 * sum(terms) / len(terms) if terms else 0.0)
    return scores


def _random_sentence(rng, min_len, max_len, vocab=10):
    length = int(rng.integers(min_len, max_len + 1))
    return [f"w{int(i)}" for i in rng.integers(0, vocab, size=length)]


class TestBruteForceAgreement:
    def test_bleu_and_rouge_on_500_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            cand = _random_sentence(rng, 0, 6)
            refs = [_random_sentence(rng, 1, 6)
                    for _ in range(int(rng.integers(1, 4)))]
            for n in range(1, 5):
                assert abs(bleu_n(cand, refs, n) - orc_bleu(cand, refs, n)) <= 1e-9
            assert abs(rouge_l(cand, refs) - orc_rouge(cand, refs)) <= 1e-9

    def test_cider_on_random_corpora(self):
        rng = np.random.default_rng(1)
        for _ in range(80):
            size = int(rng.integers(2, 6))
            cands = [_random_sentence(rng, 0, 6) for _ in range(size)]
            refs = [[_random_sentence(rng, 1, 6)
                     for _ in range(int(rng.integers(1, 4)))]
                    for _ in range(size)]
            got, mean = cider(cands, refs)
            want = orc_cider(cands, refs)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
            np.testing.assert_allclose(mean, sum(want) / len(want), rtol=0, atol=1e-9)


class TestHandFixtures:
    def test_identity_scores_one(self):
        sent = "what is the dog".split()
        for n in range(1, 5):
            np.testing.assert_allclose(bleu_n(sent, [sent], n), 1.0, atol=1e-12)
        np.testing.assert_allclose(rouge_l(sent, [sent]), 1.0, atol=1e-12)

    def test_clipping_the_the_the(self):
        score = bleu_n("the the the".split(), ["the cat".split()], 1)
        np.testing.assert_allclose(score, 1.0 / 3.0, rtol=0, atol=1e-12)

    def test_bleu2_two_of_three_shared(self):
        score = bleu_n("a b c".split(), ["a b d".split()], 2)
        np.testing.assert_allclose(score, 1.0 / math.sqrt(3.0), rtol=0, atol=1e-12)

    def test_rouge_subsequence(self):
        score = rouge_l("a b c d".split(), ["a c d".split()])
        p, r, b2 = 3.0 / 4.0, 1.0, 1.2 ** 2
        np.testing.assert_allclose(score, (1 + b2) * p * r / (r + b2 * p),
                                   rtol=0, atol=1e-12)

    def test_cider_two_example_corpus(self):
        # ex2 candidate carries two unit-idf unigrams, its reference one of
        # them: cosine 1/sqrt(2) at order 1, higher orders undefined
        cands = ["x y".split(), "z y".split()]
        refs = [["x y".split()], [["z"][0].split()]]
        scores, mean = cider(cands, refs)
        np.testing.assert_allclose(scores, [10.0, 10.0 / math.sqrt(2.0)],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(mean, (10.0 + 10.0 / math.sqrt(2.0)) / 2.0,
                                   rtol=0, atol=1e-12)

    def test_disjoint_vocabulary_scores_zero(self):
        cand, refs = "p q".split(), ["x y".split()]
        assert bleu_n(cand, refs, 1) == 0.0
        assert rouge_l(cand, refs) == 0.0
        scores, _ = cider([cand], [refs])
        assert scores == [0.0]


class TestBleuContracts:
    def test_empty_candidate_scores_zero(self):
        assert bleu_n([], ["a b".split()], 2) == 0.0

    def test_empty_references_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            bleu_n("a b".split(), [], 1)
        with pytest.raises(ValueError, match="order"):
            bleu_n("a b".split(), ["a".split()], 5)

    def test_reference_permutation_invariance(self):
        cand = "a b c".split()
        refs = ["a b".split(), "b c d".split(), "c".split()]
        for n in (1, 2, 3):
            assert bleu_n(cand, refs, n) == bleu_n(cand, list(reversed(refs)), n)

    def test_brevity_penalty_short_candidate(self):
        # candidate len 2 vs ref len 4, perfect overlap otherwise
        score = bleu_n("a b".split(), ["a b c d".split()], 1)
        np.testing.assert_allclose(score, math.exp(1.0 - 4.0 / 2.0), atol=1e-12)

    def test_closest_reference_tie_prefers_shorter(self):
        # c=3; refs of len 2 and 4 tie on distance; r=2 means no penalty
        assert bleu_n("a b e".split(), ["a b".split(), "a b c d".split()], 1) == \
            bleu_n("a b e".split(), ["a b".split()], 1)

    def test_smoothing_cannot_invent_ngrams(self):
        # a candidate too short for an order has no n-grams to match there
        assert bleu_n(["a"], [["a", "b"]], 2) == 0.0

    def test_mean_bleu_nonincreasing_in_order(self):
        rng = np.random.default_rng(7)
        sums = [0.0] * 4
        for _ in range(300):
            cand = _random_sentence(rng, 3, 6, vocab=6)
            refs = [_random_sentence(rng, 3, 6, vocab=6) for _ in range(2)]
            for n in range(1, 5):
                sums[n - 1] += bleu_n(cand, refs, n)
        for lower, higher in zip(sums[1:], sums[:-1]):
            assert lower <= higher + 1e-12

    def test_corpus_aggregation_before_ratios(self):
        cands = ["a b".split(), "a c".split()]
        refs = [["a b".split()], ["a b".split()]]
        np.testing.assert_allclose(corpus_bleu(cands, refs, 1), 3.0 / 4.0, atol=1e-12)
        np.testing.assert_allclose(corpus_bleu(cands, refs, 2),
                                   math.sqrt((3.0 / 4.0) * (1.0 / 2.0)), atol=1e-12)


class TestLcs:
    def test_matches_recursive_definition(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = _random_sentence(rng, 0, 6, vocab=4)
            b = _random_sentence(rng, 0, 6, vocab=4)
            assert lcs_length(a, b) == _lcs_rec(tuple(a), tuple(b))

    def test_long_sequences_match_the_table(self):
        # past 64 tokens the bit vectors span more than one machine word
        rng = np.random.default_rng(4)
        for _ in range(40):
            a = _random_sentence(rng, 0, 150, vocab=6)
            b = _random_sentence(rng, 0, 150, vocab=6)
            table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
            for i, x in enumerate(a, start=1):
                for j, y in enumerate(b, start=1):
                    table[i][j] = (table[i - 1][j - 1] + 1 if x == y
                                   else max(table[i - 1][j], table[i][j - 1]))
            assert lcs_length(a, b) == lcs_length(b, a) == table[-1][-1]

    def test_ngram_window(self):
        assert ngrams("a b c".split(), 2) == [("a", "b"), ("b", "c")]
        assert ngrams("a".split(), 2) == []


class TestCiderContracts:
    def test_doubling_corpus_keeps_scores(self):
        rng = np.random.default_rng(5)
        cands = [_random_sentence(rng, 2, 5) for _ in range(4)]
        refs = [[_random_sentence(rng, 2, 5) for _ in range(2)] for _ in range(4)]
        base, _ = cider(cands, refs)
        doubled, _ = cider(cands + cands, refs + refs)
        np.testing.assert_allclose(doubled[:4], base, rtol=0, atol=1e-12)
        np.testing.assert_allclose(doubled[4:], base, rtol=0, atol=1e-12)

    def test_empty_candidate_scores_zero_without_error(self):
        scores, _ = cider([[], "a b".split()], [["a".split()], ["a b".split()]])
        assert scores[0] == 0.0

    def test_bad_corpora_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            cider([], [])
        with pytest.raises(ValueError, match="matched"):
            cider([["a"]], [])
        with pytest.raises(ValueError, match="reference"):
            cider([["a"]], [[]])


class TestCorpusEvaluation:
    def _toy(self):
        refs = [
            ["what is the dog doing".split(), "where is the dog".split()],
            ["who is at the beach".split(), "why is he here".split()],
        ]
        cands = [refs[0][0], refs[1][0]]
        return cands, refs

    def test_perfect_generation_scores_100(self):
        cands, refs = self._toy()
        report = evaluate_corpus(cands, refs)
        np.testing.assert_allclose(report.bleu[1], 100.0, atol=1e-9)
        np.testing.assert_allclose(report.rouge_l, 100.0, atol=1e-9)
        assert report.cider > 0
        assert len(report.per_example) == 2

    def test_bounds_and_row_count(self):
        rng = np.random.default_rng(11)
        cands = [_random_sentence(rng, 1, 6) for _ in range(6)]
        refs = [[_random_sentence(rng, 1, 6) for _ in range(3)] for _ in range(6)]
        report = evaluate_corpus(cands, refs)
        for n in range(1, 5):
            assert 0.0 <= report.bleu[n] <= 100.0
            assert 0.0 <= corpus_bleu(cands, refs, n) <= 1.0
        assert 0.0 <= report.rouge_l <= 100.0
        assert report.cider >= 0.0
        assert len(report.per_example) == 6

    def test_max_mode_is_mean_of_per_example(self):
        cands, refs = self._toy()
        report = evaluate_corpus(cands, refs)
        want = sum(r["bleu2"] for r in report.per_example) / 2
        np.testing.assert_allclose(report.bleu[2], want, atol=1e-12)

    def test_modes_differ_when_one_example_fails(self):
        cands = ["a b".split(), "p q".split()]
        refs = [["a b".split()], [["a", "b"]]]
        max_mode = evaluate_corpus(cands, refs)
        assert max_mode.bleu[1] == 50.0
        np.testing.assert_allclose(corpus_bleu(cands, refs, 1), 2.0 / 4.0, atol=1e-12)

    def test_csv_emission(self):
        cands, refs = self._toy()
        report = evaluate_corpus(cands, refs)
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "metric,score"
        assert len(lines) == 7
        assert lines[1].startswith("bleu1,")

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="nonempty"):
            evaluate_corpus([], [])


def _per_order_corpus_bleu(candidates, references_list, n):
    """Corpus BLEU of order n alone, counted for that order only: the
    formula `evaluate_corpus` once ran four times, kept to pin its bits."""
    totals = [[0, 0] for _ in range(n)]
    c_sum, r_sum = 0, 0
    for cand, refs in zip(candidates, references_list):
        cand = list(cand)
        if not cand:
            continue
        c_sum += len(cand)
        r_sum += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        for k in range(1, n + 1):
            counts = Counter(ngrams(cand, k))
            if not counts:
                continue
            max_ref = Counter()
            for ref in refs:
                for g, v in Counter(ngrams(ref, k)).items():
                    max_ref[g] = max(max_ref[g], v)
            totals[k - 1][0] += sum(min(v, max_ref[g]) for g, v in counts.items())
            totals[k - 1][1] += sum(counts.values())
    if c_sum == 0:
        return 0.0
    log_sum = 0.0
    for clipped, total in totals:
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    bp = 1.0 if c_sum >= r_sum else math.exp(1.0 - r_sum / c_sum)
    return bp * math.exp(log_sum / n)


class TestBleuOrdersFromOneCount:
    """All four orders come from one count per order; every score must equal
    the per-order formula bit for bit."""

    def test_random_corpora_match_the_per_order_formula_exactly(self):
        rng = np.random.default_rng(1213)
        for _ in range(400):
            size = int(rng.integers(1, 4))
            cands = [_random_sentence(rng, 0, 6) for _ in range(size)]
            refs = [[_random_sentence(rng, 1, 6) for _ in range(int(rng.integers(1, 4)))]
                    for _ in range(size)]
            for n in range(1, 5):
                assert corpus_bleu(cands, refs, n) == _per_order_corpus_bleu(cands, refs, n)
                assert bleu_n(cands[0], refs[0], n) == \
                    _per_order_corpus_bleu(cands[:1], refs[:1], n)
            per_max = evaluate_corpus(cands, refs)
            for row, cand, rs in zip(per_max.per_example, cands, refs):
                for n in range(1, 5):
                    assert row[f"bleu{n}"] == 100.0 * max(
                        _per_order_corpus_bleu([cand], [[r]], n) for r in rs)
            assert per_max.bleu == {n: sum(r[f"bleu{n}"] for r in per_max.per_example)
                                    / size for n in range(1, 5)}


# --- the scoring code as it was before the one-count rewrite ----------------
# Every sentence's n-grams were counted again for each use: the candidate
# once per reference and order for BLEU, each reference once for CIDEr's
# document frequencies and again for its tf-idf vector. Kept to pin the bits.

def _recount_bleu_orders(cand, ref, n=4):
    cand = list(cand)
    scores = [0.0] * n
    if not cand:
        return scores
    totals = []
    for k in range(1, n + 1):
        cand_counts = Counter(ngrams(cand, k))
        total = sum(cand_counts.values())
        if total == 0:
            totals.append((0, 0))
            continue
        max_ref = Counter()
        for g, v in Counter(ngrams(ref, k)).items():
            if v > max_ref[g]:
                max_ref[g] = v
        totals.append((sum(min(v, max_ref[g]) for g, v in cand_counts.items()), total))
    c_sum, r_sum = len(cand), len(ref)
    bp = 1.0 if c_sum >= r_sum else math.exp(1.0 - r_sum / c_sum)
    log_sum = 0.0
    for k, (clipped, total) in enumerate(totals, start=1):
        if clipped == 0:
            break
        log_sum += math.log(clipped / total)
        scores[k - 1] = bp * math.exp(log_sum / k)
    return scores


def _recount_tfidf(tokens, k, df, n_docs):
    counts = Counter(ngrams(tokens, k))
    total = sum(counts.values())
    if total == 0:
        return {}
    log_n = math.log(n_docs)
    return {g: (v / total) * (log_n - math.log(df[g]))
            for g, v in counts.items() if df[g] > 0}


def _recount_cosine(a, b):
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    if na == 0.0 or nb == 0.0:
        return None
    return sum(v * b.get(g, 0.0) for g, v in a.items()) / (na * nb)


def _recount_cider(candidates, references_list, n_max=4):
    n_docs = len(references_list)
    dfs = [Counter() for _ in range(n_max)]
    for refs in references_list:
        for k in range(1, n_max + 1):
            seen = set()
            for ref in refs:
                seen.update(ngrams(ref, k))
            for g in seen:
                dfs[k - 1][g] += 1
    scores = []
    for cand, refs in zip(candidates, references_list):
        terms = []
        for k in range(1, n_max + 1):
            cv = _recount_tfidf(cand, k, dfs[k - 1], n_docs)
            cells = []
            for ref in refs:
                cell = _recount_cosine(cv, _recount_tfidf(ref, k, dfs[k - 1], n_docs))
                if cell is not None:
                    cells.append(cell)
            if cells:
                terms.append(sum(cells) / len(cells))
        scores.append(10.0 * sum(terms) / len(terms) if terms else 0.0)
    return scores, sum(scores) / len(scores)


def _recount_evaluate_corpus(candidates, references_list):
    cider_scores, cider_mean = _recount_cider(candidates, references_list)
    per_example = []
    for cand, refs, cd in zip(candidates, references_list, cider_scores):
        per_ref = [_recount_bleu_orders(cand, ref) for ref in refs]
        row = {f"bleu{n}": 100.0 * max(scores[n - 1] for scores in per_ref)
               for n in range(1, 5)}
        row["rouge_l"] = 100.0 * rouge_l(cand, refs)
        row["cider"] = cd
        per_example.append(row)
    count = len(per_example)
    bleu = {n: sum(r[f"bleu{n}"] for r in per_example) / count for n in range(1, 5)}
    rouge = sum(r["rouge_l"] for r in per_example) / count
    return EvalReport(bleu=bleu, rouge_l=rouge, cider=cider_mean,
                      per_example=per_example)


class TestScoringFromOneCount:
    """evaluate_corpus counts each sentence's n-grams once and feeds BLEU and
    CIDEr from those counts; every score must equal the recounting code's bit
    for bit."""

    def test_random_corpora_match_the_recounting_code_exactly(self):
        rng = np.random.default_rng(1405)
        shapes = Counter()
        for case in range(600):
            size = 1 if case % 5 == 0 else int(rng.integers(2, 7))
            cands = [_random_sentence(rng, 0, 7) for _ in range(size)]
            refs = [[_random_sentence(rng, 1, 7) for _ in range(int(rng.integers(1, 5)))]
                    for _ in range(size)]
            shapes["single"] += size == 1
            shapes["empty"] += any(not c for c in cands)
            shapes["short"] += any(0 < len(c) < 4 for c in cands)
            assert repr(evaluate_corpus(cands, refs)) == \
                repr(_recount_evaluate_corpus(cands, refs))
            assert repr(cider(cands, refs)) == repr(_recount_cider(cands, refs))
        assert min(shapes["single"], shapes["empty"], shapes["short"]) >= 100
