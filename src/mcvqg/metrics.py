"""Text-overlap metrics for generated questions.

BLEU-n (clipped n-gram precision, geometric mean over orders, brevity
penalty), ROUGE-L (LCS F-measure, recall-weighted), and CIDEr (tf-idf n-gram
cosine over a corpus), plus corpus aggregation into a report.

Tokens are arbitrary hashables; callers tokenize (and strip reserved ids)
before scoring.
"""

import math
from collections import Counter
from dataclasses import dataclass

BLEU_MAX_ORDER = 4
CIDER_MAX_ORDER = 4
ROUGE_BETA = 1.2


def ngrams(tokens, n: int):
    tokens = list(tokens)
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def _closest_ref_length(cand_len: int, references) -> int:
    # ties between two reference lengths resolve to the shorter one
    return min((abs(len(r) - cand_len), len(r)) for r in references)[1]


def _ngram_counts(tokens, n_max: int) -> list:
    """The k-gram Counters of one sentence, k = 1..n_max."""
    tokens = list(tokens)
    return [Counter(zip(*[tokens[i:] for i in range(k)])) for k in range(1, n_max + 1)]


def _clipped(cand_counts: Counter, max_ref: Counter) -> int:
    """Clipped matches of one order: each candidate n-gram counts at most
    as often as the per-reference maximum."""
    return sum(min(v, max_ref[g]) for g, v in cand_counts.items() if g in max_ref)


def _bleu_from_totals(totals, c_sum: int, r_sum: int) -> list:
    """BLEU of every order 1..len(totals) from summed (clipped, total)
    pairs and summed candidate / closest-reference lengths.

    Order k's score reads only the counts of orders 1..k, and its log sum is
    the running sum at k, so each equals what a call for order k alone gives.
    """
    scores = [0.0] * len(totals)
    if c_sum == 0:
        return scores
    bp = 1.0 if c_sum >= r_sum else math.exp(1.0 - r_sum / c_sum)
    log_sum = 0.0
    for k, (clipped, total) in enumerate(totals, start=1):
        if clipped == 0:     # includes an order with no n-grams at all
            break            # this order and every higher one score 0
        log_sum += math.log(clipped / total)
        scores[k - 1] = bp * math.exp(log_sum / k)
    return scores


def bleu_n(candidate, references, n: int) -> float:
    """BLEU of order n in [0, 1], unsmoothed: corpus BLEU of a one-example
    corpus.

    Precision at each order 1..n clips candidate n-gram counts by the
    per-reference maximum; the score is the geometric mean times the brevity
    penalty exp(1 - r/c) for candidates shorter than the closest reference.
    An order with no clipped match makes the whole score 0, and so does an
    empty candidate.
    """
    return corpus_bleu([candidate], [references], n)


def corpus_bleu(candidates, references_list, n: int) -> float:
    """Corpus BLEU: clipped counts and totals are summed over all examples
    before taking ratios; the brevity penalty compares summed lengths."""
    if not 1 <= n <= BLEU_MAX_ORDER:
        raise ValueError(f"BLEU order must be 1..{BLEU_MAX_ORDER}, got {n}")
    if len(candidates) != len(references_list) or not candidates:
        raise ValueError("corpus BLEU needs matched, nonempty candidate/reference lists")
    totals = [[0, 0] for _ in range(n)]
    c_sum, r_sum = 0, 0
    for cand, refs in zip(candidates, references_list):
        if not refs:
            raise ValueError("BLEU needs at least one reference")
        cand = list(cand)
        if not cand:
            continue
        c_sum += len(cand)
        r_sum += _closest_ref_length(len(cand), refs)
        ref_counts = [_ngram_counts(ref, n) for ref in refs]
        for k, counts in enumerate(_ngram_counts(cand, n)):
            max_ref = Counter()
            for rc in ref_counts:
                max_ref |= rc[k]
            totals[k][0] += _clipped(counts, max_ref)
            totals[k][1] += sum(counts.values())
    return _bleu_from_totals(totals, c_sum, r_sum)[-1]


def _positions(tokens) -> dict:
    """token -> bitmask of where it occurs in `tokens` (bit i for tokens[i])."""
    masks = {}
    for i, x in enumerate(tokens):
        masks[x] = masks.get(x, 0) | (1 << i)
    return masks


def _lcs_bits(masks: dict, length: int, b) -> int:
    """LCS length of b and a sequence of `length` tokens given by its
    `_positions` masks: the bit-vector recurrence of Crochemore et al.
    (2001), one integer step per token of b. Each zero bit of v is one unit
    of LCS length so far."""
    full = (1 << length) - 1
    v = full
    for y in b:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return length - v.bit_count()


def lcs_length(a, b) -> int:
    a = list(a)
    return _lcs_bits(_positions(a), len(a), b)


def rouge_l(candidate, references, beta: float = ROUGE_BETA) -> float:
    """ROUGE-L in [0, 1]: LCS F-measure with recall weighted by beta^2,
    maximized over the references."""
    if not references:
        raise ValueError("ROUGE-L needs at least one reference")
    candidate = list(candidate)
    masks = _positions(candidate)
    best = 0.0
    for ref in references:
        ref = list(ref)
        l = _lcs_bits(masks, len(candidate), ref)
        if l == 0:
            continue
        p = l / len(candidate)
        r = l / len(ref)
        f = (1.0 + beta * beta) * p * r / (r + beta * beta * p)
        best = max(best, f)
    return best


def _tfidf(counts: Counter, df: Counter, log_n: float):
    # n-grams absent from every reference set carry zero weight; with them
    # excluded, duplicating the whole corpus leaves every score unchanged
    total = sum(counts.values())
    if total == 0:
        return {}
    return {g: (v / total) * (log_n - math.log(df[g]))
            for g, v in counts.items() if g in df}


def _norm(vec: dict) -> float:
    return math.sqrt(sum(v * v for v in vec.values()))


def cider(candidates, references_list, n_max: int = CIDER_MAX_ORDER):
    """Consensus tf-idf similarity, 10 * mean over n-gram orders of the
    average cosine against the references.

    idf counts how many examples mention each n-gram anywhere in their
    reference set; n-grams no reference mentions carry zero weight. An order
    contributes only where both vectors carry weight (too-short sentences
    and all-zero-idf orders drop out of the mean rather than scoring 0).
    Returns (per-example scores, corpus mean).
    """
    if len(candidates) != len(references_list) or not candidates:
        raise ValueError("CIDEr needs matched, nonempty candidate/reference lists")
    return _cider([_ngram_counts(cand, n_max) for cand in candidates],
                  [[_ngram_counts(ref, n_max) for ref in refs]
                   for refs in references_list], n_max)


def _cider(cand_counts, ref_counts, n_max: int):
    """CIDEr from each candidate's and reference's k-gram Counters
    (`_ngram_counts`, at least n_max orders), counted once per sentence.
    A candidate's vector and norm are built once per order, and a
    reference's only for the orders where the candidate's carries weight."""
    dfs = [Counter() for _ in range(n_max)]
    for refs in ref_counts:
        if not refs:
            raise ValueError("CIDEr needs at least one reference per example")
        for k, df in enumerate(dfs):
            df.update(set().union(*(rc[k] for rc in refs)))
    log_n = math.log(len(ref_counts))
    scores = []
    for cc, refs in zip(cand_counts, ref_counts):
        terms = []
        for k, df in enumerate(dfs):
            cv = _tfidf(cc[k], df, log_n)
            nc = _norm(cv)
            if nc == 0.0:       # every cosine with a weightless vector is undefined
                continue
            cells = []
            for rc in refs:
                rv = _tfidf(rc[k], df, log_n)
                nr = _norm(rv)
                if nr != 0.0:
                    cells.append(sum(v * rv.get(g, 0.0) for g, v in cv.items()) / (nc * nr))
            if cells:
                terms.append(sum(cells) / len(cells))
        scores.append(10.0 * sum(terms) / len(terms) if terms else 0.0)
    return scores, sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# corpus aggregation

@dataclass
class EvalReport:
    """Corpus scores (BLEU/ROUGE on the 0-100 scale, CIDEr on its native
    0-10 scale) and one score row per example."""
    bleu: dict
    rouge_l: float
    cider: float
    per_example: list

    def score_rows(self):
        return ([(f"bleu{n}", self.bleu[n]) for n in sorted(self.bleu)]
                + [("rouge_l", self.rouge_l), ("cider", self.cider)])

    def to_csv(self) -> str:
        lines = ["metric,score"]
        lines += [f"{name},{value:.10g}" for name, value in self.score_rows()]
        return "\n".join(lines) + "\n"


def evaluate_corpus(candidates, references_list) -> EvalReport:
    """Score a corpus of candidates against per-example reference sets.

    BLEU scores each example against each reference separately and keeps
    the best, then means over examples; it is unsmoothed. ROUGE-L is the
    per-example max too; CIDEr is corpus-level by construction. Every
    sentence's n-grams are counted once, and BLEU and CIDEr both read those
    counts.
    """
    if len(candidates) != len(references_list) or not candidates:
        raise ValueError("evaluation needs matched, nonempty candidate/reference lists")
    n_max = max(BLEU_MAX_ORDER, CIDER_MAX_ORDER)
    cand_counts = [_ngram_counts(cand, n_max) for cand in candidates]
    ref_counts = [[_ngram_counts(ref, n_max) for ref in refs] for refs in references_list]
    cider_scores, cider_mean = _cider(cand_counts, ref_counts, CIDER_MAX_ORDER)
    per_example = []
    for cand, refs, cc, rcs, cd in zip(candidates, references_list, cand_counts,
                                       ref_counts, cider_scores):
        totals = [sum(c.values()) for c in cc[:BLEU_MAX_ORDER]]
        per_ref = [_bleu_from_totals([(_clipped(c, r), t) for c, r, t in
                                      zip(cc, rc, totals)], len(cand), len(ref))
                   for ref, rc in zip(refs, rcs)]
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
