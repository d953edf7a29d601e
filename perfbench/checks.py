"""Output checks: the eval-report key contract and a brute-force rank oracle.

The oracle ranks each query from ``score_candidates`` scores alone: it drops
the known-true answers it collects itself from the graph splits (never the
program's FilterIndex), sorts the remaining scores, and gives the gold
entity the mean of the 1-based positions its tied block spans.  Program
ranks are read from ``trainer._mean_rank`` while ``evaluate`` runs, so each
query is compared on its own, and the report's MRR and hits@k must equal
the oracle's to the last bit.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict

import numpy as np

REPORT_KEYS = frozenset({"mrr", "hits1", "hits3", "hits10", "mode", "split", "queries"})


def check_report(report: dict, split: str, mode: str, queries: int) -> list:
    """Failures of one evaluate() report against the fixed key contract."""
    if set(report) != REPORT_KEYS:
        return [f"report keys {sorted(report)} != {sorted(REPORT_KEYS)}"]
    out = []
    if report["mode"] != mode or report["split"] != split:
        out.append(f"report labelled {report['mode']}/{report['split']}, expected {mode}/{split}")
    if report["queries"] != queries:
        out.append(f"report counts {report['queries']} queries, expected {queries}")
    for key in ("mrr", "hits1", "hits3", "hits10"):
        if not 0.0 <= report[key] <= 1.0:
            out.append(f"report {key}={report[key]!r} outside [0, 1]")
    return out


def known_answers(kg):
    """Known-true tails per (head, relation) and heads per (relation, tail)
    over every split."""
    tails, heads = defaultdict(set), defaultdict(set)
    for split in (kg.train, kg.valid, kg.test):
        for h, r, t in split.tolist():
            tails[(h, r)].add(t)
            heads[(r, t)].add(h)
    return tails, heads


def oracle_ranks(score_candidates, emb, theta, norm, triples, known) -> list:
    """Filtered mean ranks in evaluate's order: per triple the tail query,
    then the head query."""
    tails, heads = known
    ranks = []
    for h, r, t in np.asarray(triples).tolist():
        for side, fixed, gold, answers in (("tail", h, t, tails[(h, r)]),
                                           ("head", t, h, heads[(r, t)])):
            scores = score_candidates(emb, theta[r], emb[fixed], side, norm)
            keep = np.ones(len(scores), dtype=bool)
            keep[[e for e in answers if e != gold]] = False
            ordered = np.sort(scores[keep])[::-1]
            tied = np.flatnonzero(ordered == scores[gold]) + 1
            ranks.append(float(tied[0] + tied[-1]) / 2.0)
    return ranks


def oracle_report(ranks) -> dict:
    """MRR and hits@k summed in query order, as evaluate accumulates them."""
    total, hits = 0.0, {1: 0, 3: 0, 10: 0}
    for rank in ranks:
        total += 1.0 / rank
        for k in hits:
            hits[k] += 1 if rank <= k else 0
    n = len(ranks)
    return {"mrr": total / n, "hits1": hits[1] / n, "hits3": hits[3] / n, "hits10": hits[10] / n}


def compare_ranks(got, want: list, report: dict) -> list:
    """One failure per query whose rank differs and one per report figure
    that differs from the oracle's.  got is None when the program's ranks
    could not be read; the report figures are still compared."""
    out = []
    if got is not None:
        if len(got) != len(want):
            return [f"program ranked {len(got)} queries, oracle {len(want)}"]
        out = [f"query {i}: program rank {g!r}, oracle rank {w!r}"
               for i, (g, w) in enumerate(zip(got, want)) if g != w]
    for key, value in oracle_report(want).items():
        if report[key] != value:
            out.append(f"report {key} {report[key]!r} != oracle {key} {value!r}")
    return out


@contextlib.contextmanager
def captured_ranks(trainer):
    """Collect every rank trainer._mean_rank returns inside the block;
    yields None if the program has no such routine."""
    original = getattr(trainer, "_mean_rank", None)
    if original is None:
        yield None
        return
    ranks = []

    def recording(*args, **kwargs):
        rank = original(*args, **kwargs)
        ranks.append(rank)
        return rank

    trainer._mean_rank = recording
    try:
        yield ranks
    finally:
        trainer._mean_rank = original
