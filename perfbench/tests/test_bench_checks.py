"""The rank oracle agrees with evaluate and flags a perturbed rank."""

import copy
import dataclasses

import numpy as np
import pytest

import gen
from checks import (
    captured_ranks,
    check_report,
    compare_ranks,
    known_answers,
    oracle_ranks,
    oracle_report,
)
from moekgc import cli, trainer
from moekgc.fusion import FusionModel
from moekgc.scoring import score_candidates


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    path = tmp_path_factory.mktemp("desk")
    gen.generate("train-desk", 2, str(path))
    with gen.working_dir(str(path)):
        cfg = cli.load_config(gen.CONFIG_NAME)
        kg, tables = cli.load_data(cfg)
    model_cfg, train_cfg, _ = cli.section_configs(cfg)
    model = FusionModel(model_cfg, kg.n_entities, kg.n_relations, tables, seed=5)
    head = dataclasses.replace(kg, test=kg.test[:12])
    with captured_ranks(trainer) as got:
        report = trainer.evaluate(model, head, "test", "filtered",
                                  mi_ref_batch=train_cfg.mi_ref_batch)
    emb = model.all_joint_embeddings(trainer.mi_context_ids(head, train_cfg.mi_ref_batch))
    theta = model.relation_phases.data.astype(np.float64)
    return kg, head, model, emb, theta, got, report


def _oracle(desk, known):
    kg, head, model, emb, theta, _, _ = desk
    return oracle_ranks(score_candidates, emb, theta, model.cfg.norm, head.test, known)


def test_oracle_matches_evaluate_exactly(desk):
    head, got, report = desk[1], desk[5], desk[6]
    want = _oracle(desk, known_answers(head))
    assert len(want) == 24
    assert compare_ranks(got, want, report) == []
    assert compare_ranks(None, want, report) == []
    assert {k: report[k] for k in ("mrr", "hits1", "hits3", "hits10")} == oracle_report(want)


def test_oracle_flags_a_perturbed_rank(desk):
    kg, head, model, emb, theta, got, report = desk
    known = known_answers(head)
    want = _oracle(desk, known)
    # a query whose gold is beaten by some candidate the filter keeps
    q = next(i for i, r in enumerate(want) if r > 1.5)
    h, r, t = head.test[q // 2].tolist()
    side, fixed, gold = ("tail", h, t) if q % 2 == 0 else ("head", t, h)
    scores = score_candidates(emb, theta[r], emb[fixed], side, model.cfg.norm)
    answers = known[0][(h, r)] if side == "tail" else known[1][(r, t)]
    rival = max((e for e in range(kg.n_entities) if e != gold and e not in answers),
                key=lambda e: scores[e])
    assert scores[rival] > scores[gold]

    # filter one more answer in a copy of the oracle's data: that rank drops
    tails, heads = copy.deepcopy(known)
    (tails[(h, r)] if side == "tail" else heads[(r, t)]).add(rival)
    failures = compare_ranks(got, _oracle(desk, (tails, heads)), report)
    assert any(f.startswith(f"query {q}:") for f in failures)
    assert any(f.startswith("report mrr") for f in failures)
    # without the program's per-query ranks the report still gives it away
    assert any(f.startswith("report mrr") for f in
               compare_ranks(None, _oracle(desk, (tails, heads)), report))

    # and a program rank that is off by a tie-half is caught on its own
    bent = list(got)
    bent[q] += 0.5
    assert compare_ranks(bent, want, report) == [
        f"query {q}: program rank {bent[q]!r}, oracle rank {want[q]!r}"]


def test_report_contract():
    good = {"mrr": 0.5, "hits1": 0.25, "hits3": 0.5, "hits10": 1.0,
            "mode": "filtered", "split": "test", "queries": 4}
    assert check_report(good, "test", "filtered", 4) == []
    assert check_report({**good, "extra": 1}, "test", "filtered", 4)
    assert check_report({k: v for k, v in good.items() if k != "hits3"}, "test", "filtered", 4)
    assert check_report(good, "test", "raw", 4)
    assert check_report(good, "test", "filtered", 6)
