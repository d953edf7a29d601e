"""End-to-end acceptance gate.

Each test covers one numbered shipping criterion and prints a single
"criterion NN PASS" line once its assertions hold, so a verbose run reads
as a checklist.  Tolerances are pinned here on purpose; loosening one is a
release decision, not a test fix.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

import moekgc.autodiff as ad
from moekgc.fusion import (
    FusionModel,
    ModelConfig,
    batch_mutual_information,
    inter_modality_fuse,
    intra_modality_fuse,
    weights_from_row_sums,
)
from moekgc.kgdata import FilterIndex, KnowledgeGraph, ModalityFeatureTable, build_filter_index
from moekgc.sampling import (
    AMBIGUOUS,
    EASY,
    HARD,
    NegativeSamplingConfig,
    UnreachableHardClassWarning,
    batch_loss,
    binary_entropy,
    classify,
    corrupt,
    negative_weights,
)
from moekgc.scoring import rotate, score, score_candidates
from moekgc.trainer import (
    CheckpointError,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
    _mean_rank,
    _tie_counts,
)

from oracles import finite_difference_grads, rank_by_sort
from synthetic import clustered_graph, ring_graph

EMPTY = np.zeros((0, 3), dtype=np.int64)


def _ok(num: int, label: str):
    print(f"criterion {num:02d} PASS  {label}")


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


def _kg(n_entities, n_relations, train, valid=None, test=None) -> KnowledgeGraph:
    ents = [f"e{i}" for i in range(n_entities)]
    rels = [f"r{i}" for i in range(n_relations)]
    arr = lambda t: EMPTY if t is None or len(t) == 0 else np.asarray(t, dtype=np.int64)
    return KnowledgeGraph(
        entities=ents, relations=rels,
        entity_index={n: i for i, n in enumerate(ents)},
        relation_index={n: i for i, n in enumerate(rels)},
        train=arr(train), valid=arr(valid), test=arr(test),
    )


def _table(name, n_entities, dim, rng, covered=None):
    covered = list(range(n_entities)) if covered is None else list(covered)
    feats = rng.uniform(-1, 1, (len(covered), dim)).astype(np.float32)
    return ModalityFeatureTable(
        modality=name, dim=dim, features=feats,
        rows={e: i for i, e in enumerate(covered)},
        coverage=len(covered) / n_entities,
    )


# ------------------------------------------------------------- criterion 1


def test_c01_full_loss_gradient_check():
    # 5 entities, 2 relations, d=4, two experts, two partially covering
    # modalities plus structure; weights kept inside the graph so the MI
    # estimator and both softmax fusions are gradchecked too
    start = time.monotonic()
    rng = np.random.default_rng(17)
    with ad.using_dtype(np.float64):
        tables = {
            "img": _table("img", 5, 3, rng, covered=[0, 1, 2, 3]),
            "txt": _table("txt", 5, 5, rng, covered=[0, 2, 4]),
        }
        cfg = ModelConfig(embedding_dim=4, experts=2, mi_bins=4,
                          modalities=["img", "txt"], grad_through_weights=True)
        model = FusionModel(cfg, n_entities=5, n_relations=2, tables=tables, seed=3)

        positives = np.array(
            [(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 4), (4, 0, 0)], dtype=np.int64)
        negatives = corrupt(positives, 2, FilterIndex(positives), 5, seed=71)

        ids = np.arange(5)
        ph, pr, pt = positives.T
        nh, nr, nt = negatives.T
        scfg = NegativeSamplingConfig(negatives_per_positive=2, margin=2.0)

        from moekgc.scoring import score_batch

        def forward():
            joint, _ = model.fuse(ids)
            phases = model.relation_phases
            pos = score_batch(ad.gather_rows(joint, ph),
                              ad.gather_rows(phases, pr),
                              ad.gather_rows(joint, pt), cfg.norm)
            neg = score_batch(ad.gather_rows(joint, nh),
                              ad.gather_rows(phases, nr),
                              ad.gather_rows(joint, nt), cfg.norm)
            return pos, neg

        # difficulty weights are piecewise constant in the score, so they
        # enter the loss as data; freeze them once for both grad routes
        with ad.no_grad():
            _, neg0 = forward()
            lam = negative_weights(neg0.data, scfg)

        def loss_fn():
            ad.reset_tape()
            with ad.no_grad():
                pos, neg = forward()
                return batch_loss(pos, neg, lam, scfg).item()

        ad.reset_tape()
        pos, neg = forward()
        loss = batch_loss(pos, neg, lam, scfg)
        ad.backward(loss)
        names = sorted(model.params)
        analytic = {}
        for n in names:
            g = model.params[n].grad
            analytic[n] = np.zeros_like(model.params[n].data) if g is None else g.copy()

        numeric = finite_difference_grads(
            loss_fn, [model.params[n].data for n in names], step=1e-3)

    worst = {}
    for n, fd in zip(names, numeric):
        denom = max(float(np.linalg.norm(fd)), 1e-12)
        worst[n] = float(np.linalg.norm(analytic[n] - fd)) / denom
    elapsed = time.monotonic() - start
    bad = {n: e for n, e in worst.items() if e >= 1e-3}
    assert not bad, f"blocks over tolerance: {bad}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    _ok(1, f"analytic vs central differences, {len(names)} blocks, "
           f"max rel err {max(worst.values()):.2e}, {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 2


def test_c02_fusion_weight_closed_forms():
    rng = np.random.default_rng(5)
    views = [rng.normal(size=6) for _ in range(3)]

    # any symmetric matrix with equal off-diagonals: uniform weights
    sym = np.full((3, 3), 0.37)
    np.fill_diagonal(sym, 0.0)
    fused, w = intra_modality_fuse(views, sym)
    np.testing.assert_allclose(w, np.full(3, 1 / 3), atol=1e-6)
    np.testing.assert_allclose(fused, np.mean(views, axis=0), atol=1e-6)
    _, wd = inter_modality_fuse({"a": views[0], "b": views[1], "c": views[2]}, sym)
    np.testing.assert_allclose(sorted(wd.values()), np.full(3, 1 / 3), atol=1e-6)

    # pairwise MI matrix whose row sums are [0, ln 2, ln 2]
    ln2 = math.log(2.0)
    m = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, ln2], [0.0, ln2, 0.0]])
    fused, w = intra_modality_fuse(views, m)
    np.testing.assert_allclose(w, [0.5, 0.25, 0.25], atol=1e-6)
    np.testing.assert_allclose(
        fused, 0.5 * views[0] + 0.25 * views[1] + 0.25 * views[2], atol=1e-6)
    joint, wd = inter_modality_fuse({"a": views[0], "b": views[1], "c": views[2]}, m)
    np.testing.assert_allclose([wd["a"], wd["b"], wd["c"]], [0.5, 0.25, 0.25], atol=1e-6)
    np.testing.assert_allclose(joint, fused, atol=1e-12)

    # row sums [0, ln 3]: a symmetric two-source pairwise matrix always has
    # equal row sums, so this example pins the row-sum kernel itself, plus
    # the fuse ops fed the row sums through an explicitly asymmetric matrix
    ln3 = math.log(3.0)
    np.testing.assert_allclose(weights_from_row_sums([0.0, ln3]), [0.75, 0.25], atol=1e-6)
    skew = np.array([[0.0, 0.0], [ln3, 0.0]])
    fused, w = intra_modality_fuse(views[:2], skew)
    np.testing.assert_allclose(w, [0.75, 0.25], atol=1e-6)
    np.testing.assert_allclose(fused, 0.75 * views[0] + 0.25 * views[1], atol=1e-6)
    _, wd = inter_modality_fuse({"a": views[0], "b": views[1]}, skew)
    np.testing.assert_allclose([wd["a"], wd["b"]], [0.75, 0.25], atol=1e-6)
    _ok(2, "intra/inter fusion weights match the three hand examples")


# ------------------------------------------------------------- criterion 3


def test_c03_mi_estimator_oracles():
    with ad.using_dtype(np.float64):
        eye = ad.Tensor(np.eye(4))
        got = float(batch_mutual_information(eye, eye).data)
        assert got == pytest.approx(math.log(4.0), abs=1e-6)

        const = ad.Tensor(np.tile([0.6, 0.1, 0.3], (8, 1)))
        assert float(batch_mutual_information(const, const).data) == pytest.approx(0.0, abs=1e-9)

        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(100):
            x = ad.Tensor(rng.dirichlet(np.ones(5), size=12))
            y = ad.Tensor(rng.dirichlet(np.ones(5), size=12))
            fwd = float(batch_mutual_information(x, y).data)
            rev = float(batch_mutual_information(y, x).data)
            worst = max(worst, abs(fwd - rev))
        assert worst < 1e-9
    _ok(3, f"ln4 one-hot, zero on constants, symmetry gap {worst:.1e}")


# ------------------------------------------------------------- criterion 4


def test_c04_entropy_classes_and_unreachable_hard_band():
    assert binary_entropy(0.5, "natural") == pytest.approx(math.log(2.0), abs=1e-6)

    with pytest.warns(UnreachableHardClassWarning):
        nat = NegativeSamplingConfig(delta1=0.2, delta2=0.8, log_base="natural")
        nat.validate()
    rng = np.random.default_rng(31)
    ps = rng.uniform(0.0, 1.0, size=100_000)
    assert all(classify(binary_entropy(p, "natural"), nat)[0] != HARD for p in ps)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b2 = NegativeSamplingConfig(delta1=0.2, delta2=0.8, log_base="base2")
        b2.validate()
    seen = {classify(binary_entropy(p, "base2"), b2)[0] for p in ps}
    assert seen == {EASY, AMBIGUOUS, HARD}
    _ok(4, "H(1/2)=ln2, natural-log hard band empty over 1e5 draws, base-2 populated")


# ------------------------------------------------------------- criterion 5


def test_c05_loss_reduces_to_plain_sigmoid_loss():
    # unit class weights, zero margin, one expert, no modality tables
    cfg = NegativeSamplingConfig(lambda_easy=1.0, lambda_ambiguous=1.0,
                                 lambda_hard=1.0, margin=0.0)
    with ad.using_dtype(np.float64):
        model = FusionModel(ModelConfig(embedding_dim=8, experts=1, mi_bins=4,
                                        modalities=[]),
                            n_entities=12, n_relations=3, tables={}, seed=9)
        with ad.no_grad():
            joint, _ = model.fuse(np.arange(12))
        emb = np.asarray(joint.data, dtype=np.float64)
        theta = np.asarray(model.relation_phases.data, dtype=np.float64)

        from moekgc.scoring import score_batch

        def logsig(x):
            return -np.logaddexp(0.0, -x)

        rng = np.random.default_rng(41)
        for _ in range(100):
            B, N = 4, 3
            ph, pt = rng.integers(0, 12, B), rng.integers(0, 12, B)
            pr = rng.integers(0, 3, B)
            nh, nt = rng.integers(0, 12, (B, N)), rng.integers(0, 12, (B, N))
            nr = np.repeat(pr[:, None], N, axis=1)

            with ad.no_grad():
                pos = score_batch(ad.gather_rows(joint, ph),
                                  ad.gather_rows(model.relation_phases, pr),
                                  ad.gather_rows(joint, pt), "l2")
                neg = score_batch(ad.gather_rows(joint, nh.ravel()),
                                  ad.gather_rows(model.relation_phases, nr.ravel()),
                                  ad.gather_rows(joint, nt.ravel()), "l2")
                lam = negative_weights(neg.data, cfg)
                got = batch_loss(pos, neg, lam, cfg).item()

            # plain sigmoid contrastive loss, straight from the tables
            want = 0.0
            for i in range(B):
                sp = score(emb[ph[i]], theta[pr[i]], emb[pt[i]])
                want -= logsig(sp)
                for j in range(N):
                    sn = score(emb[nh[i, j]], theta[nr[i, j]], emb[nt[i, j]])
                    want -= logsig(-sn)
            want /= B
            assert got == pytest.approx(want, abs=1e-6)
    _ok(5, "unit weights, zero margin: equals independent sigmoid loss on 100 batches")


# ------------------------------------------------------------- criterion 6


def test_c06_rotation_algebra():
    rng = np.random.default_rng(53)
    n, d = 1000, 8
    h = rng.normal(size=(n, d))
    t = rng.normal(size=(n, d))
    th1 = rng.uniform(-math.pi, math.pi, size=(n, d // 2))
    th2 = rng.uniform(-math.pi, math.pi, size=(n, d // 2))
    phi = rng.uniform(-math.pi, math.pi, size=(n, d // 2))

    np.testing.assert_allclose(rotate(h, np.zeros((n, d // 2))), h, atol=1e-5)

    quarter = rotate(h, np.full((n, d // 2), math.pi / 2))
    re, im = h[:, : d // 2], h[:, d // 2:]
    np.testing.assert_allclose(quarter, np.concatenate([-im, re], axis=1), atol=1e-5)

    for i in range(n):
        base = score(h[i], th1[i], t[i])
        shifted = score(rotate(h[i], phi[i]), th1[i], rotate(t[i], phi[i]))
        assert abs(shifted - base) < 1e-5
        assert abs(score(t[i], -th1[i], h[i]) - base) < 1e-5

    np.testing.assert_allclose(
        rotate(rotate(h, th1), th2), rotate(h, th1 + th2), atol=1e-5)
    _ok(6, "identity, quarter turn, global phase, inversion, composition x1000")


# ------------------------------------------------------------- criterion 7


def _oracle_report(emb, theta, kg, mode):
    known_t, known_h = {}, {}
    for split in (kg.train, kg.valid, kg.test):
        for h, r, t in split:
            known_t.setdefault((int(h), int(r)), set()).add(int(t))
            known_h.setdefault((int(r), int(t)), set()).add(int(h))
    n_ent = emb.shape[0]
    ranks = []
    for h, r, t in kg.test:
        h, r, t = int(h), int(r), int(t)
        for side in ("tail", "head"):
            if side == "tail":
                scores = np.array([score(emb[h], theta[r], emb[c]) for c in range(n_ent)])
                gold, known = t, known_t[(h, r)]
            else:
                scores = np.array([score(emb[c], theta[r], emb[t]) for c in range(n_ent)])
                gold, known = h, known_h[(r, t)]
            allowed = np.ones(n_ent, dtype=bool)
            if mode == "filtered":
                allowed[sorted(known)] = False
                allowed[gold] = True
            ranks.append(rank_by_sort(scores, gold, allowed))
    # same running-sum accumulation order as the evaluator, so equal ranks
    # must give bitwise-equal aggregates
    rr, hits = 0.0, {1: 0, 3: 0, 10: 0}
    for rank in ranks:
        rr += 1.0 / rank
        for k in hits:
            hits[k] += 1 if rank <= k else 0
    n = len(ranks)
    return np.asarray(ranks), {
        "mrr": rr / n,
        "hits1": hits[1] / n,
        "hits3": hits[3] / n,
        "hits10": hits[10] / n,
    }


def test_c07_ranks_match_brute_force_oracle_exactly():
    rng = np.random.default_rng(61)
    checked = 0
    for trial in range(50):
        n_ent = int(rng.integers(3, 21))
        n_rel = int(rng.integers(1, 4))
        n_tr = int(rng.integers(4, 26))
        triples = np.stack([rng.integers(0, n_ent, n_tr),
                            rng.integers(0, n_rel, n_tr),
                            rng.integers(0, n_ent, n_tr)], axis=1)
        cut = max(1, n_tr // 3)
        kg = _kg(n_ent, n_rel, triples[cut:], None, triples[:cut])
        with ad.using_dtype(np.float64):
            model = FusionModel(ModelConfig(embedding_dim=8, experts=1, mi_bins=4,
                                            modalities=[]),
                                n_ent, n_rel, tables={}, seed=trial)
            if trial % 3 == 0:
                # planted score ties: several entities share one embedding row
                dup = model.params["entities"].data
                dup[1] = dup[0]
                if n_ent > 4:
                    dup[4] = dup[0]
            emb = np.asarray(model.params["entities"].data, dtype=np.float64)
            theta = np.asarray(model.relation_phases.data, dtype=np.float64)
            fi = build_filter_index(kg)
            for mode in ("filtered", "raw"):
                oracle_ranks, oracle = _oracle_report(emb, theta, kg, mode)
                got = evaluate(model, kg, "test", mode)
                # per-query ranks through the production scorer and tie rule
                i = 0
                for h, r, t in kg.test:
                    h, r, t = int(h), int(r), int(t)
                    for side in ("tail", "head"):
                        if side == "tail":
                            s = score_candidates(emb, theta[r], emb[h], "tail")
                            gold, known = t, fi.true_tails(h, r)
                        else:
                            s = score_candidates(emb, theta[r], emb[t], "head")
                            gold, known = h, fi.true_heads(r, t)
                        # the one-row block of the evaluator's counting routine
                        answers = np.array(sorted(known), dtype=np.int64)
                        (better,), (tied,) = _tie_counts(
                            s[None], [gold], [0, len(answers)],
                            answers if mode == "filtered" else None)
                        assert _mean_rank(int(better), int(tied)) == oracle_ranks[i]
                        i += 1
                        checked += 1
                for key in ("mrr", "hits1", "hits3", "hits10"):
                    assert got[key] == oracle[key], (trial, mode, key)
    _ok(7, f"50 models, {checked} query ranks equal the sort oracle exactly")


# ------------------------------------------------------------- criterion 8


def test_c08_desk_scale_training_reaches_high_mrr():
    start = time.monotonic()
    kg = ring_graph(n_entities=50, steps=(1, 7, 18), seed=0)
    model_cfg = ModelConfig(embedding_dim=32, experts=2, mi_bins=4, modalities=[])
    train_cfg = TrainConfig(learning_rate=0.1, batch_size=16, max_epochs=500,
                            eval_every=25, patience=10, seed=0, mi_ref_batch=50)
    samp_cfg = NegativeSamplingConfig(negatives_per_positive=16, margin=6.0,
                                      log_base="base2")
    result = train(kg, {}, model_cfg, train_cfg, samp_cfg)
    report = evaluate(result.model, kg, "test", "filtered", mi_ref_batch=50)
    elapsed = time.monotonic() - start
    assert report["mrr"] >= 0.90, report
    assert elapsed <= 120.0, f"training took {elapsed:.0f}s"
    _ok(8, f"ring graph filtered MRR {report['mrr']:.3f} in {elapsed:.0f}s")


# ------------------------------------------------------------- criterion 9


def _ablation_mrr(kg, tables, modalities, intra, inter, seed):
    model_cfg = ModelConfig(embedding_dim=16, experts=3, mi_bins=8,
                            modalities=modalities,
                            intra_weighting=intra, inter_weighting=inter)
    train_cfg = TrainConfig(learning_rate=0.1, batch_size=16, max_epochs=250,
                            eval_every=25, patience=10, seed=seed, mi_ref_batch=64)
    samp_cfg = NegativeSamplingConfig(negatives_per_positive=8, margin=6.0,
                                      log_base="base2")
    used = {m: tables[m] for m in modalities}
    result = train(kg, used, model_cfg, train_cfg, samp_cfg)
    return evaluate(result.model, kg, "test", "filtered", mi_ref_batch=64)["mrr"]


def test_c09_complementarity_is_directionally_beneficial():
    # directional claims on 3-seed means, no fixed margin: fused model beats
    # structure-only, and the modality-level weighting matters at least as
    # much as the expert-level weighting on this synthetic
    kg, tables = clustered_graph(seed=0)
    seeds = (0, 1, 2)
    variants = {
        "full": (["attr", "attr_dup"], "mi", "mi"),
        "structure": ([], "mi", "mi"),
        "intra_off": (["attr", "attr_dup"], "uniform", "mi"),
        "inter_off": (["attr", "attr_dup"], "mi", "uniform"),
    }
    means = {}
    for name, (mods, intra, inter) in variants.items():
        means[name] = float(np.mean(
            [_ablation_mrr(kg, tables, mods, intra, inter, s) for s in seeds]))
    assert means["full"] >= means["structure"], means
    drop_inter = means["full"] - means["inter_off"]
    drop_intra = means["full"] - means["intra_off"]
    assert drop_inter >= drop_intra, means
    _ok(9, f"full {means['full']:.3f} >= structure {means['structure']:.3f}; "
           f"uniform-inter drop {drop_inter:+.4f} >= uniform-intra drop {drop_intra:+.4f}")


# ------------------------------------------------------------ criterion 10


def test_c10_determinism_and_checkpoint_integrity(tmp_path):
    kg = ring_graph(n_entities=12, steps=(1, 5), seed=4, train_frac=0.7)
    model_cfg = ModelConfig(embedding_dim=8, experts=2, mi_bins=4, modalities=[])
    train_cfg = TrainConfig(learning_rate=0.05, batch_size=8, max_epochs=30,
                            eval_every=10, patience=5, seed=2, mi_ref_batch=12)
    samp_cfg = NegativeSamplingConfig(negatives_per_positive=4, margin=2.0,
                                      log_base="base2")

    paths, reports = [], []
    for run in range(2):
        result = train(kg, {}, model_cfg, train_cfg, samp_cfg)
        p = tmp_path / f"run{run}.mkgc"
        save_checkpoint(p, result.model, extra={"note": "acceptance"})
        paths.append(p)
        reports.append(evaluate(result.model, kg, "test", "filtered", mi_ref_batch=12))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)

    loaded, _ = load_checkpoint(paths[0], tables={}, kg=kg)
    again = tmp_path / "again.mkgc"
    save_checkpoint(again, loaded, extra={"note": "acceptance"})
    assert again.read_bytes() == paths[0].read_bytes()

    blob = bytearray(paths[0].read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.mkgc"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad, tables={}, kg=kg)
    _ok(10, "bit-identical reruns, byte-stable save/load/save, corruption rejected")


# ------------------------------------------------------------ criterion 11


def test_c11_sampled_negatives_never_hit_known_triples():
    rng = np.random.default_rng(97)
    emitted = 0
    for trial in range(12):
        n_ent = int(rng.integers(4, 30))
        n_rel = int(rng.integers(1, 4))
        n_tr = int(rng.integers(20, 60))
        triples = np.stack([rng.integers(0, n_ent, n_tr),
                            rng.integers(0, n_rel, n_tr),
                            rng.integers(0, n_ent, n_tr)], axis=1).astype(np.int64)
        # an independent record of the known triples; fi.contains is the
        # membership test under test
        known = set(map(tuple, triples.tolist()))
        negatives = corrupt(triples, 30, FilterIndex(triples), n_ent, seed=trial, epoch=5)
        assert negatives.shape == (30 * n_tr, 3)
        for neg in negatives.tolist():
            assert tuple(neg) not in known, neg
            emitted += 1
    assert emitted >= 10_000
    _ok(11, f"{emitted} sampled negatives, zero filter leaks")
