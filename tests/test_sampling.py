"""Tests for corruption, entropy classes, and the weighted loss."""

import math

import numpy as np
import pytest

import moekgc.autodiff as ad
import moekgc.sampling as sampling
from moekgc.config import ConfigError
from moekgc.kgdata import FilterIndex
from moekgc.sampling import (
    AMBIGUOUS,
    CLASSES,
    EASY,
    HARD,
    NegativeSamplingConfig,
    SamplingError,
    UnreachableHardClassWarning,
    _classify_scores,
    batch_loss,
    binary_entropy,
    classify,
    corrupt,
    derived_rng,
    loss,
    max_entropy,
    negative_weights,
    sample_stats,
)

from oracles import binary_entropy as oracle_entropy
from oracles import keyed_hash, keyed_negatives
from oracles import finite_difference_grads, relative_block_error


def make_filter(triples):
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return FilterIndex(arr)


def default_cfg(**kw):
    cfg = NegativeSamplingConfig(**kw)
    return cfg


# ---------------------------------------------------------------- corrupt

def corrupt_one(positive, n, fi, n_entities, seed=0, **kw):
    return corrupt([positive], n, fi, n_entities, seed, **kw)


def test_corrupt_is_deterministic_for_a_seed():
    fi = make_filter([(0, 0, 1), (1, 0, 2)])
    a = corrupt_one((0, 0, 1), 12, fi, n_entities=20, seed=7, epoch=0, rows=[3])
    b = corrupt_one((0, 0, 1), 12, fi, n_entities=20, seed=7, epoch=0, rows=[3])
    assert a.dtype == np.int64 and a.shape == (12, 3)
    np.testing.assert_array_equal(a, b)
    c = corrupt_one((0, 0, 1), 12, fi, n_entities=20, seed=7, epoch=1, rows=[3])
    assert not np.array_equal(a, c)


def test_corrupt_never_emits_a_known_true_triple():
    rng = np.random.default_rng(3)
    triples = [(int(h), int(r), int(t)) for h, r, t in rng.integers(0, 12, size=(60, 3))]
    known = set(triples)
    fi = make_filter(triples)
    negs = corrupt(triples[:10], 50, fi, n_entities=12, seed=1)
    assert negs.shape == (500, 3)
    for i, neg in enumerate(negs.tolist()):
        h, r, t = triples[i // 50]
        # one side kept, the relation kept, the triple not known
        assert neg[1] == r and (neg[0] == h or neg[2] == t)
        assert tuple(neg) not in known


def test_corrupt_uses_both_sides_when_free():
    fi = make_filter([(0, 0, 1)])
    negs = corrupt_one((0, 0, 1), 200, fi, n_entities=10, seed=11)
    assert (negs[:, 0] != 0).any() and (negs[:, 2] != 1).any()


def picks_head(seed, epoch=0, row=0, slot=0):
    """Whether the hash of a slot's key picks the head for corruption."""
    return keyed_hash(seed, epoch, row, slot) >> 63 == 0


def test_corrupt_two_entity_graph_finds_the_only_candidate():
    # both sides constrained: corrupting the head of (0, r, 1) can only
    # yield (1, r, 1), the tail only (0, r, 0)
    fi = make_filter([(0, 0, 1)])
    negs = corrupt_one((0, 0, 1), 40, fi, n_entities=2, seed=2)
    assert negs.tolist() == [[1, 0, 1] if picks_head(2, slot=s) else [0, 0, 0]
                             for s in range(40)]
    assert [0, 0, 0] in negs.tolist() and [1, 0, 1] in negs.tolist()


def test_corrupt_raises_when_every_candidate_is_true():
    # all four (h, 0, t) combos are known true, so neither side has a
    # corruption, and the error names the side the slot's hash picks and the
    # retry budget
    fi = make_filter([(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)])
    for side in ("head", "tail"):
        seed = next(s for s in range(64) if picks_head(s) == (side == "head"))
        with pytest.raises(SamplingError, match=rf"no valid {side} corruption for positive "
                                                r"\(0, 0, 1\) after 200 attempts"):
            corrupt_one((0, 0, 1), 1, fi, n_entities=2, seed=seed)


def test_corrupt_rejects_bad_arguments():
    fi = make_filter([(0, 0, 1)])
    with pytest.raises(ValueError):
        corrupt_one((0, 0, 1), 0, fi, n_entities=4)
    with pytest.raises(ValueError):
        corrupt_one((0, 0, 1), 1, fi, n_entities=4, seed=-1)
    with pytest.raises(ValueError):
        corrupt_one((0, 0, 1), 1, fi, n_entities=4, rows=[0, 1])


def random_graph(rng, n_ent, n_rel, n_triples):
    triples = np.stack([rng.integers(0, n_ent, n_triples), rng.integers(0, n_rel, n_triples),
                        rng.integers(0, n_ent, n_triples)], axis=1).astype(np.int64)
    return np.unique(triples, axis=0)


def test_keyed_draws_equal_the_scalar_reference():
    rng = np.random.default_rng(23)
    retried = 0
    for trial in range(6):
        n_ent = int(rng.integers(6, 14))
        # about a quarter of all triples known, so that many slots are redrawn
        triples = random_graph(rng, n_ent, 2, 3 * n_ent * n_ent // 5)
        fi = FilterIndex(triples)
        rows = rng.choice(10 ** 6, size=len(triples), replace=False)
        seed, epoch = int(rng.integers(0, 2 ** 63)), int(rng.integers(0, 500))
        want, attempts = keyed_negatives(triples.tolist(), rows.tolist(), 5,
                                         set(map(tuple, triples.tolist())), n_ent,
                                         seed, epoch, 200)
        got = corrupt(triples, 5, fi, n_ent, seed, epoch, rows=rows)
        assert got.tolist() == [list(w) for w in want]
        retried += sum(a > 1 for a in attempts)
    assert retried > 100


def test_exhausted_retries_name_the_first_failing_positive(monkeypatch):
    monkeypatch.setattr(sampling, "MAX_RETRIES", 2)
    rng = np.random.default_rng(5)
    triples = random_graph(rng, 4, 1, 14)
    want, _ = keyed_negatives(triples.tolist(), range(len(triples)), 3,
                              set(map(tuple, triples.tolist())), 4, 9, 2, 2)
    first = want.index(None) // 3
    h, r, t = triples[first].tolist()
    with pytest.raises(SamplingError, match=rf"positive \({h}, {r}, {t}\) after 2 attempts"):
        corrupt(triples, 3, FilterIndex(triples), 4, 9, 2)


def test_row_negatives_do_not_depend_on_batch_or_order():
    rng = np.random.default_rng(8)
    triples = random_graph(rng, 30, 3, 200)
    fi = FilterIndex(triples)
    whole = corrupt(triples, 4, fi, 30, 17, 3).reshape(len(triples), 4, 3)
    perm = rng.permutation(len(triples))
    for size in (1, 7, 64):
        for b0 in range(0, len(perm), size):
            rows = perm[b0:b0 + size]
            part = corrupt(triples[rows], 4, fi, 30, 17, 3, rows=rows)
            np.testing.assert_array_equal(part.reshape(len(rows), 4, 3), whole[rows])


# ---------------------------------------------------------------- entropy

def test_entropy_peak_is_ln_two():
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-12)
    assert binary_entropy(0.5, "base2") == pytest.approx(1.0, abs=1e-12)


def test_entropy_confident_probability():
    # h(0.99) = -0.99 ln 0.99 - 0.01 ln 0.01
    want = -0.99 * math.log(0.99) - 0.01 * math.log(0.01)
    assert binary_entropy(0.99) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.0560, abs=1e-4)


def test_entropy_is_clamped_at_the_edges():
    for p in (0.0, 1.0, -0.5, 2.0):
        h = binary_entropy(p)
        assert math.isfinite(h)
        assert 0.0 < h < 1e-5


def test_entropy_matches_oracle_on_a_grid():
    for p in np.linspace(0.001, 0.999, 97):
        assert binary_entropy(float(p)) == pytest.approx(oracle_entropy(float(p)), abs=1e-12)
        assert binary_entropy(float(p), "base2") == pytest.approx(
            oracle_entropy(float(p)) / math.log(2.0), abs=1e-12)


def test_entropy_symmetry():
    for p in (0.1, 0.25, 0.43):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


# ---------------------------------------------------------------- classes

def test_classification_boundaries_are_closed_on_the_left():
    cfg = default_cfg(log_base="base2")
    assert classify(cfg.delta1, cfg) == (AMBIGUOUS, cfg.lambda_ambiguous)
    assert classify(cfg.delta2, cfg) == (HARD, cfg.lambda_hard)
    assert classify(cfg.delta1 - 1e-9, cfg) == (EASY, cfg.lambda_easy)
    assert classify(cfg.delta2 - 1e-9, cfg) == (AMBIGUOUS, cfg.lambda_ambiguous)


def test_hard_class_unreachable_under_natural_log_defaults():
    # delta2 = 0.8 > ln 2, so no probability reaches the hard class
    cfg = default_cfg()
    rng = np.random.default_rng(0)
    for p in rng.uniform(0.0, 1.0, size=5000):
        d, _ = classify(binary_entropy(float(p)), cfg)
        assert d != HARD


def test_hard_class_reachable_with_base2():
    cfg = default_cfg(log_base="base2")
    assert classify(binary_entropy(0.5, "base2"), cfg)[0] == HARD


def test_unreachable_hard_class_warns():
    import warnings

    with pytest.warns(UnreachableHardClassWarning):
        default_cfg().validate()
    # reachable thresholds stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        default_cfg(log_base="base2").validate()
        default_cfg(delta2=0.6).validate()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        default_cfg(negatives_per_positive=0).validate()
    with pytest.raises(ConfigError):
        default_cfg(delta1=0.8, delta2=0.2).validate()
    with pytest.raises(ConfigError):
        default_cfg(delta1=0.0).validate()
    with pytest.raises(ConfigError):
        default_cfg(lambda_easy=1.5, lambda_ambiguous=1.5).validate()
    with pytest.raises(ConfigError):
        default_cfg(log_base="ln").validate()
    for name in ("lambda_easy", "lambda_ambiguous", "lambda_hard"):
        with pytest.raises(ConfigError, match=f"{name} must be >= 0"):
            default_cfg(**{name: -0.5}).validate()
    with pytest.raises(ConfigError, match="lambda_easy must be >= 0"):
        default_cfg(lambda_easy=-3.0, lambda_ambiguous=1.5, lambda_hard=-2.0).validate()
    # a zero weight is allowed: that class of negatives adds nothing
    default_cfg(lambda_easy=0.0, lambda_hard=0.0, log_base="base2").validate()
    # lambda_hard below lambda_ambiguous is allowed (the shipped defaults do it)
    default_cfg(log_base="base2").validate()


def test_max_entropy_values():
    assert max_entropy("natural") == pytest.approx(math.log(2.0))
    assert max_entropy("base2") == 1.0


# ---------------------------------------------------------------- classes

def test_sample_stats_of_hand_computed_scores():
    cfg = default_cfg(margin=2.0)
    scores = [-3.0, -0.2, -20.0]
    # p = sigmoid(margin + score), computed independently
    h = [oracle_entropy(1.0 / (1.0 + math.exp(-(2.0 + sc)))) for sc in scores]
    stats = sample_stats(scores, cfg)
    # p = sigmoid(-1), h ~ 0.58 and p = sigmoid(1.8), h ~ 0.41 are ambiguous;
    # p ~ 1.5e-8, h ~ 0 is easy
    assert (stats["easy"], stats["ambiguous"], stats["hard"], stats["total"]) == (1, 2, 0, 3)
    assert stats["mean_entropy"] == pytest.approx(np.mean(h), rel=1e-9)
    assert negative_weights(scores, cfg).tolist() == [cfg.lambda_ambiguous] * 2 + [cfg.lambda_easy]


def test_negative_weights_match_scalar_path():
    cfg = default_cfg(margin=6.0, log_base="base2")
    rng = np.random.default_rng(9)
    scores = rng.uniform(-15.0, 2.0, size=300)
    w = negative_weights(scores, cfg)
    for sc, wi in zip(scores, w):
        p = 1.0 / (1.0 + math.exp(-(6.0 + sc)))
        _, want = classify(binary_entropy(p, "base2"), cfg)
        assert wi == want


@pytest.mark.parametrize("log_base", ["natural", "base2"])
def test_annotate_weights_equal_negative_weights_at_the_boundaries(log_base):
    # sample_stats' counts and the classes of negative_weights' output agree
    # score by score, on delta1 and delta2 too
    scores = np.linspace(-20.0, 5.0, 2001)
    h, _ = _classify_scores(scores, default_cfg(margin=1.5, log_base=log_base))
    # thresholds taken from entropies the grid produces, so some scores sit
    # exactly on delta1 and delta2
    seen = sorted(set(h.tolist()))
    cfg = default_cfg(margin=1.5, log_base=log_base,
                      delta1=seen[len(seen) // 4], delta2=seen[3 * len(seen) // 4])
    assert cfg.delta1 in h and cfg.delta2 in h
    weights = negative_weights(scores, cfg).tolist()
    cls = [classify(hi, cfg)[0] for hi in h.tolist()]
    assert weights == [classify(hi, cfg)[1] for hi in h.tolist()]
    # the three lambdas differ, so each weight names its class
    by_weight = {cfg.lambda_easy: EASY, cfg.lambda_ambiguous: AMBIGUOUS, cfg.lambda_hard: HARD}
    stats = sample_stats(scores, cfg)
    assert {c: stats[c] for c in CLASSES} == {c: [by_weight[w] for w in weights].count(c)
                                              for c in CLASSES}
    assert stats["total"] == len(scores) and stats["mean_entropy"] == h.mean()
    assert {c for c, hi in zip(cls, h) if hi == cfg.delta1} == {AMBIGUOUS}
    assert {c for c, hi in zip(cls, h) if hi == cfg.delta2} == {HARD}
    assert set(cls) == {EASY, AMBIGUOUS, HARD}


def test_sample_stats_counts_match_manual_recount():
    cfg = default_cfg(log_base="base2", margin=0.0)
    rng = np.random.default_rng(1)
    scores = rng.uniform(-12.0, 3.0, size=64)
    stats = sample_stats(scores, cfg)
    want = {EASY: 0, AMBIGUOUS: 0, HARD: 0}
    for sc in scores:
        p = 1.0 / (1.0 + math.exp(-sc))
        want[classify(binary_entropy(p, "base2"), cfg)[0]] += 1
    assert stats["easy"] == want[EASY]
    assert stats["ambiguous"] == want[AMBIGUOUS]
    assert stats["hard"] == want[HARD]
    assert stats["total"] == 64
    assert stats["mean_entropy"] == pytest.approx(
        np.mean([oracle_entropy(1.0 / (1.0 + math.exp(-sc)), base_e=False) for sc in scores]))


# ---------------------------------------------------------------- loss

def test_loss_hand_computed_example():
    # S+ = -1, negatives {-3, -0.2}, margin 2: both negatives have entropy
    # in [0.2, 0.8) so both get the ambiguous weight 1.5
    #   L = -log s(1) - 1.5 log s(1) - 1.5 log s(-1.8)
    want = -math.log(1 / (1 + math.exp(-1.0))) * (1.0 + 1.5) \
        - 1.5 * math.log(1 / (1 + math.exp(1.8)))
    assert want == pytest.approx(3.7126206, abs=1e-6)
    cfg = default_cfg(margin=2.0)
    with ad.using_dtype(np.float64):
        pos = ad.Tensor(np.array([[-1.0]]))
        negs = ad.Tensor(np.array([[-3.0], [-0.2]]))
        got = loss(pos, negs, cfg).item()
    assert got == pytest.approx(want, abs=1e-9)


def test_loss_reduces_to_plain_sigmoid_loss():
    # all weights 1 and margin 0 must equal the unweighted rotate loss
    cfg = default_cfg(margin=0.0, lambda_easy=1.0 - 1e-12, lambda_ambiguous=1.0, lambda_hard=1.0)
    rng = np.random.default_rng(17)
    with ad.using_dtype(np.float64):
        for _ in range(25):
            sp = float(rng.uniform(-8, 0))
            sn = rng.uniform(-8, 0, size=(6, 1))
            got = loss(ad.Tensor(np.array([[sp]])), ad.Tensor(sn), cfg).item()
            want = -math.log(1 / (1 + math.exp(-sp)))
            for v in sn.ravel():
                want -= math.log(1 / (1 + math.exp(v)))
            assert got == pytest.approx(want, rel=1e-9)


def test_batch_loss_is_mean_of_single_losses():
    cfg = default_cfg(margin=4.0)
    rng = np.random.default_rng(23)
    b, n = 5, 3
    sp = rng.uniform(-6, 0, size=(b, 1))
    sn = rng.uniform(-6, 0, size=(b * n, 1))
    with ad.using_dtype(np.float64):
        w = negative_weights(sn, cfg)
        got = batch_loss(ad.Tensor(sp), ad.Tensor(sn), w, cfg).item()
        singles = []
        for i in range(b):
            block = sn[i * n:(i + 1) * n]
            li = loss(ad.Tensor(sp[i:i + 1]), ad.Tensor(block), cfg).item()
            singles.append(li)
    assert got == pytest.approx(float(np.mean(singles)), rel=1e-9)


def test_doubling_weights_doubles_the_negative_term():
    cfg1 = default_cfg(margin=3.0, lambda_easy=0.5, lambda_ambiguous=1.5, lambda_hard=1.2)
    cfg2 = default_cfg(margin=3.0, lambda_easy=1.0, lambda_ambiguous=3.0, lambda_hard=2.4)
    sp = np.array([[-2.0]])
    sn = np.array([[-7.0], [-2.5], [-0.1]])
    with ad.using_dtype(np.float64):
        l1 = loss(ad.Tensor(sp), ad.Tensor(sn), cfg1).item()
        l2 = loss(ad.Tensor(sp), ad.Tensor(sn), cfg2).item()
        pos_term = -math.log(1 / (1 + math.exp(-(3.0 - 2.0))))
    assert l2 - pos_term == pytest.approx(2.0 * (l1 - pos_term), rel=1e-9)


def test_loss_gradient_matches_finite_differences():
    cfg = default_cfg(margin=2.0)
    rng = np.random.default_rng(31)
    sp0 = rng.uniform(-5, 0, size=(1, 1))
    sn0 = rng.uniform(-5, 0, size=(4, 1))
    with ad.using_dtype(np.float64):
        pos = ad.parameter(sp0.copy())
        neg = ad.parameter(sn0.copy())
        # freeze the weights so finite differences see the same constants
        w = negative_weights(sn0, cfg)
        out = batch_loss(pos, neg, w, cfg)
        ad.backward(out)

        def loss_fn():
            return batch_loss(pos, neg, w, cfg).item()

        fd_pos, fd_neg = finite_difference_grads(loss_fn, [pos.data, neg.data], step=1e-5)
    assert relative_block_error(pos.grad, fd_pos) < 1e-6
    assert relative_block_error(neg.grad, fd_neg) < 1e-6


def test_loss_rejects_bad_positive_shape():
    cfg = default_cfg()
    with pytest.raises(ValueError):
        loss(ad.Tensor(np.array([-1.0])), ad.Tensor(np.array([[-2.0]])), cfg)


def test_derived_rng_streams_are_stable_and_distinct():
    a = derived_rng(3, 1, 4).integers(0, 1000, size=8)
    b = derived_rng(3, 1, 4).integers(0, 1000, size=8)
    c = derived_rng(3, 1, 5).integers(0, 1000, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
