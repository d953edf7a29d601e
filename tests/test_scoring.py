import numpy as np
import pytest

from moekgc import autodiff as ad
from moekgc import scoring
from oracles import concatenated_score, finite_difference_grads, relative_block_error


def rand_case(rng, d=8):
    h = rng.uniform(-2, 2, d)
    t = rng.uniform(-2, 2, d)
    theta = rng.uniform(-np.pi, np.pi, d // 2)
    return h, theta, t


def test_zero_rotation_identical_embeddings_scores_zero():
    h = np.array([0.3, -1.2, 0.5, 2.0])
    assert scoring.score(h, np.zeros(2), h) == 0.0


def test_half_turn_single_coordinate():
    # one complex coordinate: 1+0i rotated by pi lands at -1, distance 2 from 1
    h = np.array([1.0, 0.0])
    t = np.array([1.0, 0.0])
    assert scoring.score(h, np.array([np.pi]), t) == pytest.approx(-2.0, abs=1e-12)


def test_quarter_turn_maps_real_onto_imaginary():
    # 1+0i rotated by pi/2 is 0+1i
    h = np.array([1.0, 0.0])
    t = np.array([0.0, 1.0])
    assert scoring.score(h, np.array([np.pi / 2]), t) == pytest.approx(0.0, abs=1e-12)


def test_scores_never_positive():
    rng = np.random.default_rng(0)
    for _ in range(200):
        h, theta, t = rand_case(rng)
        assert scoring.score(h, theta, t) <= 0.0
        assert scoring.score(h, theta, t, norm="l1") <= 0.0


def test_zero_rotation_is_negative_distance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        h, _, t = rand_case(rng)
        got = scoring.score(h, np.zeros(4), t)
        assert got == pytest.approx(-np.linalg.norm(h - t), abs=1e-9)


def test_inversion_swaps_head_and_tail():
    rng = np.random.default_rng(2)
    for _ in range(100):
        h, theta, t = rand_case(rng)
        for norm in scoring.NORMS:
            a = scoring.score(h, theta, t, norm)
            b = scoring.score(t, -theta, h, norm)
            assert a == pytest.approx(b, abs=1e-9)


def test_rotation_composition():
    rng = np.random.default_rng(3)
    for _ in range(100):
        h, t1, t = rand_case(rng)
        t2 = rng.uniform(-np.pi, np.pi, len(t1))
        a = scoring.score(scoring.rotate(h, t1), t2, t)
        b = scoring.score(h, t1 + t2, t)
        assert a == pytest.approx(b, abs=1e-9)


def test_global_phase_invariance():
    rng = np.random.default_rng(4)
    for _ in range(100):
        h, theta, t = rand_case(rng)
        phi = rng.uniform(-np.pi, np.pi, len(theta))
        a = scoring.score(scoring.rotate(h, phi), theta, scoring.rotate(t, phi))
        b = scoring.score(h, theta, t)
        assert a == pytest.approx(b, abs=1e-9)


def test_batch_path_matches_single_scores():
    rng = np.random.default_rng(5)
    with ad.using_dtype(np.float64):
        for norm in scoring.NORMS:
            H = rng.uniform(-2, 2, (16, 6))
            T = rng.uniform(-2, 2, (16, 6))
            P = rng.uniform(-np.pi, np.pi, (16, 3))
            ad.reset_tape()
            batch = scoring.score_batch(ad.Tensor(H), ad.Tensor(P), ad.Tensor(T), norm)
            singles = [scoring.score(H[i], P[i], T[i], norm) for i in range(16)]
            np.testing.assert_allclose(batch.data[:, 0], singles, atol=1e-9)


def test_candidate_scoring_matches_single_scores():
    rng = np.random.default_rng(6)
    cand = rng.uniform(-2, 2, (10, 6))
    theta = rng.uniform(-np.pi, np.pi, 3)
    fixed = rng.uniform(-2, 2, 6)
    for norm in scoring.NORMS:
        tails = scoring.score_candidates(cand, theta, fixed, "tail", norm)
        heads = scoring.score_candidates(cand, theta, fixed, "head", norm)
        for i in range(10):
            assert tails[i] == pytest.approx(scoring.score(fixed, theta, cand[i], norm), abs=1e-9)
            assert heads[i] == pytest.approx(scoring.score(cand[i], theta, fixed, norm), abs=1e-9)


@pytest.mark.parametrize("d", [6, 16, 256])
def test_row_scoring_is_exactly_the_per_row_score(d):
    # score broadcasts over rows; score_candidates dispatches onto it, so
    # every path must give the single-triple value to the last bit
    rng = np.random.default_rng(d)
    H = rng.normal(size=(12, d))
    T = rng.normal(size=(12, d))
    P = rng.uniform(-np.pi, np.pi, (12, d // 2))
    for norm in scoring.NORMS:
        rows = scoring.score(H, P, T, norm)
        assert rows.shape == (12,) and type(scoring.score(H[0], P[0], T[0], norm)) is float
        assert rows.tolist() == [scoring.score(H[i], P[i], T[i], norm) for i in range(12)]
        tails = scoring.score_candidates(T, P[0], H[0], "tail", norm)
        heads = scoring.score_candidates(H, P[0], T[0], "head", norm)
        assert tails.tolist() == [scoring.score(H[0], P[0], T[i], norm) for i in range(12)]
        assert heads.tolist() == [scoring.score(H[i], P[0], T[0], norm) for i in range(12)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [2, 16, 256])
def test_in_place_scoring_matches_the_concatenated_oracle_bitwise(d, dtype):
    # the rotated halves and the difference are written in place; every
    # broadcast the scorer serves must give the one-array-per-op bytes
    rng = np.random.default_rng(d + 5)
    E = (rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-3, 3, (40, 1))).astype(dtype)
    P = rng.uniform(-np.pi, np.pi, (40, d // 2))
    for norm in scoring.NORMS:
        for head, theta, tail in ((E[0], P[0], E), (E, P[0], E[1]), (E, P, E[::-1]),
                                  (E[2], P, E[3]), (E[4], P[4], E[5])):
            got = np.asarray(scoring.score(head, theta, tail, norm))
            want = concatenated_score(head, theta, tail, norm)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("side", ["tail", "head"])
@pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
@pytest.mark.parametrize("d", [2, 16, 256])
def test_l2_error_bound_covers_every_gemm_order_flip(d, scale, side):
    # candidates crowd one point: duplicates, one-ulp neighbours, tiny
    # offsets far below the GEMM's rounding, a zero row and random rows
    rng = np.random.default_rng(d)
    theta = rng.uniform(-np.pi, np.pi, d // 2)
    fixed = rng.normal(size=d) * scale
    if side == "tail":
        q = scoring.rotate(fixed, theta)
    else:
        q = scoring.rotate(fixed, -theta)
    cand = np.concatenate([
        np.tile(q, (4, 1)),
        np.nextafter(q, np.where(rng.random((40, d)) < 0.5, -np.inf, np.inf)),
        q + rng.normal(size=(40, d)) * scale * 1e-9,
        np.zeros((1, d)),
        rng.normal(size=(15, d)) * scale,
    ])
    direct = scoring.score_candidates(cand, theta, fixed, side)
    c_sq = np.einsum("ij,ij->i", cand, cand)
    gemm = q @ q + c_sq - 2.0 * (cand @ q)
    err = scoring.l2_error_bound(np.sqrt(q @ q), np.sqrt(c_sq), d)
    assert np.all(np.abs(gemm - direct * direct) <= err)
    flips = 0
    for g in range(len(cand)):
        nearer = np.sign(gemm[g] - gemm)  # +1 where the GEMM puts c nearer
        higher = np.sign(direct - direct[g])
        flipped = nearer != higher
        flips += int(flipped.sum())
        band = np.abs(gemm - gemm[g]) <= err + err[g]
        assert np.all(band[flipped]), g
    assert flips > 0  # the fixture does reorder some pairs


@pytest.mark.parametrize("side", ["tail", "head"])
@pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
@pytest.mark.parametrize("d", [2, 16, 256])
def test_max_norm_l2_error_bound_covers_every_gemm_order_flip(d, scale, side):
    # evaluation takes one bound per query, at the largest candidate norm;
    # candidates crowd the query as above, and others span twelve orders of
    # magnitude in norm, where that bound is loosest for the crowd
    rng = np.random.default_rng(d + 1)
    theta = rng.uniform(-np.pi, np.pi, d // 2)
    fixed = rng.normal(size=d) * scale
    q = scoring.rotate(fixed, theta if side == "tail" else -theta)
    cand = np.concatenate([
        np.tile(q, (4, 1)),
        np.nextafter(q, np.where(rng.random((40, d)) < 0.5, -np.inf, np.inf)),
        q + rng.normal(size=(40, d)) * scale * 1e-9,
        np.zeros((1, d)),
        rng.normal(size=(30, d)) * scale * 10.0 ** rng.uniform(-6, 6, (30, 1)),
    ])
    direct = scoring.score_candidates(cand, theta, fixed, side)
    c_sq = np.einsum("ij,ij->i", cand, cand)
    gemm = q @ q + c_sq - 2.0 * (cand @ q)
    own = scoring.l2_error_bound(np.sqrt(q @ q), np.sqrt(c_sq), d)
    err = scoring.l2_error_bound(np.sqrt(q @ q), np.sqrt(c_sq.max()), d)
    assert np.all(own <= err)
    assert np.all(np.abs(gemm - direct * direct) <= err)
    flips = 0
    for g in range(len(cand)):
        nearer = np.sign(gemm[g] - gemm)
        higher = np.sign(direct - direct[g])
        flips += int((nearer != higher).sum())
        # evaluate settles a candidate more than 2 err from the gold as
        # strictly better or strictly worse
        assert np.all(higher[gemm < gemm[g] - 2.0 * err] == 1), g
        assert np.all(higher[gemm > gemm[g] + 2.0 * err] == -1), g
    assert flips > 0


def test_unknown_corrupt_side_rejected():
    with pytest.raises(ValueError, match="corrupt_side"):
        scoring.score_candidates(np.ones((3, 2)), np.ones(1), np.ones(2), "left")


def test_odd_dimension_rejected():
    with pytest.raises(ValueError, match="even"):
        scoring.score(np.ones(3), np.ones(1), np.ones(3))
    with pytest.raises(ValueError, match="even"):
        scoring.score_batch(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 1))), ad.Tensor(np.ones((2, 3))))


def test_unknown_norm_rejected():
    with pytest.raises(ValueError, match="norm"):
        scoring.score(np.ones(2), np.ones(1), np.ones(2), norm="l3")


def test_score_batch_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    with ad.using_dtype(np.float64):
        for norm in scoring.NORMS:
            H = ad.parameter(rng.uniform(-2, 2, (4, 6)))
            P = ad.parameter(rng.uniform(-np.pi, np.pi, (4, 3)))
            T = ad.parameter(rng.uniform(-2, 2, (4, 6)))

            def build():
                return scoring.score_batch(H, P, T, norm).sum()

            ad.reset_tape()
            loss = build()
            ad.backward(loss)
            analytic = [H.grad.copy(), P.grad.copy(), T.grad.copy()]

            def f():
                ad.reset_tape()
                with ad.no_grad():
                    return float(build().data)

            numeric = finite_difference_grads(f, [H.data, P.data, T.data])
            for a, n in zip(analytic, numeric):
                assert relative_block_error(a, n) < 1e-3
