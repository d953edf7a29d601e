"""Triple scoring by complex rotation.

An embedding of even dimension d is read as d/2 complex numbers: the first
half holds real parts, the second half imaginary parts.  A relation is a
phase vector theta of length d/2; scoring rotates the head by theta and
measures how far it lands from the tail:

    score(h, theta, t) = -|| h * e^(i theta) - t ||

Scores are never positive; zero means the rotated head hits the tail
exactly.  The l2 norm treats the complex difference as one long real vector,
the l1 variant sums the per-coordinate complex magnitudes.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

NORMS = ("l2", "l1")


def _split(emb: np.ndarray):
    d = emb.shape[-1]
    if d % 2 != 0:
        raise ValueError(f"embedding dim must be even, got {d}")
    half = d // 2
    return emb[..., :half], emb[..., half:]


def rotate(emb: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rotate each complex coordinate of emb by the angles in theta.

    Returns a new float64 array holding re*cos - im*sin, then re*sin +
    im*cos, each half written in place.
    """
    re, im = _split(np.asarray(emb, dtype=np.float64))
    c, s = np.cos(theta, dtype=np.float64), np.sin(theta, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(re.shape, c.shape)[:-1] + (2 * re.shape[-1],))
    out_re, out_im = _split(out)
    np.multiply(re, c, out=out_re)
    out_re -= im * s
    np.multiply(re, s, out=out_im)
    out_im += im * c
    return out


def score(head, theta, tail, norm: str = "l2"):
    """-|| rotate(head, theta) - tail || over the last axis, in float64.

    head and tail broadcast against each other: one triple gives a float,
    rows of heads or tails give one score per row.
    """
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}")
    rotated = rotate(head, theta)
    tail = np.asarray(tail, dtype=np.float64)
    # the difference overwrites the rotated heads unless the tails broadcast
    # it to a larger shape; its halves then take the squares in place
    grows = np.broadcast_shapes(rotated.shape, tail.shape) != rotated.shape
    diff = np.subtract(rotated, tail, out=None if grows else rotated)
    re, im = _split(diff)
    mags_sq = re * re
    mags_sq += np.multiply(im, im, out=im)
    if norm == "l2":
        out = -np.sqrt(mags_sq.sum(axis=-1))
    else:
        out = -np.sqrt(mags_sq, out=mags_sq).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


# Error bound for ranking by squared l2 distances taken as one GEMM.
#
# Let q be the exact query (the head turned by theta, or the tail turned back
# by -theta), c a candidate, M = ||q|| + ||c|| and T = ||q - c||^2 <= M^2 the
# exact squared distance.  All arithmetic is float64, u = 2^-53, and
# gamma_n = n u / (1 - n u) (Higham, "Accuracy and Stability of Numerical
# Algorithms", 2nd ed., section 3.1).
#
# Rotation.  cos and sin are trusted to 4 ulp, an absolute error of at most
# 8u each, so they need not form an exactly orthogonal matrix.  A rotated
# coordinate re*cos - im*sin then carries at most
# (8u + gamma_2 (1 + 8u)) (|re| + |im|) <= 11u (|re| + |im|) error, and over
# the whole vector ||x^ - x|| <= 22u ||x|| =: rho ||x||.  Whichever side is
# rotated, the error is at most rho M.
#
# Direct scorer.  diff = fl(x^ - y) adds relative u per entry, so the
# computed difference is v + e with ||v||^2 = T and ||e|| <= (rho + 2u) M.  A
# sum of non-negative squares in any order is off by at most gamma_{d+2}
# times its value (d/2 squares of pairs, a pairwise sum of depth below d),
# so the computed S satisfies
#     |S - T| <= gamma_{d+2} (M + ||e||)^2 + ||e|| (2M + ||e||)
#             <= (gamma_{d+2} + 2 rho + 5u) M^2  (to first order in u).
#
# GEMM form.  D = ||q^||^2 + ||c||^2 - 2 q^.c: each norm and the dot product
# are length-d inner products, off by gamma_d |x|.|y| in any summation order
# with or without FMA, and the two final additions add 2u, so
# |D - ||q^ - c||^2| <= gamma_{d+2} M^2 (1 + rho)^2, and moving q^ to q costs
# rho ||q|| (2M + rho ||q||), giving |D - T| <= (gamma_{d+2} + 2 rho) M^2.
#
# Rank.  The scorer returns -fl(sqrt(S)) with a correctly rounded sqrt; two S
# apart by more than 4u of the larger can no longer round to equal scores, a
# slack of 4u M^2 per side.  Together
#     |D - S| + slack <= (2 gamma_{d+2} + 4 rho + 9u) M^2 ~ (2d + 101) u M^2,
# so K = 64 (d + 16) u is a safety factor of at least 10 over it for every d.
# A candidate whose D + E lies below the gold's D - E therefore scores
# strictly higher in the direct scorer, and one whose D - E lies above the
# gold's D + E strictly lower.
#
# One bound per query.  E grows with the candidate norm, so E* = E(||q||,
# max_c ||c||) is at least the bound of every candidate, the gold's
# included.  A candidate with D < D_gold - 2E* then has D + E_c <= D + E* <
# D_gold - E* <= D_gold - E_gold, and one with D > D_gold + 2E* likewise
# lies above, so the per-query thresholds D_gold -+ 2E* settle only
# candidates that the per-candidate bounds settle the same way.  Forming a
# threshold adds one rounding, u D_gold, where D_gold is at most about M*^2
# with M* = ||q|| + max_c ||c||: far inside E* = K M*^2.
#
# Evaluating M from the computed norms, and the roundings of D +- E in the
# comparison, are relative errors of order d u inside that factor.  Underflow
# adds an absolute error of at most 2^-1075 per operation, a few d of them,
# covered by the term d * tiny.  Overflow yields inf or nan, and comparisons
# with those are false, which leaves the pair unclassified.
def l2_error_bound(query_norm, candidate_norm, d: int):
    """Bound on |GEMM squared distance - direct squared distance| (plus the
    rounding of the final sqrt) for embeddings of dimension d; see the
    derivation above.  Broadcasts over the norm arrays."""
    k = 64.0 * (d + 16) * np.finfo(np.float64).eps / 2.0
    total = np.add(query_norm, candidate_norm)
    return k * (total * total + d * np.finfo(np.float64).tiny)


def score_candidates(candidates: np.ndarray, theta: np.ndarray, fixed: np.ndarray,
                     corrupt_side: str, norm: str = "l2") -> np.ndarray:
    """Scores of every candidate entity against one partial triple.

    corrupt_side "tail": candidates replace the tail, fixed is the head.
    corrupt_side "head": candidates replace the head, fixed is the tail.
    Returns float64 (n_candidates,).
    """
    if corrupt_side == "tail":
        return score(fixed, theta, candidates, norm)
    if corrupt_side == "head":
        return score(candidates, theta, fixed, norm)
    raise ValueError(f"corrupt_side must be head or tail, got {corrupt_side!r}")


# rows per block of score_batch: a block's arrays of a medium batch (128
# columns) stay in a core's cache between the element operations
_SCORE_ROWS = 1024


def _row_blocks(*arrays):
    """The arrays (None passes through) cut into blocks of _SCORE_ROWS rows,
    one tuple of views per block; the arrays themselves when one block
    holds them, so a desk batch slices nothing."""
    n = len(arrays[0])
    if n <= _SCORE_ROWS:
        return (arrays,)
    return [tuple(None if a is None else a[lo:lo + _SCORE_ROWS] for a in arrays)
            for lo in range(0, n, _SCORE_ROWS)]


def score_batch(heads: Tensor, phases: Tensor, tails: Tensor, norm: str = "l2") -> Tensor:
    """Differentiable batch scoring; (B, d) x (B, d/2) x (B, d) -> (B, 1).

    One tape node with one finite check, on the scores: inf or nan anywhere
    in the arithmetic reaches them through the sums of squares.  The forward
    is the float32 arithmetic of the chain of slice, cos, sin, mul, square,
    sum and sqrt ops that ``composite_score_batch`` in tests/oracles.py
    builds, so scores match it bit for bit; the backward is that chain's
    rule in closed form, in its operation order.  The node keeps the difference
    halves dr and di, cos and sin of the phases, the per-row distances (l2)
    or per-coordinate magnitudes (l1), and the heads only for the phases'
    gradient; never the tails or the phases themselves.

    Both passes run _SCORE_ROWS rows at a time (_row_blocks) and write each
    block's rows of preallocated arrays, each gradient's two halves in
    place.  Every element operation and every row sum is that of the whole
    batch.
    """
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}")
    heads, phases, tails = (ad.ensure_tensor(x) for x in (heads, phases, tails))
    hr, hi = _split(heads.data)
    tr, ti = _split(tails.data)
    if heads.ndim != 2 or tails.shape != heads.shape or phases.shape != hr.shape:
        raise ValueError(f"score_batch expects (B, d), (B, d/2), (B, d) operands, got "
                         f"{heads.shape}, {phases.shape}, {tails.shape}")
    c, s = np.empty_like(phases.data), np.empty_like(phases.data)
    dr = np.empty(hr.shape, np.result_type(hr, c))
    di = np.empty_like(dr)
    dist = np.empty((len(dr), 1), dr.dtype)
    kink = dist if norm == "l2" else np.empty_like(dr)
    for p, cb, sb, hrb, hib, trb, tib, drb, dib, distb, kinkb in _row_blocks(
            phases.data, c, s, hr, hi, tr, ti, dr, di, dist, kink):
        np.cos(p, out=cb)
        np.sin(p, out=sb)
        # dr = (hr c - hi s) - tr and di = (hr s + hi c) - ti, each rounding as there
        np.multiply(hrb, cb, out=drb)
        drb -= hib * sb
        drb -= trb
        np.multiply(hrb, sb, out=dib)
        dib += hib * cb
        dib -= tib
        mags_sq = drb * drb
        mags_sq += dib * dib
        if norm == "l2":
            # float64 accumulation cast back, as ad.tensor_sum does
            np.sqrt(np.sum(mags_sq, axis=1, keepdims=True, dtype=np.float64).astype(dr.dtype),
                    out=distb)
        else:
            np.sqrt(mags_sq, out=kinkb)
            distb[...] = np.sum(kinkb, axis=1, keepdims=True, dtype=np.float64)

    shapes = [x.shape if x.requires_grad else None for x in (heads, phases, tails)]
    head_halves = (hr, hi) if phases.requires_grad else (None, None)

    def grad_fn(g):
        dtype = np.result_type(g, kink, dr)
        g_heads, g_phases, g_tails = (None if shape is None else np.empty(shape, dtype)
                                      for shape in shapes)
        half = dr.shape[1]
        for gb, kb, drb, dib, cb, sb, hrb, hib, ghb, gpb, gtb in _row_blocks(
                g, kink, dr, di, c, s, *head_halves, g_heads, g_phases, g_tails):
            # through the negation and the sqrt at the kink, 0 where it is 0,
            # then the sum's broadcast along the row and the squares
            gb = np.where(kb > 0, -gb * 0.5 / np.where(kb > 0, kb, 1.0), 0.0) * 2.0
            g_dr, g_di = gb * drb, gb * dib
            if ghb is not None:
                np.add(g_di * sb, g_dr * cb, out=ghb[:, :half])
                np.subtract(g_di * cb, g_dr * sb, out=ghb[:, half:])
            if gpb is not None:
                # through sin (g_di hr - g_dr hi) and cos (g_di hi + g_dr hr)
                np.subtract((g_di * hrb - g_dr * hib) * cb, (g_di * hib + g_dr * hrb) * sb,
                            out=gpb)
            if gtb is not None:
                np.negative(g_dr, out=gtb[:, :half])
                np.negative(g_di, out=gtb[:, half:])
        return g_heads, g_phases, g_tails

    return ad.record(-dist, (heads, phases, tails), grad_fn, "score_batch")
