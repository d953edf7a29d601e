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
    """Rotate each complex coordinate of emb by the angles in theta."""
    re, im = _split(np.asarray(emb, dtype=np.float64))
    c, s = np.cos(theta, dtype=np.float64), np.sin(theta, dtype=np.float64)
    return np.concatenate([re * c - im * s, re * s + im * c], axis=-1)


def score(head, theta, tail, norm: str = "l2"):
    """-|| rotate(head, theta) - tail || over the last axis, in float64.

    head and tail broadcast against each other: one triple gives a float,
    rows of heads or tails give one score per row.
    """
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}")
    diff = rotate(head, theta) - np.asarray(tail, dtype=np.float64)
    re, im = _split(diff)
    mags_sq = re * re + im * im
    if norm == "l2":
        out = -np.sqrt(mags_sq.sum(axis=-1))
    else:
        out = -np.sqrt(mags_sq).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


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


def score_batch(heads: Tensor, phases: Tensor, tails: Tensor, norm: str = "l2") -> Tensor:
    """Differentiable batch scoring; (B, d) x (B, d/2) x (B, d) -> (B, 1)."""
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}")
    d = heads.shape[1]
    if d % 2 != 0:
        raise ValueError(f"embedding dim must be even, got {d}")
    half = d // 2
    hr = ad.slice_cols(heads, 0, half)
    hi = ad.slice_cols(heads, half, d)
    tr = ad.slice_cols(tails, 0, half)
    ti = ad.slice_cols(tails, half, d)
    c = ad.cos(phases)
    s = ad.sin(phases)
    dr = (hr * c - hi * s) - tr
    di = (hr * s + hi * c) - ti
    mags_sq = dr.square() + di.square()
    if norm == "l2":
        dist = mags_sq.sum(axis=1, keepdims=True).sqrt()
    else:
        dist = mags_sq.sqrt().sum(axis=1, keepdims=True)
    return -dist
