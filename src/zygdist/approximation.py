"""Approximants built by jump truncation and grid-translation averaging.

The rough/small splitting of a sampled function works on its slope
martingale: jumps whose magnitude exceeds a threshold are kept (they form
the rough part, of bounded mean oscillation), the rest are dropped, so the
remainder has dyadic Zygmund seminorm at most twice the threshold.

Dyadic truncation is grid-biased; averaging the small parts produced on a
family of translated grids removes the bias.  ``translation_average``
averages a family of unit-interval functions over midpoint-sampled shifts,
and ``continuous_decompose`` runs the full pipeline for a whole level grid:
translate, truncate on an enlarged window, integrate back and average.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from zygdist.dyadic import RealInterval
from zygdist.functionals import (
    DepthProfile,
    ThresholdEstimate,
    default_eps_grid,
    density_profile,
    estimate_threshold,
)
from zygdist.martingale import (
    DyadicMartingale,
    SampledFunction,
    average_growth,
    integrate,
    star_norm,
)

__all__ = [
    "ContinuousDecomposition",
    "DistanceReport",
    "DyadicDecomposition",
    "continuous_decompose",
    "distance_report",
    "dyadic_decompose",
    "martingale_difference",
    "translation_average",
    "truncate_jumps",
]


def truncate_jumps(S: DyadicMartingale, threshold: float) -> DyadicMartingale:
    """Keep exactly the jumps with magnitude above ``threshold``.

    The decision for a sibling pair is taken on the left child's jump and
    applied to both, so the result is again a martingale (sibling jumps of a
    valid martingale cancel).  Kept jumps are copied bit for bit; dropped
    ones are zeroed, which bounds every jump of ``S - B`` by ``threshold``.
    """
    if S.dim != 1:
        raise ValueError("jump truncation is one-dimensional; see measure truncation")
    levels = [S.levels[0].copy()]
    for n in range(1, S.depth + 1):
        levels.append(_truncated_level(levels[-1], S.jumps(n), threshold))
    return DyadicMartingale(levels, root=S.root, dim=S.dim)


def _truncated_level(parent: np.ndarray, dj: np.ndarray, threshold: float) -> np.ndarray:
    """Next level of a truncated martingale: ``parent`` plus the kept jumps.

    A sibling pair's jumps ``dj`` are kept when the left child's exceeds
    ``threshold`` and zeroed otherwise.  Works along the last axis, so each
    row of 2-D arrays is truncated on its own.
    """
    keep = np.abs(dj[..., 0::2]) > threshold
    level = np.empty_like(dj)
    np.add(parent, keep * dj[..., 0::2], out=level[..., 0::2])
    np.add(parent, keep * dj[..., 1::2], out=level[..., 1::2])
    return level


def martingale_difference(S: DyadicMartingale, B: DyadicMartingale) -> DyadicMartingale:
    """Levelwise difference ``S - B`` (a martingale when both are)."""
    if S.depth != B.depth or S.dim != B.dim:
        raise ValueError("martingales must share depth and dimension")
    return DyadicMartingale(
        [a - b for a, b in zip(S.levels, B.levels)], root=S.root, dim=S.dim
    )


@dataclass
class DyadicDecomposition:
    """Splitting ``f = rough + small`` on the function's own dyadic grid."""

    rough: SampledFunction
    small: SampledFunction
    kept: DyadicMartingale
    eps: float


def dyadic_decompose(f: SampledFunction, eps: float) -> DyadicDecomposition:
    """Split ``f`` so the small part has dyadic Zygmund seminorm <= ``eps``.

    Jumps above ``eps / 2`` go to the rough part; the seminorm of the small
    part is twice the largest surviving jump, hence at most ``eps``.
    """
    S = average_growth(f)
    kept = truncate_jumps(S, eps / 2.0)
    rough = integrate(kept)
    small = SampledFunction(
        f.values - rough.values, left=f.left, log2_spacing=f.log2_spacing
    )
    return DyadicDecomposition(rough=rough, small=small, kept=kept, eps=eps)


@dataclass
class DistanceReport:
    """Measured truncation distances and level-set profile for one function."""

    eps: list[float]
    measured_distance: list[float]
    profile: DepthProfile
    estimate: ThresholdEstimate


def distance_report(
    f: SampledFunction,
    eps_grid=None,
    depths=None,
    tau: float = 0.1,
) -> DistanceReport:
    """Distance-to-smooth report over a level grid.

    For each level the measured distance is the dyadic seminorm of the small
    part left by truncation at that level; alongside, the tree level-set
    density is profiled over ``depths`` and the stability threshold
    estimated.
    """
    if eps_grid is None:
        eps_grid = default_eps_grid(f)
    S = average_growth(f)
    if depths is None:
        depths = [max(1, S.depth - 4), S.depth]
    eps_grid = [float(e) for e in eps_grid]
    measured = []
    for eps in eps_grid:
        B = truncate_jumps(S, eps / 2.0)
        measured.append(2.0 * star_norm(martingale_difference(S, B)))
    profile = density_profile(f, eps_grid, depths)
    return DistanceReport(
        eps=eps_grid,
        measured_distance=measured,
        profile=profile,
        estimate=estimate_threshold(profile, tau=tau),
    )


def _family_member(family, i: int, alpha: Fraction) -> SampledFunction:
    if callable(family):
        return family(i, alpha)
    return family[i]


def translation_average(family, R: int, depth: int | None = None) -> SampledFunction:
    """Average of translated unit-interval functions over shifts in [-R, R).

    The shift range is split into midpoint bins two grid cells wide; member
    ``i`` is evaluated at ``x + alpha_i`` (zero off its support) and the
    results averaged, giving a function sampled on ``[-R, 1 + R]`` at the
    members' spacing.
    """
    if R < 1:
        raise ValueError("R must be a positive integer")
    probe = _family_member(family, 0, Fraction(0))
    N = probe.depth if depth is None else depth
    if probe.span != RealInterval(0, 1):
        raise ValueError("family members must live on the unit interval")
    M = R << N
    points = ((1 + 2 * R) << N) + 1
    acc = np.zeros(points)
    for i in range(M):
        alpha = Fraction(-R) + Fraction(2 * i + 1, 1 << N)
        member = _family_member(family, i, alpha)
        if member.values.size != (1 << N) + 1 or member.span != RealInterval(0, 1):
            raise ValueError("family members must share the unit-interval grid")
        base = (2 * R << N) - 2 * i - 1
        acc[base : base + (1 << N) + 1] += member.values
    acc /= M
    return SampledFunction(acc, left=-R, log2_spacing=-N)


# Translates are truncated in chunks of about this many window samples
# (128 KiB of float64).  A chunk works on about ten arrays of this size:
# larger chunks cut per-call overhead further but raise peak memory.
_CHUNK_SAMPLES = 1 << 14


@dataclass
class ContinuousDecomposition:
    """Grid-translation-averaged splittings ``f = rough[j] + small[j]``.

    Entry ``j`` of ``rough``, ``small`` and ``window_small_seminorms`` (shape
    ``(len(eps), count)``) belongs to the level ``eps[j]``.
    """

    rough: list[SampledFunction]
    small: list[SampledFunction]
    eps: list[float]
    count: int
    window_small_seminorms: np.ndarray


def continuous_decompose(
    f: SampledFunction, eps_grid, count: int | None = None
) -> ContinuousDecomposition:
    """Split ``f`` at every level of ``eps_grid`` by averaging dyadic truncations.

    ``count`` translates of ``f`` are placed on the enlarged window
    ``[-1, 3)``; at each level ``eps`` their slope martingales are truncated
    at ``eps / 2`` and integrated back, and the rough parts are read off at
    the translated points and averaged.  The small part is ``f - rough``
    exactly; every windowed small part has dyadic Zygmund seminorm at most
    ``eps``, recorded per level and translate.

    Translates go through in chunks of rows of a 2-D array; a chunk's window
    martingale is built once and truncated at every level.  Rough parts are
    summed one translate at a time in translate order, so the result does
    not depend on the chunk size.
    """
    if f.span != RealInterval(0, 1):
        raise ValueError("decomposition expects a function on the unit interval")
    if not f.compact:
        raise ValueError("decomposition expects a compactly supported function")
    N = f.depth
    if count is None:
        count = 1 << N
    if count < 1 or ((1 << N) % count):
        raise ValueError("count must divide the number of grid cells")
    stride = (1 << N) // count
    if stride & (stride - 1):
        raise ValueError("count must be a power of two")

    eps_grid = [float(e) for e in eps_grid]
    points = (1 << N) + 1
    depth = N + 2  # the window [-1, 3) has 4 << N cells
    window_points = (4 << N) + 1
    widths = [float(Fraction(4, 2**n)) for n in range(depth + 1)]
    rows = max(1, _CHUNK_SAMPLES // window_points)
    acc = np.zeros((len(eps_grid), points))
    seminorms = np.empty((len(eps_grid), count))
    for first in range(0, count, rows):
        chunk = range(first, min(first + rows, count))
        offsets = [stride * (2 * i + 1) for i in chunk]
        g = np.zeros((len(chunk), window_points))
        for row, offset in enumerate(offsets):
            g[row, offset : offset + points] = f.values
        # window slope martingale of every row, and its jumps, level by level
        W = []
        for n in range(depth + 1):
            pts = g[:, :: 1 << (depth - n)]
            W.append((pts[:, 1:] - pts[:, :-1]) / widths[n])
        dW = [W[n] - np.repeat(W[n - 1], 2, axis=1) for n in range(1, depth + 1)]
        for j, eps in enumerate(eps_grid):
            # truncated martingale B and residual W - B, keeping one level
            B = W[0].copy()
            resid = np.zeros_like(B)
            best = np.zeros(len(chunk))
            for W_n, dW_n in zip(W[1:], dW):
                B = _truncated_level(B, dW_n, eps / 2.0)
                resid_n = W_n - B
                jumps = np.abs(resid_n - np.repeat(resid, 2, axis=1))
                best = np.maximum(best, jumps.max(axis=1))
                resid = resid_n
            seminorms[j, chunk.start : chunk.stop] = 2.0 * best
            primitive = np.cumsum(B * widths[depth], axis=1)
            for row, offset in enumerate(offsets):
                acc[j] += primitive[row, offset - 1 : offset + points - 1]
    acc /= count
    rough = [SampledFunction(a, left=f.left, log2_spacing=f.log2_spacing) for a in acc]
    small = [
        SampledFunction(f.values - r.values, left=f.left, log2_spacing=f.log2_spacing)
        for r in rough
    ]
    return ContinuousDecomposition(
        rough=rough,
        small=small,
        eps=eps_grid,
        count=count,
        window_small_seminorms=seminorms,
    )
