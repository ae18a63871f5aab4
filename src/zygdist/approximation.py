"""Approximants built by jump truncation and grid-translation averaging.

The rough/small splitting of a sampled function works on its slope
martingale: jumps whose magnitude exceeds a threshold are kept (they form
the rough part, of bounded mean oscillation), the rest are dropped, so the
remainder has dyadic Zygmund seminorm at most twice the threshold.

Dyadic truncation is grid-biased; averaging the small parts produced on a
family of translated grids removes the bias.  ``continuous_decompose`` runs
that pipeline for a whole level grid: translate, truncate on an enlarged
window, integrate back and average.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    _lattice_quantum,
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
    """Splitting ``f = rough + small`` on the function's own dyadic grid.

    ``rough_star`` is ``star_norm(kept)``, the largest kept jump.
    """

    rough: SampledFunction
    small: SampledFunction
    kept: DyadicMartingale
    eps: float
    rough_star: float


def dyadic_decompose(
    f: SampledFunction, eps_grid=None
) -> Iterator[DyadicDecomposition]:
    """Split ``f`` at every level of ``eps_grid``, one splitting per level.

    At level ``eps`` jumps above ``eps / 2`` go to the rough part; the
    seminorm of the small part is twice the largest surviving jump, hence at
    most ``eps``.  The slope martingale is built once for the whole grid,
    which defaults to ``default_eps_grid``.  Splittings are made as they are
    consumed, so a caller holding one level at a time holds one level's
    arrays.  Where ``_tree_exact`` holds, every level's ``rough_star`` comes
    from one ``_truncation_maxima`` table; otherwise from ``star_norm``.
    """
    S = average_growth(f)
    if eps_grid is None:
        eps_grid = default_eps_grid(S)
    eps_grid = [float(eps) for eps in eps_grid]
    thresholds = [eps / 2.0 for eps in eps_grid]
    stars = _truncation_maxima(S, thresholds)[1] if _tree_exact(f) else None
    for j, eps in enumerate(eps_grid):
        kept = truncate_jumps(S, thresholds[j])
        rough = integrate(kept)
        small = SampledFunction(
            f.values - rough.values, left=f.left, log2_spacing=f.log2_spacing
        )
        rough_star = star_norm(kept) if stars is None else stars[j]
        yield DyadicDecomposition(
            rough=rough, small=small, kept=kept, eps=eps, rough_star=rough_star
        )


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
    estimated.  The slope martingale is built once and shared by all three.
    Where ``_tree_exact`` holds, the measured distances are read off one
    ``_truncation_maxima`` table, O(2^N log 2^N) once plus O(log 2^N) per
    level; otherwise each level truncates and differences the martingale,
    O(2^N) per level.
    """
    S = average_growth(f)
    if eps_grid is None:
        eps_grid = default_eps_grid(S)
    if depths is None:
        depths = [max(1, S.depth - 4), S.depth]
    eps_grid = [float(e) for e in eps_grid]
    thresholds = [eps / 2.0 for eps in eps_grid]
    if _tree_exact(f):
        dropped = _truncation_maxima(S, thresholds)[0]
    else:
        dropped = [
            star_norm(martingale_difference(S, truncate_jumps(S, t)))
            for t in thresholds
        ]
    profile = density_profile(S, eps_grid, depths)
    return DistanceReport(
        eps=eps_grid,
        measured_distance=[2.0 * d for d in dropped],
        profile=profile,
        estimate=estimate_threshold(profile, tau=tau),
    )


def _truncation_maxima(S: DyadicMartingale, thresholds) -> tuple[list, list]:
    """Largest dropped and largest kept jump of truncation at each threshold.

    A sibling pair is dropped at threshold ``t`` when its left jump has
    ``|a| <= t`` (``truncate_jumps``).  Where ``_tree_exact`` holds, each
    parent slope is exactly the mean of its two children's, so the right
    jump is exactly ``-a``; the jumps of ``S - B`` are then the dropped
    pairs' ``±a`` and those of ``B`` the kept pairs' ``±a``.  After one sort
    of every pair's ``|a|``, the largest dropped jump at ``t`` is the last
    size ``<= t`` and the largest kept jump is the largest size, if it
    exceeds ``t``; a threshold dropping (keeping) no pair reads 0.0.  These
    are ``star_norm(S - B)`` and ``star_norm(B)`` for ``B = truncate_jumps(S,
    t)``, bit for bit where ``_tree_exact`` holds, and not otherwise.  Work
    O(P log P) for the ``P = 2^N - 1`` pairs, plus O(log P) per threshold.
    """
    sizes = np.empty((1 << S.depth) - 1)
    for n in range(1, S.depth + 1):
        np.abs(S.jumps(n)[0::2], out=sizes[(1 << (n - 1)) - 1 : (1 << n) - 1])
    sizes.sort()
    dropped = np.concatenate(([0.0], sizes))  # entry k: the k-th smallest size
    count = np.searchsorted(sizes, thresholds, side="right")
    kept = np.where(count < sizes.size, dropped[-1], 0.0)
    return dropped[count].tolist(), kept.tolist()


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

    When ``_lattice_exact`` certifies that every sum is exact in float64, the
    translates are handled a residue class at a time (``_class_kernel``);
    otherwise one by one (``_chunked_kernel``).  Both give the bits of
    truncating and integrating each translate on its own and summing the
    rough parts in translate order.
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
    offsets = stride * (2 * np.arange(count) + 1)
    kernel = _class_kernel if _lattice_exact(f.values, count) else _chunked_kernel
    acc, seminorms = kernel(f.values, offsets, eps_grid)
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


def _window_widths(N: int) -> list[float]:
    """Cell widths of the window ``[-1, 3)`` at generations ``0 .. N + 2``."""
    return [float(Fraction(4, 2**n)) for n in range(N + 3)]


def _lattice_exact(values: np.ndarray, count: int) -> bool:
    """Whether both kernels compute every intermediate exactly in float64.

    Let ``values`` (``M + 1 = 2^N + 1`` samples) be integer multiples of
    ``2^-q`` with ``max|f| = A 2^-q`` and ``A < 2^a``.  The window cell width
    at generation ``n`` is ``w_n = 2^(2 - n)`` and ``h = w_(N+2) = 2^-N``.
    Real-number bounds, ``n <= N + 2``:

    * slopes ``|W_n| <= 2A 2^-q / w_n``, jumps ``|a_n| <= 3A 2^-q / w_n``;
      a sibling pair's right jump is ``-a_n``, and ``W_0 = 0`` as ``f``
      vanishes at both ends of the window;
    * truncated values ``|B_n| <= sum_m |a_m| < 3A 2^-q 2^(N+1)``, residuals
      ``|W_n - B_n| <= A 2^-q 2^(N+3)`` and their jumps ``<= 3A 2^-q 2^(N+2)``;
    * class kernel: a difference-array entry gathers at most
      ``2 count |a_n|`` per generation, ``< count 3A 2^-q 2^(N+2)`` in all,
      and its running sums are slopes of summed tents, ``< count 3A 2^-q
      2^(N+1)``.

    All of these are multiples of ``Q_s = 2^-(q+2)`` and below ``count 3A
    2^(N+5)`` of them: with ``count = 2^k`` and ``3 < 2^2``, the family
    ``(k + N + 7, 2)``.  The primitive values (leaf slope times ``h``,
    running sums of the primitive, of the translate sum and of the class
    kernel's second cumulative sum) are multiples of ``Q_v = 2^-(q+N+2)``.
    Each running sum equals, exactly, a sum of at most ``count`` truncated
    primitives; each primitive is a sum of one tent per generation, of
    height ``|a_n| w_n <= 3A 2^-q``; so they stay below ``count 3 (N+2) A
    2^(N+2)`` quanta: the family ``(k + bitlen(N+2) + N + 4, N + 2)``.
    Where ``martingale._lattice_quantum`` accepts both families at 53 bits,
    both kernels work exactly, whatever their summation order.
    """
    N = (values.size - 1).bit_length() - 1
    k = count.bit_length() - 1
    slopes = (k + N + 7, 2)
    primitives = (k + (N + 2).bit_length() + N + 4, N + 2)
    return _lattice_quantum(values, 53, slopes, primitives) is not None


def _tree_exact(f: SampledFunction) -> bool:
    """Whether truncating the slope martingale of ``f`` rounds nothing.

    Let the ``2^N + 1`` values of ``f`` be integer multiples of ``2^-q``
    with ``max|f| = A 2^-q`` and ``A < 2^a``, and let the span have length
    ``2^s``, so the generation-``n`` cell width is ``w_n = 2^(s - n)``.
    Take the quantum ``Q = 2^-(q + s)``.  Real-number bounds, ``n <= N``:

    * slopes ``S_n`` are sample differences (below ``2^(a+1)`` multiples of
      ``2^-q``) divided by ``w_n``: multiples of ``2^n Q``, ``|S_n| <
      2^(a+n+1) Q``;
    * jumps ``|a_n| <= |S_n| + |S_(n-1)| < 3 2^(a+n) Q``;
    * truncated values ``|B_n| <= |S_0| + sum_m |a_m| < 2^(a+n+3) Q``;
    * residuals ``|S_n - B_n| < 2^(a+n+4) Q`` and their jumps
      ``< 2^(a+n+5) Q``; the jumps of ``B`` are at most those of ``S``.

    Every quantity is a multiple of ``Q`` below ``2^(a+N+5)`` quanta: the
    family ``(N + 5, s)``.  Where ``martingale._lattice_quantum`` accepts it
    at 53 bits, ``truncate_jumps``, ``martingale_difference`` and their
    jumps are exact.  Then a parent slope is exactly the mean of its
    children's, so a pair's right jump is exactly minus its left one; a
    dropped pair's residual jumps are its own jumps, a kept pair's are 0;
    and ``_truncation_maxima`` equals the truncation loop bit for bit.
    """
    N = f.depth
    return _lattice_quantum(f.values, 53, (N + 5, N + f.log2_spacing)) is not None


def _class_kernel(values: np.ndarray, offsets: np.ndarray, eps_grid: list[float]):
    """Summed rough parts and window seminorms, one residue class at a time.

    A window parent cell of width ``2c`` grid cells starting at window point
    ``s`` starts at ``t = s - offset`` in the coordinates of ``f``, so its
    jumps depend only on ``t``, and ``t`` is fixed modulo ``2c`` by the
    translate's class ``offset mod 2c``.  Its left jump ``a`` is computed
    with the chunked kernel's expression, so keep decisions agree bit for
    bit.  A kept pair integrates to a tent: slope ``a`` on ``[t, t + c)``
    and ``-a`` on ``[t + c, t + 2c)``.  The rough parts' sum is therefore
    one difference array, ``mult * a`` at ``t`` and ``t + 2c`` and ``-2
    mult * a`` at ``t + c``, cumulated twice; a translate's seminorm is
    twice the largest dropped jump of its class at any generation.  Exact
    only where ``_lattice_exact`` holds (the right jump is then exactly
    ``-a``).
    Work O(|eps| (N 2^N + N count)).
    """
    M = values.size - 1
    N = M.bit_length() - 1
    depth = N + 2
    widths = _window_widths(N)
    # f extended by zero over [-4M, 8M]; point x sits at index x + 4M
    F = np.zeros(12 * M + 1)
    F[4 * M : 5 * M + 1] = values
    levels = []
    for n in range(1, depth + 1):
        c = 1 << (depth - n)
        P = 2 * c
        end = max(M, P)  # parents start at t in [-P, end), a whole number of periods
        F0 = F[4 * M - P : 4 * M + end]
        F1 = F[4 * M - P + c : 4 * M + end + c]
        F2 = F[4 * M - P + 2 * c : 4 * M + end + 2 * c]
        left = ((F1 - F0) / widths[n] - (F2 - F0) / widths[n - 1]).reshape(-1, P)
        # column r holds the parents t = r mod P, met by offsets = -r mod P
        mult = np.bincount(offsets % P, minlength=P)[(-np.arange(P)) % P]
        classes = (-offsets) % P
        levels.append((c, P, end, np.abs(left), (left * mult).ravel(), classes))

    L = 4 * M  # the difference array covers points x in [-4M, M)
    acc = np.empty((len(eps_grid), M + 1))
    seminorms = np.empty((len(eps_grid), offsets.size))
    for j, eps in enumerate(eps_grid):
        D = np.zeros(5 * M)
        best = np.zeros(offsets.size)
        for c, P, end, size, weighted, classes in levels:
            keep = size > eps / 2.0
            dropped = np.where(keep, 0.0, size).max(axis=0)
            best = np.maximum(best, dropped[classes])
            kept = weighted * keep.ravel()
            for shift, coef in ((0, kept), (c, -2.0 * kept), (2 * c, kept)):
                stop = min(end, M - shift)  # changes at x >= M are never read
                if stop > -P:
                    D[L - P + shift : L + stop + shift] += coef[: stop + P]
        seminorms[j] = 2.0 * best
        primitive = np.cumsum(np.cumsum(D) * widths[depth])
        acc[j] = primitive[L - 1 :]
    return acc, seminorms


def _chunked_kernel(values: np.ndarray, offsets: np.ndarray, eps_grid: list[float]):
    """Summed rough parts and window seminorms, translate by translate.

    Translates go through in chunks of rows of a 2-D array; a chunk's window
    martingale is built once and truncated at every level.  Rough parts are
    summed one translate at a time in translate order, so the result does
    not depend on the chunk size.  Work O(|eps| count 2^(N+3)).
    """
    points = values.size
    N = (points - 1).bit_length() - 1
    depth = N + 2  # the window [-1, 3) has 4 << N cells
    window_points = (4 << N) + 1
    widths = _window_widths(N)
    rows = max(1, _CHUNK_SAMPLES // window_points)
    acc = np.zeros((len(eps_grid), points))
    seminorms = np.empty((len(eps_grid), offsets.size))
    for first in range(0, offsets.size, rows):
        chunk = offsets[first : first + rows]
        g = np.zeros((len(chunk), window_points))
        for row, offset in enumerate(chunk):
            g[row, offset : offset + points] = values
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
            seminorms[j, first : first + len(chunk)] = 2.0 * best
            primitive = np.cumsum(B * widths[depth], axis=1)
            for row, offset in enumerate(chunk):
                acc[j] += primitive[row, offset - 1 : offset + points - 1]
    return acc, seminorms
