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

import itertools
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
    _lattice_exponents,
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

    ``eps`` lists the consecutive grid levels that keep exactly these
    sibling pairs, and so share this splitting.  ``rough_star`` is
    ``star_norm(kept)``, the largest kept jump.
    """

    rough: SampledFunction
    small: SampledFunction
    kept: DyadicMartingale
    eps: list[float]
    rough_star: float


def dyadic_decompose(
    f: SampledFunction, eps_grid=None
) -> Iterator[DyadicDecomposition]:
    """Split ``f`` at every level of ``eps_grid``, one splitting per kept set.

    At level ``eps`` jumps above ``eps / 2`` go to the rough part; the
    seminorm of the small part is twice the largest surviving jump, hence at
    most ``eps``.  The slope martingale is built once for the whole grid,
    which defaults to ``default_eps_grid``.  Consecutive levels with the same
    count of pair sizes ``|a| <= eps / 2`` (``_truncation_maxima``) keep the
    same pairs and so have bit-identical splittings: they share one, whose
    ``eps`` lists them, and the ``eps`` lists concatenate to the grid.  Cost:
    O(2^N log 2^N) once plus O(2^N) per distinct kept set, at most
    ``|eps_grid|`` of them.  Splittings are made as they are consumed.  The
    generator keeps the previous splitting's ``kept``, ``rough`` and
    ``small`` until it replaces each with the next one's, so a caller that
    drops each splitting before asking for the next holds up to two
    splittings' arrays.  This is deliberate: deleting them after the
    ``yield`` lowered the depth-18 ``decompose`` peak by about 2 MiB but
    cost about 0.1 s, as the freed memory went back to the system and was
    faulted in again on every level.  Where ``_tree_exact`` holds,
    ``rough_star`` comes from the same table; otherwise from ``star_norm``.
    """
    S = average_growth(f)
    if eps_grid is None:
        eps_grid = default_eps_grid(S)
    eps_grid = [float(eps) for eps in eps_grid]
    thresholds = [eps / 2.0 for eps in eps_grid]
    _, stars, counts = _truncation_maxima(S, thresholds)
    exact = _tree_exact(f)
    j = 0
    for _, run in itertools.groupby(counts):
        stop = j + len(list(run))
        kept = truncate_jumps(S, thresholds[j])
        rough = integrate(kept)
        small = SampledFunction(
            f.values - rough.values, left=f.left, log2_spacing=f.log2_spacing
        )
        rough_star = stars[j] if exact else star_norm(kept)
        yield DyadicDecomposition(
            rough=rough, small=small, kept=kept, eps=eps_grid[j:stop], rough_star=rough_star
        )
        j = stop


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
    level; otherwise each distinct count of the table truncates and
    differences the martingale once, O(2^N) per distinct kept set.
    """
    S = average_growth(f)
    if eps_grid is None:
        eps_grid = default_eps_grid(S)
    if depths is None:
        depths = [max(1, S.depth - 4), S.depth]
    eps_grid = [float(e) for e in eps_grid]
    thresholds = [eps / 2.0 for eps in eps_grid]
    dropped, _, counts = _truncation_maxima(S, thresholds)
    if not _tree_exact(f):
        # thresholds with one count keep the same pairs: truncate once per count
        distance = {
            count: star_norm(martingale_difference(S, truncate_jumps(S, t)))
            for count, t in dict(zip(counts, thresholds)).items()
        }
        dropped = [distance[count] for count in counts]
    profile = density_profile(S, eps_grid, depths)
    return DistanceReport(
        eps=eps_grid,
        measured_distance=[2.0 * d for d in dropped],
        profile=profile,
        estimate=estimate_threshold(profile, tau=tau),
    )


def _truncation_maxima(S: DyadicMartingale, thresholds) -> tuple[list, list, list]:
    """Largest dropped and largest kept jump of truncation at each threshold,
    and the count of pairs it drops.

    A sibling pair is dropped at threshold ``t`` when its left jump has
    ``|a| <= t`` (``truncate_jumps``).  Where ``_tree_exact`` holds, each
    parent slope is exactly the mean of its two children's, so the right
    jump is exactly ``-a``; the jumps of ``S - B`` are then the dropped
    pairs' ``±a`` and those of ``B`` the kept pairs' ``±a``.  After one sort
    of every pair's ``|a|``, the largest dropped jump at ``t`` is the last
    size ``<= t`` and the largest kept jump is the largest size, if it
    exceeds ``t``; a threshold dropping (keeping) no pair reads 0.0.  These
    are ``star_norm(S - B)`` and ``star_norm(B)`` for ``B = truncate_jumps(S,
    t)``, bit for bit where ``_tree_exact`` holds, and not otherwise.  The
    counts hold everywhere: they compare the floats ``truncate_jumps``
    compares, so two thresholds with the same count keep the same pairs.
    Work O(P log P) for the ``P = 2^N - 1`` pairs, plus O(log P) per
    threshold.
    """
    sizes = np.empty((1 << S.depth) - 1)
    for n in range(1, S.depth + 1):
        np.abs(S.jumps(n)[0::2], out=sizes[(1 << (n - 1)) - 1 : (1 << n) - 1])
    sizes.sort()
    dropped = np.concatenate(([0.0], sizes))  # entry k: the k-th smallest size
    count = np.searchsorted(sizes, thresholds, side="right")
    kept = np.where(count < sizes.size, dropped[-1], 0.0)
    return dropped[count].tolist(), kept.tolist(), count.tolist()


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

    ``_class_kernel`` handles the translates a residue class at a time, with
    the bits of truncating and integrating each one on its own and summing
    the rough parts in translate order.  It runs only where
    ``_lattice_exact`` certifies from the window jumps that every sum is
    exact in float64; elsewhere ``ValueError`` names the bits the input
    needs, before any level is worked.
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

    jumps = _window_jumps(f.values)
    bits = _lattice_exact(f.values, jumps, count)
    if bits is not None:
        why = f"need {bits} bits, float64 has 53" if bits > 53 else "leave float64's exponent range"
        raise ValueError(f"input outside the class kernel's exactness certificate: its sums {why}")
    eps_grid = [float(e) for e in eps_grid]
    offsets = stride * (2 * np.arange(count) + 1)
    acc, seminorms = _class_kernel(1 << N, jumps, offsets, eps_grid)
    acc /= count
    rough = [SampledFunction(a, left=f.left, log2_spacing=f.log2_spacing) for a in acc]
    small = [
        SampledFunction(f.values - r.values, left=f.left, log2_spacing=f.log2_spacing)
        for r in rough
    ]
    return ContinuousDecomposition(rough, small, eps_grid, count, seminorms)


def _window_widths(N: int) -> list[float]:
    """Cell widths of the window ``[-1, 3)`` at generations ``0 .. N + 2``."""
    return [float(Fraction(4, 2**n)) for n in range(N + 3)]


def _window_jumps(values: np.ndarray) -> list[np.ndarray]:
    """Left jumps of the window parent cells, one array per generation.

    At window generation ``n = 1 .. N + 2`` a parent spans ``2c = 2^(N + 3 -
    n)`` grid cells.  Entry ``(i, r)`` of the ``(-1, 2c)`` array is the one
    starting at ``t = (i - 1) 2c + r`` in the coordinates of ``f`` (zero
    outside it): ``t`` in ``[-2c, max(M, 2c))``, whole periods that hold
    every parent meeting a compact ``f`` in any translate.  A jump is child
    slope minus parent slope, as in the translate-by-translate pipeline.
    """
    M = values.size - 1
    depth = M.bit_length() + 1
    widths = _window_widths(depth - 2)
    # f extended by zero over [-4M, 8M]; point x sits at index x + 4M
    F = np.zeros(12 * M + 1)
    F[4 * M : 5 * M + 1] = values
    jumps = []
    for n in range(1, depth + 1):
        c = 1 << (depth - n)
        P = 2 * c
        end = max(M, P)
        F0 = F[4 * M - P : 4 * M + end]
        F1 = F[4 * M - P + c : 4 * M + end + c]
        F2 = F[4 * M - P + 2 * c : 4 * M + end + 2 * c]
        jumps.append(((F1 - F0) / widths[n] - (F2 - F0) / widths[n - 1]).reshape(-1, P))
    return jumps


def _lattice_exact(values: np.ndarray, jumps: list[np.ndarray], count: int) -> int | None:
    """``None`` where the translate pipeline is exact in float64, else the
    bits its widest intermediate needs.

    Let the ``M + 1 = 2^N + 1`` samples be multiples of ``2^-q``, ``V =
    max|f| = A 2^-q`` with ``A < 2^a``, and ``w_n = 2^(2 - n)`` the window
    cell width at generation ``n``.  ``J_n`` is the largest ``|a_n|`` in
    ``jumps[n - 1]``, which holds every parent of every translate; ``S =
    sum_n J_n`` and ``H = sum_n J_n w_n``.  Real-number bounds, per
    translate unless the class kernel is named:

    * sample differences are multiples of ``2^-q`` below ``2A`` of them;
      slopes ``W_n`` are those over ``w_n``, multiples of ``2^(n-2-q)``, and
      ``W_0 = 0`` as ``f`` vanishes at both ends of the window;
    * jumps ``a_n = W_n - W_(n-1)`` are multiples of ``2^(n-3-q)`` with
      ``|a_n| <= 3V / w_n``, below ``6A`` of them: the families ``(3, 2)``
      (``n = 1``, finest quantum) and ``(3, 1 - N)`` (``n = N + 2``,
      largest).  Where they hold, every jump is exact, ``J_n`` is the exact
      maximum, and a sibling pair's right jump is exactly ``-a_n``;
    * truncated values ``B_n``, residuals ``W_n - B_n`` and their jumps sum
      at most one jump per generation: at most ``S``.  An entry ``x`` of the
      class kernel's difference array gathers, per generation, ``m`` times
      the jumps at ``t = x`` and ``x - 2c`` (a class of ``m`` translates)
      and ``-2 m'`` times the one at ``x - c`` (another), ``m + m' <=
      count``; its running sums are summed leaf slopes, at most ``count S``.
      All are multiples of ``Q_s = 2^-(q+2)`` below ``2 count S``;
    * primitive values are multiples of ``Q_v = 2^-(q+N+2)``.  A truncated
      primitive is one tent per generation, of height ``|a_n| w_n``, so at
      most ``H``; its running sums over the translates (in translate order,
      or the class kernel's second cumulative sum) at most ``count H``.
      ``rough`` (their mean) and ``small = f - rough`` are multiples of ``Q_v
      / count`` (or of ``2^-1074``, if coarser) below ``V + H``: ``small``
      is exact, and ``rough + small == f``, where ``count (V + H) < 2^53
      Q_v``, a bound that covers the running sums too.

    A family below ``X`` on the quantum ``2^-(q + shift)`` is the pair ``(b
    - a, shift)`` for the bit length ``b`` of ``X`` in quanta (``X`` summed
    exactly).  Where ``martingale._lattice_quantum`` accepts the four at 53
    bits, the class kernel and the translate-by-translate pipeline compute
    every intermediate exactly, so with the same bits.  As ``J_n <= 3V /
    w_n``, ``2 count S < 3A count 2^(N+4) Q_s`` and ``count (V + H) <= (3N +
    7) A count 2^(N+2) Q_v``, so the former bounds through ``A`` alone, the
    families ``(k + N + 7, 2)`` and ``(k + bitlen(N + 2) + N + 4, N + 2)``
    for ``count = 2^k``, never accept more.
    """
    lattice = _lattice_exponents(values)
    maxima = [float(np.abs(a).max()) for a in jumps]
    if lattice is None or not np.isfinite(maxima).all():
        return 0  # non-finite samples, or jumps that overflow
    q, a = lattice
    N = (values.size - 1).bit_length() - 1
    J = [Fraction(m) for m in maxima]
    V = Fraction(float(np.abs(values).max()))
    H = sum(j * Fraction(4, 2**n) for n, j in enumerate(J, 1))
    families = [(3, 2), (3, 1 - N)]
    for bound, shift in ((2 * count * sum(J), 2), (count * (V + H), N + 2)):
        quanta = bound * Fraction(2) ** (q + shift)
        bits = quanta.numerator.bit_length() - quanta.denominator.bit_length() + 1
        families.append((bits - a, shift))
    if _lattice_quantum(values, 53, *families) is not None:
        return None
    return a + max(growth for growth, _ in families)


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


def _class_kernel(M: int, jumps: list[np.ndarray], offsets: np.ndarray, eps_grid: list[float]):
    """Summed rough parts and window seminorms, one residue class at a time.

    ``jumps`` are the ``_window_jumps`` of an ``M``-cell function.  A window
    parent of ``2c`` grid cells at window point ``s`` starts at ``t = s -
    offset`` in the coordinates of ``f``, so its jumps depend only on ``t``,
    fixed modulo ``2c`` by the translate's class ``offset mod 2c``.  Keep
    decisions are taken on the left jump ``a``, as translate by translate,
    and a kept pair integrates to a tent: slope ``a`` on ``[t, t + c)``,
    ``-a`` on ``[t + c, t + 2c)``.  So the rough parts' sum is one
    difference array, ``mult * a`` at ``t`` and ``t + 2c`` and ``-2 mult *
    a`` at ``t + c``, cumulated twice; a translate's seminorm is twice the
    largest dropped jump of its class.  These are the translate pipeline's
    bits where ``_lattice_exact`` holds, and only there.
    Work O(|eps| (N 2^N + N count)).
    """
    widths = _window_widths(M.bit_length() - 1)
    levels = []
    for left in jumps:
        P = left.shape[1]
        # column r holds the parents t = r mod P, met by offsets = -r mod P
        mult = np.bincount(offsets % P, minlength=P)[(-np.arange(P)) % P]
        classes = (-offsets) % P
        levels.append((P // 2, P, left.size - P, np.abs(left), (left * mult).ravel(), classes))

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
        primitive = np.cumsum(np.cumsum(D) * widths[-1])
        acc[j] = primitive[L - 1 :]
    return acc, seminorms
