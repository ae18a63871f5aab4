"""Approximants built by jump truncation and grid-translation averaging.

The rough/small splitting of a sampled function works on its slope
martingale: the jumps of parents whose largest child jump exceeds a
threshold are kept (they form the rough part, of bounded mean oscillation),
the rest are dropped, so the remainder has dyadic Zygmund seminorm at most
twice the threshold.  Measures are truncated by the same function.

Dyadic truncation is grid-biased; averaging the small parts produced on a
family of translated grids removes the bias.  ``continuous_decompose`` runs
that pipeline for a whole level grid: translate, truncate on an enlarged
window, integrate back and average.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from zygdist.dyadic import RealInterval
from zygdist.functionals import (
    _DEFAULT_TAU,
    DepthProfile,
    ThresholdEstimate,
    _level_set_tables,
    _level_thresholds,
    estimate_threshold,
)
from zygdist.martingale import (
    DyadicMartingale,
    SampledFunction,
    _lattice_exponents,
    _lattice_quantum,
    _parent_deviation,
    _quanta_bits,
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
    """Keep exactly the jumps of the parents whose size, the largest child
    ``|jump|`` (``_parent_deviation``), exceeds ``threshold``, in any ``dim``.

    All ``2^dim`` children share the decision, so the result is again a
    martingale.  Kept jumps are copied bit for bit; dropped ones are zeroed,
    which bounds every jump of ``S - B`` by ``threshold`` where the
    arithmetic is exact.  Each level is its jump field, masked and plus the
    truncated parent level in place, one strided child corner at a time as
    in ``DyadicMartingale.jumps``: no expanded copy of the parent.
    """
    levels = [S.levels[0].copy()]
    for n in range(1, S.depth + 1):
        level = S.jumps(n)  # formed once: the sizes and the kept jumps read it
        keep = _parent_deviation(level, S.dim) > threshold
        for corner in itertools.product((0, 1), repeat=S.dim):
            cells = tuple(slice(c, None, 2) for c in corner)
            np.multiply(level[cells], keep, out=level[cells])
            np.add(level[cells], levels[-1], out=level[cells])
        levels.append(level)
    return DyadicMartingale(levels, dim=S.dim)


def martingale_difference(S: DyadicMartingale, B: DyadicMartingale) -> DyadicMartingale:
    """Levelwise difference ``S - B`` (a martingale when both are)."""
    if S.depth != B.depth or S.dim != B.dim:
        raise ValueError("martingales must share depth and dimension")
    return DyadicMartingale([a - b for a, b in zip(S.levels, B.levels)], dim=S.dim)


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

    At level ``eps`` jumps above its threshold ``t`` (``_level_thresholds``)
    go to the rough part; the seminorm of the small part is twice the
    largest surviving jump, hence at most ``eps``.  One
    ``_level_set_tables`` call at ``scale = 2`` with no depths gives the
    grid (default ``default_eps_grid``), thresholds and counts of dropped
    parents; its tables are freed before the first splitting.  Consecutive
    levels with one count keep the same pairs and so have bit-identical
    splittings: they share one, whose ``eps`` lists them, and the ``eps``
    lists concatenate to the grid.  Cost: O(2^N log 2^N) once plus O(2^N)
    per distinct kept set, at most ``|eps_grid|`` of them.
    Splittings are made as they are consumed.  The generator keeps the
    previous splitting's ``kept``, ``rough`` and ``small`` until it replaces
    each with the next one's, so a caller that drops each splitting before
    asking for the next holds up to two splittings' arrays.  This is
    deliberate: deleting them after the ``yield`` lowered the depth-18
    ``decompose`` peak by about 2 MiB but cost about 0.1 s, as the freed
    memory went back to the system and was faulted in again on every level.
    """
    S = average_growth(f)
    _, profile, _, thresholds, counts = _level_set_tables(S, eps_grid, [], 2.0)
    j = 0
    for _, run in itertools.groupby(counts):
        stop = j + len(list(run))
        kept = truncate_jumps(S, thresholds[j])
        rough = integrate(kept, f.left, f.log2_spacing)
        small = SampledFunction(
            f.values - rough.values, left=f.left, log2_spacing=f.log2_spacing
        )
        yield DyadicDecomposition(rough, small, kept, profile.eps[j:stop], star_norm(kept))
        j = stop


@dataclass
class DistanceReport:
    """Measured truncation distances and level-set profile for one function."""

    eps: list[float]
    measured_distance: list[float]
    profile: DepthProfile
    estimate: ThresholdEstimate


def distance_report(
    f: SampledFunction, eps_grid, depths, tau: float = _DEFAULT_TAU
) -> DistanceReport:
    """Distance-to-smooth report over a level grid.

    For each level the measured distance is the dyadic seminorm of the small
    part left by truncation at that level, twice the residual's star norm;
    alongside, the tree level-set density is profiled over ``depths`` and
    the stability threshold estimated.  All three come from one
    ``_level_set_tables`` call on the slope martingale at ``scale = 2``,
    whose fallback residual is ``star_norm(S - truncate_jumps(S, t))``.
    """
    S = average_growth(f)
    _, profile, residuals, _, _ = _level_set_tables(
        S, eps_grid, depths, 2.0,
        lambda t: star_norm(martingale_difference(S, truncate_jumps(S, t))),
    )
    return DistanceReport(
        eps=profile.eps,
        measured_distance=[2.0 * r for r in residuals],
        profile=profile,
        estimate=estimate_threshold(profile, tau=tau),
    )


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


def continuous_decompose(f: SampledFunction, eps_grid) -> ContinuousDecomposition:
    """Split ``f`` at every level of ``eps_grid`` by averaging dyadic truncations.

    All ``count = 2^N`` translates of ``f`` are placed on the enlarged
    window ``[-1, 3)``; at each level ``eps`` their slope martingales are
    truncated at its ``_level_thresholds`` threshold, integrated back, and
    the rough parts read off at the translated points and averaged.  The
    small part is ``f - rough`` exactly; every windowed small part has
    dyadic Zygmund seminorm at most ``eps``, per level and translate.

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
    count = 1 << f.depth
    jumps = _window_jumps(f.values)
    bits = _lattice_exact(f.values, jumps, count)
    if bits is not None:
        why = f"need {bits} bits, float64 has 53" if bits > 53 else "leave float64's exponent range"
        raise ValueError(f"input outside the class kernel's exactness certificate: its sums {why}")
    eps_grid, thresholds = _level_thresholds(eps_grid)
    offsets = 2 * np.arange(count) + 1
    acc, seminorms = _class_kernel(count, jumps, offsets, thresholds)
    acc /= count
    rough = [SampledFunction(a, left=f.left, log2_spacing=f.log2_spacing) for a in acc]
    small = [
        SampledFunction(f.values - r.values, left=f.left, log2_spacing=f.log2_spacing)
        for r in rough
    ]
    return ContinuousDecomposition(rough, small, eps_grid, count, seminorms)


def _window_widths(N: int) -> list[float]:
    """Cell widths of the window ``[-1, 3)`` at generations ``0 .. N + 2``."""
    return [math.ldexp(1.0, 2 - n) for n in range(N + 3)]


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
    families = [(3, 2), (3, 1 - N)] + [
        (_quanta_bits(bound, q + shift) - a, shift)
        for bound, shift in ((2 * count * sum(J), 2), (count * (V + H), N + 2))
    ]
    if _lattice_quantum(lattice, 53, *families) is not None:
        return None
    return a + max(growth for growth, _ in families)


def _class_kernel(M: int, jumps: list[np.ndarray], offsets: np.ndarray, thresholds: list[float]):
    """Summed rough parts and window seminorms, one residue class at a time.

    ``jumps`` are the ``_window_jumps`` of an ``M``-cell function.  A window
    parent of ``2c`` grid cells at window point ``s`` starts at ``t = s -
    offset`` in the coordinates of ``f``, so its jumps depend only on ``t``,
    fixed modulo ``2c`` by the translate's class ``offset mod 2c``.  Keep
    decisions compare the left jump's ``|a|``, the parent size where
    ``_lattice_exact`` makes the right jump ``-a``, with the levels'
    ``_level_thresholds``; a kept pair integrates to a tent: slope ``a`` on
    ``[t, t + c)``, ``-a`` on ``[t + c, t + 2c)``.  So the rough parts' sum is one
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
    acc = np.empty((len(thresholds), M + 1))
    seminorms = np.empty((len(thresholds), offsets.size))
    for j, threshold in enumerate(thresholds):
        D = np.zeros(5 * M)
        best = np.zeros(offsets.size)
        for c, P, end, size, weighted, classes in levels:
            keep = size > threshold
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
