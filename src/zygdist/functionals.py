"""Second-difference functionals and level-set densities at dyadic resolution.

Three families of quantities measure how far a sampled function is from the
smooth subspace:

* the grid supremum of second differences (the Zygmund seminorm over
  resolvable configurations);
* the box square energy: the weighted integral over ``I x (0, |I|]`` of the
  squared second difference;
* level-set functionals: the measure of cells whose dyadic second difference
  exceeds ``eps``, maximised over dyadic windows (tree density), and the
  per-point cone counts of the same level set.

Limits in depth are replaced by depth profiles: a profile is judged bounded
when its deepest value is within a factor ``1 + tau`` of its shallowest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from zygdist.martingale import (
    DyadicMartingale,
    SampledFunction,
    _block_reduce,
    _lattice_quantum,
    star_norm,
)

__all__ = [
    "DepthProfile",
    "ThresholdEstimate",
    "box_square_energy",
    "cone_levelset_count",
    "default_eps_grid",
    "density_profile",
    "estimate_threshold",
    "levelset_tree_density",
    "lp_norm",
    "zygmund_seminorm",
]

def zygmund_seminorm(f: SampledFunction) -> float:
    """Largest ``|second difference|`` over all interior grid pairs ``(x, h)``.

    The sweep runs over every grid point ``x`` and step ``h = u * spacing``
    with both ``x - h`` and ``x + h`` inside the sampled span: O(M^2) pairs
    for ``M`` cells.  It sweeps the array of ``_sweep_values``, int32
    numerators on a small binary lattice, and scales each step's maximum
    back; the bits are those of the float64 sweep.
    """
    v, scale = _sweep_values(f.values)
    spacing = float(f.spacing)
    best = 0.0
    for u in range(1, (v.size - 1) // 2 + 1):
        d1 = v[u:] - v[:-u]
        d2 = d1[u:] - d1[:-u]
        best = max(best, float(np.abs(d2).max()) * scale / (u * spacing))
    return best


def _sweep_values(values: np.ndarray) -> tuple[np.ndarray, float]:
    """The array ``zygmund_seminorm`` sweeps, and the scale back to values.

    With the values ``k 2^-q`` and ``|k| < 2^a``, first differences ``d1``
    are multiples of ``2^-q`` below ``2^(a+1)`` quanta, second differences
    ``d2`` below ``2^(a+2)``: one family ``(2, 0)`` for
    ``martingale._lattice_quantum`` with the int32 budget of 31 bits.
    Where that rule gives ``q``, every float64 ``d1`` and ``d2`` is exact,
    and is ``2^-q`` times the same difference of the int32 numerators ``k``.
    A step's largest ``|d2|`` is then its numerator maximum (an integer
    below ``2^31``, exact as a float) times the power of two ``2^-q``; the
    product is that float64 maximum, a representable number, so it rounds
    nothing.  Then the numerators are swept at scale ``2^-q``: 4 bytes per
    sample instead of 8.  Every other input (``a > 29``, near overflow or
    non-finite) is swept as is, at scale 1.
    """
    q = _lattice_quantum(values, 31, (2, 0))
    if q is None:
        return values, 1.0
    return np.ldexp(values, q).astype(np.int32), math.ldexp(1.0, -q)


def _gather(values: np.ndarray, idx: np.ndarray, compact: bool):
    """Samples at integer indices with zero extension or a validity mask."""
    valid = (idx >= 0) & (idx < values.size)
    out = values[np.clip(idx, 0, values.size - 1)]
    if compact:
        return np.where(valid, out, 0.0), np.ones_like(valid)
    return np.where(valid, out, 0.0), valid


def _second_difference(f: SampledFunction, x: np.ndarray, u):
    """Second differences at grid indices ``x`` with steps ``u`` (grid units),
    divided by the step, and the mask of those whose samples all exist."""
    c, okc = _gather(f.values, x, f.compact)
    l, okl = _gather(f.values, x - u, f.compact)
    r, okr = _gather(f.values, x + u, f.compact)
    return ((r - c) - (c - l)) / (u * float(f.spacing)), okc & okl & okr


def box_square_energy(f: SampledFunction, depth: int | None = None) -> float:
    """Normalised square energy of second differences over a box lattice.

    Sums ``weight * d2(x, h)^2`` over the midpoint lattice of
    ``I x (0, |I|]``, ``I`` the sampled span, down to ``depth`` layers and
    divides by ``|I|``.  Layers whose sample step falls under the grid
    resolution are not representable and stop the sum (profiles deeper than
    the grid saturate).
    """
    cells = 1 << f.depth
    if depth is None:
        depth = max(cells.bit_length() - 2, 1)
    spacing = float(f.spacing)
    total = 0.0
    for n in range(depth):
        if cells >> (n + 2) == 0:
            break
        q = cells >> (n + 2)
        centers = (2 * np.arange(1 << (n + 1), dtype=np.int64) + 1) * q
        d2, ok = _second_difference(f, centers, 3 * q)
        weight = 2 * q * spacing * math.log(2.0)
        total += weight * float((d2 * d2 * ok).sum())
    return total / (cells * spacing)


def levelset_tree_density(S: DyadicMartingale, eps: float, depth: int | None = None) -> float:
    """Largest windowed measure of cells with large dyadic second difference:
    the one-entry ``density_profile`` of the slope martingale ``S`` at
    ``eps`` and ``depth`` (default ``S.depth``)."""
    depth = S.depth if depth is None else depth
    return density_profile(S, [eps], [depth]).values[0][0]


@dataclass
class DepthProfile:
    """Functional values tabulated over depths (rows) and levels (columns)."""

    depths: list[int]
    eps: list[float]
    values: list[list[float]] = field(default_factory=list)


@dataclass
class ThresholdEstimate:
    """Smallest stable level of a depth profile, with the decision data."""

    eps: float | None
    ratios: list[float]
    stable: list[bool]
    tau: float
    method: str = "depth-ratio"


def density_profile(S: DyadicMartingale, eps_grid, depths) -> DepthProfile:
    """Tabulate the tree level-set density over a level grid and several depths.

    ``S`` is the slope martingale of a function.  A parent qualifies when
    its centred second difference ``2 |a|`` (``a`` its left child's jump)
    exceeds the level.  The table is ``_tree_profile``'s, shared with
    measures.
    """
    return _tree_profile(S, _second_difference_size, eps_grid, depths)


def _second_difference_size(S: DyadicMartingale, generation: int) -> np.ndarray:
    return 2.0 * np.abs(S.jumps(generation + 1)[0::2])


def _tree_profile(S: DyadicMartingale, parent_size, eps_grid, depths) -> DepthProfile:
    """Tree level-set densities of ``S`` at every (depth, level).

    ``parent_size(S, m)`` is the size table of the generation-``m`` parents
    (shape ``(2^m,) * S.dim``); a parent qualifies at level ``eps`` when its
    size exceeds ``eps``.  For each window cell ``Q`` of generation
    ``0..depth``, the volumes of the qualifying parents ``P`` inside ``Q``
    with ``generation(P) < depth`` are summed and divided by ``|Q|``; an
    entry is the maximum over windows.  The size tables are formed once,
    down to the deepest depth, and each entry is one bottom-up window pass
    over them: O(2^(dim N)) for the sizes plus O(2^(dim depth)) per entry.
    """
    eps_grid = [float(e) for e in eps_grid]
    depths = list(depths)
    for d in depths:
        if not 1 <= d <= S.depth:
            raise ValueError(f"depth must be in [1, {S.depth}]")
    sizes = [parent_size(S, m) for m in range(max(depths, default=0))]
    values = [[0.0] * len(eps_grid) for _ in depths]
    for row, d in zip(values, depths):
        for j, e in enumerate(eps_grid):
            acc = np.zeros((1 << d,) * S.dim)
            for m in range(d - 1, -1, -1):
                acc = _block_reduce(acc, S.dim) + (sizes[m] > e) * 2.0 ** (-S.dim * m)
                row[j] = max(row[j], float(acc.max()) * 2.0 ** (S.dim * m))
    return DepthProfile(depths=depths, eps=eps_grid, values=values)


def _growth_ratio(shallow: float, deep: float) -> float:
    if deep == 0.0:
        return 1.0
    if shallow == 0.0:
        return math.inf
    return deep / shallow


def estimate_threshold(profile: DepthProfile, tau: float = 0.1) -> ThresholdEstimate:
    """Smallest grid level whose profile no longer grows with depth.

    A level is stable when value[deepest] / value[shallowest] <= 1 + tau
    (0/0 counts as stable, growth from zero as unstable).  Returns the first
    stable level of the ascending grid, or ``None`` when every level still
    grows — the finite-depth data is then inconclusive.
    """
    order = sorted(range(len(profile.eps)), key=lambda j: profile.eps[j])
    shallow_row = profile.values[profile.depths.index(min(profile.depths))]
    deep_row = profile.values[profile.depths.index(max(profile.depths))]
    ratios = [0.0] * len(order)
    stable = [False] * len(order)
    chosen = None
    for j in order:
        r = _growth_ratio(shallow_row[j], deep_row[j])
        ratios[j] = r
        stable[j] = r <= 1.0 + tau
        if stable[j] and chosen is None:
            chosen = profile.eps[j]
    return ThresholdEstimate(eps=chosen, ratios=ratios, stable=stable, tau=tau)


def _cone_samples(f: SampledFunction, depth: int):
    """Per-layer second differences on the three-cell cone lattice.

    Layer ``n`` represents aperture heights ``[2^-(n+1), 2^-n)`` by
    ``t = 3u`` grid units with ``u = 2^(N-n-2)``; for an apex at grid index
    ``a`` the slab ``|x - s| < t`` is covered by three cells of width ``2u``
    centred at ``a - 2u, a, a + 2u``, each carrying ``ds dt/t^2`` mass 4/9.
    Layers stop at ``N - 2``, the last one with ``u >= 1``.
    """
    N = f.depth
    s = np.arange(f.values.size, dtype=np.int64)
    for n in range(min(depth, N - 1)):
        u = 1 << (N - n - 2)
        yield (u, *_second_difference(f, s, 3 * u))


def cone_levelset_count(f: SampledFunction, eps_grid, depths) -> DepthProfile:
    """L2 size of the cone count field of ``|d2| > eps`` at every (depth, level).

    Leaf ``a`` collects mass 4/9 from each (layer, offset) sample of its cone
    (``_cone_samples``, first ``depth`` layers) whose ``|d2|`` exceeds
    ``eps``; its field value is the square root of that mass, and the table
    holds ``lp_norm(field, 2)``.  Summed sample by sample in a fixed order,
    with 0.0 for a sample that does not qualify (which changes nothing), the
    mass depends only on the number ``k`` of qualifying samples: it is
    ``mass[k]``, the sequential sum of ``k`` copies of 4/9.  So the layers
    are formed once, for the deepest depth, and each adds its qualifying
    samples into one ``uint8`` counter per (level, leaf).

    Cost: O(N 2^N) gathers plus O(|eps| N 2^N) byte compares, with
    ``2 |eps| 2^N`` bytes of counters and compare mask.
    """
    eps_grid = [float(e) for e in eps_grid]
    depths = list(depths)
    layers = [max(0, min(d, f.depth - 1)) for d in depths]
    deepest = max(layers, default=0)
    M = 1 << f.depth
    eps = np.array(eps_grid)[:, None]
    counts = np.zeros((len(eps_grid), M), dtype=np.uint8)
    hit = np.empty(counts.shape, dtype=bool)
    mass = np.cumsum(np.r_[0.0, np.full(3 * deepest, 4.0 / 9.0)])  # sequential
    root = np.sqrt(mass)
    norms = {}
    if 0 in layers:
        norms[0] = [lp_norm(root[c], 2.0) for c in counts]
    for n, (u, d2, ok) in enumerate(_cone_samples(f, deepest), start=1):
        mag = np.abs(d2, out=d2)
        mag[~ok] = -np.inf  # an invalid sample never qualifies
        # apex a reads sample a + offset; off the grid it reads nothing
        for apexes, samples in (
            (slice(2 * u, M), slice(0, M - 2 * u)),  # offset -2u
            (slice(0, M), slice(0, M)),  # offset 0
            (slice(0, M - 2 * u + 1), slice(2 * u, M + 1)),  # offset 2u
        ):
            counted, qualifies = counts[:, apexes], hit[:, apexes]
            np.greater(mag[samples], eps, out=qualifies)
            counted += qualifies
        if n in layers:
            norms[n] = [lp_norm(root[c], 2.0) for c in counts]
    return DepthProfile(
        depths=depths, eps=eps_grid, values=[norms[n] for n in layers]
    )


def lp_norm(leaf_field: np.ndarray, p: float) -> float:
    """``L^p`` norm of a per-leaf field over the unit cell, ``1 < p < inf``."""
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    field = np.asarray(leaf_field, dtype=np.float64)
    return float((np.abs(field) ** p).mean() ** (1.0 / p))


def _geometric_grid(norm: float, lowest: int) -> list[float]:
    """Levels ``norm * 2^(j/2)`` for ``j = lowest .. 2``, or ``[0.0]`` if ``norm`` is 0."""
    if norm == 0.0:
        return [0.0]
    return [norm * 2.0 ** (j / 2) for j in range(lowest, 3)]


def default_eps_grid(S: DyadicMartingale) -> list[float]:
    """Ascending geometric level grid tied to the dyadic seminorm of a function.

    ``S`` is the function's slope martingale, and the seminorm is twice its
    star norm.  The grid runs from ``2^-10`` times to twice the seminorm in
    ``sqrt(2)`` steps (so the seminorm itself is a grid point).  A function
    with zero seminorm gets the single level 0, where every density already
    vanishes.
    """
    return _geometric_grid(2.0 * star_norm(S), -20)
