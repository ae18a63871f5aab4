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
from fractions import Fraction
from functools import partial
from operator import itemgetter

import numpy as np

from zygdist.martingale import (
    DyadicMartingale,
    SampledFunction,
    _block_reduce,
    _dropped,
    _lattice_exponents,
    _lattice_quantum,
    _parent_sizes,
    _peaks,
    _quanta_bits,
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

    The value is that of the sweep over every grid point ``x`` and step
    ``h = u * spacing`` with both ``x - h`` and ``x + h`` inside the sampled
    span: O(M^2) pairs for ``M`` cells.  It sweeps the array ``v`` of
    ``_sweep_values``, int32 numerators on a small binary lattice, and scales
    each step's maximum back; the bits are those of the float64 sweep.

    **Skipped steps.**  With ``d`` the first differences of ``v`` (the step-1
    ``d1``) and ``W = max d - min d``, the exact second difference at centre
    ``c`` moves by ``d(c+u) - d(c-u-1)``, in ``[-W, W]``, from step ``u`` to
    ``u + 1``.  So if ``m_u`` is the largest computed ``|d2|`` at step ``u``,
    every computed ``|d2|`` at step ``u + k`` is at most
    ``T = m_u + k (W + E) + 2E``, with ``W`` as computed and ``E`` a bound on
    how far a computed ``d2`` or ``W`` is from exact.  After sweeping step
    ``u``, each later step ``u'`` is skipped while ``H * scale / (u' *
    spacing)`` is at most the best value so far, with ``H >= T`` a float.
    That is the sweep's own expression on a larger number, and rounding is
    monotone, so a skipped step could not have raised the maximum: the result
    is bit for bit that of the exhaustive sweep.  On int32 numerators ``T``
    is an exact Python int and ``H`` is ``T`` rounded to a float.  On the
    float64 path ``T`` is summed in floats, four roundings of non-negative
    terms that leave it at least ``T (1 - 2^-53)^4``, and ``H`` is that sum
    times ``1 + 2^-50``, rounded (below ``2^-1022`` the sums are exact).

    **The slack E.**  On int32 numerators every difference is exact:
    ``E = 0``.  On the float64 path, let ``V = max |v| <= 2^1021`` and
    ``eps = 2^-53``.  No difference overflows (``|d2| <= 4V (1 + eps)^2``),
    and each subtraction is exact up to a factor ``1 + delta``,
    ``|delta| <= eps``, subnormal results included.  A ``d2`` is
    ``(a(1 + a') - b(1 + b'))(1 + c')`` for exact ``a - b``, so it is within
    ``eps (|a| + |b|) (2 + eps) + eps |a - b| <= 2^-50 V (1 + eps/2)``; each
    computed ``d`` is within ``2 eps V`` and ``fl(max d - min d)`` within
    ``4 eps V (1 + eps)`` of its exact value, so ``W`` is low by at most
    ``2^-50 V (1 + eps/2)`` too.  ``E = 2^-49 V`` is twice that; where it
    underflows, the errors are multiples of ``2^-1074`` below it and rounding
    cannot drop it under them.  Larger or non-finite ``V`` gives ``E = inf``
    and sweeps every step.

    **The widest-step seed.**  The widest step ``M/2`` (one centre) is swept
    first and seeds ``best``; the loop then runs from step 1 as above and
    does not sweep it again.  The maximum is order-free, and every skip
    still compares a true bound with a computed value, so the bits stay
    those of the exhaustive sweep.  Profiles whose second differences grow
    with the step (``square``, the parabola) peak at the widest step, which
    then rules out most of the others; elsewhere the seed costs one step.
    ``single-branch``, whose largest ``|d2| / h`` is the same at every step,
    still sweeps every step: the worst case stays O(M^2).
    """
    v, scale = _sweep_values(f.values)
    spacing = float(f.spacing)
    last = (v.size - 1) // 2
    best = 0.0
    if last >= 1:  # the widest step first: one d2, a seed for every skip
        best = max(best, _step_peak(v[last:] - v[:-last], last) * scale / (last * spacing))
    u = 1
    while u < last:
        d1 = v[u:] - v[:-u]
        if u == 1:
            width, slack, lift = _step_growth(v, d1)
        peak = _step_peak(d1, u)
        best = max(best, peak * scale / (u * spacing))
        floor = peak + 2 * slack
        k = 1
        while u + k < last and (floor + k * width) * lift * scale / ((u + k) * spacing) <= best:
            k += 1
        u += k
    return best


def _step_peak(d1: np.ndarray, u: int) -> int | float:
    """Largest ``|d2|`` at step ``u`` from the step's first differences, as a
    Python number (an int on int32 numerators)."""
    return np.abs(d1[u:] - d1[:-u]).max().item()


def _step_growth(v: np.ndarray, d1: np.ndarray) -> tuple:
    """``W + E``, ``E`` and the rounding lift of ``zygmund_seminorm``'s step
    bound, from the step-1 ``d1``.

    Python numbers: on int32 numerators exact ints (``E = 0``, lift 1), else
    floats, so a non-finite input gives ``inf`` or ``nan`` (no skip) without
    a NumPy warning.
    """
    width = d1.max().item() - d1.min().item()
    if v.dtype == np.int32:
        return width, 0, 1
    top = max(v.max().item(), -v.min().item())
    slack = math.ldexp(top, -49) if top <= 2.0**1021 else math.inf
    return width + slack, slack, 1 + 2.0**-50


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
    q = _lattice_quantum(_lattice_exponents(values), 31, (2, 0))
    if q is None:
        return values, 1.0
    return np.ldexp(values, q).astype(np.int32), math.ldexp(1.0, -q)


def _zero_padded(f: SampledFunction, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The samples with ``width`` zeros on each side, and where a sample exists.

    ``exists`` is ``True`` on the grid and, beyond the ends, ``f.compact``: a
    compact function is 0 there, any other has no sample.  This is the one
    place that decides what a read past the ends sees.
    """
    padded = np.pad(f.values, width)
    exists = np.pad(np.ones(f.values.size, dtype=bool), width, constant_values=f.compact)
    return padded, exists


def _second_difference(f: SampledFunction, padded, exists, reads, t):
    """Second differences divided by the step ``t`` (grid units), and where
    all three samples exist: ``reads`` are three readers of the last axis of
    both arrays of ``_zero_padded(f, width)``, or of a stack of them, at the
    offsets ``-t``, ``0`` and ``+t``."""
    left, centre, right = reads
    c = centre(padded)
    d2 = right(padded) - c
    d2 -= c - left(padded)  # (r - c) - (c - l), with two reads alive at a time
    d2 /= t * float(f.spacing)
    return d2, left(exists) & centre(exists) & right(exists)


def _sliced(width: int, size: int, t: int) -> list:
    """``_second_difference`` reads at the points ``0 .. size - 1``: slices,
    views of the table."""
    return [itemgetter((..., slice(width + k, width + size + k))) for k in (-t, 0, t)]


def _indexed(width: int, x: np.ndarray, t) -> list:
    """``_second_difference`` reads at the index array ``x``: gathers along
    the last axis by ``take``, about three times as fast on a stack of
    tables as ``table[..., index]``."""
    return [partial(np.take, indices=width + x + k, axis=-1) for k in (-t, 0, t)]


def levelset_tree_density(S: DyadicMartingale, eps: float, depth: int) -> float:
    """Largest windowed measure of cells with large dyadic second difference:
    the one-entry ``density_profile`` of the slope martingale ``S`` at
    ``eps`` and ``depth``.  A call sorts all ``N`` parent-size tables,
    O(2^N log 2^N); read a whole grid with one ``density_profile`` call."""
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
    its centred second difference, twice its size, exceeds the level: the
    profile of ``_level_set_tables`` at ``scale = 2``, whose ``None`` grid
    is ``default_eps_grid(S)``.
    """
    return _level_set_tables(S, eps_grid, depths, 2.0)[1]


def _level_set_tables(S: DyadicMartingale, eps_grid, depths, scale: float, residual_norm=None):
    """``(star, profile, residuals, thresholds, counts)`` of any martingale
    ``S`` whose parent's level is ``scale`` times its size: 2 for a
    function's slope martingale (its second difference), 1 for a measure's
    density martingale.  The only reader of the parent-size tables.

    After the depths are checked to lie in ``[1, N]``, the
    ``_parent_sizes`` of all ``N`` generations are formed once.  Their
    ``_peaks`` give the star norm, the default grid (``eps_grid=None``) and
    the certificate's maxima; ``_level_thresholds`` turns the levels into
    ``thresholds``.  One ``_dropped`` sort gives per threshold the largest
    dropped size and ``counts``, the dropped parents of all ``N`` tables.
    ``profile`` holds ``_tree_profile``'s rows, with the levels as its
    ``eps``.  Without ``residual_norm`` the residuals are ``None``.  With
    it, the residual norm at ``t`` is the largest dropped size where
    ``_table_exact`` holds (truncation and the residual round nothing, so a
    kept parent leaves no residual jump and a dropped one its own), else
    the caller's ``residual_norm(t)``, once per distinct count, O(2^N)
    each.  Cost: O(2^N log 2^N) once plus O(log 2^N) per level.
    """
    depths = list(depths)
    if not all(1 <= d <= S.depth for d in depths):
        raise ValueError(f"depth must be in [1, {S.depth}]")
    sizes = _parent_sizes(S)
    peaks, star = _peaks(sizes)
    eps_grid, thresholds = _level_thresholds(eps_grid, star, scale)
    residuals, counts = _dropped(sizes, thresholds)
    if residual_norm is None:
        residuals = None
    elif not _table_exact(S, peaks, max(residuals, default=0.0)):
        norms = {count: residual_norm(t) for count, t in dict(zip(counts, thresholds)).items()}
        residuals = [norms[count] for count in counts]
    profile = DepthProfile(depths, eps_grid, _tree_profile(sizes, thresholds, counts, depths))
    return star, profile, residuals, thresholds, counts


def _table_exact(S: DyadicMartingale, peaks: list, top: float) -> bool:
    """Whether truncating ``S`` and taking the residual's norm rounds
    nothing, at every threshold whose largest dropped size is at most
    ``top``, for a function's residual and a measure's alike.

    ``peaks[n - 1]`` is the largest size in generation ``n``'s
    ``_parent_sizes`` table.  Level ``n`` of ``S`` holds multiples of
    ``2^-q_n`` (``_lattice_exponents``) of absolute value at most ``M_n``;
    ``2^-q`` is the finest of these quanta over the nonzero levels, so every
    quantity below is a multiple of it.  Real-number bounds, ``n = 1 ..
    N``, in dimension ``d``:

    * jumps ``S_n - S_(n-1)``: one that rounds has exact operands, so its
      exact value, and by monotone rounding its computed one, is at least
      ``2^53`` quanta.  Where ``peaks[n - 1]`` is below that, every jump is
      exact and at most ``peaks[n - 1]``;
    * a dropped jump is at most its parent's size, so at most ``top``.  The
      residual level ``R_n``, the dropped jumps above a cell, is at most
      ``r_n = sum_(m<=n) min(peaks[m - 1], top)``, and the kept level ``B_n =
      S_n - R_n`` at most ``M_n + r_n``.  The residual's block sums add
      ``2^d`` values of ``R_n``: at most ``2^d r_n``.  The kept and residual
      masses of a measure are ``B_N`` and ``R_N`` times ``2^-dN``, on the
      quantum ``2^-(q + dN)``;
    * a measure's ``S`` is ``DyadicMartingale.from_leaf``'s: level ``n - 1``
      is the block sum of level ``n`` over ``2^d``, its partial sums
      multiples of ``2^-q_n`` at most ``2^d M_n``.  Where these are exact,
      so is the mean, a cell's mass times ``2^(d(n-1))`` and so a multiple
      of ``2^-1074``.  Then ``S`` is an exact martingale, and so are the
      kept and residual ones.

    Where ``martingale._lattice_quantum`` accepts these families at 53 bits,
    ``approximation.truncate_jumps``, ``approximation.martingale_difference``,
    the masses of ``measures.measure_truncate``, their subtraction and the
    residual's block means and jumps are exact.  A kept parent then leaves
    no residual jump and a dropped one its own jumps, so ``star_norm(S - B)``
    for a function and the residual's dyadic norm for a measure are the
    largest dropped size, bit for bit.  A function's residual needs no block
    means: for its slope martingale the means' families only refuse more.
    """
    d, N = S.dim, S.depth
    lattices = [_lattice_exponents(level) for level in S.levels]
    if None in lattices or not np.isfinite(peaks).all():
        return False
    residual = bound = Fraction(0)
    for level, (q_n, _), peak in zip(S.levels[1:], lattices[1:], peaks):
        residual += Fraction(min(peak, top))
        extent = Fraction(float(max(level.max(), -level.min())))
        bound = max(bound, Fraction(peak), extent + residual, residual * 2**d)
        means = _quanta_bits(extent * 2**d, q_n)
        if _lattice_quantum((q_n, 0), 53, (means, 0)) is None:
            return False
    q = max((q_n for q_n, a_n in lattices if a_n), default=0)
    bits = _quanta_bits(bound, q)
    return _lattice_quantum((q, 0), 53, (bits, 0), (bits, d * N)) is not None


# levels times window cells of one ``_tree_profile`` accumulator: 512 KiB
_TREE_BLOCK = 1 << 16


def _tree_profile(sizes, thresholds, counts, depths) -> list[list[float]]:
    """Tree level-set densities from all ``N`` ``_parent_sizes`` tables:
    one row per depth, one entry per threshold.

    A parent qualifies at a threshold (``_level_thresholds``) when its size
    ``_parent_deviation`` exceeds it.  For each window cell ``Q`` of
    generation ``0..depth``, the volumes of the qualifying parents ``P``
    inside ``Q`` with ``generation(P) < depth`` are summed and divided by
    ``|Q|``; an entry is the maximum over windows.  ``counts`` holds each
    threshold's ``_dropped`` count over all ``N`` tables.  Within a
    generation the qualifying sets are nested in the threshold, so two
    thresholds with one count qualify the same parents in every generation
    and share an entry: a threshold that drops every parent gets zeros, and
    each other distinct count runs one bottom-up window pass at each depth.
    Cost: O(2^(dim depth)) per distinct non-empty set and depth; the sort is
    the caller's.  (A count short of every parent can still give an
    all-zero column: a NaN size, from overflowing slopes, is dropped only at
    a NaN threshold, and a set's parents may all lie in generations the
    depth does not read.)

    At depth ``d`` the pass runs on a block of ``max(1, _TREE_BLOCK >>
    dim (d - 1))`` levels at once, in one accumulator of at most
    ``_TREE_BLOCK`` float64 window sums (one level at a time from ``dim (d -
    1) >= 16`` on).  Every sum is exact: its terms are volumes ``2^-(dim
    m)``, ``m < d``, so it is a multiple of ``2^-(dim (d - 1))`` below ``d``
    windows' volume, with fewer than 53 significant bits, in any order of
    addition.  So are its maximum and the power-of-two rescaling; the table
    is that of one level at a time.
    """
    reps = dict(zip(counts, thresholds))  # the last level of each count stands for its set
    reps.pop(sum(s.size for s in sizes), None)  # nothing qualifies: a zero row and no pass
    levels = np.array(list(reps.values()))
    values = []
    for d in depths:
        dim = sizes[d - 1].ndim
        block = max(1, _TREE_BLOCK >> dim * (d - 1))
        peaks = np.zeros(levels.size)
        for lo in range(0, levels.size, block):
            eps = levels[lo : lo + block].reshape((-1,) + (1,) * dim)
            peak = peaks[lo : lo + block]
            acc = np.zeros(eps.shape[:1] + sizes[d - 1].shape)
            for m in range(d - 1, -1, -1):
                if m < d - 1:  # sum each window's children; .T puts levels last
                    acc = _block_reduce(acc.T, dim).T
                np.add(acc, 2.0 ** (-dim * m), out=acc, where=sizes[m] > eps)
                top = acc.reshape(len(acc), -1).max(axis=1) * 2.0 ** (dim * m)
                np.maximum(peak, top, out=peak)
        row = dict(zip(reps, peaks.tolist()))
        values.append([row.get(count, 0.0) for count in counts])
    return values


# the default tolerance ``tau`` of the depth-growth rule
_DEFAULT_TAU = 0.1


def _growth_ratio(shallow: float, deep: float) -> float:
    if deep == 0.0:
        return 1.0
    if shallow == 0.0:
        return math.inf
    return deep / shallow


def _bounded(shallow: float, deep: float, tau: float) -> bool:
    """The depth-growth rule: ``deep / shallow <= 1 + tau`` (0 to 0 is
    bounded, growth from 0 is not)."""
    return _growth_ratio(shallow, deep) <= 1.0 + tau


def estimate_threshold(profile: DepthProfile, tau: float = _DEFAULT_TAU) -> ThresholdEstimate:
    """Smallest grid level whose profile no longer grows with depth.

    A level is stable when its shallowest and deepest values pass
    ``_bounded``.  Returns the first stable level of the ascending grid, or
    ``None`` when every level still grows — the finite-depth data is then
    inconclusive.  A profile of fewer than two distinct depths shows no
    growth either way: no level is stable, and the result is ``None``.
    """
    compared = len(set(profile.depths)) > 1
    order = sorted(range(len(profile.eps)), key=lambda j: profile.eps[j])
    shallow_row = profile.values[profile.depths.index(min(profile.depths))]
    deep_row = profile.values[profile.depths.index(max(profile.depths))]
    ratios = [0.0] * len(order)
    stable = [False] * len(order)
    chosen = None
    for j in order:
        ratios[j] = _growth_ratio(shallow_row[j], deep_row[j])
        stable[j] = compared and _bounded(shallow_row[j], deep_row[j], tau)
        if stable[j] and chosen is None:
            chosen = profile.eps[j]
    return ThresholdEstimate(eps=chosen, ratios=ratios, stable=stable, tau=tau)


def box_square_energy(f: SampledFunction, depths) -> list[float]:
    """Normalised square energy of second differences over a box lattice, at
    each of ``depths``: the energies of ``_cone_lattice`` on an empty level
    grid."""
    return _cone_lattice(f, [], depths)[1]


def cone_levelset_count(f: SampledFunction, eps_grid, depths) -> DepthProfile:
    """L2 size of the cone count field of ``|d2| > eps`` at every (depth,
    level): the profile of ``_cone_lattice``."""
    return _cone_lattice(f, eps_grid, depths)[0]


def _cone_lattice(f: SampledFunction, eps_grid, depths) -> tuple[DepthProfile, list[float]]:
    """The cone count profile and the box energies of ``f``, from one walk of
    the lattice layers.  The only reader of the cone and box lattices.

    **Layers.**  Layer ``n`` represents aperture heights ``[2^-(n+1),
    2^-n)`` by the step ``t = 3u`` grid units with ``u = 2^(N-n-2)``.
    Layers stop at ``N - 2``, the last one with ``u >= 1``: past ``N - 1``
    layers profiles saturate, and depth ``d`` reads ``min(d, N - 1)``
    layers.  One ``_zero_padded`` copy of width ``3 * 2^(N-2)``, the widest
    step, holds every read; each layer forms its second differences ``d2``
    once, at every apex, from three slices of it.

    **Box energy.**  Sums ``weight * d2(x, h)^2`` over the midpoint lattice
    of ``I x (0, |I|]``, ``I`` the sampled span, and divides by ``|I|``:
    layer ``n``'s centres ``(2i + 1) u`` are the view ``d2[u:M:2u]``, read
    before the count overwrites ``d2``.  The value at ``d`` is the running
    total after ``d`` layers.

    **Cone counts.**  For an apex at grid index ``a`` the slab ``|x - s| <
    t`` is covered by three cells of width ``2u`` centred at ``a - 2u, a, a
    + 2u``, each carrying ``ds dt/t^2`` mass 4/9.  Leaf ``a`` collects mass
    4/9 from each (layer, offset) sample of its cone whose ``|d2|`` exceeds
    ``eps``; its field value is the square root of that mass, and the table
    holds ``lp_norm(field, 2)``.  Summed sample by sample in a fixed order,
    with 0.0 for a sample that does not qualify (which changes nothing), the
    mass depends only on the number ``k`` of qualifying samples: it is
    ``mass[k]``, the sequential sum of ``k`` copies of 4/9.  So each layer
    adds its qualifying samples into one ``uint8`` counter per (level,
    leaf).  A layer compares its samples with every level once, into one
    mask; the three apex offsets add shifted slices of that mask.  An entry
    is then ``squares[c].mean() ** 0.5`` (gathered by ``take``) with
    ``squares = sqrt(mass) ** 2`` formed once: the elements and the
    expression of ``lp_norm(sqrt(mass)[c], 2)``.

    Cost: O(N 2^N) slice reads plus O(|eps| N 2^N) byte compares, one
    compare per (level, sample) and layer.  Memory: ``2 |eps| (2^N + 1)``
    bytes of counters and compare mask, plus the padded copy of about
    ``2.5 * 2^N`` float64 and its ``exists`` mask of ``2.5 * 2^N`` bytes.
    """
    eps_grid = [float(e) for e in eps_grid]
    depths = list(depths)
    layers = [max(0, min(d, f.depth - 1)) for d in depths]
    deepest = max(layers, default=0)
    M = 1 << f.depth
    spacing = float(f.spacing)
    width = (3 << f.depth) >> 2
    padded, exists = _zero_padded(f, width)
    eps = np.array(eps_grid)[:, None]
    counts = np.zeros((len(eps_grid), M), dtype=np.uint8)
    hit = np.empty((len(eps_grid), M + 1), dtype=bool)
    mass = np.cumsum(np.r_[0.0, np.full(3 * deepest, 4.0 / 9.0)])  # sequential
    squares = np.sqrt(mass) ** 2
    norms = {}
    totals = [0.0]
    if 0 in layers:
        norms[0] = [float(squares.take(c).mean() ** 0.5) for c in counts]
    for n in range(1, deepest + 1):  # norms[n] and totals[n]: after n layers
        u = M >> (n + 1)  # 2^(N-n-1): the docstring's layer n - 1
        reads = _sliced(width, M + 1, 3 * u)
        d2, ok = _second_difference(f, padded, exists, reads, 3 * u)
        box, inside = d2[u:M : 2 * u], ok[u:M : 2 * u]
        weight = 2 * u * spacing * math.log(2.0)
        totals.append(totals[-1] + weight * float((box * box * inside).sum()))
        mag = np.abs(d2, out=d2)
        mag[~ok] = -np.inf  # an invalid sample never qualifies
        np.greater(mag, eps, out=hit)
        # apex a reads sample a + offset; off the grid it reads nothing
        counts[:, 2 * u :] += hit[:, : M - 2 * u]  # offset -2u
        counts += hit[:, :M]  # offset 0
        counts[:, : M - 2 * u + 1] += hit[:, 2 * u :]  # offset 2u
        if n in layers:
            norms[n] = [float(squares.take(c).mean() ** 0.5) for c in counts]
    cones = DepthProfile(depths=depths, eps=eps_grid, values=[norms[n] for n in layers])
    return cones, [totals[n] / (M * spacing) for n in layers]


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
    return _level_thresholds(None, star_norm(S))[0]


def _level_thresholds(eps_grid, star: float | None = None, scale: float = 2.0) -> tuple[list, list]:
    """Levels as floats (``None`` is the default grid of a martingale with
    star norm ``star``), and the parent-size threshold of each, where a
    parent's level is ``scale`` times its size: the largest float ``t`` with
    ``scale t <= eps``, so the level exceeds ``eps`` exactly when the size
    exceeds ``t``, on every float.  That is ``eps / scale``, one float lower
    where ``scale t > eps``.  A function's level is its second difference,
    twice its slope martingale's size (``scale = 2``): ``eps / 2`` rounds up
    at ``eps = m 2^-1074 < 2^-1021``, ``m = 3 mod 4``.  A measure's is its
    density martingale's size (``scale = 1``): ``t`` is ``eps``, bit for
    bit.  No other code turns a level into a threshold."""
    if eps_grid is None:
        eps_grid = _geometric_grid(scale * star, -20)
    eps_grid = [float(eps) for eps in eps_grid]
    parts = [(eps / scale, eps) for eps in eps_grid]
    return eps_grid, [math.nextafter(t, -math.inf) if scale * t > eps else t for t, eps in parts]
