"""Oracles that the vectorised kernels are checked against, and the
test-only helpers that the paper-claim tests call.

Scalar evaluators (one second difference, one box average, one cell
deviation at a time, on exact ``Fraction`` geometry), the gathered
second-difference reader (``np.clip`` and ``np.where``) behind the cone and
box oracles, loop versions of the batched kernels, reshape block
reductions and two corner sums (bit order, and ``itertools.product`` order
seeded by the first term) that the shared kernels must match bit for bit,
each certificate's lattice-exactness verdict restated without the shared
rule (and the two former dropped-size rules the table certificate must
accept), the paper-claim helpers (translation averaging, thresholded jump
counts, window Parseval data, the averaging property, the quadratic
characteristic and the maximal function), the per-seed generation loop of
a random martingale, the ``one_split_measure`` fixture and the standard
library's JSON encoding that the report writer must match byte for byte.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from zygdist.approximation import martingale_difference, truncate_jumps
from zygdist.dyadic import _coerce
from zygdist.martingale import (
    DyadicMartingale,
    SampledFunction,
    average_growth,
    bmo_norm,
    integrate,
    star_norm,
)
from zygdist.measures import (
    GridMeasure,
    density_martingale,
    measure_truncate,
    measure_zygmund_norm,
)

# ---------------------------------------------------------------------------
# scalar differences of sampled functions


def index_of(f: SampledFunction, x) -> int:
    """Exact grid index of a point (raises if off-grid)."""
    ratio = (_coerce(x) - f.left) / f.spacing
    if ratio.denominator != 1:
        raise ValueError(f"{x} is not on the sample grid")
    return int(ratio)


def value_at_index(f: SampledFunction, i: int) -> float:
    """Sample ``i``; 0 beyond the ends of a compact function."""
    if 0 <= i < f.values.size:
        return float(f.values[i])
    if f.compact:
        return 0.0
    raise IndexError(f"sample {i} outside range and function not compact")


def first_difference(f: SampledFunction, x, h) -> float:
    """Forward slope ``(f(x + h) - f(x)) / h`` at exact grid points."""
    i = index_of(f, x)
    u = index_of(f, Fraction(x) + Fraction(h)) - i
    if u == 0:
        raise ValueError("h must be at least one grid step")
    return (value_at_index(f, i + u) - value_at_index(f, i)) / float(Fraction(h))


def second_difference(f: SampledFunction, x, h) -> float:
    """Symmetric second difference ``(f(x+h) - 2 f(x) + f(x-h)) / h``.

    ``x`` and ``h`` must be grid-resolvable.  Compact functions are extended
    by zero beyond their support; for others, off-range samples raise.
    """
    i = index_of(f, x)
    u = index_of(f, Fraction(x) + Fraction(h)) - i
    if u <= 0:
        raise ValueError("h must be at least one grid step")
    try:
        vl = value_at_index(f, i - u)
        vc = value_at_index(f, i)
        vr = value_at_index(f, i + u)
    except IndexError as exc:
        raise ValueError(str(exc)) from None
    return ((vr - vc) - (vc - vl)) / float(Fraction(h))


def exceeds_level(f: SampledFunction, x, h, eps: float) -> bool:
    """Whether ``(x, h)`` lies in the level set ``|second difference| > eps``."""
    return abs(second_difference(f, x, h)) > eps


def second_difference_dyadic(f: SampledFunction, cell: tuple[int, int]) -> float:
    """Second difference of ``f`` centred on the cell ``(n, j)``, the interval
    ``[j 2^-n, (j + 1) 2^-n)``, at half the cell length.

    For the cell ``[a, b)`` with midpoint ``m`` and ``h = (b - a)/2`` this is
    ``(f(b) - 2 f(m) + f(a)) / h``, evaluated as a difference of one-sided
    slopes so it matches the jump arithmetic bit for bit: it equals twice the
    jump of ``average_growth`` on the right child (minus twice the left).
    """
    n, j = cell
    a, b = Fraction(j, 1 << n), Fraction(j + 1, 1 << n)
    m = (a + b) / 2
    va = value_at_index(f, index_of(f, a))
    vm = value_at_index(f, index_of(f, m))
    vb = value_at_index(f, index_of(f, b))
    h = float((b - a) / 2)
    return ((vb - vm) - (vm - va)) / h


# ---------------------------------------------------------------------------
# block reductions by reshape


def block_sum(arr: np.ndarray, dim: int) -> np.ndarray:
    """Sum over 2x...x2 blocks, halving every axis, by reshape."""
    for axis in range(dim):
        shape = arr.shape
        arr = arr.reshape(
            shape[:axis] + (shape[axis] // 2, 2) + shape[axis + 1 :]
        ).sum(axis=axis + 1)
    return arr


def block_max(arr: np.ndarray, dim: int) -> np.ndarray:
    """Maximum over 2x...x2 blocks, halving every axis, by reshape."""
    for axis in range(dim):
        shape = arr.shape
        arr = arr.reshape(
            shape[:axis] + (shape[axis] // 2, 2) + shape[axis + 1 :]
        ).max(axis=axis + 1)
    return arr


def expand(arr: np.ndarray, dim: int) -> np.ndarray:
    """Repeat each entry twice along every axis: a parent level at its
    children's shape."""
    for axis in range(dim):
        arr = np.repeat(arr, 2, axis=axis)
    return arr


def is_martingale(S: DyadicMartingale) -> bool:
    """Whether every level is, up to rounding, the block mean of the next."""
    return all(
        np.allclose(
            block_sum(S.levels[n], S.dim) / 2**S.dim,
            S.levels[n - 1],
            rtol=1e-9,
            atol=1e-12,
        )
        for n in range(1, S.depth + 1)
    )


# ---------------------------------------------------------------------------
# scalar box averages of grid measures


def box_mass(mu: GridMeasure, lo, hi) -> float:
    """Mass of the half-open index box ``[lo, hi)``, clipped to the cube."""
    lo = np.clip(np.asarray(lo, dtype=np.int64), 0, 1 << mu.depth)
    hi = np.clip(np.asarray(hi, dtype=np.int64), 0, 1 << mu.depth)
    if np.any(hi <= lo):
        return 0.0
    total = 0.0
    for corner in itertools.product((0, 1), repeat=mu.dim):
        idx = tuple(hi[a] if corner[a] else lo[a] for a in range(mu.dim))
        total += (-1) ** (mu.dim - sum(corner)) * mu.table[idx]
    return float(total)


def cell_mass(mu: GridMeasure, generation: int, index) -> float:
    """Mass of the dyadic cell ``index`` at ``generation``."""
    index = np.asarray(index, dtype=np.int64).reshape(mu.dim)
    width = 1 << (mu.depth - generation)
    return box_mass(mu, index * width, (index + 1) * width)


def _as_point(mu: GridMeasure, x) -> np.ndarray:
    pt = np.asarray(x, dtype=object).reshape(-1)
    if pt.size == 1 and mu.dim > 1:
        raise ValueError(f"point must have {mu.dim} coordinates")
    return np.array([Fraction(c) for c in pt], dtype=object)


def _corner_indices(mu: GridMeasure, x, h) -> tuple[np.ndarray, np.ndarray]:
    scale = 1 << mu.depth
    half = Fraction(h) / 2
    pt = _as_point(mu, x)
    lo, hi = [], []
    for c in pt:
        a = (c - half) * scale
        b = (c + half) * scale
        if a.denominator != 1 or b.denominator != 1:
            raise ValueError("cube corners must fall on the measure grid")
        lo.append(int(a))
        hi.append(int(b))
    return np.array(lo), np.array(hi)


def delta1(mu: GridMeasure, x, h) -> float:
    """Box average ``mu(Q) / h^dim`` of the cube centred at ``x`` of side ``h``.

    The cube is clipped to the unit cube (the measure is extended by zero);
    its corners must be grid points.
    """
    lo, hi = _corner_indices(mu, x, h)
    return box_mass(mu, lo, hi) / float(Fraction(h)) ** mu.dim


def delta2(mu: GridMeasure, x, h) -> float:
    """Second difference of box averages: ``delta1(x, h) - delta1(x, 2h)``."""
    return delta1(mu, x, h) - delta1(mu, x, 2 * Fraction(h))


def delta2_dyadic(mu: GridMeasure, generation: int, index) -> float:
    """Deviation of a dyadic cell's box average from its parent's."""
    if generation < 1:
        raise ValueError("the root cell has no parent")
    index = np.asarray(index, dtype=np.int64).reshape(mu.dim)
    child = cell_mass(mu, generation, index) * 2.0 ** (generation * mu.dim)
    parent = cell_mass(mu, generation - 1, index // 2) * 2.0 ** (
        (generation - 1) * mu.dim
    )
    return child - parent


def delta2_max(mu: GridMeasure, generation: int, index) -> float:
    """Largest child box-average deviation over a dyadic cell's children."""
    if generation >= mu.depth:
        raise ValueError("cells at the leaf generation have no children")
    index = np.asarray(index, dtype=np.int64).reshape(mu.dim)
    best = 0.0
    for corner in itertools.product((0, 1), repeat=mu.dim):
        child = 2 * index + np.array(corner)
        best = max(best, abs(delta2_dyadic(mu, generation + 1, child)))
    return best


# ---------------------------------------------------------------------------
# fixtures


def sloped_line(depth: int, slope) -> SampledFunction:
    """``f(x) = slope * x`` on [0, 1]: all second differences vanish."""
    x = np.arange(2**depth + 1, dtype=np.float64) * 2.0 ** (-depth)
    return SampledFunction(float(Fraction(slope)) * x)


def lacunary_partial_sum(depth: int, levels: int) -> SampledFunction:
    """The first ``levels`` terms ``2^-(n+1) tri(2^n x)`` of
    ``lacunary_function(depth)``, ``tri`` the distance to the nearest
    integer: jumps of size 1/2 at generations ``1 .. levels`` only."""
    size = 2**depth
    i = np.arange(size + 1, dtype=np.int64)
    values = np.zeros(size + 1, dtype=np.float64)
    for n in range(levels):
        pos = (i << n) & (size - 1)  # 2^n x mod 1, in grid units
        tri = np.minimum(pos, size - pos).astype(np.float64) * 2.0 ** (-depth)
        values += 2.0 ** -(n + 1) * tri
    return SampledFunction(values)


def one_split_measure(dim: int, depth: int, theta=Fraction(1, 4)) -> np.ndarray:
    """Mass field that splits unevenly at the root only, uniform below.

    The first child of the root gets ``(1 + theta)/2^dim`` of the mass, the
    last gets ``(1 - theta)/2^dim`` (other children, if any, stay even), and
    every deeper split is uniform.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    theta = Fraction(theta)
    children = np.full((2,) * dim, 1.0 / 2**dim)
    children[(0,) * dim] = float(Fraction(1 + theta, 2**dim))
    children[(1,) * dim] = float(Fraction(1 - theta, 2**dim))
    sub = 2 ** (depth - 1)  # cells per axis below the first split
    uniform = np.full((sub,) * dim, 1.0 / float(sub) ** dim)
    return np.kron(children, uniform)


# ---------------------------------------------------------------------------
# loop versions of the batched kernels, and exact geometry


def zygmund_seminorm_slices(f: SampledFunction) -> float:
    """``zygmund_seminorm`` with each second difference taken from three
    slices of the samples, ``(v[x+u] - v[x]) - (v[x] - v[x-u])``."""
    v = f.values
    spacing = float(f.spacing)
    best = 0.0
    for u in range(1, (v.size - 1) // 2 + 1):
        d2 = (v[2 * u :] - v[u:-u]) - (v[u:-u] - v[: -2 * u])
        best = max(best, float(np.abs(d2).max()) / (u * spacing))
    return best


def gather(values: np.ndarray, idx: np.ndarray, compact: bool):
    """Samples at integer indices, 0 beyond the ends, and the mask of those
    that exist: every index of a compact function, else those in range."""
    valid = (idx >= 0) & (idx < values.size)
    out = values[np.clip(idx, 0, values.size - 1)]
    if compact:
        return np.where(valid, out, 0.0), np.ones_like(valid)
    return np.where(valid, out, 0.0), valid


def second_difference_gathered(f: SampledFunction, x: np.ndarray, u):
    """Second differences at grid indices ``x`` with steps ``u`` (grid
    units), divided by the step, and the mask of those whose samples all
    exist, read by ``gather``: the oracle of the library's padded table."""
    c, okc = gather(f.values, x, f.compact)
    l, okl = gather(f.values, x - u, f.compact)
    r, okr = gather(f.values, x + u, f.compact)
    return ((r - c) - (c - l)) / (u * float(f.spacing)), okc & okl & okr


def cone_samples_gathered(f: SampledFunction, depth: int):
    """The layers ``functionals._cone_lattice`` walks, through index
    gathers: layer ``n``'s ``(u, d2, ok)`` from ``second_difference_gathered``
    at every grid index with step ``3u``, ``u = 2^(N-n-2)``, for the first
    ``min(depth, N - 1)`` layers."""
    N = f.depth
    s = np.arange(f.values.size, dtype=np.int64)
    for n in range(min(depth, N - 1)):
        u = 1 << (N - n - 2)
        yield (u, *second_difference_gathered(f, s, 3 * u))


def cone_field(f: SampledFunction, eps: float, depth: int) -> np.ndarray:
    """Per-leaf sqrt of the cone mass of ``|d2| > eps``, one level at a time.

    Every (layer, offset) sample of a leaf's cone (``cone_samples_gathered``)
    adds ``(4/9) * val`` to its mass, ``val`` being 1.0 when the sample is
    inside the grid, valid and above ``eps``, else 0.0;
    ``lp_norm(cone_field(f, eps, d), 2)`` is the ``cone_levelset_count``
    table entry at ``(d, eps)``.
    """
    N = f.depth
    acc = np.zeros(1 << N)
    apex = np.arange(1 << N, dtype=np.int64)
    for u, d2, ok in cone_samples_gathered(f, depth):
        for offset in (-2 * u, 0, 2 * u):
            s = apex + offset
            inside = (s >= 0) & (s < d2.size)
            s = np.clip(s, 0, d2.size - 1)
            val = (np.abs(d2[s]) > eps).astype(np.float64) * ok[s] * inside
            acc += (4.0 / 9.0) * val
    return np.sqrt(acc)


def box_energy_gathered(f: SampledFunction, depth: int) -> float:
    """``box_square_energy`` with each layer's centres ``(2i + 1) q`` and
    their ``+-3q`` neighbours read through ``second_difference_gathered``,
    in ``functionals._cone_lattice``'s order of operations."""
    cells = 1 << f.depth
    spacing = float(f.spacing)
    total = 0.0
    for n in range(depth):
        q = cells >> (n + 2)
        if q == 0:
            break
        centers = (2 * np.arange(1 << (n + 1), dtype=np.int64) + 1) * q
        d2, ok = second_difference_gathered(f, centers, 3 * q)
        weight = 2 * q * spacing * math.log(2.0)
        total += weight * float((d2 * d2 * ok).sum())
    return total / (cells * spacing)


def tree_profile_loop(S: DyadicMartingale, parent_size, eps_grid, depths) -> list[list[float]]:
    """``functionals._tree_profile``'s table, one (depth, level) at a time.

    For each entry, one bottom-up pass over the windows: the generation-``m``
    window sums are the ``block_sum`` of the generation-``m + 1`` ones plus
    the volume ``2^-(dim m)`` of each qualifying parent, and the entry is the
    largest window sum divided by its window's volume.
    """
    dim = S.dim
    sizes = [parent_size(S, m) for m in range(max(depths, default=0))]
    table = []
    for d in depths:
        row = [0.0] * len(eps_grid)
        for j, e in enumerate(eps_grid):
            acc = np.zeros((1 << d,) * dim)
            for m in range(d - 1, -1, -1):
                acc = block_sum(acc, dim) + (sizes[m] > e) * 2.0 ** (-dim * m)
                row[j] = max(row[j], float(acc.max()) * 2.0 ** (dim * m))
        table.append(row)
    return table


def level_threshold(eps: float) -> float:
    """The parent-size threshold of a function's level ``eps``: the largest
    float ``t`` with ``2 t <= eps``, found in ``Fraction`` arithmetic (not by
    ``functionals._level_thresholds``).  Non-finite levels are their own
    thresholds."""
    eps = float(eps)
    if not math.isfinite(eps):
        return eps
    half = Fraction(eps) / 2
    t = float(half)  # the nearest float, one below where that is above
    return math.nextafter(t, -math.inf) if Fraction(t) > half else t


def continuous_decompose_loop(f: SampledFunction, eps: float, count: int):
    """One level of ``continuous_decompose``, one translate at a time.

    Returns ``(rough, small, window_small_seminorms)`` as arrays.  Each
    translate's window martingale is built, truncated at ``level_threshold``,
    differenced and integrated by the library's scalar functions, and the
    rough parts are summed in translate order.
    """
    N = f.depth
    stride = (1 << N) // count
    window_points = (4 << N) + 1
    acc = np.zeros((1 << N) + 1)
    seminorms = np.empty(count)
    for i in range(count):
        offset = stride * (2 * i + 1)
        g_vals = np.zeros(window_points)
        g_vals[offset : offset + (1 << N) + 1] = f.values
        g = SampledFunction(g_vals, left=-1, log2_spacing=f.log2_spacing)
        W = average_growth(g)
        B = truncate_jumps(W, level_threshold(eps))
        seminorms[i] = 2.0 * star_norm(martingale_difference(W, B))
        acc += integrate(B, g.left, g.log2_spacing).values[offset : offset + (1 << N) + 1]
    acc /= count
    return acc, f.values - acc, seminorms


def truncation_maxima_loop(S, eps_grid) -> tuple[list[float], list[float]]:
    """Measured distance and rough star norm at every level, by truncation.

    Each level truncates ``S`` at ``level_threshold(eps)`` and takes twice
    the star norm of ``S - B`` and the star norm of ``B``: the loop that
    the dropped-size table ``martingale._dropped`` must equal where
    ``functionals._table_exact`` holds, and the path taken where it does not.
    """
    measured, stars = [], []
    for eps in eps_grid:
        B = truncate_jumps(S, level_threshold(eps))
        measured.append(2.0 * star_norm(martingale_difference(S, B)))
        stars.append(star_norm(B))
    return measured, stars


def dyadic_decompose_loop(f: SampledFunction, eps_grid):
    """``approximation.dyadic_decompose`` one level at a time.

    Yields ``(eps, kept, rough, small, rough_star)`` for every level in grid
    order: truncation of the slope martingale at ``level_threshold``, its
    primitive, ``f`` minus it, and ``star_norm(kept)``, with no level shared.
    """
    S = average_growth(f)
    for eps in eps_grid:
        kept = truncate_jumps(S, level_threshold(eps))
        rough = integrate(kept, f.left, f.log2_spacing)
        small = SampledFunction(
            f.values - rough.values, left=f.left, log2_spacing=f.log2_spacing
        )
        yield float(eps), kept, rough, small, star_norm(kept)


def decompose_rows_loop(f: SampledFunction, eps_grid) -> tuple[list, str | None]:
    """The rows of ``decompose`` checked level by level, and the message of
    the first failing check (``None`` if every level passes).

    Levels ``<= 0`` are skipped; each other level checks ``rough + small ==
    f`` and then ``small_norm <= eps`` on its own arrays.
    """
    rows = []
    for eps, kept, rough, small, rough_star in dyadic_decompose_loop(f, eps_grid):
        if eps <= 0.0:
            continue
        small_norm = 2.0 * star_norm(average_growth(small))
        if not np.array_equal(rough.values + small.values, f.values):
            return rows, "decomposition failed to reproduce the input exactly"
        if not small_norm <= eps:
            return rows, f"small-part seminorm {small_norm} exceeds requested level {eps}"
        rows.append([eps, small_norm, rough_star, bmo_norm(kept)])
    return rows, None


def residual_norms_loop(mu: GridMeasure, levels) -> list[float]:
    """Dyadic norm of ``mu`` minus its truncation, one level at a time:
    truncate, subtract and take the norm of the residual, the loop that
    the dropped-size table ``martingale._dropped`` must equal where
    ``functionals._table_exact`` holds, and the path taken where it does not."""
    S = density_martingale(mu)
    return [
        measure_zygmund_norm(mu - measure_truncate(S, eps), mode="dyadic")
        for eps in levels
    ]


def predecessor_levels_loop(shifts: np.ndarray) -> np.ndarray:
    """``verification._predecessor_levels`` in ten float passes.

    The shift ``alpha = (a + 1/2) 2^-40`` and the points ``alpha -+ 2^-20``
    are formed in float64, and for ``k = 10 .. 1`` the points' floors at
    the cell width ``2^(k - 20)`` are compared; the smallest ``k`` where
    they agree is kept, and 11 where none does.
    """
    alpha = (shifts.astype(np.float64) + 0.5) * 2.0**-40
    lo = alpha - 2.0**-20
    hi = alpha + 2.0**-20
    levels = np.full(shifts.size, 11, dtype=np.int64)
    for k in range(10, 0, -1):
        scale = 2.0 ** (20 - k)
        levels[np.floor(lo * scale) == np.floor(hi * scale)] = k
    return levels


def delta1_samples(mu: GridMeasure, centers: np.ndarray, half: np.ndarray):
    """``verification._delta1_samples`` with corners in bit order.

    Corner ``k`` takes the high end on axis ``a`` when bit ``a`` of ``k`` is
    set, and the total starts from zeros.
    """
    side = 1 << mu.depth
    total = np.zeros(centers.shape[0])
    for corner in range(1 << mu.dim):
        idx = []
        parity = 0
        for a in range(mu.dim):
            if corner >> a & 1:
                parity += 1
                idx.append(np.clip(centers[:, a] + half, 0, side))
            else:
                idx.append(np.clip(centers[:, a] - half, 0, side))
        total += (-1) ** (mu.dim - parity) * mu.table[tuple(idx)]
    return total / (2.0 * half / side) ** mu.dim


def corner_sum(pick, dim: int) -> np.ndarray:
    """Inclusion-exclusion over the corners of a summed-area table, the
    reference for ``measures._corner_sum``.

    Corners come in ``itertools.product`` order, each signed
    ``(-1)^(number of low ends)``: the first term is negated or copied, and
    every later one is added or subtracted in place.
    """
    total = None
    for corner in itertools.product((0, 1), repeat=dim):
        term = pick(corner)
        negative = (dim - sum(corner)) % 2
        if total is None:
            total = -term if negative else term.copy()
        elif negative:
            total -= term
        else:
            total += term
    return total


def box_mass_grid(mu: GridMeasure, lo, hi) -> np.ndarray:
    """Clipped masses of the cubes ``[lo, hi)^dim`` for all index pairs."""
    side = 1 << mu.depth
    ends = (np.clip(lo, 0, side), np.clip(hi, 0, side))
    return corner_sum(
        lambda corner: mu.table[np.ix_(*[ends[c] for c in corner])], mu.dim
    )


def measure_zygmund_steps(mu: GridMeasure) -> list:
    """Each step ``u = 1 .. side/2`` of ``measure_zygmund_norm(mu,
    mode="continuous")``: the largest difference of the box averages at
    half-widths ``u`` and ``2u``.

    Every half-width gathers the clipped inner (side ``2u``) and outer (side
    ``4u``) cube masses around all grid points with ``box_mass_grid``, so
    both box arrays are formed afresh at every step.
    """
    side = 1 << mu.depth
    centers = np.arange(side + 1, dtype=np.int64)
    steps = []
    for u in range(1, (side >> 1) + 1):
        inner = box_mass_grid(mu, centers - u, centers + u) * (side / (2 * u)) ** mu.dim
        outer = box_mass_grid(mu, centers - 2 * u, centers + 2 * u) * (
            side / (4 * u)
        ) ** mu.dim
        steps.append(float(np.abs(inner - outer).max()))
    return steps


def measure_zygmund_norm_loop(mu: GridMeasure) -> float:
    """``measure_zygmund_norm(mu, mode="continuous")``, one half-width at a
    time, every step formed."""
    best = 0.0
    for value in measure_zygmund_steps(mu):
        best = max(best, value)
    return best


def box_lattice(interval, depth: int):
    """Midpoint samples ``(x, h, weight)`` of the box ``I x (0, |I|]``.

    Layer ``n`` (0-based) splits ``I`` into ``2^(n+1)`` cells and represents
    the height band ``[|I| 2^-(n+1), |I| 2^-n)`` by its midpoint
    ``h = 3 |I| 2^-(n+2)``; ``weight`` is the cell width times ``log 2``,
    the exact ``dx dh/h`` mass of the (cell x band) box.  ``x`` and ``h``
    are exact fractions; the reference for ``box_square_energy``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for n in range(depth):
        cells = 1 << (n + 1)
        width = interval.length / cells
        h = 3 * width / 2
        weight = float(width) * math.log(2.0)
        for j in range(cells):
            yield interval.left + (2 * j + 1) * width / 2, h, weight


def unit_tree_distance(a, b) -> int:
    """Tree distance between the dyadic cells ``a = (n, j)`` and ``b = (m, k)``
    of ``[0, 1)``, the reference for ``verification._unit_tree_distance``.

    Climbs from ``a`` through its ancestors, each built as an exact
    ``Fraction`` interval, to the first one whose interval contains ``b``'s.
    """
    (n, j), (m, k) = a, b
    b_left, b_right = Fraction(k, 1 << m), Fraction(k + 1, 1 << m)
    a_left = Fraction(j, 1 << n)
    for p in range(min(n, m), -1, -1):
        width = Fraction(1, 1 << p)
        left = a_left // width * width
        if left <= b_left and b_right <= left + width:
            return (n - p) + (m - p)
    raise ValueError("cells must lie in [0, 1)")


# ---------------------------------------------------------------------------
# paper-claim helpers


def bmo_density(S: DyadicMartingale) -> float:
    """The windowed jump energy density whose square root is ``bmo_norm``,
    without its bottom-up carry: each cell ``I`` of generations ``0 .. N -
    1`` sums ``jump^2 |J|`` over its proper descendants ``J`` on its own,
    one generation at a time, and the largest sum over ``|I|`` is returned.
    Exact where the squared jumps sum exactly, as on the generators'
    lattices; ``bmo_norm(S) ** 2`` rounds twice more."""
    dim, best = S.dim, 0.0
    for m in range(S.depth):
        energy = np.zeros((1 << m,) * dim)
        for n in range(m + 1, S.depth + 1):
            dj = S.jumps(n)
            blocks = (dj * dj * 2.0 ** (-dim * n)).reshape((1 << m, 1 << (n - m)) * dim)
            energy += blocks.sum(axis=tuple(range(1, 2 * dim, 2)))
        best = max(best, float(energy.max()) * 2.0 ** (dim * m))
    return best


def _spread(arr: np.ndarray, dim: int, factor: int) -> np.ndarray:
    """Each entry repeated ``factor`` times along every axis."""
    for axis in range(dim):
        arr = np.repeat(arr, factor, axis=axis)
    return arr


def quadratic_characteristic(S: DyadicMartingale) -> np.ndarray:
    """Per-leaf square function: sqrt of the summed squared jumps above the
    leaf, added generation by generation at leaf size."""
    acc = np.zeros_like(S.levels[-1])
    for n in range(1, S.depth + 1):
        dj = S.jumps(n)
        acc += _spread(dj * dj, S.dim, 1 << (S.depth - n))
    return np.sqrt(acc)


def maximal_function(S: DyadicMartingale) -> np.ndarray:
    """Per-leaf maximal deviation ``max_n |S_n - S_0|`` of the value
    sequence, folded generation by generation at leaf size."""
    acc = np.zeros_like(S.levels[-1])
    for n in range(1, S.depth + 1):
        dev = np.abs(S.levels[n] - S.root_value)
        np.maximum(acc, _spread(dev, S.dim, 1 << (S.depth - n)), out=acc)
    return acc


def random_martingale_loop(depth: int, seed: int) -> list[np.ndarray]:
    """The levels of ``random_martingale(depth, seed)``, drawn and split one
    generation at a time: the root, then each generation's steps and signs
    from the ``(seed, 2)`` Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
    levels = [np.full(1, float(rng.integers(-256, 257) * Fraction(1, 256)))]
    for n in range(depth):
        steps = rng.integers(0, 4097, size=2**n)
        signs = rng.integers(0, 2, size=2**n).astype(np.float64) * 2.0 - 1.0
        jump = steps * 2.0**-14 * signs
        child = np.empty(2 ** (n + 1))
        child[0::2] = levels[-1] + jump
        child[1::2] = levels[-1] - jump
        levels.append(child)
    return levels


def translation_average(members, R: int) -> SampledFunction:
    """Average of ``R 2^N`` translated unit-interval functions over [-R, R).

    The shift range is split into midpoint bins two grid cells wide; member
    ``i`` is evaluated at ``x + alpha_i`` (zero off its support) and the
    results averaged, giving a function sampled on ``[-R, 1 + R]`` at the
    members' spacing.
    """
    if R < 1:
        raise ValueError("R must be a positive integer")
    N = members[0].depth
    M = R << N
    acc = np.zeros(((1 + 2 * R) << N) + 1)
    for i in range(M):
        member = members[i]
        if member.values.size != (1 << N) + 1 or (member.left, member.right) != (0, 1):
            raise ValueError("family members must share the unit-interval grid")
        base = (2 * R << N) - 2 * i - 1
        acc[base : base + (1 << N) + 1] += member.values
    acc /= M
    return SampledFunction(acc, left=-R, log2_spacing=-N)


def thresholded_jump_count(S: DyadicMartingale, eps: float) -> np.ndarray:
    """Per-leaf sqrt of the number of generations whose jump exceeds ``eps``
    (1-d martingales)."""
    counts = np.zeros(S.leaf.size, dtype=np.int64)
    for n in range(1, S.depth + 1):
        counts += np.repeat(np.abs(S.jumps(n)) > eps, 1 << (S.depth - n))
    return np.sqrt(counts.astype(np.float64))


def window_parseval(S: DyadicMartingale, generation: int, index) -> tuple[float, float]:
    """Orthogonality check data for one window cell.

    Returns ``(jump_energy, oscillation)`` where ``jump_energy`` sums
    ``jump^2 * |J|`` over cells strictly inside the window and
    ``oscillation`` is the integral over the window of the squared deviation
    of the leaf field from the window value.  The two agree exactly in
    arithmetic without rounding.
    """
    dim = S.dim
    if isinstance(index, int):
        index = (index,) * dim
    depth = S.depth
    energy = 0.0
    for n in range(generation + 1, depth + 1):
        factor = 1 << (n - generation)
        sl = tuple(slice(k * factor, (k + 1) * factor) for k in index)
        dj = S.jumps(n)[sl]
        energy += float((dj * dj).sum()) * 2.0 ** (-dim * n)
    factor = 1 << (depth - generation)
    sl = tuple(slice(k * factor, (k + 1) * factor) for k in index)
    dev = S.leaf[sl] - S.levels[generation][index]
    oscillation = float((dev * dev).sum()) * 2.0 ** (-dim * depth)
    return energy, oscillation


# ---------------------------------------------------------------------------
# each certificate's lattice-exactness verdict, restated without the shared rule,
# and the former dropped-size rules


def lattice_exponents(values: np.ndarray) -> tuple[int, int] | None:
    """``(q, a)`` of finite ``values``, or None when all are 0: every value
    is a multiple of ``2^-q`` and ``max|v| < 2^(a - q)``."""
    nonzero = values[values != 0.0]
    if not nonzero.size:
        return None
    mantissa, exponent = np.frexp(nonzero)  # |v| < 2^exponent
    digits = np.abs(mantissa * 2.0**53).astype(np.int64)
    trailing = np.frexp((digits & -digits).astype(np.float64))[1] - 1
    q = int((53 - exponent - trailing).max())
    return q, int(exponent.max()) + q


def sweep_takes_int32(values: np.ndarray) -> bool:
    """``functionals._sweep_values``: int32 numerators, or float64."""
    lattice = lattice_exponents(values) if np.isfinite(values).all() else None
    if lattice is None:
        return False
    q, a = lattice
    return a + 2 <= 31 and a + 2 - q <= 1023


def tree_exact(f: SampledFunction) -> bool:
    """The former function rule of the dropped-size table: every
    intermediate a multiple of ``2^-(q + s)`` below ``2^(a + N + 5)`` of
    them, for a span of length ``2^s``."""
    if not np.isfinite(f.values).all():
        return False
    lattice = lattice_exponents(f.values)
    if lattice is None:
        return True
    q, a = lattice
    N = f.depth
    s = N + f.log2_spacing
    bits = a + N + 5
    return bits <= 53 and q + s <= 1074 and bits - (q + s) <= 1023


def truncation_exact(mu: GridMeasure, top: float) -> bool:
    """The former measure rule of the dropped-size table, at levels whose
    largest dropped deviation is at most ``top``: non-negative masses
    ``k 2^-q`` with ``k < 2^a``, total ``T`` and largest density ``M`` at
    depth ``N`` in dimension ``d``; the block sums are multiples of
    ``2^(dN - q)`` below ``T 2^q`` of them, the jumps below ``T 2^(q + d)``
    quanta ``2^-q``, the kept levels below ``(M + N top) 2^q`` (and the kept
    masses below as many quanta ``2^-(q + dN)``), the residual's block sums
    below ``2^d N top 2^q``."""
    masses = mu.masses
    S = density_martingale(mu)
    if not np.isfinite(masses).all() or not math.isfinite(S.root_value) or (masses < 0.0).any():
        return False
    lattice = lattice_exponents(masses)
    q, a = lattice if lattice is not None else (0, 0)
    d, N = mu.dim, mu.depth

    def bits(bound):  # a b with bound < 2^b quanta 2^-q
        quanta = Fraction(bound) * Fraction(2) ** q
        return quanta.numerator.bit_length() - quanta.denominator.bit_length() + 1

    sums = bits(S.root_value)
    kept = bits(Fraction(float(S.leaf.max())) + N * Fraction(top))
    widest = max(sums + d, kept, bits((N << d) * Fraction(top)))
    families = [(sums, -d * N), (widest, 0), (kept, d * N)]
    return all(
        b <= 53 and q + shift <= 1074 and b - (q + shift) <= 1023 for b, shift in families
    )


def lattice_exact(values: np.ndarray, count: int) -> bool:
    """``approximation._lattice_exact`` restated in integers, for samples
    that vanish at both ends (the functions ``continuous_decompose`` takes).

    With the samples as integers ``g = f 2^q`` (zero outside ``[0, M]``), a
    window jump at generation ``n`` is ``2^(n-3-q)`` times a second
    difference ``g(t) - 2 g(t + c) + g(t + 2c)`` of step ``c = 2^(N+2-n)``;
    ``m_n`` is the largest over every ``t``.  Each family's bound is then an
    integer number of quanta and its digits a bit length: the jumps ``6A``
    quanta, the class-kernel sums ``2 count S`` with ``S = sum_n m_n 2^(n-1)``
    quanta ``2^-(q+2)``, and the small part ``count (A 2^(N+2) + 2^(N+1)
    sum_n m_n)`` quanta ``2^-(q+N+2)``.
    """
    if not np.isfinite(values).all():
        return False
    lattice = lattice_exponents(values)
    if lattice is None:
        return True
    q, a = lattice
    M = values.size - 1
    N = M.bit_length() - 1
    g = [int(Fraction(v) * Fraction(2) ** q) for v in values.tolist()]
    g = np.array([0] * (4 * M) + g + [0] * (4 * M), dtype=object)
    m = []
    for n in range(1, N + 3):
        c = 1 << (N + 2 - n)
        t = np.arange(4 * M - 2 * c, 5 * M + 1)  # the points t - 4M in [-2c, M]
        second = g[t] - 2 * g[t + c] + g[t + 2 * c]
        m.append(max(abs(x) for x in second.tolist()))
    S = sum(m_n << (n - 1) for n, m_n in enumerate(m, 1))
    A = max(abs(x) for x in g.tolist())
    families = [
        (a + 3, 2),  # jumps, finest quantum
        (a + 3, 1 - N),  # jumps, largest magnitude
        ((2 * count * S).bit_length(), 2),
        ((count * ((A << (N + 2)) + (sum(m) << (N + 1)))).bit_length(), N + 2),
    ]
    return all(
        bits <= 53 and q + shift <= 1074 and bits - (q + shift) <= 1023
        for bits, shift in families
    )


# ---------------------------------------------------------------------------
# report encoding


def reference_json(value) -> str:
    """The report bytes of ``value`` through the standard library encoder."""
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"
