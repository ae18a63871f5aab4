"""Box averages, second differences and truncation for grid measures.

A grid measure assigns a (possibly signed) mass to every cell of the
``2^depth`` dyadic subdivision of the unit cube.  The analogue of the second
difference compares the box average ``mass(Q) / side^dim`` of a cube with
that of its double or its dyadic parent; measures of Zygmund type have these
differences uniformly bounded.

Truncation keeps, parent by parent, exactly the child fluctuations whose
largest deviation exceeds a level, producing a nearby measure whose
difference from the original has all dyadic second differences at most that
level.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from zygdist.functionals import DepthProfile, _tree_profile
from zygdist.martingale import DyadicMartingale, _block_reduce, _expand, star_norm

__all__ = [
    "GridMeasure",
    "density_martingale",
    "measure_tree_levelset_density",
    "measure_truncate",
    "measure_zygmund_norm",
]


@functools.cache
def _corners(dim: int) -> tuple:
    """The ``2^dim`` corners in ``itertools.product`` order, each with the
    ufunc that accumulates its term: ``np.subtract`` for an odd number of
    low ends, ``np.add`` otherwise."""
    return tuple(
        (corner, np.subtract if (dim - sum(corner)) % 2 else np.add)
        for corner in itertools.product((0, 1), repeat=dim)
    )


def _corner_sum(pick, dim: int) -> np.ndarray:
    """Inclusion-exclusion over the ``2^dim`` corners of a summed-area table.

    ``pick(corner)`` reads the table at one corner, given as a tuple with 0
    (low end) or 1 (high end) per axis.  Corners are visited in
    ``itertools.product`` order, each signed ``(-1)^(number of low ends)``.
    The first two corners, which carry opposite signs, seed the total in one
    ``np.subtract``; the rest accumulate in place.  Since ``-a + b == b - a``
    and ``a.copy() - b == a - b`` in IEEE arithmetic, the bits are those of
    negating or copying the first term and adding the second.
    """
    (first, _), (second, _), *rest = _corners(dim)
    if dim % 2:  # the first corner, all low ends, is subtracted
        total = np.subtract(pick(second), pick(first))
    else:
        total = np.subtract(pick(first), pick(second))
    for corner, accumulate in rest:
        accumulate(total, pick(corner), out=total)
    return total


class GridMeasure:
    """Signed mass field on the dyadic cells of the unit cube."""

    __slots__ = ("masses", "dim", "depth", "_table")

    def __init__(self, masses):
        masses = np.asarray(masses, dtype=np.float64)
        side = masses.shape[0]
        if masses.shape != (side,) * masses.ndim:
            raise ValueError("mass field must be a cube")
        depth = side.bit_length() - 1
        if side != 1 << depth:
            raise ValueError("side length must be a power of two")
        self.masses = masses
        self.dim = masses.ndim
        self.depth = depth
        self._table = None

    @property
    def table(self) -> np.ndarray:
        """Summed-area table, built on first read and kept.

        Prefix sums along every axis, each with a leading row of zeros, so
        ``table[i_1, ..., i_d]`` is the mass of ``[0, i_1) x ... x [0, i_d)``.
        """
        if self._table is None:
            table = self.masses
            for axis in range(self.dim):
                table = np.cumsum(table, axis=axis)
                pad = [(0, 0)] * self.dim
                pad[axis] = (1, 0)
                table = np.pad(table, pad)
            self._table = table
        return self._table

    @property
    def total(self) -> float:
        return float(self.table[(-1,) * self.dim])

    def box_mass_grid(self, lo_axes, hi_axes) -> np.ndarray:
        """Masses of the product boxes ``[lo, hi)`` per axis, clipped.

        ``lo_axes[a]`` and ``hi_axes[a]`` are 1-d index arrays; the result
        has shape ``(len(lo_axes[0]), ..., len(lo_axes[dim-1]))``.
        """
        side = 1 << self.depth
        ends = [
            [np.clip(np.asarray(i, dtype=np.int64), 0, side) for i in pair]
            for pair in zip(lo_axes, hi_axes)
        ]
        return _corner_sum(
            lambda corner: self.table[np.ix_(*[e[c] for e, c in zip(ends, corner)])],
            self.dim,
        )

    def __sub__(self, other: "GridMeasure") -> "GridMeasure":
        if self.masses.shape != other.masses.shape:
            raise ValueError("measures must share the grid")
        return GridMeasure(self.masses - other.masses)

    def __repr__(self):
        return f"GridMeasure(dim={self.dim}, depth={self.depth}, total={self.total:g})"


def density_martingale(mu: GridMeasure) -> DyadicMartingale:
    """Box-average martingale of the measure (leaf density, block means up)."""
    return DyadicMartingale.from_leaf(
        mu.masses * 2.0 ** (mu.dim * mu.depth), dim=mu.dim
    )


def _centred_box_masses(ext: np.ndarray, side: int, r: int) -> np.ndarray:
    """Clipped masses of the cubes ``[c - r, c + r)`` for every grid point
    ``c``.

    ``ext`` is the summed-area table read at the clipped indices
    ``-side .. 2 side`` on every axis, so each corner of every box is one
    slice (a view).
    """
    ends = (slice(side - r, 2 * side + 1 - r), slice(side + r, 2 * side + 1 + r))
    return _corner_sum(lambda corner: ext[tuple(ends[c] for c in corner)], ext.ndim)


def _centred_box_averages(ext: np.ndarray, side: int, r: int, scale: float) -> np.ndarray:
    """The box masses at half-width ``r`` times ``scale``, the inverse
    volume ``(side / (2r))^dim`` of the cube."""
    boxes = _centred_box_masses(ext, side, r)
    boxes *= scale
    return boxes


def _step_bounds(mu: GridMeasure, ext: np.ndarray, scales: list) -> list:
    """An upper bound on each step ``u = 1 .. side/2`` of the continuous sweep.

    ``scales[r]`` is the scale ``s_r = (side / (2r))^d`` of the masses at
    half-width ``r``.  Let every mass be finite and non-negative with a finite
    total ``t``, ``n = side``, ``eps = 2^-53``, and ``d n <= 2^40``.

    * A sum of ``k`` non-negative terms, in any order, is off by at most
      ``(k - 1) eps`` times their sum, so after ``d`` ``cumsum`` passes each
      table entry is within ``d n eps t``.  A box mass adds ``2^d`` signed
      entries in ``2^d - 1`` operations with partial sums at most
      ``2^(d-1) t``, so it is within ``2^d (d n + 2^(d-1)) eps t`` of the
      exact mass, to first order.  ``E = fl(2^d (d n + 2^d) t) 2^-52`` is at
      least twice that, covering higher orders and the rounding of ``t`` and
      ``E``: if the product with ``2^-52`` underflows, it rounds to a multiple
      of ``2^-1074`` no smaller than the error, itself one.  An overflow
      makes ``E``, and every bound, infinite.
    * Exact masses are non-negative and grow with the cube.  With ``D*(v)``
      the largest computed mass at ``v = 1, 2, 4, ..., n``, ``p(r)`` the
      smallest power of two ``>= r`` and ``H(v)`` the float above
      ``fl(D*(v) + 2E)``, a mass at ``r`` is within ``E`` of an exact mass
      no larger than the one at ``p(r)`` around the same point, so it lies in
      ``[-E, H(p(r))]``.  Rounding is monotone, so every box average at
      ``r`` lies in ``[-lo_r, hi_r]``, ``lo_r = fl(E s_r)`` and
      ``hi_r = fl(H(p(r)) s_r)``; step ``u``, the largest
      ``|fl(A_u - A_2u)|``, is at most ``fl(max(hi_u, hi_2u) + lo_u)``, as
      ``lo_r`` falls when ``r`` grows.

    Signed masses or a non-finite total give ``+inf`` for every step.  Costs
    ``depth + 1`` box arrays.
    """
    side, d, total = 1 << mu.depth, mu.dim, mu.total
    half = side >> 1
    if not (np.all(mu.masses >= 0.0) and np.isfinite(total)):
        return [np.inf] * half
    error = (1 << d) * (d * side + (1 << d)) * total * 2.0**-52
    peaks = [_centred_box_masses(ext, side, 1 << j).max() for j in range(mu.depth + 1)]
    scale = np.array(scales[1:])
    # r in (2^(j-1), 2^j] reads H(2^j)
    highs = np.nextafter(np.add(peaks, 2 * error), np.inf)
    highs = np.repeat(highs, [1] + [1 << j for j in range(mu.depth)]) * scale
    return (np.maximum(highs[:half], highs[1::2]) + error * scale[:half]).tolist()


def measure_zygmund_norm(mu: GridMeasure, mode: str = "dyadic") -> float:
    """Largest second difference of box averages.

    ``dyadic`` mode maximises the child-parent deviation over all dyadic
    cells.  ``continuous`` mode sweeps centred cubes on all grid points with
    all half-widths ``u = 1 .. side/2`` (clipped at side 1/2), comparing each
    cube with its double, the double read with zero extension.

    The double at half-width ``u`` is the cube at ``2u``, with the same
    slices and the same scale, so the sweep walks doubling chains
    ``u = o, 2o, 4o, ...`` for each odd ``o`` and carries each box-average
    array forward as the next step's inner array.  A step whose
    ``_step_bounds`` entry is at most the best value so far cannot raise it
    and is skipped.  The maximum of the same differences is order-free, so
    the result equals the step-by-step sweep bit for bit.  On signed masses
    or a non-finite total it forms ``3 side / 4`` box arrays, ``O(2^(dim*depth)
    * 2^depth)`` work, on one summed-area table of ``(3 * 2^depth + 1)^dim``
    floats; on ``generate`` cascades 44 to 952 of 12,288 at 1-d depth 14
    (seeds 0, 3, 7, 11), and 17 of 768 at 2-d depth 10 (seed 7).
    """
    if mode == "dyadic":
        return star_norm(density_martingale(mu))
    if mode != "continuous":
        raise ValueError("mode must be 'dyadic' or 'continuous'")
    side = 1 << mu.depth
    half = side >> 1
    idx = np.clip(np.arange(-side, 2 * side + 1), 0, side)
    ext = mu.table[np.ix_(*[idx] * mu.dim)]
    # the scalar expression, not a vectorised power: NumPy's square differs
    # from float ** 2 at some r, and each box array is scaled by these values
    scales = [0.0] + [(side / (2 * r)) ** mu.dim for r in range(1, side + 1)]
    bounds = _step_bounds(mu, ext, scales)
    best = 0.0
    for odd in range(1, half + 1, 2):
        u, inner = odd, None
        while u <= half:
            if bounds[u - 1] <= best:
                inner = None
            else:
                if inner is None:
                    inner = _centred_box_averages(ext, side, u, scales[u])
                outer = _centred_box_averages(ext, side, 2 * u, scales[2 * u])
                np.subtract(inner, outer, out=inner)
                best = max(best, float(np.abs(inner, out=inner).max()))
                inner = outer
            u *= 2
    return best


def _parent_deviation(dj: np.ndarray, dim: int) -> np.ndarray:
    """Per-parent largest child jump magnitude of the ``dim``-d jump field ``dj``."""
    return _block_reduce(np.abs(dj), dim, np.maximum)


def measure_tree_levelset_density(S: DyadicMartingale, eps_grid, depths) -> DepthProfile:
    """Tree level-set density of a measure at every (depth, level).

    ``S`` is the measure's ``density_martingale``.  A cell qualifies when
    the box average of one of its children deviates from its own by more
    than the level (``_parent_deviation``).  The table is
    ``functionals._tree_profile``'s, as for functions.
    """
    return _tree_profile(
        S, lambda S, m: _parent_deviation(S.jumps(m + 1), S.dim), eps_grid, depths
    )


def measure_truncate(S: DyadicMartingale, eps: float) -> GridMeasure:
    """Nearby measure keeping exactly the large-deviation refinements.

    ``S`` is the ``density_martingale`` of a measure ``mu``.  For each
    parent cell, the child fluctuations are kept in full when the largest
    child deviation (``_parent_deviation``) exceeds ``eps`` and dropped in
    full otherwise (keeping all or none preserves the averaging structure).
    Every dyadic second difference of ``mu - result`` is then at most
    ``eps``.
    """
    d = S.dim
    level = S.levels[0].copy()
    for n in range(1, S.depth + 1):
        dj = S.jumps(n)  # formed once: the deviation and the kept jumps read it
        keep = _expand(_parent_deviation(dj, d) > eps, d)
        level = _expand(level, d) + keep * dj
    return GridMeasure(level * 2.0 ** (-d * S.depth))
