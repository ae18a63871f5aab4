"""Box averages, second differences and truncation for grid measures.

A grid measure assigns a (possibly signed) mass to every cell of the
``2^depth`` dyadic subdivision of the unit cube.  The analogue of the second
difference compares the box average ``delta1(Q) = mass(Q) / side^dim`` of a
cube with that of its double or its dyadic parent; measures of Zygmund type
have these differences uniformly bounded.

Truncation keeps, parent by parent, exactly the child fluctuations whose
largest deviation exceeds a level, producing a nearby measure whose
difference from the original has all dyadic second differences at most that
level.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from zygdist.functionals import _LN2
from zygdist.martingale import DyadicMartingale, _block_sum, _expand

__all__ = [
    "GridMeasure",
    "delta1",
    "delta2",
    "delta2_dyadic",
    "delta2_max",
    "density_martingale",
    "measure_box_levelset_density",
    "measure_box_square_energy",
    "measure_tree_levelset_density",
    "measure_truncate",
    "measure_zygmund_norm",
]


def _block_max(arr: np.ndarray, dim: int) -> np.ndarray:
    """Maximum over 2x...x2 blocks, halving every axis."""
    for axis in range(dim):
        shape = arr.shape
        arr = arr.reshape(
            shape[:axis] + (shape[axis] // 2, 2) + shape[axis + 1 :]
        ).max(axis=axis + 1)
    return arr


def _summed_area(field: np.ndarray) -> np.ndarray:
    """Prefix sums along every axis, with a leading row of zeros on each."""
    table = field
    for axis in range(field.ndim):
        table = np.cumsum(table, axis=axis)
        pad = [(0, 0)] * field.ndim
        pad[axis] = (1, 0)
        table = np.pad(table, pad)
    return table


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
        self._table = _summed_area(masses)

    @property
    def total(self) -> float:
        return float(self._table[(-1,) * self.dim])

    def box_mass(self, lo, hi) -> float:
        """Mass of the half-open index box ``[lo, hi)``, clipped to the cube."""
        lo = np.clip(np.asarray(lo, dtype=np.int64), 0, 1 << self.depth)
        hi = np.clip(np.asarray(hi, dtype=np.int64), 0, 1 << self.depth)
        if np.any(hi <= lo):
            return 0.0
        total = 0.0
        for corner in itertools.product((0, 1), repeat=self.dim):
            idx = tuple(hi[a] if corner[a] else lo[a] for a in range(self.dim))
            total += (-1) ** (self.dim - sum(corner)) * self._table[idx]
        return float(total)

    def box_mass_grid(self, lo_axes, hi_axes) -> np.ndarray:
        """Masses of the product boxes ``[lo, hi)`` per axis, clipped.

        ``lo_axes[a]`` and ``hi_axes[a]`` are 1-d index arrays; the result
        has shape ``(len(lo_axes[0]), ..., len(lo_axes[dim-1]))``.
        """
        side = 1 << self.depth
        lo_axes = [np.clip(np.asarray(lo, dtype=np.int64), 0, side) for lo in lo_axes]
        hi_axes = [np.clip(np.asarray(hi, dtype=np.int64), 0, side) for hi in hi_axes]
        total = np.zeros(tuple(lo.size for lo in lo_axes))
        for corner in itertools.product((0, 1), repeat=self.dim):
            picks = [
                hi_axes[a] if corner[a] else lo_axes[a] for a in range(self.dim)
            ]
            grids = np.ix_(*picks)
            total += (-1) ** (self.dim - sum(corner)) * self._table[grids]
        return total

    def cell_mass(self, generation: int, index) -> float:
        """Mass of the dyadic cell ``index`` at ``generation``."""
        index = np.asarray(index, dtype=np.int64).reshape(self.dim)
        width = 1 << (self.depth - generation)
        return self.box_mass(index * width, (index + 1) * width)

    def __sub__(self, other: "GridMeasure") -> "GridMeasure":
        if self.masses.shape != other.masses.shape:
            raise ValueError("measures must share the grid")
        return GridMeasure(self.masses - other.masses)

    def __repr__(self):
        return f"GridMeasure(dim={self.dim}, depth={self.depth}, total={self.total:g})"


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
    return mu.box_mass(lo, hi) / float(Fraction(h)) ** mu.dim


def delta2(mu: GridMeasure, x, h) -> float:
    """Second difference of box averages: ``delta1(x, h) - delta1(x, 2h)``."""
    return delta1(mu, x, h) - delta1(mu, x, 2 * Fraction(h))


def delta2_dyadic(mu: GridMeasure, generation: int, index) -> float:
    """Deviation of a dyadic cell's box average from its parent's."""
    if generation < 1:
        raise ValueError("the root cell has no parent")
    index = np.asarray(index, dtype=np.int64).reshape(mu.dim)
    child = mu.cell_mass(generation, index) * 2.0 ** (generation * mu.dim)
    parent = mu.cell_mass(generation - 1, index // 2) * 2.0 ** (
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


def density_martingale(mu: GridMeasure) -> DyadicMartingale:
    """Box-average martingale of the measure (leaf density, block means up)."""
    return DyadicMartingale.from_leaf(
        mu.masses * 2.0 ** (mu.dim * mu.depth), dim=mu.dim
    )


def _centred_box_masses(ext: np.ndarray, side: int, r: int) -> np.ndarray:
    """Clipped masses of the cubes ``[c - r, c + r)`` for every grid point ``c``.

    ``ext`` is the summed-area table read at the clipped indices
    ``-side .. 2 side`` on every axis, so each corner of every box is one
    slice (a view).  Corners are visited in the order and with the signs of
    ``GridMeasure.box_mass_grid``, which gives the same sums up to the sign
    of a zero.
    """
    lo = slice(side - r, 2 * side + 1 - r)
    hi = slice(side + r, 2 * side + 1 + r)
    dim = ext.ndim
    total = None
    for corner in itertools.product((0, 1), repeat=dim):
        term = ext[tuple(hi if c else lo for c in corner)]
        negative = (dim - sum(corner)) % 2
        if total is None:
            total = -term if negative else term.copy()
        elif negative:
            total -= term
        else:
            total += term
    return total


def measure_zygmund_norm(mu: GridMeasure, mode: str = "dyadic") -> float:
    """Largest second difference of box averages.

    ``dyadic`` mode maximises the child-parent deviation over all dyadic
    cells.  ``continuous`` mode sweeps centred cubes on all grid points with
    all even side lengths (clipped at side 1/2), comparing each cube with
    its double, the double read with zero extension.  It does
    ``O(2^(dim*depth) * 2^depth)`` work on one extended summed-area table of
    ``(3 * 2^depth + 1)^dim`` floats.
    """
    if mode == "dyadic":
        S = density_martingale(mu)
        best = 0.0
        for n in range(1, mu.depth + 1):
            best = max(best, float(np.abs(S.jumps(n)).max()))
        return best
    if mode != "continuous":
        raise ValueError("mode must be 'dyadic' or 'continuous'")
    side = 1 << mu.depth
    dim = mu.dim
    idx = np.clip(np.arange(-side, 2 * side + 1), 0, side)
    ext = mu._table[np.ix_(*[idx] * dim)]
    best = 0.0
    for u in range(1, (side >> 1) + 1):
        inner = _centred_box_masses(ext, side, u) * (side / (2 * u)) ** dim
        outer = _centred_box_masses(ext, side, 2 * u) * (side / (4 * u)) ** dim
        best = max(best, float(np.abs(inner - outer).max()))
    return best


def _parent_deviation(S: DyadicMartingale, generation: int) -> np.ndarray:
    """Per-parent largest child jump magnitude at ``generation + 1``."""
    return _block_max(np.abs(S.jumps(generation + 1)), S.dim)


def measure_tree_levelset_density(mu: GridMeasure, eps: float, depth: int) -> float:
    """Largest windowed measure of cells with a large child deviation.

    A cell ``P`` qualifies when ``delta2_max(mu, P) > eps``.  For every
    dyadic window ``Q`` of generation ``0..depth``, the volumes of
    qualifying ``P`` inside ``Q`` with ``generation(P) < depth`` are summed
    and divided by ``|Q|``; returns the maximum over windows.
    """
    if not 1 <= depth <= mu.depth:
        raise ValueError(f"depth must be in [1, {mu.depth}]")
    S = density_martingale(mu)
    d = mu.dim
    best = 0.0
    acc = np.zeros((1 << depth,) * d)
    for m in range(depth - 1, -1, -1):
        qual = _parent_deviation(S, m) > eps
        acc = _block_sum(acc, d) + qual * 2.0 ** (-d * m)
        best = max(best, float(acc.max()) * 2.0 ** (d * m))
    return best


def _box_layer_indicator(mu: GridMeasure, q: int):
    """Second differences on the global box lattice with quarter-width ``q``.

    Samples ``delta2`` at cube centres ``(2 i + 1) q`` (per axis) with side
    ``3 q`` grid cells; ``q`` must be even so the corners are grid points.
    """
    side = 1 << mu.depth
    centers = (2 * np.arange(side // (2 * q), dtype=np.int64) + 1) * q
    t = 3 * q // 2
    inner = mu.box_mass_grid([centers - t] * mu.dim, [centers + t] * mu.dim) * (
        side / (3 * q)
    ) ** mu.dim
    outer = mu.box_mass_grid(
        [centers - 2 * t] * mu.dim, [centers + 2 * t] * mu.dim
    ) * (side / (6 * q)) ** mu.dim
    return inner - outer


def _box_functional(mu: GridMeasure, depth: int, per_sample) -> float:
    """Max over dyadic windows of the weighted box-lattice sum of a sample map."""
    N = mu.depth
    d = mu.dim
    layer_values: dict[int, np.ndarray] = {}
    best = 0.0
    for g in range(min(depth, N - 3) + 1):
        acc = np.zeros((1 << g,) * d)
        for n in range(min(depth - 1, N - g - 3) + 1):
            p = N - g - n - 2
            if p not in layer_values:
                field = per_sample(_box_layer_indicator(mu, 1 << p))
                layer_values[p] = _summed_area(field)
            table = layer_values[p]
            edges = np.arange((1 << g) + 1, dtype=np.int64) * (1 << (n + 1))
            sums = np.zeros((1 << g,) * d)
            for corner in itertools.product((0, 1), repeat=d):
                picks = [edges[1:] if corner[a] else edges[:-1] for a in range(d)]
                sums += (-1) ** (d - sum(corner)) * table[np.ix_(*picks)]
            cell_volume = (2.0 ** (p + 1 - N)) ** d
            acc += sums * cell_volume * _LN2
        best = max(best, float(acc.max()) * 2.0 ** (d * g))
    return best


def measure_box_levelset_density(mu: GridMeasure, eps: float, depth: int) -> float:
    """Largest windowed box mass of the level set ``|delta2| > eps``."""
    return _box_functional(
        mu, depth, lambda d2: (np.abs(d2) > eps).astype(np.float64)
    )


def measure_box_square_energy(mu: GridMeasure, depth: int) -> float:
    """Largest windowed box integral of the squared second difference."""
    return _box_functional(mu, depth, lambda d2: d2 * d2)


def measure_truncate(mu: GridMeasure, eps: float) -> GridMeasure:
    """Nearby measure keeping exactly the large-deviation refinements.

    For each parent cell, the child fluctuations are kept in full when the
    largest child deviation exceeds ``eps`` and dropped in full otherwise
    (keeping all or none preserves the averaging structure).  Every dyadic
    second difference of ``mu - result`` is then at most ``eps``.
    """
    S = density_martingale(mu)
    d = mu.dim
    level = S.levels[0].copy()
    for n in range(1, mu.depth + 1):
        dj = S.jumps(n)
        keep = _expand(_block_max(np.abs(dj), d) > eps, d)
        level = _expand(level, d) + keep * dj
    return GridMeasure(level * 2.0 ** (-d * mu.depth))
