"""Sampled functions and the dyadic averaging martingales they generate.

A continuous function sampled on a power-of-two grid over a dyadic root
interval induces a martingale whose value on a cell is the average growth
(slope) of the function there.  Jumps of that martingale encode second-order
differences of the function: the second difference across a parent cell
equals twice the jump picked up by either child, with opposite signs on the
two siblings.  The functionals below (star norm, dyadic BMO norm) are read
off the jump field.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from zygdist.dyadic import RealInterval, _coerce

__all__ = [
    "DyadicMartingale",
    "SampledFunction",
    "average_growth",
    "bmo_norm",
    "dyadic_zygmund_seminorm",
    "integrate",
    "star_norm",
]


def _lattice_exponents(values: np.ndarray) -> tuple[int, int] | None:
    """The smallest ``(q, a)`` with every value a multiple of ``2^-q`` below
    ``2^(a - q)``: ``(0, 0)`` if all are zero, ``None`` if one is not finite.
    ``q`` may exceed 1023, so it is found with ``np.frexp`` and integer
    arithmetic, one scan with the temporaries freed as it goes."""
    if not np.isfinite(values).all():
        return None
    nonzero = values[values != 0.0]
    if not nonzero.size:
        return 0, 0
    mantissa, exponent = np.frexp(nonzero)  # |v| < 2^exponent
    del nonzero
    top = int(exponent.max())
    # |v| = k 2^(exponent - 53), with k an integer below 2^53
    np.abs(mantissa, out=mantissa)
    mantissa *= 2.0**53
    k = mantissa.astype(np.int64)
    del mantissa
    lowest = np.negative(k)
    lowest &= k  # 2^t for the t trailing zero bits of k, whose frexp exponent is t + 1
    del k
    exponent += np.frexp(lowest)[1]
    del lowest
    q = 54 - int(exponent.min())  # the largest 53 - exponent - t
    return q, top + q


def _lattice_quantum(lattice: tuple[int, int] | None, digits: int, *families) -> int | None:
    """The one lattice-exactness rule: ``q`` when every intermediate is exact.

    ``lattice`` is the ``(q, a)`` that ``_lattice_exponents`` gives for some
    values (``None`` when one is not finite).  A caller describes each
    family of intermediates it computes from those values by a pair
    ``(growth, shift)``: its members are multiples of the quantum ``Q =
    2^-(q + shift)`` below ``2^(a + growth)`` quanta.  Sums and differences
    of multiples of ``Q >= 2^-1074`` below ``2^digits Q`` are exact in a type
    with ``digits`` significant bits (53 for float64, 31 for int32 beside a
    float64 scale), and so is scaling by a power of two that stays on such a
    quantum.  So ``q`` is returned when, for every family, ``a + growth <=
    digits`` (no rounding), ``q + shift <= 1074`` (no underflow) and ``a +
    growth - (q + shift) <= 1023`` (no overflow); ``None`` when one of these
    fails or ``lattice`` is ``None``.  All-zero values have ``q = a = 0``.
    """
    if lattice is None:
        return None
    q, a = lattice
    for growth, shift in families:
        bits = a + growth
        if bits > digits or q + shift > 1074 or bits - (q + shift) > 1023:
            return None
    return q


def _quanta_bits(bound, q: int) -> int:
    """A ``b`` with the non-negative real ``bound`` below ``2^b`` quanta of
    ``2^-q``, counted exactly in :class:`fractions.Fraction` arithmetic."""
    quanta = Fraction(bound) * Fraction(2) ** q
    return quanta.numerator.bit_length() - quanta.denominator.bit_length() + 1


class SampledFunction:
    """Uniform samples of a continuous function, with exact grid geometry.

    ``values[i]`` is the function at ``left + i * 2**log2_spacing``.  A
    function flagged ``compact`` is understood to vanish outside the sampled
    range, so sample lookups beyond the ends return 0 exactly.
    """

    __slots__ = ("values", "left", "log2_spacing", "compact")

    def __init__(self, values, left=0, log2_spacing: int | None = None, compact=None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("values must be a 1-d array with at least 2 samples")
        if log2_spacing is None:
            cells = values.size - 1
            if cells & (cells - 1):
                raise ValueError("log2_spacing required for non power-of-two grids")
            log2_spacing = -(cells.bit_length() - 1)
        self.values = values
        self.left = _coerce(left)
        self.log2_spacing = int(log2_spacing)
        if compact is None:
            compact = values[0] == 0.0 and values[-1] == 0.0
        self.compact = bool(compact)

    @property
    def spacing(self) -> Fraction:
        return Fraction(2) ** self.log2_spacing

    @property
    def right(self) -> Fraction:
        return self.left + (self.values.size - 1) * self.spacing

    @property
    def span(self) -> RealInterval:
        return RealInterval(self.left, self.right)

    @property
    def depth(self) -> int:
        """Number of halvings from the full span down to one grid cell."""
        cells = self.values.size - 1
        if cells & (cells - 1):
            raise ValueError("span is not a power-of-two number of cells")
        return cells.bit_length() - 1

    def __repr__(self):
        return (
            f"SampledFunction({self.values.size} samples on "
            f"[{self.left}, {self.right}], spacing 2**{self.log2_spacing})"
        )


def _block_reduce(arr: np.ndarray, dim: int, op=np.add) -> np.ndarray:
    """Reduce 2x...x2 blocks with the binary ``op``, halving every axis."""
    for axis in range(dim):
        head = (slice(None),) * axis
        arr = op(arr[head + (slice(0, None, 2),)], arr[head + (slice(1, None, 2),)])
    return arr


def _parent_deviation(dj: np.ndarray, dim: int) -> np.ndarray:
    """The one parent-size rule: the largest child ``|jump|`` of each parent
    of the ``dim``-d jump field ``dj`` (``|left|`` where a 1-d parent is
    exactly its children's mean).  Truncation and the tree level sets both
    compare it with their level."""
    return _block_reduce(np.abs(dj), dim, np.maximum)


def _parent_sizes(S: DyadicMartingale) -> list[np.ndarray]:
    """The ``_parent_deviation`` of each generation ``1 .. N``."""
    return [_parent_deviation(S.jumps(n), S.dim) for n in range(1, S.depth + 1)]


def _peaks(sizes: list[np.ndarray]) -> tuple[list[float], float]:
    """Each table's largest size, and their ``max`` from 0.0: over all ``N``
    ``_parent_sizes`` tables, ``star_norm(S)`` bit for bit, as both fold the
    generations' largest ``|jump|`` (NaN carried by ``.max()``, passed over
    by ``max``)."""
    peaks = [float(s.max()) for s in sizes]
    return peaks, max([0.0, *peaks])


def _dropped(sizes: list[np.ndarray], thresholds) -> tuple[list[float], list[int]]:
    """Per threshold ``t``, the largest size ``<= t`` in the tables ``sizes``
    (0.0 where none is) and their count, by one binary search in one sorted
    flat copy (NaN sorts last): the parents truncation at ``t`` drops and the
    tree density does not count, so thresholds with one count drop the same
    parents.  Work O(P log P) for the ``P`` sizes plus O(log P) per threshold."""
    flat = np.concatenate([s.ravel() for s in sizes] or [np.empty(0)])
    flat.sort()
    counts = np.searchsorted(flat, thresholds, side="right").tolist()
    return [float(flat[count - 1]) if count > 0 else 0.0 for count in counts], counts


class DyadicMartingale:
    """Averaging martingale on the dyadic subdivisions of a root cell.

    ``levels[n]`` holds the value on each generation-``n`` cell (shape
    ``(2^n,) * dim``); the value on a cell is the mean of its ``2^dim``
    children.  The cells carry no real geometry: ``integrate`` takes the
    grid a 1-d martingale is read on.
    """

    __slots__ = ("levels", "dim")

    def __init__(self, levels, dim: int = 1):
        levels = [np.asarray(a, dtype=np.float64) for a in levels]
        for n, level in enumerate(levels):
            if level.shape != (2**n,) * dim:
                raise ValueError(f"level {n} has shape {level.shape}")
        self.levels = levels
        self.dim = dim

    @classmethod
    def from_leaf(cls, leaf, dim: int = 1):
        """Build the full martingale whose deepest level is ``leaf``."""
        leaf = np.asarray(leaf, dtype=np.float64)
        levels = [leaf]
        scale = float(2**dim)
        while levels[0].size > 1:
            levels.insert(0, _block_reduce(levels[0], dim) / scale)
        return cls(levels, dim=dim)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def root_value(self) -> float:
        return float(self.levels[0].flat[0])

    @property
    def leaf(self) -> np.ndarray:
        return self.levels[-1]

    def jumps(self, n: int) -> np.ndarray:
        """Jump field at generation ``n >= 1``: value minus parent value.

        Each child corner (every second cell along each axis, from offset 0
        or 1) is subtracted from the parent level in one strided pass into
        one output, so no expanded copy of the parent is built.  Each entry
        is the one subtraction ``child - parent``.
        """
        if not 1 <= n <= self.depth:
            raise ValueError(f"no jumps at generation {n}")
        child, parent = self.levels[n], self.levels[n - 1]
        out = np.empty_like(child)
        for corner in itertools.product((0, 1), repeat=self.dim):
            cells = tuple(slice(c, None, 2) for c in corner)
            np.subtract(child[cells], parent, out=out[cells])
        return out

    def __repr__(self):
        return f"DyadicMartingale(depth={self.depth}, dim={self.dim})"


def average_growth(f: SampledFunction) -> DyadicMartingale:
    """Martingale of mean slopes of ``f`` over the dyadic cells of its span."""
    depth = f.depth
    levels = []
    for n in range(depth + 1):
        stride = 1 << (depth - n)
        pts = f.values[::stride]
        width = math.ldexp(1.0, depth - n + f.log2_spacing)  # span / 2^n
        levels.append((pts[1:] - pts[:-1]) / width)
    return DyadicMartingale(levels)


def integrate(S: DyadicMartingale, left=0, log2_spacing: int | None = None) -> SampledFunction:
    """Primitive of the leaf field on the grid ``left + i 2^log2_spacing``,
    pinned to 0 at ``left``.

    Inverts :func:`average_growth` for functions vanishing at ``left``:
    increments across leaf cells are leaf value times leaf width.  The grid
    defaults to ``2^depth`` cells on ``[left, left + 1]``.
    """
    if S.dim != 1:
        raise ValueError("integrate needs a 1-d martingale")
    if log2_spacing is None:
        log2_spacing = -S.depth
    values = np.empty(S.leaf.size + 1)
    values[0] = 0.0
    np.multiply(S.leaf, math.ldexp(1.0, log2_spacing), out=values[1:])
    np.cumsum(values[1:], out=values[1:])  # in place: one leaf-sized array
    return SampledFunction(values, left=left, log2_spacing=log2_spacing)


def star_norm(S: DyadicMartingale) -> float:
    """Largest absolute jump over all generations."""
    best = 0.0
    for n in range(1, S.depth + 1):
        best = max(best, float(np.abs(S.jumps(n)).max()))
    return best


def dyadic_zygmund_seminorm(f: SampledFunction) -> float:
    """Largest dyadic second difference: twice the slope-martingale star norm."""
    return 2.0 * star_norm(average_growth(f))


def bmo_norm(S: DyadicMartingale) -> float:
    """Windowed L2 jump density, maximised over all dyadic windows.

    For each cell ``I`` of any generation the energy of the jumps strictly
    inside ``I`` (cells ``J`` with ``J`` a proper descendant of ``I``) is
    summed as ``jump^2 * |J|`` and divided by ``|I|``; the norm is the square
    root of the largest such density.  Computed bottom-up in one pass.
    """
    dim = S.dim
    best = 0.0
    U = np.zeros_like(S.levels[-1])
    for n in range(S.depth, 0, -1):
        dj = S.jumps(n)
        U = _block_reduce(U + dj * dj * 2.0 ** (-dim * n), dim)
        best = max(best, float(U.max()) * 2.0 ** (dim * (n - 1)))
    return math.sqrt(best)
