"""Sampled functions and the dyadic averaging martingales they generate.

A continuous function sampled on a power-of-two grid over a dyadic root
interval induces a martingale whose value on a cell is the average growth
(slope) of the function there.  Jumps of that martingale encode second-order
differences of the function: the second difference across a parent cell
equals twice the jump picked up by either child, with opposite signs on the
two siblings.  The functionals below (star norm, dyadic BMO norm, quadratic
characteristic, maximal function) are all read off the jump field.
"""

from __future__ import annotations

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
    "maximal_function",
    "quadratic_characteristic",
    "star_norm",
]


def _log2_exact(fr: Fraction) -> int:
    """Exponent e with fr == 2**e, or raise if fr is not a power of two."""
    num, den = fr.numerator, fr.denominator
    if num <= 0 or num & (num - 1) or den & (den - 1):
        raise ValueError(f"{fr} is not a power of two")
    return num.bit_length() - den.bit_length()


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


def _lattice_quantum(values: np.ndarray, digits: int, *families) -> int | None:
    """The one lattice-exactness rule: ``q`` when every intermediate is exact.

    With ``(q, a)`` the ``_lattice_exponents`` of ``values``, a caller
    describes each family of intermediates it computes from ``values`` by a
    pair ``(growth, shift)``: its members are multiples of the quantum ``Q =
    2^-(q + shift)`` below ``2^(a + growth)`` quanta.  Sums and differences
    of multiples of ``Q >= 2^-1074`` below ``2^digits Q`` are exact in a type
    with ``digits`` significant bits (53 for float64, 31 for int32 beside a
    float64 scale), and so is scaling by a power of two that stays on such a
    quantum.  So ``q`` is returned when, for every family, ``a + growth <=
    digits`` (no rounding), ``q + shift <= 1074`` (no underflow) and ``a +
    growth - (q + shift) <= 1023`` (no overflow); ``None`` when one of these
    fails or a value is not finite.  All-zero values have ``q = a = 0``.
    """
    lattice = _lattice_exponents(values)
    if lattice is None:
        return None
    q, a = lattice
    for growth, shift in families:
        bits = a + growth
        if bits > digits or q + shift > 1074 or bits - (q + shift) > 1023:
            return None
    return q


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


def _expand(arr: np.ndarray, dim: int, factor: int = 2) -> np.ndarray:
    """Repeat each entry ``factor`` times along every axis."""
    if factor == 1:
        return arr
    for axis in range(dim):
        arr = np.repeat(arr, factor, axis=axis)
    return arr


def _block_reduce(arr: np.ndarray, dim: int, op=np.add) -> np.ndarray:
    """Reduce 2x...x2 blocks with the binary ``op``, halving every axis."""
    for axis in range(dim):
        head = (slice(None),) * axis
        arr = op(arr[head + (slice(0, None, 2),)], arr[head + (slice(1, None, 2),)])
    return arr


class DyadicMartingale:
    """Averaging martingale on the dyadic subdivisions of a root cell.

    ``levels[n]`` holds the value on each generation-``n`` cell (shape
    ``(2^n,) * dim``); the value on a cell is the mean of its ``2^dim``
    children.  ``root`` records the real footprint of the root cell for
    1-d function martingales; d-dim measure martingales use the unit cube.
    """

    __slots__ = ("levels", "dim", "root")

    def __init__(self, levels, root: RealInterval | None = None, dim: int = 1):
        levels = [np.asarray(a, dtype=np.float64) for a in levels]
        for n, level in enumerate(levels):
            if level.shape != (2**n,) * dim:
                raise ValueError(f"level {n} has shape {level.shape}")
        if root is None and dim == 1:
            root = RealInterval(0, 1)
        self.levels = levels
        self.dim = dim
        self.root = root

    @classmethod
    def from_leaf(cls, leaf, root: RealInterval | None = None, dim: int = 1):
        """Build the full martingale whose deepest level is ``leaf``."""
        leaf = np.asarray(leaf, dtype=np.float64)
        levels = [leaf]
        scale = float(2**dim)
        while levels[0].size > 1:
            levels.insert(0, _block_reduce(levels[0], dim) / scale)
        return cls(levels, root=root, dim=dim)

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

        In 1-d the left and right children are subtracted from the parent
        level in two strided passes into one output, so no expanded copy of
        the parent is built; d-dim fields subtract the expanded parent.
        Either way each entry is the one subtraction ``child - parent``.
        """
        if not 1 <= n <= self.depth:
            raise ValueError(f"no jumps at generation {n}")
        child, parent = self.levels[n], self.levels[n - 1]
        if self.dim != 1:
            return child - _expand(parent, self.dim)
        out = np.empty_like(child)
        np.subtract(child[0::2], parent, out=out[0::2])
        np.subtract(child[1::2], parent, out=out[1::2])
        return out

    def __repr__(self):
        return f"DyadicMartingale(depth={self.depth}, dim={self.dim})"


def average_growth(f: SampledFunction) -> DyadicMartingale:
    """Martingale of mean slopes of ``f`` over the dyadic cells of its span."""
    depth = f.depth
    span = f.span
    levels = []
    for n in range(depth + 1):
        stride = 1 << (depth - n)
        pts = f.values[::stride]
        width = float(span.length / (1 << n))
        levels.append((pts[1:] - pts[:-1]) / width)
    return DyadicMartingale(levels, root=span)


def integrate(S: DyadicMartingale) -> SampledFunction:
    """Primitive of the leaf field, pinned to 0 at the left end of the root.

    Inverts :func:`average_growth` for functions vanishing at the root's left
    endpoint: increments across leaf cells are leaf value times leaf width.
    """
    if S.dim != 1 or S.root is None:
        raise ValueError("integrate needs a rooted 1-d martingale")
    leaf_width = S.root.length / (1 << S.depth)
    values = np.empty(S.leaf.size + 1)
    values[0] = 0.0
    np.multiply(S.leaf, float(leaf_width), out=values[1:])
    np.cumsum(values[1:], out=values[1:])  # in place: one leaf-sized array
    return SampledFunction(values, left=S.root.left, log2_spacing=_log2_exact(leaf_width))


def star_norm(S: DyadicMartingale) -> float:
    """Largest absolute jump over all generations."""
    best = 0.0
    for n in range(1, S.depth + 1):
        best = max(best, float(np.abs(S.jumps(n)).max()))
    return best


def dyadic_zygmund_seminorm(f: SampledFunction) -> float:
    """Largest dyadic second difference: twice the slope-martingale star norm."""
    return 2.0 * star_norm(average_growth(f))


def bmo_norm(S: DyadicMartingale, squared: bool = False) -> float:
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
    return best if squared else math.sqrt(best)


def quadratic_characteristic(S: DyadicMartingale) -> np.ndarray:
    """Per-leaf square function: sqrt of the summed squared jumps above the leaf."""
    acc = np.zeros_like(S.levels[-1])
    for n in range(1, S.depth + 1):
        dj = S.jumps(n)
        acc += _expand(dj * dj, S.dim, 1 << (S.depth - n))
    return np.sqrt(acc)


def maximal_function(S: DyadicMartingale) -> np.ndarray:
    """Per-leaf maximal deviation ``max_n |S_n - S_0|`` of the value sequence."""
    acc = np.zeros_like(S.levels[-1])
    for n in range(1, S.depth + 1):
        dev = np.abs(S.levels[n] - S.root_value)
        np.maximum(acc, _expand(dev, S.dim, 1 << (S.depth - n)), out=acc)
    return acc
