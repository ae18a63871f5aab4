"""Loop oracles that the vectorised kernels are checked against."""

import math
from fractions import Fraction

import numpy as np

from zygdist.approximation import martingale_difference, truncate_jumps
from zygdist.martingale import SampledFunction, average_growth, integrate, star_norm
from zygdist.measures import GridMeasure


def continuous_decompose_loop(f: SampledFunction, eps: float, count: int):
    """One level of ``continuous_decompose``, one translate at a time.

    Returns ``(rough, small, window_small_seminorms)`` as arrays.  Each
    translate's window martingale is built, truncated at ``eps / 2``,
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
        B = truncate_jumps(W, eps / 2.0)
        seminorms[i] = 2.0 * star_norm(martingale_difference(W, B))
        acc += integrate(B).values[offset : offset + (1 << N) + 1]
    acc /= count
    return acc, f.values - acc, seminorms


def measure_zygmund_norm_loop(mu: GridMeasure) -> float:
    """``measure_zygmund_norm(mu, mode="continuous")``, one half-width at a time.

    Every half-width ``u`` gathers the clipped inner (side ``2u``) and outer
    (side ``4u``) cube masses around all grid points with
    ``GridMeasure.box_mass_grid``.
    """
    side = 1 << mu.depth
    centers = np.arange(side + 1, dtype=np.int64)
    best = 0.0
    for u in range(1, (side >> 1) + 1):
        inner = mu.box_mass_grid(
            [centers - u] * mu.dim, [centers + u] * mu.dim
        ) * (side / (2 * u)) ** mu.dim
        outer = mu.box_mass_grid(
            [centers - 2 * u] * mu.dim, [centers + 2 * u] * mu.dim
        ) * (side / (4 * u)) ** mu.dim
        best = max(best, float(np.abs(inner - outer).max()))
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
