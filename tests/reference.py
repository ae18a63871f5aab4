"""Loop oracles that the vectorised kernels are checked against."""

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
