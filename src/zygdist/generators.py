"""Seeded generators for functions, martingales and measures: the inputs of
``zygdist generate``, the families ``zygdist verify`` samples, and test data.

Every stochastic generator quantises its draws to the 2^-16 dyadic lattice
(or coarser), so sums, differences and power-of-two rescalings of generated
data are exact in IEEE-754 arithmetic and bit-level identities can be
asserted downstream.  Randomness comes from counter-based Philox streams
keyed by ``(seed, field tag)`` with a fixed draw order, so every object is
reproducible from its seed alone.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from zygdist.martingale import DyadicMartingale, SampledFunction, integrate

__all__ = [
    "cascade_measure",
    "function_suite",
    "hat_function",
    "lacunary_function",
    "linear_function",
    "parabola_function",
    "random_jump_martingale",
    "random_martingale",
    "single_branch_martingale",
    "weierstrass_function",
]

_TAG_JUMP_SIGNS = 1
_TAG_JUMP_SIZES = 2
_TAG_CASCADE_SIGNS = 3
_TAG_CASCADE_THETAS = 4
_JUMP_STEPS = 4096  # random_martingale jumps reach 4096 * 2^-14 = 1/4


def _rng(seed: int, tag: int) -> np.random.Generator:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} must lie in [0, 2^64)")
    return np.random.Generator(np.random.Philox(key=np.array([seed, tag], dtype=np.uint64)))


def linear_function(depth: int) -> SampledFunction:
    """``f(x) = x`` on [0, 1]: all second differences vanish."""
    return SampledFunction(np.arange(2**depth + 1, dtype=np.float64) * 2.0 ** (-depth))


def hat_function(depth: int) -> SampledFunction:
    """``f(x) = min(x, 1 - x)``: one slope break of size 2 at the midpoint."""
    x = np.arange(2**depth + 1, dtype=np.float64) * 2.0 ** (-depth)
    return SampledFunction(np.minimum(x, 1.0 - x))


def parabola_function(depth: int) -> SampledFunction:
    """``f(x) = x^2``: second difference identically ``2h``."""
    i = np.arange(2**depth + 1, dtype=np.float64)
    return SampledFunction(i * i * 2.0 ** (-2 * depth))


def weierstrass_function(depth: int, levels: int | None = None) -> SampledFunction:
    """Lacunary cosine sum ``sum 2^-n cos(2 pi 2^n x)``: a classical rough case.

    Values are irrational; this generator is for tolerance-based checks only.
    """
    if levels is None:
        levels = max(1, min(depth - 1, 12))
    x = np.arange(2**depth + 1, dtype=np.float64) * 2.0 ** (-depth)
    values = np.zeros_like(x)
    for n in range(1, levels + 1):
        values += 2.0 ** (-n) * np.cos(2.0 * np.pi * (2.0**n) * x)
    return SampledFunction(values, compact=False)


def lacunary_function(
    depth: int, coefficient=Fraction(1, 2), ratio=Fraction(1, 2)
) -> SampledFunction:
    """Triangle-wave series ``sum c r^n tri(2^n x)``, ``n < depth``, with
    dyadic ``c`` and ``r``.

    ``tri`` is the distance to the nearest integer.  Each scale adds slope
    breaks of one size, so with ``r = 1/2`` every generation carries jumps of
    the same magnitude ``c`` (star norm ``c``, all grid values exact).
    """
    coefficient = Fraction(coefficient)
    ratio = Fraction(ratio)
    for fr in (coefficient, ratio):
        if fr.denominator & (fr.denominator - 1):
            raise ValueError("coefficient and ratio must be dyadic rationals")
    size = 2**depth
    i = np.arange(size + 1, dtype=np.int64)
    values = np.zeros(size + 1, dtype=np.float64)
    for n in range(depth):
        pos = (i << n) & (size - 1)  # 2^n x mod 1, in grid units
        tri = np.minimum(pos, size - pos).astype(np.float64) * 2.0 ** (-depth)
        values += float(coefficient * ratio**n) * tri
    return SampledFunction(values)


def random_jump_martingale(depth: int, delta=Fraction(1, 16), seed: int = 0) -> DyadicMartingale:
    """Martingale whose every parent splits by ``+-delta`` with a random sign.

    Jumps have magnitude exactly ``delta`` at every cell of every generation,
    so the star norm is ``delta`` and the primitive has dyadic second
    differences of size ``2 delta`` across every parent cell.
    """
    delta = Fraction(delta)
    if (delta * 2**16).denominator != 1:
        raise ValueError("delta must be a multiple of 2^-16")
    d = float(delta)
    rng = _rng(seed, _TAG_JUMP_SIGNS)
    jumps = (_signs(rng.integers(0, 2, size=2**n)) * d for n in range(depth))
    return DyadicMartingale(_split_martingale(np.zeros(1), jumps))


def random_martingale(depth: int, seed: int = 0) -> DyadicMartingale:
    """Martingale with quantised random jump sizes (multiples of 2^-14).

    Each parent draws one magnitude uniformly from the lattice
    ``{0, 2^-14, ..., 1/4}`` and a sign; the two children move by opposite
    amounts, preserving the averaging property exactly.
    """
    return DyadicMartingale([level[0] for level in _random_martingale_levels(depth, [seed])])


def _random_martingale_levels(depth: int, seeds) -> list[np.ndarray]:
    """The levels of ``random_martingale(depth, seed)`` for each of
    ``seeds``, stacked: level ``n`` has shape ``(len(seeds), 2^n)``.

    Each seed draws from its own stream in one order: the root, then the
    steps and then the signs of each generation.  The draws are scaled and
    split for the whole stack at once; every value is exact.
    """
    roots, draws = [], []
    for seed in seeds:
        rng = _rng(seed, _TAG_JUMP_SIZES)
        roots.append(rng.integers(-(2**8), 2**8 + 1))
        for n in range(depth):
            steps = rng.integers(0, _JUMP_STEPS + 1, size=2**n)
            draws.append((steps, rng.integers(0, 2, size=2**n)))
    generations = (zip(*draws[n::depth]) for n in range(depth))  # seed-major draws
    jumps = (np.stack(k) * 2.0**-14 * _signs(np.stack(b)) for k, b in generations)
    return _split_martingale(np.array(roots, dtype=np.float64)[:, None] / 256, jumps)


def single_branch_martingale(depth: int, delta=Fraction(1, 2)) -> DyadicMartingale:
    """Martingale that climbs by ``delta`` along the leftmost branch only.

    The branch child gains ``+delta``, its sibling ``-delta`` (forced by the
    averaging property), and everything off the branch stays constant.  The
    maximal function equals ``depth * delta`` on the leftmost leaf.
    """
    d = float(Fraction(delta))
    jumps = (np.r_[d, np.zeros(2**n - 1)] for n in range(depth))
    return DyadicMartingale(_split_martingale(np.zeros(1), jumps))


def _signs(bits: np.ndarray) -> np.ndarray:
    """Drawn bits 0 and 1 as the signs -1.0 and +1.0."""
    return bits * 2.0 - 1.0


def _split_martingale(root: np.ndarray, jumps) -> list[np.ndarray]:
    """Levels from ``root`` (shape ``(..., 1)``) whose generation-``n``
    parents split by the ``n``-th entry of ``jumps``: left child parent +
    jump, right child parent - jump, so every split keeps the averaging
    property exactly.  Leading axes stack martingales."""
    levels = [root]
    for jump in jumps:
        parent = levels[-1]
        child = np.empty(parent.shape[:-1] + (2 * parent.shape[-1],))
        child[..., 0::2] = parent + jump
        child[..., 1::2] = parent - jump
        levels.append(child)
    return levels


def function_suite(depth: int, seed: int = 0) -> list[tuple[str, SampledFunction]]:
    """Named sample functions covering smooth, kink, rough and random cases."""
    return [
        ("linear", linear_function(depth)),
        ("hat", hat_function(depth)),
        ("parabola", parabola_function(depth)),
        ("lacunary", lacunary_function(depth)),
        ("weierstrass", weierstrass_function(depth)),
        ("random-jumps", integrate(random_jump_martingale(depth, seed=seed))),
    ]


def _interleave(blocks: np.ndarray, dim: int) -> np.ndarray:
    """Merge shape ``(s,)*dim + (2,)*dim`` child blocks into ``(2s,)*dim``."""
    side = blocks.shape[0]
    order = []
    for axis in range(dim):
        order += [axis, dim + axis]
    return blocks.transpose(order).reshape((2 * side,) * dim)


def cascade_measure(
    dim: int, depth: int, thetas=None, seed: int = 0
):
    """Multiplicative cascade mass field on the unit cube.

    At generation ``n`` every cell splits its mass among its ``2^dim``
    children with factors ``(1 +- theta_n) / 2^dim``, signs balanced so mass
    is conserved; ``theta_n`` are multiples of 1/16 (drawn in
    ``{1/16..8/16}`` when not given), keeping all masses exact dyadic
    rationals.  Returns masses as an array of shape ``(2^depth,) * dim``.
    """
    if thetas is None:
        draws = _rng(seed, _TAG_CASCADE_THETAS).integers(1, 9, size=depth)
        thetas = [Fraction(int(k), 16) for k in draws]
    thetas = [Fraction(t) for t in thetas]
    if len(thetas) != depth:
        raise ValueError("need one theta per generation")
    for t in thetas:
        if (t * 16).denominator != 1 or not 0 <= t < 1:
            raise ValueError("thetas must be multiples of 1/16 in [0, 1)")
    rng = _rng(seed, _TAG_CASCADE_SIGNS)
    masses = np.ones((1,) * dim)
    half = 2 ** (dim - 1)
    base = np.array([1.0] * half + [-1.0] * half)
    for n in range(depth):
        parents = masses.size
        signs = rng.permuted(np.tile(base, (parents, 1)), axis=1)
        factors = (1.0 + signs * float(thetas[n])) / float(2**dim)
        blocks = masses[..., None] * factors.reshape(masses.shape + (2**dim,))
        blocks = blocks.reshape(masses.shape + (2,) * dim)
        masses = _interleave(blocks, dim)
    return masses

