"""Numerical verification of the quantitative regularity estimates.

Each check either sweeps a configuration space exhaustively or samples it
log-uniformly at grid resolution, evaluates both sides of an inequality and
reports the largest ratio observed together with the witnessing
configuration.  Estimates with an unknown absolute constant are judged by
depth stability instead: doubling the grid depth must not grow the maximum
sampled ratio materially (``functionals._bounded``, the rule of the
threshold estimate, with ``tau = 1/2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from zygdist.functionals import (
    _DEFAULT_TAU,
    _bounded,
    _geometric_grid,
    _growth_ratio,
    _indexed,
    _second_difference,
    _zero_padded,
    box_square_energy,
    cone_levelset_count,
    density_profile,
    lp_norm,
    zygmund_seminorm,
)
from zygdist.generators import (
    _random_martingale_levels,
    _rng,
    cascade_measure,
    function_suite,
    random_martingale,
)
from zygdist.martingale import (
    DyadicMartingale,
    average_growth,
    integrate,
    star_norm,
)
from zygdist.measures import GridMeasure, _corner_sum, measure_zygmund_norm

__all__ = [
    "PredecessorReport",
    "RatioReport",
    "run_lemma_suite",
    "verify_bdg",
    "verify_predecessor_measure",
    "verify_strichartz_consistency",
]


@dataclass
class RatioReport:
    """Largest observed left/right ratio of an inequality over a sample set."""

    name: str
    max_ratio: float
    argmax: dict
    samples: int
    seed: int
    stability_factor: float | None = None


# configurations each modulus check samples
_SAMPLES = 10000


def _log_uniform(rng: np.random.Generator, lo: int, hi: int, size: int) -> np.ndarray:
    """Integers in ``[lo, hi]`` with roughly log-uniform mass."""
    if hi < lo:
        raise ValueError("empty range")
    a = rng.uniform(math.log(lo), math.log(hi + 1), size)
    return np.minimum(np.floor(np.exp(a)).astype(np.int64), hi)


def _report(name, ratios, ok, config, unit, seed) -> RatioReport:
    """The largest ratio where ``ok`` holds, with its witness: ``config``
    is in grid units, and ``unit`` is one grid unit in real units."""
    ratios = np.where(ok, ratios, -np.inf)
    j = int(np.argmax(ratios))
    if not np.isfinite(ratios[j]):
        return _zero_report(name, seed)
    return RatioReport(
        name,
        float(ratios[j]),
        {key: float(val[j]) * unit for key, val in config.items()},
        int(np.count_nonzero(ok)),
        seed,
    )


def _zero_report(name, seed) -> RatioReport:
    return RatioReport(name, 0.0, {}, _SAMPLES, seed)


def _reports(name, norms, gaps, factors, ok, config, unit, seed) -> list[RatioReport]:
    """One report per member, from its row of ``gaps`` and ``ok``: the
    ratios ``gap / (norm * factor_1 * factor_2 ...)``, multiplied left to
    right as written, or the zero report for a member of norm 0."""
    first, *rest = factors
    bound = np.asarray(norms, dtype=np.float64)[:, None] * first
    for factor in rest:
        bound *= factor
    with np.errstate(divide="ignore", invalid="ignore"):  # norm-0 rows go unread
        ratios = np.divide(gaps, bound, out=bound)
    return [
        _zero_report(name, seed) if norm == 0.0 else _report(name, r, k, config, unit, seed)
        for norm, r, k in zip(norms, ratios, ok)
    ]


def _translates(rng: np.random.Generator, M: int, s: np.ndarray):
    """Centres ``x`` drawn on the grid ``0..M`` and ``t = x +- s``, each
    sign drawn uniformly."""
    sign = rng.integers(0, 2, _SAMPLES) * 2 - 1
    ix = rng.integers(0, M + 1, _SAMPLES)
    return ix, ix + sign * s


def _step_pairs(rng: np.random.Generator, M: int):
    """Steps ``h = u`` and ``h' = u + g`` in grid units, ``u`` and ``g`` in
    ``[1, M/4]``: so ``h < h' <= M/2``."""
    u = _log_uniform(rng, 1, M // 4, _SAMPLES)
    g = _log_uniform(rng, 1, M // 4, _SAMPLES)
    return u, g, u + g


def _lemma_table(fs) -> tuple[int, np.ndarray, np.ndarray]:
    """``M`` cells and the members' ``_zero_padded(f, M)`` tables, stacked
    in arrays of shape ``(len(fs), 3M + 1)``: the table of the function
    checks.  The members share one grid of ``M`` cells.  Every index the
    checks read lies in ``[-M, 2M]``: the widest is ``_check_equal_step``'s
    ``t +- u`` with ``t = x +- s``, ``x`` in ``[0, M]`` and ``s``, ``u`` at
    most ``M/2``."""
    M = fs[0].values.size - 1
    padded, exists = zip(*(_zero_padded(f, M) for f in fs))
    return M, np.stack(padded), np.stack(exists)


# Each function check takes members ``fs`` on one grid with their norms
# ``zygmund_seminorm(f)``, draws one configuration set from its seed and
# returns one report per member.  The draws do not depend on the members,
# so a member's report is that of a one-member call.


def _check_second_difference_modulus(fs, norms, seed: int) -> list[RatioReport]:
    """Joint modulus: moving both the centre and the step of a second
    difference changes it by at most the seminorm times

    ``((h'-h)/h') (1 + log(h'/(h'-h))) + (|x-t|/h') log(h'/|x-t| + 1)``

    for ``0 < h < h'`` and ``|x - t| < h'/2``; the steps are drawn with
    ``h' <= M/2`` (``_step_pairs``).
    """
    rng = _rng(seed, 11)
    M, padded, exists = _lemma_table(fs)
    u, g, up = _step_pairs(rng, M)
    s = _log_uniform(rng, 1, M // 2, _SAMPLES)
    s = np.where(2 * s < up, s, 0)  # keep |x - t| < h'/2, else collapse to x = t
    ix, it = _translates(rng, M, s)
    f = fs[0]
    d2a, oka = _second_difference(f, padded, exists, _indexed(M, ix, u), u)
    d2b, okb = _second_difference(f, padded, exists, _indexed(M, it, up), up)
    term1 = (g / up) * (1.0 + np.log(up / g))
    term2 = np.where(s > 0, (s / up) * np.log(up / np.maximum(s, 1) + 1.0), 0.0)
    config = {"x": ix, "t": it, "h": u, "hp": up}
    return _reports(
        "second-difference-modulus", norms, np.abs(d2a - d2b), [term1 + term2],
        oka & okb, config, float(f.spacing), seed,
    )


def _check_equal_step(fs, norms, seed: int) -> list[RatioReport]:
    """Centre-translation modulus at a fixed step:
    ``|d2(x, h) - d2(t, h)| <= norm (|x-t|/h) log(h/|x-t| + 1)`` for
    ``0 < |x - t| < h/2``.
    """
    rng = _rng(seed, 12)
    M, padded, exists = _lemma_table(fs)
    u = _log_uniform(rng, 3, M // 2, _SAMPLES)
    s = _log_uniform(rng, 1, M // 2, _SAMPLES)
    ix, it = _translates(rng, M, s)
    f = fs[0]
    d2a, oka = _second_difference(f, padded, exists, _indexed(M, ix, u), u)
    d2b, okb = _second_difference(f, padded, exists, _indexed(M, it, u), u)
    config = {"x": ix, "t": it, "h": u}
    return _reports(
        "equal-step-modulus", norms, np.abs(d2a - d2b), [s / u, np.log(u / s + 1.0)],
        oka & okb & (2 * s < u), config, float(f.spacing), seed,
    )


def _check_equal_centre(fs, norms, seed: int) -> list[RatioReport]:
    """Step-change modulus at a fixed centre:
    ``|d2(x, h) - d2(x, h')| <= norm ((h'-h)/h') (1 + log(h'/(h'-h)))`` for
    ``0 < h < h'``; the steps are drawn with ``h' <= M/2`` (``_step_pairs``).
    """
    rng = _rng(seed, 13)
    M, padded, exists = _lemma_table(fs)
    u, g, up = _step_pairs(rng, M)
    ix = rng.integers(0, M + 1, _SAMPLES)
    f = fs[0]
    d2a, oka = _second_difference(f, padded, exists, _indexed(M, ix, u), u)
    d2b, okb = _second_difference(f, padded, exists, _indexed(M, ix, up), up)
    config = {"x": ix, "h": u, "hp": up}
    return _reports(
        "equal-centre-modulus", norms, np.abs(d2a - d2b), [g / up, 1.0 + np.log(up / g)],
        oka & okb, config, float(f.spacing), seed,
    )


def _check_first_difference(fs, norms, seed: int) -> list[RatioReport]:
    """Distant-translation bound for slopes:
    ``|d1(x, h) - d1(t, h)| <= norm log(|x-t|/h + 1)`` for ``|x - t| > h/2``.
    """
    rng = _rng(seed, 14)
    M, padded, exists = _lemma_table(fs)
    u = _log_uniform(rng, 1, M // 4, _SAMPLES)
    s = _log_uniform(rng, 1, M // 2, _SAMPLES)
    ix, it = _translates(rng, M, s)
    sp = float(fs[0].spacing)
    reads = M + np.stack([ix, ix + u, it, it + u])
    d1 = (padded.take(reads[1::2], axis=-1) - padded.take(reads[::2], axis=-1)) / (u * sp)
    ok = exists.take(reads, axis=-1).all(axis=-2) & (2 * s > u)
    config = {"x": ix, "t": it, "h": u}
    return _reports(
        "first-difference-modulus", norms, np.abs(d1[..., 0, :] - d1[..., 1, :]),
        [np.log(s / u + 1.0)], ok, config, sp, seed,
    )


def _delta1_samples(mu: GridMeasure, centers: np.ndarray, half: np.ndarray):
    """Vectorised clipped box averages; ``centers`` is (n, dim) in grid units."""
    side = 1 << mu.depth
    ends = [np.clip(centers + s * half[:, None], 0, side) for s in (-1, 1)]
    total = _corner_sum(
        lambda corner: mu.table[tuple(ends[c][:, a] for a, c in enumerate(corner))],
        mu.dim,
    )
    vol = (2.0 * half / side) ** mu.dim
    return total / vol


def _check_measure_modulus(mu: GridMeasure, norm: float, seed: int) -> RatioReport:
    """Joint modulus for box-average second differences of a measure:

    ``|d2(x, h) - d2(t, h')| <= norm [ ((h'-h)/h)(1 + log(h/(h'-h) + 1))
    + (|x-t|/h) log(h/|x-t| + 1) ]`` for ``h < h' <= 2h``, ``|x-t| < h/2``,
    with ``t`` an axis translate of ``x``.  ``norm`` is the dyadic
    ``measure_zygmund_norm(mu)``.
    """
    if norm == 0.0:
        return _zero_report("measure-modulus", seed)
    rng = _rng(seed, 15)
    side = 1 << mu.depth
    w = _log_uniform(rng, 1, side // 4, _SAMPLES)  # h = 2w cells
    gp = _log_uniform(rng, 1, side // 2, _SAMPLES)
    gp = np.minimum(gp, w)  # h' = 2(w + gp) <= 2h
    s = _log_uniform(rng, 1, side // 2, _SAMPLES)
    s = np.where(s < w, s, 0)  # |x - t| < h/2, else collapse
    centers = rng.integers(0, side + 1, size=(_SAMPLES, mu.dim))
    axis = rng.integers(0, mu.dim, _SAMPLES)
    sign = rng.integers(0, 2, _SAMPLES) * 2 - 1
    translated = centers.copy()
    translated[np.arange(_SAMPLES), axis] += sign * s
    d2a = _delta1_samples(mu, centers, w) - _delta1_samples(mu, centers, 2 * w)
    wp = w + gp
    d2b = _delta1_samples(mu, translated, wp) - _delta1_samples(mu, translated, 2 * wp)
    h = 2.0 * w
    dh = 2.0 * gp
    term1 = (dh / h) * (1.0 + np.log(h / dh + 1.0))
    term2 = np.where(s > 0, (s / h) * np.log(h / np.maximum(s, 1) + 1.0), 0.0)
    ratios = np.abs(d2a - d2b) / (norm * (term1 + term2))
    ok = np.ones(_SAMPLES, dtype=bool)
    config = {"x": centers[:, 0], "h": h, "hp": 2.0 * wp, "shift": s}
    return _report("measure-modulus", ratios, ok, config, 1 / side, seed)


# ---------------------------------------------------------------------------
# exhaustive martingale-distance bound


# the deepest generation of the cells the distance bound compares
_MAX_GENERATION = 6


def _unit_tree_cells(max_generation: int):
    return [(n, j) for n in range(max_generation + 1) for j in range(1 << n)]


def _unit_tree_distance(max_generation: int) -> np.ndarray:
    """Tree distances between all dyadic cells of [0, 1) up to a generation.

    The distance counts refinement steps from each cell up to the pair's
    finest common ancestor inside the unit interval.  Cells ``(n, j)`` and
    ``(m, k)`` have ancestors ``a``, ``b`` at generation ``p = min(n, m)``;
    their common ancestor lies ``bit_length(a ^ b)`` generations above that.
    """
    cells = np.array(_unit_tree_cells(max_generation), dtype=np.int64)
    n, j = cells[:, :1], cells[:, 1:]  # one cell per row
    m, k = cells[:, 0], cells[:, 1]  # one cell per column
    p = np.minimum(n, m)
    split = np.frexp((j >> (n - p)) ^ (k >> (m - p)))[1]  # bit length
    return n + m - 2 * (p - split)


def _verify_dyadic_distance_bound(seed: int) -> RatioReport:
    """Exhaustive check that martingale values differ by at most the sup
    jump size times the tree distance between their cells, normalised so the
    seminorm (twice the sup jump) makes the bound hold with ratio <= 1.
    Every pair of cells to generation 6 is compared on 20 depth-8
    martingales, seeded ``seed`` onwards and drawn in one stack.
    """
    cells = _unit_tree_cells(_MAX_GENERATION)
    dist = _unit_tree_distance(_MAX_GENERATION)
    off_diag = dist > 0
    best = -1.0
    argmax: dict = {}
    pairs = 0
    levels = _random_martingale_levels(8, range(seed, seed + 20))
    for i in range(20):
        S = DyadicMartingale([level[i] for level in levels])
        vals = np.concatenate([S.levels[n] for n in range(_MAX_GENERATION + 1)])
        norm = 2.0 * star_norm(S)
        if norm == 0.0:
            continue
        gaps = np.abs(vals[:, None] - vals[None, :])
        with np.errstate(invalid="ignore"):
            ratios = np.where(off_diag, gaps / (norm * np.maximum(dist, 1)), 0.0)
        j = int(np.argmax(ratios))
        pairs += int(np.count_nonzero(off_diag))
        if float(ratios.flat[j]) > best:
            best = float(ratios.flat[j])
            a, b = divmod(j, len(cells))
            argmax = {
                "seed": float(seed + i),
                "cell_a": float(a),
                "generation_a": float(cells[a][0]),
                "cell_b": float(b),
                "generation_b": float(cells[b][0]),
            }
    return RatioReport("dyadic-distance-bound", best, argmax, pairs, seed)


# ---------------------------------------------------------------------------
# predecessor generation of translated grids (Monte Carlo)


@dataclass
class PredecessorReport:
    """Per-level statistics for the translated-grid ancestor generation."""

    R: int
    samples: int
    seed: int
    empirical: list = field(default_factory=list)  # measure per level offset k
    bounds: list = field(default_factory=list)
    level_ok: list = field(default_factory=list)
    total: float = 0.0
    total_ok: bool = False


# the predecessor check: shifts drawn, the deepest level offset k counted,
# and the shifts' lattice (midpoints of the 2^-40 cells)
_PREDECESSOR_SAMPLES = 100000
_K_MAX = 10
_LATTICE = 40


def verify_predecessor_measure(R: int, seed: int = 0) -> PredecessorReport:
    """Distribution of the common-ancestor generation under grid shifts.

    A fixed cell ``[0, 2^-20)`` and its left neighbour are viewed in the
    dyadic grid shifted by a uniform ``alpha`` in ``[-R, R)``; the smallest
    shifted cell containing both lies ``k`` generations up with shift-set
    measure about ``2^(1-k) * 2R``.  Checks the per-``k`` measure against
    ``2^(M+1) 2^(2-k)`` (with ``2^(M-1) < R <= 2^M``) inflated by three
    standard errors, and that levels ``1..10`` capture the whole measure
    to within one percent, over 100,000 sampled shifts.  Each shift is
    classified exactly, in one integer pass (``_predecessor_levels``).
    """
    if R < 1:
        raise ValueError("R must be a positive integer")
    M_exp = (R - 1).bit_length()
    rng = _rng(seed, 16 + R)
    shifts = rng.integers(
        -(R << _LATTICE), R << _LATTICE, size=_PREDECESSOR_SAMPLES, dtype=np.int64
    )
    counts = np.bincount(_predecessor_levels(shifts), minlength=_K_MAX + 2)
    report = PredecessorReport(R=R, samples=_PREDECESSOR_SAMPLES, seed=seed)
    covered = 0
    for k in range(1, _K_MAX + 1):
        count = int(counts[k])
        covered += count
        empirical = 2.0 * R * count / _PREDECESSOR_SAMPLES
        bound = 2.0 ** (M_exp + 1) * 2.0 ** (2 - k)
        se = 1.0 / math.sqrt(count) if count else 0.0
        report.empirical.append(empirical)
        report.bounds.append(bound)
        report.level_ok.append(count == 0 or empirical <= bound * (1.0 + 3.0 * se))
    report.total = 2.0 * R * covered / _PREDECESSOR_SAMPLES
    report.total_ok = abs(report.total - 2.0 * R) <= 0.01 * 2.0 * R
    return report


def _predecessor_levels(shifts: np.ndarray) -> np.ndarray:
    """Level offset ``k`` of the smallest shifted cell holding both ends,
    per shift ``alpha = (a + 1/2) 2^-40`` given by its integer ``a``.

    The points ``alpha -+ 2^-20`` lie in one cell of generation ``20 - k``
    when their floors at that cell width agree.  Adding ``1/2`` to an
    integer crosses no multiple of a width ``2^(20 + k)`` in units of
    ``2^-40``, so those floors are ``lo >> (20 + k)`` and ``hi >> (20 + k)``
    for ``lo = a - 2^20`` and ``hi = a + 2^20``, and agree exactly when
    ``(lo ^ hi) >> (20 + k)`` is 0.  So ``k`` is ``max(1, bit_length(lo ^
    hi) - 20)``, capped at ``_K_MAX + 1`` (no cell up to ``_K_MAX``), which
    it is whenever ``lo ^ hi < 0``: ``lo`` and ``hi`` on either side of 0.
    Integer arithmetic throughout, so exact for every ``R``.
    """
    spread = (shifts - (1 << 20)) ^ (shifts + (1 << 20))
    # frexp's exponent is the bit length below 2^53, and at least 54 above
    # it, where k is capped either way
    k = np.clip(np.frexp(spread.astype(np.float64))[1] - 20, 1, _K_MAX + 1)
    k[spread < 0] = _K_MAX + 1
    return k


# ---------------------------------------------------------------------------
# square-function two-sided bound


# martingales per BDG stack: 20 x 1024 leaves keeps each array at 160 KiB
_BDG_STACK = 20


def verify_bdg(seed: int = 0) -> dict:
    """Ratio of the maximal function to the quadratic characteristic in L2,
    over 100 depth-10 martingales seeded ``seed`` onwards.

    The terminal increment gives the lower bound 1 (orthogonality of the
    jumps); the running maximum of an L2 martingale is at most twice the
    terminal value in L2, giving the upper bound 2.
    """
    ratios = np.array(_bdg_ratios(seed))
    return {
        "count": int(ratios.size),
        "min": float(ratios.min()),
        "max": float(ratios.max()),
        "in_range": bool(np.all((ratios >= 1.0) & (ratios <= 2.0))),
        "seed": seed,
    }


def _bdg_ratios(seed: int) -> list[float]:
    """``verify_bdg``'s ratios, one per martingale of nonzero quadratic
    characteristic, in seed order.

    The martingales run in stacks of ``_BDG_STACK``, from the root down.
    Each leaf's squared jumps are summed in generation order and its
    deviations ``|S_n - S_0|`` folded by ``max``, at generation size: ``acc
    = repeat(acc, 2) + dj * dj``.  Each norm is ``lp_norm`` of one row.
    """
    ratios = []
    for lo in range(seed, seed + 100, _BDG_STACK):
        levels = _random_martingale_levels(10, range(lo, lo + _BDG_STACK))
        root = levels[0]
        square = np.zeros_like(root)
        deviation = np.zeros_like(root)
        for parent, child in zip(levels, levels[1:]):
            dj = child - np.repeat(parent, 2, axis=-1)
            square = np.repeat(square, 2, axis=-1) + dj * dj
            deviation = np.maximum(np.repeat(deviation, 2, axis=-1), np.abs(child - root))
        for sq, dev in zip(np.sqrt(square), deviation):
            qc = lp_norm(sq, 2.0)
            if qc != 0.0:
                ratios.append(lp_norm(dev, 2.0) / qc)
    return ratios


# ---------------------------------------------------------------------------
# bundled estimate suites


def _lemma_function_family(depth: int, seed: int):
    """Grid-quantised functions spanning the regularity spectrum, used to
    sample the modulus estimates at a given depth: ``function_suite``
    without its flat and off-lattice members, plus a recentred random walk."""
    walk = random_martingale(depth, seed=seed)
    recentred = DyadicMartingale([lvl - walk.root_value for lvl in walk.levels])
    suite = [
        (name, f)
        for name, f in function_suite(depth, seed=seed)
        if name not in ("linear", "weierstrass")
    ]
    return suite + [("random-walk", integrate(recentred))]


def _lemma_measure_family(scale: int, seed: int):
    """Cascade measures (two one-dimensional, one planar) for the measure
    modulus, at depths 5, 5 and 4 times ``scale``."""
    return [
        ("cascade-1d-a", GridMeasure(cascade_measure(1, 5 * scale, seed=seed))),
        ("cascade-1d-b", GridMeasure(cascade_measure(1, 5 * scale, seed=seed + 1))),
        ("cascade-2d", GridMeasure(cascade_measure(2, 4 * scale, seed=seed))),
    ]


_FUNCTION_CHECKS = (
    _check_second_difference_modulus,
    _check_equal_step,
    _check_equal_centre,
    _check_first_difference,
)


def _normed(norm, family, size, seed):
    """Names, members and norms of ``family`` drawn at ``size``."""
    names, members = zip(*family(size, seed))
    return names, members, [norm(x) for x in members]


def run_lemma_suite(seed: int = 0) -> dict:
    """Sample every modulus estimate on the standard families at two grid
    depths and collect max ratios with their depth-doubling factors.  A
    function check runs once per depth for the whole family."""
    names, *shallow = _normed(zygmund_seminorm, _lemma_function_family, 6, seed)
    _, *deep = _normed(zygmund_seminorm, _lemma_function_family, 12, seed)
    cases = []
    for check in _FUNCTION_CHECKS:
        cases += zip(names, check(*shallow, seed + 1), check(*deep, seed + 2))
    names, *shallow = _normed(measure_zygmund_norm, _lemma_measure_family, 1, seed)
    _, *deep = _normed(measure_zygmund_norm, _lemma_measure_family, 2, seed)
    for name, low, high in zip(names, zip(*shallow), zip(*deep)):
        low, high = _check_measure_modulus(*low, seed + 1), _check_measure_modulus(*high, seed + 2)
        cases.append((name, low, high))
    reports = []
    passed = True
    for name, low, high in cases:
        high.name = f"{low.name}[{name}]"
        high.stability_factor = _growth_ratio(low.max_ratio, high.max_ratio)
        reports.append(high)
        # doubling the depth may grow a maximum ratio by half, no more
        passed &= math.isfinite(high.max_ratio) and _bounded(low.max_ratio, high.max_ratio, 0.5)
    distance = _verify_dyadic_distance_bound(seed=seed)
    reports.append(distance)
    passed &= distance.max_ratio <= 1.0
    return {"reports": reports, "passed": bool(passed), "seed": seed}


# ---------------------------------------------------------------------------
# boundedness consistency of the three functionals


def verify_strichartz_consistency(seed: int = 0, tau: float = _DEFAULT_TAU) -> dict:
    """Boundedness of square energy, cone counts and tree density must agree.

    For each suite function, three verdicts are computed with the same
    depth-growth rule: the windowed square energy profile is bounded; the L2
    size of the cone count field is bounded for every grid level; the tree
    level-set density is bounded for every grid level.  The three verdicts
    characterise the same smoothness class, so they must coincide function
    by function.  The suite functions have depth 12, and every profile
    compares depths 8 and 10.
    """
    d_shallow, d_deep = 8, 10
    results = {}
    mismatches = 0
    for name, f in function_suite(12, seed=seed):
        if name == "weierstrass":
            continue  # not grid-quantised; excluded from exact suite checks
        S = average_growth(f)
        grid = _geometric_grid(2.0 * star_norm(S), -12)
        energy_ok = _bounded(*box_square_energy(f, [d_shallow, d_deep]), tau)
        cone = cone_levelset_count(f, grid, [d_shallow, d_deep]).values
        tree = density_profile(S, grid, [d_shallow, d_deep]).values
        cone_ok = all(_bounded(a, b, tau) for a, b in zip(*cone))
        tree_ok = all(_bounded(a, b, tau) for a, b in zip(*tree))
        results[name] = {
            "energy_bounded": energy_ok,
            "cone_bounded": cone_ok,
            "tree_bounded": tree_ok,
        }
        if not (energy_ok == cone_ok == tree_ok):
            mismatches += 1
    return {"verdicts": results, "mismatches": mismatches, "tau": tau, "seed": seed}
