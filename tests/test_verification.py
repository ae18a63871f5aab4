"""Tests for the inequality verifiers."""

import math

import numpy as np
import pytest

from reference import (
    block_max,
    block_sum,
    delta1_samples,
    maximal_function,
    one_split_measure,
    predecessor_levels_loop,
    quadratic_characteristic,
    random_martingale_loop,
    second_difference_gathered,
    unit_tree_distance,
)
from zygdist.functionals import (
    _bounded,
    _indexed,
    _second_difference,
    lp_norm,
    zygmund_seminorm,
)
from zygdist.generators import (
    _random_martingale_levels,
    _rng,
    cascade_measure,
    hat_function,
    lacunary_function,
    linear_function,
    parabola_function,
    random_jump_martingale,
    random_martingale,
    weierstrass_function,
)
from zygdist import generators, verification
from zygdist.martingale import (
    DyadicMartingale,
    _block_reduce,
    average_growth,
    integrate,
    star_norm,
)
from zygdist.measures import GridMeasure, density_martingale, measure_zygmund_norm
from zygdist.verification import (
    _SAMPLES,
    _bdg_ratios,
    _check_equal_centre,
    _check_equal_step,
    _check_first_difference,
    _check_measure_modulus,
    _check_second_difference_modulus,
    _delta1_samples,
    _lemma_function_family,
    _lemma_measure_family,
    _lemma_table,
    _log_uniform,
    _predecessor_levels,
    _unit_tree_cells,
    _unit_tree_distance,
    _verify_dyadic_distance_bound,
    verify_bdg,
    verify_predecessor_measure,
    verify_strichartz_consistency,
)

FUNCTION_CHECKS = [
    _check_second_difference_modulus,
    _check_equal_step,
    _check_equal_centre,
    _check_first_difference,
]
ALL_CHECKS = FUNCTION_CHECKS + [_check_measure_modulus]


def _checked(check, x, norm, seed):
    """The report of a check on one object: a one-member batch for the
    function checks, the object itself for the measure check."""
    if isinstance(x, GridMeasure):
        return check(x, norm, seed)
    (report,) = check([x], [norm], seed)
    return report


def _run(check, x, seed):
    """A check, measured against its object's own norm: the seminorm of a
    function, the dyadic norm of a measure."""
    norm = measure_zygmund_norm(x) if isinstance(x, GridMeasure) else zygmund_seminorm(x)
    return _checked(check, x, norm, seed)


def _subject(check):
    """An object with nonzero norm for ``check``."""
    if check is _check_measure_modulus:
        return GridMeasure(cascade_measure(2, 4, seed=3))
    return lacunary_function(8)


# ---------------------------------------------------------------------------
# helpers


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("seed", range(10))
def test_shared_kernels_match_the_oracles_on_lemma_cascades(seed, scale):
    rng = np.random.default_rng(seed)
    for _, mu in _lemma_measure_family(scale, seed):
        d, side = mu.dim, 1 << mu.depth
        S = density_martingale(mu)
        for n in range(1, S.depth + 1):
            level, dev = S.levels[n], np.abs(S.jumps(n))
            assert _block_reduce(level, d).tobytes() == block_sum(level, d).tobytes()
            assert (
                _block_reduce(dev, d, np.maximum).tobytes()
                == block_max(dev, d).tobytes()
            )
        centers = rng.integers(0, side + 1, size=(1000, d))
        half = rng.integers(1, side // 2 + 1, 1000)
        assert np.array_equal(
            _delta1_samples(mu, centers, half), delta1_samples(mu, centers, half)
        )


def test_log_uniform_range_and_coverage():
    rng = _rng(0, 99)
    values = _log_uniform(rng, 1, 64, 20000)
    assert values.min() >= 1 and values.max() <= 64
    assert values.min() == 1 and values.max() == 64
    # log-uniform: each octave gets comparable mass
    low = np.count_nonzero(values <= 8)
    high = np.count_nonzero(values > 8)
    assert 0.3 < low / high < 3.0


def test_log_uniform_rejects_empty_range():
    with pytest.raises(ValueError):
        _log_uniform(_rng(0, 99), 5, 4, 10)


# ---------------------------------------------------------------------------
# distance matrix and exhaustive bound


def test_unit_tree_distance_matches_interval_distance():
    cells = _unit_tree_cells(4)
    dist = _unit_tree_distance(4)
    for a, (n, j) in enumerate(cells):
        for b, (m, k) in enumerate(cells):
            expected = unit_tree_distance((n, j), (m, k))
            assert dist[a, b] == expected


def test_distance_bound_holds_with_margin():
    report = _verify_dyadic_distance_bound(seed=0)
    assert report.max_ratio <= 1.0
    # a parent/child pair carrying the largest jump realises exactly 1/2
    assert report.max_ratio == 0.5
    assert report.samples == 20 * 127 * 126


def test_distance_bound_deterministic():
    a = _verify_dyadic_distance_bound(seed=3)
    b = _verify_dyadic_distance_bound(seed=3)
    assert a.max_ratio == b.max_ratio and a.argmax == b.argmax


# ---------------------------------------------------------------------------
# modulus checks


@pytest.mark.parametrize("check", FUNCTION_CHECKS)
def test_modulus_ratios_finite(check):
    for f in [
        hat_function(8),
        parabola_function(8),
        lacunary_function(8),
        integrate(random_jump_martingale(8, seed=1)),
    ]:
        report = _run(check, f, seed=0)
        assert math.isfinite(report.max_ratio)
        assert report.max_ratio >= 0.0
        assert report.samples > 0


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_modulus_deterministic(check):
    # one seed gives one report, witness and sample count included
    x = _subject(check)
    a = _run(check, x, seed=7)
    assert a.max_ratio > 0.0 and a.argmax
    assert _run(check, x, seed=7) == a


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_modulus_zero_norm_gives_the_zero_report(check):
    report = _checked(check, _subject(check), 0.0, seed=7)
    assert report.max_ratio == 0.0
    assert report.samples == _SAMPLES
    assert report.argmax == {}
    assert report.seed == 7


@pytest.mark.parametrize("check", FUNCTION_CHECKS)
def test_modulus_scale_invariant(check):
    f = lacunary_function(8)
    g = type(f)(4.0 * f.values, left=f.left, log2_spacing=f.log2_spacing)
    a = _run(check, f, seed=5)
    b = _run(check, g, seed=5)
    assert a.max_ratio == pytest.approx(b.max_ratio, rel=1e-12)


@pytest.mark.parametrize("check", FUNCTION_CHECKS)
def test_modulus_zero_function(check):
    report = _run(check, linear_function(8), seed=0)
    assert report.max_ratio == 0.0


def test_modulus_noncompact_drops_outside_samples():
    f = weierstrass_function(8)
    report = _run(_check_second_difference_modulus, f, seed=0)
    assert 0 < report.samples < _SAMPLES
    assert math.isfinite(report.max_ratio)


@pytest.mark.parametrize("kind", ["parabola", "random-jumps"])
def test_lemma_table_holds_the_widest_reads(kind):
    # _check_equal_step's t -+ u, with t = x -+ s, x in {0, M} and
    # s = u = M/2, reads exactly -M and 2M; parabola is not compact.  Each
    # row of the stacked table reads as its own member does.
    members = {"parabola": parabola_function(5), "random-jumps": integrate(random_jump_martingale(5))}
    f = members.pop(kind)
    stack = [f, *members.values()]
    M, padded, exists = _lemma_table(stack)
    assert padded.shape == exists.shape == (2, 3 * M + 1)
    t = np.array([0, M]) + np.array([-1, 1]) * (M // 2)
    u = np.full(2, M // 2)
    d2, ok = _second_difference(f, padded, exists, _indexed(M, t, u), u)
    for row, member in enumerate(stack):
        want, want_ok = second_difference_gathered(member, t, u)
        assert np.array_equal(d2[row], want) and np.array_equal(ok[row], want_ok)
    assert ok[0].all() == f.compact


def test_equal_step_is_exact_zero_for_parabola():
    # the second difference of x^2 depends only on the step, never the centre
    report = _run(_check_equal_step, parabola_function(8), seed=2)
    assert report.max_ratio == 0.0


def test_argmax_config_satisfies_constraints():
    f = lacunary_function(8)
    report = _run(_check_second_difference_modulus, f, seed=1)
    assert 0.0 < report.argmax["h"] < report.argmax["hp"]
    assert abs(report.argmax["x"] - report.argmax["t"]) < report.argmax["hp"] / 2
    report = _run(_check_equal_step, f, seed=1)
    gap = abs(report.argmax["x"] - report.argmax["t"])
    assert 0.0 < gap < report.argmax["h"] / 2
    report = _run(_check_first_difference, f, seed=1)
    gap = abs(report.argmax["x"] - report.argmax["t"])
    assert gap > report.argmax["h"] / 2


def test_lemma_suite_computes_each_norm_once(monkeypatch):
    # five functions and three measures, each drawn at two depths
    seen = {"zygmund_seminorm": [], "measure_zygmund_norm": []}
    for name, norms in seen.items():
        norm = getattr(verification, name)

        def recorded(x, norm=norm, norms=norms):
            norms.append(x)
            return norm(x)

        monkeypatch.setattr(verification, name, recorded)
    verification.run_lemma_suite(seed=0)
    for norms, count in zip(seen.values(), (10, 6)):
        assert len(norms) == count
        assert len({id(x) for x in norms}) == count


@pytest.mark.parametrize("depth", [6, 12])
@pytest.mark.parametrize("check", FUNCTION_CHECKS)
def test_batched_check_equals_its_one_member_batches(check, depth):
    # one draw for the whole family: each member's report is that of a
    # one-member call; linear (norm 0) mid-stack gets the zero report and
    # leaves the others as they are
    family = [f for _, f in _lemma_function_family(depth, seed=3)]
    family.insert(2, linear_function(depth))
    norms = [zygmund_seminorm(f) for f in family]
    assert norms[2] == 0.0 and all(norms[:2] + norms[3:])
    batch = check(family, norms, seed=4)
    assert len(batch) == len(family)
    for f, norm, report in zip(family, norms, batch):
        assert report == _checked(check, f, norm, seed=4)
    assert batch[2] == verification._zero_report(batch[2].name, 4)


@pytest.mark.parametrize("check", FUNCTION_CHECKS)
def test_zero_norm_member_is_never_read(monkeypatch, check):
    # dividing by a zero norm gives only inf and nan, which _report would
    # also turn into the zero report; the row is not handed to it at all
    rows = []
    report = verification._report

    def recorded(name, ratios, *args):
        rows.append(ratios)
        return report(name, ratios, *args)

    monkeypatch.setattr(verification, "_report", recorded)
    f = lacunary_function(8)
    batch = check([f, f], [0.0, zygmund_seminorm(f)], seed=7)
    assert batch[0] == verification._zero_report(batch[0].name, 7)
    assert batch[1].max_ratio > 0.0
    (ratios,) = rows
    assert np.isfinite(ratios).all()


@pytest.mark.parametrize("M", [64, 4096])
@pytest.mark.parametrize("check", [_check_second_difference_modulus, _check_equal_centre])
def test_step_pairs_stay_within_half_the_grid(monkeypatch, check, M):
    # h' = u + g with u, g <= M/4: every drawn step reads inside the grid's
    # half width, so no sample needs masking for it
    steps = []
    second_difference = verification._second_difference

    def recorded(f, padded, exists, reads, t):
        steps.append(t)
        return second_difference(f, padded, exists, reads, t)

    monkeypatch.setattr(verification, "_second_difference", recorded)
    f = integrate(random_jump_martingale(M.bit_length() - 1, seed=1))
    for seed in range(5):
        _run(check, f, seed)
    assert len(steps) == 10
    for t in steps:
        assert t.min() >= 1 and 2 * t.max() <= M


def test_function_depth_doubling_stable():
    check = _check_second_difference_modulus
    shallow = _run(check, lacunary_function(5), seed=1)
    deep = _run(check, lacunary_function(10), seed=2)
    assert _bounded(shallow.max_ratio, deep.max_ratio, 0.5)


# ---------------------------------------------------------------------------
# measure modulus


def test_measure_modulus_uniform_is_zero():
    mu = GridMeasure(np.full(64, 1.0 / 64))
    report = _run(_check_measure_modulus, mu, seed=0)
    assert report.max_ratio == 0.0


def test_measure_modulus_finite_and_deterministic():
    for dim, depth in [(1, 6), (2, 4)]:
        mu = GridMeasure(cascade_measure(dim, depth, seed=3))
        a = _run(_check_measure_modulus, mu, seed=4)
        b = _run(_check_measure_modulus, mu, seed=4)
        assert math.isfinite(a.max_ratio) and a.max_ratio > 0.0
        assert a.max_ratio == b.max_ratio


def test_measure_modulus_single_split_bounded():
    # one deviating split of relative size theta: ratios stay of order one
    mu = GridMeasure(one_split_measure(1, 6, theta=0.25))
    report = _run(_check_measure_modulus, mu, seed=0)
    assert 0.0 < report.max_ratio < 10.0


def test_measure_depth_doubling_stable():
    mu_s = GridMeasure(cascade_measure(1, 5, seed=0))
    mu_d = GridMeasure(cascade_measure(1, 10, seed=0))
    a = _run(_check_measure_modulus, mu_s, seed=1)
    b = _run(_check_measure_modulus, mu_d, seed=2)
    assert _bounded(a.max_ratio, b.max_ratio, 0.5)


# ---------------------------------------------------------------------------
# predecessor generation statistics


@pytest.mark.parametrize("R", [1, 2, 4])
def test_predecessor_measure_bounds_and_total(R):
    report = verify_predecessor_measure(R, seed=0)
    assert all(report.level_ok)
    assert report.total_ok
    assert abs(report.total - 2.0 * R) <= 0.01 * 2.0 * R


def test_predecessor_level_one_is_empty():
    # the finest possible ancestor requires exact edge alignment: measure zero
    report = verify_predecessor_measure(2, seed=1)
    assert report.empirical[0] == 0.0


def test_predecessor_matches_halving_law():
    # the ancestor-generation measure halves per level: 2R * 2^(1-k)
    report = verify_predecessor_measure(1, seed=2)
    for k in range(2, 7):
        expected = 2.0 * 2.0 ** (1 - k)
        assert report.empirical[k - 1] == pytest.approx(expected, rel=0.1)


@pytest.mark.parametrize("R", [1, 2, 3, 4, 8])
def test_predecessor_levels_equal_the_float_loop(monkeypatch, R):
    # the integer pass gives the ten float passes' levels, and so their report
    for seed in range(40):
        drawn = []

        def loop(shifts):
            drawn.append((shifts, predecessor_levels_loop(shifts)))
            return drawn[-1][1]

        with monkeypatch.context() as patch:
            patch.setattr(verification, "_predecessor_levels", loop)
            expected = verify_predecessor_measure(R, seed=seed)
        ((shifts, levels),) = drawn
        assert np.array_equal(_predecessor_levels(shifts), levels)
        assert verify_predecessor_measure(R, seed=seed) == expected


@pytest.mark.parametrize("R", [1, 2, 8])
def test_predecessor_levels_across_zero_and_at_both_ends(R):
    # shifts whose two points straddle 0 (lo ^ hi < 0: no cell holds both),
    # land on it, or sit at the first and last shifts of [-R, R)
    edge, half = R << 40, 1 << 20
    near_zero = np.arange(-4 * half, 4 * half, 4099)
    hand_built = [-half - 1, -half, -half + 1, -1, 0, half - 1, half, half + 1]
    ends = [-edge, -edge + 1, -edge + half, edge - half - 1, edge - half, edge - 1]
    shifts = np.concatenate((near_zero, hand_built, ends)).astype(np.int64)
    levels = _predecessor_levels(shifts)
    assert np.array_equal(levels, predecessor_levels_loop(shifts))
    straddling = ((shifts - half) ^ (shifts + half)) < 0
    assert straddling.sum() > 500 and (levels[straddling] == 11).all()
    # the ends of [-R, R) are multiples of the coarsest width: no cell holds
    # a pair around one or ending on one; a pair starting on one or ending
    # just below one is held two generations up
    assert levels[-len(ends):].tolist() == [11, 11, 2, 2, 11, 11]


def test_predecessor_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_predecessor_measure(0)


# ---------------------------------------------------------------------------
# two-sided square-function bound


def test_bdg_ratios_in_range():
    report = verify_bdg(seed=0)
    assert report["count"] == 100
    assert report["in_range"]
    assert 1.0 <= report["min"] <= report["max"] <= 2.0


def test_bdg_lower_bound_strict_for_random_walks():
    report = verify_bdg(seed=5)
    assert report["min"] > 1.0


@pytest.mark.parametrize("seed", [0, 5, 35, 61])
def test_bdg_ratios_equal_the_leaf_size_reference(seed):
    # the stacked, top-down sums and maxima give the bits of the leaf-size
    # functionals on each martingale, norm by norm
    expected = []
    for i in range(100):
        S = DyadicMartingale(random_martingale_loop(10, seed + i))
        qc = lp_norm(quadratic_characteristic(S), 2.0)
        if qc != 0.0:
            expected.append(lp_norm(maximal_function(S), 2.0) / qc)
    assert np.array(_bdg_ratios(seed)).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("depth", [0, 1, 4, 10, 12])
@pytest.mark.parametrize("seeds", [[0, 1, 35, 2**63 + 5, 2**64 - 1], [2**64 - 1]])
def test_random_martingale_levels_equal_the_per_seed_loop(depth, seeds):
    # one draw over per-value bounds per seed gives the bits of one draw per
    # generation's steps and signs: this pins that under the installed NumPy
    levels = _random_martingale_levels(depth, seeds)
    assert len(levels) == depth + 1
    for i, seed in enumerate(seeds):
        loop = random_martingale_loop(depth, seed)
        single = random_martingale(depth, seed).levels
        for n in range(depth + 1):
            assert levels[n].shape == (len(seeds), 2**n)
            assert levels[n][i].tobytes() == loop[n].tobytes() == single[n].tobytes()


def test_bdg_draws_each_martingale_in_one_call(monkeypatch):
    # each of the 100 martingales draws its whole stream from its own
    # (seed, 2) generator in one `integers` call
    ratios = _bdg_ratios(3)
    drawn = []

    class Counted:
        def __init__(self, seed, tag):
            self.rng, self.key, self.calls = _rng(seed, tag), (seed, tag), 0
            drawn.append(self)

        def integers(self, *args, **kwargs):
            self.calls += 1
            return self.rng.integers(*args, **kwargs)

    monkeypatch.setattr(generators, "_rng", Counted)
    assert _bdg_ratios(3) == ratios
    assert [(d.key, d.calls) for d in drawn] == [((seed, 2), 1) for seed in range(3, 103)]


# ---------------------------------------------------------------------------
# functional boundedness consistency


def test_strichartz_consistency_no_mismatches():
    report = verify_strichartz_consistency(seed=0)
    assert report["mismatches"] == 0
    verdicts = report["verdicts"]
    expected = {
        "linear": True,
        "hat": True,
        "parabola": True,
        "lacunary": False,
        "random-jumps": False,
    }
    for name, bounded in expected.items():
        for key in ("energy_bounded", "cone_bounded", "tree_bounded"):
            assert verdicts[name][key] == bounded, (name, key)


def test_strichartz_consistency_other_seed():
    report = verify_strichartz_consistency(seed=42)
    assert report["mismatches"] == 0


def test_strichartz_consistency_grid_starts_at_2_star_norm_over_64(monkeypatch):
    grids = []
    for name in ("_cone_lattice", "density_profile"):
        functional = getattr(verification, name)

        def recorded(source, grid, depths, functional=functional):
            grids.append((source, list(grid)))
            return functional(source, grid, depths)

        monkeypatch.setattr(verification, name, recorded)
    verify_strichartz_consistency(seed=0)
    assert len(grids) == 10  # two functionals for each of five functions
    for source, grid in grids:
        S = source if isinstance(source, DyadicMartingale) else average_growth(source)
        assert grid[0] == 2.0 * star_norm(S) * 2.0**-6
        assert grid[-1] == 2.0 * star_norm(S) * 2.0
