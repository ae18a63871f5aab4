"""Oracle and property tests for second-difference functionals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    box_lattice,
    cone_field,
    exceeds_level,
    first_difference,
    index_of,
    second_difference,
    second_difference_dyadic,
    zygmund_seminorm_slices,
)
from zygdist import cli
from zygdist.dyadic import RealInterval
from zygdist.functionals import (
    DepthProfile,
    _sweep_values,
    box_square_energy,
    cone_levelset_count,
    default_eps_grid,
    density_profile,
    estimate_threshold,
    levelset_tree_density,
    lp_norm,
    zygmund_seminorm,
)
from zygdist.generators import (
    function_suite,
    hat_function,
    lacunary_function,
    linear_function,
    parabola_function,
    random_jump_martingale,
    random_martingale,
    single_branch_martingale,
)
from zygdist.martingale import (
    SampledFunction,
    average_growth,
    dyadic_zygmund_seminorm,
    integrate,
)


# ---------------------------------------------------------------------------
# pointwise differences


def test_first_difference_linear_slope():
    f = linear_function(6, slope=3.0)
    assert first_difference(f, Fraction(1, 4), Fraction(1, 8)) == 3.0
    with pytest.raises(ValueError):
        first_difference(f, Fraction(1, 4), 0)


def test_second_difference_parabola_equals_twice_h():
    f = parabola_function(8)
    for u in (1, 2, 16, 64):
        h = Fraction(u, 256)
        x = Fraction(128, 256)
        assert second_difference(f, x, h) == 2.0 * float(h)


def test_second_difference_compact_zero_extension():
    f = integrate(random_jump_martingale(5, delta=1 / 16, seed=3))
    assert f.compact
    # x at the right endpoint: x + h leaves the support and reads as zero.
    val = second_difference(f, 1, Fraction(1, 4))
    expected = (0.0 - f.values[-1]) - (f.values[-1] - f.values[index_of(f, Fraction(3, 4))])
    assert val == expected / 0.25


def test_second_difference_noncompact_outside_raises():
    f = parabola_function(6)
    with pytest.raises(ValueError):
        second_difference(f, 0, Fraction(1, 4))


def test_exceeds_level_strict():
    f = hat_function(6)
    # At the peak the second difference is exactly -2.
    assert exceeds_level(f, Fraction(1, 2), Fraction(1, 2), 1.9)
    assert not exceeds_level(f, Fraction(1, 2), Fraction(1, 2), 2.0)


# ---------------------------------------------------------------------------
# seminorm sweep


def test_zygmund_seminorm_oracles():
    assert zygmund_seminorm(linear_function(8, slope=2.5)) == 0.0
    assert zygmund_seminorm(hat_function(8)) == 2.0
    assert zygmund_seminorm(parabola_function(8)) == 1.0


def test_zygmund_seminorm_scaling():
    f = integrate(random_martingale(7, seed=11))
    g = type(f)(4.0 * f.values, left=f.left, log2_spacing=f.log2_spacing)
    assert zygmund_seminorm(g) == 4.0 * zygmund_seminorm(f)


def _generated(kind, seed=0, *flags, depth=10):
    """The function ``zygdist generate`` writes for these arguments."""
    argv = ["generate", "--kind", kind, "--depth", str(depth), "--seed", str(seed), *flags]
    payload, _ = cli.cmd_generate(None, cli.build_parser().parse_args(argv))
    return cli.load_function(payload)


_FUNCTION_KINDS = sorted(set(cli._CLASSIFICATIONS) - {"cascade"})


@pytest.mark.parametrize(
    "case",
    [*range(1, 10), *((kind, seed) for kind in _FUNCTION_KINDS for seed in range(3))],
    ids=lambda case: "-".join(map(str, case)) if isinstance(case, tuple) else str(case),
)
def test_zygmund_seminorm_equals_three_slice_form(case):
    if isinstance(case, tuple):  # a generated file at depth 10
        functions = [_generated(*case)]
    else:  # random arrays with `case` cells
        rng = np.random.default_rng(case)
        functions = [
            SampledFunction(values, log2_spacing=-3)
            for values in (rng.standard_normal(case + 1), rng.integers(-8, 9, case + 1) / 16)
        ]
    for f in functions:
        assert zygmund_seminorm(f) == zygmund_seminorm_slices(f)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=80),
    st.integers(-12, 4),
)
def test_zygmund_seminorm_equals_three_slice_form_on_random_arrays(values, log2_spacing):
    f = SampledFunction(values, log2_spacing=log2_spacing)
    assert zygmund_seminorm(f) == zygmund_seminorm_slices(f)


_SMALL = 2**29  # numerators below this are swept as int32


@st.composite
def _lattice_samples(draw, small: bool):
    """Samples ``k 2^-q`` with ``|k| < 2^29`` when ``small``,
    else ``2^29 <= |k| < 2^31`` with one odd ``k``, so the lattice is exactly
    ``2^-q``; quanta from ``2^990`` down to subnormal ``2^-1074``."""
    size = draw(st.integers(2, 40))
    if small:
        k = st.integers(-(_SMALL - 1), _SMALL - 1)
    else:
        k = st.builds(lambda m, sign: sign * m, st.integers(_SMALL, 2**31 - 1), st.sampled_from([1, -1]))
    ks = draw(st.lists(k, min_size=size, max_size=size))
    if not small:
        ks[draw(st.integers(0, size - 1))] |= 1
    q = draw(st.integers(-990, 1074))
    return np.ldexp(np.array(ks, dtype=np.float64), -q)


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(lambda small: st.tuples(st.just(small), _lattice_samples(small))),
       st.integers(-12, 4))
def test_zygmund_seminorm_on_lattice_inputs_equals_three_slice_form(drawn, log2_spacing):
    # the int32 sweep for small numerators (all-zero draws included), the
    # float64 sweep for the rest, over the whole exponent range
    small, values = drawn
    f = SampledFunction(values, log2_spacing=log2_spacing)
    swept, _ = _sweep_values(f.values)
    assert swept.dtype == (np.int32 if small else np.float64)
    assert zygmund_seminorm(f) == zygmund_seminorm_slices(f)


@pytest.mark.parametrize("A, dtype", [(2**29 - 1, np.int32), (2**30 - 1, np.float64)])
@pytest.mark.parametrize("q", [-990, 0, 1074])
def test_zygmund_seminorm_extreme_numerators(A, dtype, q):
    # |d2| = 4A: 2^31 - 4 fits in int32; 2^32 - 4 would not
    f = SampledFunction(np.ldexp(np.array([A, -A, A], dtype=np.float64), -q))
    assert _sweep_values(f.values)[0].dtype == dtype
    assert zygmund_seminorm(f) == zygmund_seminorm_slices(f) == math.ldexp(4 * A, -q) / 0.5


def test_zygmund_seminorm_near_overflow_sweeps_float64():
    # 29-bit numerators at quantum 2^995: the first float64 difference
    # overflows to inf, while the exact numerator sweep would give a finite
    # 2^1023 + 2^995; the overflow bound keeps the float64 sweep
    f = SampledFunction(np.ldexp([-(2.0**28), 2.0**28, 2.0**29 - 1], 995))
    assert _sweep_values(f.values)[0].dtype == np.float64
    with np.errstate(over="ignore"):
        assert zygmund_seminorm(f) == zygmund_seminorm_slices(f) == math.inf


@pytest.mark.parametrize("values", [[0.0, math.inf, 0.0, 1.0], [0.0, 0.0, 0.0]])
def test_zygmund_seminorm_sweeps_non_finite_or_zero_values(values):
    # non-finite values sweep float64 as they are; all-zero values are on
    # every lattice (q = 0) and sweep int32 zeros
    f = SampledFunction(values, log2_spacing=-2)
    swept, scale = _sweep_values(f.values)
    if np.isfinite(f.values).all():
        assert swept.dtype == np.int32 and scale == 1.0
        assert zygmund_seminorm(f) == 0.0
    else:
        assert swept is f.values and scale == 1.0
    assert zygmund_seminorm(f) == zygmund_seminorm_slices(f)


@pytest.mark.parametrize(
    "kind, flags, dtype",
    [
        ("random-jumps", [], np.int32),
        ("hat", [], np.int32),
        ("square", [], np.int32),
        ("lacunary", [], np.int32),  # c = r = 1/2: 9-bit numerators at depth 10
        ("lacunary", ["--ratio", "1/16"], np.float64),
        ("weierstrass", [], np.float64),
    ],
)
def test_zygmund_seminorm_sweeps_int32_numerators_on_small_lattices(kind, flags, dtype):
    swept, scale = _sweep_values(_generated(kind, 0, *flags).values)
    assert swept.dtype == dtype
    assert (scale == 1.0) == (dtype == np.float64)


def test_dyadic_seminorm_below_full_sweep():
    for _, f in function_suite(8, seed=5):
        assert dyadic_zygmund_seminorm(f) <= zygmund_seminorm(f) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# box functionals


def _brute_box_energy(f, interval, depth):
    total = 0.0
    for x, h, w in box_lattice(interval, depth):
        try:
            d2 = second_difference(f, x, h)
        except ValueError:
            continue
        total += w * d2 * d2
    return total / float(interval.length)


def test_box_energy_matches_lattice_reference():
    for _, f in function_suite(6, seed=2):
        fast = box_square_energy(f, depth=4)
        brute = _brute_box_energy(f, f.span, depth=4)
        assert fast == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_box_energy_zero_for_linear():
    assert box_square_energy(linear_function(8, slope=1.0), depth=6) == 0.0


# ---------------------------------------------------------------------------
# tree functional


def _brute_tree_density(S, eps, depth):
    best = 0.0
    for g in range(depth + 1):
        for k in range(1 << g):
            total = 0.0
            for m in range(g, depth):
                width = 1 << (m - g)
                jumps = S.jumps(m + 1)[0::2][k * width : (k + 1) * width]
                total += np.count_nonzero(2.0 * np.abs(jumps) > eps) * 2.0**-m
            best = max(best, total * 2.0**g)
    return best


def test_tree_density_matches_brute_force():
    for _, f in function_suite(6, seed=7):
        S = average_growth(f)
        norm = max(dyadic_zygmund_seminorm(f), 0.25)
        for eps in (0.3 * norm, 0.9 * norm, 1.5 * norm):
            assert levelset_tree_density(S, eps, depth=5) == _brute_tree_density(S, eps, 5)


def test_tree_density_random_jumps_exact_profile():
    delta = 1 / 16
    for depth in (6, 8):
        S = average_growth(integrate(random_jump_martingale(depth, delta=delta, seed=21)))
        for eps in (0.0, delta, 2 * delta * (1 - 1e-9)):
            assert levelset_tree_density(S, eps, depth=depth) == float(depth)
        for eps in (2 * delta, 3 * delta):
            assert levelset_tree_density(S, eps, depth=depth) == 0.0


def test_tree_density_hat():
    S = average_growth(hat_function(8))
    assert levelset_tree_density(S, 1.5, depth=8) == 1.0
    assert levelset_tree_density(S, 2.0, depth=8) == 0.0


def test_tree_density_single_branch_bounded():
    for depth in (4, 8, 10):
        S = single_branch_martingale(depth, delta=1 / 2)
        assert levelset_tree_density(S, 0.5, depth=depth) == 2.0 - 2.0 ** (1 - depth)


def test_tree_density_lacunary_all_generations():
    S = average_growth(lacunary_function(8))
    assert levelset_tree_density(S, 0.9, depth=8) == 8.0
    assert levelset_tree_density(S, 1.0, depth=8) == 0.0


@settings(max_examples=25)
@given(seed=st.integers(0, 500))
def test_tree_density_monotone(seed):
    S = random_martingale(7, seed=seed)
    norm = 2.0 * max(float(np.abs(S.jumps(n)).max()) for n in range(1, 8))
    values = [levelset_tree_density(S, t * norm, depth=7) for t in (0.1, 0.4, 0.8, 1.1)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert levelset_tree_density(S, 0.3 * norm, depth=7) >= levelset_tree_density(
        S, 0.3 * norm, depth=4
    )


# ---------------------------------------------------------------------------
# profiles and threshold estimation


def test_estimate_threshold_picks_first_stable_level():
    profile = DepthProfile(
        depths=[8, 12],
        eps=[0.1, 0.2, 0.4, 0.8],
        values=[[8.0, 8.0, 0.0, 0.0], [12.0, 8.4, 0.0, 0.0]],
    )
    est = estimate_threshold(profile, tau=0.1)
    assert est.eps == 0.2
    assert est.ratios[0] == pytest.approx(1.5)
    assert est.stable == [False, True, True, True]
    assert est.method == "depth-ratio"


def test_estimate_threshold_inconclusive_and_growth_from_zero():
    profile = DepthProfile(
        depths=[4, 8],
        eps=[0.1, 0.2],
        values=[[4.0, 0.0], [8.0, 1.0]],
    )
    est = estimate_threshold(profile)
    assert est.eps is None
    assert est.ratios[1] == np.inf


def test_density_profile_random_jumps_threshold():
    delta = 1 / 16
    S = average_growth(integrate(random_jump_martingale(8, delta=delta, seed=2)))
    profile = density_profile(S, default_eps_grid(S), depths=[6, 8])
    est = estimate_threshold(profile)
    assert est.eps == 2 * delta


# ---------------------------------------------------------------------------
# cone functionals


def test_cone_zero_for_linear():
    f = linear_function(7, slope=2.0)
    assert cone_levelset_count(f, [0.0], [5]).values == [[0.0]]


def test_cone_count_bound_and_chebyshev():
    depth = 5
    for _, f in function_suite(7, seed=13):
        norm = max(dyadic_zygmund_seminorm(f), 0.25)
        eps = 0.4 * norm
        profile = cone_levelset_count(f, [eps], [depth])
        assert profile.depths == [depth] and profile.eps == [eps]
        # each leaf counts at most 3 samples per layer, each of mass 4/9
        assert profile.values[0][0] ** 2 <= (4.0 / 3.0) * depth + 1e-12


def test_cone_count_single_sample_weight():
    # A pure hat has |d2| > 1.9 only at configurations centred next to its
    # peak: none on layer 0, three samples on layer 1, each seen by three
    # apexes.  Each qualifying sample contributes exactly 4/9.
    f = hat_function(6)
    (layer0,), (layer1,) = cone_levelset_count(f, [1.9], [1, 2]).values
    assert layer0 == 0.0
    assert layer1**2 * 9 / 4 * 2**6 == pytest.approx(9, rel=1e-12)


def _cone_table(f, grid, depths):
    return [[lp_norm(cone_field(f, e, d), 2.0) for e in grid] for d in depths]


def _third(f):
    return SampledFunction(f.values / 3.0, left=f.left, log2_spacing=f.log2_spacing)


@pytest.mark.parametrize("depth", range(3, 13))
def test_cone_count_equals_per_level_oracle(depth):
    # grids with 0, a duplicate, inf and a level below every |d2|; depths
    # 1, N - 1 and N (N - 1 and N share the deepest layer); weierstrass
    # and the / 3 inputs are off the binary lattice
    for _, f in function_suite(depth, seed=depth):
        for g in (f, _third(f)):
            grid = default_eps_grid(average_growth(g))[::4] + [0.0, 0.0, math.inf, -1.0]
            depths = [1, depth - 1, depth]
            table = cone_levelset_count(g, grid, depths).values
            assert table == _cone_table(g, grid, depths)


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(1, 10),
    seed=st.integers(0, 2**16),
    which=st.integers(0, 5),
    third=st.booleans(),
    exponents=st.lists(st.integers(-24, 4), max_size=6),
    extra=st.lists(st.sampled_from([0.0, math.inf]), max_size=2),
    depths=st.lists(st.integers(1, 12), min_size=1, max_size=4),
)
def test_cone_count_oracle_property(depth, seed, which, third, exponents, extra, depths):
    _, f = function_suite(depth, seed=seed)[which]
    g = _third(f) if third else f
    grid = [dyadic_zygmund_seminorm(g) * 2.0 ** (j / 2) for j in exponents] + extra
    assert cone_levelset_count(g, grid, depths).values == _cone_table(g, grid, depths)


# ---------------------------------------------------------------------------
# norms and grids


def test_lp_norm_constant_and_errors():
    field = np.full(16, 0.75)
    for p in (1.5, 2.0, 3.0):
        assert lp_norm(field, p) == pytest.approx(0.75, rel=1e-12)
    with pytest.raises(ValueError):
        lp_norm(field, 1.0)


def test_default_eps_grid_contains_seminorm():
    grid = default_eps_grid(average_growth(hat_function(8)))
    assert len(grid) == 23
    assert grid == sorted(grid)
    assert 2.0 in grid
    assert grid[0] == pytest.approx(2.0 * 2.0**-10)
    assert grid[-1] == pytest.approx(4.0)
    assert default_eps_grid(average_growth(linear_function(6))) == [0.0]


def test_second_difference_matches_dyadic_form():
    f = integrate(random_martingale(7, seed=31))
    S = average_growth(f)
    for n in (0, 2, 5):
        for j in (0, (1 << n) - 1):
            cell = RealInterval(Fraction(j, 1 << n), Fraction(j + 1, 1 << n))
            h = cell.length / 2
            d2 = second_difference(f, cell.left + h, h)
            assert d2 == second_difference_dyadic(f, cell)
            assert d2 == 2.0 * S.jumps(n + 1)[2 * j + 1]
