"""Oracle and property tests for second-difference functionals."""

import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (
    box_energy_gathered,
    box_lattice,
    cone_field,
    exceeds_level,
    first_difference,
    index_of,
    second_difference,
    second_difference_dyadic,
    second_difference_gathered,
    sloped_line,
    tree_profile_loop,
    zygmund_seminorm_slices,
)
from zygdist import cli, functionals
from zygdist.approximation import continuous_decompose, distance_report
from zygdist.functionals import (
    DepthProfile,
    _bounded,
    _growth_ratio,
    _indexed,
    _level_thresholds,
    _second_difference,
    _sweep_values,
    _tree_profile,
    _zero_padded,
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
    cascade_measure,
    function_suite,
    hat_function,
    lacunary_function,
    linear_function,
    parabola_function,
    random_jump_martingale,
    random_martingale,
    single_branch_martingale,
    weierstrass_function,
)
from zygdist.martingale import (
    DyadicMartingale,
    SampledFunction,
    _dropped,
    _parent_deviation,
    _parent_sizes,
    average_growth,
    dyadic_zygmund_seminorm,
    integrate,
    star_norm,
)
from zygdist.measures import GridMeasure, density_martingale, measure_tree_levelset_density
from zygdist.verification import verify_strichartz_consistency


def _third(f):
    return SampledFunction(f.values / 3.0, left=f.left, log2_spacing=f.log2_spacing)


def _off_compact(f):
    """``f + 0.25 + x/2``: non-zero at both ends, so not compact."""
    x = float(f.left) + np.arange(f.values.size) * float(f.spacing)
    g = SampledFunction(f.values + 0.25 + x / 2, left=f.left, log2_spacing=f.log2_spacing)
    assert not g.compact
    return g


# ---------------------------------------------------------------------------
# pointwise differences


def test_first_difference_linear_slope():
    f = sloped_line(6, 3)
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
    assert zygmund_seminorm(sloped_line(8, 2.5)) == 0.0
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


# Inputs where the step bound skips most steps.  Only random-jumps depends on
# the seed, so repeated files are swept once.  Each is also scaled off the
# lattice, into subnormals, and toward overflow: the seminorm near 2^1022 with
# the slack still finite.
_SCALINGS = {
    "as-is": lambda v, spacing: v,
    "third": lambda v, spacing: v / 3,
    "subnormal": lambda v, spacing: np.ldexp(v, -1030),
    "near-overflow": lambda v, spacing: v / np.abs(v).max() * (2.0**1020 * spacing),
}


@pytest.mark.parametrize("scaling", _SCALINGS)
@pytest.mark.parametrize("depth", [10, 11, 12, 13])
@pytest.mark.parametrize("kind", _FUNCTION_KINDS)
def test_zygmund_seminorm_equals_three_slice_form_where_steps_skip(kind, depth, scaling):
    files = {}
    for seed in range(4):
        f = _generated(kind, seed, depth=depth)
        files.setdefault(f.values.tobytes(), f)
    for f in files.values():
        values = _SCALINGS[scaling](f.values, float(f.spacing))
        g = SampledFunction(values, left=f.left, log2_spacing=f.log2_spacing)
        assert zygmund_seminorm(g) == zygmund_seminorm_slices(g)


def test_zygmund_seminorm_on_continuous_small_parts_equals_three_slice_form():
    # from depth 12 on, the finer levels' small parts leave the int32 lattice
    f = _generated("random-jumps", 0, depth=12)
    parts = continuous_decompose(f, default_eps_grid(average_growth(f)))
    assert len(parts.small) == 23
    dtypes = set()
    for small in parts.small:
        dtypes.add(_sweep_values(small.values)[0].dtype)
        assert zygmund_seminorm(small) == zygmund_seminorm_slices(small)
    assert dtypes == {np.dtype(np.int32), np.dtype(np.float64)}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(64, 2048),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["lattice", "normal", "noisy"]),
    st.sampled_from([1.0, 1 / 3, 1e300, 1e-310, 2.0**-1030]),
    st.integers(-12, 4),
)
def test_zygmund_seminorm_on_random_walks_equals_three_slice_form(size, seed, steps, factor, log2_spacing):
    # long walks, where the bound skips, on the int32 and the float64 sweep
    rng = np.random.default_rng(seed)
    if steps == "lattice":
        walk = np.cumsum(rng.integers(-64, 65, size)) / 64
    else:
        walk = np.cumsum(rng.standard_normal(size))
        if steps == "noisy":
            walk += rng.uniform(-1.0, 1.0, size)
    f = SampledFunction(walk * factor, log2_spacing=log2_spacing)
    assert zygmund_seminorm(f) == zygmund_seminorm_slices(f)


def test_zygmund_seminorm_slack_covers_rounded_differences():
    # A ramp across zero: its six computed first differences agree (W = 0)
    # and steps 1 and 2 read 0, but the exact differences do not agree, and
    # step 3 reads 2^-22.  Without the slack E the bound would skip step 3.
    values = [
        -1440724231.4841251, -1035972774.4426864, -631221317.4012477, -226469860.35980907,
        178281596.68162963, 583033053.7230684, 987784510.764507,
    ]
    f = SampledFunction(values, log2_spacing=0)
    assert np.ptp(np.diff(f.values)) == 0.0
    assert zygmund_seminorm(f) == zygmund_seminorm_slices(f) == 2.0**-22 / 3


def _steps_swept(monkeypatch, f) -> int:
    """How many steps ``zygmund_seminorm(f)`` sweeps."""
    swept = []
    step_peak = functionals._step_peak

    def counting(d1, u):
        swept.append(u)
        return step_peak(d1, u)

    monkeypatch.setattr(functionals, "_step_peak", counting)
    zygmund_seminorm(f)
    monkeypatch.undo()
    return len(swept)


def test_zygmund_seminorm_skips_on_the_grid_deep_input_and_not_on_single_branch(monkeypatch):
    # the benchmark's grid-deep input: random-jumps, delta 1/16, depth 15:
    # the widest step, then 39 from step 1
    f = _generated("random-jumps", 7, "--delta", "1/16", depth=15)
    assert _steps_swept(monkeypatch, f) == 40
    # single-branch's largest second difference is the same at every step:
    # every step is swept, the widest one once
    assert _steps_swept(monkeypatch, _generated("single-branch", 0)) == 512


def test_zygmund_seminorm_widest_step_seed_pins(monkeypatch):
    # second differences growing with the step peak at the widest one,
    # which rules out most others; where they do not grow, the seed costs
    # one step
    assert _steps_swept(monkeypatch, parabola_function(12)) == 15
    assert _steps_swept(monkeypatch, _generated("square", 0)) == 12
    assert _steps_swept(monkeypatch, hat_function(12)) == 2
    assert _steps_swept(monkeypatch, linear_function(12)) == 2
    # one cell has no step, two or three cells only the widest
    for cells in (1, 2, 3):
        f = SampledFunction(np.arange(cells + 1.0) ** 2, log2_spacing=0)
        assert _steps_swept(monkeypatch, f) == cells // 2


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
        (fast,) = box_square_energy(f, [4])
        brute = _brute_box_energy(f, f.span, depth=4)
        assert fast == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_box_energy_zero_for_linear():
    assert box_square_energy(linear_function(8), [6]) == [0.0]


@pytest.mark.parametrize("depth", [1, 2, 5, 9, 12])
def test_box_energy_equals_gathered_oracle(depth):
    # the strided slices of the padded copy read what the index gathers
    # read, zero extension and the non-compact edge mask included; one
    # unsorted depth list, with a duplicate, 0 and depths past N
    depths = [depth + 1, 0, *range(depth, 0, -1), 1, depth + 3]
    for _, f in function_suite(depth, seed=depth):
        for g in (f, _third(f), _off_compact(f)):
            values = box_square_energy(g, depths)
            assert values == [box_energy_gathered(g, d) for d in depths]


@pytest.mark.parametrize("depth", [2, 6])
def test_index_reader_equals_gathered_oracle(depth):
    # every centre in [-M/2, 3M/2] with every step up to M/2: reads from
    # exactly -M to exactly 2M, on compact and non-compact input
    suite = dict(function_suite(depth, seed=depth))
    M = 1 << depth
    grid = np.meshgrid(np.arange(-M // 2, 3 * M // 2 + 1), np.arange(1, M // 2 + 1))
    x, u = (a.ravel() for a in grid)
    assert (x - u).min() == -M and (x + u).max() == 2 * M
    for f in (suite["random-jumps"], suite["parabola"], _off_compact(suite["random-jumps"])):
        padded, exists = _zero_padded(f, M)
        d2, ok = _second_difference(f, padded, exists, _indexed(M, x, u), u)
        want, want_ok = second_difference_gathered(f, x, u)
        assert np.array_equal(d2, want) and np.array_equal(ok, want_ok)
        assert ok.all() == f.compact


# ---------------------------------------------------------------------------
# tree functional


def _brute_tree_density(S, eps, depth):
    best = 0.0
    for g in range(depth + 1):
        for k in range(1 << g):
            total = 0.0
            for m in range(g, depth):
                width = 1 << (m - g)
                dj = S.jumps(m + 1)
                sizes = np.maximum(abs(dj[0::2]), abs(dj[1::2]))[k * width : (k + 1) * width]
                total += np.count_nonzero(2.0 * sizes > eps) * 2.0**-m
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


def _descending_grid(S, parent_size):
    """23 of the parents' own sizes (levels where `>` and `>=` differ)
    and 0, a duplicate, inf and -1, in descending order."""
    sizes = np.unique(np.concatenate([parent_size(S, m).ravel() for m in range(S.depth)]))
    picks = sizes[np.linspace(0, sizes.size - 1, 23).astype(int)].tolist()
    return sorted(picks + [0.0, 0.0, math.inf, -1.0], reverse=True)


def _cascade_deviation(S, m):
    return _parent_deviation(S.jumps(m + 1), S.dim)


def _second_difference_size(S, m):
    """``density_profile``'s parent sizes: twice the deviation."""
    return 2.0 * _parent_deviation(S.jumps(m + 1), S.dim)


# subnormal levels whose halves round up (m 2^-1074, m = 3 mod 4)
_ROUNDING_LEVELS = [3 * 2.0**-1074, 7 * 2.0**-1074, 2.0**-1022 + 3 * 2.0**-1074]


def _profile_case(source, dim, depth):
    """The martingale, parent-size rule, level grid and ``_tree_profile``
    thresholds of a tree-profile case."""
    if source == "cascade":
        S = density_martingale(GridMeasure(cascade_measure(dim, depth, seed=depth)))
        grid = _descending_grid(S, _cascade_deviation)
        return S, _cascade_deviation, grid, grid
    if source == "overflow":
        # slopes of +-1.7e308 samples overflow: inf and NaN parent sizes
        v = np.random.default_rng(1).choice([1.7e308, -1.7e308], (1 << depth) + 1)
        S = average_growth(SampledFunction(v, left=0, log2_spacing=-depth))
        grid = [0.0, math.inf, math.nan, -1.0]
    elif source == "subnormal":
        # parent sizes of a few times 2^-1074, on both sides of the rounding levels
        leaf = np.random.default_rng(depth).integers(-6, 7, 1 << depth) * 2.0**-1074
        S = DyadicMartingale.from_leaf(leaf)
        grid = [k * 2.0**-1074 for k in range(12)]
    elif source.startswith("default "):
        S = average_growth(_generated(source.split()[1], depth=depth))
        grid = default_eps_grid(S)
    elif source == "weierstrass":
        S = average_growth(weierstrass_function(depth))
        grid = _descending_grid(S, _second_difference_size)
    else:
        S = average_growth(_generated(source, depth=depth))
        grid = _descending_grid(S, _second_difference_size)
    grid = grid + _ROUNDING_LEVELS
    return S, _second_difference_size, grid, _level_thresholds(grid)[1]


@pytest.mark.parametrize(
    "source, dim, depth, depths",
    [
        ("weierstrass", 1, 9, [1, 4, 9]),
        ("random-jumps", 1, 9, [2, 9]),
        ("cascade", 1, 9, [1, 5, 9]),
        ("cascade", 2, 5, [1, 3, 5]),
        # one block, partial last blocks, then one level at a time
        ("weierstrass", 1, 17, [12, 13, 15, 17]),
        ("cascade", 1, 17, [12, 13, 15, 17]),
        ("cascade", 2, 9, [6, 7, 8, 9]),
        # one set shared by 20 levels, and 3 empty levels
        ("default random-jumps", 1, 10, [1, 4, 10]),
        # the grid [0.0]: every size is 0, so every level is empty
        ("default linear", 1, 10, [1, 10]),
        ("overflow", 1, 5, [1, 3, 5]),
        ("subnormal", 1, 8, [1, 4, 8]),
    ],
)
def test_tree_profile_equals_per_level_loop(source, dim, depth, depths):
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow case
        S, parent_size, grid, thresholds = _profile_case(source, dim, depth)
        if depth > 10:
            blocks = [max(1, functionals._TREE_BLOCK >> dim * (d - 1)) for d in depths]
            assert blocks[0] >= len(grid) and blocks[-1] == 1
            assert any(1 < b < len(grid) and len(grid) % b for b in blocks)
        sizes = _parent_sizes(S)
        table = _tree_profile(sizes, thresholds, _dropped(sizes, thresholds)[1], depths)
        assert table == tree_profile_loop(S, parent_size, grid, depths)


def test_tree_profile_runs_one_pass_per_distinct_nonempty_set(monkeypatch):
    # a pass at depth d reduces its levels' window sums d - 1 times, levels last
    reduced = []
    block_reduce = functionals._block_reduce

    def counting(arr, dim, op=np.add):
        reduced.append(arr.shape[-1])
        return block_reduce(arr, dim, op)

    monkeypatch.setattr(functionals, "_block_reduce", counting)
    S = average_growth(_generated("random-jumps", depth=10))
    grid = default_eps_grid(S)
    for d in range(2, 11):
        reduced.clear()
        row = density_profile(S, grid, [d]).values[0]
        assert row.count(0.0) == 3 and len(set(row)) == 2
        assert sum(reduced) == d - 1
    payload, _ = cli.cmd_generate(
        None,
        cli.build_parser().parse_args(
            ["generate", "--kind", "cascade", "--dim", "2", "--depth", "8", "--seed", "7"]
        ),
    )
    S = density_martingale(cli.load_measure(payload))
    grid = functionals._geometric_grid(star_norm(S), -20)
    assert len(grid) == 23
    # levels are grouped on all 8 generations' tables, at every depth: 13
    # non-empty sets, where the 5 generations a depth-5 profile reads would
    # give 9; the 14th count drops every parent and runs no pass
    sizes = _parent_sizes(S)
    counts = _dropped(sizes, grid)[1]
    shallow = _dropped(sizes[:5], grid)[1]
    assert len(set(counts)) == 14 and max(counts) == sum(s.size for s in sizes)
    assert len(set(shallow)) == 10 and max(shallow) == sum(s.size for s in sizes[:5])
    for d in (8, 5):
        reduced.clear()
        _tree_profile(sizes, grid, counts, [d])
        assert sum(reduced) == 13 * (d - 1)


@pytest.mark.parametrize("depth", [0, 9])
def test_tree_profile_depths_are_checked_before_any_table(depth):
    # depth 0 and N + 1 are refused by the depth rule, not by `jumps` at a
    # generation the martingale does not have
    f = _generated("random-jumps", depth=8)
    S = density_martingale(GridMeasure(cascade_measure(1, 8, seed=1)))
    calls = [
        lambda: density_profile(average_growth(f), None, [depth]),
        lambda: measure_tree_levelset_density(S, [0.5], [depth]),
        lambda: distance_report(f, None, [1, depth]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^depth must be in \[1, 8\]$"):
            call()


def test_tree_profile_accumulator_stays_within_one_block():
    # 2-d at depth 8: blocks of 4 levels of 2^14 window sums (512 KiB); one
    # block of all 64 levels would take 8 MiB
    S = density_martingale(GridMeasure(cascade_measure(2, 8, seed=3)))
    grid = np.linspace(0.0, 0.5, 64).tolist()
    tracemalloc.start()
    try:
        sizes = _parent_sizes(S)
        _tree_profile(sizes, grid, _dropped(sizes, grid)[1], [8])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_level_thresholds_are_the_largest_halves():
    # t is the largest float with 2 t <= eps, checked in exact arithmetic:
    # subnormal levels (where eps / 2 rounds up at m = 3 mod 4), the bottom
    # of the normal range, normal levels, 0, -1, inf and NaN
    q = 2.0**-1074
    rng = np.random.default_rng(0)
    normal = (rng.random(40) * 2.0 ** rng.integers(-1021, 1023, 40)).tolist()
    levels = [k * q for k in range(65)] + [2.0**-1022 + k * q for k in range(65)]
    levels += normal + [1.0, 0.1, 2.0**-1021, 1.7976931348623157e308, -q, -3 * q, -1.0]
    grid, thresholds = _level_thresholds(levels + [math.inf, math.nan])
    assert grid[:-1] == levels + [math.inf] and math.isnan(grid[-1])
    for eps, t in zip(levels, thresholds):
        assert 2 * Fraction(t) <= Fraction(eps) < 2 * Fraction(math.nextafter(t, math.inf))
    assert thresholds[-2] == math.inf and math.isnan(thresholds[-1])
    stepped = [k for k in range(65) if thresholds[k] != levels[k] / 2.0]
    assert stepped == list(range(3, 65, 4))
    S = average_growth(_generated("random-jumps", depth=8))
    assert _level_thresholds(None, star_norm(S)) == _level_thresholds(default_eps_grid(S))
    # at scale 1, a measure's rule, every threshold is its level bit for bit
    # (NaN's too), and the default grid is the star norm's own
    grid, thresholds = _level_thresholds(levels + [math.inf, math.nan], None, 1.0)
    assert np.array_equal(np.array(thresholds).view(np.uint64), np.array(grid).view(np.uint64))
    assert grid[:-1] == levels + [math.inf] and math.isnan(grid[-1])
    star = star_norm(S)
    assert _level_thresholds(None, star, 1.0)[0] == functionals._geometric_grid(star, -20)


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


def test_growth_ratio_rules():
    assert _growth_ratio(0.0, 0.0) == 1.0
    assert _growth_ratio(0.0, 2.0) == math.inf
    assert _growth_ratio(2.0, 3.0) == 1.5
    # a value that falls to zero at the deeper depth does not grow
    assert _growth_ratio(2.0, 0.0) == 1.0


sizes = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6))


@given(sizes, sizes, st.floats(min_value=0.0, max_value=1e3))
@example(1.0, 1.1, 0.1)  # 1.1 / 1.0 == 1.0 + 0.1: bounded, and only under <=
def test_bounded_is_the_three_case_rule(shallow, deep, tau):
    # 0 -> 0 is bounded, growth from 0 is not, otherwise the ratio decides
    if deep == 0.0:
        expected = True
    elif shallow == 0.0:
        expected = False
    else:
        expected = deep / shallow <= 1.0 + tau
    assert _bounded(shallow, deep, tau) is expected


def test_bounded_admits_a_ratio_of_exactly_one_plus_tau():
    # 5 / 4 == 1 + 1/4 with every value representable: bounded only under <=
    assert _bounded(4.0, 5.0, 0.25) is True
    assert _bounded(4.0, 5.0, 0.125) is False


def test_estimate_threshold_admits_a_ratio_of_exactly_one_plus_tau():
    # the level whose profile goes 4 -> 5 is stable at tau = 1/4 only
    profile = DepthProfile(depths=[4, 8], eps=[0.5, 1.0], values=[[4.0, 0.0], [5.0, 1.0]])
    est = estimate_threshold(profile, tau=0.25)
    assert (est.eps, est.ratios, est.stable) == (0.5, [1.25, math.inf], [True, False])
    est = estimate_threshold(profile, tau=0.125)
    assert (est.eps, est.stable) == (None, [False, False])


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
    f = sloped_line(7, 2)
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


@pytest.mark.parametrize("depth", range(3, 13))
def test_cone_count_equals_per_level_oracle(depth):
    # grids with 0, a duplicate, inf and a level below every |d2|; depths
    # 1, N - 1 and N (N - 1 and N share the deepest layer); weierstrass
    # and the / 3 inputs are off the binary lattice, and random-jumps plus
    # 0.25 + x/2 is not compact
    suite = function_suite(depth, seed=depth)
    inputs = [g for _, f in suite for g in (f, _third(f))]
    for g in inputs + [_off_compact(dict(suite)["random-jumps"])]:
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


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(1, 10),
    seed=st.integers(0, 2**16),
    which=st.integers(0, 5),
    third=st.booleans(),
    depths=st.lists(st.integers(0, 12), max_size=4),
)
def test_cone_lattice_readers_property(depth, seed, which, third, depths):
    # the public readers are the pipeline's tables, and the box energies do
    # not depend on the levels the cone counts compare with
    _, f = function_suite(depth, seed=seed)[which]
    g = _third(f) if third else f
    grid = default_eps_grid(average_growth(g))
    cones, energies = functionals._cone_lattice(g, grid, depths)
    assert cone_levelset_count(g, grid, depths) == cones
    assert box_square_energy(g, depths) == energies
    for levels in ([], grid[:1]):
        assert functionals._cone_lattice(g, levels, depths)[1] == energies


def test_cone_lattice_pads_the_samples_once(tmp_path, monkeypatch):
    # the cone counts and the box energy share one walk: a strichartz run,
    # and each function of the consistency check, makes one padded copy
    widths = []

    def counted(f, width):
        widths.append(width)
        return _zero_padded(f, width)

    monkeypatch.setattr(functionals, "_zero_padded", counted)
    source = Path(__file__).resolve().parent.parent / "docs" / "golden-input.json"
    argv = ["strichartz", "--in", str(source), "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == cli.EXIT_OK
    assert widths == [3 << 6]  # 3 * 2^(N-2) at depth 8
    widths.clear()
    verify_strichartz_consistency(seed=7)
    assert len(widths) == 5  # the suite's functions but weierstrass


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
            h = Fraction(1, 2 << n)
            d2 = second_difference(f, Fraction(j, 1 << n) + h, h)
            assert d2 == second_difference_dyadic(f, (n, j))
            assert d2 == 2.0 * S.jumps(n + 1)[2 * j + 1]
