"""Oracle and property tests for truncation and translation averaging."""

import argparse
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zygdist import approximation, functionals
from zygdist.approximation import (
    _class_kernel,
    _lattice_exact,
    _window_jumps,
    continuous_decompose,
    distance_report,
    dyadic_decompose,
    martingale_difference,
    truncate_jumps,
)
from zygdist.functionals import (
    _level_thresholds,
    _table_exact,
    default_eps_grid,
    density_profile,
    levelset_tree_density,
    zygmund_seminorm,
)
from zygdist.cli import InputError, cmd_decompose, load_function, main
from zygdist.generators import (
    function_suite,
    hat_function,
    lacunary_function,
    parabola_function,
    random_jump_martingale,
    random_martingale,
    single_branch_martingale,
)
from zygdist.martingale import (
    DyadicMartingale,
    SampledFunction,
    _dropped,
    _lattice_exponents,
    _lattice_quantum,
    _parent_sizes,
    _peaks,
    average_growth,
    dyadic_zygmund_seminorm,
    integrate,
    star_norm,
)

from reference import (
    bmo_density,
    continuous_decompose_loop,
    decompose_rows_loop,
    is_martingale,
    translation_average,
    truncation_maxima_loop,
)

# ---------------------------------------------------------------------------
# jump truncation


def test_truncate_keeps_large_jumps_bitwise():
    S = random_martingale(8, seed=5)
    thr = 0.5 * star_norm(S)
    B = truncate_jumps(S, thr)
    for n in range(1, 9):
        dj_s, dj_b = S.jumps(n), B.jumps(n)
        kept = np.repeat(np.maximum(abs(dj_s[0::2]), abs(dj_s[1::2])) > thr, 2)
        assert np.array_equal(dj_b[kept], dj_s[kept])
        assert np.all(dj_b[~kept] == 0.0)
    assert is_martingale(B)


def test_truncate_residual_star_bound_exact():
    for seed in range(10):
        S = random_martingale(7, seed=seed)
        for thr in (0.0, 0.25 * star_norm(S), star_norm(S)):
            resid = martingale_difference(S, truncate_jumps(S, thr))
            assert star_norm(resid) <= thr
            assert is_martingale(resid)


def test_truncate_extremes():
    S = random_martingale(6, seed=1)
    everything = truncate_jumps(S, -1.0)  # every jump exceeds -1
    for n in range(7):
        assert np.array_equal(everything.levels[n], S.levels[n])
    nothing = truncate_jumps(S, star_norm(S))
    for n in range(1, 7):
        assert np.all(nothing.jumps(n) == 0.0)


def test_truncate_decides_a_pair_on_its_larger_jump():
    # off the exact-mean lattice a sibling pair can have |a| <= t < |b|: the
    # pair is kept, so S - B has no jump above t (deciding on the left jump
    # alone would drop it and leave the jump |b| = 0.5 > t)
    S = DyadicMartingale([[0.0], [0.25, -0.5], [0.375, 0.125, -0.5, -0.5]])
    t = 0.25
    B = truncate_jumps(S, t)
    assert np.array_equal(B.levels[1], S.levels[1])
    assert np.array_equal(B.levels[2], [0.25, 0.25, -0.5, -0.5])
    assert star_norm(martingale_difference(S, B)) <= t


def _per_level(f, grid=None):
    """``(eps, splitting)`` for every level of the grid, in grid order."""
    return [(eps, parts) for parts in dyadic_decompose(f, grid) for eps in parts.eps]


def test_dyadic_decompose_identity_and_bound():
    f = integrate(random_martingale(8, seed=9))
    grid = (0.05, 0.2, 1.0)
    levels = _per_level(f, grid)
    assert [eps for eps, _ in levels] == list(grid)
    for eps, dec in levels:
        assert np.array_equal(dec.rough.values + dec.small.values, f.values)
        assert dyadic_zygmund_seminorm(dec.small) <= eps
        dropped = martingale_difference(average_growth(f), dec.kept)
        assert 2.0 * star_norm(dropped) <= eps


def test_truncation_consistent_with_tree_density():
    # Kept parents are exactly the qualifying parents of the tree functional,
    # so the windowed jump energy of the rough part is controlled by the
    # density, with the squared sup jump as the unit.
    for seed in range(5):
        S = random_martingale(8, seed=seed)
        f = integrate(S)
        eps = star_norm(S)  # mid-range level
        B = truncate_jumps(S, eps / 2.0)
        lhs = bmo_density(B)
        rhs = star_norm(S) ** 2 * levelset_tree_density(S, eps, depth=8)
        assert lhs <= rhs


def _invariant_cases(kind):
    depth = 10
    if kind == "random-jumps":
        return [integrate(random_jump_martingale(depth, seed=s)) for s in range(20)]
    if kind == "random-martingale":
        return [integrate(random_martingale(depth, seed=s)) for s in range(20)]
    return [lacunary_function(depth) if kind == "lacunary" else hat_function(depth)]


@pytest.mark.parametrize("kind", ["random-jumps", "random-martingale", "lacunary", "hat"])
def test_rough_bmo_is_sandwiched_by_the_tree_density(kind):
    # The paper's truncation argument ties `decompose` to `distance-ibmo`: a
    # kept pair is exactly a qualifying parent, and every kept jump lies in
    # (eps/2, rough_star], so at every level of the default grid
    # (eps/2)^2 D <= rough_bmo^2 <= rough_star^2 D, with D the tree density
    # at full depth.  The random kinds run seeds 0-19 at depth 10.
    for f in _invariant_cases(kind):
        S = average_growth(f)
        grid = [eps for eps in default_eps_grid(S) if eps > 0.0]
        density = density_profile(S, grid, [f.depth]).values[0]
        for (eps, parts), D in zip(_per_level(f, grid), density, strict=True):
            energy = bmo_density(parts.kept)
            assert (eps / 2.0) ** 2 * D <= energy <= parts.rough_star**2 * D


# ---------------------------------------------------------------------------
# distance report


def test_grid_pipelines_build_the_slope_martingale_once(monkeypatch):
    f = integrate(random_jump_martingale(7, delta=1 / 16, seed=4))
    grid = default_eps_grid(average_growth(f))
    builds = []

    def counted(g):
        builds.append(g)
        return average_growth(g)

    # functionals takes the martingale only, so approximation builds every one
    monkeypatch.setattr(approximation, "average_growth", counted)
    assert [eps for eps, _ in _per_level(f)] == grid
    assert len(builds) == 1
    assert distance_report(f, None, [f.depth]).eps == grid
    assert len(builds) == 2


def test_distance_report_bounds_and_estimate():
    delta = 1 / 16
    f = integrate(random_jump_martingale(9, delta=delta, seed=4))
    rep = distance_report(f, None, [7, 9])
    for eps, dist in zip(rep.eps, rep.measured_distance):
        assert dist <= eps
    assert rep.estimate.eps == 2 * delta
    assert rep.estimate.method == "depth-ratio"


def test_one_depth_profile_gives_no_threshold():
    # one row is both the shallowest and the deepest: no growth is measured
    f = integrate(random_jump_martingale(9, delta=Fraction(1, 16), seed=7))
    assert distance_report(f, None, [5, 9]).estimate.eps == 0.125
    for depths in ([9], [9, 9]):
        estimate = distance_report(f, None, depths).estimate
        assert estimate.eps is None
        assert not any(estimate.stable)


# ---------------------------------------------------------------------------
# sorted truncation maxima against the truncation loop


def _generated(tmp_path, kind, depth, seed):
    path = tmp_path / "f.json"
    argv = ["generate", "--kind", kind, "--depth", str(depth), "--seed", str(seed)]
    assert main([*argv, "--out", str(path)]) == 0
    return load_function(json.loads(path.read_text()))


def _tie_levels(S):
    """Levels whose half is exactly some left jump size, at every generation."""
    return sorted({2.0 * float(a) for n in range(1, S.depth + 1)
                   for a in np.abs(S.jumps(n)[0:8:2])})


def _tree_certified(f, grid=None):
    """``_table_exact``'s verdict on the slope martingale of ``f`` at the
    levels ``grid`` (``default_eps_grid`` if None), as ``distance_report``
    asks it."""
    S = average_growth(f)
    grid = default_eps_grid(S) if grid is None else grid
    sizes = _parent_sizes(S)
    largest, _ = _dropped(sizes, _level_thresholds(grid)[1])
    return _table_exact(S, _peaks(sizes)[0], max(largest, default=0.0))


def _52_bit_numerators(depth):
    """Odd 52-bit numerators at every inner sample, 0 at both ends: on the
    lattice, but truncation rounds."""
    numerators = np.random.default_rng(0).integers(-(1 << 52), 1 << 52, size=(1 << depth) - 1)
    return SampledFunction(np.concatenate(([0.0], (numerators | 1).astype(np.float64), [0.0])))


@pytest.mark.parametrize(
    "kind", ["linear", "hat", "square", "lacunary", "random-jumps", "single-branch"]
)
def test_sorted_maxima_equal_the_truncation_loop(tmp_path, kind):
    # every lattice kind of `generate`; only random-jumps reads the seed
    for depth in range(2, 11):
        for seed in range(5) if kind == "random-jumps" else [0]:
            f = _generated(tmp_path, kind, depth, seed)
            S = average_growth(f)
            # on the lattice sibling jumps cancel exactly: a pair's size is |left|
            for n in range(1, depth + 1):
                assert np.array_equal(S.jumps(n)[1::2], -S.jumps(n)[0::2])
            grid = default_eps_grid(S) + _tie_levels(S)
            assert _tree_certified(f, grid)
            measured, stars = truncation_maxima_loop(S, grid)
            # the profile reads generation 1 only; the residual table all of them
            report = distance_report(f, eps_grid=grid, depths=[1])
            assert report.measured_distance == measured
            assert [part.rough_star for _, part in _per_level(f, grid)] == stars


def test_refused_input_takes_the_truncation_loop(monkeypatch):
    # outside the certificate no size of the table reaches a measured
    # distance: the patched table's sizes are inf, which the certificate
    # reads as the largest dropped size and still refuses
    f = SampledFunction(integrate(random_jump_martingale(9, seed=0)).values / 3.0)
    assert not _tree_certified(f)

    def counts_only(sizes, thresholds):
        largest, counts = _dropped(sizes, thresholds)
        return [np.inf] * len(largest), counts

    monkeypatch.setattr(approximation, "_dropped", counts_only)
    monkeypatch.setattr(functionals, "_dropped", counts_only)
    S = average_growth(f)
    grid = default_eps_grid(S)
    measured, stars = truncation_maxima_loop(S, grid)
    assert distance_report(f, None, [f.depth]).measured_distance == measured
    assert [part.rough_star for _, part in _per_level(f)] == stars


def test_default_grid_read_off_the_tables_where_slopes_overflow():
    # samples of +-1e308 give slopes of +-inf, so the jump fields hold inf
    # and NaN (inf - inf), and the tables' maxima NaN in some generations
    # and inf in others; the fold of the maxima from 0.0 keeps the running
    # value against NaN, as `star_norm` does, so it is the star norm and
    # `distance_report` and `dyadic_decompose` get `default_eps_grid`
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(40):
        f = SampledFunction(rng.choice([0.0, 0.5, -1e308, 1e308], size=2**5 + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            S = average_growth(f)
            peaks, star = _peaks(_parent_sizes(S))
            assert star == star_norm(S) and not np.isnan(star)
            for n, peak in enumerate(peaks, 1):
                largest = float(np.abs(S.jumps(n)).max())
                assert peak == largest or np.isnan(peak) and np.isnan(largest)
            grid = default_eps_grid(S)
            assert distance_report(f, None, [1, S.depth]).eps == grid
            assert [eps for part in dyadic_decompose(f) for eps in part.eps] == grid
        seen |= {"nan" if np.isnan(p) else "inf" if np.isinf(p) else "finite" for p in peaks}
    assert seen == {"nan", "inf", "finite"}


# ---------------------------------------------------------------------------
# one splitting per kept set against the level-by-level loop

_FUNCTION_KINDS = [
    "linear", "hat", "square", "weierstrass", "lacunary", "random-jumps", "single-branch",
]


def _off_lattice(depth):
    return SampledFunction(integrate(random_jump_martingale(depth, seed=0)).values / 3.0)


def _oracle_grids(S):
    """The default grid, and one that is unsorted, repeats levels, holds 0
    and puts thresholds on pair sizes |a| and one ulp below them."""
    grid = default_eps_grid(S)
    ties = _tie_levels(S)
    below = [2.0 * np.nextafter(eps / 2.0, 0.0) for eps in ties]
    mixed = grid[::-1] + [0.0] + ties[::-1] + below + grid[3:6] + grid[3:6] + ties[:2]
    return [grid, mixed]


def _grouped_rows(f, grid):
    args = argparse.Namespace(grid=grid, eps_grid="oracle")
    try:
        body, _ = cmd_decompose(f, args)
    except InputError as exc:
        return None, str(exc)
    return body["tables"]["decomposition"]["rows"], None


def _assert_grouping_equals_the_loop(f):
    S = average_growth(f)
    for grid in _oracle_grids(S):
        assert [eps for eps, _ in _per_level(f, grid)] == grid
        rows, message = decompose_rows_loop(f, grid)
        grouped, grouped_message = _grouped_rows(f, grid)
        assert grouped_message == message
        if message is None:
            assert grouped == rows
        measured, _ = truncation_maxima_loop(S, grid)
        report = distance_report(f, eps_grid=grid, depths=[f.depth])
        assert report.measured_distance == measured


@pytest.mark.parametrize("kind", _FUNCTION_KINDS)
def test_grouped_decompose_equals_the_level_loop(tmp_path, kind):
    for depth in (1, 3, 6, 10):
        _assert_grouping_equals_the_loop(_generated(tmp_path, kind, depth, 7))


@pytest.mark.parametrize("depth", [6, 9])
def test_grouped_decompose_equals_the_level_loop_off_the_lattice(depth):
    f = _off_lattice(depth)
    assert not _tree_certified(f)
    _assert_grouping_equals_the_loop(f)


def _counting_truncations(monkeypatch):
    calls = []

    def counted(S, threshold):
        calls.append(threshold)
        return truncate_jumps(S, threshold)

    monkeypatch.setattr(approximation, "truncate_jumps", counted)
    return calls


def test_decompose_truncates_once_per_kept_set(tmp_path, monkeypatch):
    # random-jumps has one jump size: the default grid's 23 levels keep
    # either every pair or none
    path = tmp_path / "f.json"
    argv = ["--kind", "random-jumps", "--depth", "10", "--seed", "7", "--out", str(path)]
    assert main(["generate", *argv]) == 0
    calls = _counting_truncations(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["decompose", "--in", str(path), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["tables"]["decomposition"]["rows"]) == 23
    assert len(calls) == 2


@pytest.mark.parametrize("kind", ["52-bit", "off-lattice"])
def test_refused_distance_truncates_once_per_distinct_count(monkeypatch, kind):
    f = _off_lattice(9) if kind == "off-lattice" else _52_bit_numerators(9)
    assert not _tree_certified(f)
    S = average_growth(f)
    grid = default_eps_grid(S)
    # the count of pairs each threshold drops, from the jumps themselves: a
    # pair's size is its larger |jump|
    pairs = [
        np.maximum(abs(S.jumps(n)[0::2]), abs(S.jumps(n)[1::2])) for n in range(1, S.depth + 1)
    ]
    counts = {sum(int((a <= eps / 2.0).sum()) for a in pairs) for eps in grid}
    assert 1 < len(counts) < len(grid)
    calls = _counting_truncations(monkeypatch)
    distance_report(f, None, [S.depth])
    assert len(calls) == len(counts)


def test_decompose_memory_holds_two_splittings(tmp_path):
    # a caller that drops each splitting holds at most the previous one
    # while the next is made: the slope martingale, two splittings' arrays
    # (kept 2^(N+1), rough and small 2^N + 1 floats each) and the pair table
    # (2^N floats) bound the peak above the input
    N = 14
    f = _generated(tmp_path, "lacunary", N, 7)
    grid = default_eps_grid(average_growth(f))
    args = argparse.Namespace(grid=grid, eps_grid="auto")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cmd_decompose(f, args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    floats = 2 << N  # the slope martingale
    floats += 2 * ((2 << N) + 2 * ((1 << N) + 1))  # two splittings
    floats += 1 << N  # the pair table
    assert peak <= 8 * floats


def test_tree_certificate_at_depth_18(tmp_path):
    # random-jumps passed the former function rule too; square and the
    # parabola, which it refused, now pass, and their table equals the loop;
    # the parabola divided by 3 is refused
    assert _tree_certified(integrate(random_jump_martingale(18, delta=1 / 16, seed=7)))
    for f in (_generated(tmp_path, "square", 18, 7), parabola_function(18)):
        assert _tree_certified(f)
        S = average_growth(f)
        grid = default_eps_grid(S)
        dropped, _ = _dropped(_parent_sizes(S), [eps / 2.0 for eps in grid])
        assert [2.0 * d for d in dropped] == truncation_maxima_loop(S, grid)[0]
    assert not _tree_certified(SampledFunction(parabola_function(18).values / 3.0))


def test_table_certificate_skips_the_quantum_of_zero_levels():
    # the hat times 2^80 has slopes +-2^80 and a zero root slope (it vanishes
    # at both ends); the zero level's quantum (q = 0) is no constraint, so
    # every intermediate sits on the slopes' quantum 2^80 and the input is
    # accepted, with the loop's table
    f = SampledFunction(hat_function(10).values * 2.0**80)
    S = average_growth(f)
    grid = default_eps_grid(S) + _tie_levels(S)
    assert not S.levels[0].any()
    assert _tree_certified(f, grid)
    dropped, _ = _dropped(_parent_sizes(S), [eps / 2.0 for eps in grid])
    assert [2.0 * d for d in dropped] == truncation_maxima_loop(S, grid)[0]


def test_sorted_maxima_exact_at_the_certificate_edge():
    # Scale the numerators (not the quantum: the odd +1 pins it) up by powers
    # of two until one more doubling would break the certificate; the table
    # still equals the loop there.
    numerators = np.random.default_rng(0).integers(-16, 16, size=31)

    def scaled(shift):
        values = (numerators * 2.0**shift + 1.0) * 2.0**-30
        return SampledFunction(np.concatenate(([0.0], values, [0.0])))

    def levels(f):
        S = average_growth(f)
        return default_eps_grid(S) + _tie_levels(S)

    shift = 0
    while _tree_certified(scaled(shift + 1), levels(scaled(shift + 1))):
        shift += 1
    assert shift > 10
    S = average_growth(scaled(shift))
    grid = levels(scaled(shift))
    dropped, _ = _dropped(_parent_sizes(S), [eps / 2.0 for eps in grid])
    assert [2.0 * d for d in dropped] == truncation_maxima_loop(S, grid)[0]


def test_tree_certificate_refuses_a_lattice_input_the_table_rounds():
    # 52-bit odd numerators at depth 5: truncation rounds, the residual's
    # jumps are no longer the dropped jumps, and the certificate refuses.
    f = _52_bit_numerators(5)
    S = average_growth(f)
    grid = default_eps_grid(S)
    dropped, _ = _dropped(_parent_sizes(S), [eps / 2.0 for eps in grid])
    assert [2.0 * d for d in dropped] != truncation_maxima_loop(S, grid)[0]
    assert not _tree_certified(f, grid)


# ---------------------------------------------------------------------------
# translation averaging


def _brute_translation_average(members, R, N):
    points = (1 + 2 * R) * (1 << N) + 1
    out = np.zeros(points)
    M = R << N
    for k in range(points):
        x = Fraction(-R) + Fraction(k, 1 << N)
        total = 0.0
        for i in range(M):
            alpha = Fraction(-R) + Fraction(2 * i + 1, 1 << N)
            y = x + alpha
            if 0 <= y <= 1:
                total += members[i].values[int(y * (1 << N))]
        out[k] = total / M
    return out


def test_translation_average_matches_brute_force():
    N, R = 4, 2
    members = [integrate(random_jump_martingale(N, seed=i)) for i in range(R << N)]
    avg = translation_average(members, R)
    brute = _brute_translation_average(members, R, N)
    assert avg.span.left == -R and avg.span.right == 1 + R
    assert np.array_equal(avg.values, brute)


def test_translation_average_constant_member_mass():
    # Every member the same hat: averaging preserves total mass exactly.
    N, R = 5, 1
    member = hat_function(N)
    avg = translation_average([member] * (R << N), R)
    member_mass = np.trapezoid(member.values, dx=2.0**-N)
    avg_mass = np.trapezoid(avg.values, dx=2.0**-N)
    assert avg_mass == pytest.approx(member_mass, rel=1e-12)
    assert avg.values[0] == 0.0 and avg.values[-1] == 0.0


def test_translation_average_rejects_bad_members():
    f = hat_function(4)
    g = SampledFunction(np.zeros(9), left=0, log2_spacing=-3)
    with pytest.raises(ValueError):
        translation_average([f] * 3 + [g] * 61, R=4)
    with pytest.raises(ValueError):
        translation_average([f] * 64, R=0)


def test_translation_average_seminorm_stays_bounded():
    # Members with dyadic seminorm exactly 1; the averaged function has a
    # continuous-grid seminorm of the same order.
    N, R = 6, 1
    members = [
        integrate(random_jump_martingale(N, delta=1 / 2, seed=100 + i))
        for i in range(R << N)
    ]
    for m in members:
        assert dyadic_zygmund_seminorm(m) == 1.0
    avg = translation_average(members, R)
    assert zygmund_seminorm(avg) < 8.0


# ---------------------------------------------------------------------------
# continuous decomposition


def test_continuous_decompose_exact_identity():
    f = integrate(random_jump_martingale(6, seed=8))
    dec = continuous_decompose(f, [0.05])
    assert np.array_equal(dec.rough[0].values + dec.small[0].values, f.values)
    assert dec.window_small_seminorms[0].shape == (64,)
    assert np.all(dec.window_small_seminorms[0] <= 0.05)


def test_continuous_decompose_full_count_bound():
    f = integrate(random_jump_martingale(5, delta=1 / 8, seed=3))
    dec = continuous_decompose(f, [0.1])
    assert dec.count == 32
    assert np.all(dec.window_small_seminorms[0] <= 0.1)
    assert np.array_equal(dec.rough[0].values + dec.small[0].values, f.values)


def test_continuous_decompose_large_eps_keeps_nothing():
    # Above twice the sup jump nothing is kept: rough part is identically
    # zero (every window truncation drops all jumps, integrates to zero).
    f = integrate(random_jump_martingale(5, delta=1 / 16, seed=2))
    dec = continuous_decompose(f, [1.0])
    assert np.all(dec.rough[0].values == 0.0)
    assert np.array_equal(dec.small[0].values, f.values)


def test_continuous_decompose_small_eps_recovers_function():
    # Below the smallest nonzero jump scale everything is kept: each window
    # rough part reproduces the translate, so the average returns f.
    f = integrate(random_jump_martingale(5, delta=1 / 4, seed=7))
    dec = continuous_decompose(f, [1e-9])
    assert np.allclose(dec.rough[0].values, f.values, rtol=0, atol=1e-15)
    assert np.all(np.abs(dec.small[0].values) <= 1e-15)


def test_continuous_decompose_rejects_bad_input():
    with pytest.raises(ValueError, match="compactly supported"):
        continuous_decompose(SampledFunction(np.arange(9.0)), [0.1])
    # a compact function on [0, 2], even with no level to work
    two = SampledFunction([0.0, 0.5, 0.0, 0.25, 0.0], log2_spacing=-1)
    for grid in ([0.1], []):
        with pytest.raises(ValueError, match="unit interval"):
            continuous_decompose(two, grid)


@settings(max_examples=15)
@given(seed=st.integers(0, 300))
def test_continuous_decompose_seminorm_never_worse_than_eps(seed):
    S = random_martingale(5, seed=seed)
    recentred = type(S)([lvl - S.root_value for lvl in S.levels])
    f = integrate(recentred)
    eps = 0.5 * dyadic_zygmund_seminorm(f)
    if eps == 0.0:
        return
    dec = continuous_decompose(f, [eps])
    assert np.all(dec.window_small_seminorms[0] <= eps)


def test_lacunary_average_smoother_than_member():
    # Averaging translated truncations should not inflate the measured
    # continuous seminorm of the small part by more than a bounded factor.
    f = lacunary_function(6)
    eps = 0.5
    dec = continuous_decompose(f, [eps])
    assert zygmund_seminorm(dec.small[0]) <= 4.0 * eps


# ---------------------------------------------------------------------------
# class kernel and its exactness certificate


def _oracle_grid(f):
    norm = dyadic_zygmund_seminorm(f)
    return [norm * 2.0**j for j in range(1, -8, -1)] + [0.0]


def _offsets(f, count):
    return ((1 << f.depth) // count) * (2 * np.arange(count) + 1)


def _certified(values, count):
    return _lattice_exact(values, _window_jumps(values), count) is None


def _former_certificate(values, count):
    """The a-priori certificate the jump-maxima one replaced: every sum
    bounded through ``max|f|`` alone, as the families ``(k + N + 7, 2)`` and
    ``(k + bitlen(N + 2) + N + 4, N + 2)``."""
    N = (values.size - 1).bit_length() - 1
    k = count.bit_length() - 1
    families = ((k + N + 7, 2), (k + (N + 2).bit_length() + N + 4, N + 2))
    return _lattice_quantum(_lattice_exponents(values), 53, *families) is not None


def _assert_kernel_equals_loop(f, count, grid):
    """``_class_kernel``, averaged, equals the translate loop bit for bit."""
    rough, seminorms = _class_kernel(
        1 << f.depth, _window_jumps(f.values), _offsets(f, count), _level_thresholds(grid)[1]
    )
    rough /= count
    for j, eps in enumerate(grid):
        rough_ref, _, seminorms_ref = continuous_decompose_loop(f, eps, count)
        assert np.array_equal(rough[j], rough_ref)
        assert np.array_equal(seminorms[j], seminorms_ref)


def _lattice_cases(depth):
    return [
        integrate(random_jump_martingale(depth, delta=1 / 16, seed=7)),
        lacunary_function(depth),
        hat_function(depth),
    ]


@pytest.mark.parametrize(
    "f",
    [
        integrate(random_jump_martingale(6, seed=8)),
        lacunary_function(6),
        integrate(random_jump_martingale(9, seed=0)),
        *[f for depth in (4, 8) for f in _lattice_cases(depth)],
    ],
)
def test_continuous_decompose_matches_loop_oracle(f):
    # descending levels, with the seminorm itself (a threshold equal to the
    # largest jumps) and the level 0 that keeps every nonzero jump; the
    # full translate count of the depth
    count = 1 << f.depth
    grid = _oracle_grid(f)
    if f.depth >= 8:
        grid = grid[1::3]
    dec = continuous_decompose(f, grid)
    assert _certified(f.values, count)
    assert dec.eps == grid and dec.count == count
    assert dec.window_small_seminorms.shape == (len(grid), count)
    for j, eps in enumerate(grid):
        rough, small, seminorms = continuous_decompose_loop(f, eps, count)
        assert np.array_equal(dec.rough[j].values, rough)
        assert np.array_equal(dec.small[j].values, small)
        assert np.array_equal(dec.window_small_seminorms[j], seminorms)


@pytest.mark.parametrize("count", [1, 8])
@pytest.mark.parametrize("depth", [4, 6, 8])
def test_class_kernel_matches_loop_oracle(depth, count):
    # fewer translates than continuous_decompose takes, through the kernel
    for f in _lattice_cases(depth):
        assert _certified(f.values, count)
        _assert_kernel_equals_loop(f, count, _oracle_grid(f))


@pytest.mark.parametrize("count", [1024, 1, 8])
def test_class_kernel_matches_loop_oracle_at_depth_10(count):
    for f in _lattice_cases(10):
        grid = _oracle_grid(f)[3:4] if count == 1024 else _oracle_grid(f)
        assert _certified(f.values, count)
        _assert_kernel_equals_loop(f, count, grid)


@pytest.mark.parametrize("depth", [15, 16])
def test_class_kernel_matches_loop_oracle_past_the_former_certificate(depth):
    # random-jumps at depths 15 and 16: the former certificate refused the
    # full translate count (the sobolev default), the jump maxima certify it
    f = integrate(random_jump_martingale(depth, delta=1 / 16, seed=7))
    assert _certified(f.values, 1 << depth)
    assert not _former_certificate(f.values, 1 << depth)
    norm = dyadic_zygmund_seminorm(f)
    count = 64 if depth == 15 else 8
    _assert_kernel_equals_loop(f, count, [norm / 4, norm / 64, 0.0])


@st.composite
def _lattice_payloads(draw):
    depth = draw(st.integers(1, 7))
    q = draw(st.integers(-40, 60))
    bound = 1 << draw(st.integers(0, 40))
    interior = (1 << depth) - 1
    numerators = draw(
        st.lists(st.integers(-bound, bound), min_size=interior, max_size=interior)
    )
    values = np.array([0.0] + [float(n) * 2.0**-q for n in numerators] + [0.0])
    count = 1 << draw(st.integers(0, depth))
    return SampledFunction(values), count


@settings(max_examples=100, deadline=None)
@given(case=_lattice_payloads(), exponents=st.lists(st.integers(-12, 3), max_size=4))
def test_class_kernel_equals_loop_oracle_on_lattice_payloads(case, exponents):
    f, count = case
    assume(_certified(f.values, count))
    scale = float(np.abs(f.values).max())
    grid = [scale * 2.0**e for e in exponents] + [0.0]
    _assert_kernel_equals_loop(f, count, grid)


@settings(max_examples=200, deadline=None)
@given(case=_lattice_payloads())
def test_certificate_accepts_what_the_former_certificate_accepted(case):
    f, count = case
    if _former_certificate(f.values, count):
        assert _certified(f.values, count)


def test_certificate_accepts_the_generated_kinds_the_former_accepted():
    accepted = 0
    for depth in range(1, 15):
        cases = [
            integrate(random_jump_martingale(depth, delta=1 / 16, seed=7)),
            integrate(random_jump_martingale(depth, delta=1 / 4, seed=3)),
            integrate(single_branch_martingale(depth)),
            *[f for _, f in function_suite(depth, seed=5) if f.compact],
        ]
        for f in cases:
            jumps = _window_jumps(f.values)
            for k in range(depth + 1):
                if _former_certificate(f.values, 1 << k):
                    accepted += 1
                    assert _lattice_exact(f.values, jumps, 1 << k) is None
    assert accepted > 400


def test_off_lattice_input_reaches_no_kernel(monkeypatch):
    f = SampledFunction(integrate(random_jump_martingale(9, seed=0)).values / 3.0)

    def refuse(*args):
        raise AssertionError("class kernel run outside its certificate")

    monkeypatch.setattr(approximation, "_class_kernel", refuse)
    message = (
        "input outside the class kernel's exactness certificate: "
        "its sums need 82 bits, float64 has 53"
    )
    with pytest.raises(ValueError) as exc:
        continuous_decompose(f, [dyadic_zygmund_seminorm(f) / 8])
    assert str(exc.value) == message


def test_class_kernel_exact_at_the_certificate_edge():
    # Scale the numerators (not the quantum: the odd +1 pins it) up by powers
    # of two until one more doubling would break the certificate.
    depth, count = 6, 64
    base = integrate(random_jump_martingale(depth, delta=1 / 16, seed=3)).values
    quantum = 2.0 ** -(depth + 4)
    numerators = np.round(base / quantum)
    assert np.array_equal(numerators * quantum, base)
    interior = np.zeros_like(base, dtype=bool)
    interior[1:-1] = True

    def scaled(shift):
        values = np.where(interior, numerators * 2.0**shift + 1.0, 0.0) * quantum
        return SampledFunction(values)

    shift = 0
    while _certified(scaled(shift + 1).values, count):
        shift += 1
    assert shift > 10
    f = scaled(shift)
    assert _certified(f.values, count)
    _assert_kernel_equals_loop(f, count, _oracle_grid(f))


def test_certificate_refuses_a_lattice_input_the_class_kernel_rounds():
    # 43-bit odd numerators at depth 5: the sums need about 60 bits, so the
    # summation order shows and the certificate has to refuse the input.
    numerators = np.random.default_rng(0).integers(-(1 << 43), 1 << 43, size=31) | 1
    f = SampledFunction(np.concatenate(([0.0], numerators.astype(np.float64), [0.0])))
    grid = [float(np.abs(f.values).max()) * 2.0**j for j in range(0, -12, -1)]
    rough, _ = _class_kernel(
        32, _window_jumps(f.values), _offsets(f, 32), _level_thresholds(grid)[1]
    )
    rough /= 32
    loop = [continuous_decompose_loop(f, eps, 32)[0] for eps in grid]
    assert not np.array_equal(rough, np.array(loop))
    assert not _certified(f.values, 32)


@pytest.mark.parametrize(
    "values",
    [
        [0.0, 1e308, -1e308, 1e308, 0.0],  # overflow
        [0.0, 2.0**1020, 0.0, 0.0, 0.0],  # few digits, but slopes overflow
        [0.0, 5e-324, 0.0, -5e-324, 0.0],  # subnormal quantum
        [0.0, 1e300, 5e-324, 1.0, 0.0],  # both ends of the range
        [0.0, float("inf"), 0.0],
    ],
)
def test_certificate_refuses_extreme_magnitudes(values):
    values = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        for count in (1, 2, 4):
            if (values.size - 1) % count == 0:
                assert not _certified(values, count)
