"""Martingale construction, jump identities, norms and roundtrips."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    block_max,
    block_sum,
    bmo_density,
    expand,
    index_of,
    is_martingale,
    lattice_exact,
    lattice_exponents,
    maximal_function,
    quadratic_characteristic,
    residual_norms_loop,
    second_difference_dyadic,
    sloped_line,
    sweep_takes_int32,
    thresholded_jump_count,
    tree_exact,
    truncation_exact,
    truncation_maxima_loop,
    value_at_index,
    window_parseval,
)
from zygdist.approximation import _lattice_exact, _window_jumps
from zygdist.dyadic import RealInterval
from zygdist.generators import (
    cascade_measure,
    hat_function,
    lacunary_function,
    linear_function,
    parabola_function,
    random_jump_martingale,
    random_martingale,
    single_branch_martingale,
    weierstrass_function,
)
from zygdist.functionals import _geometric_grid, _sweep_values, _table_exact, default_eps_grid
from zygdist.measures import GridMeasure, density_martingale
from zygdist.martingale import (
    DyadicMartingale,
    SampledFunction,
    _block_reduce,
    _dropped,
    _lattice_exponents,
    _lattice_quantum,
    _parent_deviation,
    _parent_sizes,
    average_growth,
    bmo_norm,
    dyadic_zygmund_seminorm,
    integrate,
    star_norm,
)


@pytest.mark.parametrize("dim, depth", [(1, 1), (1, 11), (2, 1), (2, 6)])
def test_block_reduce_matches_the_reshape_reductions(dim, depth):
    arr = np.random.default_rng(depth).standard_normal((1 << depth,) * dim)
    assert _block_reduce(arr, dim).tobytes() == block_sum(arr, dim).tobytes()
    assert (
        _block_reduce(arr, dim, np.maximum).tobytes() == block_max(arr, dim).tobytes()
    )


def test_average_growth_hat_oracle():
    S = average_growth(hat_function(4))
    assert S.root_value == 0.0
    assert np.array_equal(S.levels[1], [1.0, -1.0])
    assert np.array_equal(S.jumps(1), [1.0, -1.0])
    # below the break the slopes are already resolved: no further jumps
    for n in range(2, 5):
        assert np.all(S.jumps(n) == 0.0)
    assert star_norm(S) == 1.0
    assert dyadic_zygmund_seminorm(hat_function(6)) == 2.0


def test_average_growth_linear_is_constant():
    S = average_growth(sloped_line(6, Fraction(3, 4)))
    for level in S.levels:
        assert np.all(level == 0.75)
    assert star_norm(S) == 0.0
    assert dyadic_zygmund_seminorm(linear_function(6)) == 0.0


def test_sibling_jumps_are_opposite():
    S = random_martingale(8, seed=5)
    for n in range(1, S.depth + 1):
        dj = S.jumps(n)
        assert np.array_equal(dj[0::2], -dj[1::2])


@pytest.mark.parametrize("dim, depth", [(1, 10), (2, 5), (3, 3)])
def test_jumps_equal_the_expanded_parent_difference(dim, depth):
    S = density_martingale(GridMeasure(cascade_measure(dim, depth, seed=dim)))
    for n in range(1, S.depth + 1):
        expected = S.levels[n] - expand(S.levels[n - 1], dim)
        assert S.jumps(n).tobytes() == expected.tobytes()


def test_second_difference_matches_twice_the_jump():
    f = integrate(random_jump_martingale(8, seed=3))
    S = average_growth(f)
    for n in range(0, 8):
        for j in sorted({0, (2**n) // 2, 2**n - 1}):
            d2 = second_difference_dyadic(f, (n, j))
            right_child_jump = S.jumps(n + 1)[2 * j + 1]
            assert d2 == 2.0 * right_child_jump


def test_second_difference_dyadic_hat():
    assert second_difference_dyadic(hat_function(5), (0, 0)) == -2.0


def test_averaging_property_validates():
    for S in [random_martingale(7, seed=1), random_jump_martingale(7, seed=2)]:
        assert is_martingale(S)
    bad = DyadicMartingale([np.array([0.0]), np.array([1.0, 0.5])])
    assert not is_martingale(bad)


def test_integrate_roundtrips_with_average_growth():
    for seed in range(5):
        S = random_martingale(9, seed=seed)
        f = integrate(S)
        T = average_growth(f)
        # pinning f(0) = 0 shifts values, not slopes: the martingale returns intact
        for n in range(S.depth + 1):
            assert np.array_equal(T.levels[n], S.levels[n])


def test_integrate_on_offset_root():
    levels = [np.array([1.0]), np.array([2.0, 0.0])]
    # two leaf cells of width 2 on [-1, 3)
    f = integrate(DyadicMartingale(levels), left=-1, log2_spacing=1)
    assert f.left == -1
    assert f.values[0] == 0.0
    assert f.values[-1] == pytest.approx(4.0)  # mean slope 1 over length 4


def test_star_norm_random_jumps_exact():
    S = random_jump_martingale(10, delta=Fraction(1, 8), seed=11)
    assert star_norm(S) == 0.125
    f = integrate(S)
    assert dyadic_zygmund_seminorm(f) == 0.25


def test_bmo_norm_hat():
    S = average_growth(hat_function(6))
    # only the two generation-1 jumps contribute: density (1+1)/2 at the root
    assert bmo_density(S) == 1.0
    assert bmo_norm(S) == 1.0


def test_bmo_norm_all_jumps():
    depth = 8
    S = random_jump_martingale(depth, delta=Fraction(1, 4), seed=0)
    # every generation contributes jump^2 at full density: depth * delta^2
    expected = depth * 0.25**2
    assert bmo_density(S) == expected
    assert bmo_norm(S) == math.sqrt(expected)


def test_bmo_norm_windows_see_local_bursts():
    # jumps only inside [0, 1/4): the density at that window is 4x the root's
    depth = 6
    levels = [np.zeros(1), np.zeros(2), np.zeros(4)]
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 1], dtype=np.uint64)))
    for n in range(2, depth):
        parent = levels[-1]
        child = np.repeat(parent, 2)
        block = 2 ** (n + 1 - 2)  # children under [0, 1/4)
        signs = rng.integers(0, 2, size=block // 2).astype(np.float64) * 2.0 - 1.0
        child[0:block:2] += signs * 0.25
        child[1:block:2] -= signs * 0.25
        levels.append(child)
    S = DyadicMartingale(levels)
    density_root = sum(
        float((S.jumps(n) ** 2 * 2.0 ** (-n)).sum()) for n in range(1, S.depth + 1)
    )
    assert bmo_density(S) == pytest.approx(4.0 * density_root)
    assert bmo_norm(S) == math.sqrt(bmo_density(S))


def test_quadratic_characteristic_and_counts():
    depth = 7
    S = random_jump_martingale(depth, delta=Fraction(1, 16), seed=9)
    qc = quadratic_characteristic(S)
    assert np.allclose(qc, math.sqrt(depth) / 16.0)
    counts = thresholded_jump_count(S, 0.0)
    assert np.all(counts == math.sqrt(depth))
    assert np.all(thresholded_jump_count(S, 1.0 / 16.0) == 0.0)


def test_maximal_function_single_branch():
    depth = 9
    S = single_branch_martingale(depth, delta=1)
    m = maximal_function(S)
    assert m[0] == depth
    assert m.max() == depth
    # the deepest sibling rode the branch to depth-1 before stepping off
    assert m[1] == depth - 1
    qc = quadratic_characteristic(S)
    assert qc[0] == math.sqrt(depth)


def test_window_parseval_identity():
    for S in [random_martingale(8, seed=2), average_growth(weierstrass_function(8))]:
        for gen, idx in [(0, 0), (1, 1), (3, 5), (5, 17)]:
            energy, osc = window_parseval(S, gen, idx)
            assert energy == pytest.approx(osc, rel=1e-12, abs=1e-300)


def test_window_parseval_dim2():
    rng = np.random.Generator(np.random.Philox(key=np.array([3, 1], dtype=np.uint64)))
    leaf = rng.integers(-8, 9, size=(8, 8)).astype(np.float64) / 16.0
    S = DyadicMartingale.from_leaf(leaf, dim=2)
    for gen, idx in [(0, (0, 0)), (1, (1, 0)), (2, (2, 3))]:
        energy, osc = window_parseval(S, gen, idx)
        assert energy == pytest.approx(osc, rel=1e-12, abs=1e-300)


@given(st.integers(min_value=0, max_value=50))
def test_random_martingale_reproducible(seed):
    a = random_martingale(6, seed=seed)
    b = random_martingale(6, seed=seed)
    for la, lb in zip(a.levels, b.levels):
        assert np.array_equal(la, lb)


def test_sampled_function_grid_bookkeeping():
    f = hat_function(5)
    assert f.depth == 5
    assert f.span == RealInterval(0, 1)
    assert f.compact
    assert index_of(f, Fraction(1, 2)) == 16
    with pytest.raises(ValueError):
        index_of(f, Fraction(1, 3))
    assert value_at_index(f, -4) == 0.0
    g = parabola_function(5)
    assert not g.compact
    with pytest.raises(IndexError):
        value_at_index(g, 1000)


def test_lacunary_every_generation_jumps():
    depth = 8
    f = lacunary_function(depth, coefficient=Fraction(1, 2), ratio=Fraction(1, 2))
    S = average_growth(f)
    for n in range(1, depth + 1):
        assert np.abs(S.jumps(n)).max() == 0.5
    assert dyadic_zygmund_seminorm(f) == 1.0


@st.composite
def _lattice_inputs(draw):
    """``2^N + 1`` samples ``k 2^-q`` with numerators of 0-60 bits below
    ``2^top``, or all zero, or with an infinite entry, with a power-of-two
    translate count and a grid spacing.  Numerator widths and ``top`` are
    drawn often near the digit budgets (31, 53) and near overflow and the
    subnormal range, where the verdicts turn."""
    N = draw(st.integers(1, 8))
    bits = draw(st.one_of(st.integers(0, 60), st.integers(26, 34), st.integers(36, 50)))
    ks = draw(
        st.lists(
            st.integers(-(2**bits) + 1, 2**bits - 1),
            min_size=(1 << N) + 1,
            max_size=(1 << N) + 1,
        )
    )
    if bits:
        ks[draw(st.integers(0, 1 << N))] = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    top = draw(
        st.one_of(
            st.integers(-1074, 1024), st.integers(1000, 1024), st.integers(-1074, -1000)
        )
    )
    with np.errstate(over="ignore"):
        values = np.ldexp(np.array(ks, dtype=np.float64), top - bits)
    shape = draw(st.sampled_from(["lattice", "lattice", "zero", "inf"]))
    if shape == "zero":
        values[:] = 0.0
    elif shape == "inf":
        values[draw(st.integers(0, 1 << N))] = draw(st.sampled_from([np.inf, -np.inf]))
    count = 1 << draw(st.integers(0, N))
    log2_spacing = draw(st.integers(-N - 4, 4))
    return values, count, log2_spacing


def _table_verdict(S, levels):
    """``_table_exact`` on ``S`` at ``levels``, as
    ``functionals._level_set_tables`` asks it, and the largest dropped size
    at each level."""
    sizes = _parent_sizes(S)
    largest, _ = _dropped(sizes, levels)
    return _table_exact(S, [float(s.max()) for s in sizes], max(largest, default=0.0)), largest


def _extreme(values):
    """Nonzero samples below 2^-1000 or above 2^995.  Near the subnormal
    range the table certificate may refuse what the former function rule
    took: it also bounds a measure's kept masses, on a quantum ``2^N`` times
    finer than the coarsest slope's.  Every such refusal seen in 20,000
    draws had a sample below 2^-1000; near overflow the families differ
    from the former rule's too, so that range is left out as well."""
    magnitudes = np.abs(values[values != 0.0])
    return magnitudes.size > 0 and (magnitudes.min() < 2.0**-1000 or magnitudes.max() > 2.0**995)


@settings(max_examples=500, deadline=None)
@given(_lattice_inputs())
def test_one_lattice_rule_gives_each_certificate_its_former_verdict(drawn):
    # the sweep, the table certificate and the class-kernel certificate each
    # decide exactness through _lattice_quantum; the sweep's and the class
    # kernel's verdicts equal their restatements in reference.py (the
    # sweep's former formula), except that all-zero values now sweep int32
    # (q = 0) where the former sweep took float64.  The table certificate
    # accepts what the former function rule (reference.tree_exact) did,
    # outside _extreme, and where it accepts the table is the loop's.
    values, count, log2_spacing = drawn
    all_zero = not values.any()
    swept = _sweep_values(values)[0]
    assert (swept.dtype == np.int32) == (sweep_takes_int32(values) or all_zero)
    f = SampledFunction(values, log2_spacing=log2_spacing)
    with np.errstate(over="ignore", invalid="ignore"):
        S = average_growth(f)
        ties = [_parent_deviation(S.jumps(n), 1)[:2] for n in range(1, S.depth + 1)]
        grid = default_eps_grid(S) + [2.0 * float(a) for a in np.concatenate(ties)]
        accepted, largest = _table_verdict(S, [eps / 2.0 for eps in grid])
    if tree_exact(f) and not _extreme(values):
        assert accepted
    if accepted:
        assert [2.0 * d for d in largest] == truncation_maxima_loop(S, grid)[0]
    # the class-kernel certificate reads window jumps of a compact function
    compact = values.copy()
    compact[[0, -1]] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        verdict = _lattice_exact(compact, _window_jumps(compact), count) is None
    assert verdict == lattice_exact(compact, count)
    if np.isfinite(values).all():
        # with no family to bound, the rule returns the lattice's q
        expected = 0 if all_zero else lattice_exponents(values)[0]
        assert _lattice_quantum(_lattice_exponents(values), 53) == expected
    else:
        assert _lattice_quantum(_lattice_exponents(values), 53) is None


@st.composite
def _measure_inputs(draw):
    """Masses ``k 2^-q`` on a 1-d or 2-d grid, with numerators of 0-53
    bits below ``2^top``, often near the digit budget, some sparse and some
    signed (a function's increments are), and ``top`` drawn often near
    overflow and the subnormal range."""
    dim = draw(st.integers(1, 2))
    depth = draw(st.integers(0, 6 if dim == 1 else 3))
    cells = 1 << dim * depth
    bits = draw(st.one_of(st.integers(0, 53), st.integers(44, 53)))
    low = -(2**bits) + 1 if draw(st.booleans()) else 0
    ks = draw(st.lists(st.integers(low, max(2**bits - 1, 0)), min_size=cells, max_size=cells))
    if draw(st.booleans()):
        kept = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
        ks = [k if keep else 0 for k, keep in zip(ks, kept)]
    top = draw(
        st.one_of(
            st.integers(-1074, 1024), st.integers(990, 1024), st.integers(-1074, -1000)
        )
    )
    with np.errstate(over="ignore"):
        masses = np.ldexp(np.array(ks, dtype=np.float64), top - bits)
    return masses.reshape((1 << depth,) * dim)


@settings(max_examples=300, deadline=None)
@given(_measure_inputs())
def test_table_certificate_accepts_what_the_former_measure_rule_accepted(masses):
    # the former measure rule (reference.truncation_exact) implies the table
    # certificate's verdict, and where that accepts, the table is both the
    # measure loop's and the function loop's at twice the level
    mu = GridMeasure(masses)
    with np.errstate(over="ignore", invalid="ignore"):
        S = density_martingale(mu)
        norm = star_norm(S)
        grid = _geometric_grid(norm, -20) if np.isfinite(norm) else [1.0]
        ties = [_parent_deviation(S.jumps(n), S.dim).ravel()[:2] for n in range(1, S.depth + 1)]
        levels = [eps for eps in grid if eps > 0.0] + [float(a) for a in np.concatenate([[]] + ties)]
        accepted, largest = _table_verdict(S, levels)
        if truncation_exact(mu, max(largest, default=0.0)):
            assert accepted
    if accepted:
        assert largest == residual_norms_loop(mu, levels)
        assert [2.0 * d for d in largest] == truncation_maxima_loop(S, [2.0 * e for e in levels])[0]
