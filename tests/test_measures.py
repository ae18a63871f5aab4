"""Oracle and property tests for grid measures."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    bmo_density,
    box_mass,
    cell_mass,
    delta1,
    delta2,
    delta2_dyadic,
    delta2_max,
    is_martingale,
    box_mass_grid,
    measure_zygmund_norm_loop,
    measure_zygmund_steps,
    one_split_measure,
    residual_norms_loop,
)
from zygdist.cli import main
from zygdist.functionals import _geometric_grid, default_eps_grid, density_profile
from zygdist.generators import cascade_measure, random_jump_martingale, random_martingale
from zygdist.martingale import (
    DyadicMartingale,
    SampledFunction,
    average_growth,
    integrate,
    star_norm,
)
from zygdist import approximation, martingale, measures
from zygdist.approximation import distance_report
from zygdist.measures import (
    GridMeasure,
    density_martingale,
    measure_tree_levelset_density,
    measure_truncate,
    measure_zygmund_norm,
)
from zygdist.verification import _delta1_samples


def _cascade(dim, depth, seed):
    return GridMeasure(cascade_measure(dim, depth, seed=seed))


# ---------------------------------------------------------------------------
# mass bookkeeping


def test_grid_measure_shape_checks():
    with pytest.raises(ValueError):
        GridMeasure(np.ones((4, 2)))
    with pytest.raises(ValueError):
        GridMeasure(np.ones(3))


@settings(max_examples=20)
@given(seed=st.integers(0, 400), dim=st.integers(1, 2))
def test_box_mass_matches_slices(seed, dim):
    depth = 4 if dim == 2 else 6
    mu = _cascade(dim, depth, seed)
    rng = np.random.default_rng(seed)
    side = 1 << depth
    for _ in range(10):
        lo = rng.integers(0, side, size=dim)
        hi = lo + rng.integers(0, side, size=dim)
        sl = tuple(slice(a, b) for a, b in zip(lo, np.minimum(hi, side)))
        assert box_mass(mu, lo, hi) == pytest.approx(
            float(mu.masses[sl].sum()), abs=1e-15
        )


def test_box_mass_grid_matches_scalar():
    mu = _cascade(2, 4, seed=9)
    lo = np.array([-2, 0, 3, 10])
    hi = lo + 5
    grid = mu.box_mass_grid([lo, lo], [hi, hi])
    for a in range(lo.size):
        for b in range(lo.size):
            assert grid[a, b] == pytest.approx(
                box_mass(mu, [lo[a], lo[b]], [hi[a], hi[b]]), abs=1e-15
            )


def test_cell_mass_and_total():
    mu = _cascade(2, 4, seed=3)
    assert mu.total == pytest.approx(1.0, abs=1e-15)
    assert cell_mass(mu, 0, (0, 0)) == pytest.approx(1.0, abs=1e-15)
    q = cell_mass(mu, 1, (0, 1))
    assert q == pytest.approx(float(mu.masses[:8, 8:].sum()), abs=1e-15)


# ---------------------------------------------------------------------------
# box averages and second differences


def test_delta1_oracles():
    mu = _cascade(1, 6, seed=1)
    assert delta1(mu, Fraction(1, 2), 1) == pytest.approx(1.0, abs=1e-15)
    # Clipped cube: only the half in [0, 1/4) contributes, averaged over h.
    assert delta1(mu, 0, Fraction(1, 2)) == pytest.approx(
        float(mu.masses[:16].sum()) * 2.0, abs=1e-12
    )
    with pytest.raises(ValueError):
        delta1(mu, Fraction(1, 3), Fraction(1, 4))


def test_delta2_uniform_interior_zero():
    mu = GridMeasure(np.full(32, 1 / 32))
    for x in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 8)):
        assert delta2(mu, x, Fraction(1, 8)) == pytest.approx(0.0, abs=1e-14)


def test_one_split_root_deviation_exact():
    for dim in (1, 2):
        theta = Fraction(1, 4)
        mu = GridMeasure(one_split_measure(dim, 4, theta=theta))
        assert delta2_max(mu, 0, (0,) * dim) == float(theta)
        # Away from the root split the cascade is uniform.
        for idx in itertools.product(range(2), repeat=dim):
            assert delta2_max(mu, 1, idx) == pytest.approx(0.0, abs=1e-15)
        assert measure_zygmund_norm(mu, mode="dyadic") == float(theta)


def test_delta2_dyadic_matches_primitive_function():
    mu = _cascade(1, 6, seed=12)
    values = np.concatenate(([0.0], np.cumsum(mu.masses)))
    F = SampledFunction(values, left=0, log2_spacing=-6)
    S = average_growth(F)
    D = density_martingale(mu)
    for n in range(7):
        assert np.allclose(S.levels[n], D.levels[n], rtol=0, atol=1e-12)
    for n in (1, 3, 6):
        for j in (0, (1 << n) - 1):
            assert delta2_dyadic(mu, n, j) == pytest.approx(
                float(D.jumps(n)[j]), abs=1e-12
            )


def test_density_martingale_validates():
    for dim in (1, 2):
        mu = _cascade(dim, 4, seed=5)
        assert is_martingale(density_martingale(mu))


def test_measure_zygmund_continuous_brute_force():
    mu = _cascade(1, 4, seed=7)
    side = 16
    best = 0.0
    for u in range(1, side // 2 + 1):
        for i in range(side + 1):
            x = Fraction(i, side)
            h = Fraction(2 * u, side)
            best = max(best, abs(delta2(mu, x, h)))
    assert measure_zygmund_norm(mu, mode="continuous") == pytest.approx(
        best, rel=1e-12
    )


def test_measure_zygmund_continuous_brute_force_2d():
    mu = _cascade(2, 3, seed=11)
    side = 8
    best = 0.0
    for u in range(1, side // 2 + 1):
        for i in range(side + 1):
            for j in range(side + 1):
                x = (Fraction(i, side), Fraction(j, side))
                best = max(best, abs(delta2(mu, x, Fraction(2 * u, side))))
    assert measure_zygmund_norm(mu, mode="continuous") == pytest.approx(
        best, rel=1e-12
    )


# 1-d depths 2, 3 and 11 and 2-d depths 2 and 5 give doubling chains of
# length 1 and 2 next to long ones; depth 1 has the odd top half-width 1
_CHAIN_DEPTHS = [(1, 2), (1, 3), (1, 11), (2, 2), (2, 5)]


@pytest.mark.parametrize(
    "dim, depth", [(1, 1), (1, 5), (1, 10), (2, 1), (2, 3), (2, 6)] + _CHAIN_DEPTHS
)
def test_measure_zygmund_continuous_matches_loop_oracle(dim, depth):
    mu = _cascade(dim, depth, seed=7)
    assert measure_zygmund_norm(mu, mode="continuous") == measure_zygmund_norm_loop(mu)


@pytest.mark.parametrize("dim, depth", [(1, 8), (2, 4)] + _CHAIN_DEPTHS)
def test_measure_zygmund_continuous_matches_loop_oracle_signed(dim, depth):
    mu = _cascade(dim, depth, seed=7)
    # at depth 2 every split exceeds a quarter of the norm: all are kept, mu - kept is 0
    level = measure_zygmund_norm(mu) / (2 if depth == 2 else 4)
    signed = mu - measure_truncate(density_martingale(mu), level)
    assert signed.masses.min() < 0.0 < signed.masses.max()
    assert measure_zygmund_norm(signed, mode="continuous") == measure_zygmund_norm_loop(
        signed
    )


@pytest.mark.parametrize(
    "dim, depth, seed",
    [(1, 8, 7), (2, 4, 3), (2, 4, 6), (1, 2, 7), (1, 3, 7), (1, 11, 7), (2, 2, 3), (2, 5, 5)],
)
def test_measure_zygmund_continuous_matches_loop_oracle_off_lattice(dim, depth, seed):
    # thirds round in every cell, so the corner sums are inexact: at the 2-d
    # seeds of depths 4 and 5 a reversed or regrouped corner order changes
    # the norm
    third = GridMeasure(_cascade(dim, depth, seed).masses / 3.0)
    assert measure_zygmund_norm(third, mode="continuous") == measure_zygmund_norm_loop(
        third
    )


# box masses that round: off the binary lattice, and in 3-d, which the loader
# refuses but the library serves; the step bound holds there by its slack E
_SLACK_CASES = {
    "cascade-2d-5/3": _cascade(2, 5, 7).masses / 3.0,
    "cascade-2d-7/3": _cascade(2, 7, 7).masses / 3.0,
    "uniform-2d-6/3": np.random.default_rng(7).random((64, 64)) / 3.0,
    **{f"cascade-3d-{n}": _cascade(3, n, 7).masses for n in (2, 3, 4)},
    **{f"cascade-3d-{n}/3": _cascade(3, n, 7).masses / 3.0 for n in (2, 3, 4)},
}


@pytest.mark.parametrize("name", sorted(_SLACK_CASES))
def test_slack_bound_matches_loop_oracle(name):
    mu = GridMeasure(_SLACK_CASES[name])
    assert measure_zygmund_norm(mu, mode="continuous") == measure_zygmund_norm_loop(
        GridMeasure(mu.masses)
    )


def _point_mass(dim, depth, cell):
    masses = np.zeros((1 << depth,) * dim)
    masses[(cell,) * dim] = 1.0
    return masses


# non-negative measures with a finite total, whose step bounds are finite:
# every skipped step must be one the loop finds no larger than the maximum
_BOUNDED_CASES = {
    "zero-1d": np.zeros(64),
    "zero-2d": np.zeros((16, 16)),
    "centre-1d": _point_mass(1, 7, 64),
    "centre-2d": _point_mass(2, 4, 8),
    "edge-1d": _point_mass(1, 7, 127),
    "edge-2d": _point_mass(2, 4, 0),
    "uniform-1d": np.full(128, 1 / 128),
    "uniform-2d": np.full((16, 16), 1 / 256),
    "subnormal-1d": np.full(64, 5e-324),
    "subnormal-2d": np.full((8, 8), 5e-324),
    "huge-1d": np.linspace(0.0, 1e300, 64),
    "huge-2d": _point_mass(2, 3, 5) * 2.0**996,
}


@pytest.mark.parametrize("name", sorted(_BOUNDED_CASES))
def test_bounded_sweep_matches_loop_oracle(name):
    mu = GridMeasure(_BOUNDED_CASES[name])
    assert np.isfinite(_bounds(mu)).all()
    with np.errstate(over="ignore"):  # near 1e300 the box averages reach inf
        assert measure_zygmund_norm(mu, mode="continuous") == measure_zygmund_norm_loop(
            GridMeasure(mu.masses)
        )


def test_bounded_sweep_refuses_an_overflowing_total():
    masses = np.zeros(64)
    masses[[3, 40]] = 1e308
    mu = GridMeasure(masses)
    with np.errstate(over="ignore", invalid="ignore"):  # the table's total is inf
        assert _bounds(mu) == [np.inf] * 32
        assert measure_zygmund_norm(mu, mode="continuous") == measure_zygmund_norm_loop(
            GridMeasure(masses)
        )


_MASS = st.one_of(
    st.just(0.0),
    st.sampled_from([0.25, 1.0, 3.0]),
    st.integers(0, 1 << 20).map(float),
    st.floats(0.0, 1e6),
)


@st.composite
def _non_negative_measures(draw):
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(1, {1: 7, 2: 4, 3: 3}[dim]))
    cells = 1 << (dim * depth)
    masses = draw(st.lists(_MASS, min_size=cells, max_size=cells))
    return np.array(masses).reshape((1 << depth,) * dim)


@given(masses=_non_negative_measures())
def test_bounded_sweep_matches_loop_oracle_on_random_masses(masses):
    mu = GridMeasure(masses)
    assert measure_zygmund_norm(mu, mode="continuous") == measure_zygmund_norm_loop(
        GridMeasure(masses)
    )


def _scales(mu):
    """The box scales ``(side / (2r))^dim``, indexed by ``r = 1 .. side``."""
    side = 1 << mu.depth
    return [0.0] + [(side / (2 * r)) ** mu.dim for r in range(1, side + 1)]


def _bounds(mu):
    side = 1 << mu.depth
    idx = np.clip(np.arange(-side, 2 * side + 1), 0, side)
    return measures._step_bounds(mu, mu.table[np.ix_(*[idx] * mu.dim)], _scales(mu))


@pytest.mark.parametrize(
    "masses",
    [
        cascade_measure(1, 9, seed=3),
        cascade_measure(2, 5, seed=7),
        _BOUNDED_CASES["centre-2d"],
        _BOUNDED_CASES["uniform-1d"],
        np.arange(64.0),
        _SLACK_CASES["cascade-2d-5/3"],
        _SLACK_CASES["cascade-3d-3/3"],
    ],
)
def test_step_bounds_are_their_definition_and_hold(masses):
    mu = GridMeasure(masses)
    side, d, scales = 1 << mu.depth, mu.dim, _scales(mu)
    centers = np.arange(side + 1)
    error = 2**d * (d * side + 2**d) * mu.total * 2.0**-52  # E
    high = {  # H(v), the float above D*(v) + 2E
        v: np.nextafter(box_mass_grid(mu, centers - v, centers + v).max() + 2 * error, np.inf)
        for v in (1 << j for j in range(mu.depth + 1))
    }

    def cap(r):  # H(p(r)) s_r, with p(r) the smallest power of two >= r
        return high[1 << (r - 1).bit_length()] * scales[r]

    bounds = _bounds(mu)
    assert bounds == [
        max(cap(u), cap(2 * u)) + error * scales[u] for u in range(1, side // 2 + 1)
    ]
    steps = measure_zygmund_steps(mu)
    assert all(value <= bound for value, bound in zip(steps, bounds))


def _count_box_arrays(monkeypatch):
    made = []
    former = measures._centred_box_averages

    def counted(ext, side, r, scale):
        made.append(r)
        return former(ext, side, r, scale)

    monkeypatch.setattr(measures, "_centred_box_averages", counted)
    return made


def _walk(bounds, steps):
    """Half-widths of the box arrays the chain walk forms, in order: a step
    runs unless its bound is at most the best step so far, and forms its
    inner array unless the step before it in the chain ran."""
    made, best = [], 0.0
    half = len(bounds)
    for odd in range(1, half + 1, 2):
        u, carried = odd, False
        while u <= half:
            if bounds[u - 1] <= best:
                carried = False
            else:
                made += [2 * u] if carried else [u, 2 * u]
                best, carried = max(best, steps[u - 1]), True
            u *= 2
    return made


def test_bound_skips_almost_every_box_array(monkeypatch):
    made = _count_box_arrays(monkeypatch)
    mu = _cascade(1, 12, seed=7)  # generate --kind cascade --dim 1 --depth 12 --seed 7
    measure_zygmund_norm(mu, mode="continuous")
    steps = measure_zygmund_steps(mu)
    assert made == _walk(_bounds(mu), steps)
    assert len(_walk([np.inf] * 2048, steps)) == 3072
    assert 0 < len(made) <= 64


# generate --kind cascade --dim D --depth N --seed S: box arrays formed.  The
# 1-d depth-14 and 2-d depth-8 counts are those of the former certificate; on
# the 2-d depth-10 cascade at seed 7 it formed all 768.
_FORMED = {(1, 14, 3): 164, (1, 14, 7): 44, (1, 14, 13): 101, (2, 8, 3): 28,
           (2, 8, 7): 49, (2, 8, 13): 98, (2, 10, 7): 17}


@pytest.mark.parametrize("dim, depth, seed", sorted(_FORMED))
def test_box_arrays_formed_on_generated_cascades(monkeypatch, dim, depth, seed):
    made = _count_box_arrays(monkeypatch)
    measure_zygmund_norm(_cascade(dim, depth, seed), mode="continuous")
    assert len(made) == _FORMED[dim, depth, seed]


@pytest.mark.parametrize(
    "masses",
    [_cascade(2, 4, seed=3).masses / 3.0, _SLACK_CASES["cascade-3d-4"]],
    ids=["off-lattice-2d", "cascade-3d"],
)
def test_bound_prunes_off_the_lattice_and_in_3d(monkeypatch, masses):
    made = _count_box_arrays(monkeypatch)
    mu = GridMeasure(masses)
    measure_zygmund_norm(mu, mode="continuous")
    assert made == _walk(_bounds(mu), measure_zygmund_steps(mu))
    assert len(made) < 3 * mu.masses.shape[0] // 4


@pytest.mark.parametrize(
    "mu",
    [
        _cascade(1, 8, seed=7)
        - measure_truncate(density_martingale(_cascade(1, 8, seed=7)), 1.0)
    ],
    ids=["signed"],
)
def test_uncertified_measures_form_every_box_array(monkeypatch, mu):
    made = _count_box_arrays(monkeypatch)
    assert _bounds(mu) == [np.inf] * (1 << (mu.depth - 1))
    measure_zygmund_norm(mu, mode="continuous")
    half = 1 << (mu.depth - 1)
    assert made == _walk([np.inf] * half, [0.0] * half)
    assert len(made) == 3 * half // 2


def test_summed_area_table_built_on_first_read(tmp_path, monkeypatch):
    mu = _cascade(2, 3, seed=7)
    assert mu._table is None
    measure_zygmund_norm(mu, mode="continuous")
    assert mu._table is not None
    nu = _cascade(1, 4, seed=7)
    centers, half = np.array([[3], [8]]), np.array([2, 5])
    assert nu._table is None
    _delta1_samples(nu, centers, half)
    assert nu._table is not None

    # one `measure` call reads the input's table for the continuous norm;
    # the truncations and residuals it builds on a refused input (masses
    # divided by 3) never read theirs
    path = tmp_path / "mu.json"
    assert main(["generate", "--kind", "cascade", "--dim", "1", "--depth", "14",
                 "--seed", "7", "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["masses"] = [m / 3.0 for m in payload["masses"]]
    path.write_text(json.dumps(payload))
    made = []
    init = GridMeasure.__init__

    def recorded(self, masses):
        init(self, masses)
        made.append(self)

    monkeypatch.setattr(GridMeasure, "__init__", recorded)
    assert main(["measure", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert len(made) > 2
    assert sum(m._table is not None for m in made) == 1


# ---------------------------------------------------------------------------
# tree functional


def _brute_tree_density(mu, eps, depth):
    best = 0.0
    for g in range(depth + 1):
        for k in itertools.product(range(1 << g), repeat=mu.dim):
            total = 0.0
            for m in range(g, depth):
                for p in itertools.product(range(1 << m), repeat=mu.dim):
                    inside = all(
                        k[a] * (1 << (m - g)) <= p[a] < (k[a] + 1) * (1 << (m - g))
                        for a in range(mu.dim)
                    )
                    if inside and delta2_max(mu, m, p) > eps:
                        total += 2.0 ** (-mu.dim * m)
            best = max(best, total * 2.0 ** (mu.dim * g))
    return best


def test_tree_density_matches_brute_force():
    # every (eps, depth) entry of one profile, depths 1 .. N
    for dim, depth in ((1, 5), (2, 3)):
        mu = _cascade(dim, depth, seed=4)
        norm = measure_zygmund_norm(mu, mode="dyadic")
        grid = [0.3 * norm, 0.9 * norm, 1.1 * norm]
        depths = range(1, depth + 1)
        profile = measure_tree_levelset_density(density_martingale(mu), grid, depths)
        assert profile.depths == list(depths) and profile.eps == grid
        for d, row in zip(depths, profile.values):
            assert row == [_brute_tree_density(mu, eps, d) for eps in grid]


@pytest.mark.parametrize("divisor", [1, 3])
def test_measure_forms_each_deviation_table_once_per_use(tmp_path, monkeypatch, divisor):
    # one `measure` forms `depth` deviation tables, shared by its dyadic
    # norm, default grid, tree densities and residual table, and, on a
    # refused input (masses divided by 3), `depth` per distinct count of
    # dropped parents (21 of the 23 levels) for the truncations, all through
    # the one parent-size rule, counted in every module that binds it; the
    # certificate forms none.  One `distance-ibmo` forms `depth` tables,
    # shared by its residual table and its tree densities, plus `depth`
    # per distinct count (2 of the 23 levels) on a refused input (values
    # divided by 3).
    path = tmp_path / "mu.json"
    argv = ["--kind", "cascade", "--dim", "1", "--depth", "14", "--seed", "7"]
    assert main(["generate", *argv, "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["masses"] = [m / divisor for m in payload["masses"]]
    path.write_text(json.dumps(payload))
    tables = []
    original = martingale._parent_deviation

    def counted(dj, dim):
        tables.append(dj.size)
        return original(dj, dim)

    for module in (approximation, martingale):
        monkeypatch.setattr(module, "_parent_deviation", counted)
    out = tmp_path / "report.json"
    assert main(["measure", "--in", str(path), "--out", str(out)]) == 0
    levels = len(json.loads(out.read_text())["tables"]["truncation"]["rows"])
    assert levels == 23
    assert len(tables) == 14 + (21 * 14 if divisor == 3 else 0)

    argv = ["--kind", "random-jumps", "--depth", "10", "--seed", "7"]
    assert main(["generate", *argv, "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["values"] = [v / divisor for v in payload["values"]]
    path.write_text(json.dumps(payload))
    tables.clear()
    assert main(["distance-ibmo", "--in", str(path), "--out", str(out)]) == 0
    assert len(tables) == 10 + (2 * 10 if divisor == 3 else 0)


# ---------------------------------------------------------------------------
# truncation


def test_truncate_identity_and_extremes():
    mu = _cascade(1, 6, seed=2)
    S = density_martingale(mu)
    everything = measure_truncate(S, -1.0)
    assert np.array_equal(everything.masses, mu.masses)
    norm = measure_zygmund_norm(mu, mode="dyadic")
    nothing = measure_truncate(S, norm)
    assert np.allclose(nothing.masses, mu.total / mu.masses.size, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim, depth", [(1, 14), (2, 6)])
def test_truncate_forms_each_jump_field_once(monkeypatch, dim, depth):
    # one jump field per generation feeds both the keep mask and the kept
    # jumps: `depth` calls, not 2 * depth
    S = density_martingale(_cascade(dim, depth, seed=7))
    eps = 0.5 * star_norm(S)
    expected = measure_truncate(S, eps).masses
    jumps = DyadicMartingale.jumps
    calls = []

    def counted(self, n):
        calls.append(n)
        return jumps(self, n)

    monkeypatch.setattr(DyadicMartingale, "jumps", counted)
    nu = measure_truncate(S, eps)
    assert sorted(calls) == list(range(1, depth + 1))
    assert np.array_equal(nu.masses, expected)


def test_truncate_residual_deviations_exact():
    for dim, depth in ((1, 6), (2, 4)):
        mu = _cascade(dim, depth, seed=14)
        norm = measure_zygmund_norm(mu, mode="dyadic")
        for eps in (0.3 * norm, 0.7 * norm):
            nu = measure_truncate(density_martingale(mu), eps)
            resid = mu - nu
            for m in range(depth):
                for p in itertools.product(range(1 << m), repeat=dim):
                    dev = delta2_max(resid, m, p)
                    assert dev <= eps
                    full = delta2_max(mu, m, p)
                    if full > eps:
                        assert dev == 0.0
                    else:
                        assert dev == full


def test_truncate_preserves_total():
    mu = _cascade(2, 4, seed=21)
    nu = measure_truncate(density_martingale(mu), 0.2)
    assert nu.total == pytest.approx(mu.total, abs=1e-14)


def test_truncated_oscillation_controlled_by_density():
    # Windowed jump energy of the kept part is bounded by the squared norm
    # times the tree level-set density, window by window.
    for dim, depth in ((1, 7), (2, 4)):
        mu = _cascade(dim, depth, seed=17)
        S = density_martingale(mu)
        norm = measure_zygmund_norm(mu, mode="dyadic")
        grid = [0.4 * norm, 0.8 * norm]
        (density,) = measure_tree_levelset_density(S, grid, [depth]).values
        for eps, D in zip(grid, density):
            lhs = bmo_density(density_martingale(measure_truncate(S, eps)))
            rhs = norm**2 * D
            assert lhs <= rhs * (1 + 1e-12)


# ---------------------------------------------------------------------------
# residual norms from one sorted deviation table


def _tie_levels(S):
    """Levels exactly equal to some parent's deviation, at every generation."""
    return sorted({
        float(v)
        for n in range(1, S.depth + 1)
        for v in martingale._parent_deviation(S.jumps(n), S.dim).ravel()[:4]
    })


def _largest_and_peaks(S, levels):
    """The largest dropped size at each level and each generation's largest
    parent size, as ``approximation._residual_table`` reads them."""
    sizes = martingale._parent_sizes(S)
    return martingale._dropped(sizes, levels)[0], [float(s.max()) for s in sizes]


def _residual_norms(mu, S, levels):
    """``measures._residual_norms`` on the tables that ``cmd_measure`` passes it."""
    sizes = martingale._parent_sizes(S)
    return measures._residual_norms(mu, S, sizes, martingale._peaks(sizes)[0], levels)


def _residual_norms_counted(monkeypatch, mu, levels):
    """``measures._residual_norms`` and the levels it truncated at."""
    truncate = measures.measure_truncate
    truncated = []

    def counted(S, eps):
        truncated.append(eps)
        return truncate(S, eps)

    with monkeypatch.context() as patch:
        patch.setattr(measures, "measure_truncate", counted)
        norms = _residual_norms(mu, density_martingale(mu), levels)
    return norms, truncated


@pytest.mark.parametrize("dim, depths", [(1, range(4, 11)), (2, range(2, 9))])
def test_residual_table_equals_the_truncation_loop(monkeypatch, dim, depths):
    # the certificate accepts every cascade here, and the table then equals
    # the level-by-level loop, on the default grid and on tie levels
    for depth in depths:
        for seed in range(16):
            mu = _cascade(dim, depth, seed)
            S = density_martingale(mu)
            grid = _geometric_grid(star_norm(S), -20) + _tie_levels(S)
            norms, truncated = _residual_norms_counted(monkeypatch, mu, grid)
            assert truncated == []
            assert norms == residual_norms_loop(mu, grid)


@pytest.mark.parametrize(
    "dim, depth, seed, divisor, truncations",
    [
        (2, 8, 7, 1, 0),
        (2, 8, 13, 1, 0),
        (1, 14, 7, 1, 0),
        (2, 10, 7, 1, 0),
        (1, 5, 11, 3, 13),
        (2, 5, 11, 3, 13),
    ],
)
def test_truncation_certificate_on_named_cascades(
    monkeypatch, dim, depth, seed, divisor, truncations
):
    # accepted inputs truncate nowhere; a refused one (masses divided by 3)
    # truncates once per distinct count of dropped parents (13 of the 23
    # levels at depth 5), and both give the loop's norms
    mu = GridMeasure(_cascade(dim, depth, seed).masses / divisor)
    S = density_martingale(mu)
    grid = _geometric_grid(star_norm(S), -20)
    norms, truncated = _residual_norms_counted(monkeypatch, mu, grid)
    assert norms == residual_norms_loop(mu, grid)
    assert len(truncated) == truncations
    if truncations:
        deviations = np.concatenate(
            [martingale._parent_deviation(S.jumps(n), dim).ravel() for n in range(1, depth + 1)]
        )
        assert len({int((deviations <= eps).sum()) for eps in grid}) == truncations


def test_truncation_certificate_refuses_a_kept_level_that_rounds(monkeypatch):
    # Masses B = 2^50 - 1 in cells 0 and 4 and 9 in cell 5: the largest
    # density is 8B = 2^53 - 8 quanta.  At level 9 the first split
    # (deviation 9) is dropped and the splits below it are kept, so cell 0
    # keeps 8B + 9 = 2^53 + 1 quanta, which rounds: the residual norm is
    # 8.875, not the table's 9.  The kept levels' growth, the dropped sizes
    # above a cell, is what refuses it.
    B = 2.0**50 - 1
    mu = GridMeasure(np.array([B, 0, 0, 0, B, 9, 0, 0]))
    S = density_martingale(mu)
    assert residual_norms_loop(mu, [9.0]) == [8.875]
    _, peaks = _largest_and_peaks(S, [])
    assert not approximation._table_exact(S, peaks, 9.0)
    assert approximation._table_exact(S, peaks, 0.0)
    norms, truncated = _residual_norms_counted(monkeypatch, mu, [8.0, 9.0])
    assert (norms, truncated) == ([0.0, 8.875], [8.0, 9.0])


def _refused_and_read_off_the_loop(masses, levels, table, loop):
    """The certificate refuses ``masses`` at ``levels``, where the table
    would read ``table`` but the measure loop gives ``loop``, and the
    residual norms are the loop's."""
    mu = GridMeasure(masses)
    S = density_martingale(mu)
    largest, peaks = _largest_and_peaks(S, levels)
    assert largest == table
    assert residual_norms_loop(mu, levels) == loop
    assert not approximation._table_exact(S, peaks, max(largest))
    assert _residual_norms(mu, S, levels) == loop


def test_table_certificate_refuses_a_jump_that_rounds():
    # 2-d densities a, -a, -a and -(a - 1), a = 2^51 - 1: the block mean is
    # (-2^52 + 3) / 4, exact, but a's jump, 6 * 2^51 - 7 quarters, needs 54
    # bits.  Every other family fits; the jumps' family refuses.  The table
    # drops nothing at level 1, yet the loops' residuals are 0.1875
    # (measure) and 0.25 (function) there.
    a = 2**51 - 1
    densities = np.array([[a, -a], [-a, -(a - 1)]], dtype=np.float64)
    _refused_and_read_off_the_loop(densities / 4, [1.0], [0.0], [0.1875])


def test_table_certificate_refuses_block_means_that_round():
    # 1-d densities 2^52 + 1 and 2^52 + 2: their sum 2^53 + 3 rounds, so
    # the root is not their mean and the residual has a mean of -0.5; only
    # the means' family (twice the largest density) refuses
    _refused_and_read_off_the_loop(np.array([2.0**51 + 0.5, 2.0**51 + 1]), [1.0], [1.0], [0.5])


def test_table_certificate_refuses_dropped_jumps_that_stack():
    # Densities with root s = 2^52 + 1: at level 6 the jumps 5 (generation
    # 1) and 6 (generation 2) above cell 0 are dropped and its jump 2^52 is
    # kept, so cell 0 keeps s + 2^52 = 2^53 + 1, which rounds.  The kept
    # levels' bound is the largest density 2^53 - 10 plus the dropped sizes
    # 5 + 6 + 6 of the three generations; half of them would not refuse.
    s = 2**52 + 1
    leaf = np.array([2**53 - 10, -10, s + 1, s + 1, s + 5, s + 5, s + 5, s + 5], dtype=np.float64)
    _refused_and_read_off_the_loop(leaf / 8, [6.0], [6.0], [5.75])


def test_table_certificate_refuses_kept_masses_that_underflow():
    # one mass of 4 * 2^-1074 in the last of 8 cells: at level 2^-1072 the
    # root split is dropped, and the kept densities, odd multiples of
    # 4 * 2^-1074, give kept masses of -0.5, 0.5 and 3.5 quanta 2^-1074,
    # which round; the kept masses' family (the quantum 2^-(q + dN)) refuses
    masses = np.zeros(8)
    masses[7] = 4 * 2.0**-1074
    _refused_and_read_off_the_loop(masses, [2.0**-1072], [2.0**-1072], [0.0])


def test_table_certificate_refuses_residual_block_sums_that_overflow():
    # In units u = 2^1019: a 2-d depth-6 martingale from the root -3 whose
    # (0, 0) cell climbs by dropped jumps of 2 (siblings -0.75, -0.75,
    # -0.5) at generations 1, 2, 4 and 5 and falls by a kept -1.5 (siblings
    # 2.5, -0.5, -0.5) at generation 3, every other split flat.  At level 2
    # its residual is 8 = 2^1022.  The means' bound 4 * 3.75 and the kept
    # levels' 3.75 + 10 (five generations of dropped sizes at most 2) stay
    # below 2^1023 = 16 u; only the residual's block sums, 4 * 8 u =
    # 2^1024, overflow, and the loop's norm is inf.
    u = 2.0**1019
    up = [2.0, -0.75, -0.75, -0.5]
    level = np.array([[-3.0]])
    for jumps in (up, up, [-1.5, 2.5, -0.5, -0.5], up, up, [0.0] * 4):
        level = np.repeat(np.repeat(level, 2, axis=0), 2, axis=1)
        level[:2, :2] += np.array(jumps).reshape(2, 2, order="F")
    mu = GridMeasure(level * u * 2.0**-12)
    S = density_martingale(mu)
    largest, peaks = _largest_and_peaks(S, [2 * u])
    assert largest == [2 * u]
    assert not approximation._table_exact(S, peaks, 2 * u)
    with np.errstate(over="ignore", invalid="ignore"):
        assert residual_norms_loop(mu, [2 * u]) == [np.inf]
        assert _residual_norms(mu, S, [2 * u]) == [np.inf]


def test_table_certificate_caps_each_generation_at_its_largest_size(monkeypatch):
    # densities x, x, 0, 0 with x = 2^51 + 1, on the quantum 1/2 of the
    # root: at level x / 2 every split is dropped, and the dropped sizes
    # above a cell are the root's x / 2 and the second generation's 0, so
    # the kept levels stay below x + x / 2 < 2^52; the level itself twice
    # (2x = 2^52 + 2) would refuse.  The input is accepted and truncates
    # nowhere.
    x = 2.0**51 + 1
    mu = GridMeasure(np.array([x, x, 0.0, 0.0]) / 4)
    norms, truncated = _residual_norms_counted(monkeypatch, mu, [x / 2])
    assert (norms, truncated) == ([x / 2], [])
    assert norms == residual_norms_loop(mu, [x / 2])


def test_table_certificate_refuses_jumps_that_overflow():
    # every level is finite, but a jump, 1.7e308 minus the mean -4.25e307,
    # overflows: the certificate refuses before it bounds anything
    big = 1.7e308
    mu = GridMeasure(np.array([[big, -big], [-big, 0.0]]) / 4)
    with np.errstate(over="ignore", invalid="ignore"):
        S = density_martingale(mu)
        largest, peaks = _largest_and_peaks(S, [1.0])
    assert peaks == [np.inf]
    assert not approximation._table_exact(S, peaks, max(largest))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("draw", [random_jump_martingale, random_martingale])
def test_functions_are_one_dimensional_increment_measures(draw, seed):
    # the increments of f are a 1-d measure whose density martingale is the
    # slope martingale of f; the tree profile and the truncation residuals
    # of the two then agree with `==`, the function side at twice the level
    f = integrate(draw(10, seed=seed))
    mu = GridMeasure(np.diff(f.values))
    A, S = average_growth(f), density_martingale(mu)
    assert len(S.levels) == len(A.levels)
    assert all(np.array_equal(s, a) for s, a in zip(S.levels, A.levels))
    grid = default_eps_grid(A)
    depths = [5, 10]
    doubled = [2.0 * e for e in grid]
    assert measure_tree_levelset_density(S, grid, depths).values == (
        density_profile(A, doubled, depths).values
    )
    residuals = _residual_norms(mu, S, [e / 2.0 for e in grid])
    report = distance_report(f, grid, depths)
    assert [2.0 * r for r in residuals] == report.measured_distance


def test_one_dimensional_reduction_matches_martingale_star():
    mu = _cascade(1, 8, seed=23)
    assert measure_zygmund_norm(mu, mode="dyadic") == star_norm(density_martingale(mu))
