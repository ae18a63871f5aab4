"""Tests for the command surface, file schemas and report determinism."""

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference import reference_json
from zygdist import approximation, cli, measures
from zygdist.approximation import dyadic_decompose
from zygdist.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VIOLATED,
    SCHEMA,
    InputError,
    build_parser,
    function_payload,
    load_function,
    load_measure,
    main,
    measure_payload,
)
from zygdist.functionals import default_eps_grid, density_profile
from zygdist.generators import hat_function
from zygdist.martingale import DyadicMartingale, average_growth
from zygdist.verification import verify_bdg


def run(tmp_path, *argv):
    """Run the CLI writing the report to a file; return (exit, payload)."""
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def write_function(tmp_path, name="f.json", **kwargs):
    path = tmp_path / name
    code = main(["generate", "--out", str(path), *sum(([k, v] for k, v in kwargs.items()), [])])
    assert code == EXIT_OK
    return str(path)


def write_values(tmp_path, values, name="f.json"):
    """Write a function file holding ``values`` (``2^depth + 1`` samples)."""
    path = tmp_path / name
    depth = (len(values) - 2).bit_length()
    payload = {"schema": SCHEMA, "kind": "function", "depth": depth, "values": values}
    path.write_text(json.dumps(payload))
    return str(path)


# every parent has size 2^-1073 and second difference 2^-1072 = 2e-323: at
# the level 1.5e-323 all qualify and must be kept, but eps / 2 rounds up to
# 2^-1073, which would drop them
_SUBNORMAL_PARENTS = [0.0, 0.0, 5e-324, 0.0, 0.0]


# ---------------------------------------------------------------------------
# schemas


def test_function_payload_roundtrip():
    f = hat_function(6)
    payload = function_payload(f, {"generator": "hat"})
    g = load_function(payload)
    assert np.array_equal(f.values, g.values)
    assert g.depth == 6 and g.left == 0


def test_measure_payload_roundtrip():
    masses = np.arange(16.0).reshape(4, 4) / 120.0
    payload = measure_payload(masses, 2, 2, {})
    mu = load_measure(payload)
    assert np.array_equal(mu.masses, masses)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda p: p.update(schema="other/9"), "schema"),
        (lambda p: p.update(kind="measure"), "kind"),
        (lambda p: p.update(depth=0), "depth"),
        (lambda p: p.update(values=[0.0, 1.0, 0.0]), "length"),
        (lambda p: p["values"].__setitem__(3, float("nan")), "finite"),
        (lambda p: p["values"].__setitem__(3, "x"), "values must be an array of numbers"),
        (lambda p: p["values"].__setitem__(3, [0.5, 0.1]), "array of numbers"),
        (lambda p: p.update(values=[[v] for v in p["values"]]), "array of numbers"),
        (lambda p: p["values"].__setitem__(3, 10**400), "array of numbers"),
        # explicit ids keep the ids above unique, so pytest does not number them
        pytest.param(
            lambda p: p["values"].__setitem__(3, "0.5"),
            "values must be an array of numbers",
            id="string",
        ),
        pytest.param(
            lambda p: p["values"].__setitem__(3, True),
            "values must be an array of numbers",
            id="bool",
        ),
        pytest.param(
            lambda p: p["values"].__setitem__(3, None),
            "values must be an array of numbers",
            id="null",
        ),
    ],
)
def test_function_file_invariants(mutate, message):
    payload = function_payload(hat_function(4), {})
    mutate(payload)
    with pytest.raises(InputError, match=message):
        load_function(payload)


@pytest.mark.parametrize("command", ["seminorm", "sobolev", "distance-ibmo"])
def test_span_not_power_of_two_rejected(tmp_path, capsys, command):
    payload = function_payload(hat_function(2), {})
    payload["values"] += [0.0] * 8  # span 3: 3 * 2^2 + 1 values
    path = tmp_path / "span3.json"
    path.write_text(json.dumps(payload))
    assert main([command, "--in", str(path)]) == EXIT_INPUT
    assert "power of two" in capsys.readouterr().err


def test_boolean_depth_rejected(tmp_path, capsys):
    payload = function_payload(hat_function(1), {})
    payload["depth"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(payload))
    assert main(["seminorm", "--in", str(path)]) == EXIT_INPUT
    assert "depth must be an integer" in capsys.readouterr().err


def test_measure_file_invariants():
    payload = measure_payload(np.full(8, 0.125), 1, 3, {})
    bad = dict(payload, masses=payload["masses"][:-1])
    with pytest.raises(InputError, match="length"):
        load_measure(bad)
    bad = dict(payload, dim="two")
    with pytest.raises(InputError, match="dim"):
        load_measure(bad)
    for masses in (
        [[0.5, 0.1], [0.5]] * 4,
        [0.125] * 7 + ["x"],
        [0.125] * 7 + ["0.125"],
        [0.125] * 7 + [True],
        [0.125] * 7 + [None],
    ):
        with pytest.raises(InputError, match="masses must be an array of numbers"):
            load_measure(dict(payload, masses=masses))
    # signed measures exist inside the library (`mu - kept`), not in files
    with pytest.raises(InputError, match="masses must be non-negative"):
        load_measure(dict(payload, masses=[0.25, -0.125] + [0.125] * 6))


# ---------------------------------------------------------------------------
# generate


def test_generate_deterministic(tmp_path):
    a = write_function(tmp_path, "a.json", **{"--kind": "random-jumps", "--depth": "8", "--seed": "5"})
    b = write_function(tmp_path, "b.json", **{"--kind": "random-jumps", "--depth": "8", "--seed": "5"})
    assert Path(a).read_text() == Path(b).read_text()


def test_generate_documents_oracles(tmp_path):
    path = write_function(
        tmp_path, **{"--kind": "random-jumps", "--depth": "8", "--delta": "1/2"}
    )
    payload = json.loads(Path(path).read_text())
    assert payload["metadata"]["expected_distance_threshold"] == 1.0
    assert payload["metadata"]["dyadic_seminorm"] == 1.0
    assert "classification" in payload["metadata"]


def test_generate_all_function_kinds(tmp_path):
    for kind in ["linear", "hat", "square", "weierstrass", "lacunary", "single-branch"]:
        path = write_function(tmp_path, f"{kind}.json", **{"--kind": kind, "--depth": "6"})
        payload = json.loads(Path(path).read_text())
        f = load_function(payload)
        assert f.depth == 6
        assert len(payload["values"]) == 65


def test_generate_cascade_measure(tmp_path):
    path = tmp_path / "mu.json"
    code = main(["generate", "--kind", "cascade", "--dim", "2", "--depth", "3",
                 "--seed", "4", "--out", str(path)])
    assert code == EXIT_OK
    mu = load_measure(json.loads(path.read_text()))
    assert mu.dim == 2 and mu.depth == 3
    assert mu.total == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("dim", [0, 3])
def test_measure_dim_outside_one_two_rejected(tmp_path, dim):
    code = main(["generate", "--kind", "cascade", "--dim", str(dim), "--depth", "2",
                 "--out", str(tmp_path / "mu.json")])
    assert code == EXIT_INPUT
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(measure_payload(np.full(1 << (2 * dim), 0.5), dim, 2, {})))
    assert main(["measure", "--in", str(path)]) == EXIT_INPUT


@pytest.mark.parametrize(
    "argv",
    [["--kind", "hat", "--depth", "25"], ["--kind", "cascade", "--dim", "2", "--depth", "13"]],
    ids=["hat-25", "cascade-2d-13"],
)
def test_generate_size_cap(tmp_path, monkeypatch, capsys, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("generator called past the size cap")

    monkeypatch.setattr("zygdist.cli.hat_function", unreachable)
    monkeypatch.setattr("zygdist.cli.cascade_measure", unreachable)
    out = tmp_path / "big.json"
    assert main(["generate", *argv, "--out", str(out)]) == EXIT_INPUT
    assert "size cap" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_bad_rational(tmp_path):
    code = main(["generate", "--kind", "lacunary", "--depth", "6",
                 "--coefficient", "abc", "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INPUT


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["generate", "--kind", "mystery", "--depth", "6"])


# parameters a generator refuses, or cannot represent as a float, exit 2
_BAD_PARAMETERS = {
    "delta-off-lattice": ["generate", "--kind", "random-jumps", "--delta", "1/3"],
    "delta-empty": ["generate", "--kind", "single-branch", "--delta="],
    "ratio-not-dyadic": ["generate", "--kind", "lacunary", "--ratio", "1/3"],
    "thetas-out-of-range": ["generate", "--kind", "cascade", "--thetas", "1,1/2"],
    "thetas-wrong-length": ["generate", "--kind", "cascade", "--thetas", "1/2"],
    "delta-too-large": ["generate", "--kind", "random-jumps", "--delta", "1" + "0" * 400],
    "levels-overflow": ["generate", "--kind", "weierstrass", "--levels", "1100"],
    # 2^n overflows to inf and inf * 0 is NaN at x = 0: no file is written
    "levels-nan-1022": ["generate", "--kind", "weierstrass", "--levels", "1022"],
    "levels-nan-1023": ["generate", "--kind", "weierstrass", "--levels", "1023"],
    "generate-seed-negative": ["generate", "--kind", "random-jumps", "--seed", "-1"],
    "generate-seed-2^64": ["generate", "--kind", "cascade", "--seed", str(2**64)],
    "verify-seed-negative": ["verify", "--suite", "bdg", "--seed", "-1"],
    "verify-seed-past-2^64": ["verify", "--suite", "bdg", "--seed", str(2**64 - 16)],
}


@pytest.mark.parametrize("argv", _BAD_PARAMETERS.values(), ids=_BAD_PARAMETERS)
def test_bad_generator_parameter_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    depth = ["--depth", "3"] if argv[0] == "generate" else []
    assert main([*argv, *depth, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64 - 1)])
def test_seedless_kind_takes_any_seed(tmp_path, seed):
    code, payload = run(tmp_path, "generate", "--kind", "hat", "--depth", "4", "--seed", seed)
    assert code == EXIT_OK
    assert payload["metadata"]["seed"] == int(seed)
    assert payload["values"] == [float(v) for v in hat_function(4).values]


_RATIONAL_TEXT = st.one_of(
    st.fractions().map(str), st.integers().map(str), st.text(max_size=6)
)
_GENERATOR_FLAGS = {
    "--delta": _RATIONAL_TEXT,
    "--ratio": _RATIONAL_TEXT,
    "--coefficient": _RATIONAL_TEXT,
    "--thetas": st.one_of(
        st.lists(st.fractions(), max_size=5).map(lambda ts: ",".join(map(str, ts))),
        st.text(max_size=6),
    ),
    "--seed": st.one_of(st.integers().map(str), st.text(max_size=4)),
    "--levels": st.one_of(st.integers(-4, 2000).map(str), st.integers().map(str)),
    "--dim": st.one_of(st.integers(-1, 4).map(str), st.text(max_size=2)),
}


def _kind_and_its_flags(kind):
    """Values for the options ``kind`` reads (another kind's options exit 2
    before any value is parsed; test_generate_takes_only_its_kinds_options)."""
    own = {
        flag: values for flag, values in _GENERATOR_FLAGS.items()
        if flag == "--seed" or kind in cli._KIND_FLAGS[flag][0]
    }
    return st.tuples(st.just(kind), st.fixed_dictionaries({}, optional=own))


@given(
    kind_flags=st.sampled_from(sorted(cli._CLASSIFICATIONS)).flatmap(_kind_and_its_flags),
    depth=st.integers(1, 5),
)
def test_generate_flags_exit_0_or_2(kind_flags, depth):
    kind, flags = kind_flags
    argv = ["generate", "--kind", kind, "--depth", str(depth), "--out", os.devnull]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a value its type cannot parse
        code = exc.code
    assert code in (EXIT_OK, EXIT_INPUT)


# a value of each generator option that its own kinds accept at depth 2
_KIND_FLAG_VALUES = {
    "--dim": "2", "--thetas": "1/4,1/8", "--levels": "3",
    "--coefficient": "1/4", "--ratio": "1/4", "--delta": "1/4",
}
_KIND_FLAG_PAIRS = [
    (kind, flag) for kind in sorted(cli._CLASSIFICATIONS) for flag in cli._KIND_FLAGS
]


@pytest.mark.parametrize(
    "kind, flag", _KIND_FLAG_PAIRS, ids=[f"{k}{f}" for k, f in _KIND_FLAG_PAIRS]
)
def test_generate_takes_only_its_kinds_options(tmp_path, capsys, kind, flag):
    out = tmp_path / "out.json"
    argv = ["generate", "--kind", kind, "--depth", "2", "--seed", "3", "--out", str(out)]
    assert main(argv) == EXIT_OK  # --seed is every kind's
    out.unlink()
    code = main([*argv, flag, _KIND_FLAG_VALUES[flag]])
    if kind in cli._KIND_FLAGS[flag][0]:
        assert code == EXIT_OK and out.exists()
    else:
        assert code == EXIT_INPUT and not out.exists()
        assert capsys.readouterr().err == f"error: --kind {kind} reads no {flag}\n"


def _readme_flags():
    """The README's per-command flag table, and each generator kind's options
    as its "Generator kinds" sentence lists them."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    table = text.split("| command         | flags besides `--out`")[1]
    rows = re.findall(r"^\| `([a-z-]+)` +\|(.*)\|$", table.split("\n\n")[0], re.M)
    commands = {name: set(re.findall(r"`(--[a-z-]+)`", flags)) for name, flags in rows}
    sentence = text.split("Generator kinds: ")[1].split(". ")[0]
    kinds = {
        kind: set(re.findall(r"`(--[a-z-]+)`", options))
        for kind, options in re.findall(r"`([a-z-]+)`(?: \(([^)]*)\))?", sentence)
    }
    return commands, kinds


def test_readme_flag_tables_match_the_parser():
    commands, kinds = _readme_flags()
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help", "--out"}
        for name, p in sub.choices.items()
    }
    # every command but generate, whose output is an input file, takes --timing
    assert [name for name, flags in parsed.items() if "--timing" not in flags] == ["generate"]
    assert kinds == {
        kind: {f for f, (readers, _) in cli._KIND_FLAGS.items() if kind in readers}
        for kind in cli._CLASSIFICATIONS
    }
    commands["generate"] |= set().union(*kinds.values())
    assert commands == parsed


# ---------------------------------------------------------------------------
# commands


def test_seminorm_linear_is_zero(tmp_path):
    path = write_function(tmp_path, **{"--kind": "linear", "--depth": "8"})
    code, report = run(tmp_path, "seminorm", "--in", path)
    assert code == EXIT_OK
    values = dict(report["tables"]["seminorms"]["rows"])
    assert values["dyadic_zygmund"] == 0.0
    assert values["grid_zygmund"] == 0.0


@pytest.mark.parametrize(
    "values, depths, grid, threshold",
    [(None, [6, 10], "auto", 0.125), (_SUBNORMAL_PARENTS, [1, 2], "1.5e-323,1", 1.0)],
    ids=["random-jumps", "subnormal"],
)
def test_distance_estimate_hits_oracle(tmp_path, values, depths, grid, threshold):
    if values is None:
        path = write_function(
            tmp_path, **{"--kind": "random-jumps", "--depth": "10", "--delta": "1/16"}
        )
    else:
        path = write_values(tmp_path, values)
    code, report = run(tmp_path, "distance-ibmo", "--in", path,
                       "--depths", ",".join(map(str, depths)), "--eps-grid", grid)
    assert code == EXIT_OK
    assert report["estimates"]["threshold"]["value"] == threshold
    method = report["estimates"]["threshold"]["method"]
    assert method["tau"] == 0.1 and method["depths"] == depths
    for eps, depth, value in report["tables"]["density_profile"]["rows"]:
        assert value == (depth if eps < threshold else 0.0)
    # a parent the density counts is kept, so the distance is within its level
    for eps, distance in report["tables"]["measured_distance"]["rows"]:
        assert distance <= eps


def test_distance_inconclusive_exit_code(tmp_path):
    path = write_function(tmp_path, **{"--kind": "lacunary", "--depth": "10"})
    code, report = run(tmp_path, "distance-ibmo", "--in", path,
                       "--eps-grid", "0.1,0.2", "--depths", "6,10")
    assert code == EXIT_INCONCLUSIVE
    assert report["estimates"]["threshold"]["value"] is None
    assert report["tables"]["density_profile"]["rows"]  # profiles still emitted


def test_distance_interpolation_tag(tmp_path):
    path = write_function(
        tmp_path, **{"--kind": "random-jumps", "--depth": "10", "--delta": "1/16"}
    )
    code, report = run(tmp_path, "distance-ibmo", "--in", path,
                       "--depths", "6,10", "--eps-grid", "0.0625,0.25", "--interpolate")
    assert code == EXIT_OK
    value = report["estimates"]["threshold"]["value"]
    assert value == pytest.approx((0.0625 * 0.25) ** 0.5)
    assert "log-midpoint" in report["estimates"]["threshold"]["method"]["rule"]


@pytest.mark.parametrize(
    "values, grid",
    [(None, "0.25,0.5,1.0"), (_SUBNORMAL_PARENTS, "1.5e-323")],
    ids=["lacunary", "subnormal"],
)
def test_decompose_respects_requested_levels(tmp_path, values, grid):
    if values is None:
        path = write_function(tmp_path, **{"--kind": "lacunary", "--depth": "8"})
    else:
        path = write_values(tmp_path, values)
    code, report = run(tmp_path, "decompose", "--in", path, "--eps-grid", grid)
    assert code == EXIT_OK
    rows = report["tables"]["decomposition"]["rows"]
    assert len(rows) == len(grid.split(","))
    for eps, small, _star, _bmo in rows:
        assert small <= eps


# 2^-1071 in the middle of a depth-1 file: window jumps of size 2^-1073 to
# 2^-1070.  At 3.5e-323 = 7 * 2^-1074 and 7.4e-323 = 15 * 2^-1074, eps / 2
# rounds up onto the size 2^-1072, resp. 2^-1071, which must be kept
@pytest.mark.parametrize(
    "values, grid",
    [
        (None, "0.5,2.0"),
        ([0.0, 2.0**-1071, 0.0], "3.5e-323"),
        ([0.0, 2.0**-1071, 0.0], "7.4e-323"),
    ],
    ids=["hat", "subnormal-7", "subnormal-15"],
)
def test_sobolev_window_bounds(tmp_path, values, grid):
    if values is None:
        path = write_function(tmp_path, **{"--kind": "hat", "--depth": "8"})
    else:
        path = write_values(tmp_path, values)
    code, report = run(tmp_path, "sobolev", "--in", path, "--eps-grid", grid)
    assert code == EXIT_OK
    rows = report["tables"]["window_decomposition"]["rows"]
    assert len(rows) == len(grid.split(","))
    for eps, window_max, _small in rows:
        assert window_max <= eps


def test_strichartz_tables(tmp_path):
    path = write_function(tmp_path, **{"--kind": "hat", "--depth": "8"})
    code, report = run(tmp_path, "strichartz", "--in", path,
                       "--depths", "4,8", "--eps-grid", "0.5,1.0")
    assert code == EXIT_OK
    tables = report["tables"]
    assert len(tables["tree_density"]["rows"]) == 4
    assert len(tables["cone_count_l2"]["rows"]) == 4
    assert [d for d, _ in tables["box_energy"]["rows"]] == [4, 8]


def test_measure_command(tmp_path):
    mu_path = tmp_path / "mu.json"
    assert main(["generate", "--kind", "cascade", "--dim", "1", "--depth", "6",
                 "--seed", "2", "--out", str(mu_path)]) == EXIT_OK
    code, report = run(tmp_path, "measure", "--in", str(mu_path))
    assert code == EXIT_OK
    for eps, residual in report["tables"]["truncation"]["rows"]:
        assert residual <= eps
    norms = dict(report["tables"]["norms"]["rows"])
    assert norms["dyadic_zygmund"] > 0.0


def test_measure_exits_on_masses_off_the_binary_lattice(tmp_path, capsys):
    # cascade masses divided by 3 are off the binary lattice: the residual of
    # a truncation is formed by float subtraction, and at this level its norm
    # exceeds eps by one ulp; the `<=` check turns that into exit 2
    path = tmp_path / "mu.json"
    argv = ["--kind", "cascade", "--dim", "1", "--depth", "5", "--seed", "11"]
    assert main(["generate", *argv, "--out", str(path)]) == EXIT_OK
    payload = json.loads(path.read_text())
    payload["masses"] = [m / 3 for m in payload["masses"]]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["measure", "--in", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: residual deviation 0.24894205729166666 exceeds requested level "
        "0.24894205729166663\n"
    )


def test_measure_exits_on_2d_masses_off_the_binary_lattice(tmp_path, capsys):
    # the 2-d cascade at depth 5, seed 11, divided by 3: the certificate
    # refuses it, and the truncation overshoots at the same level as in 1-d
    path = tmp_path / "mu.json"
    argv = ["--kind", "cascade", "--dim", "2", "--depth", "5", "--seed", "11"]
    assert main(["generate", *argv, "--out", str(path)]) == EXIT_OK
    payload = json.loads(path.read_text())
    payload["masses"] = [m / 3 for m in payload["masses"]]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["measure", "--in", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: residual deviation 0.24894205729166666 exceeds requested level "
        "0.24894205729166663\n"
    )


def test_decompose_exits_where_integrate_rounds_subnormal_slopes(tmp_path, capsys):
    # kept slopes times the spacing 2^-4 fall off the 2^-1074 lattice and
    # `integrate` rounds them: the rough part ends at 5e-324, not 0.  The
    # identity still holds (subnormal subtraction is exact), so the level
    # check is the one that exits, at eps = 27 * 2^-1074
    ks = [0, -2, -3, -1, 0, 4, 7, -7, 7, 1, -2, 3, 1, -4, -3, 4, 0]
    path = write_values(tmp_path, [k * 2.0**-1074 for k in ks])
    f = load_function(json.loads(Path(path).read_text()))
    (parts,) = dyadic_decompose(f, [1.33e-322])
    assert parts.rough.values[-1] == 5e-324
    assert np.array_equal(parts.rough.values + parts.small.values, f.values)
    capsys.readouterr()
    assert main(["decompose", "--in", path, "--eps-grid", "1.33e-322"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: small-part seminorm 1.6e-322 exceeds requested level 1.33e-322\n"
    )


@pytest.mark.parametrize(
    "depth, seed, divisor, builds",
    [("8", "2", 1, 1), ("14", "7", 1, 1), ("14", "7", 3, 1 + 21)],
    ids=["certified", "certified-14", "refused"],
)
def test_measure_builds_one_density_martingale(
    tmp_path, monkeypatch, depth, seed, divisor, builds
):
    mu_path = tmp_path / "mu.json"
    assert main(["generate", "--kind", "cascade", "--dim", "1", "--depth", depth,
                 "--seed", seed, "--out", str(mu_path)]) == EXIT_OK
    payload = json.loads(mu_path.read_text())
    payload["masses"] = [m / divisor for m in payload["masses"]]
    mu_path.write_text(json.dumps(payload))
    build = measures.density_martingale
    made = []

    def counted(mu):
        made.append(mu)
        return build(mu)

    for module in (cli, measures):
        monkeypatch.setattr(module, "density_martingale", counted)
    code, report = run(tmp_path, "measure", "--in", str(mu_path))
    assert code == EXIT_OK
    assert len(report["tables"]["truncation"]["rows"]) == 23
    # one for the norm, tree densities and residual table; a refused input
    # (masses divided by 3) adds one per distinct count of dropped parents
    # (21 of 23 levels here)
    assert len(made) == builds


def test_distance_reads_one_jump_pass(tmp_path, monkeypatch):
    # On a certified input the measured distances come from one sorted table
    # of sibling pairs: no truncation, and each generation's jumps are taken
    # once, for the one parent-size table that the default grid, the
    # residual table and the tree densities share.
    N = 10
    path = write_function(tmp_path, **{"--kind": "random-jumps", "--depth": str(N)})
    jumps = DyadicMartingale.jumps
    calls = []

    def counted(S, n):
        calls.append(n)
        return jumps(S, n)

    def refuse(*args):
        raise AssertionError("truncation on a certified input")

    monkeypatch.setattr(DyadicMartingale, "jumps", counted)
    monkeypatch.setattr(approximation, "truncate_jumps", refuse)
    code, report = run(tmp_path, "distance-ibmo", "--in", path)
    assert code == EXIT_OK
    assert len(report["tables"]["measured_distance"]["rows"]) > 1
    assert sorted(calls) == list(range(1, N + 1))

    # `strichartz` reads its default grid off the tables of its tree
    # densities (default depths down to N), not off a star-norm pass
    calls.clear()
    code, _ = run(tmp_path, "strichartz", "--in", path)
    assert code == EXIT_OK
    assert sorted(calls) == list(range(1, N + 1))

    # the tree densities take each generation's jumps once, not once per
    # (eps, depth): all N tables, as for the default grid
    S = average_growth(load_function(json.loads(Path(path).read_text())))
    grid = default_eps_grid(S)
    calls.clear()
    profile = density_profile(S, grid, [6, 8])
    assert len(profile.values) == 2 and len(profile.values[0]) == len(grid) > 1
    assert sorted(calls) == list(range(1, N + 1))


def test_verify_suites(tmp_path):
    for suite in ["bdg", "predecessor", "consistency"]:
        code, report = run(tmp_path, "verify", "--suite", suite, "--seed", "3")
        assert code == EXIT_OK
        assert report["passed"] is True


def test_verify_lemmas_reports_factors(tmp_path):
    code, report = run(tmp_path, "verify", "--suite", "lemmas", "--seed", "1")
    assert code == EXIT_OK
    ratio_reports = report["ratio_reports"]
    assert len(ratio_reports) == 24
    for entry in ratio_reports[:-1]:  # the exhaustive bound carries no factor
        assert entry["stability_factor"] <= 1.5


# ---------------------------------------------------------------------------
# report invariants


def test_reports_byte_identical(tmp_path):
    path = write_function(tmp_path, **{"--kind": "random-jumps", "--depth": "8"})
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["distance-ibmo", "--in", path, "--depths", "4,8"]
    assert main([*argv, "--out", str(out_a)]) == EXIT_OK
    assert main([*argv, "--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "8", "--out", str(out_b)])
    assert exc.value.code == 2


def test_timing_flag_adds_wall_time(tmp_path):
    path = write_function(tmp_path, **{"--kind": "hat", "--depth": "6"})
    code, report = run(tmp_path, "seminorm", "--in", path, "--timing")
    assert code == EXIT_OK
    assert report["wall_time_s"] >= 0.0
    code, report = run(tmp_path, "seminorm", "--in", path)
    assert "wall_time_s" not in report


def test_report_is_schema_versioned_and_sorted(tmp_path):
    path = write_function(tmp_path, **{"--kind": "hat", "--depth": "6"})
    out = tmp_path / "r.json"
    assert main(["seminorm", "--in", path, "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    report = json.loads(text)
    assert report["schema"] == SCHEMA
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert report["input_sha256"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_the_digest_is_taken_here_when_no_thread_starts(tmp_path, monkeypatch):
    starts = []

    def refuse(thread):
        starts.append(thread)
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    docs = Path(__file__).resolve().parent.parent / "docs"
    out = tmp_path / "report.json"
    argv = ["distance-ibmo", "--depths", "6,7,8", "--in", str(docs / "golden-input.json")]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert len(starts) == 1
    assert out.read_bytes() == (docs / "golden-report.json").read_bytes()


# ---------------------------------------------------------------------------
# report encoding: the writer against the standard library's bytes


@dataclass
class _Witness:
    name: str
    values: list


# floats whose reprs take each form: signed zero, subnormal, exponent
# notation both ways and a short decimal
_FLOATS = [-0.0, 5e-324, 1e16, 1e-7, 0.1]
_FLOAT = st.sampled_from(_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
_TEXT = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7fé€😀') | st.characters())


def _plain(strategy):
    """Values that the standard library encodes as they are."""
    return strategy.map(lambda value: (value, value))


# long lists repeat a few floats, so the writer's table of distinct values
# holds fewer entries than the list; ints among them keep the int form
_LONG = cli._TABLE_MIN
_LONG_FLOATS = st.lists(st.sampled_from(_FLOATS) | _FLOAT, min_size=_LONG, max_size=200)
_LONG_MIXED = st.lists(st.sampled_from(_FLOATS) | st.integers(-3, 3), min_size=_LONG, max_size=100)


def _matrix(shape):
    """A 2-d float64 array of ``shape`` and its rows as lists."""
    rows, cols = shape

    def pair(xs):
        return np.array(xs).reshape(shape), [xs[r * cols : (r + 1) * cols] for r in range(rows)]

    cells = st.lists(st.sampled_from(_FLOATS), min_size=rows * cols, max_size=rows * cols)
    return cells.map(pair)


# (value, what the standard library is given for it)
_LEAVES = st.one_of(
    _plain(st.none() | st.booleans() | st.integers(-(2**80), 2**80) | _FLOAT | _TEXT),
    _plain(_LONG_FLOATS | _LONG_MIXED | st.just([])),
    _plain(st.just({})),
    _FLOAT.map(lambda x: (np.float64(x), x)),
    st.integers(-(2**63), 2**63 - 1).map(lambda i: (np.int64(i), i)),
    st.booleans().map(lambda b: (np.bool_(b), b)),
    (_LONG_FLOATS | st.lists(_FLOAT, max_size=8)).map(lambda xs: (np.array(xs), xs)),
    st.tuples(st.integers(0, 3), st.integers(0, 80)).flatmap(_matrix),
    st.builds(
        lambda name, xs: (_Witness(name, xs), {"name": name, "values": xs}),
        _TEXT,
        st.lists(_FLOAT, max_size=4),
    ),
)


def _containers(children):
    def unzip(pairs):
        return [value for value, _ in pairs], [plain for _, plain in pairs]

    def unzip_dict(pairs):
        return {k: v for k, (v, _) in pairs.items()}, {k: p for k, (_, p) in pairs.items()}

    return st.one_of(
        st.lists(children, max_size=4).map(unzip),
        st.lists(children, max_size=4).map(unzip).map(lambda vp: (tuple(vp[0]), vp[1])),
        st.dictionaries(_TEXT, children, max_size=4).map(unzip_dict),
    )


@given(case=st.recursive(_LEAVES, _containers, max_leaves=10))
@example(case=([0.0, -0.0] * _LONG, [0.0, -0.0] * _LONG))
def test_writer_bytes_are_the_reference_encoding(case):
    value, plain = case
    assert cli._serialise(value) == reference_json(plain)


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "zygdist/1", "kind": "function", "depth": 3, "values": [1, 2]}')
    assert main(["seminorm", "--in", str(bad)]) == EXIT_INPUT
    assert "values length" in capsys.readouterr().err


def test_sobolev_rejects_noncompact_input(tmp_path):
    path = write_function(tmp_path, **{"--kind": "weierstrass", "--depth": "6"})
    assert main(["sobolev", "--in", path, "--eps-grid", "1.0"]) == EXIT_INPUT
    # a zero seminorm makes the default grid [0.0]: still rejected, not an empty table
    path = write_function(tmp_path, "linear.json", **{"--kind": "linear", "--depth": "4"})
    assert main(["sobolev", "--in", path]) == EXIT_INPUT
    assert main(["sobolev", "--in", path, "--eps-grid", "1.0"]) == EXIT_INPUT


@pytest.mark.parametrize(
    "values, grid",
    [([0, 0.5, 0, 0.25, 0], None), ([0, 0.5, 0, 0.25, 0], "0"), ([0, 0, 0, 0, 0], None)],
    ids=["default-grid", "zero-grid", "all-zero"],
)
def test_sobolev_refuses_a_span_two_file_under_every_grid(tmp_path, capsys, values, grid):
    # depth 1 with five samples spans [0, 2]: refused whether or not the
    # grid leaves a positive level to work (the all-zero grid is [0.0])
    path = tmp_path / "span2.json"
    payload = {"schema": SCHEMA, "kind": "function", "depth": 1, "values": values}
    path.write_text(json.dumps(payload))
    argv = ["sobolev", "--in", str(path)] + (["--eps-grid", grid] if grid else [])
    assert main(argv) == EXIT_INPUT
    message = "decomposition expects a function on the unit interval"
    assert capsys.readouterr().err == f"error: {message}\n"


_REFUSED = "error: input outside the class kernel's exactness certificate: its sums "


@pytest.mark.parametrize("depth, bits", [(6, 74), (9, 82)])
def test_sobolev_exits_on_inputs_off_the_binary_lattice(
    tmp_path, capsys, monkeypatch, depth, bits
):
    # random-jumps values divided by 3 are off the binary lattice: the class
    # kernel's certificate refuses them before any kernel runs, and names
    # the bits their sums would need
    def refuse(*args):
        raise AssertionError("class kernel run outside its certificate")

    monkeypatch.setattr(approximation, "_class_kernel", refuse)
    path = write_function(
        tmp_path, **{"--kind": "random-jumps", "--depth": str(depth), "--seed": "0"}
    )
    payload = json.loads((tmp_path / "f.json").read_text())
    payload["values"] = [v / 3 for v in payload["values"]]
    (tmp_path / "f.json").write_text(json.dumps(payload))
    capsys.readouterr()
    for grid in ("auto", "0"):  # refused even with no positive level to work
        assert main(["sobolev", "--in", path, "--eps-grid", grid]) == EXIT_INPUT
        assert capsys.readouterr().err == f"{_REFUSED}need {bits} bits, float64 has 53\n"
    for command in ("decompose", "distance-ibmo"):
        assert run(tmp_path, command, "--in", path)[0] == EXIT_OK


def test_decompose_exits_on_weierstrass_files(tmp_path, capsys):
    # Weierstrass samples are off the binary lattice: from depth 3 on,
    # `rough + small` misses the input by rounding and the exact identity
    # check of `decompose` exits 2, while `distance-ibmo` reports.
    for depth in range(3, 15):
        path = write_function(
            tmp_path, **{"--kind": "weierstrass", "--depth": str(depth), "--seed": "7"}
        )
        capsys.readouterr()
        assert main(["decompose", "--in", path]) == EXIT_INPUT
        message = "decomposition failed to reproduce the input exactly"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run(tmp_path, "distance-ibmo", "--in", path)[0] == EXIT_OK


def test_stability_ratio_growing_from_zero_is_null(tmp_path):
    # at depth 3 the shallow Weierstrass profile is 0 where the deep one is
    # not: the ratio is infinite, which the report writes as null
    path = write_function(tmp_path, **{"--kind": "weierstrass", "--depth": "3", "--seed": "7"})
    code, report = run(tmp_path, "distance-ibmo", "--in", path)
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
    null_rows = [stable for _, ratio, stable in report["tables"]["stability"]["rows"]
                 if ratio is None]
    assert null_rows and not any(null_rows)


@pytest.mark.parametrize(
    "values, why",
    [
        ([0, 1e308, -1e308, 1e308, 0], "leave float64's exponent range"),
        ([0, 5e-324, 0, -5e-324, 0], "leave float64's exponent range"),
        ([0, 1e300, 5e-324, 1, 0], "need 2079 bits, float64 has 53"),
    ],
    ids=["overflow", "subnormal", "both-ends"],
)
def test_sobolev_refuses_extreme_magnitudes_up_front(
    tmp_path, capsys, monkeypatch, values, why
):
    # overflowing slopes and subnormal quanta fail the exactness
    # certificate, so `sobolev` exits before any kernel runs
    def refuse(*args):
        raise AssertionError("class kernel run outside its certificate")

    monkeypatch.setattr(approximation, "_class_kernel", refuse)
    path = tmp_path / "extreme.json"
    payload = {"schema": SCHEMA, "kind": "function", "depth": 2, "values": values}
    path.write_text(json.dumps(payload))
    assert main(["sobolev", "--in", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"{_REFUSED}{why}\n"


def test_failing_verify_writes_its_witnesses_and_exits_4(tmp_path, monkeypatch):
    # a violated estimate is a finding, not bad input: the report keeps the
    # failing suite's numbers and says "passed": false
    def out_of_range(seed):
        report = verify_bdg(seed=seed)
        report["in_range"] = False
        return report

    monkeypatch.setattr(cli, "verify_bdg", out_of_range)
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "bdg", "--seed", "3", "--out", str(out)]) == EXIT_VIOLATED
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert report["bdg"] == {**verify_bdg(seed=3), "in_range": False}
    assert report["bdg"]["count"] == 100


@pytest.mark.parametrize("tau", ["-0.1", "nan"])
def test_tau_must_be_non_negative(tmp_path, tau):
    path = write_function(tmp_path, **{"--kind": "hat", "--depth": "6"})
    assert main(["distance-ibmo", "--in", path, "--tau", tau]) == EXIT_INPUT
    assert main(["verify", "--suite", "bdg", "--tau", tau]) == EXIT_INPUT
    with pytest.raises(SystemExit) as exc:
        main(["seminorm", "--in", path, "--tau", tau])
    assert exc.value.code == 2
    code = main(["distance-ibmo", "--in", path, "--tau", "0", "--out", str(tmp_path / "r.json")])
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE)


@pytest.mark.parametrize(
    "command", ["strichartz", "distance-ibmo", "decompose", "sobolev", "measure", "verify"]
)
def test_non_finite_levels_exit_2_before_any_work(capsys, monkeypatch, command):
    # inf, and 1e400 which parses to inf, are refused before the input is
    # read or a suite runs, with a message that names the flag
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for name in (
        "read_input",
        "run_lemma_suite",
        "verify_predecessor_measure",
        "verify_bdg",
        "verify_strichartz_consistency",
    ):
        monkeypatch.setattr(cli, name, no_work)
    _, _, loads, flags = next(entry for entry in cli._COMMANDS if entry[0] == command)
    head = [command, "--in", "unread.json"] if loads else [command]
    values = {"--eps-grid": ["inf", "1e400", "0.125,inf"], "--tau": ["inf", "1e400"]}
    checked = 0
    for flag in ("--eps-grid", "--tau"):
        for value in values[flag] if flag in flags else ():
            assert main([*head, flag, value]) == EXIT_INPUT
            assert capsys.readouterr().err.startswith(f"error: {flag} ")
            checked += 1
    assert checked  # every command here reads one of the two flags


# argv that parses, per subcommand, and the flags it does not read (28 pairs)
_ARGV = {
    "seminorm": ["seminorm", "--in", "f.json"],
    "strichartz": ["strichartz", "--in", "f.json"],
    "distance-ibmo": ["distance-ibmo", "--in", "f.json"],
    "decompose": ["decompose", "--in", "f.json"],
    "sobolev": ["sobolev", "--in", "f.json"],
    "measure": ["measure", "--in", "mu.json"],
    "verify": ["verify"],
    "generate": ["generate", "--kind", "hat", "--depth", "4"],
}
_UNREAD = {
    "seminorm": ["--seed", "--depths", "--eps-grid", "--tau", "--interpolate"],
    "strichartz": ["--seed", "--tau", "--interpolate"],
    "distance-ibmo": ["--seed"],
    "decompose": ["--seed", "--depths", "--tau", "--interpolate"],
    "sobolev": ["--seed", "--depths", "--tau", "--interpolate"],
    "measure": ["--seed", "--tau", "--interpolate"],
    "verify": ["--depths", "--eps-grid", "--interpolate"],
    "generate": ["--depths", "--eps-grid", "--tau", "--interpolate", "--timing"],
}
_FLAG_VALUES = {"--seed": ["3"], "--depths": ["2,4"], "--eps-grid": ["0.5"], "--tau": ["0.2"]}
_UNREAD_PAIRS = [(command, flag) for command, flags in _UNREAD.items() for flag in flags]


@pytest.mark.parametrize(
    "command, flag", _UNREAD_PAIRS, ids=[f"{c}{f}" for c, f in _UNREAD_PAIRS]
)
def test_subcommand_rejects_flag_it_does_not_read(command, flag):
    argv = _ARGV[command]
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, flag, *_FLAG_VALUES.get(flag, [])])
    assert exc.value.code == 2


def test_depths_beyond_input_rejected(tmp_path):
    path = write_function(tmp_path, **{"--kind": "hat", "--depth": "6"})
    assert main(["strichartz", "--in", path, "--depths", "4,12"]) == EXIT_INPUT


@pytest.mark.parametrize("command", ["strichartz", "distance-ibmo", "measure"])
@pytest.mark.parametrize(
    "depths, message",
    [
        ("", "depths must be positive integers"),
        ("0,2", "depths must be positive integers"),
        ("2,7", "requested depth exceeds the input depth"),
    ],
    ids=["empty", "zero", "too-deep"],
)
def test_one_depth_rule(tmp_path, capsys, command, depths, message):
    kind = "cascade" if command == "measure" else "hat"
    path = write_function(tmp_path, **{"--kind": kind, "--depth": "6"})
    assert main([command, "--in", path, f"--depths={depths}"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "kind, depth, argv",
    [("random-jumps", "9", ["--depths", "9"]), ("hat", "1", [])],
    ids=["one-depth-listed", "depth-1-default"],
)
def test_threshold_needs_two_depths(tmp_path, capsys, kind, depth, argv):
    # one depth has no growth to measure: every level would read as stable,
    # and the threshold as the bottom of the level grid
    path = write_function(tmp_path, **{"--kind": kind, "--depth": depth})
    capsys.readouterr()
    assert main(["distance-ibmo", "--in", path, *argv]) == EXIT_INPUT
    message = "error: distance-ibmo compares at least two distinct depths\n"
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("command, kind", [("strichartz", "hat"), ("measure", "cascade")])
def test_default_depths_never_repeat(tmp_path, command, kind):
    path = write_function(tmp_path, **{"--kind": kind, "--depth": "1"})
    code, report = run(tmp_path, command, "--in", path)
    assert code == EXIT_OK
    tree = report["tables"]["tree_density"]
    assert tree["method"]["depths"] == [1]
    assert len({e for e, _, _ in tree["rows"]}) == len(tree["rows"])  # one row per level


@pytest.mark.parametrize(
    "command, kind", [("seminorm", "function"), ("measure", "measure")]
)
def test_main_resolves_the_loader_when_called(tmp_path, monkeypatch, command, kind):
    # the benchmark's span tracer swaps the loaders in this module's namespace
    path = write_function(
        tmp_path, **{"--kind": "cascade" if kind == "measure" else "hat", "--depth": "4"}
    )
    original = getattr(cli, f"load_{kind}")
    seen = []

    def loader(payload):
        seen.append(payload["kind"])
        return original(payload)

    monkeypatch.setattr(cli, f"load_{kind}", loader)
    code, _ = run(tmp_path, command, "--in", path)
    assert code == EXIT_OK
    assert seen == [kind]


# ---------------------------------------------------------------------------
# hostile input files

_FUNCTION = {"schema": SCHEMA, "kind": "function", "depth": 1}
_MEASURE = {"schema": SCHEMA, "kind": "measure", "dim": 1, "depth": 1}
_STRING_VALUES = dict(_FUNCTION, values=[0, "x", 0])
_NESTED_MASSES = dict(_MEASURE, masses=[[0.5, 0.1], [0.5]])
_HUGE_VALUES = dict(_FUNCTION, depth=2, values=[0, 1e308, -1e308, 1e308, 0])
_NEGATIVE_MASSES = dict(_MEASURE, depth=2, masses=[0.5, -0.25, 0.5, 0.25])
# finite masses whose densities (mass times 2^(dim*depth)) overflow to inf
_HUGE_MASSES = dict(
    _MEASURE, depth=6, masses=[1e308 if i in (3, 40) else 0.0 for i in range(64)]
)


def _write_payload(tmp_path, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("command", ["seminorm", "strichartz", "distance-ibmo"])
def test_report_that_overflows_exits_2_and_writes_nothing(tmp_path, capsys, command):
    # finite samples whose differences overflow to inf, which JSON cannot carry
    out = tmp_path / "report.json"
    argv = [command, "--in", _write_payload(tmp_path, _HUGE_VALUES), "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert "report value is not finite" in capsys.readouterr().err
    assert not out.exists()


# a long float list (written from its table of distinct values) and a float64
# array, each not finite at a later position, and a bare number
_NON_FINITE = {
    "list": [0.25] * (_LONG + 8) + [math.nan, 0.25],
    "array": np.concatenate([np.full(_LONG + 8, -0.0), [math.inf]]),
    "scalar": -math.inf,
}


@pytest.mark.parametrize("witness", _NON_FINITE.values(), ids=_NON_FINITE)
def test_non_finite_witness_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, witness):
    monkeypatch.setattr(cli, "verify_bdg", lambda seed: {"in_range": True, "witness": witness})
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "bdg", "--out", str(out)]) == EXIT_INPUT
    assert "report value is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["seminorm", "strichartz", "distance-ibmo", "decompose"])
def test_overflowing_input_prints_one_error_line(tmp_path, capsys, command):
    # the overflow inside the kernels raises no NumPy warning; the report
    # check (or decompose's own check) gives the single exit-2 message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--in", _write_payload(tmp_path, _HUGE_VALUES)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "payload, message",
    [
        (_HUGE_MASSES, "masses overflow"),
        # one finite mass whose density alone overflows
        (dict(_MEASURE, depth=2, masses=[0.0, 1e308, 0.0, 0.0]), "masses overflow"),
    ],
)
def test_measure_whose_density_overflows_exits_2(tmp_path, capsys, payload, message):
    # inf - inf in the density jumps would be NaN, which the norms' maxima
    # drop: the report would read norms of 0.0
    with pytest.raises(InputError, match=message):
        load_measure(payload)
    out = tmp_path / "report.json"
    argv = ["measure", "--in", _write_payload(tmp_path, payload), "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: masses overflow") and err.count("\n") == 1
    assert not out.exists()


def test_measure_just_below_the_density_limit_loads():
    # total * 2^(dim*depth) is finite: the file loads and `measure` may run it
    masses = [0.0, 1e308 / 4, 0.0, 0.0]
    assert load_measure(dict(_MEASURE, depth=2, masses=masses)).total == 1e308 / 4


_ENTRY = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.just(10**400),
    st.text(max_size=3),
    st.lists(st.floats(-1.0, 1.0), max_size=2),
    st.booleans(),
    st.none(),
)
_COMMAND_KIND = {"seminorm": "function", "decompose": "function", "measure": "measure"}


def _mostly(good, hostile):
    """``good`` four draws in five, so most files get past the first check."""
    return st.integers(0, 4).flatmap(lambda i: good if i else hostile)


@st.composite
def _input_files(draw):
    """(command, payload): small files whose every field may be a wrong type,
    a wrong length or hold a hostile entry."""
    command = draw(st.sampled_from(sorted(_COMMAND_KIND)))
    kind = draw(_mostly(st.just(_COMMAND_KIND[command]), st.sampled_from(["function", "measure", "x"])))
    depth = draw(_mostly(st.integers(1, 3), st.one_of(st.integers(-1, 5), st.just(True))))
    size = depth if cli._is_int(depth) and 1 <= depth <= 3 else 2
    payload = {"schema": SCHEMA, "kind": kind, "depth": depth}
    if kind == "measure":
        dim = draw(_mostly(st.sampled_from([1, 2]), st.sampled_from([0, 3, "1", 1.0])))
        payload["dim"] = dim
        length = 1 << ((dim if cli._is_int(dim) and dim in (1, 2) else 1) * size)
        number = st.floats(0.0, 1e300)
    else:
        length = (1 << size) + 1
        number = st.floats(-1e300, 1e300)
        payload["left"] = draw(_mostly(st.integers(-3, 3), st.one_of(st.integers(), st.floats())))
    length = draw(_mostly(st.just(length), st.integers(0, 9)))
    entries = _mostly(number, _ENTRY)
    payload["values" if kind == "function" else "masses"] = draw(
        _mostly(
            st.lists(number, min_size=length, max_size=length),
            st.lists(entries, min_size=length, max_size=length),
        )
    )
    return command, payload


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=_input_files())
@example(case=("seminorm", _STRING_VALUES))
@example(case=("measure", _NESTED_MASSES))
@example(case=("seminorm", _HUGE_VALUES))
@example(case=("measure", _NEGATIVE_MASSES))
@example(case=("measure", _HUGE_MASSES))
def test_input_files_exit_0_2_or_3(tmp_path, case):
    command, payload = case
    for load in (load_function, load_measure):
        with contextlib.suppress(InputError):
            load(payload)
    code = main([command, "--in", _write_payload(tmp_path, payload), "--out", os.devnull])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_INCONCLUSIVE)
