"""Command-line interface: file ingestion, generators, and report emission.

This is the only module with side effects.  Inputs are self-describing JSON
documents; every command emits a schema-versioned JSON report whose numbers
all carry their method parameters (grid, depths, stabilisation threshold).
Reports are byte-identical for identical input and seed: wall-clock time is
only included when explicitly requested.

Exit codes: 0 success; 2 malformed input or violated invariant; 3 threshold
estimate inconclusive at the requested depths (profiles are still emitted).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, is_dataclass
from fractions import Fraction

import numpy as np

from zygdist.approximation import (
    continuous_decompose,
    distance_report,
    dyadic_decompose,
)
from zygdist.functionals import (
    _geometric_grid,
    box_square_energy,
    cone_levelset_count,
    default_eps_grid,
    density_profile,
    zygmund_seminorm,
)
from zygdist.generators import (
    cascade_measure,
    hat_function,
    lacunary_function,
    linear_function,
    parabola_function,
    random_jump_martingale,
    single_branch_martingale,
    weierstrass_function,
)
from zygdist.martingale import (
    SampledFunction,
    average_growth,
    bmo_norm,
    dyadic_zygmund_seminorm,
    integrate,
    star_norm,
)
from zygdist.measures import (
    GridMeasure,
    density_martingale,
    measure_tree_levelset_density,
    measure_truncate,
    measure_zygmund_norm,
)
from zygdist.verification import (
    run_lemma_suite,
    verify_bdg,
    verify_predecessor_measure,
    verify_strichartz_consistency,
)

SCHEMA = "zygdist/1"
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


class InputError(Exception):
    """Malformed input file or violated report invariant (exit code 2)."""


# ---------------------------------------------------------------------------
# file formats


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def read_input(path: str):
    """Load an input document, returning the payload and its byte digest."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from None
    _require(isinstance(payload, dict), "input document must be a JSON object")
    _require(payload.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    return payload, digest


def _is_int(value) -> bool:
    """JSON integer check; ``true``/``false`` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number_array(entries: list, name: str) -> np.ndarray:
    """The JSON array ``entries`` as a flat float64 array of finite numbers.

    Every entry must be a JSON number (``int`` or ``float``): strings,
    booleans, nulls and lists fail one scan of the entry types, and integers
    beyond float range the one conversion (exit 2).
    """
    numbers = set(map(type, entries)) <= {int, float}
    try:
        array = np.asarray(entries, dtype=np.float64) if numbers else None
    except OverflowError:
        array = None
    _require(array is not None, f"{name} must be an array of numbers")
    _require(bool(np.all(np.isfinite(array))), f"{name} must all be finite")
    return array


def load_function(payload: dict) -> SampledFunction:
    _require(payload.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    _require(payload.get("kind") == "function", "kind must be 'function'")
    depth = payload.get("depth")
    _require(_is_int(depth) and depth >= 1, "depth must be an integer >= 1")
    left = payload.get("left", 0)
    _require(_is_int(left), "left endpoint must be an integer")
    values = payload.get("values")
    _require(isinstance(values, list) and values, "values must be a non-empty array")
    span, rem = divmod(len(values) - 1, 1 << depth)
    _require(
        rem == 0 and span >= 1,
        f"values length {len(values)} must be span*2^depth + 1",
    )
    _require(span & (span - 1) == 0, f"span {span} must be a power of two")
    array = _number_array(values, "values")
    return SampledFunction(array, left=left, log2_spacing=-depth)


def load_measure(payload: dict) -> GridMeasure:
    _require(payload.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    _require(payload.get("kind") == "measure", "kind must be 'measure'")
    dim = payload.get("dim")
    depth = payload.get("depth")
    _require(_is_int(dim) and dim in (1, 2), "dim must be 1 or 2")
    _require(_is_int(depth) and depth >= 1, "depth must be an integer >= 1")
    masses = payload.get("masses")
    _require(isinstance(masses, list) and masses, "masses must be a non-empty array")
    cells = 1 << (dim * depth)
    _require(
        len(masses) == cells,
        f"masses length {len(masses)} must equal 2^(dim*depth) = {cells}",
    )
    array = _number_array(masses, "masses")
    _require(bool(np.all(array >= 0.0)), "masses must be non-negative")
    # the largest density a cell can carry; past it the density martingale overflows
    with np.errstate(over="ignore"):
        total = float(array.sum())
    _require(
        math.isfinite(total * 2.0 ** (dim * depth)),
        "masses overflow: their total times 2^(dim*depth) must be finite",
    )
    return GridMeasure(array.reshape((1 << depth,) * dim))


def function_payload(f: SampledFunction, metadata: dict) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "function",
        "depth": f.depth,
        "left": int(f.left),
        "values": f.values.tolist(),
        "metadata": metadata,
    }


def measure_payload(masses: np.ndarray, dim: int, depth: int, metadata: dict) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "measure",
        "dim": dim,
        "depth": depth,
        "masses": np.asarray(masses, dtype=np.float64).reshape(-1).tolist(),
        "metadata": metadata,
    }


# ---------------------------------------------------------------------------
# report plumbing


def _jsonable(value):
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, Fraction)):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _table(columns: list[str], rows: list, method: dict) -> dict:
    return {"columns": columns, "rows": _jsonable(rows), "method": _jsonable(method)}


def _parse_depths(text: str | None, depth: int, back: int) -> list[int]:
    """Depths from ``--depths``, or ``[max(1, depth - back), depth]`` without it."""
    if text is None:
        return [max(1, depth - back), depth]
    try:
        depths = sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError:
        raise InputError(f"cannot parse depth list {text!r}") from None
    _require(bool(depths) and depths[0] >= 1, "depths must be positive integers")
    _require(depths[-1] <= depth, "requested depth exceeds the input depth")
    return depths


def _parse_eps_grid(text: str) -> list[float] | None:
    """Levels from ``--eps-grid``, or ``None`` for ``auto`` (the command's default)."""
    if text == "auto":
        return None
    try:
        grid = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"cannot parse level grid {text!r}") from None
    _require(bool(grid), "level grid must be non-empty")
    _require(
        all(0.0 <= e < math.inf for e in grid),
        "--eps-grid levels must be finite and non-negative",
    )
    return sorted(grid)


def _profile_rows(profile) -> list:
    """``[eps, depth, value]`` rows of a depth profile, eps outer, depth inner."""
    return [
        [e, d, row[j]]
        for j, e in enumerate(profile.eps)
        for d, row in zip(profile.depths, profile.values)
    ]


# ---------------------------------------------------------------------------
# commands: each takes its loaded input (or None) and the parsed arguments,
# and returns the report body and exit code


def cmd_seminorm(f: SampledFunction, args) -> tuple[dict, int]:
    growth = average_growth(f)
    rows = [
        ["dyadic_zygmund", 2.0 * star_norm(growth)],
        ["grid_zygmund", zygmund_seminorm(f)],
        ["growth_star", star_norm(growth)],
        ["growth_bmo", bmo_norm(growth)],
    ]
    body = {
        "tables": {
            "seminorms": _table(
                ["name", "value"],
                rows,
                {
                    "dyadic": "exact supremum over the jump tree",
                    "grid": "exhaustive over grid-resolvable centres and steps",
                },
            )
        },
    }
    return body, EXIT_OK


def cmd_strichartz(f: SampledFunction, args) -> tuple[dict, int]:
    depths = _parse_depths(args.depths, f.depth, 4)
    S = average_growth(f)
    grid = args.grid or default_eps_grid(S)
    tree = density_profile(S, grid, depths)
    del S  # the cone counts read the samples; free the martingale first
    cones = cone_levelset_count(f, grid, depths)
    energy_rows = [[d, box_square_energy(f, depth=d)] for d in depths]
    method = {"depths": depths, "eps_grid": args.eps_grid}
    columns = ["eps", "depth", "value"]
    body = {
        "tables": {
            "tree_density": _table(columns, _profile_rows(tree), method),
            "cone_count_l2": _table(columns, _profile_rows(cones), method),
            "box_energy": _table(["depth", "value"], energy_rows, method),
        },
    }
    return body, EXIT_OK


def cmd_distance(f: SampledFunction, args) -> tuple[dict, int]:
    depths = _parse_depths(args.depths, f.depth, 4)
    # args.grid is None for `auto`: the report's own default grid
    report = distance_report(f, eps_grid=args.grid, depths=depths, tau=args.tau)
    profile = report.profile
    profile_rows = [
        [e, d, value]
        for d, row in zip(profile.depths, profile.values)
        for e, value in zip(profile.eps, row)
    ]
    distance_rows = list(zip(report.eps, report.measured_distance))
    estimate = report.estimate
    # growth from zero has no finite ratio, and JSON no infinity: write null
    ratios = [r if math.isfinite(r) else None for r in estimate.ratios]
    value = estimate.eps
    rule = estimate.method
    if args.interpolate and value is not None:
        j = report.eps.index(value)
        if j > 0:
            value = math.sqrt(report.eps[j] * report.eps[j - 1])
            rule = estimate.method + "+log-midpoint"
    method = {
        "depths": profile.depths,
        "eps_grid": args.eps_grid,
        "tau": args.tau,
        "rule": rule,
    }
    body = {
        "tables": {
            "density_profile": _table(["eps", "depth", "value"], profile_rows, method),
            "measured_distance": _table(
                ["eps", "value"],
                distance_rows,
                {"estimator": "twice the sup of dropped jumps"},
            ),
            "stability": _table(
                ["eps", "ratio", "stable"],
                list(zip(profile.eps, ratios, estimate.stable)),
                method,
            ),
        },
        "estimates": {"threshold": {"value": value, "method": method}},
    }
    return body, EXIT_OK if value is not None else EXIT_INCONCLUSIVE


def cmd_decompose(f: SampledFunction, args) -> tuple[dict, int]:
    rows = []
    for parts in dyadic_decompose(f, args.grid):
        levels = [eps for eps in parts.eps if eps > 0.0]
        if not levels:
            continue
        # the levels of a splitting share its arrays: one check and norm each
        identity = np.array_equal(parts.rough.values + parts.small.values, f.values)
        small_norm = dyadic_zygmund_seminorm(parts.small)
        _require(identity, "decomposition failed to reproduce the input exactly")
        for eps in levels:
            _require(
                small_norm <= eps,
                f"small-part seminorm {small_norm} exceeds requested level {eps}",
            )
        rough_bmo = bmo_norm(parts.kept)
        rows.extend([eps, small_norm, parts.rough_star, rough_bmo] for eps in levels)
        del parts  # each array of this splitting is freed as the generator replaces it
    body = {
        "tables": {
            "decomposition": _table(
                ["eps", "small_seminorm", "rough_star", "rough_bmo"],
                rows,
                {"eps_grid": args.eps_grid, "rule": "drop jumps at most eps/2"},
            )
        },
    }
    return body, EXIT_OK


def cmd_sobolev(f: SampledFunction, args) -> tuple[dict, int]:
    _require(f.compact, "decomposition expects a compactly supported function")
    grid = args.grid or default_eps_grid(average_growth(f))
    grid = [eps for eps in grid if eps > 0.0]
    rows = []
    if grid:
        try:
            parts = continuous_decompose(f, grid)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        for eps, rough, small, seminorms in zip(
            parts.eps, parts.rough, parts.small, parts.window_small_seminorms
        ):
            window_max = max(seminorms, default=0.0)
            _require(
                window_max <= eps,
                f"window seminorm {window_max} exceeds requested level {eps}",
            )
            identity = bool(np.array_equal(rough.values + small.values, f.values))
            _require(identity, "decomposition failed to reproduce the input exactly")
            rows.append([eps, window_max, zygmund_seminorm(small)])
    body = {
        "tables": {
            "window_decomposition": _table(
                ["eps", "window_max_seminorm", "small_grid_seminorm"],
                rows,
                {
                    "eps_grid": args.eps_grid,
                    "rule": "average window truncations over all grid offsets",
                },
            )
        },
    }
    return body, EXIT_OK


def cmd_measure(mu: GridMeasure, args) -> tuple[dict, int]:
    depths = _parse_depths(args.depths, mu.depth, 2)
    S = density_martingale(mu)
    dyadic_norm = star_norm(S)
    grid = args.grid or _geometric_grid(dyadic_norm, -20)
    norm_rows = [
        ["dyadic_zygmund", dyadic_norm],
        ["grid_zygmund", measure_zygmund_norm(mu, mode="continuous")],
    ]
    tree = measure_tree_levelset_density(S, grid, depths)
    truncation_rows = []
    for eps in grid:
        if eps <= 0.0:
            continue
        kept = measure_truncate(S, eps)
        residual_norm = measure_zygmund_norm(mu - kept, mode="dyadic")
        _require(
            residual_norm <= eps,
            f"residual deviation {residual_norm} exceeds requested level {eps}",
        )
        truncation_rows.append([eps, residual_norm])
    method = {"depths": depths, "eps_grid": args.eps_grid}
    body = {
        "tables": {
            "norms": _table(
                ["name", "value"],
                norm_rows,
                {"dyadic": "exact supremum over density splits"},
            ),
            "tree_density": _table(["eps", "depth", "value"], _profile_rows(tree), method),
            "truncation": _table(
                ["eps", "residual_dyadic_norm"],
                truncation_rows,
                {"rule": "drop splits of size at most eps"},
            ),
        },
    }
    return body, EXIT_OK


def cmd_verify(_, args) -> tuple[dict, int]:
    suites = (
        ["lemmas", "predecessor", "bdg", "consistency"]
        if args.suite == "all"
        else [args.suite]
    )
    body: dict = {"suites": suites}
    passed = True
    try:
        if "lemmas" in suites:
            suite = run_lemma_suite(seed=args.seed)
            body["ratio_reports"] = _jsonable(suite["reports"])
            passed &= suite["passed"]
        if "predecessor" in suites:
            rows = []
            for R in (1, 2, 4):
                report = verify_predecessor_measure(R, seed=args.seed)
                rows.append(report)
                passed &= all(report.level_ok) and report.total_ok
            body["predecessor"] = _jsonable(rows)
        if "bdg" in suites:
            report = verify_bdg(count=100, depth=10, seed=args.seed)
            body["bdg"] = _jsonable(report)
            passed &= report["in_range"]
        if "consistency" in suites:
            report = verify_strichartz_consistency(depth=12, seed=args.seed, tau=args.tau)
            body["consistency"] = _jsonable(report)
            passed &= report["mismatches"] == 0
    except ValueError as exc:
        raise InputError(str(exc)) from None
    body["passed"] = bool(passed)
    if not passed:
        raise InputError("verification suite found a violated estimate")
    return body, EXIT_OK


_CLASSIFICATIONS = {
    "linear": "flat: every profile vanishes",
    "hat": "single kink: profiles bounded at every level",
    "square": "smooth curvature: profiles bounded at every level",
    "weierstrass": "classical rough example: bounded seminorm, growing profiles",
    "lacunary": "uniform jump size at every scale: growing profiles",
    "random-jumps": "random signs, constant jump size: threshold at twice the size",
    "single-branch": "one growing branch: extremal truncated quadratic",
    "cascade": "multiplicative cascade: signed density splits",
}

# the generator options, the kinds that read each, and their argparse
# options; every kind reads --depth and --seed, and any other option exits 2
_KIND_FLAGS = {
    "--dim": (("cascade",), {"type": int}),
    "--thetas": (("cascade",), {"help": "comma-separated split sizes"}),
    "--levels": (("weierstrass",), {"type": int}),
    "--coefficient": (("lacunary",), {}),
    "--ratio": (("lacunary",), {}),
    "--delta": (("random-jumps", "single-branch"), {"help": "jump size, e.g. 1/16"}),
}


def _fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse {flag} value {text!r} as a rational") from None


def cmd_generate(_, args) -> tuple[dict, int]:
    kind, depth = args.kind, args.depth
    for flag, (kinds, _) in _KIND_FLAGS.items():  # an option not given is no attribute
        _require(kind in kinds or not hasattr(args, flag[2:]), f"--kind {kind} reads no {flag}")
    _require(depth >= 1, "depth must be a positive integer")
    dim = getattr(args, "dim", 1)
    _require(dim in (1, 2), "dim must be 1 or 2")
    # checked before anything is allocated: 2^24 cells is 128 MiB of float64
    _require(
        dim * depth <= 24,
        f"size cap: a generated file holds at most 2^24 cells, not 2^{dim * depth}",
    )
    metadata: dict = {"generator": kind, "seed": args.seed, "depth": depth}
    metadata["classification"] = _CLASSIFICATIONS[kind]
    # a parameter the generator refuses (or cannot represent) is bad input
    try:
        if kind == "cascade":
            thetas = None
            if hasattr(args, "thetas"):
                thetas = [_fraction(part, "--thetas") for part in args.thetas.split(",")]
                metadata["thetas"] = [float(t) for t in thetas]
            masses = cascade_measure(dim, depth, thetas=thetas, seed=args.seed)
            metadata["dim"] = dim
            payload = measure_payload(np.asarray(masses), dim, depth, metadata)
            load_measure(payload)  # never write a file that every command rejects
            return payload, EXIT_OK
        if kind == "linear":
            f = linear_function(depth)
        elif kind == "hat":
            f = hat_function(depth)
        elif kind == "square":
            f = parabola_function(depth)
        elif kind == "weierstrass":
            f = weierstrass_function(depth, levels=getattr(args, "levels", None))
            if hasattr(args, "levels"):
                metadata["levels"] = args.levels
        elif kind == "lacunary":
            coefficient = _fraction(getattr(args, "coefficient", "1/2"), "--coefficient")
            ratio = _fraction(getattr(args, "ratio", "1/2"), "--ratio")
            f = lacunary_function(depth, coefficient=coefficient, ratio=ratio)
            metadata["coefficient"] = float(coefficient)
            metadata["ratio"] = float(ratio)
        elif kind == "random-jumps":
            delta = _fraction(getattr(args, "delta", "1/16"), "--delta")
            f = integrate(random_jump_martingale(depth, delta=delta, seed=args.seed))
            metadata["delta"] = float(delta)
            metadata["expected_distance_threshold"] = float(2 * delta)
        else:  # single-branch; argparse admits no other kind
            delta = _fraction(getattr(args, "delta", "1/2"), "--delta")
            f = integrate(single_branch_martingale(depth, delta=delta))
            metadata["delta"] = float(delta)
            metadata["expected_distance_threshold"] = float(2 * delta)
        metadata["dyadic_seminorm"] = float(dyadic_zygmund_seminorm(f))
        payload = function_payload(f, metadata)
        load_function(payload)  # never write a file that every command rejects
        return payload, EXIT_OK
    except (ValueError, OverflowError) as exc:
        raise InputError(str(exc)) from None


# ---------------------------------------------------------------------------
# argument surface


# Every report prints these in ``parameters``; a command without the flag
# prints the default.
_REPORTED_DEFAULTS = {"seed": 0, "tau": 0.1, "interpolate": False}

_FLAGS = {
    "--seed": {"type": int, "default": _REPORTED_DEFAULTS["seed"]},
    "--depths": {"help": "comma-separated depth list"},
    "--eps-grid": {
        "default": "auto",
        "help": "'auto' or a comma-separated list of levels",
    },
    "--tau": {"type": float, "default": _REPORTED_DEFAULTS["tau"]},
    "--interpolate": {"action": "store_true"},
}

# (name, handler, the input it loads: "function", "measure" or None, the flags
# it reads)
_COMMANDS = [
    ("seminorm", cmd_seminorm, "function", ()),
    ("strichartz", cmd_strichartz, "function", ("--depths", "--eps-grid")),
    (
        "distance-ibmo",
        cmd_distance,
        "function",
        ("--depths", "--eps-grid", "--tau", "--interpolate"),
    ),
    ("decompose", cmd_decompose, "function", ("--eps-grid",)),
    ("sobolev", cmd_sobolev, "function", ("--eps-grid",)),
    ("measure", cmd_measure, "measure", ("--depths", "--eps-grid")),
    ("verify", cmd_verify, None, ("--seed", "--tau")),
    ("generate", cmd_generate, None, ("--seed",)),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zygdist",
        description="Distance functionals, decompositions and estimate checks "
        "for dyadic regularity analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, handler, loads, flags in _COMMANDS:
        p = sub.add_parser(name)
        if loads:
            p.add_argument("--in", dest="input", required=True, help="input file")
        p.add_argument("--out", help="write the report here instead of stdout")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument(
            "--timing",
            action="store_true",
            help="include wall time (makes reports differ between runs)",
        )
        p.set_defaults(handler=handler, loads=loads)
        commands[name] = p

    commands["verify"].add_argument(
        "--suite",
        default="all",
        choices=["lemmas", "predecessor", "bdg", "consistency", "all"],
    )
    p = commands["generate"]
    p.add_argument("--kind", required=True, choices=sorted(_CLASSIFICATIONS))
    p.add_argument("--depth", type=int, required=True)
    for flag, (_, options) in _KIND_FLAGS.items():
        p.add_argument(flag, default=argparse.SUPPRESS, **options)
    return parser


def _serialise(report: dict) -> str:
    """The report as sorted, indented JSON; exit 2 on a non-finite number,
    which JSON cannot carry."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise InputError("a report value is not finite") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    parameters = {
        name: getattr(args, name, default)
        for name, default in _REPORTED_DEFAULTS.items()
    }
    start = time.monotonic()
    report = {"schema": SCHEMA, "command": args.command, "parameters": parameters}
    # Huge finite samples overflow inside the kernels; the non-finite report
    # check or the command's own check turns that into one exit-2 message,
    # without NumPy's warnings on stderr.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            _require(
                0.0 <= parameters["tau"] < math.inf,
                "--tau must be a finite non-negative number",
            )
            if hasattr(args, "eps_grid"):  # checked before the input is read
                args.grid = _parse_eps_grid(args.eps_grid)
            loaded = None
            if args.loads is not None:
                payload, report["input_sha256"] = read_input(args.input)
                # looked up here, not stored in _COMMANDS, so a wrapped loader is seen
                load = load_function if args.loads == "function" else load_measure
                loaded = load(payload)
                del payload  # the command needs the loaded arrays, not the parsed JSON
            body, code = args.handler(loaded, args)
            if args.command == "generate":
                report = body
            else:
                report.update(body)
            if args.timing:
                report["wall_time_s"] = time.monotonic() - start
            text = _serialise(report)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    _emit(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
