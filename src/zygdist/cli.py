"""Command-line interface: file ingestion, generators, and report emission.

This is the only module with side effects.  Inputs are self-describing JSON
documents; every command emits a schema-versioned JSON report whose numbers
all carry their method parameters (grid, depths, stabilisation threshold).
Reports are byte-identical for identical input and seed: wall-clock time is
only included when explicitly requested.

Exit codes: 0 success; 2 malformed input or violated invariant; 3 threshold
estimate inconclusive at the requested depths (profiles are still emitted);
4 a verification suite found a violated estimate (its report, with its
witnesses and ``"passed": false``, is still emitted).
"""

from __future__ import annotations

import argparse
import array
import hashlib
import math
import re
import sys
import threading
import time
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from zygdist.approximation import (
    continuous_decompose,
    distance_report,
    dyadic_decompose,
)
from zygdist.functionals import (
    _DEFAULT_TAU,
    _level_set_tables,
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
    _residual_norm,
    density_martingale,
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
EXIT_VIOLATED = 4


class InputError(Exception):
    """Malformed input file or violated report invariant (exit code 2)."""


# ---------------------------------------------------------------------------
# file formats


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


# orjson builds nested arrays and objects by recursion, and a valid file
# nested about 10^5 levels deep overflows the C stack
_MAX_NESTING = 1000
_JSON_STRING = re.compile(rb'"(?:[^"\\]|\\.)*"?', re.DOTALL)


def _nests_too_deep(raw: bytes) -> bool:
    """Whether the arrays and objects of the JSON text ``raw`` nest more than
    ``_MAX_NESTING`` levels deep.

    Text with no more opening brackets than that passes on one count of
    them.  Otherwise the brackets outside strings are summed in order: exact
    up to the first syntax error, where decoding stops.
    """
    codes = np.frombuffer(raw, dtype=np.uint8)
    if np.count_nonzero(codes == ord("[")) + np.count_nonzero(codes == ord("{")) <= _MAX_NESTING:
        return False
    codes = np.frombuffer(_JSON_STRING.sub(b"", raw), dtype=np.uint8)
    steps = ((codes == ord("[")) | (codes == ord("{"))).astype(np.int64)
    steps -= (codes == ord("]")) | (codes == ord("}"))
    return int(steps.cumsum().max(initial=0)) > _MAX_NESTING


def read_input(path: str):
    """Load an input document, returning the payload and its byte digest.

    The file must be UTF-8 without a byte order mark (RFC 8259 section 8.1)
    and strict JSON: ``NaN``, ``Infinity``, numbers beyond float range and
    unpaired surrogate escapes are refused.  The sha256 of the raw bytes is
    taken on one helper thread while this one checks the nesting and
    decodes, and is joined before any return or refusal; ``hashlib``
    releases the GIL on buffers of 2 KiB or more.  Where no thread can
    start, the bytes are hashed here.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from None
    digest = hashlib.sha256()
    helper = threading.Thread(target=digest.update, args=(raw,))
    try:
        helper.start()
    except RuntimeError:
        helper = None
        digest.update(raw)
    try:
        _require(
            not _nests_too_deep(raw),
            f"input is not valid JSON: it nests more than {_MAX_NESTING} levels deep",
        )
        try:
            payload = orjson.loads(raw)
        except orjson.JSONDecodeError as exc:
            raise InputError(f"input is not valid JSON: {exc}") from None
        _require(isinstance(payload, dict), "input document must be a JSON object")
        _require(payload.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    finally:
        if helper is not None:
            helper.join()
    return payload, digest.hexdigest()


def _is_int(value) -> bool:
    """JSON integer check; ``true``/``false`` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number_array(entries: list, name: str) -> np.ndarray:
    """The JSON array ``entries`` as a flat, writable float64 array of finite
    numbers.

    Every entry must be a JSON number (``int`` or ``float``).  One C pass,
    ``array.array("d", entries)``, converts them: strings, nulls, lists and
    objects fail it with ``TypeError`` and integers beyond float range with
    ``OverflowError`` (exit 2).  A boolean converts to exactly 0.0 or 1.0, so
    only the entries equal to those have their type read.
    """
    message = f"{name} must be an array of numbers"
    try:
        samples = np.frombuffer(array.array("d", entries), dtype=np.float64)
    except (TypeError, OverflowError):
        raise InputError(message) from None
    zeros_and_ones = np.flatnonzero((samples == 0.0) | (samples == 1.0)).tolist()
    _require(bool not in {type(entries[i]) for i in zeros_and_ones}, message)
    _require(bool(np.all(np.isfinite(samples))), f"{name} must all be finite")
    return samples


def load_function(payload: dict) -> SampledFunction:
    _require(payload.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    _require(payload.get("kind") == "function", "kind must be 'function'")
    depth = payload.get("depth")
    _require(_is_int(depth) and depth >= 1, "depth must be an integer >= 1")
    left = payload.get("left", 0)
    _require(_is_int(left), "left endpoint must be an integer")
    values = payload.get("values")
    _require(isinstance(values, list) and values, "values must be a non-empty array")
    # no list holds 2^64 entries: past that, 2^depth is not built
    span, rem = divmod(len(values) - 1, 1 << depth) if depth <= 64 else (0, len(values) - 1)
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
    bits = dim * depth
    # no list holds 2^64 entries: past that, 2^(dim*depth) is named, not built
    cells = 1 << bits if bits <= 64 else f"2^{bits}"
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
        math.isfinite(total * 2.0**bits),
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


def _table(columns: list[str], rows: list, method: dict) -> dict:
    return {"columns": columns, "rows": rows, "method": method}


def _parse_depths(text: str | None, depth: int, back: int) -> list[int]:
    """Depths from ``--depths``, or the set of ``max(1, depth - back)`` and ``depth``."""
    if text is None:
        return sorted({max(1, depth - back), depth})
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
    growth_star = star_norm(growth)
    rows = [
        ["dyadic_zygmund", 2.0 * growth_star],
        ["grid_zygmund", zygmund_seminorm(f)],
        ["growth_star", growth_star],
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
    tree = density_profile(S, args.grid, depths)  # None for `auto`: the default grid
    del S  # the cone counts read the samples; free the martingale first
    cones = cone_levelset_count(f, tree.eps, depths)
    energy_rows = [[d, e] for d, e in zip(depths, box_square_energy(f, depths))]
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
    _require(len(depths) >= 2, "distance-ibmo compares at least two distinct depths")
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
    grid = args.grid or default_eps_grid(average_growth(f))
    # even with no positive level, the decomposition's span, support and
    # certificate rules decide whether the input is accepted
    try:
        parts = continuous_decompose(f, [eps for eps in grid if eps > 0.0])
    except ValueError as exc:
        raise InputError(str(exc)) from None
    rows = []
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
    grid_norm = measure_zygmund_norm(mu, mode="continuous")
    # the tables are formed after the continuous norm's arrays are freed
    dyadic_norm, tree, residuals = _level_set_tables(
        S, args.grid, depths, 1.0, lambda eps: _residual_norm(mu, S, eps)
    )
    norm_rows = [["dyadic_zygmund", dyadic_norm], ["grid_zygmund", grid_norm]]
    truncation_rows = [[eps, r] for eps, r in zip(tree.eps, residuals) if eps > 0.0]
    for eps, residual_norm in truncation_rows:
        _require(
            residual_norm <= eps,
            f"residual deviation {residual_norm} exceeds requested level {eps}",
        )
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


# the verification suites, in the order ``--suite all`` runs them
_SUITES = ("lemmas", "predecessor", "bdg", "consistency")


def cmd_verify(_, args) -> tuple[dict, int]:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    body: dict = {"suites": suites}
    passed = True
    try:
        if "lemmas" in suites:
            suite = run_lemma_suite(seed=args.seed)
            body["ratio_reports"] = suite["reports"]
            passed &= suite["passed"]
        if "predecessor" in suites:
            rows = []
            for R in (1, 2, 4):
                report = verify_predecessor_measure(R, seed=args.seed)
                rows.append(report)
                passed &= all(report.level_ok) and report.total_ok
            body["predecessor"] = rows
        if "bdg" in suites:
            report = verify_bdg(seed=args.seed)
            body["bdg"] = report
            passed &= report["in_range"]
        if "consistency" in suites:
            report = verify_strichartz_consistency(seed=args.seed, tau=args.tau)
            body["consistency"] = report
            passed &= report["mismatches"] == 0
    except ValueError as exc:
        raise InputError(str(exc)) from None
    body["passed"] = bool(passed)
    return body, EXIT_OK if passed else EXIT_VIOLATED


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
            payload = measure_payload(masses, dim, depth, metadata)
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
_REPORTED_DEFAULTS = {"seed": 0, "tau": _DEFAULT_TAU, "interpolate": False}

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
        if name != "generate":  # generate writes an input file, not a report
            p.add_argument("--timing", action="store_true", help="add the wall time to the report")
        p.set_defaults(handler=handler, loads=loads)
        commands[name] = p

    commands["verify"].add_argument(
        "--suite",
        default="all",
        choices=[*_SUITES, "all"],
    )
    p = commands["generate"]
    p.add_argument("--kind", required=True, choices=sorted(_CLASSIFICATIONS))
    p.add_argument("--depth", type=int, required=True)
    for flag, (_, options) in _KIND_FLAGS.items():
        p.add_argument(flag, default=argparse.SUPPRESS, **options)
    return parser


# a float list this long is written from its table of distinct values: from
# about 64 items the table's fixed cost is less than the reprs it saves
_TABLE_MIN = 64
_LITERALS = {None: "null", True: "true", False: "false"}


def _json(value, indent: str) -> str:
    """``value`` as the bytes of ``json.dumps(value, sort_keys=True, indent=2,
    allow_nan=False)`` nested at ``indent`` (a newline and spaces), with
    dataclasses as their fields and NumPy values as Python values."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return _LITERALS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("non-finite float")
        return float.__repr__(value)
    if isinstance(value, (np.ndarray, np.generic)):
        return _json(value.tolist(), indent)
    if is_dataclass(value):
        return _json(asdict(value), indent)
    inner = indent + "  "
    if isinstance(value, dict):
        pairs = sorted(value.items())
        items = [encode_basestring_ascii(key) + ": " + _json(v, inner) for key, v in pairs]
    elif not isinstance(value, (list, tuple)):
        raise TypeError(f"{type(value).__name__} is not JSON serialisable")
    elif len(value) >= _TABLE_MIN and set(map(type, value)) == {float}:
        # each distinct float64 bit pattern is formatted once; -0.0 keeps its sign
        bits, inverse = np.unique(np.array(value).view(np.uint64), return_inverse=True)
        table = bits.view(np.float64)
        if not np.isfinite(table).all():
            raise ValueError("non-finite float")
        reprs = np.array(list(map(float.__repr__, table.tolist())), dtype=object)
        items = reprs[inverse].tolist()
    else:
        items = [_json(item, inner) for item in value]
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _serialise(report: dict) -> str:
    """The report as sorted, indented JSON; exit 2 on a non-finite number,
    which JSON cannot carry."""
    try:
        return _json(report, "\n") + "\n"
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
