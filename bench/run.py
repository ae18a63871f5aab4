"""Benchmark of the zygdist CLI: closed-loop passes over generated inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, summary on stderr
    python3 bench/run.py --pin                   # rewrite bench/digests.json

One process drives ``zygdist.cli.main`` in a closed loop: one caller, one
invocation at a time, each timed from argv until its report is written.
Every report is checked (exit code, pinned sha256 at the default seed,
identical bytes across passes); a mismatch is a failed operation.  Times are
scaled to a reference host speed measured while they run (hostclock.py); the
measured seconds are in the detailed report.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
times untraced passes for half the time and traced passes (see spans.py) for
the other half, and reports the per-layer metrics.  The last stdout line is
the result object; the line before it is the detailed report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
DIGESTS = BENCH / "digests.json"
REQUIRED = [
    ROOT / "BENCHMARK.json",
    ROOT / "src" / "zygdist" / "cli.py",
    ROOT / "docs" / "golden-input.json",
    ROOT / "docs" / "golden-report.json",
]
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from child import generate, input_paths  # noqa: E402
from hostclock import HostClock  # noqa: E402
from spans import COUNTERS, FUNCTIONS, METHODS, REAL_INTERVAL, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, GOLDEN, WORKLOADS  # noqa: E402

# Seed-independent facts of the reports: random-jumps inputs have every jump
# equal to delta = 1/16, so the dyadic seminorm and the distance threshold
# are both 2 * delta whatever the signs.
EXPECTED = {
    "seminorm": lambda r: r["tables"]["seminorms"]["rows"][0] == ["dyadic_zygmund", 0.125],
    "distance-ibmo": lambda r: r["estimates"]["threshold"]["value"] == 0.125,
    "verify": lambda r: r["passed"] is True,
}


def _holds(expectation, data: bytes) -> bool:
    try:
        return bool(expectation(json.loads(data)))
    except (ValueError, LookupError, TypeError):  # not JSON, or not that shape
        return False


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Counts invocations and the failed ones.

    A failure is an unexpected exit code, report bytes that differ from the
    pinned digest or from the first report of the same invocation in this
    run, or a report that breaks a seed-independent fact (``EXPECTED``).
    """

    def __init__(self, pinned: dict):
        self.pinned = pinned
        self.seen: dict = {}
        self.attempted = 0
        self.failures: list = []

    def check(self, inv, code: int, data: bytes) -> None:
        self.attempted += 1
        digest = sha256(data)
        if code != inv.expected_exit:
            problem = f"exit code {code}, expected {inv.expected_exit}"
        elif inv.label in self.pinned and digest != self.pinned[inv.label]:
            problem = "report differs from the pinned digest"
        elif self.seen.setdefault(inv.label, digest) != digest:
            problem = "report differs from an earlier pass"
        elif inv.label in EXPECTED and not _holds(EXPECTED[inv.label], data):
            problem = "report breaks a seed-independent expectation"
        else:
            return
        self.failures.append(f"{inv.label}: {problem}")


def pinned_at(workload, pinned: dict, seed: int) -> dict:
    """The pinned digests that hold at ``seed``: all of them at the default
    seed, else those of the calls whose reports do not depend on it."""
    unseeded = {inv.label for inv in workload.invocations if not inv.seeded}
    return {k: v for k, v in pinned.items() if seed == DEFAULT_SEED or k in unseeded}


def invoke(cli, argv: list, out: Path, clock=None) -> tuple:
    """One timed CLI call: (seconds, exit code, report bytes, measured seconds).

    With a ``clock``, the time its probes took during the call is not
    counted, and the seconds are scaled to the reference host speed.
    """
    out.unlink(missing_ok=True)
    spent, first = (clock.spent, len(clock.samples)) if clock else (0.0, 0)
    start = time.perf_counter()
    try:
        code = cli.main(argv + ["--out", str(out)])
    except Exception:  # a traceback is exit 1 for a CLI user
        traceback.print_exc()
        code = 1
    measured = time.perf_counter() - start
    elapsed = clock.scaled(measured - (clock.spent - spent), first) if clock else measured
    return elapsed, code, out.read_bytes() if out.exists() else b"", measured


def closed_loop(cli, workload, paths, rundir, seed, seconds, checker, tracer=None, clock=None):
    """Back-to-back passes, starting another while under ``seconds`` (>= 1)."""
    passes: list = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.phase = f"pass{len(passes)}"
        times, measured, report_bytes = {}, {}, 0
        for inv in workload.invocations:
            out = rundir / f"{inv.label}.json"
            elapsed, code, data, raw = invoke(cli, inv.resolve(paths, seed), out, clock)
            checker.check(inv, code, data)
            times[inv.label], measured[inv.label] = elapsed, raw
            report_bytes += len(data)
        passes.append({"times": times, "measured": measured, "report_bytes": report_bytes})
        if time.perf_counter() - start >= seconds:
            return passes


def timing(samples: list) -> dict:
    """Median, plus the highest percentile with at least ten samples above it."""
    xs = sorted(samples)
    n = len(xs)
    tail = None
    if n >= 20:  # only then does that percentile lie above the median
        tail = {"pct": 100 * (n - 10) // n, "value": xs[n - 11]}
    return {"median": statistics.median(xs), "n": n, "tail": tail}


def machine_facts() -> dict:
    import numpy

    caches = {}
    for index in range(4):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (base / "level").read_text().strip()
            kind = (base / "type").read_text().strip()
            size = (base / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = int(size.rstrip("K")) * 1024 if size.endswith("K") else size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache_bytes": caches,  # cpu0: L1/L2 per core, L3 shared
    }


def _child(mode: str, rundir: Path, seed: int, name: str) -> tuple:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, str(rundir), str(seed), name],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} failed: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def _golden(cli, rundir: Path, checker: Checker) -> None:
    """Untimed: the README's golden distance-ibmo report, byte for byte."""
    golden = ROOT / "docs" / "golden-report.json"
    checker.pinned = dict(checker.pinned, golden=sha256(golden.read_bytes()))
    argv = GOLDEN.resolve({"golden_in": str(ROOT / "docs" / "golden-input.json")}, 0)
    _, code, data, _ = invoke(cli, argv, rundir / "golden.json")
    checker.check(GOLDEN, code, data)


def _timed_setups(workload, rundir: Path, seed: int, checker: Checker) -> tuple:
    """Set-up times of fresh interpreters, scaled by the host clock each ran
    (its probes are not counted), the measured times and the scales; every
    repeat must write the same inputs."""
    scaled, times, scales, first = [], [], [], None
    for _ in range(SETUP_REPEATS):
        elapsed, out = _child("setup", rundir, seed, workload.name)
        clock = json.loads(out.strip().splitlines()[-1])
        times.append(elapsed)
        scales.append(clock["scale"])
        scaled.append((elapsed - clock["spent_s"]) * clock["scale"])
        paths = input_paths(workload, rundir).values()
        digests = [sha256(Path(p).read_bytes()) for p in paths]
        first = first or digests
        if digests != first:
            checker.failures.append("set-up inputs differ between repeats")
    return scaled, times, scales


def _peak_rss_mib(workload, rundir: Path, seed: int, checker: Checker) -> float:
    """Peak RSS of one pass in a fresh interpreter, whose reports are checked too."""
    _, out = _child("pass", rundir, seed, workload.name)
    child = json.loads(out.strip().splitlines()[-1])
    for inv in workload.invocations:
        report = rundir / f"rss-{inv.label}.json"
        data = report.read_bytes() if report.exists() else b""
        checker.check(inv, child["exits"][inv.label], data)
    return child["maxrss_kib"] / 1024.0


def _layer_metrics(tracer: Tracer, passes: list, checker: Checker) -> dict:
    """Per traced pass: span aggregates and counters; times are medians over
    passes, counts must repeat exactly.  Generators are read from set-up."""
    names = [n for _, _, n in FUNCTIONS if n] + [n for *_, n in METHODS]
    names += ["measures.zygmund_norm_dyadic", "measures.zygmund_norm_continuous"]
    names += sorted({n.split(".")[0] for n in names})  # the layers themselves
    zero = {f"{n}.calls": 0 for n in names}  # what was never called reads 0
    zero.update({f"{n}.{k}": 0.0 for n in names for k in ("total_s", "self_s")})
    zero.update({c: 0 for c, _ in COUNTERS.values()})
    zero[REAL_INTERVAL] = 0

    def flat(phase):
        row = dict(zero)
        for name, agg in tracer.aggregate(phase).items():
            row.update({f"{name}.{k}": v for k, v in agg.items()})
        row.update(tracer.phase_counts(phase))
        return row

    rows = [flat(f"pass{k}") for k in range(len(passes))]
    for row, p in zip(rows, passes):
        row["cli.report_bytes"] = p["report_bytes"]
    setup = flat("setup")
    merged = {}
    for key in rows[0]:
        values = [setup[key]] if key.startswith("generators.") else [r[key] for r in rows]
        if isinstance(values[0], float):
            merged[key] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                checker.failures.append(f"trace count {key} differs between passes")
            merged[key] = values[0]
    return merged


def run_workload(name: str, seed: int, seconds: float, trace: bool, pinned: dict) -> dict:
    workload = WORKLOADS[name]
    checker = Checker(pinned_at(workload, pinned, seed))
    rundir = WORK / f"{name}-s{seed}-p{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    detail: dict = {"workload": name, "seed": seed, "trace": int(trace)}
    metrics: dict = {}
    try:
        from zygdist import cli

        paths = input_paths(workload, rundir)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                generate(workload, rundir, seed)
            finally:
                tracer.uninstall()
        else:
            scaled, setups, scales = _timed_setups(workload, rundir, seed, checker)
            metrics["setup_s"] = statistics.median(scaled)
            detail["setup_s"] = timing(scaled)
            detail["measured_s"] = {"setup_s": timing(setups)}
            detail["host"] = {"setup_scales": scales}
        _golden(cli, rundir, checker)
        if not trace:
            metrics["peak_rss_mb"] = _peak_rss_mib(workload, rundir, seed, checker)
        budget = seconds / 2 if trace else seconds
        # a traced run reports measured seconds: the probe would land in spans
        clock = None if trace else HostClock().start()
        try:
            passes = closed_loop(cli, workload, paths, rundir, seed, budget, checker, clock=clock)
        finally:
            if clock:
                clock.stop()
        walls = [sum(p["times"].values()) for p in passes]
        metrics["wall_s"] = statistics.median(walls)
        detail["wall_s"] = timing(walls)
        detail["commands"] = {
            f"{inv.label}_s": timing([p["times"][inv.label] for p in passes])
            for inv in workload.invocations
        }
        if clock:
            detail["measured_s"]["wall_s"] = timing([sum(p["measured"].values()) for p in passes])
            detail["host"]["passes"] = clock.summary()
        if trace:
            tracer.install()
            try:
                traced = closed_loop(cli, workload, paths, rundir, seed, budget, checker, tracer)
            finally:
                tracer.uninstall()
            traced_wall = statistics.median(sum(p["times"].values()) for p in traced)
            detail["trace_overhead"] = {
                "ratio": traced_wall / metrics["wall_s"],
                "traced_wall_s": traced_wall,
                "untraced_wall_s": metrics["wall_s"],
                "traced_passes": len(traced),
                "untraced_passes": len(passes),
            }
            metrics = _layer_metrics(tracer, traced, checker)
            spans_path = WORK / f"spans-{name}-s{seed}.jsonl"
            tracer.write(str(spans_path))
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    detail["failed_ops"] = {
        "fraction": len(checker.failures) / checker.attempted,
        "failed": len(checker.failures),
        "attempted": checker.attempted,
        "first_failures": checker.failures[:5],
    }
    machine = machine_facts()
    l3 = machine["cache_bytes"].get("L3")
    detail.update(
        work=dict(workload.work, label="computed per pass"),
        cost=workload.cost,
        working_set={
            "bytes_computed": workload.working_set_bytes,
            "share_of_l3": workload.working_set_bytes / l3 if isinstance(l3, int) else None,
        },
        machine=machine,
        metrics=metrics,
    )
    return detail


def contract_line(detail: dict, spec: dict) -> dict:
    """The result object: the end-to-end (or per-layer) metrics by name."""
    key = "per_layer" if detail["trace"] else "end_to_end"
    failed = detail["failed_ops"]
    return {
        "correct": failed["failed"] == 0,
        "attempted": failed["attempted"],
        "failed": failed["failed"],
        "metrics": {
            m["name"]: {"value": detail["metrics"][m["name"]], "unit": m["unit"]}
            for m in spec[key]
        },
    }


def summary(detail: dict, line: dict) -> str:
    """One human-readable line: result metrics, per-command medians, failed ops."""
    parts = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in line["metrics"].items()]
    parts += [f"{k}={v['median']:.4g} s" for k, v in detail.get("commands", {}).items()]
    failed = detail["failed_ops"]
    parts.append(f"failed_ops={failed['fraction']:.3g} ({failed['failed']}/{failed['attempted']})")
    return f"{detail['workload']}: " + ", ".join(parts)


def pin() -> None:
    """Rewrite the pinned report digests from one pass per workload."""
    from zygdist import cli

    reports = {}
    for name, workload in WORKLOADS.items():
        rundir = WORK / f"pin-{name}"
        rundir.mkdir(parents=True, exist_ok=True)
        generate(workload, rundir, DEFAULT_SEED)
        paths = input_paths(workload, rundir)
        for inv in workload.invocations:
            _, code, data, _ = invoke(cli, inv.resolve(paths, DEFAULT_SEED), rundir / "r.json")
            if code != inv.expected_exit:
                raise SystemExit(f"{inv.label} exited {code}")
            reports[inv.label] = sha256(data)
        shutil.rmtree(rundir)
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "reports": reports}, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a zygdist checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    pinned = json.loads(DIGESTS.read_text())["reports"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        detail = run_workload(name, args.seed, seconds, bool(args.trace), pinned)
        print(json.dumps(detail, sort_keys=True), flush=True)
        results[name] = contract_line(detail, spec)
        if args.workload == "all":
            print(summary(detail, results[name]), file=sys.stderr, flush=True)
    print(json.dumps(results if args.workload == "all" else results[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
