"""Fresh-process helpers of the benchmark.

``python3 bench/child.py setup DIR SEED WORKLOAD`` imports zygdist and
generates the workload's inputs into DIR (timed from outside as set-up).  It
prints what its host clock saw meanwhile, for scaling that time.

``python3 bench/child.py pass DIR SEED WORKLOAD`` runs one pass of the
workload, writing each report to ``DIR/rss-<label>.json``, and prints a JSON
object with its exit codes and its own peak resident set size.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from hostclock import HostClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def input_paths(workload, directory) -> dict:
    return {name: str(Path(directory) / f"{name}.json") for name in workload.inputs}


def generate(workload, directory, seed: int) -> None:
    from zygdist import cli

    for name, path in input_paths(workload, directory).items():
        argv = list(workload.inputs[name]) + ["--seed", str(seed), "--out", path]
        if cli.main(argv) != 0:
            raise SystemExit(f"generating {name} failed")


def one_pass(workload, directory, seed: int) -> dict:
    from zygdist import cli

    paths = input_paths(workload, directory)
    exits = {}
    for inv in workload.invocations:
        out = str(Path(directory) / f"rss-{inv.label}.json")
        exits[inv.label] = cli.main(inv.resolve(paths, seed) + ["--out", out])
    return {"exits": exits, "maxrss_kib": peak_rss_kib()}


def peak_rss_kib() -> int:
    """This process's peak resident set size.

    Linux folds the RSS of the process that spawned us into ``ru_maxrss``
    at exec, so a small workload would read as large as its parent; the
    high-water mark in /proc/self/status counts this process alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    mode, directory, seed, name = sys.argv[1:5]
    if mode == "setup":
        with HostClock() as clock:
            generate(WORKLOADS[name], directory, int(seed))
        print(json.dumps({"scale": clock.scale(), "spent_s": clock.spent}))
    elif mode == "pass":
        print(json.dumps(one_pass(WORKLOADS[name], directory, int(seed))))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
