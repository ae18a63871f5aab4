"""Workload table of the zygdist benchmark.

A workload is a set of generated inputs and an ordered list of CLI
invocations (one *pass*).  Inputs come from ``zygdist generate`` with the
benchmark's seed; the program only ever sees the generated files.  Each
workload also carries its work counts, computed in closed form from the
input sizes, so a result states how much work one pass does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 7
VERIFY_SEED = 7
EPS_LEVELS = 23  # default_eps_grid: 2 points per octave, 2^-10 .. 2 x seminorm


@dataclass(frozen=True)
class Invocation:
    """One CLI call.  ``label`` names its latency metric (``<label>_s``).

    ``seeded`` is False for a call whose report does not depend on the
    benchmark's seed, so its pinned digest is checked at every seed.
    """

    label: str
    argv: tuple
    expected_exit: int = 0
    seeded: bool = True

    def resolve(self, paths: dict, seed: int) -> list:
        return [arg.format(seed=seed, **paths) for arg in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str  # BENCHMARK.json says why each workload is there
    inputs: dict  # input name -> `zygdist generate` argv (seed filled in later)
    invocations: tuple
    work: dict = field(default_factory=dict)  # computed per-pass work counts
    cost: dict = field(default_factory=dict)  # asymptotic cost of the hot kernels
    working_set_bytes: int = 0  # computed, live arrays of the hottest kernel


def _random_jumps(depth: int) -> tuple:
    return ("generate", "--kind", "random-jumps", "--delta", "1/16", "--depth", str(depth))


def _cascade(dim: int, depth: int) -> tuple:
    return ("generate", "--kind", "cascade", "--dim", str(dim), "--depth", str(depth))


def _pairs(depth: int) -> int:
    """(x, h) pairs swept by ``zygmund_seminorm`` on 2^depth cells: sum_u (M+1-2u)."""
    M = 1 << depth
    return sum(M + 1 - 2 * u for u in range(1, M // 2 + 1))


def _cone_layers(depth: int, depths: tuple) -> int:
    """Layer sweeps of ``_cone_accumulate`` over the eps grid and profile depths."""
    return EPS_LEVELS * sum(min(d, depth - 1) for d in depths)


GRID_N, TREE_N, SOBOLEV_N, MEASURE_1D_N, MEASURE_2D_N = 15, 18, 9, 14, 8
_F8 = 8  # bytes per float64

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-deep",
            inputs={"jumps": _random_jumps(GRID_N)},
            invocations=(
                Invocation("seminorm", ("seminorm", "--in", "{jumps}")),
                Invocation("strichartz", ("strichartz", "--in", "{jumps}")),
            ),
            work={
                "input_cells": 1 << GRID_N,
                "zygmund_seminorm_pairs": _pairs(GRID_N),
                "cone_layer_sweeps": _cone_layers(GRID_N, (GRID_N - 4, GRID_N)),
                "translates": 0,
                "box_mass_grid_calls": 0,
                # 3 float64 reads per (x, h) pair; per cone layer 3 reads to form
                # d2, then per offset a gathered d2 + ok mask and acc read/write
                "bytes_touched_computed": 3 * _F8 * _pairs(GRID_N)
                + _cone_layers(GRID_N, (GRID_N - 4, GRID_N))
                * (1 << GRID_N)
                * (3 * _F8 + 3 * (_F8 + 1 + 2 * _F8)),
            },
            cost={
                "functionals.zygmund_seminorm": "O(M^2), M = 2^N cells",
                "functionals.cone_levelset_count": "O(M log M) per eps",
            },
            working_set_bytes=5 * _F8 * ((1 << GRID_N) + 1),
        ),
        Workload(
            name="tree-deep",
            inputs={"jumps": _random_jumps(TREE_N)},
            invocations=(
                Invocation("distance-ibmo", ("distance-ibmo", "--in", "{jumps}")),
                Invocation("decompose", ("decompose", "--in", "{jumps}")),
            ),
            work={
                "input_cells": 1 << TREE_N,
                "zygmund_seminorm_pairs": 0,
                "truncate_jumps_calls": 2 * EPS_LEVELS,
                "translates": 0,
                "box_mass_grid_calls": 0,
                # each truncation reads the martingale, forms the jumps and
                # writes the kept martingale: 4 float64 touches per entry
                "bytes_touched_computed": 2 * EPS_LEVELS * (2 << TREE_N) * 4 * _F8,
            },
            cost={
                "approximation.truncate_jumps": "O(2^N) per eps",
                "functionals.levelset_tree_density": "O(2^depth) per (eps, depth)",
            },
            working_set_bytes=4 * (2 << TREE_N) * _F8,
        ),
        Workload(
            name="translate-sobolev",
            inputs={"jumps": _random_jumps(SOBOLEV_N)},
            invocations=(Invocation("sobolev", ("sobolev", "--in", "{jumps}")),),
            work={
                "input_cells": 1 << SOBOLEV_N,
                "zygmund_seminorm_pairs": EPS_LEVELS * _pairs(SOBOLEV_N),
                "translates": EPS_LEVELS << SOBOLEV_N,
                "box_mass_grid_calls": 0,
                # per translate the window martingale (2^(N+3) entries) is built,
                # truncated, differenced and scanned: 11 float64 touches per entry
                "bytes_touched_computed": (EPS_LEVELS << SOBOLEV_N)
                * (8 << SOBOLEV_N)
                * 11
                * _F8,
            },
            cost={
                "approximation.continuous_decompose": "O(4^N * N) per eps",
                "functionals.zygmund_seminorm": "O(M^2), M = 2^N cells",
            },
            working_set_bytes=(8 << SOBOLEV_N) * _F8,
        ),
        Workload(
            name="measure-verify",
            inputs={"cascade1d": _cascade(1, MEASURE_1D_N), "cascade2d": _cascade(2, MEASURE_2D_N)},
            invocations=(
                Invocation("measure-1d", ("measure", "--in", "{cascade1d}")),
                Invocation("measure-2d", ("measure", "--in", "{cascade2d}")),
                # the suite's own sample seed, the one its documentation runs:
                # at about 1 seed in 10 its measure-modulus stability check
                # fails (see README), which would fail this workload at random
                Invocation(
                    "verify",
                    ("verify", "--suite", "all", "--seed", str(VERIFY_SEED)),
                    seeded=False,
                ),
            ),
            work={
                "input_cells": (1 << MEASURE_1D_N) + (1 << 2 * MEASURE_2D_N),
                "translates": 0,
                "box_mass_grid_calls": (1 << MEASURE_1D_N) + (1 << MEASURE_2D_N),
                # per call: 2^dim corner gathers of the summed-area table, each
                # read once and accumulated (read + write) into the result
                "bytes_touched_computed": (1 << MEASURE_1D_N)
                * 2
                * ((1 << MEASURE_1D_N) + 1)
                * 3
                * _F8
                + (1 << MEASURE_2D_N) * 4 * ((1 << MEASURE_2D_N) + 1) ** 2 * 3 * _F8,
            },
            cost={
                "measures.zygmund_norm_continuous": "O(2^(d*N) * 2^N) box sums",
                "measures.measure_tree_levelset_density": "O(2^(d*depth)) per eps",
            },
            working_set_bytes=4 * ((1 << MEASURE_2D_N) + 1) ** 2 * _F8,
        ),
    )
}

GOLDEN = Invocation(
    "golden",
    ("distance-ibmo", "--in", "{golden_in}", "--depths", "6,7,8"),
)
