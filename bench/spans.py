"""Span recorder that wraps zygdist's public functions from outside.

``Tracer.install()`` replaces each target function in every ``zygdist``
module namespace that binds it (and the target methods on their classes)
with a wrapper recording a span: name, start, end and parent span.  The
wrapper's own bookkeeping is timed and subtracted from every enclosing span,
so span durations and self times describe the program, not the tracer.
Spans stay in memory; ``uninstall()`` restores the originals and
``aggregate()`` / ``write()`` read them out at the end.

``src/`` is never edited: the layers are instrumented at their boundaries.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

# (module, attribute, span name); a span name of None means "name by call"
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("cli", "read_input", "cli.read_input"),
    ("cli", "load_function", "cli.load_function"),
    ("cli", "load_measure", "cli.load_measure"),
    ("martingale", "average_growth", "martingale.average_growth"),
    ("martingale", "integrate", "martingale.integrate"),
    ("martingale", "star_norm", "martingale.star_norm"),
    ("martingale", "bmo_norm", "martingale.bmo_norm"),
    ("martingale", "dyadic_zygmund_seminorm", "martingale.dyadic_zygmund_seminorm"),
    ("functionals", "zygmund_seminorm", "functionals.zygmund_seminorm"),
    ("functionals", "cone_levelset_count", "functionals.cone_levelset_count"),
    ("functionals", "box_square_energy", "functionals.box_square_energy"),
    ("functionals", "levelset_tree_density", "functionals.levelset_tree_density"),
    ("functionals", "density_profile", "functionals.density_profile"),
    ("functionals", "estimate_threshold", "functionals.estimate_threshold"),
    ("functionals", "default_eps_grid", "functionals.default_eps_grid"),
    ("approximation", "continuous_decompose", "approximation.continuous_decompose"),
    ("approximation", "truncate_jumps", "approximation.truncate_jumps"),
    ("approximation", "martingale_difference", "approximation.martingale_difference"),
    ("approximation", "dyadic_decompose", "approximation.dyadic_decompose"),
    ("approximation", "distance_report", "approximation.distance_report"),
    ("measures", "measure_zygmund_norm", None),
    ("measures", "density_martingale", "measures.density_martingale"),
    ("measures", "measure_tree_levelset_density", "measures.measure_tree_levelset_density"),
    ("measures", "measure_truncate", "measures.measure_truncate"),
    ("verification", "run_lemma_suite", "verification.run_lemma_suite"),
    ("verification", "verify_predecessor_measure", "verification.verify_predecessor_measure"),
    ("verification", "verify_bdg", "verification.verify_bdg"),
    ("verification", "verify_strichartz_consistency", "verification.verify_strichartz_consistency"),
    ("generators", "random_jump_martingale", "generators.random_jump_martingale"),
    ("generators", "cascade_measure", "generators.cascade_measure"),
]
# (module, class, attribute, span name): methods wrapped on the class itself
METHODS = [
    ("measures", "GridMeasure", "__init__", "measures.grid_measure_init"),
    ("measures", "GridMeasure", "box_mass_grid", "measures.box_mass_grid"),
]
# RealInterval is built and measured ~10^5 times a pass: counted, not spanned
REAL_INTERVAL = "dyadic.real_interval.calls"


def _zygmund_pairs(args, kwargs, result):
    M = args[0].values.size - 1
    K = M // 2  # steps u = 1..K, each with M + 1 - 2u centres
    return K * (M + 1) - K * (K + 1)


def _translates(args, kwargs, result):
    return int(result.count)


def _jumps_kept(args, kwargs, result):
    S, threshold = args[0], args[1]
    return sum(
        2 * int((abs(S.jumps(n)[0::2]) > threshold).sum()) for n in range(1, S.depth + 1)
    )


def _input_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# span name -> (counter, count taken at the span's end); like the span's own
# bookkeeping, the time spent counting is subtracted from enclosing spans
COUNTERS = {
    "functionals.zygmund_seminorm": ("functionals.zygmund_seminorm.pairs", _zygmund_pairs),
    "approximation.continuous_decompose": ("approximation.translates", _translates),
    "approximation.truncate_jumps": ("approximation.jumps_kept", _jumps_kept),
    "cli.read_input": ("cli.input_bytes", _input_bytes),
}


def _measure_norm_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "dyadic")
    return f"measures.zygmund_norm_{mode}"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        # span: [name, parent, start, end, nested bookkeeping seconds, phase]
        self.spans: list = []
        self.counts: Counter = Counter()  # (phase, counter name) -> total
        self.phase = "setup"
        self._stack: list = []
        self._saved: list = []

    # -- recording -----------------------------------------------------
    def _wrap(self, name, fn):
        tracer, counter = self, COUNTERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            spans, stack = tracer.spans, tracer._stack
            label = name or _measure_norm_name(args, kwargs)
            parent = stack[-1] if stack else -1
            span = [label, parent, 0.0, 0.0, 0.0, tracer.phase]
            stack.append(len(spans))
            spans.append(span)
            span[2] = t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = t2 = clock()
                stack.pop()
            if counter is not None:
                key, count = counter
                tracer.counts[(span[5], key)] += count(args, kwargs, result)
            if parent >= 0:
                spans[parent][4] += (t1 - t0) + (clock() - t2) + span[4]
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_real_interval(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.phase, REAL_INTERVAL)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------
    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import zygdist.cli  # noqa: F401  (loads every zygdist module)

        modules = [
            m for key, m in sorted(sys.modules.items())
            if key == "zygdist" or key.startswith("zygdist.")
        ]
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"zygdist.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapper)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"zygdist.{module}"], cls_name)
            self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))
        interval = sys.modules["zygdist.dyadic"].RealInterval
        self._set(interval, "__init__", self._count_real_interval(interval.__init__))
        length = interval.__dict__["length"]
        self._set(interval, "length", property(self._count_real_interval(length.fget)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- read-out ------------------------------------------------------
    def durations(self) -> list:
        """Per span: duration without tracer bookkeeping."""
        return [end - start - nested for _, _, start, end, nested, _ in self.spans]

    def aggregate(self, phase) -> dict:
        """Per span name and per layer (module): calls, total_s and self_s.

        ``total_s`` sums spans with no ancestor of the same name (or layer),
        so nested calls are not counted twice; ``self_s`` is a span's
        duration minus the durations of its child spans.
        """
        spans, dur = self.spans, self.durations()
        self_time = list(dur)
        for i, span in enumerate(spans):
            if span[1] >= 0:
                self_time[span[1]] -= dur[i]
        table: dict = {}
        for i, span in enumerate(spans):
            if span[5] != phase:
                continue
            name = span[0]
            layer = name.split(".", 1)[0]
            ancestors = list(self._ancestors(i))
            outer_layer = any(a.split(".", 1)[0] == layer for a in ancestors)
            for key, nested in ((name, name in ancestors), (layer, outer_layer)):
                row = table.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["self_s"] += self_time[i]
                if not nested:
                    row["total_s"] += dur[i]
        return table

    def _ancestors(self, i):
        parent = self.spans[i][1]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][1]

    def phase_counts(self, phase) -> dict:
        return {key: value for (p, key), value in self.counts.items() if p == phase}

    def write(self, path: str) -> None:
        """Spans as JSON lines: id, parent, name, phase, start, end, duration."""
        dur = self.durations()
        with open(path, "w") as handle:
            for i, (name, parent, start, end, _, phase) in enumerate(self.spans):
                handle.write(
                    json.dumps([i, parent, name, phase, start, end, dur[i]]) + "\n"
                )
