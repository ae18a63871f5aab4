"""The benchmark's span tracer still finds every function it wraps.

``bench/spans.py`` patches named functions and methods of ``zygdist`` from
outside.  Installing and removing it here makes a rename or deletion of one
of its targets (a function in ``FUNCTIONS`` or a method in ``METHODS``) fail
the unit tests, not only the benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_target():
    spans = _load_spans()
    targets = [
        (importlib.import_module(f"zygdist.{module}"), attr)
        for module, attr, _ in spans.FUNCTIONS
    ]
    originals = [getattr(module, attr) for module, attr in targets]
    methods = [
        (getattr(importlib.import_module(f"zygdist.{module}"), cls), attr)
        for module, cls, attr, _ in spans.METHODS
    ]
    method_originals = [cls.__dict__[attr] for cls, attr in methods]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, attr), original in zip(targets, originals):
            assert getattr(module, attr).__wrapped__ is original
        for (cls, attr), original in zip(methods, method_originals):
            assert cls.__dict__[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(targets, originals):
        assert getattr(module, attr) is original
    for (cls, attr), original in zip(methods, method_originals):
        assert cls.__dict__[attr] is original
