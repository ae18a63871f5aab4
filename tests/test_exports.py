"""The package namespace exports exactly what its modules export."""

import importlib
import pkgutil

import zygdist


def test_package_all_is_the_union_of_module_all():
    union = set()
    for info in pkgutil.iter_modules(zygdist.__path__):
        module = importlib.import_module(f"zygdist.{info.name}")
        union |= set(getattr(module, "__all__", ()))
    assert set(zygdist.__all__) == union
    assert len(zygdist.__all__) == len(set(zygdist.__all__))
    assert all(hasattr(zygdist, name) for name in zygdist.__all__)
