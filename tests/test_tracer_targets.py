"""Every function the benchmark tracer wraps by name still exists.

``perfbench/tracer.py`` replaces each dotted name in ``TARGETS`` with a
spanned wrapper, so renaming or deleting one breaks ``--trace 1`` runs.
This test reads ``TARGETS`` without changing the tracer and fails first.
"""

import importlib

from conftest import perfbench


def _resolves(layer: str, dotted: str) -> bool:
    home = importlib.import_module(f"hlab.{layer}")
    if "." in dotted:
        cls_name, attr = dotted.split(".")
        # the tracer reads the class __dict__: an inherited method would not do
        return callable(vars(getattr(home, cls_name, object)).get(attr))
    return callable(getattr(home, dotted, None))


def test_every_tracer_target_resolves():
    names = [(layer, dotted) for layer, group in perfbench("tracer").TARGETS.items() for dotted in group]
    assert len(names) > 50
    missing = [f"hlab.{layer}.{dotted}" for layer, dotted in names if not _resolves(layer, dotted)]
    assert not missing, missing
