"""Shared helpers: the seeded random Chern data of `hlab.fixtures`."""

from hlab.fixtures import (  # noqa: F401 - re-exported for the test modules
    random_homogeneous,
    random_manifold_bundle,
    weight_keys,
)
